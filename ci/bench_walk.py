"""Time the two support enumerators in two source trees and write BENCH_walk.json.

    python3 ci/bench_walk.py --parent DIR [--out BENCH_walk.json]

DIR is a checkout of the parent commit; the change is the checkout this
script sits in.  The cases are ``diagonal_families(n, d, m)`` on the
``DIAGONAL`` triples and the sweeps ``orbit_classes(n, d, m)`` over every
``m`` of the ``SWEEPS`` pairs.  Each run starts one interpreter per tree,
the two trees in turn, and that interpreter times every case once; a
case's time is the min over the ``RUNS`` runs, and every run's time is
kept, so the parent's spread shows too.  Each case also records its count
(families, or orbits summed over ``m``) and the sha256 of its output, which
must agree between the trees.  Standard library only.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIAGONAL = [(3, 5, 3), (4, 3, 3), (3, 5, 5), (3, 5, 6), (3, 5, 7), (3, 6, 5),
            (4, 4, 5), (5, 3, 5), (5, 3, 6), (6, 3, 5)]
SWEEPS = [(3, 4), (4, 3)]
RUNS = 5

# run in a fresh interpreter with the tree's src/ on the path; prints one
# JSON object {case: [seconds, count, sha256]}
CHILD = """
import hashlib, json, sys, time
from math import comb
from momentforge.diagonal import diagonal_families
from momentforge.orbits import orbit_classes

def sweep(n, d):
    return [orbit_classes(n, d, m) for m in range(1, comb(n + d - 1, d) + 1)]

out = {}
for name, call, args in json.loads(sys.argv[1]):
    start = time.perf_counter()
    result = {"diagonal_families": diagonal_families, "orbit_classes": sweep}[call](*args)
    seconds = time.perf_counter() - start
    if call == "orbit_classes":
        text = repr([[sorted(s) for s in reps] for reps in result])
        count = sum(map(len, result))
    else:
        text, count = "\\n".join(map(str, result)), len(result)
    out[name] = [seconds, count, hashlib.sha256(text.encode()).hexdigest()]
print(json.dumps(out))
"""


def cases():
    for n, d, m in DIAGONAL:
        yield f"diagonal_families({n},{d},{m})", "diagonal_families", [n, d, m]
    for n, d in SWEEPS:
        yield f"orbit_classes({n},{d},all m)", "orbit_classes", [n, d]


def run_once(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(list(cases()))],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_walk.json")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {label: [] for label in trees}
    for k in range(RUNS):
        for label, tree in trees.items():
            runs[label].append(run_once(tree))
            print(f"run {k + 1}/{RUNS} {label} done", file=sys.stderr)
    table, mismatched = [], []
    for name, _, _ in cases():
        row = {"case": name}
        for label in trees:
            seconds = [run[name][0] for run in runs[label]]
            row[f"{label}_s"] = round(min(seconds), 4)
            row[f"{label}_runs_s"] = [round(s, 4) for s in seconds]
        outputs = {tuple(run[name][1:]) for label in trees for run in runs[label]}
        if len(outputs) != 1:
            mismatched.append(name)
        row["count"], row["sha256"] = runs["change"][0][name][1:]
        table.append(row)
    report = {
        "what": "diagonal_families per case and orbit_classes over every m, "
                "parent against change, min of the runs in seconds",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "runs": RUNS,
        "outputs_match": not mismatched,
        "cases": table,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for row in table:
        print(f"{row['case']:32} {row['count']:>7} "
              f"parent {row['parent_s']:9.4f} s  change {row['change_s']:9.4f} s")
    if mismatched:
        print("outputs differ: " + ", ".join(mismatched), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
