"""Time solve_family per kind of family in two source trees and write BENCH_points.json.

    python3 ci/bench_points.py --parent DIR [--out BENCH_points.json]

DIR is a checkout of the parent commit; the change is the checkout this
script sits in.  The families are those of the benchmark's ``paper`` and
``beyond_paper`` workloads (``WORKLOADS``), each of one kind by its
closed-form critical set: ``empty``, a one-point set in at most two
unknowns whose square roots are all ``rational`` or not (``irrational``),
and ``newton`` for every other.  Each run starts one interpreter per tree,
the two trees in turn; that interpreter calls ``solve_family`` twice on
every family, all families once before any twice, and sums the times per
workload and kind: the first pass is the ``cold`` first call, the second
the ``warm`` one.  A time is the min over the ``RUNS`` runs, and every
run's time is kept, so the parent's spread shows too.  Each run also
records the sha256 of ``critical --json`` for every case, which must agree
between the trees.

The ``closed_form`` section times ``critical_set`` alone, one call per
family of each of ``CLOSED_FORM`` in every run, its families enumerated
before the clock starts, and records the sha256 of the ``repr`` of the
returned sets, which holds every field; those must agree between the trees
too.  Standard library only.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {"paper": [(3, 3, 2), (3, 3, 3), (3, 4, 2), (3, 4, 3)],
             "beyond_paper": [(3, 5, 3), (4, 3, 3)]}
KINDS = ("empty", "rational", "irrational", "newton")
CLOSED_FORM = [(3, 5, 5), (3, 6, 5), (4, 4, 5), (6, 3, 5)]
RUNS = 5

# run in a fresh interpreter with the tree's src/ on the path; prints one
# JSON object {"times": {workload: {kind: [count, cold_s, warm_s]}},
# "sha256": {case: hex}, "closed_form": {case: [count, seconds, hex]}}
CHILD = """
import contextlib, hashlib, io, json, math, sys, time
from momentforge import cli
from momentforge.critical import critical_set, solve_family
from momentforge.diagonal import diagonal_families
from momentforge.symd import weight

def kind(family):
    cs = critical_set(family)
    if cs.is_empty:
        return "empty"
    if cs.dimension or family.nparams > 2:
        return "newton"
    c2 = [u / weight(a) for u, a in zip(cs.point, family.display_terms())]
    squares = [c / c2[-1] for c in c2[:-1]]
    rational = all(math.isqrt(k) ** 2 == k for q in squares for k in (q.numerator, q.denominator))
    return "rational" if rational else "irrational"

workloads = json.loads(sys.argv[1])
families = {w: [f for case in cases for f in diagonal_families(*case)]
            for w, cases in workloads.items()}
seconds = {w: [[], []] for w in workloads}
for calls in (0, 1):  # every family's first call, then every family's second
    for w, fams in families.items():
        for family in fams:
            start = time.perf_counter()
            solve_family(family)
            seconds[w][calls].append(time.perf_counter() - start)
# classified after the timing, so that no first call finds a cache filled
times = {w: {} for w in workloads}
for w, fams in families.items():
    for family, cold, warm in zip(fams, *seconds[w]):
        row = times[w].setdefault(kind(family), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += cold
        row[2] += warm
shas = {}
for cases in workloads.values():
    for n, d, m in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["critical", "--n", str(n), "--d", str(d), "--terms", str(m), "--json"])
        shas[f"critical({n},{d},{m})"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
closed = {}
for n, d, m in json.loads(sys.argv[2]):
    fams = list(diagonal_families(n, d, m))
    start = time.perf_counter()
    sets = [critical_set(family) for family in fams]
    seconds = time.perf_counter() - start
    closed[f"({n},{d},{m})"] = [len(fams), seconds, hashlib.sha256(repr(sets).encode()).hexdigest()]
print(json.dumps({"times": times, "sha256": shas, "closed_form": closed}))
"""


def run_once(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(WORKLOADS),
                           json.dumps(CLOSED_FORM)],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_points.json")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {label: [] for label in trees}
    for k in range(RUNS):
        for label, tree in trees.items():
            runs[label].append(run_once(tree))
            print(f"run {k + 1}/{RUNS} {label} done", file=sys.stderr)
    table = []
    for workload in WORKLOADS:
        for kind in KINDS:
            counts = {run["times"][workload].get(kind, [0])[0]
                      for label in trees for run in runs[label]}
            if counts == {0}:
                continue
            row = {"workload": workload, "kind": kind, "families": max(counts)}
            for label in trees:
                for slot, when in ((1, "cold"), (2, "warm")):
                    ms = [run["times"][workload][kind][slot] * 1000 for run in runs[label]]
                    row[f"{label}_{when}_ms"] = round(min(ms), 3)
                    row[f"{label}_{when}_runs_ms"] = [round(t, 3) for t in ms]
            table.append(row)
    closed_form = []
    for case in runs["parent"][0]["closed_form"]:
        row = {"case": case, "families": runs["parent"][0]["closed_form"][case][0]}
        for label in trees:
            ms = [run["closed_form"][case][1] * 1000 for run in runs[label]]
            row[f"{label}_ms"] = round(min(ms), 3)
            row[f"{label}_runs_ms"] = [round(t, 3) for t in ms]
        row["sha256"] = runs["change"][0]["closed_form"][case][2]
        closed_form.append(row)
    # every output hash of a run: critical --json per case, critical_set per case
    shas = {label: [{**run["sha256"], **{f"critical_set{case}": v[2]
                                         for case, v in run["closed_form"].items()}}
                    for run in runs[label]] for label in trees}
    mismatched = sorted({case for label in trees for run in shas[label]
                         for case, sha in run.items() if sha != shas["parent"][0][case]})
    report = {
        "what": "solve_family per workload and kind of family, the sum over its families, "
                "parent against change; cold is each family's first call in a fresh "
                "interpreter, warm its second; closed_form is critical_set alone, one "
                "call per family of each case, and the sha256 of the repr of its results; "
                "min of the runs in milliseconds",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "runs": RUNS,
        "outputs_match": not mismatched,
        "critical_json_sha256": runs["change"][0]["sha256"],
        "kinds": table,
        "closed_form": closed_form,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for row in table:
        print(f"{row['workload']:13} {row['kind']:10} {row['families']:>4}  cold parent "
              f"{row['parent_cold_ms']:8.2f} change {row['change_cold_ms']:8.2f} ms  warm parent "
              f"{row['parent_warm_ms']:8.2f} change {row['change_warm_ms']:8.2f} ms")
    for row in closed_form:
        print(f"closed_form {row['case']:9} {row['families']:>4}  critical_set parent "
              f"{row['parent_ms']:8.2f} change {row['change_ms']:8.2f} ms")
    if mismatched:
        print("outputs differ: " + ", ".join(mismatched), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
