"""Time the enumerators, solve_family, the closed forms, reproduce-paper and the trace engine in two source trees and write BENCH_ab.json.

    python3 ci/bench_ab.py --parent DIR [--out BENCH_ab.json]

DIR is a checkout of the parent commit; the change is the checkout this
script sits in.  Each run starts one interpreter per tree, the two trees in
turn, and that interpreter (``measure``) computes every section once:

- ``enumerators``: ``diagonal_families(n, d, m)`` on the ``DIAGONAL`` triples
  and ``orbit_classes(n, d, m)`` over every ``m`` of the ``SWEEPS`` pairs;
  the count is of families, or of orbits summed over ``m``.  They run first
  and fill none of the caches that ``solve_family`` reads.
- ``kinds``: ``solve_family`` on the families of the benchmark's ``paper``
  and ``beyond_paper`` workloads (``WORKLOADS``), summed per workload and
  kind of family by its closed-form critical set: ``empty``, a one-point set
  in at most two unknowns whose square roots are all ``rational`` or not
  (``irrational``), and ``newton`` for every other; beside each sum, the
  median over the kind's families (``*_median_ms``), the in-isolation time
  to read a ``family_ms.p50`` against when the median solve is of that kind.
  Every family's first call (``cold``) comes before any second (``warm``),
  and the kinds are found after the timing, so that no first call finds a
  cache filled.
- ``closed_form``: ``critical_set`` alone, one call per family of each
  ``CLOSED_FORM`` case, its families enumerated before the clock starts; the
  sha256 is of the ``repr`` of the returned sets, which holds every field.
- ``critical_json``: the sha256 of what ``critical --json`` prints for each
  workload case.
- ``reproduce``: ``reproduce.run_case`` on each paper case, the min of
  ``REPEATS`` calls, with the sha256 of its ``(name, ok, detail)`` rows.
- ``engine``: on the shape ``ENGINE``, ``gradient`` of every form of the
  paper's set (nonzero coefficients all 1) whose support has a root
  difference, and ``symbolic_moment_matrix`` of the general form (one
  parameter per coefficient), the min of ``REPEATS`` calls, each with the
  sha256 of its output; the forms are built before the clock starts.

A time is in milliseconds, the min over the ``RUNS`` runs, and every run's
time is kept, so the parent's spread shows too.  Every other field of a row,
the count and the sha256, must be the same in every run of both trees; the
script exits 1 naming the cases where it is not.  Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIAGONAL = [(3, 5, 3), (4, 3, 3), (3, 5, 5), (3, 5, 6), (3, 5, 7), (3, 6, 5),
            (4, 4, 5), (5, 3, 5), (5, 3, 6), (6, 3, 5)]
SWEEPS = [(3, 4), (4, 3)]
WORKLOADS = {"paper": [(3, 3, 2), (3, 3, 3), (3, 4, 2), (3, 4, 3)],
             "beyond_paper": [(3, 5, 3), (4, 3, 3)]}
KINDS = ("empty", "rational", "irrational", "newton")
CLOSED_FORM = [(3, 5, 5), (3, 6, 5), (4, 4, 5), (6, 3, 5)]
REPRODUCE = ("cubics", "quartics")
ENGINE = (3, 4)
RUNS = 5
REPEATS = 5
SECTIONS = ("enumerators", "kinds", "closed_form", "critical_json", "reproduce", "engine")


def measure() -> None:
    """Print every section as JSON, {section: {case: {field: value}}}; run in a
    fresh interpreter with the tree's src/ on the path."""
    import contextlib
    import hashlib
    import io
    import math
    import time

    from fractions import Fraction

    from momentforge import cli, reproduce
    from momentforge.critical import critical_set, solve_family
    from momentforge.diagonal import diagonal_families
    from momentforge.moment import gradient, symbolic_moment_matrix
    from momentforge.orbits import orbit_classes
    from momentforge.polyring import ParamPoly, SparsePoly
    from momentforge.symd import enumerate_monomials, root_pair, weight

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def timed(call, *args):
        start = time.perf_counter()
        result = call(*args)
        return result, (time.perf_counter() - start) * 1000

    def kind(family):
        cs = critical_set(family)
        if cs.is_empty:
            return "empty"
        if cs.dimension or family.nparams > 2:
            return "newton"
        c2 = [u / weight(a) for u, a in zip(cs.point, family.display_terms())]
        squares = [c / c2[-1] for c in c2[:-1]]
        rational = all(math.isqrt(k) ** 2 == k for q in squares
                       for k in (q.numerator, q.denominator))
        return "rational" if rational else "irrational"

    out = {section: {} for section in SECTIONS}
    for n, d, m in DIAGONAL:
        families, ms = timed(diagonal_families, n, d, m)
        out["enumerators"][f"diagonal_families({n},{d},{m})"] = {
            "count": len(families), "sha256": sha("\n".join(map(str, families))), "ms": ms}
    for n, d in SWEEPS:
        sweep, ms = timed(lambda: [orbit_classes(n, d, m)
                                   for m in range(1, math.comb(n + d - 1, d) + 1)])
        out["enumerators"][f"orbit_classes({n},{d},all m)"] = {
            "count": sum(map(len, sweep)),
            "sha256": sha(repr([[sorted(s) for s in reps] for reps in sweep])), "ms": ms}

    families = {w: [f for case in cases for f in diagonal_families(*case)]
                for w, cases in WORKLOADS.items()}
    calls = {w: ([], []) for w in WORKLOADS}
    for call in (0, 1):  # every family's first call, then every family's second
        for w, fams in families.items():
            calls[w][call].extend(timed(solve_family, f)[1] for f in fams)
    for w, fams in families.items():
        rows = kind_rows(map(kind, fams), *calls[w])
        out["kinds"].update((f"{w} {k}", row) for k, row in rows.items())
        for n, d, m in WORKLOADS[w]:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                cli.main(["critical", "--n", str(n), "--d", str(d), "--terms", str(m), "--json"])
            out["critical_json"][f"critical({n},{d},{m})"] = {"sha256": sha(text.getvalue())}

    for n, d, m in CLOSED_FORM:
        fams = diagonal_families(n, d, m)
        sets, ms = timed(lambda: [critical_set(f) for f in fams])
        out["closed_form"][f"critical_set({n},{d},{m})"] = {
            "families": len(fams), "sha256": sha(repr(sets)), "ms": ms}

    for case in REPRODUCE:
        times = [timed(reproduce.run_case, case) for _ in range(REPEATS)]
        rows = [tuple(check) for check in times[0][0]]
        out["reproduce"][f"run_case({case})"] = {
            "checks": len(rows), "sha256": sha(repr(rows)), "ms": min(t for _, t in times)}

    n, d = ENGINE
    basis = enumerate_monomials(n, d)
    forms = [SparsePoly(n, d, dict.fromkeys(support, Fraction(1)))
             for m in range(1, len(basis) + 1) for support in orbit_classes(n, d, m)]
    forms = [f for f in forms if any(root_pair(a, b) for a in f.terms for b in f.terms)]
    grads, ms = timed(lambda: [gradient(f) for f in forms])
    out["engine"][f"gradient({n},{d} paper set, root difference)"] = {
        "count": len(forms), "sha256": sha("\n".join(" ".join(map(str, g)) for g in grads)),
        "ms": ms}
    general = SparsePoly(n, d, {a: ParamPoly.symbol(len(basis), k) for k, a in enumerate(basis)})
    times = [timed(symbolic_moment_matrix, general) for _ in range(REPEATS)]
    out["engine"][f"symbolic_moment_matrix(general {n},{d})"] = {
        "count": len(basis), "sha256": sha(str(times[0][0])), "ms": min(t for _, t in times)}
    print(json.dumps(out))


def kind_rows(kinds, colds, warms) -> dict:
    """The ``kinds`` row of each of ``KINDS`` from every family's kind and
    times: the count, the sums and the per-family medians (0 for no family)."""
    times = {k: ([], []) for k in KINDS}
    for k, cold, warm in zip(kinds, colds, warms):
        times[k][0].append(cold)
        times[k][1].append(warm)
    return {k: {"families": len(c), "cold_ms": sum(c, 0.0), "warm_ms": sum(w, 0.0),
                "cold_median_ms": statistics.median(c or [0.0]),
                "warm_median_ms": statistics.median(w or [0.0])}
            for k, (c, w) in times.items()}


def run_once(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    code = "import runpy, sys; runpy.run_path(sys.argv[1])['measure']()"
    proc = subprocess.run([sys.executable, "-c", code, __file__], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout)


def aggregate(runs: dict) -> dict:
    """The rows of each section, from ``{"parent": [...], "change": [...]}``
    holding one ``measure`` output per run, and the cases whose outputs are
    not the same in every run.  A field named ``*ms`` is a time, kept as the
    min and every run per tree; any other is an output, taken from the change."""
    sections, mismatched = {}, set()
    for section, cases in runs["change"][0].items():
        sections[section] = []
        for case, fields in cases.items():
            outputs = {k: v for k, v in fields.items() if not k.endswith("ms")}
            row = {"case": case, **outputs}
            for label, tree_runs in runs.items():
                records = [run[section][case] for run in tree_runs]
                if any({k: r.get(k) for k in outputs} != outputs for r in records):
                    mismatched.add(f"{section} {case}")
                for key in (k for k in fields if k not in outputs):
                    ms = [r[key] for r in records]
                    row[f"{label}_{key}"] = round(min(ms), 3)
                    row[f"{label}_{key[:-2]}runs_ms"] = [round(t, 3) for t in ms]
            sections[section].append(row)
    return {"outputs_match": not mismatched, "mismatched": sorted(mismatched), **sections}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ab.json")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {label: [] for label in trees}
    for k in range(RUNS):
        for label, tree in trees.items():
            runs[label].append(run_once(tree))
            print(f"run {k + 1}/{RUNS} {label} done", file=sys.stderr)
    report = {
        "what": "parent against change, min of the runs in milliseconds: the "
                "enumerators; solve_family per workload and kind of family, summed "
                "over its families and their median, cold the first call in a fresh "
                "interpreter and warm the second; critical_set alone per closed_form "
                "case; the sha256 of critical --json per workload case; reproduce.run_case per "
                "paper case; and gradient over the (3,4) paper-set forms with a root "
                "difference and symbolic_moment_matrix of the general quartic",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "runs": RUNS,
        **aggregate(runs),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for section in SECTIONS:
        for row in report[section]:
            times = "  ".join(f"{t} {row['parent_' + t]:9.2f} -> {row['change_' + t]:9.2f}"
                              for t in ("ms", "cold_ms", "warm_ms", "cold_median_ms",
                                        "warm_median_ms") if "parent_" + t in row)
            count = row.get("count", row.get("families", row.get("checks", "")))
            print(f"{section:13} {row['case']:30} {count:>6}  {times or row['sha256']}")
    if report["mismatched"]:
        print("outputs differ: " + ", ".join(report["mismatched"]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
