"""Benchmark of the momentforge pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another.  The run
prints a table of every metric with its unit, then one JSON line with the
full report (environment, sample counts, checks, fingerprints), and last one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced run.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momentforge" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import measure
    from workloads import WORKLOADS

    os.environ["MOMENTFORGE_THREADS"] = measure.THREADS
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(w not in WORKLOADS for w in workloads):
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for workload in workloads:
        result, report = measure.run_workload(workload, args.seed, args.seconds, bool(args.trace))
        measure.print_table(workload, result, report)
        print(json.dumps(report, sort_keys=True), flush=True)
        results[workload] = result
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
