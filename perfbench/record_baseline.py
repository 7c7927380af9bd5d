"""Write perfbench/baseline.json: the output fingerprint of every input.

Run from the root of a checkout whose outputs are the reference:

    PYTHONPATH=src MOMENTFORGE_THREADS=1 python3 perfbench/record_baseline.py

A later run flags each fingerprint that differs from this file.  Record it
again only in a change that means to alter the solver's output.
"""

import json
from pathlib import Path

from workloads import NEWTON_EMPTY, WORKLOADS, Inputs, fingerprints, run_pass

baseline = {}
for workload in WORKLOADS:
    for drawn in NEWTON_EMPTY if workload == "three_unknowns" else (None,):
        baseline.update(fingerprints(run_pass(Inputs(workload, 0, drawn))))
path = Path(__file__).resolve().parent / "baseline.json"
path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
print(f"{len(baseline)} fingerprints written to {path}")
