"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from momentforge import cli, diagonal_families, solve_family

import measure
import probe
from probe import NOMINAL_S, Timeline
from spans import Span, Tracer, patched, self_times, summarize
from workloads import WORKLOADS, family_payload, sha256_of

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0, -1, True, None),
        Span("a", 1.0, 4.0, 0, True, None),
        Span("a", 2.0, 3.0, 1, False, None),  # recursive call of a
        Span("b", 5.0, 9.0, 0, True, None),
        Span("c", 6.0, 7.5, 3, True, None),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.5, 1.5]

    tracer = Tracer()
    tracer.spans = spans
    table = summarize(tracer)
    assert table["a"] == {"calls": 2, "s": 3.0, "self_s": 3.0}
    assert table["root"]["self_s"] == 3.0


def test_tracer_links_parents_and_charges_ops_to_innermost_span():
    tracer = Tracer()
    add = Fraction.__add__

    def inner():
        return Fraction(1, 3) + Fraction(1, 6)

    def outer():
        total = Fraction(1) * 2
        return [tracer.call("inner", inner), total]

    with patched(tracer):
        tracer.call("outer", outer)
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.fraction_ops == {"outer": 1, "inner": 1}
    assert Fraction.__add__ is add  # restored on exit


def test_reference_seconds_scale_each_stretch_by_its_probes():
    timeline = Timeline()
    # probes at 0-1, 3-4 and 9-10; the host runs at half the reference speed,
    # then at the reference speed
    timeline.probes = [(0.0, 1.0, 2 * NOMINAL_S), (3.0, 4.0, 2 * NOMINAL_S), (9.0, 10.0, NOMINAL_S)]
    assert timeline.seconds(1.0, 9.0, reference=False) == 7.0  # the probe at 3-4 left out
    assert timeline.seconds(1.0, 9.0) == pytest.approx(2 * 0.5 + 5 / 1.5)
    assert timeline.seconds(2.0, 5.0) == pytest.approx(1 * 0.5 + 1 / 1.5)


def test_timeline_probes_during_a_call_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    timeline = Timeline()
    with timeline.every(0.01):
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(timeline.probes) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.probe() > 0


def test_fingerprint_is_sha256_of_critical_json():
    families = diagonal_families(3, 3, 2)
    payload = [family_payload(f, solve_family(f)) for f in families]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["critical", "--n", "3", "--d", "3", "--terms", "2", "--json"]) == 0
    assert sha256_of(payload) == hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_for_every_workload(workload, trace):
    os.environ["MOMENTFORGE_THREADS"] = measure.THREADS
    result, report = measure.run_workload(workload, 7, 0, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0
    assert report["failed_ratio"] == 0
    assert set(report["fingerprint_vs_baseline"].values()) == {"match"}
    if workload == "paper":
        assert result["attempted"] == 12 * len(report["pass_wall_s"])
        assert len(report["checks"]) == 12 and all(ok for _, ok, _ in report["checks"])


def _traced_counts():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def test_fraction_ops_repeat_across_traced_runs():
    first, second = _traced_counts(), _traced_counts()
    assert first["total.fraction_ops"] > 0
    assert first == second


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
