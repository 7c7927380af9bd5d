"""The A/B bench script ``ci/bench_ab.py``: its case lists follow the
benchmark's workloads, and one differing output fails the comparison."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from momentforge.diagonal import diagonal_families

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_ab(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leaves ci/ and perfbench/ as they are
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "ci" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_workload_cases_are_what_the_benchmark_solves(bench_ab, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    for name, cases in bench_ab.WORKLOADS.items():
        result = workloads.run_pass(workloads.make_inputs(name, 1))
        solved = Counter((f.poly.n, f.poly.d, len(f.poly.terms))
                         for _, group in result.groups for f, _ in group)
        assert solved == {case: len(diagonal_families(*case)) for case in cases}, name


def runs_of(*shas):
    """One synthetic ``measure`` output per sha256 of the case ``c``."""
    return [{"closed_form": {"c": {"families": 2, "sha256": sha, "ms": 1.0 + k}},
             "kinds": {"paper empty": {"families": 4, "cold_ms": 3.0, "warm_ms": 2.0,
                                       "cold_median_ms": 0.75 + k, "warm_median_ms": 0.5}}}
            for k, sha in enumerate(shas)]


def test_equal_outputs_name_no_case(bench_ab):
    report = bench_ab.aggregate({"parent": runs_of("a", "a"), "change": runs_of("a", "a")})
    assert report["outputs_match"] and report["mismatched"] == []
    assert report["closed_form"] == [{
        "case": "c", "families": 2, "sha256": "a",
        "parent_ms": 1.0, "parent_runs_ms": [1.0, 2.0],
        "change_ms": 1.0, "change_runs_ms": [1.0, 2.0]}]
    assert report["kinds"][0]["parent_cold_runs_ms"] == [3.0, 3.0]
    # a kind's per-family medians are times too: the min of the runs, and every run
    assert {k: v for k, v in report["kinds"][0].items() if "median" in k} == {
        "parent_cold_median_ms": 0.75, "parent_cold_median_runs_ms": [0.75, 1.75],
        "parent_warm_median_ms": 0.5, "parent_warm_median_runs_ms": [0.5, 0.5],
        "change_cold_median_ms": 0.75, "change_cold_median_runs_ms": [0.75, 1.75],
        "change_warm_median_ms": 0.5, "change_warm_median_runs_ms": [0.5, 0.5]}


def test_kind_rows_hold_sums_and_per_family_medians(bench_ab):
    rows = bench_ab.kind_rows(["empty", "rational", "empty", "empty"],
                              [1.0, 5.0, 3.0, 2.0], [0.5, 4.0, 2.5, 1.5])
    assert list(rows) == list(bench_ab.KINDS)
    assert rows["empty"] == {"families": 3, "cold_ms": 6.0, "warm_ms": 4.5,
                             "cold_median_ms": 2.0, "warm_median_ms": 1.5}
    assert rows["rational"] == {"families": 1, "cold_ms": 5.0, "warm_ms": 4.0,
                                "cold_median_ms": 5.0, "warm_median_ms": 4.0}
    assert rows["newton"] == {"families": 0, "cold_ms": 0.0, "warm_ms": 0.0,
                              "cold_median_ms": 0.0, "warm_median_ms": 0.0}


@pytest.mark.parametrize("parent, change", [(("a", "b"), ("a", "a")),
                                            (("a", "a"), ("b", "b"))])
def test_one_differing_sha256_names_its_case(bench_ab, parent, change):
    report = bench_ab.aggregate({"parent": runs_of(*parent), "change": runs_of(*change)})
    assert not report["outputs_match"] and report["mismatched"] == ["closed_form c"]
