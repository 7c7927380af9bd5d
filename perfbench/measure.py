"""Measurement, metrics and the run report of one workload."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import NOMINAL_S
from spans import summarize
from workloads import check, fingerprints, make_inputs, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREADS = "1"  # the package default, set explicitly
SETUP_REPEATS = 15
# the package import a workload needs, timed inside a fresh interpreter, then
# the host's speed in that interpreter; the interpreter's own start-up is left
# out, as no change to the package moves it
SETUP_CODE = (
    "import time; start = time.perf_counter(); "
    "import momentforge, momentforge.reproduce; "
    "seconds = time.perf_counter() - start; "
    "import probe; print(seconds, probe.child_probe())"
)

# spans reported as `<name>.s` (time inside outermost calls) and `<name>.calls`
TIMED_SPANS = (
    "orbits.orbit_classes",
    "diagonal.is_identically_diagonal",
    "moment.gradient_symbolic",
    "moment.gradient",
    "univariate.resultant",
    "univariate.isolate_real_roots",
    "univariate.refine_interval",
    "univariate.poly_gcd",
    "critical.torus_canonical",
    "reproduce.orbit_torus_canonical",
)
OP_LAYERS = ("orbits", "diagonal", "moment", "univariate", "critical", "reproduce")


def child_env() -> dict:
    env = dict(os.environ)
    # the warm-up start of measure_setup must be able to write the bytecode cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
    env["MOMENTFORGE_THREADS"] = THREADS
    return env


def measure_setup() -> list[tuple[float, float]]:
    """(import time, probe time) of the package in fresh interpreters, after
    one warm-up start that writes the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = child_env()
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        seconds, probe_s = map(float, proc.stdout.split())
        times.append((seconds, probe_s))
    return times[1:]


def family_ms(passes, reference: bool = True) -> list[float]:
    """Every family solve of every pass, pooled, in ms with the probes left
    out: at the probes' reference speed, or as the clock read them."""
    return [
        p.timeline.seconds(start, end, reference) * 1000
        for p in passes for start, end in p.families
    ]


def reference_wall_s(p) -> float:
    probes = p.timeline.probes
    return p.timeline.seconds(probes[0][1], probes[-1][0])


def timed_passes(inputs, seconds: float, trace: bool) -> tuple[list, float]:
    """Closed loop of passes for about ``seconds``, and the process's peak RSS
    in MB once it has run one pass.  Traced runs alternate an untraced and a
    traced pass, starting untraced, so every traced pass finds the caches
    warm."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(inputs, traced=trace and len(passes) % 2 == 1))
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed + elapsed / len(passes) > seconds:
            return passes, peak_rss_mb


def percentile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(passes, setup_times, peak_rss_mb, verdict) -> tuple[dict, dict]:
    # The host's speed swings by half within seconds, so every time is taken
    # at the probe's reference speed (README.md)
    solves = family_ms(passes)
    p90 = percentile(solves, 90)
    metrics = {
        "wall_s": (statistics.median(map(reference_wall_s, passes)), "s"),
        "family_ms.p50": (percentile(solves, 50), "ms"),
        "family_ms.p90": (p90, "ms"),
        "setup_s": (statistics.median(t * NOMINAL_S / probe_s for t, probe_s in setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "certified_ratio": (verdict.certified / verdict.solutions if verdict.solutions else 0.0, "ratio"),
    }
    samples = {
        "wall_s": len(passes),
        "family_ms.families": len(passes[0].families),
        "family_ms.solves": len(solves),
        "family_ms.solves_beyond_p90": sum(ms > p90 for ms in solves),
        "setup_s": len(setup_times),
        "peak_rss_mb": 1,
        "certified_ratio": verdict.solutions,
    }
    return metrics, samples


def raw_figures(passes, setup_times) -> dict:
    """The end-to-end times as the clock read them, and the probe times, for
    the report line."""
    solves = family_ms(passes, reference=False)
    return {
        "wall_s.median": statistics.median(p.wall_s for p in passes),
        "wall_s.min": min(p.wall_s for p in passes),
        "family_ms.p50": percentile(solves, 50),
        "family_ms.p90": percentile(solves, 90),
        "setup_s": statistics.median(t for t, _ in setup_times),
        "probes": sum(len(p.timeline.probes) for p in passes),
        "probe_s.median": statistics.median(x[2] for p in passes for x in p.timeline.probes),
        "probe_s.nominal": NOMINAL_S,
    }


def layer_values(tracer) -> dict:
    table = summarize(tracer)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    values = {}
    for name in TIMED_SPANS:
        row = table.get(name, empty)
        values[f"{name}.s"] = (row["s"], "s")
        values[f"{name}.calls"] = (row["calls"], "count")
    values["critical.solve_real.self_s"] = (table.get("critical.solve_real", empty)["self_s"], "s")

    spans = tracer.spans
    verdicts = [s.outcome for s in spans if s.name == "diagonal.is_identically_diagonal"]
    values["diagonal.pass_ratio"] = (sum(verdicts) / len(verdicts) if verdicts else 0.0, "ratio")
    solutions = sum(s.outcome for s in spans if s.name == "critical.solve_real")
    checked = sum(
        1 for s in spans
        if s.name == "critical.verify_critical" and s.parent >= 0
        and spans[s.parent].name == "critical.solve_real"
    )
    values["critical.accept_ratio"] = (solutions / checked if checked else 0.0, "ratio")

    ops = {layer: 0 for layer in OP_LAYERS}
    for name, row in table.items():
        layer = name.split(".")[0]
        if layer in ops:
            ops[layer] += row.get("fraction_ops", 0)
    for layer, count in ops.items():
        values[f"{layer}.fraction_ops"] = (count, "count")
    values["total.fraction_ops"] = (sum(tracer.fraction_ops.values()), "count")
    return values


def per_layer(passes) -> tuple[dict, dict]:
    traced = [p for p in passes if p.tracer is not None]
    plain = [p for p in passes if p.tracer is None]
    per_pass = [layer_values(p.tracer) for p in traced]
    metrics = {
        name: (min(v[name][0] for v in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    overhead = min(p.wall_s for p in traced) - min(p.wall_s for p in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {"traced_passes": len(traced), "untraced_passes": len(plain)}


def spans_table(tracer) -> dict:
    return {
        name: {k: round(v, 6) if isinstance(v, float) else v for k, v in row.items()}
        for name, row in sorted(summarize(tracer).items())
    }


def write_spans(workload: str, seed: int, tracer) -> Path:
    """Spans of the first traced pass, written once the run is over."""
    out = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    rows = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    out.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": rows}))
    return out


def baseline_flags(prints: dict) -> dict:
    path = HERE / "baseline.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    return {
        label: "match" if known.get(label) == sha else ("differs" if label in known else "no baseline")
        for label, sha in prints.items()
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    inputs = make_inputs(workload, seed)
    setup_times = [] if trace else measure_setup()
    passes, peak_rss_mb = timed_passes(inputs, seconds, trace)
    verdict = check(inputs, passes)

    prints = fingerprints(passes[0])
    stable = all(fingerprints(p) == prints for p in passes[1:])
    if trace:
        metrics, samples = per_layer(passes)
    else:
        metrics, samples = end_to_end(passes, setup_times, peak_rss_mb, verdict)

    report = {
        "workload": workload,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "MOMENTFORGE_THREADS": os.environ["MOMENTFORGE_THREADS"],
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "trace_overhead_s": metrics["trace.overhead_s"][0] if trace else None,
        },
        "inputs": {"drawn_family": inputs.drawn},
        "samples": samples,
        "pass_wall_s": [p.wall_s for p in passes],
        "failed_ratio": verdict.failed / verdict.attempted,
        "failures": verdict.failures,
        "checks": [[c.name, c.ok, c.detail] for c in passes[0].checks],
        "fingerprints": prints,
        "fingerprint_stable": stable,
        "fingerprint_vs_baseline": baseline_flags(prints),
    }
    if trace:
        first = next(p.tracer for p in passes if p.tracer is not None)
        report["spans"] = spans_table(first)
        report["spans_file"] = str(write_spans(workload, seed, first).relative_to(ROOT))
    else:
        report["setup_s_samples"] = setup_times
        report["raw"] = raw_figures(passes, setup_times)
    result = {
        "correct": verdict.failed == 0 and stable,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, report


def print_table(workload: str, result: dict, report: dict) -> None:
    print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_ratio={report['failed_ratio']:.4g}")
    for c in report["checks"]:
        print(f"   {'ok' if c[1] else 'MISMATCH'}: {c[0]}")
    for name, m in result["metrics"].items():
        print(f"   {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"   samples: {report['samples']}")
    for label, flag in report["fingerprint_vs_baseline"].items():
        print(f"   fingerprint {flag}: {label}")
