"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the package's public functions by
replacing the binding each caller looks up (most modules import functions by
name, so the defining module's attribute is not the one that is called).
Nothing under ``src/`` is edited; every replaced binding is restored on exit.

While tracing, the arithmetic and comparison dunders of ``fractions.Fraction``
are wrapped as well, and each call is charged to the innermost open span.
"""

from __future__ import annotations

import fractions
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from momentforge import critical, diagonal, reproduce, univariate

# (module whose binding the caller looks up, attribute, span name)
BINDINGS = (
    (reproduce, "run_case", "reproduce.run_case"),
    (reproduce, "diagonal_families", "diagonal.diagonal_families"),
    (reproduce, "orbit_classes", "orbits.orbit_classes"),
    (reproduce, "solve_family", "critical.solve_family"),
    (reproduce, "verify_critical", "critical.verify_critical"),
    (diagonal, "diagonal_families", "diagonal.diagonal_families"),
    (diagonal, "orbit_classes", "orbits.orbit_classes"),
    (diagonal, "is_identically_diagonal", "diagonal.is_identically_diagonal"),
    (critical, "solve_family", "critical.solve_family"),
    (critical, "gradient_system", "critical.gradient_system"),
    (critical, "gradient_symbolic", "moment.gradient_symbolic"),
    (critical, "solve_real", "critical.solve_real"),
    (critical, "verify_critical", "critical.verify_critical"),
    (critical, "gradient", "moment.gradient"),
    (critical, "torus_canonical", "critical.torus_canonical"),
    # only the reproduction harness calls this one
    (critical, "orbit_torus_canonical", "reproduce.orbit_torus_canonical"),
    (univariate, "resultant", "univariate.resultant"),
    (univariate, "isolate_real_roots", "univariate.isolate_real_roots"),
    (univariate, "refine_interval", "univariate.refine_interval"),
    (univariate, "poly_gcd", "univariate.poly_gcd"),
)

FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)

ROOT = "bench.pass"


# what a span keeps of its call's return value, for the ratio metrics
OUTCOMES = {
    "critical.solve_real": len,
    "diagonal.is_identically_diagonal": lambda verdict: int(verdict.is_diagonal),
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    outermost: bool  # no enclosing span has the same name
    outcome: int | None


class Tracer:
    """Records spans and ``Fraction`` operation counts for one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.fraction_ops: Counter = Counter()
        self._stack: list[tuple[str, int]] = [("", -1)]  # (name, reserved span index)
        self._open: Counter = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)  # reserved so children can point at it
        outermost = self._open[name] == 0
        self._open[name] += 1
        self._stack.append((name, index))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
        outcome = OUTCOMES.get(name)
        self.spans[index] = Span(
            name, start, end, self._stack[-1][1], outermost,
            None if outcome is None else outcome(result),
        )
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def count_op(self):
        self.fraction_ops[self._stack[-1][0]] += 1


@contextmanager
def patched(tracer: Tracer):
    """Route every binding in BINDINGS and the Fraction dunders through ``tracer``."""
    saved = []
    try:
        for module, attr, name in BINDINGS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        for attr in FRACTION_OPS:
            original = getattr(fractions.Fraction, attr)
            saved.append((fractions.Fraction, attr, original))
            setattr(fractions.Fraction, attr, _counting(tracer, original))
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def _counting(tracer: Tracer, fn):
    count = tracer.count_op

    def counted(*args):
        count()
        return fn(*args)

    return counted


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for k, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(k, ())):
            lo = max(lo, reach)
            hi = min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, total (outermost) seconds, self seconds, Fraction ops."""
    own = self_times(tracer.spans)
    table: dict[str, dict] = {}
    for span, self_s in zip(tracer.spans, own):
        row = table.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
        if span.outermost:
            row["s"] += span.end - span.start
    for name, ops in tracer.fraction_ops.items():
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["fraction_ops"] = ops
    return table
