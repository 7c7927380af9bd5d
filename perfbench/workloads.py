"""The benchmark's three workloads, their correctness checks and fingerprints.

Each workload is one single-threaded pass over a fixed list of inputs, run as
a closed loop by one caller.  A pass calls only the package's public
functions; the seed decides the order in which families are solved and, on
``three_unknowns``, which of the Newton-empty families is drawn.  Outputs do
not depend on the order.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from momentforge import critical, diagonal, reproduce
# the CLI's own formatting, so that fingerprints are over the bytes `critical --json` prints
from momentforge.cli import _fmt_float, _value_payload
from momentforge.polyring import poly_to_json

from probe import Timeline
from spans import ROOT, Tracer, patched

WORKLOADS = ("paper", "beyond_paper", "three_unknowns")
TOL = critical.RESIDUAL_TOL

# (3, 4, 4) families named by their display string
NEWTON_SOLVES = "b1*y^2*z^2 + b2*x^2*z^2 + b3*y^4 + x^4"  # Newton returns 3 float points
# Newton finds nothing on these 21, and each takes 2.1-2.2 s at the probes'
# reference speed, so the draw changes the input but hardly the work.  The two
# other Newton-empty families take 0.4 s; drawing them as well would move the
# family-time percentiles between families from seed to seed (README.md).
NEWTON_EMPTY = (
    "b1*x*y*z^2 + b2*x^3*z + b3*y^4 + x^2*y^2",
    "b1*x*y*z^2 + b2*y^3*z + b3*x^3*z + x^2*y^2",
    "b1*x*y*z^2 + b2*y^4 + b3*x^2*y^2 + x^4",
    "b1*x*z^3 + b2*x*y^2*z + b3*x^3*z + y^4",
    "b1*x*z^3 + b2*x*y^2*z + b3*y^4 + x^3*y",
    "b1*x*z^3 + b2*x*y^2*z + b3*y^4 + x^4",
    "b1*x*z^3 + b2*x^2*y*z + b3*x*y^3 + x^4",
    "b1*x*z^3 + b2*x^2*y*z + b3*y^4 + x^4",
    "b1*x*z^3 + b2*x^3*z + b3*y^4 + x^2*y^2",
    "b1*x*z^3 + b2*y^2*z^2 + b3*x*y^3 + x^4",
    "b1*x*z^3 + b2*y^2*z^2 + b3*y^4 + x^4",
    "b1*x*z^3 + b2*y^3*z + b3*x^2*y^2 + x^4",
    "b1*x*z^3 + b2*y^3*z + b3*x^3*z + x^2*y^2",
    "b1*x*z^3 + b2*y^4 + b3*x^2*y^2 + x^4",
    "b1*x^2*z^2 + b2*y^3*z + b3*x^2*y^2 + x^4",
    "b1*x^2*z^2 + b2*y^4 + b3*x^2*y^2 + x^4",
    "b1*y^2*z^2 + b2*x^2*z^2 + b3*x*y^3 + x^3*y",
    "b1*y^2*z^2 + b2*x^2*z^2 + b3*x*y^3 + x^4",
    "b1*y^2*z^2 + b2*x^2*z^2 + b3*x^2*y^2 + x^4",
    "b1*z^4 + b2*x^2*y*z + b3*y^4 + x^4",
    "b1*z^4 + b2*y^4 + b3*x^2*y^2 + x^4",
)


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    drawn: str | None = None  # three_unknowns only


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    drawn = random.Random(seed).choice(NEWTON_EMPTY) if workload == "three_unknowns" else None
    return Inputs(workload, seed, drawn)


@dataclass
class PassResult:
    wall_s: float  # clock seconds, probes left out
    # (start, end) clock stamps of each family solve
    families: list[tuple[float, float]] = field(default_factory=list)
    # (fingerprint label, [(family, solutions)] in pipeline order)
    groups: list[tuple[str, list]] = field(default_factory=list)
    checks: list = field(default_factory=list)  # paper: reproduce.CheckResult
    timeline: Timeline | None = None  # untraced passes: the speed probes
    tracer: Tracer | None = None

    def solve(self, solve_family, family, *args, **kwargs):
        """``solve_family(family)``, with its start and end recorded."""
        start = time.perf_counter()
        solutions = solve_family(family, *args, **kwargs)
        self.families.append((start, time.perf_counter()))
        return solutions


def _label(n: int, d: int, terms) -> str:
    return f"critical --n {n} --d {d} --terms {' '.join(map(str, terms))} --json"


def _solve_in_order(families, seed: int, out: PassResult) -> list:
    """solve_family on each family, in a seeded order; results in input order."""
    order = list(range(len(families)))
    random.Random(seed).shuffle(order)
    solutions = [None] * len(families)
    for k in order:
        solutions[k] = out.solve(critical.solve_family, families[k])
    return list(zip(families, solutions))


def _paper(inputs: Inputs, out: PassResult) -> None:
    solved = []
    solve = reproduce.solve_family

    def timed(family, *args, **kwargs):
        sols = out.solve(solve, family, *args, **kwargs)
        solved.append((family, sols))
        return sols

    reproduce.solve_family = timed
    try:
        out.checks = reproduce.run_case("cubics") + reproduce.run_case("quartics")
    finally:
        reproduce.solve_family = solve
    for d in (3, 4):
        out.groups.append((_label(3, d, (2, 3)), [fs for fs in solved if fs[0].poly.d == d]))


def _beyond_paper(inputs: Inputs, out: PassResult) -> None:
    for n, d, m in ((3, 5, 3), (4, 3, 3)):
        families = diagonal.diagonal_families(n, d, m)
        out.groups.append((_label(n, d, (m,)), _solve_in_order(families, inputs.seed, out)))


def _three_unknowns(inputs: Inputs, out: PassResult) -> None:
    hesse = diagonal.diagonal_families(3, 3, 4)
    by_name = {str(f): f for f in diagonal.diagonal_families(3, 4, 4)}
    quartics = [by_name[NEWTON_SOLVES], by_name[inputs.drawn]]
    solved = _solve_in_order(hesse + quartics, inputs.seed, out)
    out.groups.append((_label(3, 3, (4,)), solved[:1]))
    subset = "; ".join(str(f) for f in quartics)
    out.groups.append((f"{_label(3, 4, (4,))} [{subset}]", solved[1:]))


_BODIES = {"paper": _paper, "beyond_paper": _beyond_paper, "three_unknowns": _three_unknowns}


def run_pass(inputs: Inputs, traced: bool = False) -> PassResult:
    """One full pass; with ``traced``, spans and Fraction counts are recorded."""
    body = _BODIES[inputs.workload]
    out = PassResult(0.0)
    if not traced:
        out.timeline = Timeline()
        with out.timeline.every():
            body(inputs, out)
        probes = out.timeline.probes
        out.wall_s = out.timeline.seconds(probes[0][1], probes[-1][0], reference=False)
        return out
    tracer = out.tracer = Tracer()
    with patched(tracer):
        start = time.perf_counter()
        tracer.call(ROOT, body, inputs, out)
        out.wall_s = time.perf_counter() - start
    return out


# ---------------------------------------------------------------------------
# outputs: the `critical --json` payload, its sha256, and correctness


def family_payload(family, solutions) -> dict:
    """One entry of the list that `momentforge critical --json` prints."""
    return {
        "family": str(family),
        "solutions": [
            {
                "canonical_form": poly_to_json(sol.canonical_form),
                "residual": _fmt_float(sol.residual),
                "values": {f"b{i + 1}": _value_payload(v) for i, v in enumerate(sol.values)},
            }
            for sol in solutions
        ],
        "support": [list(a) for a in family.display_terms()],
    }


def sha256_of(entries: list[dict]) -> str:
    """sha256 of the bytes the CLI prints for this payload (sorted keys, newline)."""
    text = json.dumps(entries, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprints(result: PassResult) -> dict[str, str]:
    return {
        label: sha256_of([family_payload(f, sols) for f, sols in solved])
        for label, solved in result.groups
    }


def _solution_ok(sol) -> bool:
    poly = sol.polynomial()
    return not poly.is_zero() and critical.verify_critical(poly) <= TOL


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    solutions: int = 0
    certified: int = 0
    failures: list[str] = field(default_factory=list)


def check(inputs: Inputs, passes: list[PassResult]) -> Verdict:
    """Correctness of every pass, outside the timed region.

    ``paper``: each of the 12 reproduction checks is an item.  Otherwise each
    family is an item, and fails unless every reported solution is nonzero and
    passes ``verify_critical`` at the solver's tolerance.  Identical outputs
    are verified once.
    """
    verdict = Verdict()
    verified: dict[str, bool] = {}
    for result in passes:
        if inputs.workload == "paper":
            verdict.attempted += len(result.checks)
            for c in result.checks:
                if not c.ok:
                    verdict.failed += 1
                    verdict.failures.append(f"{c.name}: {c.detail}")
        for _, solved in result.groups:
            for family, sols in solved:
                verdict.solutions += len(sols)
                verdict.certified += sum(
                    all(isinstance(v, (Fraction, critical.AlgebraicNumber)) for v in s.values)
                    for s in sols
                )
                if inputs.workload == "paper":
                    continue
                verdict.attempted += 1
                key = json.dumps(family_payload(family, sols), sort_keys=True)
                if key not in verified:
                    verified[key] = all(_solution_ok(s) for s in sols)
                if not verified[key]:
                    verdict.failed += 1
                    verdict.failures.append(str(family))
    return verdict
