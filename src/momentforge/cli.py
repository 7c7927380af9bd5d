"""Command-line surface.

Subcommands: monomials, moment, sqlength, grad, orbits, diagonal, critical,
verify, reproduce-paper.  Polynomials travel as JSON files (see
the wire-format comment in ``polyring.py`` for the schema).  Exit codes:
0 success, 1 usage error, 2 degenerate input, 3 fixture mismatch in
reproduce-paper.  JSON output uses sorted keys.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .critical import RESIDUAL_TOL, AlgebraicNumber, solve_family, verify_critical
from .diagonal import diagonal_families, diagonal_verdicts
from .moment import (
    gradient,
    gradient_symbolic,
    moment_matrix,
    square_length,
    square_length_symbolic,
    symbolic_moment_matrix,
)
from .orbits import orbit_classes
from .polyring import (
    DegenerateInputError,
    SparsePoly,
    canonical_key,
    check_digits,
    format_monomial,
    format_scalar,
    poly_from_json,
    poly_to_json,
)
from .reproduce import run_case
from .symd import enumerate_monomials

USAGE_ERROR = 1
DEGENERATE_INPUT = 2
FIXTURE_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _fmt_float(v) -> float:
    """``v`` as a float rounded to 12 significant digits.  Every float the
    commands print passes through here, so a result beyond the float range,
    or one that overflowed to inf or nan, stops the command before it prints
    anything."""
    try:
        v = float(v)
    except OverflowError:
        raise ValueError("the result is beyond the floating-point range") from None
    if not math.isfinite(v):
        raise ValueError(f"the result is {v}: the input overflows floating point")
    return float(format(v, ".12g"))


def _dump_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _json_int(text: str) -> int:
    check_digits(text, "integer")
    return int(text)


def _load_poly(path: str) -> SparsePoly:
    with open(path, "r", encoding="utf-8") as fh:
        return poly_from_json(json.load(fh, parse_int=_json_int))


def _exact_out(value, what: str, hint: str = "") -> str:
    """``value`` printed exactly.  The interpreter refuses to print an int of
    more digits than ``sys.get_int_max_str_digits()``, and its error names
    no value; this one names ``what``."""
    try:
        return format_scalar(value)
    except ValueError:
        raise ValueError(f"{what} has a number of more than {sys.get_int_max_str_digits()} "
                         f"digits, too many to print{hint}") from None


def _scalar_out(value, as_float: bool, what: str):
    if as_float or isinstance(value, float):
        return _fmt_float(value)
    return _exact_out(value, what, "; --float prints the result")


def _print_matrix(rows) -> None:
    widths = [max(len(str(rows[i][j])) for i in range(len(rows))) for j in range(len(rows[0]))]
    for row in rows:
        print("[ " + "  ".join(str(v).rjust(w) for v, w in zip(row, widths)) + " ]")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_monomials(args) -> int:
    basis = enumerate_monomials(args.n, args.d)
    if args.json:
        _dump_json([list(a) for a in basis])
    else:
        print(" ".join(format_monomial(args.n, a) for a in basis))
    return 0


def _cmd_moment(args) -> int:
    f = _load_poly(args.poly)
    if f.is_parametric():
        numerators, denom = symbolic_moment_matrix(f)
        rows = [[_exact_out(e, f"moment-matrix numerator ({i}, {j})") for j, e in enumerate(row, 1)]
                for i, row in enumerate(numerators, 1)]
        denom = _exact_out(denom, "the moment-matrix denominator")
        if args.json:
            _dump_json({"denominator": denom, "numerators": rows})
        else:
            print(f"denominator: {denom}")
            _print_matrix(rows)
        return 0
    rows = [[_scalar_out(v, args.float, f"moment-matrix entry ({i}, {j})")
             for j, v in enumerate(row, 1)] for i, row in enumerate(moment_matrix(f), 1)]
    if args.json:
        _dump_json({"entries": rows, "n": f.n})
    else:
        _print_matrix(rows)
    return 0


def _cmd_sqlength(args) -> int:
    f = _load_poly(args.poly)
    if f.is_parametric():
        numer, denom = square_length_symbolic(f)
        value = _exact_out(numer, "the square length")
        if denom != 1:
            value = f"({value}) / ({_exact_out(denom, 'the denominator of the square length')})"
    else:
        value = _scalar_out(square_length(f), args.float, "the square length")
    if args.json:
        _dump_json({"square_length": value})
    else:
        print(value)
    return 0


def _cmd_grad(args) -> int:
    f = _load_poly(args.poly)
    if f.is_parametric():
        numerators, denom = gradient_symbolic(f)
        numerators = [_exact_out(e, f"gradient numerator {k}") for k, e in enumerate(numerators, 1)]
        denom = _exact_out(denom, "the gradient denominator")
        if args.json:
            _dump_json({"denominator": denom, "numerators": numerators})
        else:
            print(f"denominator: {denom}")
            for e in numerators:
                print(e)
        return 0
    grad = [_scalar_out(v, args.float, f"gradient entry {k}")
            for k, v in enumerate(gradient(f), 1)]
    if args.json:
        _dump_json({"gradient": grad})
    else:
        print(" ".join(str(v) for v in grad))
    return 0


def _cmd_orbits(args) -> int:
    supports = [sorted(r, key=canonical_key) for r in orbit_classes(args.n, args.d, args.terms)]
    if args.json:
        _dump_json([[list(a) for a in s] for s in supports])
    else:
        for s in supports:
            print(" + ".join(format_monomial(args.n, a) for a in reversed(s)))
    return 0


def _cmd_diagonal(args) -> int:
    payload = [
        {
            "diagonal": verdict.is_diagonal,
            "family": str(verdict.family),
            "offending": [[i + 1, j + 1] for i, j in verdict.offending_entries],
            "support": [list(a) for a in verdict.family.display_terms()],
            "witness": None if verdict.witness is None else [str(v) for v in verdict.witness],
        }
        for verdict in diagonal_verdicts(args.n, args.d, args.terms)
    ]
    if args.json:
        _dump_json(payload)
    else:
        for row in payload:
            tag = "diagonal" if row["diagonal"] else "not diagonal"
            extra = "" if row["witness"] is None else f"  witness b = {row['witness']}"
            print(f"{row['family']}: {tag}{extra}")
    return 0


def _value_payload(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, AlgebraicNumber):
        return {
            "approx": _fmt_float(v.approx),
            "interval": [str(v.lo), str(v.hi)],
            "minpoly": [str(c) for c in v.minimal_polynomial],
        }
    return _fmt_float(v)


def _cmd_critical(args) -> int:
    payload = []
    for m in args.terms:
        for family in diagonal_families(args.n, args.d, m):
            solutions = solve_family(family)
            payload.append(
                {
                    "family": str(family),
                    "solutions": [
                        {
                            "canonical_form": poly_to_json(sol.canonical_form),
                            "residual": _fmt_float(sol.residual),
                            "values": {
                                f"b{i + 1}": _value_payload(v)
                                for i, v in enumerate(sol.values)
                            },
                        }
                        for sol in solutions
                    ],
                    "support": [list(a) for a in family.display_terms()],
                }
            )
    if args.json:
        _dump_json(payload)
    else:
        for row in payload:
            print(f"{row['family']}:")
            if not row["solutions"]:
                print("  no real critical points with nonzero parameters")
            for sol in row["solutions"]:
                vals = ", ".join(
                    f"{k}={v if isinstance(v, str) else v['approx'] if isinstance(v, dict) else v}"
                    for k, v in sorted(sol["values"].items())
                )
                print(f"  {vals}  residual={sol['residual']:g}")
    return 0


def _cmd_verify(args) -> int:
    f = _load_poly(args.poly)
    if f.is_parametric():
        raise ValueError("parametric input: substitute the parameters first")
    residual = verify_critical(f)
    if args.json:
        _dump_json({"critical": residual <= RESIDUAL_TOL, "residual": _fmt_float(residual)})
    else:
        print(format(_fmt_float(residual), ".12g"))
    return 0


def _cmd_reproduce(args) -> int:
    checks = run_case(args.case)
    for c in checks:
        status = "ok" if c.ok else "MISMATCH"
        detail = f"  ({c.detail})" if c.detail else ""
        print(f"{status}: {c.name}{detail}")
    return 0 if all(c.ok for c in checks) else FIXTURE_MISMATCH


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="momentforge")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-stable JSON output")
        return p

    p = add("monomials", _cmd_monomials, help="ordered monomial basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    for name, func, what in (
        ("moment", _cmd_moment, "moment matrix"),
        ("sqlength", _cmd_sqlength, "square length of the moment matrix"),
        ("grad", _cmd_grad, "gradient over all coefficient directions"),
    ):
        p = add(name, func, help=what)
        p.add_argument("--poly", required=True, help="polynomial JSON file")
        p.add_argument("--float", action="store_true", help="decimal output (exact by default)")

    p = add("orbits", _cmd_orbits, help="orbit representatives of monomial supports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)

    p = add("diagonal", _cmd_diagonal, help="diagonal-moment verdicts for families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)

    p = add("critical", _cmd_critical, help="critical points within diagonal families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--terms", type=int, nargs="+", required=True)

    p = add("verify", _cmd_verify, help="residual of the criticality gradient")
    p.add_argument("--poly", required=True)

    p = add("reproduce-paper", _cmd_reproduce, help="diff pipelines against embedded tables")
    p.add_argument("--case", choices=("cubics", "quartics"), required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateInputError as exc:
        sys.stderr.write(f"degenerate input: {exc}\n")
        return DEGENERATE_INPUT
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
