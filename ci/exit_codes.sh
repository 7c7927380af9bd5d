#!/bin/sh
# The exit-code contract of the installed `momentforge` entry point; the
# tests call cli.main in-process.  Exit 1 for an unknown subcommand, for a
# removed option and for malformed JSON, which must be refused with an
# `error:` line and no traceback (a traceback exits 1 too); 2 for degenerate
# input; 0 where a float form verifies or its moment matrix is in range.
# Float input with a root difference (two exponents differing by e_i - e_j)
# takes the Lie-algebra formula of the gradient; every other case here takes
# the integer u-form or the float replay.
# Run from any directory:
#   sh ci/exit_codes.sh
set -u
scratch=$(mktemp -d) || exit 1
trap 'rm -rf "$scratch"' EXIT
cd "$scratch" || exit 1

# expect CODE ARGS...: run `momentforge ARGS...` with its stderr in err.txt
expect() {
    want=$1
    shift
    momentforge "$@" 2> err.txt
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "momentforge $*: exit $got, expected $want" >&2
        cat err.txt >&2
        exit 1
    fi
}

# expect_stdout TEXT ARGS...: exit 0 with exactly TEXT on stdout
expect_stdout() {
    text=$1
    shift
    expect 0 "$@" > out.txt
    if [ "$(cat out.txt)" != "$text" ]; then
        echo "momentforge $*: printed $(cat out.txt), expected $text" >&2
        exit 1
    fi
}

# expect_error MESSAGE ARGS...: exit 1 with `error: MESSAGE...` and no traceback
expect_error() {
    message=$1
    shift
    expect 1 "$@"
    if ! grep -q "^error: $message" err.txt || grep -q Traceback err.txt; then
        echo "momentforge $*: expected 'error: $message' and no traceback" >&2
        cat err.txt >&2
        exit 1
    fi
}

echo '{"n": 3, "d": 3, "terms": [{"exp": [3, 0, 0], "coeff": "1"}]}' > x.json
echo '{"n": 3, "d": 3, "terms": [{"exp": [1.5, 1.5, 0], "coeff": "1"}]}' > float-exponent.json
echo '{"n": 3, "d": 3, "terms": []}' > zero.json
echo '{"n": 3, "d": 3, "terms": [{"exp": [3, 0, 0], "coeff": "1e400"}, {"exp": [0, 3, 0], "coeff": 0.5}]}' > mixed-range.json
echo '{"n": 3, "d": 3, "terms": [{"exp": [0, 3, 0], "coeff": 1e63}]}' > large-float.json
echo '{"n": 3, "d": 3, "terms": [{"exp": [3, 0, 0], "coeff": 1e-200}, {"exp": [0, 3, 0], "coeff": 1e-200}]}' > tiny-cubic.json
echo '{"n": 3, "d": 3, "terms": [{"exp": [3, 0, 0], "coeff": 1e155}, {"exp": [0, 3, 0], "coeff": 1e155}]}' > huge-cubic.json
echo '{"n": 2, "d": 1100, "terms": [{"exp": [550, 550], "coeff": 1.0}]}' > underflowing-norm.json
echo '{"n": 3, "d": 3, "terms": [{"exp": [3, 0, 0], "coeff": "1e-400"}, {"exp": [0, 3, 0], "coeff": "1e-400"}, {"exp": [1, 1, 1], "coeff": "1e-400"}]}' > tiny-exact-cubic.json
echo '{"n": 3, "d": 3, "terms": [{"exp": [2, 1, 0], "coeff": 1.0}, {"exp": [2, 0, 1], "coeff": 1.0}]}' > rotated-monomial.json
echo '{"n": 3, "d": 3, "terms": [{"exp": [3, 0, 0], "coeff": 5e-324}, {"exp": [2, 1, 0], "coeff": 5e-324}]}' > subnormal-root-pair.json

expect 1 emit-points --poly x.json
expect 1 verify --poly x.json --tol 0
expect 1 orbits --n 3 --d 3 --terms 2 --all-vars
# four parameters: the solver refuses more than three unknowns
expect_error "systems in more than three unknowns are unsupported" critical --n 3 --d 5 --terms 5
expect_error "an exponent must be an integer" moment --poly float-exponent.json
for command in moment sqlength grad verify; do
    expect_error "a rational coefficient beside a float" "$command" --poly mixed-range.json
done
expect 2 verify --poly zero.json
# |m|^2 and m have degree 0 in the coefficients, so the float range of the
# coefficients does not matter; only a weight that underflows does
for command in moment sqlength; do
    expect 0 "$command" --poly tiny-cubic.json > /dev/null
    expect 0 "$command" --poly huge-cubic.json > /dev/null
    expect 2 "$command" --poly underflowing-norm.json
done
# exact input with no root difference: the one division of the integer
# u-form numerators is beyond the float range
expect_error "the gradient is beyond the floating-point range" verify --poly tiny-exact-cubic.json
expect_error "the gradient is beyond the floating-point range" verify --poly tiny-exact-cubic.json --json
expect_stdout 0 verify --poly large-float.json
# with a root difference: x^2 y + x^2 z = x^2 (y + z) is a rotated monomial
# form, hence critical; the gradient of the least subnormal x^3 + x^2 y,
# of degree -1 in the coefficients, is beyond the float range
expect_stdout 0 verify --poly rotated-monomial.json
expect_stdout "0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0" grad --poly rotated-monomial.json
expect_error "the gradient is beyond the floating-point range" verify --poly subnormal-root-pair.json
echo "exit codes ok"
