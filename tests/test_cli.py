import hashlib
import json

import pytest

from momentforge import cli

# sha256 of the stdout of `critical --n N --d D --terms T... --json`
CRITICAL_JSON_SHA256 = {
    (3, 3, "2 3"): "71ac57502c1b2299b4d9bde2e4bd372145d82cae65ef2ca2f7aee9e927ced263",
    (3, 4, "2 3"): "68a6dc84a5faf90ffa53a1d7e16ffea5cf5bef396d9811a85355a5df47f9cfb1",
    (3, 5, "3"): "2b49956bcbd12e3fa7f4554456afdb55f956c406bf62305cf2c7d81d85d9fa35",
    (4, 3, "3"): "034255ff756c961754bce0d0223ff7501f7a127e1fbac89e2d13ac8049a1a778",
}


def check_critical_json(n, d, terms, capsys):
    argv = ["critical", "--n", str(n), "--d", str(d), "--terms", *terms.split(), "--json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CRITICAL_JSON_SHA256[n, d, terms]


@pytest.mark.parametrize("d", [3, 4])
def test_critical_json_bytes_are_stable(d, capsys):
    check_critical_json(3, d, "2 3", capsys)


# these reach the resultant, Sturm and refinement path with algebraic roots
@pytest.mark.parametrize("n, d", [(3, 5), (4, 3)])
def test_critical_json_bytes_are_stable_three_terms(n, d, capsys):
    check_critical_json(n, d, "3", capsys)


def write_poly(tmp_path, coeff):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"n": 3, "d": 3, "terms": [{"exp": [3, 0, 0], "coeff": coeff}]}))
    return str(path)


@pytest.mark.parametrize("coeff", [True, False])
def test_verify_rejects_boolean_coefficient(tmp_path, capsys, coeff):
    assert cli.main(["verify", "--poly", write_poly(tmp_path, coeff)]) == cli.USAGE_ERROR
    assert "boolean" in capsys.readouterr().err


def test_verify_accepts_integer_coefficient(tmp_path, capsys):
    assert cli.main(["verify", "--poly", write_poly(tmp_path, 1)]) == 0
    assert capsys.readouterr().out.strip() == "0"


PARAM_COEFF = {"nsyms": 1, "params": [{"exp": [1], "coeff": "1"}]}


@pytest.mark.parametrize(
    "command, first_coeff",
    [
        ("moment", 1.5),
        ("grad", 1.5),
        ("sqlength", 1.5),
        ("emit-points", 1.5),
        ("emit-points", "1"),
        ("verify", "1"),
    ],
)
def test_unusable_parametric_input_is_a_usage_error(tmp_path, capsys, command, first_coeff):
    # a float beside a parametric coefficient, or parameters where numbers are needed
    path = tmp_path / "poly.json"
    terms = [{"exp": [3, 0, 0], "coeff": first_coeff}, {"exp": [0, 3, 0], "coeff": PARAM_COEFF}]
    path.write_text(json.dumps({"n": 3, "d": 3, "terms": terms}))
    assert cli.main([command, "--poly", str(path)]) == cli.USAGE_ERROR
    assert capsys.readouterr().err.startswith("error: ")
