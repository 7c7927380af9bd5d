import hashlib
import json

import pytest

from momentforge import cli

# sha256 of the stdout of `critical --n 3 --d D --terms 2 3 --json`
CRITICAL_JSON_SHA256 = {
    3: "71ac57502c1b2299b4d9bde2e4bd372145d82cae65ef2ca2f7aee9e927ced263",
    4: "68a6dc84a5faf90ffa53a1d7e16ffea5cf5bef396d9811a85355a5df47f9cfb1",
}


@pytest.mark.parametrize("d", sorted(CRITICAL_JSON_SHA256))
def test_critical_json_bytes_are_stable(d, capsys):
    code = cli.main(["critical", "--n", "3", "--d", str(d), "--terms", "2", "3", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CRITICAL_JSON_SHA256[d]


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
