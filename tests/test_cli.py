import contextlib
import hashlib
import io
import json
import random
import sys

import pytest

from conftest import random_rational_poly, reference_verify_critical, verify_outcome
from momentforge import cli, reproduce
from momentforge.critical import RESIDUAL_TOL, verify_critical
from momentforge.fixtures import CRITICAL_CUBICS, critical_fixture_poly
from momentforge.polyring import poly_to_json
from oracles import fixed_point_check

# sha256 of the stdout of `critical --n N --d D --terms T... --json`
CRITICAL_JSON_SHA256 = {
    (3, 3, "2 3"): "71ac57502c1b2299b4d9bde2e4bd372145d82cae65ef2ca2f7aee9e927ced263",
    (3, 4, "2 3"): "68a6dc84a5faf90ffa53a1d7e16ffea5cf5bef396d9811a85355a5df47f9cfb1",
    (3, 5, "3"): "2b49956bcbd12e3fa7f4554456afdb55f956c406bf62305cf2c7d81d85d9fa35",
    (4, 3, "3"): "034255ff756c961754bce0d0223ff7501f7a127e1fbac89e2d13ac8049a1a778",
    (3, 3, "4"): "f0557ef60cd3c8ce7f1a8d0f08677971b55ba87bb52519ccc632784afb0040ee",
    (3, 4, "4"): "c95af68671aef514301ea2e961c8e8723f0fe049529c16797bb731a527374e5e",
    (4, 3, "4"): "ab40ca209172d8e0aeb745ab6486bb9687ccb1603a856b9d332bad755188e29f",
}

# sha256 of the stdout of the orbit enumeration, the diagonal filter, the
# monomial basis and the solver, as JSON and as text
ENUMERATION_SHA256 = {
    "orbits --n 4 --d 3 --terms 3 --json": "2f4367a0dd0ea70d2bf1bfa317f0025099c883de93a19939f3a0c9cfb63c7e08",
    "orbits --n 2 --d 6 --terms 3 --json": "d7a2b57e3fe9f5741f7cace01da129c5a57af21fb87a5c053c5cc8dc0b451b59",
    "orbits --n 3 --d 5 --terms 3 --json": "cbdfc5b8911623992b245c923a20dc919ba71099e9ffc1ed4fd33e86066a8907",
    "diagonal --n 4 --d 3 --terms 3 --json": "60113d483d6f0e8733cb6a1dc5b9b5b4e20e985ed99a736e9ad2dc0e150c9f4b",
    "diagonal --n 3 --d 4 --terms 4 --json": "4bf09f8a5fa6253d2c2332260064cb403b5d83538e8f0480a0ba8c24e53c5ff1",
    "diagonal --n 3 --d 5 --terms 4 --json": "dafa24a6adc8bfeb47e654603e34bf873b33bcdf0d6e4bc50447f49423673878",
    "monomials --n 4 --d 3 --json": "1116cd27a7b652c8d8434e7d183af89d4e0bef1f9e397ec0433b7fe4aa305b42",
    "orbits --n 3 --d 5 --terms 3": "555781b094a969c074b982a6cea9b23c1d95910500b14fb8a0bda1fa7bdb74af",
    "diagonal --n 3 --d 4 --terms 4": "86b3f5109d47630c132b06888fd21013e5714519e067f54de2e77ee9a7760058",
    "monomials --n 4 --d 3": "ccdd577c6461e2b791610b472bac5554494669a3f3a5285980165b4273105fdd",
    "critical --n 3 --d 3 --terms 2 3": "a0498faf30039e5bf7b5123ad32985edcc3288457887ba43ba7929ac436902c5",
}


def sha256_of(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_critical(n, d, terms):
    """Stdout of `critical --json` and every solution the solver returned."""
    solve_family = cli.solve_family
    solutions = []

    def recording_solve_family(*args):
        found = solve_family(*args)
        solutions.extend(found)
        return found

    argv = ["critical", "--n", str(n), "--d", str(d), "--terms", *terms.split(), "--json"]
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "solve_family", recording_solve_family)
        assert cli.main(argv) == 0
    return out.getvalue(), solutions


@pytest.fixture(scope="module")
def critical_runs():
    # one solver run per case, shared by the byte gates and the certificate
    return {case: run_critical(*case) for case in CRITICAL_JSON_SHA256}


def check_critical_json(critical_runs, n, d, terms):
    out, _ = critical_runs[n, d, terms]
    assert sha256_of(out) == CRITICAL_JSON_SHA256[n, d, terms]


@pytest.mark.parametrize("d", [3, 4])
def test_critical_json_bytes_are_stable(d, critical_runs):
    check_critical_json(critical_runs, 3, d, "2 3")


# algebraic points spelled from the closed form: a projection in the squares,
# Sturm isolation and refinement toward -sqrt(q) and sqrt(q)
@pytest.mark.parametrize("n, d", [(3, 5), (4, 3)])
def test_critical_json_bytes_are_stable_three_terms(n, d, critical_runs):
    check_critical_json(critical_runs, n, d, "3")


# the Hesse pencil, solved by multistart Gauss-Newton in three unknowns
def test_critical_json_bytes_are_stable_three_unknowns(critical_runs):
    check_critical_json(critical_runs, 3, 3, "4")


# all four-term families of the production shapes: 3 float points of (3, 4)
# and 22 of (4, 3), whose residuals come from the float gradient jets
@pytest.mark.parametrize("n, d", [(3, 4), (4, 3)])
def test_critical_json_bytes_are_stable_four_terms(n, d, critical_runs):
    check_critical_json(critical_runs, n, d, "4")


# cases with points answered from the closed form, rational and algebraic
# alike: two-term cases, and three-term shapes that no gate above covers,
# with 101, 81 and 16 one-point families; kept out of ``critical_runs``,
# whose outputs are counted
CLOSED_FORM_CRITICAL_JSON_SHA256 = {
    (3, 5, "2"): "9f80ab34c7b3cd641e19a694258d80f15de417b24e6725f3e8a6e8096a17075c",
    (4, 3, "2"): "27d0784f3d36db0bd1a33218ac967a27cf8f5fef4556b56eca718fbef9d7b447",
    (3, 6, "3"): "2b7d1c19565b38f15098e8f33fdc24aefcb54818bf6c70e22b4c33135ca7126e",
    (4, 4, "3"): "e7c66eadbbf323609e6d86e9101f31b586c8d50cf52867ead40a263db92d9530",
    (5, 3, "3"): "871194c5ea78a475f99ec0454041de98c49ea7b0475fde6ea911949e6917f1b7",
}


@pytest.mark.parametrize("n, d, terms", sorted(CLOSED_FORM_CRITICAL_JSON_SHA256))
def test_critical_json_bytes_are_stable_closed_form_points(n, d, terms):
    out, _ = run_critical(n, d, terms)
    assert sha256_of(out) == CLOSED_FORM_CRITICAL_JSON_SHA256[n, d, terms]


# binary octics: each of the 18 nonempty families is a curve in two unknowns,
# sampled by multistart Gauss-Newton; kept out of ``critical_runs``
def test_critical_json_bytes_are_stable_binary_curves():
    out, _ = run_critical(2, 8, "3")
    assert sha256_of(out) == "ef2296aab20e644591b0e51025ae9126bde175c9ef223c33adcc169e21df426a"


def test_every_solver_output_is_a_fixed_point(critical_runs):
    # independent certificate: exp(m(f)) fixes each output projectively
    outputs = [sol for _, solutions in critical_runs.values() for sol in solutions]
    assert len(outputs) == 232
    assert [str(sol) for sol in outputs if not fixed_point_check(sol.polynomial())] == []


def test_every_reported_residual_is_its_own_verification(critical_runs):
    # the solver skips verifying candidates that cannot reach the output; each
    # solution it reports was verified, and carries that residual
    outputs = [sol for _, solutions in critical_runs.values() for sol in solutions]
    for sol in outputs:
        assert sol.residual == verify_critical(sol.polynomial()) <= RESIDUAL_TOL, sol


@pytest.mark.parametrize("command", sorted(ENUMERATION_SHA256))
def test_enumeration_bytes_are_stable(command, capsys):
    assert cli.main(command.split()) == 0
    assert sha256_of(capsys.readouterr().out) == ENUMERATION_SHA256[command]


def symbol(nsyms, k):
    """The parameter ``b(k+1)`` as a wire-format coefficient."""
    exp = [int(i == k) for i in range(nsyms)]
    return {"nsyms": nsyms, "params": [{"exp": exp, "coeff": "1"}]}


def cubic(*terms):
    return {"n": 3, "d": 3, "terms": [{"exp": e, "coeff": c} for e, c in terms]}


FERMAT = [([3, 0, 0], "1"), ([0, 3, 0], "1"), ([0, 0, 3], "1")]

# inputs whose supports have a root difference e_i - e_j (x^2*y - x^3 = e_2 - e_1),
# so the gradient cannot take the u-form; and the sha256 of the stdout of
# `COMMAND --poly FILE --json`
ROOT_DIFFERENCE_INPUTS = {
    # b1*x^2*y + b2*x*y*z + x^3 + y^3 + z^3
    "grad-parametric-cubic": (
        "grad",
        cubic(([2, 1, 0], symbol(2, 0)), ([1, 1, 1], symbol(2, 1)), *FERMAT),
        "c7fe8958d6768ffcf3feb1445eebd979b556fe47f723aca40132592583c4600d",
    ),
    "grad-dense-exact-quartic": (
        "grad",
        poly_to_json(random_rational_poly(random.Random(113), 3, 4)),
        "122cd89de7714b499b80c92fb9d2126ef71a98d64dcfe30e8916ef442023a2a3",
    ),
    # x^3 + 0.5*x^2*y + y^3 + z^3
    "grad-float-cubic": (
        "grad",
        cubic(([2, 1, 0], 0.5), *FERMAT),
        "f1662167e12fbccdc52bdc6ced59d23ae008ad852edef9e43b1dc19eae5458dc",
    ),
    "verify-float-cubic": (
        "verify",
        cubic(([2, 1, 0], 0.5), *FERMAT),
        "d6a3fc3b4baceb045be17e9daa2b35f3d66dbdb40d6012a8237b43507b474287",
    ),
}


@pytest.mark.parametrize("case", sorted(ROOT_DIFFERENCE_INPUTS))
def test_root_difference_json_bytes_are_stable(case, tmp_path, capsys):
    command, body, digest = ROOT_DIFFERENCE_INPUTS[case]
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(body))
    assert cli.main([command, "--poly", str(path), "--json"]) == 0
    assert sha256_of(capsys.readouterr().out) == digest


# sha256 of the stdout of `sqlength --poly FILE` and `sqlength --poly FILE --json`
SQLENGTH_SHA256 = {
    # b1*x^2*z + x*y^2: (8*b1^4 - 8*b1^2 + 8) / (b1^4 + 2*b1^2 + 1)
    "b1*x^2*z + x*y^2": (
        cubic(([2, 0, 1], symbol(1, 0)), ([1, 2, 0], "1")),
        "e9d33d116fa24773f310905f481d815d14ca376578f945618e1b0f88f7f28345",
        "b83e1fd418ad363fd3ae96dca6799a7f0ca3c18b943098f0bccdb5c1ad7fb3f1",
    ),
    "grad-parametric-cubic": (
        ROOT_DIFFERENCE_INPUTS["grad-parametric-cubic"][1],
        "f1a96fcc4641db4899fda2967a99fbf7eb7075e0c6c5569f1bbf8cc668c1e822",
        "d956d6b7e7d60e30b962a611ce649191527ae3a891232ede45011cee83d79200",
    ),
}


@pytest.mark.parametrize("case", sorted(SQLENGTH_SHA256))
def test_symbolic_square_length_bytes_are_stable(case, tmp_path, capsys):
    body, text_digest, json_digest = SQLENGTH_SHA256[case]
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(body))
    for extra, digest in (([], text_digest), (["--json"], json_digest)):
        assert cli.main(["sqlength", "--poly", str(path), *extra]) == 0
        assert sha256_of(capsys.readouterr().out) == digest


# inputs of the moment matrix gates: float input; a published critical cubic
# whose matrix holds the rounding noise -2.22e-16 and 4.44e-16 and whose |m|^2
# is 2.47e-31, so its bytes pin the order of the float operations; a family;
# a family with nonzero off-diagonal entries; and a dense exact quartic
MOMENT_INPUTS = {
    "x^3 + 0.5*x^2*y + y^3 + z^3": ROOT_DIFFERENCE_INPUTS["grad-float-cubic"][1],
    "critical cubic 5": poly_to_json(critical_fixture_poly(CRITICAL_CUBICS[4])),
    "b1*x^2*z + x*y^2": SQLENGTH_SHA256["b1*x^2*z + x*y^2"][0],
    "grad-parametric-cubic": ROOT_DIFFERENCE_INPUTS["grad-parametric-cubic"][1],
    "grad-dense-exact-quartic": ROOT_DIFFERENCE_INPUTS["grad-dense-exact-quartic"][1],
}

# sha256 of the stdout of `COMMAND --poly FILE FLAGS...`, keyed by the input
# and `COMMAND FLAGS...`; the families' square lengths are gated above
MOMENT_SHA256 = {
    ("x^3 + 0.5*x^2*y + y^3 + z^3", "moment"): "2a355faaebadcbf608c04f79ec09909b0d4ff1f1ca6ca0cf5cc46cf050441a3f",
    ("x^3 + 0.5*x^2*y + y^3 + z^3", "moment --json"): "c40ffca8cf7426394e3df160c689098b68f0bdc2105d5faa81e6a127db16f0f6",
    ("x^3 + 0.5*x^2*y + y^3 + z^3", "sqlength"): "dffb92a561302aa3e13947da4f15b9916ac9c7ec0bfa2c8e3bf21ff35e874804",
    ("x^3 + 0.5*x^2*y + y^3 + z^3", "sqlength --json"): "9fe7416ac0272d5057272303e43e101058fa5ce8471a13d5d5e6db6df5a292f9",
    ("x^3 + 0.5*x^2*y + y^3 + z^3", "grad"): "4165420751a9e2192cb4dbb7a485f4a3390e6c092fdf43c98cbbbaf1bc88057f",
    ("x^3 + 0.5*x^2*y + y^3 + z^3", "verify"): "93c42a93b8e43309ade24d3430934bb4296ec7d85eca1335268e55b620617140",
    ("critical cubic 5", "moment"): "20a7cbf4a84cbdb557ba9b4415e026b224741305c5e07b357058e80511b1a2b7",
    ("critical cubic 5", "moment --json"): "3f9b7a089219efabe330870a54e31b42b62cfac98f39a7e2e9213935450a1dd3",
    ("critical cubic 5", "sqlength"): "58eef401661eae894d4e2b669867533231647f9c2fb9cff58f49aa23aa776fa5",
    ("critical cubic 5", "sqlength --json"): "160c07f2ff879fdd38cfd0d4af0984e7797a0d8ca12f57b775b5ce97403e7973",
    ("b1*x^2*z + x*y^2", "moment"): "918836703d477fabd2ab7e6d6e1d420137f28cb94db51c4d101c41c30ec345a1",
    ("b1*x^2*z + x*y^2", "moment --json"): "1da11a5d8931c1ff9ee7b56680a62d43e98318f8b9ada6b2c4aee48a216ae190",
    ("grad-parametric-cubic", "moment"): "0fe4b4db0fab32a9b4eee388594c862e693b0fcbdf673cfa7673ed358c9a5983",
    ("grad-parametric-cubic", "moment --json"): "1dcb63f72916c39ebe20d86ea4be1a39e37952e7993618cf0174c32442a87b4d",
    ("grad-dense-exact-quartic", "moment --float --json"): "4b843635fe78fd948c9c44ba4edafbbaab9e9e2b1686e716e9d0b1f55f82b2c2",
}


@pytest.mark.parametrize("case, command", sorted(MOMENT_SHA256))
def test_moment_bytes_are_stable(case, command, tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(MOMENT_INPUTS[case]))
    name, *flags = command.split()
    assert cli.main([name, "--poly", str(path), *flags]) == 0
    assert sha256_of(capsys.readouterr().out) == MOMENT_SHA256[case, command]


# sha256 of the stdout of `reproduce-paper --case CASE`
REPRODUCE_PAPER_SHA256 = {
    "cubics": "a3767a96f88c88e271e8004ac7f87938146ce26d187e394466bfa3b99859abb9",
    "quartics": "5ed58988bb4bcf9c42fff78666a965418dda196d39e81db3b1e10d014faeaeb2",
}


@pytest.mark.parametrize("case", sorted(REPRODUCE_PAPER_SHA256))
def test_reproduce_paper_bytes_are_stable(case, capsys):
    assert cli.main(["reproduce-paper", "--case", case]) == 0
    assert sha256_of(capsys.readouterr().out) == REPRODUCE_PAPER_SHA256[case]


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


NUMERIC_COMMANDS = ["verify", "sqlength", "grad", "moment"]

PARAM_COEFF = {"nsyms": 1, "params": [{"exp": [1], "coeff": "1"}]}


@pytest.mark.parametrize(
    "command, first_coeff",
    [
        ("moment", 1.5),
        ("grad", 1.5),
        ("sqlength", 1.5),
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


@pytest.mark.parametrize("command", ["moment", "sqlength", "grad"])
@pytest.mark.parametrize("nsyms", [0, -1])
def test_parametric_coefficient_without_symbols_is_a_usage_error(tmp_path, capsys, command, nsyms):
    # nsyms 0 used to pass as parametric: moment printed a matrix, and
    # sqlength and grad raised TypeError
    coeff = {"nsyms": nsyms, "params": [{"exp": [0] * max(nsyms, 0), "coeff": "2"}]}
    path = tmp_path / "poly.json"
    terms = [{"exp": [3, 0, 0], "coeff": coeff}, {"exp": [0, 3, 0], "coeff": "1"}]
    path.write_text(json.dumps({"n": 3, "d": 3, "terms": terms}))
    assert cli.main([command, "--poly", str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def param_cubic(exp, nsyms=1):
    """x^3 + c*y^3, where ``c`` has the one parameter exponent list ``exp``."""
    coeff = {"nsyms": nsyms, "params": [{"exp": exp, "coeff": "1"}]}
    return cubic(([3, 0, 0], "1"), ([0, 3, 0], coeff))


NOT_AN_INTEGER = "must be an integer"


@pytest.mark.parametrize("command", NUMERIC_COMMANDS)
@pytest.mark.parametrize(
    "body, message",
    [
        ({"n": 3}, "malformed polynomial JSON"),
        ([1, 2], "malformed polynomial JSON"),
        ({"n": 3, "d": 3, "terms": [{"exp": [3, 0, 0]}]}, "malformed polynomial JSON"),
        ({"n": 3, "d": 3, "terms": 5}, "malformed polynomial JSON"),
        (cubic((["x", 0, 0], "1")), NOT_AN_INTEGER),
        # a float exponent ended moment and sqlength in a TypeError traceback,
        # and grad and verify in "tuple.index(x): x not in tuple"
        (cubic(([1.5, 1.5, 0], "1"), ([0, 0, 3], "1")), NOT_AN_INTEGER),
        # true was read as 1, so this was x*y^2 + z^3
        (cubic(([True, 2, 0], "1"), ([0, 0, 3], "1")), NOT_AN_INTEGER),
        # n = 3.7 was truncated to 3, and "3" parsed
        ({**cubic(*FERMAT), "n": 3.7}, NOT_AN_INTEGER),
        ({**cubic(*FERMAT), "n": "3"}, NOT_AN_INTEGER),
        ({**cubic(*FERMAT), "d": True}, NOT_AN_INTEGER),
        # parameter exponents printed non-polynomials such as b1^1.5 and b1^-2
        (param_cubic([0.5]), NOT_AN_INTEGER),
        (param_cubic([-1]), NOT_AN_INTEGER),
        (param_cubic([1], nsyms="1"), NOT_AN_INTEGER),
        # moment and sqlength took these for an underflowing norm (exit 2)
        ({"n": 0, "d": 3, "terms": []}, NOT_AN_INTEGER),
        ({"n": 3, "d": 0, "terms": []}, NOT_AN_INTEGER),
    ],
)
def test_malformed_polynomial_json_is_a_usage_error(tmp_path, capsys, command, body, message):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(body))
    assert cli.main([command, "--poly", str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("command", NUMERIC_COMMANDS)
@pytest.mark.parametrize(
    "terms",
    [
        # a zero denominator, plain or inside a parametric coefficient
        [([3, 0, 0], "1/0"), ([0, 3, 0], "1")],
        [([3, 0, 0], {"nsyms": 1, "params": [{"exp": [1], "coeff": "1/0"}]}), ([0, 3, 0], "1")],
        # an exponent listed twice: the second used to replace the first, so
        # x^3 + x^3 + y^3 gave the square length of x^3 + y^3
        [([3, 0, 0], "1"), ([3, 0, 0], "1"), ([0, 3, 0], "1")],
        [([3, 0, 0], {"nsyms": 1, "params": [{"exp": [1], "coeff": "1"}] * 2}), ([0, 3, 0], "1")],
        # a rational beyond the float range beside a float, which makes every
        # coefficient a float: each command ended in an OverflowError traceback
        [([3, 0, 0], "1e400"), ([0, 3, 0], 0.5)],
    ],
)
def test_malformed_coefficients_are_a_usage_error(tmp_path, capsys, command, terms):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(cubic(*terms)))
    assert cli.main([command, "--poly", str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("flag", [[], ["--json"]])
@pytest.mark.parametrize("command, text", [
    *((command, text) for text in [
        # non-finite coefficients, which Python's json reads
        '{"exp": [3, 0, 0], "coeff": NaN}, {"exp": [0, 3, 0], "coeff": 1}',
        '{"exp": [3, 0, 0], "coeff": Infinity}, {"exp": [0, 3, 0], "coeff": 1}',
        '{"exp": [3, 0, 0], "coeff": -Infinity}, {"exp": [0, 3, 0], "coeff": 1}',
    ] for command in NUMERIC_COMMANDS),
])
def test_non_finite_results_are_not_printed(tmp_path, capsys, command, flag, text):
    # each used to print nan (moment a matrix with nan on its diagonal) with exit 0
    path = tmp_path / "poly.json"
    path.write_text('{"n": 3, "d": 3, "terms": [%s]}' % text)
    assert cli.main([command, "--poly", str(path), *flag]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


FLAG_SETS = [[], ["--json"], ["--float"], ["--float", "--json"]]


@pytest.mark.parametrize("flags", FLAG_SETS)
@pytest.mark.parametrize("command", ["sqlength", "moment"])
@pytest.mark.parametrize("coeff", [1e-200, 1e155, 1e308])
def test_moment_and_sqlength_scale_out_the_float_range(tmp_path, capsys, command, flags, coeff):
    # both have degree 0 in the coefficients and run on f / 2^e, so
    # c (x^3 + y^3) prints what x^3 + y^3 does.  Unscaled, the squared norm
    # underflowed to 0.0 (exit 2) or overflowed (exit 1: the result is nan)
    printed = []
    for c in (1.0, coeff):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(cubic(([3, 0, 0], c), ([0, 3, 0], c))))
        assert cli.main([command, "--poly", str(path), *flags]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[1] == printed[0]


@pytest.mark.parametrize("command, flags", [
    pytest.param(command, flags, id=f"flags{k}-{command}")
    for command in ("moment", "sqlength", "grad", "verify")
    for k, flags in enumerate(FLAG_SETS[:2] if command == "verify" else FLAG_SETS)
])
def test_underflowing_norm_is_degenerate_input(tmp_path, capsys, command, flags):
    # every command runs on the form scaled to coefficients below 1, where
    # the weight 550!^2 / 1100! of x^550*y^550 alone makes the squared norm
    # 0.0, and 300!^2 / 600! that of x^300*y^300 makes d^2 norm2^3 0.0.
    # moment and sqlength used to divide by a zero norm: with 1e-200 on x^3
    # and y^3, each ended in a ZeroDivisionError
    half = 300 if command in ("grad", "verify") else 550
    body = {"n": 2, "d": 2 * half, "terms": [{"exp": [half, half], "coeff": 1.0}]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(body))
    assert cli.main([command, "--poly", str(path), *flags]) == cli.DEGENERATE_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("degenerate input: ")


@pytest.mark.parametrize("flags", [["--float"], ["--float", "--json"]])
def test_float_output_beyond_the_float_range_is_a_usage_error(tmp_path, capsys, flags):
    # exact 1e-400 on x^3 and x^2*y: the gradient's entries exceed the float
    # range, and converting them used to raise an uncaught OverflowError
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(cubic(([3, 0, 0], "1e-400"), ([2, 1, 0], "1e-400"))))
    assert cli.main(["grad", "--poly", str(path), *flags]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_verify_beyond_the_float_range_is_a_usage_error(tmp_path, capsys, flags):
    # the largest gradient entry of the same input; it used to end in an
    # uncaught OverflowError
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(cubic(([3, 0, 0], "1e-400"), ([2, 1, 0], "1e-400"))))
    assert cli.main(["verify", "--poly", str(path), *flags]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


# 10^-400 (x^3 + y^3 + xyz), exact and with no root difference: verify divides
# the integer u-form numerators once, and the quotient is beyond the float range
TINY_EXACT_CUBIC = cubic(([3, 0, 0], "1e-400"), ([0, 3, 0], "1e-400"), ([1, 1, 1], "1e-400"))


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_verify_beyond_the_float_range_without_a_root_difference(tmp_path, capsys, flags):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(TINY_EXACT_CUBIC))
    assert cli.main(["verify", "--poly", str(path), *flags]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the gradient is beyond the floating-point range\n"


@pytest.mark.xfail(strict=True, reason="the residual has degree -1 in the coefficients")
def test_the_critical_flag_does_not_depend_on_the_scale(tmp_path, capsys):
    # x^3 + y^3 + xyz reads 1.57, not critical; 10^400 times it reads 0.0,
    # "critical": true (verify_critical's docstring)
    flags = []
    for coeff in ("1", "1e400"):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(cubic(([3, 0, 0], coeff), ([0, 3, 0], coeff), ([1, 1, 1], coeff))))
        assert cli.main(["verify", "--poly", str(path), "--json"]) == 0
        flags.append(json.loads(capsys.readouterr().out)["critical"])
    assert flags == [False, False]


def test_exact_solver_outputs_verify_as_from_the_fraction_gradient(critical_runs):
    # the integer u-form's one division against the gradient's Fractions
    exact = [sol.polynomial() for _, solutions in critical_runs.values() for sol in solutions
             if sol.polynomial().is_exact()]
    assert len(exact) == 76  # of the 232 outputs
    for f in exact:
        assert verify_outcome(verify_critical, f) == reference_verify_critical(f), f


@pytest.mark.parametrize("argv, message", [
    ("critical --n 3 --d 3 --terms 2 --tol 0", "unrecognized arguments"),
    ("verify --poly {poly} --tol 0", "unrecognized arguments"),
    ("orbits --n 3 --d 3 --terms 2 --all-vars", "unrecognized arguments"),
    ("emit-points --poly {poly} --json", "invalid choice"),
])
def test_removed_settings_are_usage_errors(tmp_path, capsys, argv, message):
    # the one tolerance is fixed, and the zero-locus sampler and the
    # all-variables filter of orbits are gone
    with pytest.raises(SystemExit) as stop:
        cli.main(argv.format(poly=write_poly(tmp_path, 1)).split())
    assert stop.value.code == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_verify_flags_a_zero_residual_as_critical(tmp_path, capsys):
    assert cli.main(["verify", "--poly", write_poly(tmp_path, 1), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"critical": True, "residual": 0.0}


def test_one_term_diagonal_is_a_usage_error(capsys):
    # no one-term support in (4, 3) uses every variable; refused all the same
    assert cli.main(["diagonal", "--n", "4", "--d", "3", "--terms", "1"]) == cli.USAGE_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_zero_polynomial_is_degenerate_input(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 3, "d": 3, "terms": []}))
    assert cli.main(["verify", "--poly", str(path)]) == cli.DEGENERATE_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("degenerate input: ")


def test_failed_check_is_a_fixture_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(reproduce, "check_bases", lambda: reproduce.CheckResult("bases", False))
    assert cli.main(["reproduce-paper", "--case", "cubics"]) == cli.FIXTURE_MISMATCH
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "MISMATCH: bases"
    assert all(line.startswith("ok: ") for line in out[1:]) and len(out) == 6


@pytest.fixture
def digit_limit():
    """The interpreter's default cap on the digits of an int it converts
    to or from a string, which the environment may have lifted."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts ints of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command", NUMERIC_COMMANDS)
@pytest.mark.parametrize("coeff, named", [
    ("1" * 5001, "integer 111111111111...111111111111"),
    ('"%s"' % ("1" * 5001), "coefficient 111111111111...111111111111"),
    ('"1/%s"' % ("3" * 5001), "coefficient 1/3333333333...333333333333"),
    # Fraction reads underscores between digits, as int does
    ('"%s1"' % ("1_" * 5000), "coefficient 1_1_1_1_1_1_..._1_1_1_1_1_1"),
])
def test_a_coefficient_too_long_to_read_is_named(tmp_path, capsys, digit_limit, command,
                                                 coeff, named):
    # each used to print the interpreter's advice to call sys.set_int_max_str_digits()
    path = tmp_path / "poly.json"
    path.write_text('{"n": 3, "d": 3, "terms": [{"exp": [3, 0, 0], "coeff": %s}, '
                    '{"exp": [0, 3, 0], "coeff": 1}]}' % coeff)
    assert cli.main([command, "--poly", str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {named} is too long: 5001 digits, "
                            f"more than the {digit_limit} that can be read\n")


@pytest.mark.parametrize("command", NUMERIC_COMMANDS)
@pytest.mark.parametrize("coeff, named, digits", [
    ('"1e1000000"', "coefficient 1e1000000", 1000001),
    ('"-2.5E-1_000_000"', "coefficient -2.5E-1_000_000", 1000002),
    ('"1e4300"', "coefficient 1e4300", 4301),
    ('{"nsyms": 1, "params": [{"exp": [1], "coeff": "0.01e1000000"}]}',
     "coefficient 0.01e1000000", 999999),
])
def test_a_coefficient_whose_exponent_is_too_large_is_refused(tmp_path, capsys, digit_limit,
                                                              command, coeff, named, digits):
    # Fraction multiplies by 10^exponent: sqlength --float on "1e1000000" x^3 + y^3
    # ran without bound
    path = tmp_path / "poly.json"
    path.write_text('{"n": 3, "d": 3, "terms": [{"exp": [3, 0, 0], "coeff": %s}, '
                    '{"exp": [0, 3, 0], "coeff": 1}]}' % coeff)
    flags = [] if command == "verify" else ["--float"]
    assert cli.main([command, "--poly", str(path), *flags]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {named} is too long: {digits} digits with its exponent, "
                            f"more than the {digit_limit} that can be read\n")


@pytest.mark.parametrize("command", NUMERIC_COMMANDS)
def test_an_exponent_is_bounded_where_the_interpreter_sets_no_limit(tmp_path, capsys,
                                                                     command):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no digit limit to lift")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(cubic(([3, 0, 0], "1e1000000"), ([0, 3, 0], "1"))))
        flags = [] if command == "verify" else ["--float"]
        assert cli.main([command, "--poly", str(path), *flags]) == cli.USAGE_ERROR
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: coefficient 1e1000000 is too long: 1000001 digits with its "
                            "exponent, more than the 4300 that can be read\n")


@pytest.mark.parametrize("zero", ["0e1000000", "0.0e5000", "-0.000e-1_000_000_000"])
def test_a_zero_with_any_exponent_reads(tmp_path, capsys, digit_limit, zero):
    # the exponent guard counted the bare exponent for a mantissa of zeros and
    # refused "0e1000000"; the value is 0, and no power of ten is built
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(cubic(([3, 0, 0], zero), ([0, 3, 0], "1"))))
    assert cli.main(["sqlength", "--poly", str(path)]) == 0
    assert capsys.readouterr().out == "24\n"


def test_an_exponent_within_the_digit_limit_reads(tmp_path, capsys, digit_limit):
    # 15 * 10^4298 has 4300 digits, and 10^-4299 a denominator of 4300
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(cubic(([3, 0, 0], "1.5e4299"), ([0, 3, 0], "1e-4299"))))
    assert cli.main(["sqlength", "--poly", str(path), "--float"]) == 0
    assert capsys.readouterr().out == "24.0\n"


LONG = 4000


@pytest.mark.parametrize("command", NUMERIC_COMMANDS)
@pytest.mark.parametrize("body", [
    # a zero denominator, plain and in a parametric coefficient
    cubic(([3, 0, 0], "1/" + "0" * LONG)),
    cubic(([3, 0, 0], {"nsyms": 1, "params": [{"exp": [1], "coeff": "1/" + "0" * LONG}]})),
    # no number at all, and no coefficient encoding
    cubic(([3, 0, 0], "x" * LONG)),
    cubic(([3, 0, 0], [1] * LONG)),
    # integers that are not integers, and an exponent listed twice
    {**cubic(*FERMAT), "n": "3" * LONG},
    cubic(([3, 0, 0], {"nsyms": [1] * LONG, "params": []})),
    {"n": LONG, "d": 3, "terms": [{"exp": [3] + [0] * (LONG - 1), "coeff": "1"}] * 2},
    # exponent vectors of the wrong length or degree
    cubic(([3] + [0] * LONG, "1")),
    cubic(([1, 1, 1], {"nsyms": 1, "params": [{"exp": [1] + [0] * LONG, "coeff": "1"}]})),
    {"n": LONG, "d": 3, "terms": [{"exp": [2] + [0] * (LONG - 1), "coeff": "1"}]},
])
def test_error_messages_abbreviate_the_input(tmp_path, capsys, command, body):
    # each echoed the offending value whole: "1/" and 4,000 zeros gave 4,049
    # bytes, and an exponent vector of 4,001 entries 12,039
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(body))
    assert cli.main([command, "--poly", str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert len(captured.err.encode()) < 200, captured.err


HUGE_PARAM = {"nsyms": 1, "params": [{"exp": [1], "coeff": "1e3000"}]}


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("command, coeff, named, hint", [
    ("moment", "1e3000", "moment-matrix entry (1, 1)", "; --float prints the result"),
    ("sqlength", "1e3000", "the square length", "; --float prints the result"),
    ("grad", "1e3000", "gradient entry 1", "; --float prints the result"),
    ("moment", HUGE_PARAM, "moment-matrix numerator (1, 1)", ""),
    ("sqlength", HUGE_PARAM, "the square length", ""),
    ("grad", HUGE_PARAM, "gradient numerator 1", ""),
])
def test_an_exact_result_too_long_to_print_is_named(tmp_path, capsys, digit_limit, flags,
                                                    command, coeff, named, hint):
    # 10^3000 x^3 + y^3 (or b1 10^3000 x^3 + y^3) reads, but its exact results
    # have more digits than the interpreter prints
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(cubic(([3, 0, 0], coeff), ([0, 3, 0], 1))))
    assert cli.main([command, "--poly", str(path), *flags]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {named} has a number of more than {digit_limit} digits, "
                            f"too many to print{hint}\n")


def test_float_prints_an_exact_result_too_long_to_print(tmp_path, capsys, digit_limit):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(cubic(([3, 0, 0], "1e3000"), ([0, 3, 0], 1))))
    assert cli.main(["moment", "--poly", str(path), "--float", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == [
        [4.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -2.0]]
