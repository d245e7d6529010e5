import json

import pytest

from ncworlds import constraints, suites
from ncworlds.cli import MAX_TOWER_LEVELS, main
from ncworlds.parser import parse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce_flat(capsys):
    code, out, _ = run(capsys, "reduce", "[Q^1, P_1]", "--world", "flat")
    assert code == 0
    assert out.strip() == "1"


def test_reduce_symmetrizer(capsys):
    code, out, _ = run(capsys, "reduce", "{X Y}")
    assert code == 0
    assert out.strip() == "(1/2) X.Y + (1/2) Y.X"


def test_reduce_json(capsys):
    code, out, _ = run(capsys, "reduce", "P_1 Q^1", "--world", "flat", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["world"] == "flat"
    assert obj["normal_form"] == "(-1) + Q_1.P_1"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "reduce", "(")
    assert code == 2
    assert "syntax error" in err


def test_zero_denominator_exit_code(capsys):
    code, out, err = run(capsys, "reduce", "1/0")
    assert code == 2
    assert out == ""
    assert "syntax error at 1:1" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-suite"])
    assert exc.value.code == 2


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "epsilon", "--seed", "3")
    assert code == 0
    assert "suite epsilon" in out and "pass" in out


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "constraints-2", "--seed", "7", "--json")
    code2, out2, _ = run(capsys, "verify", "constraints-2", "--seed", "7", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["suite"] == "constraints-2"
    assert obj["status"] == "pass"
    assert all(c["status"] == "pass" for c in obj["checks"])
    assert all("elapsed" not in c for c in obj["checks"])


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify", "all", "--seed", "5", "--trials", "20",
                       "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    names = [s["suite"] for s in obj["suites"]]
    assert names == ["iterant", "flat", "schroedinger", "gauge", "epsilon", "em",
                     "constraints-1", "constraints-2", "constraints-3", "tower",
                     "bianchi"]


def test_em_sim_json_schema(capsys):
    code, out, _ = run(capsys, "em-sim", "--length", "12", "--seed", "7",
                       "--range", "3", "--trials", "10", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["seed"] == 7
    assert obj["trials"] == 10
    assert obj["residual_max"] == "0"
    assert [e["id"] for e in obj["equations"]] == [
        "lorentz-force", "divergence-b", "faraday-with-curvature",
        "ampere-with-waves"]
    assert all(e["holds"] for e in obj["equations"])


def test_em_sim_window_exhaustion_fails(capsys):
    code, out, _ = run(capsys, "em-sim", "--length", "3", "--trials", "2", "--json")
    assert code == 1
    obj = json.loads(out)
    assert not all(e["holds"] for e in obj["equations"])
    assert obj["residual_max"].startswith("error:")


def test_tower_series(capsys):
    code, out, _ = run(capsys, "tower", "--levels", "7", "--coeff-series", "h-prime")
    assert code == 0
    assert "theta^(5)" in out
    assert "1, 3, 6, 10, 15, 21" in out


def test_tower_json(capsys):
    code, out, _ = run(capsys, "tower", "--levels", "12",
                       "--coeff-series", "h-prime-squared", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["series"]["values"] == ["3", "15", "45", "105", "210", "378",
                                       "630", "990", "1485"]


def test_iterant_demo(capsys):
    code, out, _ = run(capsys, "iterant", "demo")
    assert code == 0
    assert "i*i" in out
    assert "j.k = i" in out


def test_matrix_decompose(capsys):
    code, out, _ = run(capsys, "matrix", "decompose", "[[1, 2], [3, \"1/2\"]]")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 2
    assert obj["reconstructs"] is True
    assert len(obj["terms"]) == 2
    perms = {tuple(t["permutation"]) for t in obj["terms"]}
    assert perms == {(1, 2), (2, 1)}


def test_max_steps_flag(capsys):
    code, out, _ = run(capsys, "reduce", "P_1 Q_1 Q_2", "--world", "flat",
                       "--max-steps", "100")
    assert code == 0


def test_verify_takes_no_max_steps_option(capsys):
    # the step limit of a suite comes from NCWORLDS_MAX_STEPS alone
    with pytest.raises(SystemExit) as exc:
        main(["verify", "flat", "--max-steps", "5"])
    assert exc.value.code == 2
    assert "--max-steps" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["flat", "constraints-1"])
def test_env_step_limit_reaches_every_suite(capsys, monkeypatch, suite):
    monkeypatch.setenv("NCWORLDS_MAX_STEPS", "1")
    code, out, err = run(capsys, "verify", suite)
    assert code == 1
    assert "exceeded 1 steps" in out + err


@pytest.mark.parametrize("levels", ["0", "-3"])
def test_tower_rejects_nonpositive_levels(capsys, levels):
    code, out, err = run(capsys, "tower", "--levels", levels)
    assert code == 2
    assert out == ""
    assert "level" in err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run(capsys, "verify", "em", "--trials", trials)
    assert code == 2
    assert out == ""
    assert "--trials" in err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_em_sim_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run(capsys, "em-sim", "--trials", trials, "--json")
    assert code == 2
    assert out == ""
    assert "--trials" in err


@pytest.mark.parametrize("rows, message", [
    ("[[1, 2], [3]]", "matrix must be square"),
    ("nope", "matrix argument must be JSON rows of rationals: "
             "Expecting value: line 1 column 1 (char 0)"),
    ("[1, 2]", "matrix argument must be JSON rows of rationals: "
               "'int' object is not iterable"),
    ("[]", "empty matrix"),
    ('[["x"]]', "matrix argument must be JSON rows of rationals: "
                "Invalid literal for Fraction: 'x'"),
    (json.dumps([[1] * 9] * 9), "matrix decompose takes n at most 8, got 9"),
], ids=["ragged", "not-json", "flat", "empty", "not-rational", "nine"])
def test_matrix_decompose_bad_input(capsys, rows, message):
    code, out, err = run(capsys, "matrix", "decompose", rows)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_symmetrizer_rejects_more_than_eight_factors(capsys):
    code, out, err = run(capsys, "reduce", "{A B C D E F G H K}")
    assert code == 2
    assert out == ""
    # located at the ninth factor
    assert "1:18" in err and "at most 8 factors" in err
    assert len(parse("{A B C D E F G H}").factors) == 8


def test_tower_levels_are_bounded(capsys, monkeypatch):
    # a stub tower: the bound is checked before any level is computed
    asked = []
    monkeypatch.setattr(constraints, "derivative_tower", lambda n: asked.append(n) or [])
    over = str(MAX_TOWER_LEVELS + 1)
    for argv in (("tower", "--levels", over), ("verify", "tower", "--levels", over)):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"at most {MAX_TOWER_LEVELS}" in err and over in err
    assert asked == []
    code, _, _ = run(capsys, "tower", "--levels", str(MAX_TOWER_LEVELS), "--json")
    assert code == 0 and asked == [MAX_TOWER_LEVELS]


@pytest.mark.parametrize("levels", ["11", "1", "0", "-3"])
def test_verify_rejects_levels_below_the_tower_suite(capsys, monkeypatch, levels):
    # refused before any suite runs, instead of silently running 12 levels
    ran = []
    monkeypatch.setattr(suites, "run_suite", lambda *args: ran.append(args) or [])
    for suite in ("tower", "all", "flat"):
        code, out, err = run(capsys, "verify", suite, "--levels", levels)
        assert code == 2 and out == ""
        assert f"at least {suites.MIN_TOWER_LEVELS}" in err and levels in err
    assert ran == []


def test_verify_tower_runs_the_levels_asked_for(capsys, monkeypatch):
    asked = []
    real = constraints.derivative_tower
    monkeypatch.setattr(constraints, "derivative_tower",
                        lambda n: asked.append(n) or real(n))
    code, _, _ = run(capsys, "verify", "tower", "--levels", "13", "--json")
    assert code == 0 and asked == [13]


@pytest.mark.parametrize("expr, col", [("²", 1), ("Q^²", 3), ("P_1²", 4)])
def test_non_ascii_digits_are_located_syntax_errors(capsys, expr, col):
    code, out, err = run(capsys, "reduce", expr)
    assert code == 2 and out == ""
    assert f"syntax error at 1:{col}" in err


def test_em_checks_fail_when_the_trials_did_not_run(capsys):
    code, out, _ = run(capsys, "verify", "em", "--length", "3", "--trials", "5", "--json")
    assert code == 1
    status = {c["id"]: c for c in json.loads(out)["checks"]}
    assert status["discrete-trials"]["status"] == "fail"
    for cid in ("lorentz-force", "divergence-b", "faraday-with-curvature",
                "ampere-with-waves"):
        assert status[cid]["status"] == "fail"
        assert status[cid]["residual"].startswith("error:")


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-5"])
@pytest.mark.parametrize("argv", [["verify", "flat"], ["reduce", "P_1 Q^1", "--world", "flat"],
                                  ["tower", "--levels", "2"]])
def test_malformed_step_limit_variable_stops_every_command(capsys, monkeypatch, value, argv):
    monkeypatch.setenv("NCWORLDS_MAX_STEPS", value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "NCWORLDS_MAX_STEPS" in err and value in err


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_max_steps_below_one_is_refused(capsys, steps):
    code, out, err = run(capsys, "reduce", "P_1 Q^1", "--world", "flat", "--max-steps", steps)
    assert code == 2 and out == ""
    assert "max_steps" in err and steps in err


def test_each_world_has_one_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "B A", "--world", "abc-relations"])
    assert exc.value.code == 2
    capsys.readouterr()
    # the error and the --json output name the same world
    code, _, err = run(capsys, "reduce", "B A B A B A", "--world", "abc", "--max-steps", "1")
    assert code == 1 and "system 'abc'" in err


@pytest.mark.parametrize("src, loc", [
    ("(" * 400 + "A" + ")" * 400, "1:201"),     # past the nesting bound
    ("X + " + "1" * 5000, "1:5"),               # past CPython's digit limit
    ("hbar^" + "1" * 5000 + " X", "1:1"),
], ids=["nesting", "number", "exponent"])
def test_oversized_input_is_a_located_syntax_error(capsys, src, loc):
    code, out, err = run(capsys, "reduce", src)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: syntax error at {loc}: ")
    assert "Traceback" not in err


def _decode(digits: str) -> int:
    """An int from its decimal text, read in pieces that each stay well under
    the interpreter's limit on one string conversion."""
    value = 0
    for start in range(0, len(digits), 1000):
        piece = digits[start:start + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def test_output_coefficients_past_the_digit_limit_are_printed(capsys):
    a, b = "7" * 3000, "3" * 3000
    code, out, err = run(capsys, "reduce", f"{a} {b}")
    assert code == 0 and err == ""
    assert _decode(out.strip()) == _decode(a) * _decode(b)
    code, out, err = run(capsys, "reduce", f"i {a} {b} X - hbar {a} Y", "--json")
    assert code == 0 and err == ""
    form = json.loads(out)["normal_form"]
    coeff, _, word = form.partition(") ")
    assert word.startswith("X") and coeff.endswith("i")
    assert _decode(coeff[1:-1]) == _decode(a) * _decode(b)
