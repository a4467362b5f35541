import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from xcliff import braiding, cli, hopf, tensor_shuffle as ts
from xcliff.cli import main, sweep_row
from xcliff.clifford import CliffordStructure
from xcliff.exterior import Multivector, blades
from xcliff.linmap import LinearMap, keys
from xcliff.scalars import MAX_SCALAR_DIGITS, AffineSolutionSet, Matrix, echo, parse_scalar


def write_config(tmp_path, name, n, eta, xi, options=None):
    path = tmp_path / name
    data = {"n": n, "eta": eta, "xi": xi}
    if options:
        data["options"] = options
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def complex_config(tmp_path):
    return write_config(tmp_path, "complex.json", 1, [["-1"]], [["1"]])


@pytest.fixture
def zero_config(tmp_path):
    return write_config(tmp_path, "zero.json", 1, [["0"]], [["0"]])


def test_tables_complex_instance(complex_config, tmp_path, capsys):
    out = tmp_path / "tables.json"
    assert main(["tables", "--config", complex_config, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tables"]["product"]["e0,e0"] == "-1"
    assert report["tables"]["coproduct"]["1"] == "1*1(x)1 + 1*e0(x)e0"
    assert report["tables"]["coproduct"]["e0"] == "1*1(x)e0 + 1*e0(x)1"


def test_tables_zero_form_instance(tmp_path):
    cfg = write_config(tmp_path, "dkp.json", 2,
                       [["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]])
    out = tmp_path / "t.json"
    assert main(["tables", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tables"]["coproduct"]["e01"] == (
        "1*1(x)e01 + -1*e0(x)e1 + 1*e1(x)e0 + 1*e01(x)1")


def test_tables_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "eta": [["x"]], "xi": [["0"]]}')
    assert main(["tables", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command, n, message", [
    ("verify", 4, "verify supports rank <= 3"),
    ("shuffle", 3, "shuffle summary supports rank <= 2"),
    ("sigma", 4, "sigma supports rank <= 3"),
    ("tables", 7, "tables supports rank <= 6"),
    ("antipode", 6, "antipode supports rank <= 5"),
])
def test_rank_cap_refused_before_any_table_is_built(tmp_path, monkeypatch, capsys,
                                                   command, n, message):
    # the structure is recorded, not built: a rank-7 one takes about 18 s
    built = []
    monkeypatch.setattr(CliffordStructure, "__init__",
                        lambda self, *args, **kw: built.append(args))
    zero = [["0"] * n] * n
    cfg = write_config(tmp_path, "big.json", n, zero, zero)
    out = tmp_path / "r.json"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert built == [] and not out.exists()
    # the config itself is well formed: without the cap it builds one structure
    cli.load_config(cfg)
    assert len(built) == 1


def test_verify_zero_instance_passes(zero_config, tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--config", zero_config, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["hard_pass"] is True
    assert report["sigma"]["braided_flags"]["verdict_braided"] is True


def test_verify_complex_instance_records_braided_false(complex_config, tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--config", complex_config, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["hard_pass"] is True
    assert report["sigma"]["braided_flags"]["verdict_braided"] is False
    assert report["antipode"]["conjecture_consistent"] is True


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2


def test_verify_deterministic(complex_config, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--config", complex_config, "--out", str(out1)])
    main(["verify", "--config", complex_config, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", ["verify", "antipode"])
def test_report_without_out_is_written_to_stdout(complex_config, tmp_path, capsysbinary,
                                                 command):
    out = tmp_path / "r.json"
    assert main([command, "--config", complex_config, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main([command, "--config", complex_config]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_antipode_command(complex_config, tmp_path):
    out = tmp_path / "a.json"
    assert main(["antipode", "--config", complex_config, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["matrix"] == [["1/2", "0"], ["0", "-1/2"]]
    assert report["exists"] is True and report["unique"] is True
    # the parameter a = eta_00 xi_00 of the config is a sweep row's
    assert sweep_row("-1", "1")["a"] == "-1"


def test_sigma_command(tmp_path):
    cfg = write_config(tmp_path, "unit.json", 1, [["1"]], [["1"]])
    out = tmp_path / "s.json"
    assert main(["sigma", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # a family of dimension 12: solvable, not unique
    assert report["consistent"] is True and report["solution_space_dim"] == 12


def test_braided_command(zero_config, tmp_path, capsys):
    # the command is gone: its flags are the sigma report's braided_flags
    out = tmp_path / "b.json"
    assert main(["braided", "--config", zero_config, "--out", str(out)]) == 2
    assert "invalid choice: 'braided'" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sigma", "--config", zero_config, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["braided_flags"]["verdict_braided"] is True


def test_shuffle_command(complex_config, tmp_path):
    out = tmp_path / "sh.json"
    assert main(["shuffle", "--config", complex_config, "--out", str(out), "--l", "3"]) == 0
    report = json.loads(out.read_text())
    assert report == {"universal_lift_multiplicative": True,
                      "couniversal_lift_comultiplicative": True}


def test_every_config_command_runs_at_rank_0(tmp_path):
    cfg = write_config(tmp_path, "r0.json", 0, [], [])
    reports = {}
    for command in ("tables", "verify", "antipode", "sigma", "shuffle"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        reports[command] = json.loads(out.read_text())
    assert reports["verify"]["hard_pass"] is True
    # the empty composite form is the identity, and an antipode exists, so
    # the existence conjecture reads as broken at rank 0
    assert reports["antipode"] == reports["verify"]["antipode"] == {
        "exists": True, "unique": True, "matrix": [["1"]],
        "xi_eta_is_identity": True, "conjecture_consistent": False}


def test_markdown_summaries(complex_config, tmp_path, capsys):
    out = str(tmp_path / "out.json")
    assert main(["tables", "--markdown", "--config", complex_config, "--out", out]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "# Instance tables", "", "## Product", "",
        "- 1,1 -> 1", "- 1,e0 -> 1*e0", "- e0,1 -> 1*e0", "- e0,e0 -> -1",
        "", "## Coproduct", "",
        "- 1 -> 1*1(x)1 + 1*e0(x)e0", "- e0 -> 1*1(x)e0 + 1*e0(x)1"]
    assert main(["verify", "--markdown", "--config", complex_config, "--out", out]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "# Instance report", "",
        "rank n = 1, eta = [['-1']], xi = [['1']]", "",
        "## Hard checks",
        *(f"- PASS {check}" for check in (
            "antipode_closed_form_match", "antipode_unique_and_two_sided", "coassociative",
            "coproduct_grade_pattern", "coproduct_unit_sign_pattern",
            "counit_algebra_map_iff_eta_zero", "counit_law", "min_poly_ok",
            "product_associative", "shuffle_couniversal_lift_comultiplicative",
            "shuffle_universal_lift_multiplicative", "sigma_closed_form_match",
            "unit_cogebra_map_iff_xi_zero")),
        "", "overall: PASS", "",
        "## Antipode",
        "- exists: True (unique: True)",
        "- composite-form identity: False, conjecture consistent: True (recorded)", "",
        "## Scattering",
        "- solution space dimension: 0",
        "- braid_equation: False", "- coproduct_naturality: False", "- invertible: False",
        "- product_naturality: False", "- verdict_braided: False"]
    assert main(["sweep", "--markdown", "--a-values", "0,1,2", "--out", out]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "# Sweep", "", "3 rows; conjecture consistent on 3; braid equation true/false: 1/1"]


@pytest.mark.parametrize("command", ["tables", "verify", "sweep"])
def test_markdown_without_out_is_a_usage_error(complex_config, capsys, command):
    # stdout would hold the JSON report and then the summary
    config = [] if command == "sweep" else ["--config", complex_config]
    assert main([command, "--markdown", *config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: xcliff {command} ")
    assert captured.err.endswith(f"\nxcliff {command}: error: --markdown needs --out\n")


def test_sweep_explicit_values(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--a-values=-1,0,1/2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["aggregate"]["rows"] == 3
    assert report["aggregate"]["hard_ok"] is True
    rows = {r["a"]: r for r in report["rows"]}
    assert rows["-1"]["sigma_closed_form_match"] is True
    assert rows["0"]["braid_eq"] is True
    assert rows["-1"]["braid_eq"] is False


def test_sweep_includes_unit_composite(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--a-values=1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    row = report["rows"][0]
    assert row["no_antipode"] is True
    assert row["sigma_family_dimension_12"] is True


def test_sweep_empty_range(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rows"] == [] and report["aggregate"]["rows"] == 0


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("eta", [[[1]], [["1/0"]]])
def test_bad_scalar_in_config_is_a_parse_error(tmp_path, capsys, eta):
    cfg = write_config(tmp_path, "bad.json", 1, eta, [["1"]])
    assert main(["tables", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config:") and err.count("\n") == 1


@pytest.mark.parametrize("n, eta", [(1, "7"), (2, ["12", "34"])])
def test_matrix_not_an_array_of_arrays_is_a_parse_error(tmp_path, capsys, n, eta):
    zero = [["0"] * n] * n
    cfg = write_config(tmp_path, "bad.json", n, eta, zero)
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config:") and err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("[1]", "a config must be a JSON object"),
    ('"abc"', "a config must be a JSON object"),
    ("3", "a config must be a JSON object"),
    ("null", "a config must be a JSON object"),
    ('{"eta": [["1"]], "xi": [["1"]]}', 'missing key "n"'),
    ('{"n": 1, "xi": [["1"]]}', 'missing key "eta"'),
    ('{"n": 1, "eta": [["1"]]}', 'missing key "xi"'),
])
def test_config_not_an_object_or_missing_a_key_is_a_parse_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: bad config: {message}\n"


@pytest.mark.parametrize("extra, message", [
    ({"pairng": "straight"}, 'unknown key "pairng"'),
    # the word-length bound is --l alone, not a key of the instance
    ({"options": {"truncation": 4}}, 'unknown key "options"'),
    ({"pairing": "straight", "truncation": 2}, 'unknown key "truncation"'),
    ({"x" * 100: 1}, 'unknown key "xxxxxxxxxxxx...xxxxxxxxxxxxx"'),
    # escaped, the key runs past echo's cut, whose "..." is kept whole
    ({"\U0001d538" * 40: 1}, 'unknown key "' + "\\U0001d538" * 5 + '\\U0001..."'),
])
def test_config_with_an_unknown_key_is_a_parse_error(tmp_path, capsys, extra, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "eta": [["1"]], "xi": [["1"]], **extra}))
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: bad config: {message}\n"


def test_ragged_form_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"n": 2, "eta": [["1", "2"], ["3"]], "xi": [["1", "0"], ["0", "1"]]}))
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: bad config: ragged rows\n"


def test_config_nested_too_deeply_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config is nested too deeply") and err.count("\n") == 1


# a list nested 980 deep: json.load reads it from a fresh interpreter, as the
# console script does (under pytest's deeper stack it hits the recursion
# limit, as json.dumps does), so a config holds the marker DEEP, its text
# replaces it and the command runs in a child process
DEEP = "@deep"
DEEP_TEXT = "[" * 980 + "]" * 980
FORM = [["1"]]
SRC = str(Path(cli.__file__).parents[1])
LONG = "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"  # how a long string of x's is echoed


@pytest.mark.parametrize("config, shown", [
    ({"n": 1, "eta": FORM, "xi": DEEP}, "[[[[[[[...]]]]]]]"),
    ({"n": DEEP, "eta": FORM, "xi": FORM}, "[[[[[[[...]]]]]]]"),
    ({"n": 1, "eta": FORM, "xi": FORM, "pairing": DEEP}, "[[[[[[[...]]]]]]]"),
    ({"n": 1, "eta": [[DEEP]], "xi": FORM}, "[[[[[[[...]]]]]]]"),
    ({"n": 1, "eta": [["x" * 100000]], "xi": FORM}, LONG),
    # reprlib keeps six strings of a row, so the echo itself is cut
    ({"n": 1, "eta": FORM, "xi": FORM, "pairing": [["x" * 50] * 10] * 10},
     f"[[{LONG}, 'xxxxxxxxxxxx...xxxxxxx...\n"),
], ids=["deep-xi", "deep-n", "deep-pairing", "deep-eta-entry", "long-scalar",
        "wide-pairing"])
def test_bad_config_value_is_echoed_in_one_short_line(tmp_path, config, shown):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config).replace(json.dumps(DEEP), DEEP_TEXT))
    run = subprocess.run([sys.executable, "-m", "xcliff.cli", "verify", "--config", str(path)],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == 2 and run.stdout == ""
    err = run.stderr
    assert err.startswith("error: bad config:") and shown in err
    assert err.count("\n") == 1 and len(err) <= 200


def test_non_ascii_config_value_is_echoed_escaped(tmp_path, capsys):
    # escaped, the cut at 60 characters is a cut at 60 bytes: 25 letters of
    # 4 bytes each, shown raw, made a 252-byte line
    wide = "\U0001d538" * 25
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 1, "eta": FORM, "xi": FORM, "pairing": [wide, wide]}))
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: bad config: pairing must be one of inner, straight, got "
                   "['\\U0001d538\\U0001d538\\U0001d538\\U0001d538\\U0001d538\\U000...\n")
    assert len(err.encode()) < 200
    assert echo("\u00e9") == "'\\xe9'"


# 1 and 2500 zeros: a = eta_00 xi_00 = 10^5000, so the rank-1 antipode's
# entries 1/(1 - a) and -1/(1 - a) have 5003 characters, past CPython's
# default limit of 4300 digits on an int's str
BIG = "1" + "0" * 2500
NINES = "9" * 5000  # 10^5000 - 1 = -(1 - a)


@pytest.mark.parametrize("command", ["antipode", "verify"])
def test_config_of_long_scalars_is_reported(tmp_path, command):
    cfg = write_config(tmp_path, "big.json", 1, [[BIG]], [[BIG]])
    out = tmp_path / "o.json"
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    if command == "antipode":
        assert report["matrix"] == [[f"-1/{NINES}", "0"], ["0", f"1/{NINES}"]]
    else:
        assert report["hard_pass"] is True
        assert report["antipode"]["matrix"] == [[f"-1/{NINES}", "0"], ["0", f"1/{NINES}"]]
    # the limit is lifted for the command only
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.parametrize("scalar", ["1" * (MAX_SCALAR_DIGITS + 1),
                                    "-1/" + "3" * (MAX_SCALAR_DIGITS + 1), "1" * 5001],
                         ids=["numerator", "denominator", "5001-digits"])
def test_scalar_over_the_digit_budget_is_a_parse_error(tmp_path, capsys, scalar):
    cfg = write_config(tmp_path, "c.json", 1, [[scalar]], [["1"]])
    assert main(["antipode", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: scalar ") and err.count("\n") == 1
    assert f"over the digit budget of {MAX_SCALAR_DIGITS}\n" in err and len(err) < 200
    assert "set_int_max_str_digits" not in err
    # at the budget a scalar is read, with or without the command's lifted limit
    at_budget = "7" * MAX_SCALAR_DIGITS + "/" + "3" * MAX_SCALAR_DIGITS
    assert parse_scalar(at_budget) == F(int("7" * MAX_SCALAR_DIGITS), int("3" * MAX_SCALAR_DIGITS))


@pytest.mark.parametrize("config", ['{"n": %s, "eta": [["1"]], "xi": [["1"]]}',
                                    '{"n": 1, "eta": [[%s]], "xi": [["1"]]}'],
                         ids=["n", "eta-entry"])
def test_json_integer_over_the_digit_budget_is_refused_unread(tmp_path, capsys, config):
    # the command runs with CPython's digit limit lifted, so a JSON integer's
    # digits are counted before it is read: reading a million is 6.8 s
    path = tmp_path / "c.json"
    path.write_text(config % ("1" * 10**6))
    start = time.process_time()
    assert main(["verify", "--config", str(path)]) == 2
    assert time.process_time() - start < 2
    assert capsys.readouterr().err == ("error: bad config: an integer of 1000000 digits is over "
                                       f"the digit budget of {MAX_SCALAR_DIGITS}\n")


def test_config_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"n": 1, "eta": [["1"]], "xi": [["1"]]}'.encode("utf-16-le"))
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: config is not UTF-8 (byte 0): invalid start byte\n"


def test_truncated_config_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text('{"n": 1, "eta": [["1"]]')
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config is not valid JSON (line 1): ") and err.count("\n") == 1


@pytest.mark.parametrize("env", [{"PYTHONUTF8": "1"},
                                 {"PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}],
                         ids=["utf8-mode", "c-locale"])
def test_config_is_read_as_utf8_whatever_the_locale(tmp_path, env):
    path = tmp_path / "pairing.json"
    path.write_bytes('{"n": 1, "eta": [["1"]], "xi": [["1"]], "pairing": "stra\u00efght"}'
                     .encode("utf-8"))
    run = subprocess.run([sys.executable, "-m", "xcliff.cli", "verify", "--config", str(path)],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": SRC, **env})
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == ("error: bad config: pairing must be one of inner, straight, "
                          "got 'stra\\xefght'\n")


def test_short_config_values_are_echoed_whole():
    assert [echo(v) for v in (2.9, True, "3", [1], -1)] == ["2.9", "True", "'3'", "[1]", "-1"]
    assert echo(functools.reduce(lambda inner, _: [inner], range(980), [])) == "[[[[[[[...]]]]]]]"


def test_sweep_zero_denominator_is_a_parse_error(capsys):
    assert main(["sweep", "--a-values=1/0"]) == 2
    err = capsys.readouterr().err
    assert "zero denominator" in err and err.count("\n") == 1


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n, eta, xi", [
    (1, [["-1"]], [["1"]]),
    (1, [["2"]], [["1/2"]]),
    (2, [["1", "1/2"], ["0", "-1"]], [["1", "0"], ["2", "1"]]),
])
def test_verify_solves_antipode_and_scattering_once(tmp_path, monkeypatch, n, eta, xi):
    cfg = write_config(tmp_path, "c.json", n, eta, xi)
    antipode = _count_calls(monkeypatch, hopf, "solve_antipode")
    sigma = _count_calls(monkeypatch, braiding, "solve_sigma")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v.json")]) == 0
    assert (len(antipode), len(sigma)) == (1, 1)


def test_sigma_command_does_not_solve_the_antipode(complex_config, tmp_path, monkeypatch):
    # the scattering is solved from the two convolutions by id, not from S
    antipode = _count_calls(monkeypatch, hopf, "solve_antipode")
    assert main(["sigma", "--config", complex_config, "--out", str(tmp_path / "o.json")]) == 0
    assert len(antipode) == 0


def test_antipode_command_solves_once(complex_config, tmp_path, monkeypatch):
    antipode = _count_calls(monkeypatch, hopf, "solve_antipode")
    assert main(["antipode", "--config", complex_config,
                 "--out", str(tmp_path / "a.json")]) == 0
    assert len(antipode) == 1


def test_sweep_row_solves_and_checks_braid_once(monkeypatch):
    antipode = _count_calls(monkeypatch, hopf, "solve_antipode")
    braid = _count_calls(monkeypatch, braiding, "check_braid_equation")
    row = sweep_row("-1", "1")
    assert row["hard_ok"] is True and row["braid_eq"] is False
    assert (len(antipode), len(braid)) == (1, 1)


def test_sweep_reports_a_wrong_closed_form_as_a_hard_failure(tmp_path, monkeypatch):
    # entry (0, 0) of the closed form planted one too large: the row records
    # the mismatch and the report is written, with the hard-failure exit code
    original = braiding.closed_form_sigma

    def planted(i2, j2):
        sigma = original(i2, j2)
        sigma.cols[(0, 0)][(0, 0)] += 1
        return sigma

    monkeypatch.setattr(braiding, "closed_form_sigma", planted)
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--a-values=2", "--out", str(out)]) == 1
    [row] = json.loads(out.read_text())["rows"]
    assert row["sigma_closed_form_match"] is False and row["hard_ok"] is False


@pytest.mark.parametrize("i2, j2", [("2", "1/3"), ("1", "1")])
def test_sweep_row_shares_the_antipode_with_the_scattering(monkeypatch, i2, j2):
    antipode = _count_calls(monkeypatch, hopf, "solve_antipode")
    assert sweep_row(i2, j2)["hard_ok"] is True
    assert len(antipode) == 1


@pytest.mark.parametrize("config", ["complex", "unit", "rank2"])
@pytest.mark.parametrize("command", ["verify", "sigma"])
def test_scattering_commands_solve_and_read_the_scattering_once(tmp_path, monkeypatch,
                                                                command, config):
    # the solution set is solved once and its particular solution read back
    # as a map once, however many parts of the report use it
    n, eta, xi = {"complex": (1, [["-1"]], [["1"]]), "unit": (1, [["1"]], [["1"]]),
                  "rank2": (2, [["1", "1/2"], ["0", "-1"]], [["1", "0"], ["2", "1"]])}[config]
    cfg = write_config(tmp_path, "c.json", n, eta, xi)
    solves = _count_calls(monkeypatch, braiding, "solve_sigma")
    reads = _count_calls(monkeypatch, braiding, "scattering_map")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o.json")]) == 0
    assert (len(solves), len(reads)) == (1, 1)


@pytest.mark.parametrize("command", ["verify", "sigma"])
def test_scattering_commands_check_the_square_once(complex_config, tmp_path, monkeypatch,
                                                   command):
    # solve_sigma certifies the closed form on the square; the braided
    # flags are read off it without a second check
    square = _count_calls(monkeypatch, braiding, "square_defects")
    assert main([command, "--config", complex_config, "--out", str(tmp_path / "o.json")]) == 0
    assert len(square) == 1


def _count_word_maps(monkeypatch):
    calls = []
    original = ts.word_maps

    def counted(n, bound, shuffle=False):
        calls.append((bound, shuffle))
        return original(n, bound, shuffle)

    monkeypatch.setattr(ts, "word_maps", counted)
    return calls


@pytest.mark.parametrize("n, eta, xi, pairing", [
    (1, [["1"]], [["1"]], "inner"),
    (2, [["1", "1/2"], ["0", "-1"]], [["1", "0"], ["2", "1"]], "inner"),
    # no antipode: the scattering family (dimension 240) is a linear solve
    (2, [["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]], "straight"),
])
def test_verify_decides_each_scattering_and_word_fact_once(tmp_path, monkeypatch,
                                                           n, eta, xi, pairing):
    # no member of the solved scattering family is substituted again, and
    # only the concatenation word bi-gebra is built
    defect = _count_calls(monkeypatch, braiding, "compatibility_defect")
    words = _count_word_maps(monkeypatch)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n": n, "eta": eta, "xi": xi, "pairing": pairing}))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "v.json")]) == 0
    assert (len(defect), words) == (0, [(4, False)])


BAD_TRUNCATIONS = [[1], "x", -1, 2.9, True, "3"]
OPTIONS_REFUSED = 'error: bad config: unknown key "options"\n'


@pytest.mark.parametrize("command", ["verify", "shuffle", "tables", "antipode", "sigma"])
@pytest.mark.parametrize("truncation", BAD_TRUNCATIONS)
def test_bad_truncation_in_config_is_a_parse_error(tmp_path, capsys, command, truncation):
    # a config holds the instance only: a bound in it, whatever its value,
    # is refused by every command alike as an unknown key
    cfg = write_config(tmp_path, "c.json", 1, [["-1"]], [["1"]],
                       options={"truncation": truncation})
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == OPTIONS_REFUSED


@pytest.mark.parametrize("truncation", ["3"])
def test_bad_truncation_in_config_is_refused_under_the_l_flag(tmp_path, capsys, truncation):
    # the bound is the flag's alone: a config that holds "options" as well,
    # whatever they hold, writes no report (one case stands for every value)
    cfg = write_config(tmp_path, "c.json", 1, [["-1"]], [["1"]],
                       options={"truncation": truncation})
    out = tmp_path / "v.json"
    assert main(["verify", "--config", cfg, "--l", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == OPTIONS_REFUSED
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "shuffle"])
@pytest.mark.parametrize("bound", ["[1]", "x", "2.9", "True"])
def test_bad_l_flag_is_a_usage_error(complex_config, tmp_path, capsys, command, bound):
    out = tmp_path / "o.json"
    assert main([command, "--config", complex_config, "--l", bound, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines()[-1].startswith(f"xcliff {command}: error: argument --l")


# a valid rank-1 config; the fuzz replaces one of its keys with a drawn JSON value
FUZZ_BASE = {"n": 1, "eta": [["2"]], "xi": [["-1/3"]], "pairing": "straight"}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(key=st.sampled_from(list(FUZZ_BASE)), value=JSON_VALUES)
def test_every_config_command_reads_a_fuzzed_config_alike(key, value):
    # one reader checks the config for every command, and at rank <= 1 no
    # command's rank budget applies: either all refuse it or none does
    config = json.loads(json.dumps(FUZZ_BASE))
    config[key] = value
    refused = set()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        for command in ("tables", "verify", "antipode", "sigma", "shuffle"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", path, "--out", os.path.join(tmp, "o.json")])
            assert code in (0, 1, 2)
            if code == 2:
                line = err.getvalue()
                assert line.startswith("error: ") and line.count("\n") == 1
                assert line.endswith("\n") and len(line.encode()) < 200
            refused.add(code == 2)
    assert len(refused) == 1


@pytest.fixture
def recorded_bounds(monkeypatch):
    """The word-length bounds _verify_shuffle is called with."""
    bounds = []
    original = cli._verify_shuffle

    def recording(structure, bound):
        bounds.append(bound)
        return original(structure, bound)

    monkeypatch.setattr(cli, "_verify_shuffle", recording)
    return bounds


@pytest.mark.parametrize("command", ["verify", "shuffle"])
def test_zero_truncation_flag_is_read_as_zero(complex_config, tmp_path, recorded_bounds, command):
    out = tmp_path / "o.json"
    assert main([command, "--config", complex_config, "--l", "0", "--out", str(out)]) == 0
    assert recorded_bounds == [0]


@pytest.mark.parametrize("command", ["verify", "shuffle"])
def test_bound_without_the_l_flag_is_4(complex_config, tmp_path, recorded_bounds, command):
    assert main([command, "--config", complex_config, "--out", str(tmp_path / "o.json")]) == 0
    assert recorded_bounds == [4]


def test_zero_truncation_passes_every_shuffle_flag(complex_config):
    structure = cli.load_config(complex_config)
    assert all(cli._verify_shuffle(structure, 0).values())


@pytest.mark.parametrize("command", ["verify", "shuffle"])
def test_negative_truncation_flag_is_a_usage_error(complex_config, capsys, command):
    assert main([command, "--config", complex_config, "--l", "-2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--l" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "shuffle"])
def test_bound_is_passed_through_up_to_the_budget(complex_config, tmp_path, recorded_bounds,
                                                  command):
    out = tmp_path / "o.json"
    assert main([command, "--config", complex_config, "--l", str(cli.MAX_WORD_BOUND),
                 "--out", str(out)]) == 0
    assert recorded_bounds == [cli.MAX_WORD_BOUND]


@pytest.mark.parametrize("command", ["verify", "shuffle"])
def test_bound_over_the_budget_is_refused(tmp_path, capsys, command):
    over = cli.MAX_WORD_BOUND + 1
    cfg = write_config(tmp_path, "c.json", 2, [["1", "1/2"], ["-1", "2"]],
                       [["1", "-1"], ["1/2", "1"]])
    out = tmp_path / "o.json"
    assert main([command, "--config", cfg, "--out", str(out), "--l", str(over)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"budget of {cli.MAX_WORD_BOUND}" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("samples", [10 ** 12, cli.MAX_SWEEP_ROWS - 1])
def test_sweep_over_the_row_budget_is_refused_before_any_draw(tmp_path, monkeypatch, capsys,
                                                              samples):
    draws = _count_calls(monkeypatch, cli, "random_rational")
    out = tmp_path / "s.json"
    # two --a-values rows put MAX_SWEEP_ROWS - 1 samples one row over the budget
    assert main(["sweep", "--a-values=1,2", "--samples", str(samples), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"budget of {cli.MAX_SWEEP_ROWS}" in err
    assert err.count("\n") == 1 and not draws and not out.exists()


def test_sweep_computes_each_distinct_pair_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, cli, "sweep_row")
    out = tmp_path / "s.json"
    assert main(["sweep", "--samples", "300", "--seed", "7", "--a-values", "1,1,-1",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    distinct = {(r["i2"], r["j2"]) for r in rows}
    assert len(rows) == 303 and len(calls) == len(distinct) < 303
    # each row is listed as computed for its pair
    assert all(r == sweep_row(r["i2"], r["j2"]) for r in rows)


def test_sweep_has_no_job_count_option(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["sweep", "--jobs", "2", "--a-values=2", "--out", str(out)]) == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, leftover", [
    (["sweep", "--jobs", "2"], "--jobs 2"),
    (["verify", "--config", "c.json", "--bogus"], "--bogus"),
])
def test_unrecognized_argument_shows_the_subcommand_usage(tmp_path, capsys, argv, leftover):
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    # the usage line is the subcommand's, which lists its own options
    assert lines[0].startswith(f"usage: xcliff {argv[0]} [-h]")
    assert lines[-1] == f"xcliff {argv[0]}: error: unrecognized arguments: {leftover}"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--samples", "x" * 5000],
    ["sweep", "--seed", "x" * 5000],
    ["verify", "--config", "c.json", "--l", "x" * 5000],
    ["sweep", "y" * 5000],
    ["z" * 5000],
], ids=["samples", "seed", "l", "unrecognized", "command"])
def test_long_usage_error_is_cut(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 400 and err.endswith("...\n")


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "\U0001d538" * 300],
    ["verify", "--config", "c.json", "--l", "\u00e9" * 300],
], ids=["seed", "l"])
def test_non_ascii_usage_error_is_escaped_and_cut(capsys, argv):
    # the cut counts characters, so the line is at most 200 bytes only once
    # it is ASCII: raw, 197 letters of U+1D538 alone are 788 bytes
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and err.endswith(errors[0] + "\n")
    assert err.isascii() and len(errors[0]) <= 200 and len(err.encode()) < 400
    assert "argument --" in errors[0] and errors[0].endswith("...")


def test_short_usage_error_is_shown_whole(capsys):
    assert main(["sweep", "--samples", "abc"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "xcliff sweep: error: argument --samples: invalid int value: 'abc'")


def test_negative_sample_count_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["sweep", "--samples", "-5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--samples" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_unwritable_report_path_is_a_usage_error(complex_config, tmp_path, capsys, command):
    out = tmp_path / "missing" / "r.json"
    argv = ["sweep", "--a-values=2"] if command == "sweep" else [
        "verify", "--config", complex_config]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report:") and err.count("\n") == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("n, size", [(1.9, 1), (True, 1), ("2", 2), (-1, 1), (17, 1)])
def test_bad_rank_in_config_is_a_parse_error(tmp_path, capsys, n, size):
    form = [["1"] * size for _ in range(size)]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n": n, "eta": form, "xi": form}))
    assert main(["tables", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: rank") and err.count("\n") == 1


@pytest.mark.parametrize("flag", [["sigma", "--l", "3"], ["antipode", "--markdown"]])
def test_flag_a_command_does_not_read_is_a_usage_error(complex_config, capsys, flag):
    assert main(flag + ["--config", complex_config]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- the tensor-square pairing read from the config ----------------------------

GENERIC_FORMS = {
    1: ([["2"]], [["-1/3"]]),
    2: ([["1", "1/2"], ["-1", "2"]], [["1", "-1"], ["1/2", "1"]]),
    3: ([["1", "1/2", "0"], ["-1", "2", "1"], ["0", "1/3", "-1"]],
        [["1", "-1", "0"], ["1/2", "1", "2"], ["-2", "0", "1"]]),
}


def _forms(n, kind):
    eta, xi = GENERIC_FORMS[n]
    zero = [["0"] * n for _ in range(n)]
    return {"zero": (zero, zero), "xi0": (eta, zero), "eta0": (zero, xi),
            "generic": (eta, xi)}[kind]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["zero", "xi0", "generic"])
def test_verify_honours_straight_pairing(tmp_path, n, kind):
    eta, xi = _forms(n, kind)
    path = tmp_path / "straight.json"
    path.write_text(json.dumps({"n": n, "eta": eta, "xi": xi, "pairing": "straight"}))
    out = tmp_path / "v.json"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["structure"]["pairing"] == "straight"
    assert report["hard_pass"] is True


def test_straight_pairing_coproduct_is_the_transposed_table(tmp_path):
    eta, xi = _forms(2, "generic")
    tables = {}
    for pairing in ("inner", "straight"):
        path = tmp_path / f"{pairing}.json"
        path.write_text(json.dumps({"n": 2, "eta": eta, "xi": xi, "pairing": pairing}))
        structure = cli.load_config(str(path))
        tables[pairing] = {c: t.terms for c, t in structure.coproduct_table.items()}
    assert tables["straight"] == {c: {(b, a): v for (a, b), v in t.items()}
                                  for c, t in tables["inner"].items()}
    assert tables["straight"] != tables["inner"]


@pytest.mark.parametrize("pairing", ["outer", ["inner"], 1])
def test_bad_pairing_in_config_is_a_parse_error(tmp_path, capsys, pairing):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "eta": [["1"]], "xi": [["1"]], "pairing": pairing}))
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: pairing") and err.count("\n") == 1


# -- the word-algebra checks report a planted wrong column ------------------------

RANK2 = CliffordStructure(2, Matrix([[1, F(1, 2)], [-1, 2]]), Matrix.zeros(2, 2))


def _shuffle_flags(structure=RANK2, bound=3):
    return cli._verify_shuffle(structure, bound)


def test_shuffle_checks_pass_unplanted():
    assert all(_shuffle_flags().values())


def test_verify_shuffle_builds_each_word_bigebra_once(monkeypatch):
    # the lifts need only the concatenation bi-gebra; the rank-only word
    # facts are proved in the tests
    calls = _count_word_maps(monkeypatch)
    assert all(_shuffle_flags(bound=4).values())
    assert calls == [(4, False)]


@pytest.mark.parametrize("bound", range(7))
@pytest.mark.parametrize("n", [1, 2])
def test_bounded_pair_lift_is_the_lift_squared_within_the_bound(n, bound):
    # the comultiplicativity check's one map equals colifted (x) colifted
    # followed by the projection onto the word pairs within the bound
    eta, xi = GENERIC_FORMS[n]
    s = cli.read_config({"n": n, "eta": eta, "xi": xi})
    colift = ts.couniversal_lift(ts.grade1_projection(s), s, bound)
    colifted = cli._as_map(blades(n), lambda c: colift(Multivector.blade(n, c)))
    within_bound = LinearMap(2, {p: {p: F(1)} for p in ts.word_maps(n, bound).m.cols})
    old = LinearMap.of(keys(n, 2), [colifted.at(0), colifted.at(1), within_bound.at(0)])
    assert cli._pair_within_bound(colifted, bound) == old


def _only_failure(flags, key):
    assert flags == {k: k != key for k in ("universal_lift_multiplicative",
                                           "couniversal_lift_comultiplicative")}


def test_universal_lift_check_sees_a_wrong_lift_column(monkeypatch):
    original = ts.universal_lift

    def planted(images, structure):
        lift = original(images, structure)

        def evaluate(x):
            out = lift(x)
            return out + Multivector.blade(2, 0) if x.terms == {(0, 1): 1} else out

        return evaluate

    monkeypatch.setattr(ts, "universal_lift", planted)
    _only_failure(_shuffle_flags(), "universal_lift_multiplicative")


def test_couniversal_lift_check_sees_a_wrong_lift_column(monkeypatch):
    original = ts.couniversal_lift

    def planted(letter_map, structure, bound):
        colift = original(letter_map, structure, bound)

        def evaluate(x):
            out = colift(x)
            if x.terms == {0b11: 1}:
                word = min(out.terms)
                out = out + out.terms[word] * ts.GradedElement.word(out.dim, out.bound, word)
            return out

        return evaluate

    monkeypatch.setattr(ts, "couniversal_lift", planted)
    _only_failure(_shuffle_flags(), "couniversal_lift_comultiplicative")


# -- verify reports facts of the instance only ------------------------------------

@pytest.mark.parametrize("n, kind, pairing, discrepancy", [
    (2, "xi0", "straight", False),
    (2, "eta0", "straight", False),
    (2, "xi0", "inner", True),
    (2, "eta0", "inner", True),
    (2, "zero", "inner", True),
    (1, "xi0", "inner", False),
])
def test_braided_iff_discrepancy_reads_invertible_and_braid(n, kind, pairing, discrepancy):
    # criterion 08's reading of the iff: {invertible and braid} iff a form
    # vanishes.  Under "straight" (and at rank 1) a vanishing form gives
    # flags (T, T, xi = 0, eta = 0), so the iff holds although the four-flag
    # verdict is false; under "inner" the rank-2 flags are (T, F, F, F).
    eta, xi = _forms(n, kind)
    structure = cli.read_config(
        {"n": n, "eta": eta, "xi": xi, "pairing": pairing})
    report = cli.build_instance_report(structure, 2)
    assert report["hard_pass"] is True
    assert report["sigma"]["braided_iff_discrepancy"] is discrepancy


@pytest.mark.parametrize("pairing", ["inner", "straight"])
@pytest.mark.parametrize("kind", ["zero", "xi0", "eta0", "generic"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_builds_one_structure(tmp_path, monkeypatch, n, kind, pairing):
    # the config's structure is the only one: no check builds a structure of
    # other forms (such as the zero-form one) to compare against
    built = []
    build = CliffordStructure.__init__
    monkeypatch.setattr(CliffordStructure, "__init__",
                        lambda self, *args, **kw: built.append(args) or build(self, *args, **kw))
    eta, xi = _forms(n, kind)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n": n, "eta": eta, "xi": xi, "pairing": pairing}))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "v.json")]) == 0
    assert len(built) == 1


def test_verify_fails_on_an_antipode_family_that_is_not_unique(tmp_path, monkeypatch):
    original = hopf.solve_antipode

    def planted(structure):
        sol = original(structure)
        shift = tuple(int(i == 0) for i in range(len(sol.particular)))
        return AffineSolutionSet(sol.particular, (shift,))

    monkeypatch.setattr(hopf, "solve_antipode", planted)
    eta, xi = _forms(2, "generic")
    cfg = write_config(tmp_path, "c.json", 2, eta, xi)
    out = tmp_path / "v.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["antipode"]["exists"] is True and report["antipode"]["unique"] is False
    assert report["hard_checks"]["antipode_unique_and_two_sided"] is False
    assert report["hard_pass"] is False
    assert [k for k, v in report["hard_checks"].items() if not v] == [
        "antipode_unique_and_two_sided"]
