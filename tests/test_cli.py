import json
from fractions import Fraction as F

import pytest

from xcliff import braiding, cli, hopf, tensor_shuffle as ts
from xcliff.cli import main, sweep_row
from xcliff.clifford import CliffordStructure
from xcliff.exterior import Multivector
from xcliff.scalars import AffineSolutionSet, Matrix


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
    ("braided", 4, "braided supports rank <= 3"),
])
def test_rank_cap_refused_before_any_table_is_built(tmp_path, monkeypatch, capsys,
                                                   command, n, message):
    built = []
    build = CliffordStructure.__init__
    monkeypatch.setattr(CliffordStructure, "__init__",
                        lambda self, *args, **kw: built.append(args) or build(self, *args, **kw))
    zero = [["0"] * n] * n
    cfg = write_config(tmp_path, "big.json", n, zero, zero)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert built == []
    assert main(["tables", "--config", cfg, "--out", str(tmp_path / "t.json")]) == 0
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


def test_antipode_command(complex_config, tmp_path):
    out = tmp_path / "a.json"
    assert main(["antipode", "--config", complex_config, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["a"] == "-1"
    assert report["antipode"] == [["1/2", "0"], ["0", "-1/2"]]


def test_sigma_command(tmp_path):
    cfg = write_config(tmp_path, "unit.json", 1, [["1"]], [["1"]])
    out = tmp_path / "s.json"
    assert main(["sigma", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["solution_space_dim"] == 12
    assert report["sigma_unique"] is False


def test_braided_command(zero_config, tmp_path):
    out = tmp_path / "b.json"
    assert main(["braided", "--config", zero_config, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict_braided"] is True


def test_shuffle_command(complex_config, tmp_path):
    out = tmp_path / "sh.json"
    assert main(["shuffle", "--config", complex_config, "--out", str(out), "--l", "3"]) == 0
    report = json.loads(out.read_text())
    assert report == {"universal_lift_multiplicative": True,
                      "couniversal_lift_comultiplicative": True}


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


def test_sweep_deterministic_across_jobs(tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["sweep", "--samples", "6", "--seed", "11", "--out", str(out1)]) == 0
    assert main(["sweep", "--samples", "6", "--seed", "11", "--jobs", "2",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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


def test_config_nested_too_deeply_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config is nested too deeply") and err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["sigma", "braided"])
def test_scattering_commands_solve_the_antipode_once(complex_config, tmp_path, monkeypatch,
                                                     command):
    antipode = _count_calls(monkeypatch, hopf, "solve_antipode")
    assert main([command, "--config", complex_config, "--out", str(tmp_path / "o.json")]) == 0
    assert len(antipode) == 1


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
@pytest.mark.parametrize("command", ["verify", "sigma", "braided"])
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


@pytest.mark.parametrize("command", ["sigma", "braided"])
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


def test_sweep_jobs_clamped_to_cpu_count(tmp_path, monkeypatch):
    workers = []

    class RecordingPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    out = tmp_path / "s.json"
    assert main(["sweep", "--a-values=-1,0,1/2", "--jobs", "64", "--out", str(out)]) == 0
    assert workers == [2]
    assert json.loads(out.read_text())["aggregate"]["rows"] == 3


@pytest.mark.parametrize("command", ["verify", "shuffle"])
@pytest.mark.parametrize("truncation", [[1], "x", -1, 2.9, True, "3"])
def test_bad_truncation_in_config_is_a_parse_error(tmp_path, capsys, command, truncation):
    cfg = write_config(tmp_path, "c.json", 1, [["-1"]], [["1"]],
                       options={"truncation": truncation})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config:") and err.count("\n") == 1


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


def test_zero_truncation_passes_every_shuffle_flag(complex_config):
    structure, _ = cli.load_config(complex_config)
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
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bound_over_the_budget_is_refused(tmp_path, capsys, command, source):
    over = cli.MAX_WORD_BOUND + 1
    options = {"truncation": over} if source == "config" else None
    cfg = write_config(tmp_path, "c.json", 2, [["1", "1/2"], ["-1", "2"]],
                       [["1", "-1"], ["1/2", "1"]], options=options)
    out = tmp_path / "o.json"
    flag = ["--l", str(over)] if source == "flag" else []
    assert main([command, "--config", cfg, "--out", str(out)] + flag) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"budget of {cli.MAX_WORD_BOUND}" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_negative_sample_count_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["sweep", "--samples", "-5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--samples" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_non_positive_job_count_is_a_usage_error(tmp_path, capsys, jobs):
    out = tmp_path / "s.json"
    assert main(["sweep", "--jobs", jobs, "--a-values=2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --jobs") and err.count("\n") == 1
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
        structure, _ = cli.load_config(str(path))
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


def _only_failure(flags, key):
    assert flags == {k: k != key for k in ("universal_lift_multiplicative",
                                           "couniversal_lift_comultiplicative")}


def test_universal_lift_check_sees_a_wrong_lift_column(monkeypatch):
    original = ts.universal_lift

    def planted(images, structure):
        lift = original(images, structure)

        def evaluate(x):
            out = lift(x)
            return out + Multivector.scalar(2, 1) if x.terms == {(0, 1): 1} else out

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
    structure = CliffordStructure.from_config(
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
    original = hopf.antipode_solution

    def planted(structure):
        sol = original(structure)
        shift = tuple(int(i == 0) for i in range(len(sol.particular)))
        return AffineSolutionSet(sol.particular, (shift,))

    monkeypatch.setattr(hopf, "antipode_solution", planted)
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
