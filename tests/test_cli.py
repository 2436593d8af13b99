import json
import math
import os

import pytest

from catent import cli
from catent.cli import (
    ScenarioConfig,
    emit_report,
    emit_series_csv,
    list_builtin_models,
    load_config,
    main,
    run_scenario,
    validate_config,
)
from catent.errors import InputError
from catent.graded import cone_evaluations
from catent.words import derive_verdict


def run_preset(name):
    return run_scenario(load_config(list_builtin_models()[name]))


# -- config loading and validation ----------------------------------------------


def test_minimal_hk_config_valid():
    cfg = load_config({"kind": "hk", "n": 1, "q": 10, "m_max": 8})
    assert cfg.kind == "hk"
    assert cfg.tol == 1e-9
    assert "t" not in cfg.data and "seed" not in cfg.data


@pytest.mark.parametrize(
    "config, path",
    [
        ({"kind": "hk", "n": 1, "q": 10, "m_max": 8, "t": 0.5}, "t"),
        ({"kind": "hilb", "points": 2,
          "base": {"n": 1, "q": 10, "m_max": 8, "t": 0.5}}, "base.t"),
        ({**list_builtin_models()["enriques-over-hk"],
          "cover": {"n": 2, "q": 2, "m_max": 8, "t": 0.5}}, "cover.t"),
    ],
)
def test_t_rejected_where_ignored(config, path):
    _, violations = validate_config(config)
    assert f"{path}: only surface_twist reads t" in violations


def test_surface_twist_keeps_t():
    cfg = load_config(
        {"kind": "surface_twist", "q": 10, "k": 1, "l": 1, "m_max": 5, "t": 0.5}
    )
    assert cfg.data["t"] == 0.5


def test_missing_field_named_in_violations():
    _, violations = validate_config({"kind": "hk", "q": 10, "m_max": 8})
    assert any(v.startswith("n:") for v in violations)


def rejected_by_the_check_stage(capsys, config, message):
    """Assert that ``config`` passes the schema, and that ``validate`` and
    ``run`` both exit 1 with the engine's ``message``, ``run`` with an error
    report of 0 work units.  Returns the report."""
    assert validate_config(config)[1] == []
    line = f"error [InputError]: {message}\n"
    assert main(["validate", "--config", json.dumps(config)]) == 1
    assert capsys.readouterr() == ("", line)
    assert main(["run", "--config", json.dumps(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err == line
    report = json.loads(captured.out)
    assert report["error"] == {"type": "InputError", "message": message}
    assert report["timing"]["work_units"] == 0
    return report


def test_degenerate_table_cites_invariant(capsys):
    rejected_by_the_check_stage(
        capsys, {"kind": "hk", "n": 1, "d_table": [1, 5], "m_max": 8},
        "d-table violates d_i > 1 at i=1 (got 1)")


@pytest.mark.parametrize("config, field, q", [
    ({"kind": "hk", "n": 1, "q": 3, "m_max": 5}, "q", 3),
    ({"kind": "surface_twist", "q": 9, "k": 1, "l": 1, "m_max": 5}, "q", 9),
    ({"kind": "hilb", "points": 2, "base": {"n": 1, "q": 5, "m_max": 5}},
     "base.q", 5),
    ({**list_builtin_models()["enriques-over-hk"],
      "cover": {"n": 2, "q": 7, "m_max": 5}}, "cover.q", 7),
])
def test_odd_q_is_rejected_by_validate(capsys, config, field, q):
    # With q odd, d_1 is an odd integer over 2^n n!, so every run would end
    # in an error report; HKModel says so in the check stage, which validate
    # runs too.  The report echoes the odd q at its field.
    report = rejected_by_the_check_stage(
        capsys, config, f"q: must be an even positive integer, got {q}")
    holder = report["scenario"]
    for step in field.split("."):
        holder = holder[step]
    assert holder == q


@pytest.mark.parametrize("config, field, need", [
    # hk, hilb.base and enriques.cover read d_1 .. d_{4n+m_max+2}
    ({"kind": "hk", "n": 1, "d_table": [7, 22, 47], "m_max": 8}, "d_table", 14),
    ({"kind": "hilb", "points": 2,
      "base": {"n": 1, "d_table": [7, 22, 47], "m_max": 3}}, "base.d_table", 9),
    ({**list_builtin_models()["enriques-over-hk"],
      "cover": {"n": 2, "d_table": [7, 22, 47], "m_max": 5}}, "cover.d_table", 15),
    # surface_twist reads d_1 .. d_{k+l+m_max}
    ({"kind": "surface_twist", "d_table": [7, 22, 47], "k": 2, "l": 1,
      "m_max": 4}, "d_table", 7),
])
def test_short_d_table_is_rejected_by_validate(capsys, config, field, need):
    # The check stage reads d_1, d_2, ... in order up to the deepest d_i the
    # run reads, so a table too short for the run fails validate and the run
    # alike, at its first missing entry and before any cone work.
    line = "error [InputError]: d-table too short: need d_4, have 3 entries\n"
    assert validate_config(config)[1] == []
    assert main(["validate", "--config", json.dumps(config)]) == 1
    assert capsys.readouterr() == ("", line)
    assert main(["run", "--config", json.dumps(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err == line
    assert json.loads(captured.out)["timing"]["work_units"] == 0
    # The table at ``field`` must reach d_need exactly.
    *parents, key = field.split(".")
    for size, code in ((need - 1, 1), (need, 0)):
        longer = json.loads(json.dumps(config))
        holder = longer
        for step in parents:
            holder = holder[step]
        holder[key] = [7, 22, 47] + list(range(50, 50 + size - 3))
        assert main(["validate", "--config", json.dumps(longer)]) == code
        expected = (f"error [InputError]: d-table too short: need d_{need}, "
                    f"have {need - 1} entries\n") if code else ""
        assert capsys.readouterr().err == expected


def test_all_violations_collected():
    _, violations = validate_config({"kind": "hk", "q": -1, "t": -2.0})
    assert len(violations) >= 3  # n missing, q range, m_max missing, t range


def test_unknown_kind_rejected():
    _, violations = validate_config({"kind": "banana"})
    assert any(v.startswith("kind:") for v in violations)


@pytest.mark.parametrize("sign", [True, -1.0, 1.0])
def test_euler_sign_must_be_an_integer(capsys, sign):
    config = {"kind": "lattice_word", "word": [],
              "lattice": {"gram": [[1]], "euler_sign": sign}}
    # BilinearLattice owns the rule, and the check stage builds it
    rejected_by_the_check_stage(
        capsys, config, f"euler_sign must be the integer +1 or -1, got {sign!r}")


@pytest.mark.parametrize("lattice, message", [
    ({"gram": [[1]], "symmetry_kind": "orthogonal"},
     "symmetry_kind must be one of ('symmetric', 'euler_general'), got 'orthogonal'"),
    ({"gram": [[0, 1], [2, 0]], "symmetry_kind": "symmetric"},
     "symmetric lattice has asymmetric gram at (0,1)"),
    ({"gram": [[1]], "euler_sign": 2}, "euler_sign must be the integer +1 or -1, got 2"),
])
def test_lattice_rules_come_from_the_lattice(capsys, lattice, message):
    config = {"kind": "lattice_word", "lattice": lattice, "word": []}
    rejected_by_the_check_stage(capsys, config, message)


@pytest.mark.parametrize("fields, message", [
    ({"q": 10.0}, "q: must be an even positive integer, got 10.0"),
    ({"d_table": [2.9, 3]}, "d-table entry d_1 must be an integer, got 2.9"),
    ({"d_table": []}, "d-table must be a nonempty list of integers, got []"),
])
def test_model_rules_come_from_the_model(capsys, fields, message):
    config = {"kind": "hk", "n": 1, "m_max": 3, **fields}
    rejected_by_the_check_stage(capsys, config, message)


def test_model_needs_exactly_one_of_q_and_d_table():
    # which of the two is given picks the echo key, so the schema checks it
    config = {"kind": "hk", "n": 1, "m_max": 3, "q": None}
    assert validate_config(config) == (None, ["q: supply exactly one of q or d_table"])


@pytest.mark.parametrize("version", [True, 1.0])
def test_schema_version_must_be_an_integer(version):
    config = {"schema_version": version, "kind": "hk", "n": 1, "q": 10, "m_max": 8}
    _, violations = validate_config(config)
    assert any(v.startswith("schema_version:") for v in violations)


def test_whitelisted_must_be_a_boolean():
    word = [{"kind": "spherical", "class": [3], "whitelisted": "no"}]
    _, violations = validate_config(
        {"kind": "lattice_word", "lattice": {"gram": [[1]]}, "word": word}
    )
    assert violations == ["word[0].whitelisted: must be true or false"]


def test_load_config_inline_json_and_parse_diagnostics():
    cfg = load_config('{"kind": "hk", "n": 1, "q": 10, "m_max": 8}')
    assert cfg.kind == "hk"
    with pytest.raises(InputError) as exc:
        load_config('{"kind": "hk",')
    assert "line" in str(exc.value)


def test_load_config_collects_schema_errors():
    # The message lists every violation of the schema, one a line.
    _, violations = validate_config({"kind": "hk"})
    assert len(violations) >= 2
    with pytest.raises(InputError) as exc:
        load_config({"kind": "hk"})
    assert str(exc.value) == "config validation failed:\n" + "\n".join(
        f"  - {v}" for v in violations)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "hk", "n": 1, "q": 10, "m_max": 8}))
    assert load_config(str(path)).kind == "hk"


@pytest.mark.parametrize("kind", [[], {}])
def test_unhashable_kind_rejected(kind):
    kinds = ("hk", "hilb", "enriques", "lattice_word", "surface_twist")
    assert validate_config({"kind": kind}) == (
        None, [f"kind: must be one of {kinds}, got {kind!r}"])


# -- presets ---------------------------------------------------------------------


def test_catalog_has_at_least_four_valid_presets():
    presets = list_builtin_models()
    assert len(presets) >= 4
    for name, preset in presets.items():
        cfg = load_config(preset)
        assert isinstance(cfg, ScenarioConfig), name


def test_k3_preset_has_d1_seven():
    report = run_preset("k3-q10")
    assert report["details"]["d1"] == 7


# -- run_scenario -----------------------------------------------------------------


def test_hk_run_certifies_gap():
    report = run_preset("k3-q10")
    assert report["verdict"] == "GY violated"
    assert report["entropy_lower_certified"] == pytest.approx(math.log(7))
    assert report["log_rho"] == 0.0 and report["log_rho_exact_zero"]
    assert report["series"][0] == {"m": 1, "lower": 24155, "upper": 24155}


def test_hilb_run_scales_by_points():
    report = run_preset("k3n-hilb")
    assert report["verdict"] == "GY violated"
    assert report["entropy_lower_certified"] == pytest.approx(3 * math.log(7))
    assert report["log_rho"] == 0.0 and report["log_rho_exact_zero"]
    assert report["series"][0]["lower"] == 24155**3


def test_enriques_run_descends_bound():
    report = run_preset("enriques-over-hk")
    assert report["verdict"] == "GY violated"
    assert report["entropy_lower_certified"] == pytest.approx(math.log(6))
    assert report["log_rho"] == 0.0 and report["log_rho_exact_zero"]
    assert report["details"]["quotient_rank"] == 3


def test_lattice_word_run():
    cfg = load_config(
        {
            "kind": "lattice_word",
            "lattice": {"gram": [[0, 0, -1], [0, 10, 0], [-1, 0, 0]],
                        "symmetry_kind": "symmetric"},
            "word": [
                {"kind": "spherical", "class": [1, 0, 1]},
                {"kind": "tensor",
                 "nilpotent": [[0, 0, 0], [-1, 0, 0], [0, -10, 0]]},
            ],
        }
    )
    report = run_scenario(cfg)
    assert report["error"] is None
    assert report["log_rho"] is not None and report["log_rho"] > 0
    assert not report["log_rho_exact_zero"]
    assert report["verdict"] == "no violation certified"


def test_word_gets_one_certificate_under_both_kinds():
    # shift.tensor is minus a unipotent action: not unipotent, but its square
    # is, so every kind that reaches it must certify log rho = 0 exactly.
    preset = list_builtin_models()["enriques-over-hk"]
    word = [{"kind": "shift"}, preset["word"][1]]
    enriques = run_scenario(load_config(
        {**preset, "cover": {"n": 2, "q": 2, "m_max": 3}, "word": word}
    ))
    lattice_word = run_scenario(load_config(
        {"kind": "lattice_word", "lattice": preset["lattice"], "word": word}
    ))
    for report in (enriques, lattice_word):
        assert report["error"] is None
        assert report["log_rho_exact_zero"] is True
        assert report["log_rho"] == 0.0
    assert enriques["details"]["cover_log_rho"] == 0.0


def test_surface_twist_run():
    cfg = load_config(
        {"kind": "surface_twist", "q": 10, "k": 1, "l": 1, "m_max": 5}
    )
    report = run_scenario(cfg)
    assert [row["lower"] for row in report["series"]][:3] == [201, 1973, 18246]


# Schema-valid, but the tensor class is not unipotent, which takes the
# lattice checks of validate or run to find out.
NON_UNIPOTENT_TENSOR = {
    "kind": "lattice_word", "lattice": {"gram": [[1, 0], [0, 1]]},
    "word": [{"kind": "tensor", "matrix": [[2, 1], [1, 1]]}],
}


def test_run_serializes_engine_errors():
    # The error lands in the report, not as an exception.
    report = run_scenario(load_config(NON_UNIPOTENT_TENSOR))
    assert report["verdict"] == "error"
    assert report["error"]["type"] == "InputError"
    assert report["error"]["message"] == "generator 0 tensor matrix must be unipotent"


# -- reports -----------------------------------------------------------------------


def test_report_json_roundtrip_byte_identical():
    report = run_preset("k3-q10")
    text = emit_report(report, "json")
    parsed = json.loads(text)
    assert parsed == report
    assert json.dumps(parsed, indent=2, allow_nan=False) + "\n" == text


def test_reports_deterministic_across_runs():
    for name in list_builtin_models():
        cfg = load_config(list_builtin_models()[name])
        assert emit_report(run_scenario(cfg)) == emit_report(run_scenario(cfg))


NILPOTENT_WORDS = {
    "off-diagonal": {"gram": [[0, 1], [1, 0]], "matrix": [[0, 1], [0, 0]]},
    "zero": {"gram": [[0, 0], [0, 0]], "matrix": [[0, 0], [0, 0]]},
}


def nilpotent_config(name):
    case = NILPOTENT_WORDS[name]
    return {"kind": "lattice_word", "lattice": {"gram": case["gram"]},
            "word": [{"kind": "explicit", "matrix": case["matrix"]}]}


def test_report_verdict_self_auditing():
    configs = list(list_builtin_models().values()) + [
        {"kind": "lattice_word", "lattice": {"gram": [[1, 0], [0, 1]]},
         "word": [{"kind": "explicit", "matrix": [[2, 1], [1, 1]]}]},
        {"kind": "surface_twist", "q": 10, "k": 1, "l": 1, "m_max": 5},
    ]
    kinds = set()
    for config in configs:
        cfg = load_config(config)
        report = run_scenario(cfg)
        assert report["error"] is None
        kinds.add(cfg.kind)
        assert report["verdict"] == derive_verdict(
            report["entropy_lower_certified"],
            report["log_rho"],
            report["log_rho_exact_zero"],
            cfg.tol,
        )
        if report["entropy_lower_certified"] is None or report["log_rho"] is None:
            assert report["gap"] is None
        else:
            assert report["gap"] == report["entropy_lower_certified"] - report["log_rho"]
    assert kinds == {"hk", "hilb", "enriques", "lattice_word", "surface_twist"}


@pytest.mark.parametrize("name", sorted(NILPOTENT_WORDS))
def test_nilpotent_action_is_an_input_error(capsys, name):
    report = run_scenario(load_config(nilpotent_config(name)))
    assert report["verdict"] == "error"
    assert report["error"]["type"] == "InputError"
    assert "nilpotent" in report["error"]["message"]
    assert main(["run", "--config", json.dumps(nilpotent_config(name))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [InputError]")
    assert "Traceback" not in err
    assert main(["validate", "--config", json.dumps(nilpotent_config(name))]) == 1
    assert capsys.readouterr().err == err


def test_table_format_contents():
    report = run_preset("k3-q10")
    text = emit_report(report, "table")
    assert "log spectral radius: 0 (exact, unipotent up to sign)\n" in text
    assert "lower" in text and "upper" in text and " m" in text
    assert "24155" in text


def test_table_names_sign_for_minus_unipotent_word():
    # shift.tensor on the enriques-over-hk lattice is minus a unipotent
    # action; the table must not call it unipotent outright.
    preset = list_builtin_models()["enriques-over-hk"]
    report = run_scenario(load_config({
        "kind": "lattice_word",
        "lattice": preset["lattice"],
        "word": [{"kind": "shift"}, preset["word"][1]],
    }))
    assert report["log_rho_exact_zero"]
    text = emit_report(report, "table")
    assert "log spectral radius: 0 (exact, unipotent up to sign)\n" in text


def test_series_csv():
    report = run_preset("k3-q10")
    csv_text = emit_series_csv(report)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "m,lower,upper"
    assert lines[1] == "1,24155,24155"


# -- command line ------------------------------------------------------------------


def test_main_run_preset(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", "--preset", "k3-q10", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "GY violated"


def test_main_validate_and_overrides(capsys):
    assert main(["validate", "--preset", "k3-q10"]) == 0
    assert "config OK" in capsys.readouterr().out
    assert main(["run", "--preset", "k3-q10", "--m-max", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["scenario"]["m_max"] == 4


def test_main_overrides_apply_before_the_one_validation(capsys, monkeypatch):
    # --m-max and --tol replace the raw fields, and the config is validated
    # once, so the value an override replaces is never checked.
    config = json.dumps({"kind": "hilb", "points": 2, "tol": "loose",
                         "base": {"n": 1, "q": 10, "m_max": 100}})
    assert main(["validate", "--config", config]) == 1
    assert "base.m_max: must be <= 64, got 100" in capsys.readouterr().err
    seen = []
    monkeypatch.setattr(cli, "validate_config",
                        lambda data: seen.append(data) or validate_config(data))
    argv = ["validate", "--config", config, "--m-max", "4", "--tol", "1e-6"]
    assert main(argv) == 0
    assert [(d["base"]["m_max"], d["tol"]) for d in seen] == [(4, 1e-6)]
    assert main(["validate", "--config", config, "--m-max", "4", "--tol", "-1"]) == 1
    assert "tol: must be > 0.0, got -1.0" in capsys.readouterr().err


def test_main_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("k3-q10", "k3n-hilb", "hk-2n", "enriques-over-hk"):
        assert name in out


def test_main_invalid_config_exit_code(capsys):
    code = main(["run", "--config", '{"kind": "hk"}'])
    assert code == 1
    assert "error [InputError]" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [
    ([], {"kind": "surface_twist", "q": 10, "k": 1, "l": 1, "m_max": 5,
          "t": math.nan}),
    ([], {"kind": "hk", "n": 1, "q": 10, "m_max": 5, "tol": math.inf}),
    (["--tol", "inf"], {"kind": "hk", "n": 1, "q": 10, "m_max": 5}),
])
def test_main_rejects_non_finite_numbers(capsys, argv, config):
    code = main(["run", "--config", json.dumps(config)] + argv)
    assert code == 1
    assert "must be finite" in capsys.readouterr().err


def test_main_huge_entry_is_a_numeric_error(capsys):
    # The Cauchy bound of this char poly is past the float range.
    big = int("9" * 400)
    config = {"kind": "lattice_word", "lattice": {"gram": [[1, 0], [0, 1]]},
              "word": [{"kind": "explicit", "matrix": [[big, 1], [1, 0]]}]}
    assert main(["run", "--config", json.dumps(config)]) == 2
    assert "error [NumericError]" in capsys.readouterr().err


def test_main_integer_past_digit_limit_is_an_input_error(capsys):
    text = '{"kind": "hk", "n": 1, "q": 10, "m_max": 5, "tol": ' + "1" * 5000 + "}"
    assert main(["run", "--config", text]) == 1
    assert "error [InputError]" in capsys.readouterr().err


def test_main_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [InputError]: config parse error")
    assert "Traceback" not in err


def test_main_weighted_total_past_float_range_is_a_numeric_error(capsys):
    # At t > 0 the surface series is a float sum, and q = 10^300 puts its
    # int bounds past the float range.
    config = {"kind": "surface_twist", "q": 10**300, "k": 1, "l": 1,
              "m_max": 3, "t": 0.5}
    assert main(["run", "--config", json.dumps(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [NumericError]")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["run"], ["run", "--format", "table"], ["series"]])
def test_main_report_past_the_int_digit_limit_is_a_numeric_error(capsys, argv):
    # d_1 of q = 10^300 at n = 3 has about 900 digits, so the series passes
    # the 4,300-digit limit of int-to-str conversion by m = 4.  The check
    # stage finds that from the upper totals, so validate fails as the run
    # does, and the run's error report carries no cone work.
    config = {"kind": "hk", "n": 3, "q": 10**300, "m_max": 5}
    assert main(argv + ["--config", json.dumps(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error [NumericError]: report cannot be printed")
    assert "Traceback" not in captured.err
    if argv == ["run"]:
        report = json.loads(captured.out)
        assert report["verdict"] == "error"
        assert report["error"]["type"] == "NumericError"
        assert report["series"] == [] and report["details"] == {}
        assert report["timing"]["work_units"] == 0
        assert main(["validate", "--config", json.dumps(config)]) == 2
        assert capsys.readouterr() == ("", captured.err)
    elif argv == ["series"]:
        assert captured.out == "m,lower,upper\n"
    else:
        assert "error [NumericError]" in captured.out
        assert captured.out.endswith("work units: 0\n")


def test_main_engine_error_exit_code(capsys):
    cfg = json.dumps(NON_UNIPOTENT_TENSOR)
    line = "error [InputError]: generator 0 tensor matrix must be unipotent\n"
    assert main(["validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)
    code = main(["run", "--config", cfg])
    assert code == 1  # the same input error, found by the run
    assert capsys.readouterr().err == line


MUKAI10 = {"gram": [[0, 0, -1], [0, 10, 0], [-1, 0, 0]], "symmetry_kind": "symmetric"}
NON_SPHERICAL_WORDS = {
    "lattice_word": {"kind": "lattice_word", "lattice": MUKAI10},
    "enriques": {"kind": "enriques", "cover": {"n": 1, "q": 10, "m_max": 4},
                 "lattice": MUKAI10,
                 "deck": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "order": 1}},
}


@pytest.mark.parametrize("kind", sorted(NON_SPHERICAL_WORDS))
def test_main_non_spherical_class_needs_the_whitelist(capsys, kind):
    # (0, 1, 0) has self-pairing 10 under the Mukai gram, not -2.  validate
    # says so; the run gives an error report, before any cone work.
    spherical = {"kind": "spherical", "class": [0, 1, 0]}
    config = {**NON_SPHERICAL_WORDS[kind], "word": [spherical]}
    clean = {**config, "word": [{**spherical, "whitelisted": True}]}
    message = ("generator 0 class has self-pairing 10, spherical classes need -2 "
               "(or whitelist it)")
    assert main(["validate", "--config", json.dumps(config)]) == 1
    assert capsys.readouterr().err == f"error [InputError]: {message}\n"
    assert main(["validate", "--config", json.dumps(clean)]) == 0
    assert capsys.readouterr().out == f"config OK: kind={kind}\n"
    assert main(["run", "--config", json.dumps(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error [InputError]: {message}\n"
    report = json.loads(captured.out)
    assert report["error"] == {"type": "InputError", "message": message}
    assert main(["run", "--config", json.dumps(clean)]) == 0
    clean_report = json.loads(capsys.readouterr().out)
    assert clean_report["error"] is None
    assert report["timing"]["work_units"] == 0
    assert (clean_report["timing"]["work_units"] > 0) == (kind == "enriques")


def test_main_self_pairing_too_long_to_print_is_an_input_error(capsys):
    # The class entry has 3,001 digits, so the report can echo it, but its
    # self-pairing has 6,001, past the limit of int-to-str conversion, and
    # the message names it by its size.
    config = json.dumps({"kind": "lattice_word", "lattice": {"gram": [[1, 0], [0, 1]]},
                         "word": [{"kind": "spherical", "class": [10**3000, 0]}]})
    bits = (10**6000).bit_length()
    line = (f"error [InputError]: generator 0 class has self-pairing an int of {bits} "
            "bits, spherical classes need -2 (or whitelist it)\n")
    assert main(["validate", "--config", config]) == 1
    assert capsys.readouterr() == ("", line)
    assert main(["run", "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.err == line
    report = json.loads(captured.out)
    assert report["error"]["type"] == "InputError"
    assert report["timing"]["work_units"] == 0


# The swap has order 2, not a divisor of 3.
BAD_DECK_ORDER = {
    **NON_SPHERICAL_WORDS["enriques"],
    "deck": {"matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 1]], "order": 3},
    "word": [{"kind": "ptwist"}],
}


def test_main_bad_deck_order_fails_validate_as_run(capsys):
    cfg = json.dumps(BAD_DECK_ORDER)
    line = "error [InputError]: deck matrix does not have order dividing 3\n"
    assert main(["validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)
    assert main(["run", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err == line
    report = json.loads(captured.out)
    assert report["error"]["message"] == "deck matrix does not have order dividing 3"
    assert report["timing"]["work_units"] == 0  # found before the cover bound
    fixed = {**BAD_DECK_ORDER, "deck": {**BAD_DECK_ORDER["deck"], "order": 2}}
    assert main(["validate", "--config", json.dumps(fixed)]) == 0


def test_main_fixed_free_deck_fails_validate_as_run(capsys):
    # -I fixes no vector of the lattice; both commands say so before any cone
    # work.
    config = {**BAD_DECK_ORDER, "deck": {"matrix": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
                                         "order": 2}}
    message = "deck action fixes no lattice vector; not a valid quotient model"
    assert main(["validate", "--config", json.dumps(config)]) == 1
    assert capsys.readouterr() == ("", f"error [InputError]: {message}\n")
    assert main(["run", "--config", json.dumps(config)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == {"type": "InputError", "message": message}
    assert report["timing"]["work_units"] == 0


def test_deck_of_the_wrong_rank_reaches_the_cover_scenario(capsys):
    # The schema does not compare the deck with the lattice; CoverScenario
    # owns the rank rule and states it in the check stage.
    config = {**BAD_DECK_ORDER, "deck": {"matrix": [[1, 0], [0, 1]], "order": 1}}
    rejected_by_the_check_stage(capsys, config, "word acts on a lattice of different rank")


def test_load_config_builds_no_engine_type(monkeypatch):
    # Each value is checked once, in the check stage, not by the schema too.
    calls = []
    for name in ("HKModel", "BilinearLattice"):
        engine_type = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, engine_type=engine_type, **kwargs:
                            calls.append(engine_type) or engine_type(*args, **kwargs))
    loaded = [load_config(preset) for preset in list_builtin_models().values()]
    assert calls == []
    for cfg in loaded:
        cli._RUNNERS[cfg.kind](cfg)
    assert len(calls) == 5  # one model per preset, and the enriques lattice


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_main_non_finite_literals_are_parse_errors(capsys, literal):
    # Python's json reads these, but no report could echo them.
    text = ('{"kind": "lattice_word", "lattice": {"gram": [[' + literal + ']]}, '
            '"word": []}')
    line = f"error [InputError]: config parse error: numbers must be finite, got {literal}\n"
    for command in ("validate", "run"):
        assert main([command, "--config", text]) == 1
        assert capsys.readouterr() == ("", line)


# Non-invariant tensor word over a swap deck: descent must refuse, before the
# cover bound runs.
NON_COMMUTING_ENRIQUES = {
    "kind": "enriques",
    "cover": {"n": 1, "q": 10, "m_max": 4},
    "lattice": {"gram": [[1, 0], [0, 1]], "symmetry_kind": "symmetric"},
    "deck": {"matrix": [[0, 1], [1, 0]], "order": 2},
    "word": [{"kind": "tensor", "matrix": [[1, 1], [0, 1]]}],
}


def test_main_contract_violation_exit_code(capsys):
    # The CLI maps the contract failure to exit code 3.
    code = main(["run", "--config", json.dumps(NON_COMMUTING_ENRIQUES)])
    assert code == 3
    captured = capsys.readouterr()
    assert "ContractError" in captured.err
    report = json.loads(captured.out)
    assert report["verdict"] == "error"
    assert report["error"]["type"] == "ContractError"
    assert main(["validate", "--config", json.dumps(NON_COMMUTING_ENRIQUES)]) == 3
    assert capsys.readouterr() == ("", captured.err)


def test_main_error_report_as_table(capsys):
    argv = ["run", "--format", "table", "--config", json.dumps(NON_COMMUTING_ENRIQUES)]
    assert main(argv) == 3
    out = capsys.readouterr().out
    assert "verdict: error\n" in out
    assert "error [ContractError]" in out
    assert out.endswith("work units: 0\n")


def test_main_error_report_series_is_the_header_only(capsys):
    assert main(["series", "--config", json.dumps(NON_COMMUTING_ENRIQUES)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "m,lower,upper\n"
    assert captured.err.startswith("error [ContractError]")


@pytest.mark.parametrize("case", ["config-dir", "config-latin1", "out-missing-dir",
                                  "out-dir"])
def test_main_unusable_paths_are_input_errors(tmp_path, capsys, case):
    hk = json.dumps({"kind": "hk", "n": 1, "q": 10, "m_max": 4})
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"kind": "hk", "note": "\xe9"}')
    missing = tmp_path / "missing" / "x.json"
    argv, message = {
        "config-dir": (["--config", str(tmp_path)],
                       f"cannot read config {tmp_path}: Is a directory"),
        "config-latin1": (["--config", str(latin1)],
                          f"cannot read config {latin1}: 'utf-8' codec can't decode"),
        "out-missing-dir": (["--config", hk, "--out", str(missing)],
                            f"cannot write {missing}: No such file or directory"),
        "out-dir": (["--config", hk, "--out", str(tmp_path)],
                    f"cannot write {tmp_path}: Is a directory"),
    }[case]
    for command in ("validate", "run"):
        assert main([command, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error [InputError]: {message}")
        assert captured.err.count("\n") == 1


def test_main_out_is_opened_before_the_run(tmp_path, capsys):
    # An unusable --out path fails before any cone work...
    hk = json.dumps({"kind": "hk", "n": 1, "q": 10, "m_max": 4})
    work = cone_evaluations()
    assert main(["run", "--config", hk, "--out", str(tmp_path)]) == 1
    assert cone_evaluations() == work
    assert capsys.readouterr() == (
        "", f"error [InputError]: cannot write {tmp_path}: Is a directory\n")
    # ...and a usable one keeps the exit code of the error report it holds.
    out = tmp_path / "c.json"
    argv = ["run", "--config", json.dumps(NON_COMMUTING_ENRIQUES), "--out", str(out)]
    assert main(argv) == 3
    assert json.loads(out.read_text())["error"]["type"] == "ContractError"
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_main_write_error_is_an_input_error(capsys):
    assert main(["run", "--preset", "k3-q10", "--out", "/dev/full"]) == 1
    assert capsys.readouterr() == (
        "", "error [InputError]: cannot write /dev/full: No space left on device\n")


def test_main_requires_config_or_preset(capsys):
    assert main(["run"]) == 1
    assert main(["run", "--preset", "nope"]) == 1
