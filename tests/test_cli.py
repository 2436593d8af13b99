import json
import math
import os
import pathlib

import pytest

from catent import cli, words
from catent.cli import (
    ScenarioConfig,
    emit_report,
    list_builtin_models,
    load_config,
    main,
    run_scenario,
    validate_config,
)
from catent.errors import InputError
from catent.graded import cone_evaluations
from catent.lattice import SquareIntMatrix, char_poly
from catent.twists import HKModel, default_action
from catent.words import LogRho, certify_log_rho, derive_verdict


def run_preset(name):
    return run_scenario(load_config(list_builtin_models()[name]))


# -- config loading and validation ----------------------------------------------


def test_minimal_hk_config_valid():
    cfg = load_config({"kind": "hk", "n": 1, "q": 10, "m_max": 8})
    assert cfg["kind"] == "hk"
    assert "tol" not in cfg and "t" not in cfg and "seed" not in cfg


ENRIQUES = list_builtin_models()["enriques-over-hk"]
SURFACE = {"kind": "surface_twist", "q": 10, "k": 1, "l": 1, "m_max": 5}
# One key that no run reads, at each level of a config, with its path.
UNKNOWN_FIELDS = {
    "t": ({"kind": "hk", "n": 1, "q": 10, "m_max": 8, "t": 0.5}, "t"),
    "base.t": ({"kind": "hilb", "points": 2,
                "base": {"n": 1, "q": 10, "m_max": 8, "t": 0.5}}, "base.t"),
    "cover.t": ({**ENRIQUES, "cover": {"n": 2, "q": 2, "m_max": 8, "t": 0.5}},
                "cover.t"),
    "tolerance": ({"kind": "hk", "n": 1, "q": 10, "m_max": 8, "tolerance": 1e-3},
                  "tolerance"),
    "surface_twist.t": ({**SURFACE, "t": 0.0}, "t"),
    "surface_twist.n": ({**SURFACE, "n": 3}, "n"),
    # found before the q, whose series would be too long to print
    "surface_twist.t.long_q": ({**SURFACE, "q": 10**300, "m_max": 3, "t": 0.5}, "t"),
    "lattice": ({"kind": "lattice_word", "lattice": {"gram": [[1]], "sign": -1},
                 "word": []}, "lattice.sign"),
    "deck": ({**ENRIQUES, "deck": {**ENRIQUES["deck"], "orders": [2]}}, "deck.orders"),
    "whitelisted": ({"kind": "lattice_word", "lattice": {"gram": [[1]]},
                     "word": [{"kind": "spherical", "class": [3], "whitelisted": True}]},
                    "word[0].whitelisted"),
    "whitelisted.non_spherical": ({"kind": "lattice_word", "lattice": {
        "gram": [[0, 0, -1], [0, 10, 0], [-1, 0, 0]]}, "word": [
            {"kind": "spherical", "class": [0, 1, 0], "whitelisted": True}]},
        "word[0].whitelisted"),
    "explicit.nilpotent": ({"kind": "lattice_word", "lattice": {"gram": [[1]]},
                            "word": [{"kind": "explicit", "matrix": [[2]],
                                      "nilpotent": [[0]]}]}, "word[0].nilpotent"),
    "ptwist.class": ({**ENRIQUES, "word": [{"kind": "ptwist", "class": [1, 0, 1, 0]}]},
                     "word[0].class"),
}


def rejected_by_the_schema(capsys, config, violation):
    """Assert that ``validate`` and ``run`` both exit 1 on ``config`` with
    the one schema ``violation`` and no report."""
    assert validate_config(config) == (None, [violation])
    line = f"error [InputError]: config validation failed:\n  - {violation}\n"
    for command in ("validate", "run"):
        assert main([command, "--config", json.dumps(config)]) == 1
        assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize("name", UNKNOWN_FIELDS)
def test_unknown_key_is_a_violation(capsys, name):
    # Every object of a config is a closed set of keys, so an option that no
    # run reads is an input error, not a silent default.
    config, path = UNKNOWN_FIELDS[name]
    rejected_by_the_schema(capsys, config, f"{path}: unknown field")


def test_unknown_key_that_is_not_a_str_is_named_by_its_repr():
    # Only a dict config can hold one; an int too long to print is named by
    # its size, as in every message that echoes a value.
    config = {"kind": "hk", "n": 1, "q": 10, "m_max": 8, 1: 0, 10**5000: 0}
    bits = (10**5000).bit_length()
    assert validate_config(config) == (
        None, ["1: unknown field", f"an int of {bits} bits: unknown field"])


def test_tensor_takes_its_matrix_only(capsys):
    # A nilpotent once stood in for the matrix, as the cup product whose
    # exponential the engine took; it is an unknown field now.
    shear = {"kind": "lattice_word", "lattice": {"gram": [[1, 0], [0, 1]]},
             "word": [{"kind": "tensor", "matrix": [[1, 1], [0, 1]]}]}
    nilpotent = {**shear, "word": [{**shear["word"][0], "nilpotent": [[0, 1], [0, 0]]}]}
    cases = [(nilpotent, "word[0].nilpotent: unknown field"),
             ({**shear, "word": [{"kind": "tensor"}]},
              "word[0].matrix: must be a list of rows")]
    for config, violation in cases:
        assert validate_config(config) == (None, [violation])
        for command in ("validate", "run"):
            assert main([command, "--config", json.dumps(config)]) == 1
            assert capsys.readouterr().err.endswith(f"  - {violation}\n")
    assert load_config(shear)["word"] == shear["word"]


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
    ({"kind": "hk", "n": 1, "q": 3, "m_max": 4}, "q", 3),
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
    *(({"kind": "hk", "n": n, "d_table": [7, 22, 47], "m_max": 4}, "d_table", 4 * n + 6)
      for n in range(2, 5)),
    ({"kind": "surface_twist", "d_table": [7, 22, 47], "k": 2, "l": 2,
      "m_max": 4}, "d_table", 8),
])
def test_short_d_table_is_rejected_by_validate(capsys, config, field, need):
    # The check stage reads d_1, d_2, ... in order up to the deepest d_i the
    # run reads, so a table too short for the run fails validate and the run
    # alike, at its first missing entry and before any cone work; a table
    # that reaches that d_i exactly passes both.
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
        expected = (f"error [InputError]: d-table too short: need d_{need}, "
                    f"have {need - 1} entries\n") if code else ""
        for command in ("validate", "run"):
            assert main([command, "--config", json.dumps(longer)]) == code
            assert capsys.readouterr().err == expected


def test_all_violations_collected():
    _, violations = validate_config({"kind": "hk", "q": -1, "t": -2.0})
    assert len(violations) >= 3  # t unknown, n missing, m_max missing


def test_unknown_kind_rejected():
    _, violations = validate_config({"kind": "banana"})
    assert any(v.startswith("kind:") for v in violations)


@pytest.mark.parametrize("sign", [True, -1.0, 1.0])
def test_euler_sign_must_be_an_integer(capsys, sign):
    config = {"kind": "lattice_word", "word": [],
              "lattice": {"gram": [[1]], "euler_sign": sign}}
    rejected_by_the_schema(capsys, config, f"lattice.euler_sign: must be -1, got {sign!r}")


# Values of the two lattice keys other than the one convention: other
# conventions, near misses and malformed values.
OTHER_CONVENTIONS = [("symmetry_kind", kind) for kind in (
    "euler_general", "orthogonal", "Symmetric", "", None, 1, ["symmetric"])] + [
    ("euler_sign", sign) for sign in (1, 2, "1", None)]


@pytest.mark.parametrize("key, value", OTHER_CONVENTIONS,
                         ids=[f"{key}={value!r}" for key, value in OTHER_CONVENTIONS])
def test_a_lattice_has_one_convention(capsys, key, value):
    # Every lattice is symmetric with the Mukai sign: the two keys may only
    # name that convention, and the normalized lattice is its gram alone.
    lattice = {"gram": [[0, 1], [1, 0]]}
    config = {"kind": "lattice_word", "lattice": {**lattice, key: value}, "word": []}
    one = {"symmetry_kind": "'symmetric'", "euler_sign": "-1"}[key]
    rejected_by_the_schema(capsys, config, f"lattice.{key}: must be {one}, got {value!r}")
    named = {**lattice, "symmetry_kind": "symmetric", "euler_sign": -1}
    assert load_config({**config, "lattice": named})["lattice"] == lattice


@pytest.mark.parametrize("lattice, message", [
    ({"gram": [[0, 1], [2, 0]]}, "symmetric lattice has asymmetric gram at (0,1)"),
    ({"gram": [[0, 1], [2, 0]], "symmetry_kind": "symmetric"},
     "symmetric lattice has asymmetric gram at (0,1)"),
])
def test_lattice_rules_come_from_the_lattice(capsys, lattice, message):
    config = {"kind": "lattice_word", "lattice": lattice, "word": []}
    rejected_by_the_check_stage(capsys, config, message)


@pytest.mark.parametrize("fields, message", [
    ({"q": 10.0}, "q: must be an even positive integer, got 10.0"),
    ({"d_table": [2.9, 3]}, "d-table entry d_1 must be an integer, got 2.9"),
    ({"d_table": []}, "d-table must be a nonempty list of integers, got []"),
    # n = 1 reads d_1 .. d_{6 + m_max}
    ({"d_table": list(range(2, 11)), "m_max": 4},
     "d-table too short: need d_10, have 9 entries"),
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


def test_load_config_inline_json_and_parse_diagnostics():
    cfg = load_config('{"kind": "hk", "n": 1, "q": 10, "m_max": 8}')
    assert cfg["kind"] == "hk"
    with pytest.raises(InputError) as exc:
        load_config('{"kind": "hk",')
    assert "line" in str(exc.value)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_main_names_a_missing_config_path(tmp_path, capsys, command):
    missing = tmp_path / "missing.json"
    assert main([command, "--config", str(missing)]) == 1
    assert capsys.readouterr() == (
        "", f"error [InputError]: cannot read config {missing}: "
        "No such file or directory\n")
    # JSON that fails to parse keeps its line and column
    assert main([command, "--config", ' {"kind": "hk",']) == 1
    assert capsys.readouterr().err.startswith(
        "error [InputError]: config parse error at line 1, column 16")


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
    assert load_config(str(path))["kind"] == "hk"


@pytest.mark.parametrize("as_path", [str, pathlib.Path], ids=["str", "path"])
def test_load_config_names_a_missing_path(tmp_path, monkeypatch, as_path):
    # A path object is a path, as a str naming a file is: it is read, and a
    # missing one is named by its text, not by its repr.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "hk", "n": 1, "q": 10, "m_max": 8}))
    assert load_config(as_path(path))["kind"] == "hk"
    monkeypatch.chdir(tmp_path)
    with pytest.raises(InputError) as exc:
        load_config(as_path("missing.json"))
    assert str(exc.value) == "cannot read config missing.json: No such file or directory"


@pytest.mark.parametrize("kind", [[], {}])
def test_unhashable_kind_rejected(capsys, kind):
    kinds = ("hk", "hilb", "enriques", "lattice_word", "surface_twist")
    rejected_by_the_schema(capsys, {"kind": kind},
                           f"kind: must be one of {kinds}, got {kind!r}")


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


def test_hilb_base_must_be_a_surface(capsys):
    # The lift is proved for a surface base only.
    config = json.dumps({"kind": "hilb", "points": 2,
                         "base": {"n": 2, "q": 2, "m_max": 4}})
    line = ("error [InputError]: the Hilbert-scheme lift needs a surface model "
            "(n = 1), got n = 2\n")
    assert main(["validate", "--config", config]) == 1
    assert capsys.readouterr() == ("", line)
    assert main(["run", "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.err == line
    report = json.loads(captured.out)
    assert report["verdict"] == "error"
    assert report["timing"]["work_units"] == 0


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
            "lattice": {"gram": [[0, 0, -1], [0, 10, 0], [-1, 0, 0]]},
            "word": [
                {"kind": "spherical", "class": [1, 0, 1]},
                {"kind": "tensor", "matrix": [[1, 0, 0], [-1, 1, 0], [5, -10, 1]]},
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


def test_a_word_with_one_huge_entry_gets_one_certificate_under_both_kinds():
    # shift.tensor on rank 20, the tensor unit upper triangular with one
    # entry 10^4000: both kinds read the polynomial (x + 1)^20, whose
    # Hadamard bound is within the moduli, and certify log rho = 0 exactly.
    n = 20
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    tensor = [row[:] for row in identity]
    tensor[0][n - 1] = 10**4000
    word = [{"kind": "shift"}, {"kind": "tensor", "matrix": tensor}]
    lattice = {"gram": identity}
    enriques = run_scenario(load_config({
        "kind": "enriques", "cover": {"n": 1, "q": 10, "m_max": 4}, "lattice": lattice,
        "deck": {"matrix": identity, "order": 1}, "word": word}))
    lattice_word = run_scenario(load_config(
        {"kind": "lattice_word", "lattice": lattice, "word": word}))
    for report in (enriques, lattice_word):
        assert report["error"] is None
        assert report["log_rho_exact_zero"] is True
        assert report["log_rho"] == 0.0
    assert enriques["details"]["cover_log_rho"] == 0.0


# The companion word of x^3 - 3x^2 + 1, with rho = 2.879..., descended
# through the trivial deck: the exact gate certifies it below a cover with
# d_1 = 3 (gap 0.04104) and not below a d_table cover with d_1 = 2.
WORD = [[0, 0, -1], [1, 0, 0], [0, 1, 3]]
CLOSE_CALL = {
    "kind": "enriques", "cover": {"n": 1, "q": 2, "m_max": 4},
    "lattice": {"gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "deck": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "order": 1},
    "word": [{"kind": "explicit", "matrix": WORD}],
}
D1_IS_2 = {"n": 1, "d_table": list(range(2, 12)), "m_max": 4}


@pytest.mark.parametrize("cover, d1, verdict", [
    (CLOSE_CALL["cover"], 3, "GY violated"), (D1_IS_2, 2, "no violation certified")],
    ids=["d1-3", "d1-2"])
def test_the_exact_gate_decides_a_close_call(cover, d1, verdict):
    report = run_scenario(load_config({**CLOSE_CALL, "cover": cover}))
    assert report["error"] is None and report["log_rho_exact_zero"] is False
    assert report["details"]["cover_d1"] == d1
    assert math.exp(report["log_rho"]) == pytest.approx(2.879, abs=1e-3)
    assert report["gap"] == pytest.approx(math.log(d1) - math.log(2.87939), abs=1e-5)
    assert report["verdict"] == verdict


def test_every_gate_reads_its_int_base(monkeypatch):
    # hk, and a hilb base and its lift, gate d_1 (d_1^n > rho^n iff
    # d_1 > rho); enriques gates the cover's d_1 against the quotient's
    # polynomial; lattice_word has no bound.  Only a refined log rho has a
    # polynomial.
    gate, calls = words.derive_verdict, []
    monkeypatch.setattr(words, "derive_verdict", lambda base, log_rho: calls.append(
        (base, log_rho.poly)) or gate(base, log_rho))
    presets, poly = list_builtin_models(), char_poly(SquareIntMatrix(WORD))
    for config, want in (
            (presets["k3-q10"], (7, None)), (presets["k3n-hilb"], (7, None)),
            (CLOSE_CALL, (3, poly)),
            ({"kind": "lattice_word", "lattice": CLOSE_CALL["lattice"],
              "word": CLOSE_CALL["word"]}, (None, poly))):
        calls.clear()
        assert run_scenario(load_config(config))["error"] is None
        assert calls and set(calls) == {want}


def test_surface_twist_run():
    cfg = load_config(
        {"kind": "surface_twist", "q": 10, "k": 1, "l": 1, "m_max": 5}
    )
    report = run_scenario(cfg)
    assert [row["lower"] for row in report["series"]][:3] == [201, 1973, 18246]


@pytest.mark.parametrize("k, l, m_max", [(1, 1, 3), (2, 3, 5), (3, 1, 12)])
def test_surface_twist_cone_count(capsys, k, l, m_max):
    # One cone per twist level that level m keeps, l + m_max - m of them,
    # and none in the check stage.
    config = {"kind": "surface_twist", "q": 10, "k": k, "l": l, "m_max": m_max}
    report = run_scenario(load_config(config))
    assert report["timing"]["work_units"] == sum(
        l + m_max - m for m in range(1, m_max + 1))
    work = cone_evaluations()
    assert main(["validate", "--config", json.dumps(config)]) == 0
    assert cone_evaluations() == work
    assert capsys.readouterr().out == "config OK: kind=surface_twist\n"


def test_validate_certifies_the_hk_and_hilb_words(monkeypatch, capsys):
    # The check stage makes every log rho certificate, so validate certifies
    # the default word of hk and of a hilb base, with no cone work.
    calls = []
    monkeypatch.setattr(cli, "certify_log_rho", lambda poly: calls.append(
        poly) or certify_log_rho(poly))
    for name, kind in (("k3-q10", "hk"), ("k3n-hilb", "hilb")):
        calls.clear()
        work = cone_evaluations()
        assert main(["validate", "--preset", name]) == 0
        assert cone_evaluations() == work
        assert calls == [char_poly(default_action(HKModel(1, q=10)))]
        assert capsys.readouterr() == (f"config OK: kind={kind}\n", "")


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
    text = emit_report(report)
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
        kinds.add(cfg["kind"])
        # the int base whose log, per point, is the bound, and the one
        # refined word's polynomial
        bound, points = report["entropy_lower_certified"], cfg.get("points", 1)
        base = None if bound is None else round(math.exp(bound / points))
        assert base is None or points * math.log(base) == bound
        if report["log_rho"] is None or report["log_rho_exact_zero"]:
            log_rho = None if report["log_rho"] is None else LogRho(0.0, None)
        else:
            log_rho = LogRho(report["log_rho"],
                             char_poly(SquareIntMatrix(cfg["word"][0]["matrix"])))
        assert report["verdict"] == derive_verdict(base, log_rho)
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


# -- command line ------------------------------------------------------------------


def test_main_run_preset(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", "--preset", "k3-q10", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "GY violated"


def test_main_validate_preset(capsys):
    assert main(["validate", "--preset", "k3-q10"]) == 0
    assert "config OK" in capsys.readouterr().out


def test_main_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("k3-q10", "k3n-hilb", "hk-2n", "enriques-over-hk"):
        assert name in out


def test_main_invalid_config_exit_code(capsys):
    code = main(["run", "--config", '{"kind": "hk"}'])
    assert code == 1
    assert "error [InputError]" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # a run takes its m_max from the config, has no tol, and prints JSON only
    (["run", "--preset", "k3-q10", "--tol", "1e-6"],
     "unrecognized arguments: --tol 1e-6"),
    (["run", "--preset", "k3-q10", "--m-max", "4"], "unrecognized arguments: --m-max 4"),
    (["run", "--preset", "k3-q10", "--format", "table"],
     "unrecognized arguments: --format table"),
    (["series", "--preset", "k3-q10"], "argument command: invalid choice: 'series'"),
    (["run", "--preset", "k3-q10", "--bogus"], "unrecognized arguments: --bogus"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
], ids=["tol", "m-max", "format", "series", "unknown-option", "unknown-command"])
def test_main_malformed_command_line_is_an_input_error(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error [InputError]: {message}")
    assert captured.err.count("\n") == 1  # one line, no usage text


@pytest.mark.parametrize("argv", [["-h"], ["run", "-h"]])
def test_main_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert "usage: catent" in capsys.readouterr().out


@pytest.mark.parametrize("argv, config", [
    (["run"], {"kind": "surface_twist", "q": math.nan, "k": 1, "l": 1, "m_max": 5}),
    (["validate"], {"kind": "hk", "n": 1, "q": math.inf, "m_max": 5}),
])
def test_main_rejects_non_finite_numbers(capsys, argv, config):
    assert main(argv + ["--config", json.dumps(config)]) == 1
    assert "must be finite" in capsys.readouterr().err


def test_main_huge_entry_is_a_numeric_error(capsys):
    # The Cauchy bound of this char poly is past the float range.
    big = int("9" * 400)
    config = {"kind": "lattice_word", "lattice": {"gram": [[1, 0], [0, 1]]},
              "word": [{"kind": "explicit", "matrix": [[big, 1], [1, 0]]}]}
    assert main(["run", "--config", json.dumps(config)]) == 2
    assert "error [NumericError]" in capsys.readouterr().err


def _one_by_one_word(entry):
    return json.dumps({"kind": "lattice_word", "lattice": {"gram": [[1]]},
                       "word": [{"kind": "explicit", "matrix": [[entry]]}]})


@pytest.mark.parametrize("digits", [161, 300])
def test_main_large_spectral_radius_is_a_report(capsys, digits):
    assert main(["run", "--config", _one_by_one_word(10**digits)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["log_rho"] == pytest.approx(digits * math.log(10), abs=1e-9)
    assert report["log_rho_exact_zero"] is False


def test_main_spectral_radius_past_the_float_range_is_a_numeric_error(capsys):
    assert main(["run", "--config", _one_by_one_word(10**400)]) == 2
    captured = capsys.readouterr()
    message = "spectral radius 1.0e+400 is past the float range"
    assert captured.err == f"error [NumericError]: {message}\n"
    assert json.loads(captured.out)["error"] == {"type": "NumericError", "message": message}


def test_main_integer_past_digit_limit_is_an_input_error(capsys):
    text = '{"kind": "hk", "n": 1, "m_max": 5, "q": ' + "1" * 5000 + "}"
    assert main(["run", "--config", text]) == 1
    assert "error [InputError]" in capsys.readouterr().err


def test_main_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [InputError]: config parse error")
    assert "Traceback" not in err


def test_main_report_past_the_int_digit_limit_is_a_numeric_error(capsys):
    # d_1 of q = 10^300 at n = 3 has about 900 digits, so the series passes
    # the 4,300-digit limit of int-to-str conversion by m = 4.  The check
    # stage finds that from the upper totals, so validate fails as the run
    # does, and the run's error report carries no cone work.
    config = {"kind": "hk", "n": 3, "q": 10**300, "m_max": 5}
    assert main(["run", "--config", json.dumps(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error [NumericError]: report cannot be printed")
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["verdict"] == "error"
    assert report["error"]["type"] == "NumericError"
    assert report["series"] == [] and report["details"] == {}
    assert report["timing"]["work_units"] == 0
    assert main(["validate", "--config", json.dumps(config)]) == 2
    assert capsys.readouterr() == ("", captured.err)


def test_main_engine_error_exit_code(capsys):
    cfg = json.dumps(NON_UNIPOTENT_TENSOR)
    line = "error [InputError]: generator 0 tensor matrix must be unipotent\n"
    assert main(["validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)
    code = main(["run", "--config", cfg])
    assert code == 1  # the same input error, found by the run
    assert capsys.readouterr().err == line


MUKAI10 = {"gram": [[0, 0, -1], [0, 10, 0], [-1, 0, 0]]}
I3 = {"gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
# validate and run give one exit code and one stderr on each config: the
# message of an InputError, or for exit 0 the fields of the run's report.
SHARED_EXITS = {
    "n-not-an-int": ({"kind": "hk", "n": 1.5, "q": 10, "m_max": 4}, 1,
                     "config validation failed:\n  - n: must be an integer, got 1.5"),
    # tol is no field: the gate is exact
    "tol-not-a-number": (
        {"kind": "hk", "n": 1, "q": 10, "m_max": 4, "tol": "x"}, 1,
        "config validation failed:\n  - tol: unknown field"),
    "tol-a-number": (
        {"kind": "hk", "n": 1, "q": 10, "m_max": 4, "tol": 1e-6}, 1,
        "config validation failed:\n  - tol: unknown field"),
    "tensor-nilpotent-only": (
        {"kind": "lattice_word", "lattice": MUKAI10,
         "word": [{"kind": "tensor", "nilpotent": [[0, 0, 0], [-1, 0, 0], [0, -10, 0]]}]},
        1, "config validation failed:\n  - word[0].nilpotent: unknown field\n"
        "  - word[0].matrix: must be a list of rows"),
    "euler-sign-plus": (
        {"kind": "lattice_word", "lattice": {"gram": [[1]], "euler_sign": 1}, "word": []},
        1, "config validation failed:\n  - lattice.euler_sign: must be -1, got 1"),
    # the schema's rule comes before the gram's symmetry
    "euler-general-asymmetric": (
        {"kind": "lattice_word", "word": [],
         "lattice": {"gram": [[0, 1], [2, 0]], "symmetry_kind": "euler_general"}},
        1, "config validation failed:\n"
        "  - lattice.symmetry_kind: must be 'symmetric', got 'euler_general'"),
    # hk at n = 1 reads d_1 .. d_{6 + m_max}
    "d-table-exact": (
        {"kind": "hk", "n": 1, "d_table": list(range(2, 12)), "m_max": 4}, 0, {}),
    "deck-fixes-no-vector": (
        {"kind": "enriques", "cover": {"n": 1, "q": 10, "m_max": 4},
         "lattice": {"gram": [[1, 0], [0, 1]]},
         "deck": {"matrix": [[-1, 0], [0, -1]], "order": 2}, "word": [{"kind": "ptwist"}]},
        1, "deck action fixes no lattice vector; not a valid quotient model"),
    # trace n on a non-unit diagonal: no unit-triangular shortcut, and the
    # full nilpotence test says no
    "tensor-diagonal-2-0-1": (
        {"kind": "lattice_word", "lattice": I3,
         "word": [{"kind": "tensor", "matrix": [[2, 1, 0], [0, 0, 1], [0, 0, 1]]}]},
        1, "generator 0 tensor matrix must be unipotent"),
    # minus a unit lower triangular action
    "shift-unit-lower": (
        {"kind": "lattice_word", "lattice": I3, "word": [
            {"kind": "shift"},
            {"kind": "tensor", "matrix": [[1, 0, 0], [3, 1, 0], [-4, 9, 1]]}]},
        0, {"log_rho": 0.0, "log_rho_exact_zero": True}),
}


@pytest.mark.parametrize("name", SHARED_EXITS)
def test_validate_and_run_share_an_exit(capsys, name):
    config, code, expected = SHARED_EXITS[name]
    for command in ("validate", "run"):
        assert main([command, "--config", json.dumps(config)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == f"error [InputError]: {expected}\n"
        elif command == "run":
            report = json.loads(captured.out)
            assert report["error"] is None
            assert {key: report[key] for key in expected} == expected
        else:
            assert captured == (f"config OK: kind={config['kind']}\n", "")


NON_SPHERICAL_WORDS = {
    "lattice_word": {"kind": "lattice_word", "lattice": MUKAI10},
    "enriques": {"kind": "enriques", "cover": {"n": 1, "q": 10, "m_max": 4},
                 "lattice": MUKAI10,
                 "deck": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "order": 1}},
}


@pytest.mark.parametrize("kind", sorted(NON_SPHERICAL_WORDS))
def test_main_non_spherical_class_is_an_input_error(capsys, kind):
    # (0, 1, 0) has self-pairing 10 under the Mukai gram, not -2.  validate
    # says so; the run gives an error report, before any cone work.
    config = {**NON_SPHERICAL_WORDS[kind],
              "word": [{"kind": "spherical", "class": [0, 1, 0]}]}
    rejected_by_the_check_stage(
        capsys, config,
        "generator 0 class has self-pairing 10, spherical classes need -2")


def test_main_self_pairing_too_long_to_print_is_an_input_error(capsys):
    # The class entry has 3,001 digits, so the report can echo it, but its
    # self-pairing has 6,001, past the limit of int-to-str conversion, and
    # the message names it by its size.
    config = json.dumps({"kind": "lattice_word", "lattice": {"gram": [[1, 0], [0, 1]]},
                         "word": [{"kind": "spherical", "class": [10**3000, 0]}]})
    bits = (10**6000).bit_length()
    line = (f"error [InputError]: generator 0 class has self-pairing an int of {bits} "
            "bits, spherical classes need -2\n")
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
        cli._RUNNERS[cfg["kind"]](cfg)
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
    "lattice": {"gram": [[1, 0], [0, 1]]},
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


@pytest.mark.parametrize("case", ["config-dir", "config-latin1", "out-missing-dir",
                                  "out-dir", "preset-out-missing-dir"])
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
        "preset-out-missing-dir": (["--preset", "k3-q10", "--out", str(missing)],
                                   f"cannot write {missing}: No such file or directory"),
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
