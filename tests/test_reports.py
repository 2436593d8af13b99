"""Whole-report properties: pinned preset reports, error reports that carry
no partial results, and how often each scenario kind certifies a word."""

import json
import sys
from pathlib import Path

import pytest

from catent import words
from catent.cli import (ScenarioConfig, emit_report, list_builtin_models, load_config,
                        run_scenario, validate_config)

GOLDEN = Path(__file__).with_name("golden")
PRESETS = ("k3-q10", "k3n-hilb", "hk-2n", "enriques-over-hk")


@pytest.mark.parametrize("name", PRESETS)
def test_preset_report_matches_golden_bytes(name):
    cfg = load_config(list_builtin_models()[name])
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert emit_report(run_scenario(cfg)) == expected


#: One config of each kind that no preset has.
OTHER_KINDS = {
    "lattice_word": {"kind": "lattice_word", "lattice": {"gram": [[1, 0], [0, 1]]},
                     "word": [{"kind": "explicit", "matrix": [[2, 1], [1, 1]]}]},
    "surface_twist": {"kind": "surface_twist", "q": 10, "k": 1, "l": 2, "m_max": 4},
}


@pytest.mark.parametrize("name", PRESETS + tuple(OTHER_KINDS))
def test_loaded_config_is_the_normalized_dict(name):
    raw = OTHER_KINDS.get(name) or list_builtin_models()[name]
    cfg = load_config(raw)
    assert isinstance(cfg, dict) and isinstance(cfg, ScenarioConfig)
    assert cfg == validate_config(raw)[0]
    assert cfg.kind == cfg["kind"] == raw["kind"]  # the benchmark's warm-up reads .kind
    report = run_scenario(cfg)
    assert report["error"] is None and report["scenario"] == cfg
    if name in PRESETS:
        assert emit_report(report) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_enriques_error_report_keeps_no_partial_results():
    # The tensor factor mixes the deck's -1 eigenvector with a fixed one, so
    # the word does not commute with the deck and descent must refuse.
    config = list_builtin_models()["enriques-over-hk"]
    tensor = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    config["word"] = [{"kind": "ptwist"}, {"kind": "tensor", "matrix": tensor}]
    report = json.loads(emit_report(run_scenario(load_config(config))))
    assert report["verdict"] == "error"
    assert report["error"]["type"] == "ContractError"
    assert report["timing"]["work_units"] == 0  # found before the cover bound
    defaults = {"entropy_lower_certified": None, "empirical_slope": None,
                "log_rho": None, "log_rho_exact_zero": False, "gap": None,
                "series": [], "details": {}}
    for key, default in defaults.items():
        assert report[key] == default, key


def _count_calls(monkeypatch, names):
    """Wrap each named ``words`` function at every catent module global that
    resolves to it, and return the live call counter."""
    counts = dict.fromkeys(names, 0)
    modules = [module for key, module in sys.modules.items()
               if key == "catent" or key.startswith("catent.")]
    for name in names:
        original = getattr(words, name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    return counts


@pytest.mark.parametrize(
    "name, expected",
    [
        ("k3-q10", (1, 1, 1)),
        ("k3n-hilb", (1, 2, 1)),
        ("hk-2n", (1, 1, 1)),
        ("enriques-over-hk", (2, 1, 1)),
    ],
)
def test_each_preset_certifies_each_word_once(monkeypatch, name, expected):
    names = ("certify_log_rho", "derive_verdict", "induced_matrix")
    cfg = load_config(list_builtin_models()[name])
    counts = _count_calls(monkeypatch, names)
    run_scenario(cfg)
    assert tuple(counts[n] for n in names) == expected
