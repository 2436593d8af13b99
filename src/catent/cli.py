"""Scenario configuration, orchestration, and machine-readable reporting.

Configs are JSON documents with a versioned schema (one ``kind`` per
scenario family).  Reports are versioned JSON with a stable field order:
``run_scenario`` returns each report as a dict with its keys in that order
and ``emit_report`` prints the dict as it is, so identical configs produce
byte-identical output.  The ``timing`` field records deterministic work
units (cone evaluations from a cold cache) rather than wall-clock time, for
the same reason.

A run is a check stage, every check that needs no cone evaluation, each
log rho certificate included, then a cone stage.  ``validate`` is the check
stage alone; an error report from the check stage carries 0 work units.  The
cone stage of ``hk``, ``hilb`` and ``enriques`` is one
``twists.model_verdict`` call.  The schema (``validate_config``) checks
shapes, caps and the keys of every object, a closed set per kind and level,
so a key that no run reads is a violation; every model, lattice, matrix,
word and deck value is checked once, by its engine type, in the check stage.
A lattice's ``symmetry_kind`` and ``euler_sign`` are the schema's: each may
only name the one convention, the symmetric Mukai pairing.

Subcommands: ``validate``, ``run`` (the JSON report), ``catalog``.  ``run``
and ``validate`` take their parameters from the config alone.
Exit codes: 0 success, 1 input error, 2 numeric error, 3 contract violation.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from collections.abc import Callable

from . import __version__
from .descent import CoverScenario, quotient_verdict
from .errors import EngineError, InputError, NumericError, int_problem, is_int, shown
from .graded import cone_evaluations
from .hilbert import hilbert_lift_verdict
from .lattice import BilinearLattice, SquareIntMatrix, char_poly
from .twists import (
    HKModel,
    _require_surface,
    clear_caches,
    default_action,
    ext_growth_uppers,
    model_verdict,
    spherical_twist_series,
    spherical_twist_uppers,
)
from .words import Verdict, certify_log_rho, induced_matrix

SCHEMA_VERSION = 1
REPORT_VERSION = 2
MAX_RANK = 30
MAX_M = 64

_EXIT_CODES = {
    "InputError": 1,
    "NumericError": 2,
    "ContractError": 3,
    "CollapseError": 3,
}


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def _check_int(out, data, key, path, lo, hi):
    if key not in data:
        out.append(f"{path}{key}: required field is missing")
        return None
    if problem := int_problem(data[key], lo, hi):
        out.append(f"{path}{key}: {problem}")
        return None
    return data[key]


def _check_rows(out, value, path):
    """A copy of the matrix ``value`` for the echo, a list of at most MAX_RANK
    row lists; its entries and shape are the matrix type's to check."""
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in value):
        out.append(f"{path}: must be a list of rows")
        return None
    if len(value) > MAX_RANK:
        out.append(f"{path}: rank {len(value)} exceeds the desk-scale cap {MAX_RANK}")
        return None
    return [list(row) for row in value]


# The keys of every config object; any other key is a violation.
_MODEL_KEYS = ("n", "q", "d_table", "m_max")
_KIND_KEYS = {  # besides schema_version and kind
    "hk": _MODEL_KEYS,
    "hilb": ("points", "base"),
    "enriques": ("cover", "lattice", "deck", "word"),
    "lattice_word": ("lattice", "word"),
    "surface_twist": ("q", "d_table", "m_max", "k", "l"),
}
_GENERATOR_KEYS = {  # besides kind
    "shift": (),
    "ptwist": (),
    "tensor": ("matrix",),
    "spherical": ("class",),
    "explicit": ("matrix",),
}
_GENERATOR_KINDS = tuple(_GENERATOR_KEYS)


def _closed(out, data, path, known):
    """One violation for each key of the object ``data`` not in ``known``."""
    out.extend(f"{path}{key if isinstance(key, str) else shown(key)}: unknown field"
               for key in data if key not in known)


def _nested(out, data, key, known, problem):
    """The object at ``key`` with its keys checked, or None and ``problem``."""
    value = data.get(key)
    if not isinstance(value, dict):
        out.append(f"{key}: {problem}")
        return None
    _closed(out, value, f"{key}.", known)
    return value


def _validate_rr(out, data, path):
    """Shared fields of model-driven kinds: n, q or d_table, m_max."""
    norm = {"n": _check_int(out, data, "n", path, 1, 8)}
    q, table = data.get("q"), data.get("d_table")  # null is absent, as in HKModel
    m_max = _check_int(out, data, "m_max", path, 3, MAX_M)
    if (q is None) == (table is None):
        out.append(f"{path}q: supply exactly one of q or d_table")
    elif table is None:
        norm["q"] = q
    elif not isinstance(table, (list, tuple)):
        out.append(f"{path}d_table: must be a list of integers")
    else:
        norm["d_table"] = list(table)
    norm["m_max"] = m_max
    return norm


def _validate_model(out, data, key, what):
    """The model object ``base`` of hilb or ``cover`` of enriques."""
    model = _nested(out, data, key, _MODEL_KEYS,
                    f"required object with the {what} model fields")
    return None if model is None else _validate_rr(out, model, f"{key}.")


def _validate_lattice(out, data):
    lattice = _nested(out, data, "lattice", ("gram", "symmetry_kind", "euler_sign"),
                      "must be an object with a gram matrix")
    if lattice is None:
        return None
    kind, sign = lattice.get("symmetry_kind", "symmetric"), lattice.get("euler_sign", -1)
    if not (isinstance(kind, str) and kind == "symmetric"):
        out.append(f"lattice.symmetry_kind: must be 'symmetric', got {shown(kind)}")
    if not (is_int(sign) and sign == -1):
        out.append(f"lattice.euler_sign: must be -1, got {shown(sign)}")
    return {"gram": _check_rows(out, lattice.get("gram"), "lattice.gram")}


def _validate_word(out, data, path):
    if not isinstance(data, list):
        out.append(f"{path}: must be a list of generator objects")
        return None
    norm = []
    for i, gen in enumerate(data):
        gpath = f"{path}[{i}]"
        if not isinstance(gen, dict) or gen.get("kind") not in _GENERATOR_KINDS:
            out.append(f"{gpath}.kind: must be one of {_GENERATOR_KINDS}")
            return None
        kind = gen["kind"]
        _closed(out, gen, f"{gpath}.", ("kind",) + _GENERATOR_KEYS[kind])
        g = {"kind": kind}
        if kind in ("tensor", "explicit"):
            g["matrix"] = _check_rows(out, gen.get("matrix"), f"{gpath}.matrix")
            if g["matrix"] is None:
                return None
        elif kind == "spherical":
            cls = gen.get("class")
            if not isinstance(cls, (list, tuple)):
                out.append(f"{gpath}.class: must be a list of integers")
                return None
            g["class"] = list(cls)
        norm.append(g)
    return norm


def validate_config(data) -> tuple[dict | None, list[str]]:
    """Normalize a raw config; returns (normalized, violations).

    The schema checks shapes, required fields and its desk-scale caps, and
    collects the violations of every field.  Each object of a config is a
    closed set of keys: any key that no run reads is a violation,
    ``<path>.<key>: unknown field``.  The values of a model, a
    lattice, a matrix, a word or a deck are checked once, by the engine type
    that holds them, in the run's check stage.
    """
    out: list[str] = []
    if not isinstance(data, dict):
        return None, ["config: must be a JSON object"]
    version = data.get("schema_version", SCHEMA_VERSION)
    if not is_int(version) or version != SCHEMA_VERSION:
        out.append(f"schema_version: engine supports version {SCHEMA_VERSION}, "
                   f"got {shown(version)}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _RUNNERS:
        out.append(f"kind: must be one of {tuple(_RUNNERS)}, got {shown(kind)}")
        return None, out
    _closed(out, data, "", ("schema_version", "kind") + _KIND_KEYS[kind])

    norm: dict = {"schema_version": SCHEMA_VERSION, "kind": kind}

    if kind == "hk":
        norm.update(_validate_rr(out, data, ""))
    elif kind == "surface_twist":
        k = _check_int(out, data, "k", "", 1, 20)
        l = _check_int(out, data, "l", "", 1, 20)
        sub = _validate_rr(out, {**data, "n": 1}, "")  # a surface: n is 1
        sub.pop("n")
        norm.update(sub)
        norm["k"], norm["l"] = k, l
        if norm.get("m_max") is not None and norm["m_max"] > 12:
            out.append("m_max: must be <= 12 for surface iteration, "
                       f"got {norm['m_max']}")
    elif kind == "hilb":
        norm["points"] = _check_int(out, data, "points", "", 1, 8)
        norm["base"] = _validate_model(out, data, "base", "surface")
    elif kind == "enriques":
        norm["cover"] = _validate_model(out, data, "cover", "cover")
        norm["lattice"] = _validate_lattice(out, data)
        deck = _nested(out, data, "deck", ("matrix", "order"),
                       "required object with matrix and order")
        if deck is not None:
            norm["deck"] = {
                "matrix": _check_rows(out, deck.get("matrix"), "deck.matrix"),
                "order": _check_int(out, deck, "order", "deck.", 1, 64),
            }
        norm["word"] = _validate_word(out, data.get("word"), "word")
    elif kind == "lattice_word":
        norm["lattice"] = _validate_lattice(out, data)
        norm["word"] = _validate_word(out, data.get("word"), "word")

    return (None, out) if out else (norm, [])


class ScenarioConfig(dict):
    """A validated, normalized config: the dict ``validate_config`` returns."""

    @property
    def kind(self) -> str:  # read by the benchmark's warm-up
        return self["kind"]


def _finite_float(literal: str) -> float:
    """NaN, Infinity and a float literal past the float range are not JSON
    numbers, and no report could echo them."""
    if not math.isfinite(value := float(literal)):
        raise ValueError(f"numbers must be finite, got {literal}")
    return value


def _read_config(source):
    """The raw config in a dict, a path object or existing path, or inline JSON."""
    if isinstance(source, dict):
        return source
    if isinstance(source, os.PathLike) or (
            isinstance(source, str) and os.path.exists(source)):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise InputError(f"cannot read config {source}: {reason}") from exc
    elif isinstance(source, str):
        text = source
    else:
        raise InputError(f"cannot load config from {shown(source)}")
    try:
        return json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except json.JSONDecodeError as exc:
        head = text.lstrip()[:1]
        if source is text and head and head not in "{[":
            # neither an existing path nor a JSON object or list
            raise InputError(
                f"cannot read config {source}: No such file or directory") from exc
        raise InputError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past the digit limit, a number that is not
        # finite, or nesting too deep
        raise InputError(f"config parse error: {exc}") from exc


def load_config(source) -> ScenarioConfig:
    """Load a config from a dict, a file path, or inline JSON, and check it
    against the schema.  A value that only an engine type checks, such as an
    odd q or an asymmetric gram, passes here and fails the check stage."""
    norm, violations = validate_config(_read_config(source))
    if violations:
        raise InputError(
            "config validation failed:\n" + "\n".join(f"  - {v}" for v in violations)
        )
    return ScenarioConfig(norm)


# ---------------------------------------------------------------------------
# Builtin presets
# ---------------------------------------------------------------------------

_ENRIQUES_TENSOR = [[1, 0, 0, 0], [-1, 1, 0, 0], [1, -2, 1, 0], [0, 0, 0, 1]]

_PRESETS = {
    "k3-q10": {
        "schema_version": 1,
        "kind": "hk",
        "n": 1,
        "q": 10,
        "m_max": 10,
    },
    "k3n-hilb": {
        "schema_version": 1,
        "kind": "hilb",
        "points": 3,
        "base": {"n": 1, "q": 10, "m_max": 10},
    },
    "hk-2n": {
        "schema_version": 1,
        "kind": "hk",
        "n": 2,
        "q": 2,
        "m_max": 8,
    },
    "enriques-over-hk": {
        "schema_version": 1,
        "kind": "enriques",
        "cover": {"n": 2, "q": 2, "m_max": 8},
        "lattice": {
            "gram": [
                [0, 0, -1, 0],
                [0, 2, 0, 0],
                [-1, 0, 0, 0],
                [0, 0, 0, -2],
            ],
        },
        "deck": {
            "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
            "order": 2,
        },
        "word": [
            {"kind": "ptwist"},
            {"kind": "tensor", "matrix": _ENRIQUES_TENSOR},
        ],
    },
}

_PRESET_NOTES = {
    "k3-q10": "degree-10 polarized K3 model (twist-and-tensor word, d_1 = 7)",
    "k3n-hilb": "3-point Hilbert scheme lift of the k3-q10 gap",
    "hk-2n": "four-dimensional hyperkaehler-type model with form value 2",
    "enriques-over-hk": "cyclic quotient of the hk-2n cover with invariant polarization",
}


def list_builtin_models() -> dict[str, dict]:
    """Named preset configs; each validates under the current schema."""
    return copy.deepcopy(_PRESETS)


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


def _model_from(params: dict) -> HKModel:
    # surface_twist configs carry no n: their model is a surface
    return HKModel(params.get("n", 1), params.get("q"), params.get("d_table"))


def _check_printable(uppers, power: int = 1) -> None:
    """Raise ``NumericError`` once a series upper total to the ``power`` has
    more digits than the interpreter's int-to-str limit.  Every report int is
    at most the largest (lowers are at most uppers, d_1 at most the m = 1
    upper), so the largest decides whether the report can be printed."""
    # Python 3.10 before 3.10.7 has no limit and no getter.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bound = 10**limit if limit else None
    for hi in uppers:  # consumed in any case: the totals read every d_i
        if bound is not None and hi**power >= bound:
            raise NumericError(
                f"report cannot be printed: a result int has more than {limit} digits"
            )


def _checked_model(params: dict, points: int | None = None) -> HKModel:
    """The model of ``params``, after the check that its series can be
    printed: to the power ``points`` for a ``hilb`` base, which must also be
    a surface."""
    model = _model_from(params)
    if points is not None:
        _require_surface(model, "the Hilbert-scheme lift")
    _check_printable(ext_growth_uppers(model, params["m_max"]), points or 1)
    return model


# Each runner is the check stage of its kind: it makes every check that needs
# no cone evaluation, the log rho certificate included, and returns the cone
# stage, which gives the ``Verdict``.


def _run_hk(cfg: ScenarioConfig) -> Callable[[], Verdict]:
    model = _checked_model(cfg)
    log_rho = certify_log_rho(char_poly(default_action(model)))
    return lambda: model_verdict(model, cfg["m_max"], log_rho,
                                 {"d1": model.dim(1), "n": model.n})


def _run_hilb(cfg: ScenarioConfig) -> Callable[[], Verdict]:
    params, points = cfg["base"], cfg["points"]
    model = _checked_model(params, points)
    log_rho = certify_log_rho(char_poly(default_action(model)))
    return lambda: hilbert_lift_verdict(
        points, model_verdict(model, params["m_max"], log_rho))


def _word_action(cfg: ScenarioConfig) -> SquareIntMatrix:
    """The action of the config's word on its lattice, after the lattice
    checks of every generator."""
    return induced_matrix(BilinearLattice(cfg["lattice"]["gram"]), cfg["word"])


def _run_enriques(cfg: ScenarioConfig) -> Callable[[], Verdict]:
    params, deck = cfg["cover"], cfg["deck"]
    model = _checked_model(params)
    sc = CoverScenario(SquareIntMatrix(deck["matrix"]), deck["order"],
                       _word_action(cfg))
    log_rho, details = quotient_verdict(sc)
    return lambda: model_verdict(
        model, params["m_max"], log_rho,
        {**details, "deck_order": sc.order, "cover_d1": model.dim(1)})


def _run_lattice_word(cfg: ScenarioConfig) -> Callable[[], Verdict]:
    action = _word_action(cfg)
    log_rho = certify_log_rho(char_poly(action))
    return lambda: Verdict.of(None, log_rho, details={
        "rank": action.n, "spectral_radius": math.exp(log_rho.value),
    })


def _run_surface_twist(cfg: ScenarioConfig) -> Callable[[], Verdict]:
    surface, k, l, m_max = _model_from(cfg), cfg["k"], cfg["l"], cfg["m_max"]
    _check_printable(spherical_twist_uppers(surface, k, l, m_max))
    return lambda: Verdict.of(None, None, series=spherical_twist_series(
        surface, k, l, m_max), details={"k": k, "l": l})


_RUNNERS = {
    "hk": _run_hk,
    "hilb": _run_hilb,
    "enriques": _run_enriques,
    "lattice_word": _run_lattice_word,
    "surface_twist": _run_surface_twist,
}


def _echo(value):
    """A copy of the config for its report.  A value that JSON cannot hold,
    such as a NaN, a set or a dict with a key that is not a str, is shown by
    its repr: only a config that an engine type rejects holds one."""
    if value is None or isinstance(value, (int, str)):  # bool is an int
        return value
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        return {key: _echo(child) for key, child in value.items()}
    if isinstance(value, (list, tuple)):
        return [_echo(child) for child in value]
    return value if isinstance(value, float) and math.isfinite(value) else shown(value)


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Execute one scenario and return its report as a dict in JSON field
    order.  An engine error, or a result too large to print, gives a report
    that carries only the scenario, the error and the work done before it,
    every result field at its default."""
    clear_caches()
    start_work = cone_evaluations()
    error = None
    try:
        if cfg["kind"] not in _RUNNERS:
            raise InputError(f"unknown scenario kind {cfg['kind']!r}")
        v = _RUNNERS[cfg["kind"]](cfg)()
    except EngineError as exc:
        v = Verdict(base=None, entropy_lower=None, empirical_slope=None,
                    log_rho=None, gap=None, verdict="error", series=None, details={})
        error = {"type": type(exc).__name__, "message": str(exc)}
    return {
        "report_version": REPORT_VERSION,
        "engine_version": __version__,
        "scenario": _echo(cfg),
        "verdict": v.verdict,
        "entropy_lower_certified": v.entropy_lower,
        "empirical_slope": v.empirical_slope,
        "log_rho": None if v.log_rho is None else v.log_rho.value,
        "log_rho_exact_zero": v.log_rho is not None and v.log_rho.exact_zero,
        "gap": v.gap,
        "series": [] if v.series is None else [
            {"m": m, "lower": lo, "upper": hi} for m, lo, hi in v.series.rows()
        ],
        "details": v.details,
        "timing": {"work_units": cone_evaluations() - start_work},
        "error": error,
    }


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def emit_report(report: dict) -> str:
    """Render a report as JSON, byte-stable and parsing back to ``report``.
    An int past the interpreter's digit limit for str() cannot be printed and
    raises ``NumericError``."""
    try:
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"report cannot be printed: {exc}") from exc


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _load_from_args(args) -> ScenarioConfig:
    """The --config or --preset config, validated."""
    if args.preset and args.config:
        raise InputError("give either --config or --preset, not both")
    if args.preset:
        presets = list_builtin_models()
        if args.preset not in presets:
            raise InputError(
                f"unknown preset {args.preset!r}; available: {sorted(presets)}"
            )
        return load_config(presets[args.preset])
    if args.config:
        return load_config(args.config)
    raise InputError("one of --config or --preset is required")


def _write_out(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _add_common(parser):
    parser.add_argument("--config", help="path to a JSON config, or inline JSON")
    parser.add_argument("--preset", help="name of a builtin preset")
    parser.add_argument("--out", help="output path (default: stdout)")


class _Parser(argparse.ArgumentParser):
    """A malformed command line is an ``InputError``, as a malformed config is."""

    def error(self, message):
        raise InputError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="catent",
        description="Exact certificates for categorical-entropy vs. "
        "spectral-radius gaps on lattice models.",
    )
    sub = parser.add_subparsers(dest="command")

    _add_common(sub.add_parser("run", help="run a scenario and emit its JSON report"))
    _add_common(sub.add_parser("validate", help="validate a config"))
    sub.add_parser("catalog", help="list builtin presets")

    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 0
        if args.command == "catalog":
            presets = list_builtin_models()
            for name in sorted(presets):
                kind = presets[name]["kind"]
                print(f"{name:18} [{kind}] {_PRESET_NOTES.get(name, '')}")
            return 0

        cfg = _load_from_args(args)
        if args.command == "validate":
            _RUNNERS[cfg["kind"]](cfg)  # the run's check stage, without cone work
            _write_out(f"config OK: kind={cfg['kind']}\n", args.out)
            return 0
        if args.out:  # an unusable path fails before any cone work
            _write_out("", args.out)
        report = run_scenario(cfg)
        _write_out(emit_report(report), args.out)
        error = report["error"]
        if error is not None:
            sys.stderr.write(f"error [{error['type']}]: {error['message']}\n")
            return _EXIT_CODES.get(error["type"], 1)
        return 0
    except EngineError as exc:
        sys.stderr.write(f"error [{type(exc).__name__}]: {exc}\n")
        return _EXIT_CODES.get(type(exc).__name__, 1)


if __name__ == "__main__":
    sys.exit(main())
