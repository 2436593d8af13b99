"""Scenario configuration, orchestration, and machine-readable reporting.

Configs are JSON documents with a versioned schema (one ``kind`` per
scenario family).  Reports are versioned JSON with a stable field order:
``run_scenario`` returns each report as a dict with its keys in that order
and ``emit_report`` prints the dict as it is, so identical configs produce
byte-identical output.  The ``timing`` field records deterministic work
units (cone evaluations from a cold cache) rather than wall-clock time, for
the same reason.

A run is a check stage, every check that needs no cone evaluation, then a
cone stage.  ``validate`` is the check stage alone; an error report from the
check stage carries 0 work units.  The schema (``validate_config``) checks
shapes and caps only: every model, lattice, matrix, word and deck value is
checked once, by its engine type, in the check stage.

Subcommands: ``validate``, ``run``, ``catalog``, ``series`` (CSV dump).
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
from dataclasses import dataclass, replace

from . import __version__
from .descent import CoverScenario, quotient_verdict
from .errors import EngineError, InputError, NumericError, is_int, shown
from .graded import cone_evaluations, delta_value_interval
from .hilbert import hilbert_lift_verdict
from .lattice import DEFAULT_TOL, BilinearLattice, SquareIntMatrix
from .twists import (
    HKModel,
    clear_caches,
    entropy_lower_bound,
    ext_growth_uppers,
    gy_verdict,
    spherical_twist_series,
    spherical_twist_uppers,
)
from .words import Verdict, certify_log_rho, induced_matrix

SCHEMA_VERSION = 1
REPORT_VERSION = 1
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
    v = data[key]
    if not is_int(v):
        out.append(f"{path}{key}: must be an integer, got {shown(v)}")
        return None
    if v < lo:
        out.append(f"{path}{key}: must be >= {lo}, got {shown(v)}")
        return None
    if v > hi:
        out.append(f"{path}{key}: must be <= {hi}, got {shown(v)}")
        return None
    return v


def _check_number(out, data, key, default, lo=None):
    v = data.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        out.append(f"{key}: must be a number, got {shown(v)}")
        return None
    try:
        f = float(v)
    except OverflowError:  # an integer beyond the float range
        f = math.inf
    if not math.isfinite(f):
        out.append(f"{key}: must be finite, got {f}")
        return None
    if lo is not None and not f > lo:
        out.append(f"{key}: must be > {lo}, got {shown(v)}")
        return None
    return f


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
    if "t" in data:
        out.append(f"{path}t: only surface_twist reads t")
    return norm


def _validate_lattice(out, data, path):
    if not isinstance(data, dict):
        out.append(f"{path}: must be an object with a gram matrix")
        return None
    return {
        "gram": _check_rows(out, data.get("gram"), f"{path}.gram"),
        "symmetry_kind": data.get("symmetry_kind", "euler_general"),
        "euler_sign": data.get("euler_sign", -1),
    }


_GENERATOR_KINDS = ("shift", "ptwist", "tensor", "spherical", "explicit")


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
        g = {"kind": gen["kind"]}
        if gen["kind"] in ("tensor", "explicit"):
            key = "nilpotent" if (gen["kind"] == "tensor" and "nilpotent" in gen) else "matrix"
            g[key] = _check_rows(out, gen.get(key), f"{gpath}.{key}")
            if g[key] is None:
                return None
        elif gen["kind"] == "spherical":
            cls = gen.get("class")
            if not isinstance(cls, (list, tuple)):
                out.append(f"{gpath}.class: must be a list of integers")
                return None
            g["class"] = list(cls)
            whitelisted = gen.get("whitelisted", False)
            if not isinstance(whitelisted, bool):
                out.append(f"{gpath}.whitelisted: must be true or false")
                return None
            if whitelisted:
                g["whitelisted"] = True
        norm.append(g)
    return norm


def validate_config(data) -> tuple[dict | None, list[str]]:
    """Normalize a raw config; returns (normalized, violations).

    The schema checks shapes, required fields, its desk-scale caps and the
    numbers ``t`` and ``tol``, and collects the violations of every field.
    The values of a model, a lattice, a matrix, a word or a deck are checked
    once, by the engine type that holds them, in the run's check stage.
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

    norm: dict = {"schema_version": SCHEMA_VERSION, "kind": kind}

    if kind == "hk":
        norm.update(_validate_rr(out, data, ""))
    elif kind == "surface_twist":
        k = _check_int(out, data, "k", "", 1, 20)
        l = _check_int(out, data, "l", "", 1, 20)
        rr = {key: value for key, value in data.items() if key != "t"}
        sub = _validate_rr(out, {**rr, "n": 1}, "")
        sub.pop("n")
        norm.update(sub)
        norm["t"] = _check_number(out, data, "t", 0.0)
        if norm["t"] is not None and norm["t"] < 0:
            out.append(f"t: must be >= 0, got {norm['t']}")
        norm["k"], norm["l"] = k, l
        if norm.get("m_max") is not None and norm["m_max"] > 12:
            out.append("m_max: must be <= 12 for surface iteration, "
                       f"got {norm['m_max']}")
    elif kind == "hilb":
        norm["points"] = _check_int(out, data, "points", "", 1, 8)
        base = data.get("base")
        if not isinstance(base, dict):
            out.append("base: required object with the surface model fields")
        else:
            norm["base"] = _validate_rr(out, base, "base.")
    elif kind == "enriques":
        cover = data.get("cover")
        if not isinstance(cover, dict):
            out.append("cover: required object with the cover model fields")
        else:
            norm["cover"] = _validate_rr(out, cover, "cover.")
        norm["lattice"] = _validate_lattice(out, data.get("lattice"), "lattice")
        deck = data.get("deck")
        if not isinstance(deck, dict):
            out.append("deck: required object with matrix and order")
        else:
            norm["deck"] = {
                "matrix": _check_rows(out, deck.get("matrix"), "deck.matrix"),
                "order": _check_int(out, deck, "order", "deck.", 1, 64),
            }
        norm["word"] = _validate_word(out, data.get("word"), "word")
    elif kind == "lattice_word":
        norm["lattice"] = _validate_lattice(out, data.get("lattice"), "lattice")
        norm["word"] = _validate_word(out, data.get("word"), "word")

    norm["tol"] = _check_number(out, data, "tol", DEFAULT_TOL, lo=0.0)

    if out:
        return None, out
    return norm, []


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated, normalized scenario configuration."""

    kind: str
    data: dict

    @property
    def tol(self) -> float:
        return self.data["tol"]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)


def _finite_float(literal: str) -> float:
    """NaN, Infinity and a float literal past the float range are not JSON
    numbers, and no report could echo them."""
    if not math.isfinite(value := float(literal)):
        raise ValueError(f"numbers must be finite, got {literal}")
    return value


def _read_config(source):
    """The raw config in a dict, a file path, or inline JSON."""
    if isinstance(source, dict):
        return source
    if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
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
    return ScenarioConfig(norm["kind"], norm)


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
            "symmetry_kind": "symmetric",
            "euler_sign": -1,
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
    upper), so no format could print the report."""
    # Python 3.10 before 3.10.7 has no limit and no getter.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for hi in uppers:  # consumed in any case: the totals read every d_i
        if limit and hi**power >= 10**limit:
            raise NumericError(
                f"report cannot be printed: a result int has more than {limit} digits"
            )


# Each runner is the check stage of its kind: it makes every check that needs
# no cone evaluation and returns the cone stage, which gives the ``Verdict``.


def _run_hk(cfg: ScenarioConfig) -> Callable[[], Verdict]:
    model, m_max = _model_from(cfg.data), cfg.data["m_max"]
    _check_printable(ext_growth_uppers(model, m_max))
    return lambda: replace(gy_verdict(model, m_max, tol=cfg.tol),
                           details={"d1": model.dim(1), "n": model.n})


def _run_hilb(cfg: ScenarioConfig) -> Callable[[], Verdict]:
    params, points = cfg.data["base"], cfg.data["points"]
    model = _model_from(params)
    _check_printable(ext_growth_uppers(model, params["m_max"]), points)

    def cone_stage() -> Verdict:
        base = gy_verdict(model, params["m_max"], tol=cfg.tol)
        lifted = hilbert_lift_verdict(points, base, tol=cfg.tol)
        return replace(lifted, details={"points": points, **lifted.details})

    return cone_stage


def _word_action(data: dict) -> SquareIntMatrix:
    """The action of the config's word on its lattice, after the lattice
    checks of every generator."""
    return induced_matrix(BilinearLattice(**data["lattice"]), data["word"])


def _run_enriques(cfg: ScenarioConfig) -> Callable[[], Verdict]:
    params, deck = cfg.data["cover"], cfg.data["deck"]
    cover_model = _model_from(params)
    _check_printable(ext_growth_uppers(cover_model, params["m_max"]))
    sc = CoverScenario(SquareIntMatrix(deck["matrix"]), deck["order"],
                       _word_action(cfg.data))
    log_rho, exact_zero, details = quotient_verdict(sc, tol=cfg.tol)

    def cone_stage() -> Verdict:
        cover = entropy_lower_bound(cover_model, params["m_max"])
        return Verdict.of(
            cover.certified, log_rho, exact_zero, cfg.tol,
            slope=cover.empirical_slope, series=cover.series,
            details={**details, "deck_order": sc.order,
                     "cover_d1": cover_model.dim(1)})

    return cone_stage


def _run_lattice_word(cfg: ScenarioConfig) -> Callable[[], Verdict]:
    action = _word_action(cfg.data)
    log_rho, exact_zero = certify_log_rho(action, cfg.tol)
    return lambda: Verdict.of(None, log_rho, exact_zero, cfg.tol, details={
        "rank": action.n, "spectral_radius": math.exp(log_rho),
    })


def _run_surface_twist(cfg: ScenarioConfig) -> Callable[[], Verdict]:
    data = cfg.data
    surface, k, l, m_max = _model_from(data), data["k"], data["l"], data["m_max"]
    uppers = list(spherical_twist_uppers(surface, k, l, m_max))
    _check_printable(sum(upper.highs) for upper in uppers)
    for upper in uppers:  # a weighted cell past the float range fails here too
        delta_value_interval(upper, data["t"])
    return lambda: Verdict.of(
        None, None, False, cfg.tol,
        series=spherical_twist_series(surface, k, l, m_max, data["t"]),
        details={"k": k, "l": l})


_RUNNERS = {
    "hk": _run_hk,
    "hilb": _run_hilb,
    "enriques": _run_enriques,
    "lattice_word": _run_lattice_word,
    "surface_twist": _run_surface_twist,
}


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Execute one scenario and return its report as a dict in JSON field
    order.  An engine error, or a result too large to print, gives a report
    that carries only the scenario, the error and the work done before it,
    every result field at its default."""
    clear_caches()
    start_work = cone_evaluations()
    error = None
    try:
        if cfg.kind not in _RUNNERS:
            raise InputError(f"unknown scenario kind {cfg.kind!r}")
        v = _RUNNERS[cfg.kind](cfg)()
    except EngineError as exc:
        v = Verdict(entropy_lower=None, empirical_slope=None, log_rho=None,
                    log_rho_exact_zero=False, gap=None, verdict="error",
                    series=None, details={})
        error = {"type": type(exc).__name__, "message": str(exc)}
    return {
        "report_version": REPORT_VERSION,
        "engine_version": __version__,
        "scenario": cfg.to_dict(),
        "verdict": v.verdict,
        "entropy_lower_certified": v.entropy_lower,
        "empirical_slope": v.empirical_slope,
        "log_rho": v.log_rho,
        "log_rho_exact_zero": v.log_rho_exact_zero,
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


def emit_report(report: dict, fmt: str = "json") -> str:
    """Render a report; JSON output is byte-stable and parses back to
    ``report``.  An int past the interpreter's digit limit for str() cannot
    be printed and raises ``NumericError``."""
    if fmt not in ("json", "table"):
        raise InputError(f"unknown report format {fmt!r}")
    try:
        if fmt == "json":
            return json.dumps(report, indent=2, allow_nan=False) + "\n"
        return _table(report)
    except ValueError as exc:
        raise NumericError(f"report cannot be printed: {exc}") from exc


def _table(report: dict) -> str:
    lines = [
        f"catent report v{REPORT_VERSION} (engine {__version__})",
        f"scenario kind: {report['scenario'].get('kind')}",
        f"verdict: {report['verdict']}",
    ]
    error = report["error"]
    if error:
        lines.append(f"error [{error['type']}]: {error['message']}")
    if report["entropy_lower_certified"] is not None:
        lines.append(
            f"certified entropy lower bound: {report['entropy_lower_certified']:.12g}"
        )
    if report["empirical_slope"] is not None:
        lines.append(f"empirical log-slope: {report['empirical_slope']:.12g}")
    if report["log_rho"] is not None:
        rho_text = (
            "0 (exact, unipotent up to sign)"
            if report["log_rho_exact_zero"]
            else f"{report['log_rho']:.12g}"
        )
        lines.append(f"log spectral radius: {rho_text}")
    if report["gap"] is not None:
        lines.append(f"gap: {report['gap']:.12g}")
    for key, val in report["details"].items():
        lines.append(f"{key}: {val}")
    if report["series"]:
        lines.append("")
        lines.append(f"{'m':>4}  {'lower':>24}  {'upper':>24}")
        for row in report["series"]:
            lines.append(f"{row['m']:>4}  {row['lower']:>24}  {row['upper']:>24}")
    lines.append("")
    lines.append(f"work units: {report['timing']['work_units']}")
    return "\n".join(lines) + "\n"


def emit_series_csv(report: dict) -> str:
    lines = ["m,lower,upper"]
    try:
        for row in report["series"]:
            lines.append(f"{row['m']},{row['lower']},{row['upper']}")
    except ValueError as exc:  # an int past the digit limit of str()
        raise NumericError(f"series cannot be printed: {exc}") from exc
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _load_from_args(args) -> ScenarioConfig:
    """The raw --config or --preset, with --tol and --m-max set, validated once."""
    if args.preset and args.config:
        raise InputError("give either --config or --preset, not both")
    if args.preset:
        presets = list_builtin_models()
        if args.preset not in presets:
            raise InputError(
                f"unknown preset {args.preset!r}; available: {sorted(presets)}"
            )
        raw = presets[args.preset]
    elif args.config:
        raw = _read_config(args.config)
    else:
        raise InputError("one of --config or --preset is required")
    if isinstance(raw, dict):
        if args.tol is not None:
            raw["tol"] = args.tol
        if args.m_max is not None:
            for holder in (raw, raw.get("base"), raw.get("cover")):
                if isinstance(holder, dict) and "m_max" in holder:
                    holder["m_max"] = args.m_max
    return load_config(raw)


def _write_out(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _add_common(parser, with_format=True):
    parser.add_argument("--config", help="path to a JSON config, or inline JSON")
    parser.add_argument("--preset", help="name of a builtin preset")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--tol", type=float, help="override tolerance")
    parser.add_argument("--m-max", dest="m_max", type=int, help="override m_max")
    if with_format:
        parser.add_argument(
            "--format", choices=("json", "table"), default="json",
            help="report format (default json)",
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="catent",
        description="Exact certificates for categorical-entropy vs. "
        "spectral-radius gaps on lattice models.",
    )
    sub = parser.add_subparsers(dest="command")

    _add_common(sub.add_parser("run", help="run a scenario and emit a report"))
    _add_common(sub.add_parser("validate", help="validate a config"), with_format=False)
    _add_common(
        sub.add_parser("series", help="dump the per-step bound series as CSV"),
        with_format=False,
    )
    sub.add_parser("catalog", help="list builtin presets")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0

    try:
        if args.command == "catalog":
            presets = list_builtin_models()
            for name in sorted(presets):
                kind = presets[name]["kind"]
                print(f"{name:18} [{kind}] {_PRESET_NOTES.get(name, '')}")
            return 0

        cfg = _load_from_args(args)
        if args.command == "validate":
            _RUNNERS[cfg.kind](cfg)  # the run's check stage, without cone work
            _write_out(f"config OK: kind={cfg.kind}\n", args.out)
            return 0
        if args.out:  # an unusable path fails before any cone work
            _write_out("", args.out)
        report = run_scenario(cfg)
        if args.command == "series":
            _write_out(emit_series_csv(report), args.out)
        else:
            _write_out(emit_report(report, args.format), args.out)
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
