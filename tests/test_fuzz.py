"""Config-to-report fuzzing of ``catent run`` and ``catent validate``.

Draws valid and near-valid configs of every scenario kind, serializes them
(non-finite floats as ``NaN``/``Infinity``) and runs them through ``main``.
Every run must end in exit code 0 with a report, or in a typed engine error
with its documented exit code; any other exception fails the test with its
traceback.  A rerun must print the same bytes.  ``validate`` must reject
every valid config that the run rejects, with the same exit code and error
line.  On lattice and model fields of any JSON-like value, ``validate`` must
make an input error exactly when the owner of the field rejects it: the
engine type, or the schema for a lattice's symmetry_kind and euler_sign,
which may only name the one convention.  One key that no run reads, added
to any object of a valid config, is exactly one more schema violation, and
both commands exit 1 on it.  Through the Python API, a dict config, which
may hold an int too long for JSON to print or a NaN, must end in a report or
a typed engine error too, and a report that holds no such int must print and
parse back.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from catent.cli import (emit_report, list_builtin_models, load_config, main, run_scenario,
                        validate_config)
from catent.errors import InputError, NumericError, is_int
from catent.lattice import BilinearLattice
from catent.twists import HKModel
from lattice_powers import companion_matrix

ENRIQUES = list_builtin_models()["enriques-over-hk"]

# Values that break a field: non-finite and huge numbers, odd q, wrong types.
BAD_VALUES = st.sampled_from([
    math.nan, math.inf, -math.inf, 10**300, -(10**300), 0, -1, 3, 2.5, True,
    None, "2", [], {},
])

q_or_table = st.one_of(
    st.fixed_dictionaries({"q": st.sampled_from([2, 4, 10, 10**300])}),
    # hk at n = 3, m_max = 5 reads d_1 .. d_19
    st.fixed_dictionaries({"d_table": st.integers(1, 20).flatmap(
        lambda size: st.lists(st.integers(2, 60), min_size=size, max_size=size)
    ).map(sorted)}),
)


def rr_fields(n=st.integers(1, 3), m_max=st.integers(3, 5)):
    """Shared fields of the model-driven kinds."""
    return st.tuples(st.fixed_dictionaries({"n": n, "m_max": m_max}),
                     q_or_table).map(lambda p: {**p[0], **p[1]})


@st.composite
def matrices(draw, rank):
    """Square int matrices of one of several shapes: the nilpotent and zero
    ones have no log rho, and random ones with entries -2..2 are often
    singular."""
    shape = draw(st.sampled_from(["random", "unipotent", "nilpotent", "zero"]))
    entry = st.integers(-2, 2)
    rows = []
    for i in range(rank):
        if shape == "random":
            rows.append(draw(st.lists(entry, min_size=rank, max_size=rank)))
        elif shape == "zero":
            rows.append([0] * rank)
        else:
            upper = draw(st.lists(entry, min_size=rank - i - 1, max_size=rank - i - 1))
            rows.append([0] * i + [int(shape == "unipotent")] + upper)
    return rows


@st.composite
def generators(draw, rank):
    kind = draw(st.sampled_from(["shift", "ptwist", "tensor", "spherical", "explicit"]))
    if kind in ("tensor", "explicit"):
        return {"kind": kind, "matrix": draw(matrices(rank))}
    if kind == "spherical":
        vector = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
        return {"kind": kind, "class": vector}
    return {"kind": kind}


def symmetric(gram):
    """The symmetric gram that agrees with ``gram`` on and below the diagonal."""
    rank = len(gram)
    return [[gram[max(i, j)][min(i, j)] for j in range(rank)] for i in range(rank)]


@st.composite
def lattice_words(draw):
    rank = draw(st.one_of(st.integers(1, 6), st.sampled_from([12, 30])))
    # -I has spherical classes, such as (1, 1, 0, ...), and I has none
    gram = draw(st.one_of(
        st.sampled_from([1, -1]).map(
            lambda s: [[s * (i == j) for j in range(rank)] for i in range(rank)]),
        st.lists(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank),
                 min_size=rank, max_size=rank).map(symmetric),
    ))
    word = draw(st.lists(generators(rank), max_size=2 if rank > 6 else 3))
    return {"kind": "lattice_word", "lattice": {"gram": gram}, "word": word}


@st.composite
def enriques(draw):
    word = draw(st.lists(st.one_of(
        st.sampled_from(ENRIQUES["word"] + [{"kind": "shift"}]),
        generators(len(ENRIQUES["lattice"]["gram"])),
    ), max_size=3))
    cover = draw(rr_fields(n=st.integers(1, 2), m_max=st.integers(3, 4)))
    return {**ENRIQUES, "cover": cover, "word": word}


configs = st.one_of(
    rr_fields().map(lambda rr: {"kind": "hk", **rr}),
    st.builds(
        lambda rr, k, l: {"kind": "surface_twist", **rr, "k": k, "l": l},
        rr_fields(n=st.just(1), m_max=st.integers(3, 6)).map(
            lambda rr: {key: v for key, v in rr.items() if key != "n"}),
        st.integers(1, 4), st.integers(1, 4),
    ),
    st.builds(lambda points, base: {"kind": "hilb", "points": points, "base": base},
              st.integers(1, 3), rr_fields(n=st.just(1))),
    enriques(),
    lattice_words(),
)


def _paths(value, path=()):
    """Every key or index path into a config, the empty path excluded."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def near_valid(draw, config):
    """The config, or a copy with one field replaced, dropped or added."""
    action = draw(st.sampled_from(["keep", "replace", "drop", "add"]))
    config = json.loads(json.dumps(config))
    if action == "add":
        config[draw(st.sampled_from(["tolerance", "tol", "n", "q", "schema_version"]))] = draw(
            st.one_of(BAD_VALUES, st.floats(0.0, 2.0)))
        return config
    if action == "keep":
        return config
    *parent, key = draw(st.sampled_from(sorted(_paths(config), key=repr)))
    holder = config
    for step in parent:
        holder = holder[step]
    if action == "drop":
        del holder[key]
    else:
        holder[key] = draw(BAD_VALUES)
    return config


config_texts = configs.flatmap(near_valid).map(json.dumps)


def run(text, command="run"):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", text])
    return code, out.getvalue(), err.getvalue()


NILPOTENT = {"kind": "lattice_word", "lattice": {"gram": [[0, 1], [1, 0]]},
             "word": [{"kind": "explicit", "matrix": [[0, 1], [0, 0]]}]}
# -I fixes no vector, so there is no quotient lattice to descend to.
FIXED_FREE_DECK = {"kind": "enriques", "cover": {"n": 1, "q": 10, "m_max": 4},
                   "lattice": {"gram": [[1, 0], [0, 1]]},
                   "deck": {"matrix": [[-1, 0], [0, -1]], "order": 2},
                   "word": [{"kind": "ptwist"}]}
# x^30 - x - 1 at rank 30: log rho > 0, found by root refinement.
RANK_30 = {"kind": "lattice_word",
           "lattice": {"gram": [[int(i == j) for j in range(30)] for i in range(30)]},
           "word": [{"kind": "shift"}, {"kind": "explicit", "matrix": [
               list(row) for row in companion_matrix(
                   (-1, -1) + (0,) * 28 + (1,)).entries]}]}

# The swap has order 2, not a divisor of 3.
BAD_DECK_ORDER = {**FIXED_FREE_DECK, "deck": {"matrix": [[0, 1], [1, 0]], "order": 3}}
# Its series passes the 4,300-digit limit of int-to-str conversion.
LONG_INT = {"kind": "hk", "n": 3, "q": 10**300, "m_max": 5}
# A hilb base reads d_1 .. d_9 at n = 1, m_max = 3.
SHORT_BASE_TABLE = {"kind": "hilb", "points": 2,
                    "base": {"n": 1, "d_table": [7, 22, 47], "m_max": 3}}
# Every cell is an int past the float range, while the totals are far below
# the int digit limit, so the report prints.
BIG_SURFACE = {"kind": "surface_twist", "q": 10**300, "k": 1, "l": 1, "m_max": 3}
# tol is no config field: the gate compares rho with an int exactly.
WITH_TOL = {"kind": "hk", "n": 1, "q": 10, "m_max": 4, "tol": 1e-6}


@example(json.dumps(NILPOTENT))
@example(json.dumps(RANK_30))
@example(json.dumps({"kind": "hk", "n": 1, "q": 3, "m_max": 5}))
@example(json.dumps(BIG_SURFACE))
@example(json.dumps(LONG_INT))
@example("[" * 100_000 + "]" * 100_000)
@example(json.dumps({"kind": []}))
@example(json.dumps({"kind": {}}))
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(config_texts)
def test_run_ends_in_a_report_or_a_typed_error(text):
    code, out, err = run(text)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error [")
    if out:
        report = json.loads(out)
        assert (report["error"] is None) == (code == 0)
    else:
        assert code
    assert run(text) == (code, out, err)


@example(json.dumps(NILPOTENT))
@example(json.dumps(FIXED_FREE_DECK))
@example(json.dumps(BAD_DECK_ORDER))
@example(json.dumps(BIG_SURFACE))
@example(json.dumps(LONG_INT))
@example(json.dumps(SHORT_BASE_TABLE))
@example(json.dumps(WITH_TOL))
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs.map(json.dumps))
def test_validate_rejects_what_run_rejects(text):
    code, _, err = run(text)
    if code:
        assert run(text, "validate") == (code, "", err)


# Ints past the int-to-str digit limit, which only a dict config can hold:
# each is echoed by an error message.
HUGE_N = {"kind": "hk", "n": 10**5000, "q": 10, "m_max": 4}
HUGE_ODD_Q = {"kind": "hk", "n": 1, "q": 10**5000 + 1, "m_max": 4}
HUGE_EULER_SIGN = {"kind": "lattice_word",
                   "lattice": {"gram": [[1]], "euler_sign": 10**5000}, "word": []}


# Floats that JSON cannot hold, which only a dict config can hold: each is
# rejected by the engine type that owns its field, and its error report
# echoes it by its repr.
NAN_GRAM = {"kind": "lattice_word", "lattice": {"gram": [[math.nan]]}, "word": []}
INF_CLASS_ENTRY = {"kind": "lattice_word", "lattice": {"gram": [[1]]},
                   "word": [{"kind": "spherical", "class": [math.inf]}]}
INF_D_TABLE = {"kind": "hk", "n": 1, "d_table": [math.inf], "m_max": 3}


@example(HUGE_N)
@example(HUGE_ODD_Q)
@example(HUGE_EULER_SIGN)
@example(NAN_GRAM)
@example(INF_CLASS_ENTRY)
@example(INF_D_TABLE)
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs.flatmap(near_valid))
def test_python_api_ends_in_a_report_or_a_typed_error(config):
    try:
        report = run_scenario(load_config(config))
    except InputError:
        return
    assert (report["error"] is None) == (report["verdict"] != "error")
    try:
        json.dumps(config)  # passes a NaN, fails an int too long for str()
    except ValueError:
        with pytest.raises(NumericError):
            emit_report(report)
        return
    assert json.loads(emit_report(report)) == report


@pytest.mark.parametrize("config", [
    NAN_GRAM, INF_CLASS_ENTRY, INF_D_TABLE,
    {**INF_CLASS_ENTRY, "word": [{"kind": "spherical", "class": [{1}]}]},
    {**INF_CLASS_ENTRY, "word": [{"kind": "spherical", "class": [{(1,): 1}]}]},
    {"kind": "lattice_word", "lattice": {"gram": [[{(1,): 1}]]}, "word": []},
], ids=["nan-gram", "inf-class-entry", "inf-d-table", "set-class-entry",
        "tuple-keyed-class-entry", "tuple-keyed-gram-entry"])
def test_python_api_echoes_a_leaf_json_cannot_hold_by_its_repr(config):
    report = run_scenario(load_config(config))
    assert report["error"]["type"] == "InputError"
    assert json.loads(emit_report(report)) == report
    assert report["timing"]["work_units"] == 0


# The keys of each config object, as the README's config reference lists
# them: the top level by kind, the nested objects by name and each
# generator by its kind.
TOP_KEYS = ("schema_version", "kind")
MODEL_KEYS = ("n", "q", "d_table", "m_max")
KNOWN_KEYS = {
    "hk": TOP_KEYS + MODEL_KEYS,
    "surface_twist": TOP_KEYS + ("q", "d_table", "m_max", "k", "l"),
    "hilb": TOP_KEYS + ("points", "base"),
    "enriques": TOP_KEYS + ("cover", "lattice", "deck", "word"),
    "lattice_word": TOP_KEYS + ("lattice", "word"),
    "base": MODEL_KEYS,
    "cover": MODEL_KEYS,
    "lattice": ("gram", "symmetry_kind", "euler_sign"),
    "deck": ("matrix", "order"),
    "shift": ("kind",),
    "ptwist": ("kind",),
    "tensor": ("kind", "matrix"),
    "spherical": ("kind", "class"),
    "explicit": ("kind", "matrix"),
}
# Keys of other objects, and options that no object has.
KEY_NAMES = sorted({key for keys in KNOWN_KEYS.values() for key in keys}
                   | {"t", "tol", "tolerance", "whitelisted", "nilpotent", "seed"})


def _objects(config):
    """(path prefix, object, its KNOWN_KEYS entry) for every object of a
    config."""
    yield "", config, config["kind"]
    for key in ("base", "cover", "lattice", "deck"):
        if key in config:
            yield f"{key}.", config[key], key
    for i, gen in enumerate(config.get("word", ())):
        yield f"word[{i}].", gen, gen["kind"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs, st.data())
def test_an_unknown_key_is_one_more_violation(config, data):
    config = json.loads(json.dumps(config))  # a copy: configs share the preset's objects
    before = validate_config(config)[1]
    prefix, holder, level = data.draw(st.sampled_from(list(_objects(config))))
    key = data.draw(st.sampled_from([k for k in KEY_NAMES if k not in KNOWN_KEYS[level]]))
    holder[key] = data.draw(st.sampled_from([0.5, 0, True, None, "x", [], {}]))
    violation = f"{prefix}{key}: unknown field"
    assert sorted(validate_config(config)[1]) == sorted(before + [violation])
    text = json.dumps(config)
    for command in ("validate", "run"):
        code, out, err = run(text, command)
        assert (code, out) == (1, "")
        assert err.startswith("error [InputError]: config validation failed:\n")
        assert f"\n  - {violation}\n" in err and "Traceback" not in err


# JSON-like values: near-miss numbers, bools, strings, lists and objects.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
              st.sampled_from([1.0, -1.0, 2.0, 2.9, 10.0, math.nan, 10**300]),
              st.floats(-4, 12), st.sampled_from(["", "1", "symmetric"])),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(st.sampled_from(["a", "1"]), children,
                                               max_size=2)),
    max_leaves=8,
)


def mostly(draw, good):
    """A draw from ``good`` three times in four, else any JSON-like value."""
    return draw(good if draw(st.integers(0, 3)) else json_values)


@st.composite
def lattice_dicts(draw):
    """A gram of rank 1..3, symmetric or not, with int entries or not, and
    each of symmetry_kind and euler_sign absent, at the one convention
    ("symmetric", -1), at a value of another ("euler_general", 1), or any
    JSON-like value."""
    rank = draw(st.integers(1, 3))
    entries = st.integers(-2, 2) if draw(st.integers(0, 3)) else json_values
    gram = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                         min_size=rank, max_size=rank))
    if draw(st.booleans()):
        gram = symmetric(gram)
    lattice = {"gram": mostly(draw, st.just(gram))}
    for key, good in (("symmetry_kind", ["symmetric", "euler_general"]),
                      ("euler_sign", [1, -1])):
        if draw(st.booleans()):
            lattice[key] = mostly(draw, st.sampled_from(good))
    return lattice


@st.composite
def model_dicts(draw):
    """n, m_max = 3 and q, d_table, both or neither.  A well-formed table
    has about as many entries as an hk run at m_max = 3 reads."""
    n = mostly(draw, st.integers(1, 8))
    model = {"n": n, "m_max": 3}
    rule = draw(st.sampled_from(["q", "d_table", "q", "d_table", "both", "neither"]))
    if rule in ("q", "both"):
        model["q"] = mostly(draw, st.integers(1, 6).map(lambda k: 2 * k))
    if rule in ("d_table", "both"):
        # hk reads d_1 .. d_{4n+2+m_max}
        depth = 4 * n + 2 + 3 if type(n) is int and 1 <= n <= 8 else 9
        model["d_table"] = draw(st.one_of(
            st.integers(depth - 2, depth + 2).flatmap(lambda size: st.lists(
                st.integers(2, 60), min_size=size, max_size=size)).map(sorted),
            st.lists(st.integers(2, 60) | json_values, max_size=12),
            json_values))
    return model


def engine_accepts(kind, fields):
    """Whether the owners of the fields take them: for a lattice, the schema
    takes symmetry_kind and euler_sign at the one convention only, and
    BilinearLattice the gram; for a model, the engine type within the
    schema's cap on n and with a table that reaches the deepest d_i an hk
    run reads."""
    if kind == "lattice_word":
        sign = fields.get("euler_sign", -1)
        if fields.get("symmetry_kind", "symmetric") != "symmetric" or not (
                is_int(sign) and sign == -1):
            return False
    try:
        if kind == "lattice_word":
            BilinearLattice(fields["gram"])
        else:
            model = HKModel(fields["n"], fields.get("q"), fields.get("d_table"))
            if model.n > 8:  # the schema's desk-scale cap
                return False
            model.dim(4 * model.n + 2 + fields["m_max"])
    except InputError:
        return False
    return True


@example(("lattice_word", {"gram": [[2]], "euler_sign": 1.0}))
@example(("lattice_word", {"gram": [[2]], "euler_sign": True}))
@example(("lattice_word", {"gram": [[1.9]]}))
@example(("lattice_word", {"gram": [[0, 1], [2, 0]]}))
@example(("lattice_word", {"gram": [[2]], "symmetry_kind": "euler_general"}))
@example(("hk", {"n": 1, "q": 10.0, "m_max": 3}))
@example(("hk", {"n": 10, "q": 10, "m_max": 3}))
@example(("hk", {"n": 1, "d_table": [2.9] + list(range(3, 12)), "m_max": 3}))
@example(("hk", {"n": 1, "d_table": list(range(2, 10)), "m_max": 3}))
@example(("hk", {"n": 4, "q": 10**300, "m_max": 3}))
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["lattice_word", "hk"]).flatmap(lambda kind: st.tuples(
    st.just(kind), lattice_dicts() if kind == "lattice_word" else model_dicts())))
def test_validate_accepts_exactly_what_the_engine_types_accept(case):
    # The schema passes the values on, and the check stage builds the types.
    # Exit 2 is a series too long to print, of values the types accept.
    kind, fields = case
    config = {"kind": kind, **(
        {"lattice": fields, "word": []} if kind == "lattice_word" else fields)}
    code, _, err = run(json.dumps(config), "validate")
    assert code in (0, 1, 2), err
    assert (code != 1) == engine_accepts(kind, fields), err
