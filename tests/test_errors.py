"""The integer rule of ``catent.errors`` at every engine entry point that
raises it.

The CLI's schema bounds every such value first, so only Python callers reach
these checks; they get an ``InputError`` in the schema's words, never a
``TypeError`` or a float-scaled result.
"""

import math

import pytest

from catent.descent import CoverScenario
from catent.errors import InputError
from catent.graded import GradedDimInterval
from catent.hilbert import hilbert_lift_verdict, kunneth_power_series
from catent.lattice import SquareIntMatrix, roots_inside
from catent.twists import (
    BoundSeries,
    HKModel,
    correction_profile,
    eval_cone_profile,
    eval_twist_cone_profile,
    ext_growth_series,
    ext_growth_uppers,
    iterate_profile,
    model_verdict,
    negative_line_bundle_profile,
    spherical_twist_levels,
    spherical_twist_series,
    spherical_twist_uppers,
)
from catent.words import LogRho, Verdict

K3 = HKModel(1, q=10)
SERIES = BoundSeries((7, 49, 343, 2401), (7, 49, 343, 2401))
EXACT_ZERO = LogRho(0.0, None)
BASE = Verdict.of(7, EXACT_ZERO, slope=math.log(7), series=SERIES)
SWAP = SquareIntMatrix(((0, 1), (1, 0)))
HUGE = -10**5000  # below every bound, and too long for str()

#: (entry point taking the value, argument name, lower bound or None)
GATED = {
    "HKModel.n": (lambda v: HKModel(v, q=10), "n", 1),
    "HKModel.dim": (lambda v: K3.dim(v), "i", 0),
    "negative_line_bundle_profile": (lambda v: negative_line_bundle_profile(K3, v), "j", 1),
    "correction_profile.m": (lambda v: correction_profile(K3, v, 1, 1), "m", 1),
    "correction_profile.k": (lambda v: correction_profile(K3, 1, v, 1), "k", 1),
    "correction_profile.l": (lambda v: correction_profile(K3, 1, 1, v), "l", 1),
    "eval_cone_profile": (
        lambda v: eval_cone_profile(K3, GradedDimInterval.exact({2: 7}), v), "l", 1),
    "eval_twist_cone_profile": (lambda v: eval_twist_cone_profile(K3, v, 1, 1), "m", 2),
    "iterate_profile.m": (lambda v: iterate_profile(K3, v, 1, 1), "m", 0),
    "iterate_profile.k": (lambda v: iterate_profile(K3, 0, v, 1), "k", 1),
    "iterate_profile.l": (lambda v: iterate_profile(K3, 0, 1, v), "l", 1),
    "ext_growth_series": (lambda v: ext_growth_series(K3, v), "m_max", 1),
    "ext_growth_uppers": (lambda v: ext_growth_uppers(K3, v), "m_max", 1),
    "model_verdict": (lambda v: model_verdict(K3, v, EXACT_ZERO), "m_max", 3),
    "spherical_twist_levels.k": (lambda v: spherical_twist_levels(K3, v, 1, 3), "k", 1),
    "spherical_twist_levels.l": (lambda v: spherical_twist_levels(K3, 1, v, 3), "l", 1),
    "spherical_twist_levels.m_max": (
        lambda v: spherical_twist_levels(K3, 1, 1, v), "m_max", 1),
    "spherical_twist_uppers.k": (lambda v: spherical_twist_uppers(K3, v, 1, 3), "k", 1),
    "spherical_twist_uppers.l": (lambda v: spherical_twist_uppers(K3, 1, v, 3), "l", 1),
    "spherical_twist_uppers.m_max": (
        lambda v: spherical_twist_uppers(K3, 1, 1, v), "m_max", 1),
    "spherical_twist_series.k": (lambda v: spherical_twist_series(K3, v, 1, 3), "k", 1),
    "spherical_twist_series.l": (lambda v: spherical_twist_series(K3, 1, v, 3), "l", 1),
    "spherical_twist_series.m_max": (
        lambda v: spherical_twist_series(K3, 1, 1, v), "m_max", 1),
    "log_slope.m_from": (lambda v: SERIES.log_slope(v, 4), "m_from", 1),
    "log_slope.m_to": (lambda v: SERIES.log_slope(1, v), "m_to", 1),
    "kunneth_power_series": (lambda v: kunneth_power_series(SERIES, v), "n", 1),
    "hilbert_lift_verdict": (lambda v: hilbert_lift_verdict(v, BASE), "n", 1),
    "CoverScenario.order": (
        lambda v: CoverScenario(SWAP, v, SquareIntMatrix.identity(2)), "order", 1),
    "SquareIntMatrix.power": (lambda v: SWAP.power(v), "k", 0),
    "roots_inside": (lambda v: roots_inside((-2, 1), v), "r", 1),
    "GradedDimInterval.shifted": (
        lambda v: GradedDimInterval.exact({0: 1}).shifted(v), "s", None),
    "GradedDimInterval.scaled": (
        lambda v: GradedDimInterval.exact({0: 1}).scaled(v), "c", 0),
}


VALUES = {"float": 1.5, "bool": True, "str": "2", "None": None, "huge": HUGE}


@pytest.mark.parametrize("memo", [correction_profile, iterate_profile])
@pytest.mark.parametrize("equal", [True, 1.0])
def test_a_warm_memo_still_applies_the_integer_rule(memo, equal):
    # True and 1.0 equal 1 and hash alike, so an untyped key would hit.
    memo(K3, 1, 1, 1)
    for args in ((equal, 1, 1), (1, equal, 1), (1, 1, equal)):
        with pytest.raises(InputError, match="must be an integer, got"):
            memo(K3, *args)


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{kind}")
    for entry, (_, _, lo) in GATED.items() for kind, value in VALUES.items()
    if value is not HUGE or lo is not None  # an unbounded argument takes any int
])
def test_gated_entry_points_raise_the_integer_rule(entry, value):
    call, name, lo = GATED[entry]
    with pytest.raises(InputError) as info:
        call(value)
    if value is HUGE:
        expected = f"{name}: must be >= {lo}, got a negative int of 16610 bits"
    else:
        expected = f"{name}: must be an integer, got {value!r}"
    assert str(info.value) == expected
