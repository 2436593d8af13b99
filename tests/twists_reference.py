"""Test-side checks of the twist recursion.

The run path enforces only the iterate collapse contract
(``catent.twists.verify_iterate_contract``).  These functions state the same
collapse for the correction and evaluation-cone families, check the first
iterate against its closed form, and give the structure-sheaf profile.  They
read the cached profiles of ``catent.twists`` and raise its
``CollapseError``/``ContractError`` as the run path would.

``spherical_twist_series`` and ``spherical_twist_uppers`` are the spherical
recursion written out a second way, as oracles for the surface runs of the
level loop in ``catent.twists``: a dict holds every (m, twist level)
profile, and the upper profiles are propagated by hand on dicts of ints.
``ext_growth_uppers`` is the memoized int recursion of the iterate uppers,
the oracle for the engine's level loop on unit corrections.
``eval_cone_profile`` builds the evaluation cone by the general convolution
with a kernel from the validating constructor, and ``check_top_by_scan``
decides the collapse by scanning every stored cell: the oracles for the
engine's shift-and-scale cone and its one-comparison ``_check_top``.
"""

from __future__ import annotations

from functools import lru_cache

from catent.errors import CollapseError, ContractError, InputError
from catent.graded import (
    GradedDimInterval,
    cone_bounds,
    convolve_interval,
    delta_value_interval,
)
from catent.twists import (
    BoundSeries,
    HKModel,
    _check_top,
    _expected_top,
    _require_surface,
    correction_profile,
    eval_twist_cone_profile,
    negative_line_bundle_profile,
    verify_iterate_contract,
)


def eval_cone_profile(model: HKModel, mult: GradedDimInterval, l: int
                      ) -> GradedDimInterval:
    """The evaluation cone with its first term the Kuenneth product of
    ``mult`` and the kernel {2n: d_l}, by ``convolve_interval``."""
    target = convolve_interval(mult, GradedDimInterval.exact({model.dim_x: model.dim(l)}))
    return cone_bounds(target.shifted(-2), target)


def check_top_by_scan(profile: GradedDimInterval, top: int, expected: int, label: str):
    """``_check_top`` with the vanishing above ``top`` read off every cell."""
    for deg, lo, hi in profile.entries:
        if deg > top:
            raise CollapseError(
                f"{label}: expected exact vanishing above degree {top}, "
                f"found [{lo}, {hi}] at degree {deg}",
                degree=deg,
            )
    lo, hi = profile.lo(top), profile.hi(top)
    if lo != expected or hi != expected:
        raise CollapseError(
            f"{label}: top degree {top} expected exactly {expected}, got [{lo}, {hi}]",
            degree=top,
        )


def trivial_bundle_profile(model: HKModel) -> GradedDimInterval:
    """Cohomology profile of the structure sheaf: one dimension in each even
    degree 0, 2, ..., 2n."""
    return GradedDimInterval.exact({2 * i: 1 for i in range(model.n + 1)})


def verify_correction_contract(
    model: HKModel, m: int, k: int, l: int
) -> GradedDimInterval:
    """Correction profile with its collapse contract enforced.

    The top degree 2n(m+1)+1 must be exactly d_{k+1} d_l d_1^{m-1} and all
    higher degrees exactly zero.
    """
    profile = correction_profile(model, m, k, l)
    _check_top(
        profile,
        model.dim_x * (m + 1) + 1,
        _expected_top(model, m, k, l),
        f"correction profile (m={m}, k={k}, l={l})",
    )
    return profile


def verify_eval_cone_boundary(
    model: HKModel, m: int, k: int, l: int
) -> GradedDimInterval:
    """Evaluation-cone profile with its two boundary rows enforced (m >= 2):
    exactly d_{k+1} d_l d_1^{m-1} at degree 2n(m+1)+2, zero above, and the
    same value for the shifted term of the complex one degree higher."""
    profile = eval_twist_cone_profile(model, m, k, l)
    top = model.dim_x * (m + 1) + 2
    expected = _expected_top(model, m, k, l)
    _check_top(profile, top, expected, f"evaluation cone (m={m}, k={k}, l={l})")
    source = convolve_interval(
        correction_profile(model, m - 1, k, 1), negative_line_bundle_profile(model, l)
    ).shifted(-2)
    if (source.lo(top + 1), source.hi(top + 1)) != (expected, expected):
        raise CollapseError(
            f"evaluation complex (m={m}, k={k}, l={l}): shifted term at degree "
            f"{top + 1} expected exactly {expected}, got "
            f"[{source.lo(top + 1)}, {source.hi(top + 1)}]",
            degree=top + 1,
        )
    return profile


def first_iterate_profile(model: HKModel, k: int, l: int) -> GradedDimInterval:
    """Exact profile of the first iterate, produced by the triangle machinery.

    The closed form {2n: d_{k+l+1}, 4n-1: d_{k+1} d_l, 4n: d_{k+1} d_l} is
    used as a cross-check only.
    """
    profile = verify_iterate_contract(model, 1, k, l)
    if not profile.is_exact():
        deg = next(d for d, lo, hi in profile.entries if lo != hi)
        raise CollapseError(
            f"first iterate (k={k}, l={l}) did not collapse to exact values",
            degree=deg,
        )
    dd = model.dim(k + 1) * model.dim(l)
    closed = GradedDimInterval.exact(
        {
            model.dim_x: model.dim(k + l + 1),
            2 * model.dim_x - 1: dd,
            2 * model.dim_x: dd,
        }
    )
    if profile != closed:
        raise ContractError(
            f"first iterate (k={k}, l={l}): machinery produced {profile.entries}, "
            f"closed form gives {closed.entries}"
        )
    return profile


def spherical_twist_series(model: HKModel, k: int, l: int, m_max: int) -> BoundSeries:
    """The spherical-twist series from a dict of every (m, lv) profile: level
    m at twist level lv is the cone from the level m - 1 profile at 1,
    convolved with {2: d_lv}, to the level m - 1 profile at lv + 1."""
    _require_surface(model, "the spherical twist")
    if k < 1 or l < 1:
        raise InputError("k and l must be >= 1")
    if m_max < 1:
        raise InputError("m_max must be >= 1")
    profiles: dict[tuple[int, int], GradedDimInterval] = {}
    for lv in range(1, l + m_max + 1):
        profiles[(0, lv)] = negative_line_bundle_profile(model, k + lv)
    for m in range(1, m_max + 1):
        for lv in range(1, l + m_max - m + 1):
            mult = convolve_interval(
                profiles[(m - 1, 1)], negative_line_bundle_profile(model, lv))
            profiles[(m, lv)] = cone_bounds(mult, profiles[(m - 1, lv + 1)])
    lowers, uppers = [], []
    for m in range(1, m_max + 1):
        lo, hi = delta_value_interval(profiles[(m, l)])
        lowers.append(lo)
        uppers.append(hi)
    return BoundSeries(tuple(lowers), tuple(uppers))


def spherical_twist_uppers(model: HKModel, k: int, l: int, m_max: int):
    """The exact upper profiles of ``spherical_twist_series``, m = 1 .. m_max,
    from hi_C(j) = hi_B(j) + hi_A(j + 1) on dicts of ints, with no cone."""
    _require_surface(model, "the spherical twist")
    uppers = {(0, lv): {model.dim_x: model.dim(k + lv)} for lv in range(1, l + m_max + 1)}
    profiles = []
    for m in range(1, m_max + 1):
        for lv in range(1, l + m_max - m + 1):
            cells = dict(uppers[(m - 1, lv + 1)])
            # hi_C(j) = hi_B(j) + d_lv hi_mult(j - 1), mult the (m - 1, 1) upper
            for j, hi in uppers[(m - 1, 1)].items():
                cells[j + 1] = cells.get(j + 1, 0) + model.dim(lv) * hi
            uppers[(m, lv)] = cells
        profiles.append(GradedDimInterval.exact(uppers[(m, l)]))
    return profiles


def ext_growth_uppers(model: HKModel, m_max: int):
    """The uppers of ``ext_growth_series(model, m_max)`` from memoized int
    recursions that mirror the profile recursions."""
    d = lru_cache(maxsize=None)(model.dim)

    @lru_cache(maxsize=None)
    def correction(m: int, k: int, l: int) -> int:  # correction_profile
        if m == 1:  # the eval cone of {2n: d_{k+1}}
            return 2 * d(k + 1) * d(l)
        # eval_twist_cone_profile, then the cone with the previous correction
        return 2 * correction(m - 1, k, 1) * d(l) + correction(m - 1, k, l + 1)

    @lru_cache(maxsize=None)
    def iterate(m: int, k: int, l: int) -> int:  # iterate_profile
        if m == 0:
            return d(k + l)
        return correction(m, k, l) + iterate(m - 1, k + 1, l)

    width = range(1, model.generator_width + 1)
    return [sum(iterate(m, k, l) for k in width for l in width)
            for m in range(1, m_max + 1)]
