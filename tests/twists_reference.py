"""Test-side checks of the twist recursion.

The run path enforces only the iterate collapse contract
(``catent.twists.verify_iterate_contract``).  These functions state the same
collapse for the correction and evaluation-cone families, check the first
iterate against its closed form, and give the structure-sheaf profile.  They
read the cached profiles of ``catent.twists`` and raise its
``CollapseError``/``ContractError`` as the run path would.
"""

from __future__ import annotations

from catent.errors import CollapseError, ContractError
from catent.graded import GradedDimInterval, convolve_interval
from catent.twists import (
    HKModel,
    _check_top,
    _expected_top,
    correction_profile,
    eval_twist_cone_profile,
    negative_line_bundle_profile,
    verify_iterate_contract,
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
