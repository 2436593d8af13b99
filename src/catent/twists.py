"""Twist iteration on line-bundle profiles and certified entropy lower bounds.

The engine iterates the class of autoequivalence "projective twist composed
with tensoring by the inverse polarization" on a hyperkaehler-type model of
half dimension n (complex dimension 2n).  All objects are tracked only
through graded dimension profiles; every step is a long-exact-sequence cone
propagation (``cone_bounds``), so exactness of top-degree entries is
*discovered* by the interval machinery, never assumed.

Tracked families, for a generator index k and twist levels l >= 1:

  * iterate profiles: the m-th functor iterate of the k-th negative
    generator summand, tensored down by l,
  * correction profiles: the cone correction term produced by the twist's
    two-term evaluation complex, iterated alongside,
  * evaluation-cone profiles: the correction-of-correction consumed by each
    inductive step.

Their recursions only ever combine profiles whose supports are disjoint at
the top, which is why the top degree of every iterate collapses to an exact
value (the product d_{k+1} d_l d_1^{m-1}) and everything above it vanishes
exactly.  ``verify_iterate_contract`` enforces this as a hard contract on
every iterate the run path reads (``ext_growth_series`` calls it).  The
matching checks for the other two families live in the tests
(``tests/twists_reference.py``).

Entropy: every series bound is the exact int total of a profile over all
degrees, the Ext total of the categorical entropy at t = 0 (h_cat = h_0).
The per-m lower bounds of the summed profiles grow like d_1^m, so
log d_1 is a certified entropy lower bound; the action on any lattice model
is unipotent, so the log spectral radius is exactly zero and the
Gromov-Yomdin equality fails with gap at least log d_1.

A generic surface spherical-twist iteration (bounds only, no collapse
contract) is included for degree-two models, as one level loop: the series
runs it with ``cone_bounds``, the check stage with ``graded.cone_uppers``
for the exact upper profiles.  ``ext_growth_uppers`` gives the exact upper
series of the first family.  Neither upper recursion evaluates a cone.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CollapseError, InputError, int_problem, is_int, require_int, shown
from .graded import (
    GradedDimInterval,
    cone_bounds,
    convolve_interval,
    delta_value_interval,
)
from .lattice import DEFAULT_TOL, BilinearLattice, SquareIntMatrix
from .words import Verdict, certify_log_rho, induced_matrix

def _binomial_dim(n: int, q: int, i: int) -> int:
    # chi of the i-th polarization power on a K3^[n]-type model:
    # binom(q i^2 / 2 + n + 1, n), evaluated exactly.
    x = Fraction(q * i * i, 2) + n + 1
    val = Fraction(1)
    for t in range(n):
        val *= x - t
    val /= math.factorial(n)
    return int(val)  # integral, since HKModel takes an even q only


@dataclass(frozen=True)
class HKModel:
    """Hyperkaehler-type model: half dimension n and a Riemann-Roch rule.

    The rule i -> d_i gives the section dimension of the i-th power of the
    polarization, either from the degree-n binomial formula in a stored
    even form value q, or from an explicit table (d_1, d_2, ...).  Every
    rule is checked at construction, with no coercion: n is a positive int,
    q an even positive int (an odd q makes d_1 a fraction), and a table a
    nonempty, nondecreasing list or tuple of ints above 1.  An even q gives
    integral d_i >= n + 1 >= 2 for every i.
    """

    n: int
    q: int | None = None
    table: tuple[int, ...] | None = None

    def __post_init__(self):
        require_int(self.n, "n", 1)
        if (self.q is None) == (self.table is None):
            raise InputError("supply exactly one of q or an explicit d-table")
        if self.q is not None:
            if not (is_int(self.q) and self.q > 0 and self.q % 2 == 0):
                raise InputError(f"q: must be an even positive integer, got {shown(self.q)}")
            return
        if not isinstance(self.table, (list, tuple)) or not self.table:
            raise InputError(
                f"d-table must be a nonempty list of integers, got {shown(self.table)}")
        table = tuple(self.table)
        object.__setattr__(self, "table", table)
        for i, d in enumerate(table, start=1):
            if not is_int(d):
                raise InputError(f"d-table entry d_{i} {int_problem(d)}")
            if d <= 1:
                raise InputError(f"d-table violates d_i > 1 at i={i} (got {shown(d)})")
        if any(a > b for a, b in zip(table, table[1:])):
            raise InputError("d-table must be nondecreasing")

    @property
    def dim_x(self) -> int:
        """Complex dimension of the modelled manifold."""
        return 2 * self.n

    @property
    def generator_width(self) -> int:
        """Number of summands in each generator bundle: 2n + 1."""
        return 2 * self.n + 1

    def dim(self, i: int) -> int:
        """d_i, the section dimension of the i-th polarization power."""
        require_int(i, "i", 0)
        if self.q is not None:
            return _binomial_dim(self.n, self.q, i)
        if i == 0:
            raise InputError("d_0 is not stored in table-based models")
        if i > len(self.table):
            raise InputError(
                f"d-table too short: need d_{i}, have {len(self.table)} entries"
            )
        return self.table[i - 1]


def negative_line_bundle_profile(model: HKModel, j: int) -> GradedDimInterval:
    """Cohomology profile of the inverse j-th polarization power: {2n: d_j}.

    Kodaira vanishing plus Serre duality with trivial canonical bundle
    concentrate everything in the top degree.
    """
    require_int(j, "j", 1)
    return GradedDimInterval.exact({model.dim_x: model.dim(j)})


# ---------------------------------------------------------------------------
# Profile recursion
# ---------------------------------------------------------------------------


def eval_cone_profile(
    model: HKModel, mult: GradedDimInterval, l: int
) -> GradedDimInterval:
    """Cone of the twist's two-term evaluation complex, tensored down by l.

    Both terms are sums of copies of the same line bundle with multiplicities
    given degreewise by ``mult``; the second copy sits two degrees deeper.
    """
    target = convolve_interval(mult, negative_line_bundle_profile(model, l))
    source = target.shifted(-2)
    return cone_bounds(source, target)


@lru_cache(maxsize=None, typed=True)  # so 1.0 or True never hits the key of 1
def correction_profile(model: HKModel, m: int, k: int, l: int) -> GradedDimInterval:
    """Interval profile of the m-th correction object, tensored down by l."""
    require_int(m, "m", 1)
    require_int(k, "k", 1)
    require_int(l, "l", 1)
    if m == 1:
        return eval_cone_profile(model, negative_line_bundle_profile(model, k + 1), l)
    inner = eval_twist_cone_profile(model, m, k, l)
    return cone_bounds(inner, correction_profile(model, m - 1, k, l + 1))


# No memo: only correction_profile(m, k, l) reads this, and that memo reads
# each (m, k, l) once, so a stored profile would never be read again.  The
# zero-size lru_cache keeps the miss counter and cache_clear that the
# benchmark's memo counters read.
@lru_cache(maxsize=0)
def eval_twist_cone_profile(
    model: HKModel, m: int, k: int, l: int
) -> GradedDimInterval:
    """Interval profile of the evaluation cone feeding the m-th correction."""
    require_int(m, "m", 2)
    return eval_cone_profile(model, correction_profile(model, m - 1, k, 1), l)


@lru_cache(maxsize=None, typed=True)
def iterate_profile(model: HKModel, m: int, k: int, l: int) -> GradedDimInterval:
    """Interval profile of the m-th functor iterate of the k-th negative
    generator summand, tensored down by l."""
    require_int(m, "m", 0)
    require_int(k, "k", 1)
    require_int(l, "l", 1)
    if m == 0:
        return negative_line_bundle_profile(model, k + l)
    return cone_bounds(
        correction_profile(model, m, k, l), iterate_profile(model, m - 1, k + 1, l)
    )


def clear_caches() -> None:
    """Drop all memoized profiles (used for reproducible work accounting)."""
    correction_profile.cache_clear()
    eval_twist_cone_profile.cache_clear()
    iterate_profile.cache_clear()


# ---------------------------------------------------------------------------
# Collapse contracts
# ---------------------------------------------------------------------------


def _expected_top(model: HKModel, m: int, k: int, l: int) -> int:
    return model.dim(k + 1) * model.dim(l) * model.dim(1) ** (m - 1)


def _check_top(profile: GradedDimInterval, top: int, expected: int, label: str):
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


def verify_iterate_contract(
    model: HKModel, m: int, k: int, l: int
) -> GradedDimInterval:
    """Iterate profile with its collapse contract enforced.

    For m >= 1 the top degree 2n(m+1) must be exactly d_{k+1} d_l d_1^{m-1}
    and all higher degrees exactly zero.
    """
    profile = iterate_profile(model, m, k, l)
    _check_top(
        profile,
        model.dim_x * (m + 1),
        _expected_top(model, m, k, l),
        f"iterate profile (m={m}, k={k}, l={l})",
    )
    if profile.offset < 0:
        raise CollapseError(
            f"iterate profile (m={m}, k={k}, l={l}) has negative-degree support",
            degree=profile.offset,
        )
    return profile


# ---------------------------------------------------------------------------
# Growth series and entropy bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundSeries:
    """Per-step lower/upper bounds for a generator-pair Ext total.

    Entry i corresponds to step m = i + 1.  Bounds are exact integers.
    """

    lowers: tuple
    uppers: tuple

    def __post_init__(self):
        if len(self.lowers) != len(self.uppers):
            raise InputError("lower and upper sequences must have equal length")

    @property
    def m_max(self) -> int:
        return len(self.lowers)

    def rows(self):
        return [
            (m, lo, hi)
            for m, (lo, hi) in enumerate(zip(self.lowers, self.uppers), start=1)
        ]

    def log_slope(self, m_from: int, m_to: int) -> float:
        """Least-squares slope of log lower(m) against m on [m_from, m_to]."""
        require_int(m_from, "m_from", 1)
        require_int(m_to, "m_to", 1)
        if not m_from < m_to <= self.m_max:
            raise InputError(f"invalid slope window [{shown(m_from)}, {shown(m_to)}]")
        ms = list(range(m_from, m_to + 1))
        if any(self.lowers[m - 1] <= 0 for m in ms):
            raise InputError("series must have positive lower bounds in the slope window")
        logs = [math.log(self.lowers[m - 1]) for m in ms]
        return statistics.linear_regression(ms, logs).slope


def ext_growth_series(model: HKModel, m_max: int) -> BoundSeries:
    """Bounds on the Ext total between the positive and twisted negative
    generators, summed over all summand pairs, for m = 1 .. m_max."""
    require_int(m_max, "m_max", 1)
    width = model.generator_width
    lowers, uppers = [], []
    for m in range(1, m_max + 1):
        lo_sum = hi_sum = 0
        for k in range(1, width + 1):
            for l in range(1, width + 1):
                lo, hi = delta_value_interval(verify_iterate_contract(model, m, k, l))
                lo_sum += lo
                hi_sum += hi
        lowers.append(lo_sum)
        uppers.append(hi_sum)
    return BoundSeries(tuple(lowers), tuple(uppers))


@dataclass(frozen=True)
class EntropyBound:
    """Certified entropy lower bound together with the empirical series slope."""

    certified: float
    empirical_slope: float
    series: BoundSeries


def entropy_lower_bound(model: HKModel, m_max: int) -> EntropyBound:
    """Certified bound log d_1, plus the observed log-slope of the series.

    The certificate does not depend on the slope estimate; the series top
    terms alone give lower(m) >= d_1^{m+1} for every m.
    """
    require_int(m_max, "m_max", 3)  # a meaningful slope window
    series = ext_growth_series(model, m_max)
    slope = series.log_slope(max(1, m_max // 2), m_max)
    return EntropyBound(math.log(model.dim(1)), slope, series)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def default_action(model: HKModel) -> SquareIntMatrix:
    """Class action of the twist-and-tensor word on a rank-3 stand-in lattice.

    Only unipotence matters for the verdict; the Mukai-style lattice of rank,
    polarization and point classes takes q = 2 for a ``d_table`` model.
    """
    q = model.q if model.q is not None else 2  # HKModel rejects odd q
    lattice = BilinearLattice(((0, 0, -1), (0, q, 0), (-1, 0, 0)))
    # Tensoring with the inverse polarization acts by exp(N) = I + N + N^2/2,
    # where N = ((0, 0, 0), (-1, 0, 0), (0, -q, 0)) is its cup product.
    tensor = ((1, 0, 0), (-1, 1, 0), (q // 2, -q, 1))
    return induced_matrix(
        lattice, [{"kind": "ptwist"}, {"kind": "tensor", "matrix": tensor}])


def gy_verdict(model: HKModel, m_max: int, tol: float = DEFAULT_TOL) -> Verdict:
    """Certified entropy bound vs. exact log spectral radius of the default
    twist-and-tensor word."""
    log_rho, exact_zero = certify_log_rho(default_action(model), tol)
    bound = entropy_lower_bound(model, m_max)
    return Verdict.of(bound.certified, log_rho, exact_zero, tol,
                      slope=bound.empirical_slope, series=bound.series)


# ---------------------------------------------------------------------------
# Generic surface spherical-twist iteration (bounds only)
# ---------------------------------------------------------------------------


def _require_surface(model: HKModel, subject: str) -> None:
    if model.n != 1:
        raise InputError(
            f"{subject} needs a surface model (n = 1), got n = {shown(model.n)}")


def spherical_twist_levels(model: HKModel, k: int, l: int, m_max: int, cone):
    """Yield the profile at twist level l of the m-th spherical-twist-and-
    tensor iterate, m = 1 .. m_max.  Level 0 at twist level lv is
    {2: d_{k+lv}}; level m at lv is ``cone(a, b)``, where a convolves level
    m - 1 at 1 with {2: d_lv} and b is level m - 1 at lv + 1.
    ``cone_bounds`` gives interval bounds, ``graded.cone_uppers`` the exact
    upper profiles.  The arguments are checked at the call, and the d_i are
    read in order, so a short table fails at its first missing entry."""
    _require_surface(model, "the spherical twist")
    require_int(k, "k", 1)
    require_int(l, "l", 1)
    require_int(m_max, "m_max", 1)
    d, exact = _dims_in_order(model), GradedDimInterval.exact

    def levels():
        # level[lv - 1] is the profile at twist level lv
        level = [exact({2: d(k + lv)}) for lv in range(1, l + m_max + 1)]
        for m in range(1, m_max + 1):
            level = [cone(convolve_interval(level[0], exact({2: d(lv)})), level[lv])
                     for lv in range(1, l + m_max - m + 1)]
            yield level[l - 1]

    return levels()


def spherical_twist_series(model: HKModel, k: int, l: int, m_max: int) -> BoundSeries:
    """Interval bounds for the iterated spherical-twist-and-tensor word.

    Returns per-step lower/upper bounds on the Ext total against the k-th
    negative and l-th positive generator summands.  No closed form is
    asserted; supports overlap from step three on, so these are honest
    bounds, not exact values.
    """
    lowers, uppers = zip(*(
        delta_value_interval(profile)
        for profile in spherical_twist_levels(model, k, l, m_max, cone_bounds)))
    return BoundSeries(lowers, uppers)


# ---------------------------------------------------------------------------
# Uppers without cone evaluations
# ---------------------------------------------------------------------------
#
# hi_C(j) = hi_B(j) + hi_A(j+1) reads only uppers, and summed over degrees it
# gives hi_total(C) = hi_total(A) + hi_total(B); a Kuenneth product multiplies
# totals.  So the uppers of the iterate family follow a recursion that
# mirrors its profile recursion and makes no cone evaluation.


def _dims_in_order(model: HKModel):
    """i -> d_i, reading d_1, d_2, ... in order, so that a table too short for
    the caller fails at its first missing entry."""
    dims = [None]

    def d(i: int) -> int:
        while len(dims) <= i:
            dims.append(model.dim(len(dims)))
        return dims[i]

    return d


def ext_growth_uppers(model: HKModel, m_max: int):
    """An iterator over the uppers of ``ext_growth_series(model, m_max)``,
    reading every d_i the series reads; m_max is checked at the call."""
    require_int(m_max, "m_max", 1)
    d = _dims_in_order(model)

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
    return (sum(iterate(m, k, l) for k in width for l in width)
            for m in range(1, m_max + 1))
