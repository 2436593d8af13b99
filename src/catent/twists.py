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
log d_1 is a certified entropy lower bound.  ``model_verdict`` gates it, for
an ``hk`` model, a ``hilb`` base or an ``enriques`` cover, against a log rho
certified before any cone work.  The action of the default word
(``default_action``) is unipotent, so the Gromov-Yomdin equality fails by
at least log d_1.

A generic surface spherical-twist iteration (bounds only, no collapse
contract) is included for degree-two models.  Its series runs the level loop
``_levels`` on profiles, with ``cone_bounds``.  The same loop on ints gives
the exact upper totals of both families and evaluates no cone:
``spherical_twist_uppers`` for the surface word, and ``ext_growth_uppers``
for the iterate family, which factors its corrections by positive
homogeneity.  The CLI's check stage reads these uppers.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (CollapseError, InputError, int_problem, is_int, require_int,
                     shown)
from .graded import GradedDimInterval, cone_bounds, delta_value_interval
from .lattice import BilinearLattice, SquareIntMatrix
from .words import LogRho, Verdict, induced_matrix

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


# {0: 1}: a one-cell profile {s: d} is _POINT.shifted(-s).scaled(d), from a d
# the model has already checked.
_POINT = GradedDimInterval.exact({0: 1})


def negative_line_bundle_profile(model: HKModel, j: int) -> GradedDimInterval:
    """Cohomology profile of the inverse j-th polarization power: {2n: d_j}.

    Kodaira vanishing plus Serre duality with trivial canonical bundle
    concentrate everything in the top degree.
    """
    require_int(j, "j", 1)
    return _POINT.shifted(-model.dim_x).scaled(model.dim(j))


# ---------------------------------------------------------------------------
# Profile recursion
# ---------------------------------------------------------------------------


def eval_cone_profile(
    model: HKModel, mult: GradedDimInterval, l: int
) -> GradedDimInterval:
    """Cone of the twist's two-term evaluation complex, tensored down by l.

    Both terms are sums of copies of the same line bundle with multiplicities
    given degreewise by ``mult``; the second copy sits two degrees deeper.
    The first term is the Kuenneth product of ``mult`` with the one-cell
    kernel {2n: d_l}, so ``mult`` shifted up by 2n and scaled by d_l.
    """
    require_int(l, "l", 1)
    target = mult.shifted(-model.dim_x).scaled(model.dim(l))
    return cone_bounds(target.shifted(-2), target)


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
    # The stored ends are trimmed, so the last stored degree is the highest
    # nonzero one; only a failing profile is scanned, for the lowest.
    if profile.lows and profile.offset + len(profile.lows) - 1 > top:
        deg, lo, hi = next(cell for cell in profile.entries if cell[0] > top)
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


def model_verdict(model: HKModel, m_max: int, log_rho: LogRho,
                  details: dict | None = None) -> Verdict:
    """The certified bound log d_1 of ``model`` against a certified log rho.

    ``log_rho`` is a ``certify_log_rho`` result, made by the caller before
    any cone work.  m_max (>= 3, a meaningful slope window) is checked
    before the series to m_max runs.  The bound does not depend on the
    series' empirical slope: the top terms alone give lower(m) >= d_1^{m+1}
    for every m.
    """
    require_int(m_max, "m_max", 3)
    series = ext_growth_series(model, m_max)
    return Verdict.of(model.dim(1), log_rho,
                      slope=series.log_slope(max(1, m_max // 2), m_max),
                      series=series, details=details)


# ---------------------------------------------------------------------------
# The level loop: the surface spherical twist (bounds only) and exact uppers
# ---------------------------------------------------------------------------


def _levels(level: list, step, d: list, m_max: int):
    """Yield level m = 1 .. m_max of X(m, lv) = step(X(m - 1, 1), d_lv,
    X(m - 1, lv + 1)), each one entry shorter, from level 0 in ``level``.

    Both families run X(m, lv) = K(X(m - 1, 1) * d_lv) + X(m - 1, lv + 1), K
    the evaluation cone for hk and the identity for the surface word.  A
    cone's upper total is the sum of its terms', a Kuenneth product's is the
    product, and an evaluation cone doubles it, so the loop on ints gives the
    exact upper totals and evaluates no cone."""
    for _ in range(m_max):
        level = [step(level[0], d[lv], level[lv]) for lv in range(1, len(level))]
        yield level


def _require_surface(model: HKModel, subject: str) -> None:
    if model.n != 1:
        raise InputError(
            f"{subject} needs a surface model (n = 1), got n = {shown(model.n)}")


def _surface_levels(model: HKModel, k: int, l: int, m_max: int, leaf, step):
    """Level l of the surface level loop from level 0 = leaf(d_{k+lv}), for
    m = 1 .. m_max.  The arguments are checked at the call, before the loop
    reads d_1 .. d_{k+l+m_max} in order."""
    _require_surface(model, "the spherical twist")
    require_int(k, "k", 1)
    require_int(l, "l", 1)
    require_int(m_max, "m_max", 1)
    d = [None, *map(model.dim, range(1, k + l + m_max + 1))]
    seed = [leaf(d[k + lv]) for lv in range(1, l + m_max + 1)]
    return (level[l - 1] for level in _levels(seed, step, d, m_max))


def spherical_twist_levels(model: HKModel, k: int, l: int, m_max: int):
    """Yield the profile at twist level l of the m-th spherical-twist-and-
    tensor iterate, m = 1 .. m_max: the level loop on profiles, from level 0
    = {2: d_{k+lv}} at twist level lv."""
    leaf = _POINT.shifted(-2)
    return _surface_levels(
        model, k, l, m_max, leaf.scaled,
        lambda a, d_lv, b: cone_bounds(a.shifted(-2).scaled(d_lv), b))


def spherical_twist_series(model: HKModel, k: int, l: int, m_max: int) -> BoundSeries:
    """Interval bounds for the iterated spherical-twist-and-tensor word.

    Returns per-step lower/upper bounds on the Ext total against the k-th
    negative and l-th positive generator summands.  No closed form is
    asserted; supports overlap from step three on, so these are honest
    bounds, not exact values.
    """
    lowers, uppers = zip(*map(delta_value_interval,
                              spherical_twist_levels(model, k, l, m_max)))
    return BoundSeries(lowers, uppers)


def spherical_twist_uppers(model: HKModel, k: int, l: int, m_max: int):
    """The uppers of ``spherical_twist_series``: the level loop on ints."""
    return _surface_levels(model, k, l, m_max, lambda d_i: d_i,
                           lambda a, d_lv, b: a * d_lv + b)


def ext_growth_uppers(model: HKModel, m_max: int):
    """The uppers of ``ext_growth_series(model, m_max)``, one per step, after
    m_max is checked and d_1 .. d_{4n+2+m_max} are read in order.

    By positive homogeneity the correction upper of the base {2n: d_{k+1}} is
    d_{k+1} C(m, l), with C the unit corrections, those of {2n: 1}.  The
    iterate uppers fold iterate(m, k, l) = d_{k+1} C(m, l) + iterate(m - 1,
    k + 1, l) from level 0 = d_{k+l}, for k <= w + m_max - m, l <= w = 2n + 1."""
    require_int(m_max, "m_max", 1)
    w = model.generator_width
    d = [None, *map(model.dim, range(1, 2 * w + m_max + 1))]
    units = _levels([1] + [0] * (w + m_max - 1), lambda a, d_lv, b: 2 * a * d_lv + b,
                    d, m_max)

    def totals(iterates):  # iterates[k - 1][l - 1] is iterate(m, k, l)
        for c in units:
            iterates = [[d[k + 1] * c_l + it for c_l, it in zip(c, row)]
                        for k, row in enumerate(iterates[1:], start=1)]
            yield sum(map(sum, iterates[:w]))

    return totals([d[k + 1:k + w + 1] for k in range(1, w + m_max + 1)])
