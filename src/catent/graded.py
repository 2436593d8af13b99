"""Graded dimension intervals, with exact-triangle propagation.

A ``GradedDimInterval`` is what is known of the dimension profile of a
complex: a finitely supported map degree -> [lo, hi], where an ``hi`` of
``None`` means "unknown above".  A profile is exact when lo == hi in every
degree (``is_exact``); ``GradedDimInterval.exact`` builds one from a map
degree -> dimension.

``cone_bounds`` propagates bounds through an exact triangle A -> B -> C ->
A[1] using only the long exact sequence of cohomology.  For each degree j the
cone satisfies

    h_C(j) = (h_B(j) - r_j) + (h_A(j+1) - r_{j+1}),

where r_j is the rank of H^j(A) -> H^j(B), so with 0 <= r_j <= min(a_j, b_j)
the sharp degreewise bounds are

    hi_C(j) = hi_B(j) + hi_A(j+1)
    lo_C(j) = max(0, lo_B(j) - hi_A(j)) + max(0, lo_A(j+1) - hi_B(j+1)).

The bounds are exact precisely on windows where the supports of A and B are
disjoint enough that every relevant rank is forced to zero; the cohomology of
a cone is not determined by dimensions alone, so in general the output is an
honest interval.  ``cone_exact_from_map_rank`` is the independent oracle: it
computes the cone profile exactly from supplied ranks.

When all upper bounds in sight are finite, every cone also passes an
Euler-characteristic filter: the alternating sum of C must be able to equal
that of B minus that of A (the rank terms cancel in the alternating sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import ContractError, InputError

# Running count of cone_bounds evaluations; the CLI reports this as the
# deterministic work measure of a scenario.
_CONE_EVALS = 0


def cone_evaluations() -> int:
    return _CONE_EVALS


def _add_hi(x, y):
    return None if x is None or y is None else x + y


@dataclass(frozen=True)
class GradedDimInterval:
    """Finitely supported map degree -> [lo, hi]; hi None means unknown.

    Degrees outside the support are exactly [0, 0].
    """

    entries: tuple[tuple[int, int, int | None], ...] = ()

    def __post_init__(self):
        seen = {}
        for deg, lo, hi in self.entries:
            deg, lo = int(deg), int(lo)
            hi = None if hi is None else int(hi)
            if lo < 0:
                raise InputError(f"negative lower bound {lo} at degree {deg}")
            if hi is not None and hi < lo:
                raise InputError(f"empty interval [{lo}, {hi}] at degree {deg}")
            if deg in seen:
                raise InputError(f"duplicate degree {deg}")
            if lo != 0 or hi != 0:
                seen[deg] = (lo, hi)
        object.__setattr__(
            self, "entries", tuple((d, lo, hi) for d, (lo, hi) in sorted(seen.items()))
        )

    @classmethod
    def exact(cls, d: Mapping[int, int]) -> "GradedDimInterval":
        """Exact profile from a map degree -> dimension."""
        return cls(tuple((deg, val, val) for deg, val in d.items()))

    @classmethod
    def from_dict(cls, d: Mapping[int, tuple[int, int | None]]) -> "GradedDimInterval":
        return cls(tuple((deg, lo, hi) for deg, (lo, hi) in d.items()))

    def lo(self, j: int) -> int:
        for deg, lo, _ in self.entries:
            if deg == j:
                return lo
        return 0

    def hi(self, j: int) -> int | None:
        for deg, _, hi in self.entries:
            if deg == j:
                return hi
        return 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(deg for deg, _, _ in self.entries)

    def is_exact(self) -> bool:
        return all(hi == lo for _, lo, hi in self.entries)

    def shifted(self, s: int) -> "GradedDimInterval":
        return GradedDimInterval(
            tuple((deg - s, lo, hi) for deg, lo, hi in self.entries)
        )

    def lo_total(self) -> int:
        return sum(lo for _, lo, _ in self.entries)

    def hi_total(self) -> int | None:
        total = 0
        for _, _, hi in self.entries:
            total = _add_hi(total, hi)
        return total


def direct_sum(g1: GradedDimInterval, g2: GradedDimInterval) -> GradedDimInterval:
    """Degreewise interval sum; unknown upper bounds absorb."""
    out: dict[int, tuple[int, int | None]] = {
        deg: (lo, hi) for deg, lo, hi in g1.entries
    }
    for deg, lo, hi in g2.entries:
        plo, phi = out.get(deg, (0, 0))
        out[deg] = (plo + lo, _add_hi(phi, hi))
    return GradedDimInterval.from_dict(out)


def convolve_interval(
    g1: GradedDimInterval, g2: GradedDimInterval
) -> GradedDimInterval:
    """Kuenneth product: [lo, hi](k) sums [lo1(i) lo2(j), hi1(i) hi2(j)] over
    i + j = k.

    An unknown upper bound absorbs: every stored entry has hi > 0 or hi None,
    so a product with an unknown factor is unknown.
    """
    out: dict[int, tuple[int, int | None]] = {}
    for d1, lo1, hi1 in g1.entries:
        for d2, lo2, hi2 in g2.entries:
            d = d1 + d2
            plo, phi = out.get(d, (0, 0))
            out[d] = (plo + lo1 * lo2,
                      _add_hi(phi, None if hi1 is None or hi2 is None else hi1 * hi2))
    return GradedDimInterval.from_dict(out)


def _chi_interval(g: GradedDimInterval) -> tuple[int, int] | None:
    """Range of the alternating sum; None when an upper bound is unknown."""
    lo_sum = hi_sum = 0
    for deg, lo, hi in g.entries:
        if hi is None:
            return None
        if deg % 2 == 0:
            lo_sum += lo
            hi_sum += hi
        else:
            lo_sum -= hi
            hi_sum -= lo
    return lo_sum, hi_sum


def cone_bounds(a: GradedDimInterval, b: GradedDimInterval) -> GradedDimInterval:
    """Degreewise bounds on the cone C of a triangle A -> B -> C -> A[1]."""
    global _CONE_EVALS
    _CONE_EVALS += 1
    degrees = set(b.support) | {deg - 1 for deg in a.support}
    out: dict[int, tuple[int, int | None]] = {}
    for j in sorted(degrees):
        hi = _add_hi(b.hi(j), a.hi(j + 1))
        lo_b = b.lo(j) - a.hi(j) if a.hi(j) is not None else 0
        lo_a = a.lo(j + 1) - b.hi(j + 1) if b.hi(j + 1) is not None else 0
        lo = max(0, lo_b) + max(0, lo_a)
        out[j] = (lo, hi)
    result = GradedDimInterval.from_dict(out)

    chi_a, chi_b, chi_c = _chi_interval(a), _chi_interval(b), _chi_interval(result)
    if chi_a is not None and chi_b is not None and chi_c is not None:
        lo_target = chi_b[0] - chi_a[1]
        hi_target = chi_b[1] - chi_a[0]
        if chi_c[1] < lo_target or chi_c[0] > hi_target:
            raise ContractError(
                "Euler characteristic filter failed: cone range "
                f"{chi_c} cannot meet target [{lo_target}, {hi_target}]"
            )
    return result


def cone_exact_from_map_rank(
    a: GradedDimInterval, b: GradedDimInterval, ranks: Mapping[int, int]
) -> GradedDimInterval:
    """Exact cone profile of exact A and B when the ranks of H^j(A) -> H^j(B)
    are known.

    C(j) = (b(j) - r_j) + (a(j+1) - r_{j+1}).  This is the oracle for
    cone_bounds: any feasible rank assignment is realizable.
    """
    if not (a.is_exact() and b.is_exact()):
        raise InputError("the cone oracle needs exact source and target profiles")
    for j, r in ranks.items():
        if r < 0 or r > min(a.lo(j), b.lo(j)):
            raise InputError(
                f"infeasible rank {r} at degree {j}: "
                f"must satisfy 0 <= r <= min({a.lo(j)}, {b.lo(j)})"
            )
    out: dict[int, int] = {}
    degrees = set(b.support) | {deg - 1 for deg in a.support}
    for j in degrees:
        rj = ranks.get(j, 0)
        rj1 = ranks.get(j + 1, 0)
        out[j] = (b.lo(j) - rj) + (a.lo(j + 1) - rj1)
    return GradedDimInterval.exact(out)


def delta_value_interval(
    g: GradedDimInterval, t: float = 0.0
) -> tuple[float, float | None]:
    """Lower/upper weighted totals sum of [lo,hi](k) e^{-kt}; exact at t=0."""
    if t == 0:
        return g.lo_total(), g.hi_total()
    lo_sum = 0.0
    hi_sum: float | None = 0.0
    for deg, lo, hi in g.entries:
        w = math.exp(-deg * t)
        lo_sum += lo * w
        hi_sum = None if hi_sum is None or hi is None else hi_sum + hi * w
    return lo_sum, hi_sum
