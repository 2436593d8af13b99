"""Reference implementations and oracles for the interval operations.

``convolve_interval`` and ``cone_bounds`` are the entry-scanning versions
that ``catent.graded`` used before profiles were stored densely.  They keep
the sparse algorithms; ``cone_bounds`` counts no evaluations and reads
``lo``/``hi`` by the same linear scan of ``entries`` that the sparse profile
used.  The differential test in ``test_graded.py`` requires the dense
functions to agree with them.  ``cone_bounds`` also keeps the
Euler-characteristic filter that the engine no longer runs, with
``_chi_interval``, the range of a profile's alternating sum: the tests check
on it the theorem in the ``catent.graded`` docstring, that the filter never
fails.

``cone_exact_from_map_rank`` is the independent cone oracle: it computes the
cone of exact profiles exactly from supplied ranks.  ``from_dict`` builds a
profile from a map degree -> (lo, hi), and ``support`` lists its nonzero
degrees.
"""

from __future__ import annotations

from typing import Mapping

from catent.errors import ContractError, InputError
from catent.graded import GradedDimInterval


def from_dict(d: Mapping[int, tuple[int, int]]) -> GradedDimInterval:
    return GradedDimInterval(tuple((deg, lo, hi) for deg, (lo, hi) in d.items()))


def support(g: GradedDimInterval) -> tuple[int, ...]:
    return tuple(deg for deg, _, _ in g.entries)


def _lo(g, j):
    for deg, lo, _ in g.entries:
        if deg == j:
            return lo
    return 0


def _hi(g, j):
    for deg, _, hi in g.entries:
        if deg == j:
            return hi
    return 0


def convolve_interval(
    g1: GradedDimInterval, g2: GradedDimInterval
) -> GradedDimInterval:
    """Kuenneth product: [lo, hi](k) sums [lo1(i) lo2(j), hi1(i) hi2(j)] over
    i + j = k.
    """
    out: dict[int, tuple[int, int]] = {}
    for d1, lo1, hi1 in g1.entries:
        for d2, lo2, hi2 in g2.entries:
            d = d1 + d2
            plo, phi = out.get(d, (0, 0))
            out[d] = (plo + lo1 * lo2, phi + hi1 * hi2)
    return from_dict(out)


def _chi_interval(g: GradedDimInterval) -> tuple[int, int]:
    """Range of the alternating sum."""
    lo_sum = hi_sum = 0
    for deg, lo, hi in g.entries:
        if deg % 2 == 0:
            lo_sum += lo
            hi_sum += hi
        else:
            lo_sum -= hi
            hi_sum -= lo
    return lo_sum, hi_sum


def cone_bounds(a: GradedDimInterval, b: GradedDimInterval) -> GradedDimInterval:
    """Degreewise bounds on the cone C of a triangle A -> B -> C -> A[1]."""
    degrees = set(support(b)) | {deg - 1 for deg in support(a)}
    out: dict[int, tuple[int, int]] = {}
    for j in sorted(degrees):
        hi = _hi(b, j) + _hi(a, j + 1)
        lo = max(0, _lo(b, j) - _hi(a, j)) + max(0, _lo(a, j + 1) - _hi(b, j + 1))
        out[j] = (lo, hi)
    result = from_dict(out)

    chi_a, chi_b, chi_c = _chi_interval(a), _chi_interval(b), _chi_interval(result)
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
    degrees = set(support(b)) | {deg - 1 for deg in support(a)}
    for j in degrees:
        rj = ranks.get(j, 0)
        rj1 = ranks.get(j + 1, 0)
        out[j] = (b.lo(j) - rj) + (a.lo(j + 1) - rj1)
    return GradedDimInterval.exact(out)
