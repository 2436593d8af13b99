"""Graded dimension intervals, with exact-triangle propagation.

A ``GradedDimInterval`` is what is known of the dimension profile of a
complex: a finitely supported map degree -> [lo, hi] of integer bounds.  A
profile is exact when lo == hi in every degree (``is_exact``);
``GradedDimInterval.exact`` builds one from a map degree -> dimension.

Storage is dense and immutable.  ``offset`` is the lowest stored degree and
the tuples ``lows``/``highs`` hold the bounds of degrees offset, offset + 1,
...; cells [0, 0] are trimmed from both ends (an empty profile has offset 0),
and a zero inside the range is the small int ``0``.  An exact profile stores
one tuple (``highs is lows``), an inexact one shares the int object of every
cell with lo == hi, and ``shifted`` shares the tuples of its source.  So
``lo(j)``/``hi(j)`` are index lookups, ``==`` and ``hash`` work on
(offset, lows, highs), and ``entries`` is a derived view of the nonzero
(degree, lo, hi) triples.  ``scaled(c)`` multiplies every bound by an int
c >= 0 and keeps the same storage rules: the Kuenneth product with {0: c},
so a one-cell kernel {s: c} is ``shifted(-s).scaled(c)``, with no
convolution.

Only the public constructors validate: ``GradedDimInterval(entries)``, which
``exact`` calls, requires int degrees and bounds (``errors.is_int``),
0 <= lo <= hi and no repeated degree, and raises ``InputError`` otherwise.
Results computed in this module go through ``_profile``, which only trims
and shares; ``shifted`` and ``scaled`` check only their argument and keep
the storage rules by construction.

``cone_bounds`` propagates bounds through an exact triangle A -> B -> C ->
A[1] using only the long exact sequence of cohomology.  For each degree j the
cone satisfies

    h_C(j) = (h_B(j) - r_j) + (h_A(j+1) - r_{j+1}),

where r_j is the rank of H^j(A) -> H^j(B), so with 0 <= r_j <= min(a_j, b_j)
the sharp degreewise bounds are

    hi_C(j) = hi_B(j) + hi_A(j+1)
    lo_C(j) = max(0, lo_B(j) - hi_A(j)) + max(0, lo_A(j+1) - hi_B(j+1)).

The upper reads only uppers, so the upper totals of a cone add up with no
cone evaluation (``twists`` runs its uppers on ints that way).

The bounds are exact precisely on windows where the supports of A and B are
disjoint enough that every relevant rank is forced to zero; the cohomology of
a cone is not determined by dimensions alone, so in general the output is an
honest interval.

An Euler-characteristic filter on these bounds could never fail.  The rank
terms cancel in the alternating sum, so chi(C) = chi(B) - chi(A) for every
real triangle, and the box of C always holds such a point: take any a in
the box of A and b in the box of B (their lows, say) with every rank 0, and
set c_j = b_j + a_{j+1}.  Then

    lo_C(j) <= lo_B(j) + lo_A(j+1) <= c_j <= hi_B(j) + hi_A(j+1) = hi_C(j),

because 0 <= lo <= hi in every valid profile, and the alternating sum of c
is chi(b) - chi(a).  So the alternating-sum range of C always meets
[chi_lo(B) - chi_hi(A), chi_hi(B) - chi_lo(A)].

``delta_value_interval`` sums a profile's bounds over all degrees, the exact
int totals that every bound series reads.
"""

from __future__ import annotations

from itertools import count, islice
from typing import Mapping

from .errors import InputError, is_int, require_int, shown

# Running count of cone_bounds evaluations; the CLI reports this as the
# deterministic work measure of a scenario.
_CONE_EVALS = 0


def cone_evaluations() -> int:
    return _CONE_EVALS


class GradedDimInterval:
    """Finitely supported map degree -> [lo, hi] of integer bounds.

    Degrees outside the stored range are exactly [0, 0].
    """

    __slots__ = ("offset", "lows", "highs")

    def __new__(cls, entries=()):
        cells: dict[int, tuple[int, int]] = {}
        for deg, lo, hi in entries:
            if not (is_int(deg) and is_int(lo) and is_int(hi)):
                raise InputError(
                    f"degrees and bounds must be integers, got {shown((deg, lo, hi))}"
                )
            if lo < 0:
                raise InputError(
                    f"negative lower bound {shown(lo)} at degree {shown(deg)}")
            if hi < lo:
                raise InputError(f"empty interval [{shown(lo)}, {shown(hi)}] "
                                 f"at degree {shown(deg)}")
            if deg in cells:
                raise InputError(f"duplicate degree {shown(deg)}")
            cells[deg] = (lo, hi)
        offset = min(cells, default=0)
        lows = [0] * (max(cells, default=-1) - offset + 1)
        highs = lows.copy()
        for deg, (lo, hi) in cells.items():
            lows[deg - offset], highs[deg - offset] = lo, hi
        return _profile(offset, lows, highs)

    @classmethod
    def exact(cls, d: Mapping[int, int]) -> "GradedDimInterval":
        """Exact profile from a map degree -> dimension."""
        return cls(tuple((deg, val, val) for deg, val in d.items()))

    def __setattr__(self, name, value):
        raise AttributeError(f"GradedDimInterval is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GradedDimInterval is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, GradedDimInterval):
            return NotImplemented
        return (self.offset, self.lows, self.highs) == (
            other.offset, other.lows, other.highs)

    def __hash__(self):
        return hash((self.offset, self.lows, self.highs))

    def __reduce__(self):  # copy and pickle without __setattr__
        return _new, (self.offset, self.lows, self.highs)

    def __repr__(self):
        return f"GradedDimInterval(entries={self.entries!r})"

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """The nonzero cells as (degree, lo, hi), by increasing degree."""
        return tuple(
            (deg, lo, hi)
            for deg, lo, hi in zip(count(self.offset), self.lows, self.highs)
            if hi > 0
        )

    def lo(self, j: int) -> int:
        i = j - self.offset
        return self.lows[i] if 0 <= i < len(self.lows) else 0

    def hi(self, j: int) -> int:
        i = j - self.offset
        return self.highs[i] if 0 <= i < len(self.highs) else 0

    def is_exact(self) -> bool:
        return self.highs is self.lows

    def shifted(self, s: int) -> "GradedDimInterval":
        require_int(s, "s")
        return _new(self.offset - s, self.lows, self.highs) if self.lows else self

    def scaled(self, c: int) -> "GradedDimInterval":
        """c times every bound: the Kuenneth product with {0: c}, c an int >= 0."""
        require_int(c, "c", 0)
        if c == 0:
            return _new(0, (), ())
        # c > 0 keeps every cell's zeroness, so the ends stay trimmed, and
        # lo == hi exactly where c lo == c hi, so one product serves both.
        lows = tuple(c * lo for lo in self.lows)
        if self.highs is self.lows:
            return _new(self.offset, lows, lows)
        return _new(self.offset, lows, tuple(
            clo if lo == hi else c * hi
            for clo, lo, hi in zip(lows, self.lows, self.highs)))


def _new(offset: int, lows: tuple, highs: tuple) -> GradedDimInterval:
    g = object.__new__(GradedDimInterval)
    object.__setattr__(g, "offset", offset)
    object.__setattr__(g, "lows", lows)
    object.__setattr__(g, "highs", highs)
    return g


def _profile(offset: int, lows, highs) -> GradedDimInterval:
    """Trusted constructor for results computed in this module: no checks.

    Takes two distinct lists of bounds for degrees offset, offset + 1, ...,
    trims [0, 0] cells from both ends in place and shares every int (or the
    whole tuple) where lo == hi.
    """
    while lows and lows[-1] == 0 and highs[-1] == 0:
        lows.pop()
        highs.pop()
    start = 0
    while start < len(lows) and lows[start] == 0 and highs[start] == 0:
        start += 1
    if start:
        del lows[:start], highs[:start]
    if lows == highs:
        lows = highs = tuple(lows)
    else:
        for i, (lo, hi) in enumerate(zip(lows, highs)):
            if lo == hi:
                highs[i] = lo
        lows, highs = tuple(lows), tuple(highs)
    return _new(offset + start if lows else 0, lows, highs)


def _padded(g: GradedDimInterval, start: int, stop: int):
    """Lists (lows, highs) of g at degrees start .. stop - 1, a range that
    covers every stored cell of g; one list when g is exact."""
    i = g.offset - start
    lows = [0] * (stop - start)
    lows[i:i + len(g.lows)] = g.lows
    if g.highs is g.lows:
        return lows, lows
    highs = [0] * (stop - start)
    highs[i:i + len(g.highs)] = g.highs
    return lows, highs


def convolve_interval(
    g1: GradedDimInterval, g2: GradedDimInterval
) -> GradedDimInterval:
    """Kuenneth product: [lo, hi](k) sums [lo1(i) lo2(j), hi1(i) hi2(j)] over
    i + j = k.

    Only cells other than [0, 0], those with hi > 0, take part.
    """
    cells2 = [(j, lo2, hi2) for j, (lo2, hi2) in enumerate(zip(g2.lows, g2.highs))
              if hi2 > 0]
    size = len(g1.lows) + len(g2.lows) - 1
    lows, highs = [0] * size, [0] * size
    for i, (lo1, hi1) in enumerate(zip(g1.lows, g1.highs)):
        if hi1 == 0:
            continue
        for j, lo2, hi2 in cells2:
            k = i + j
            lows[k] += lo1 * lo2
            highs[k] += hi1 * hi2
    return _profile(g1.offset + g2.offset, lows, highs)


def cone_bounds(a: GradedDimInterval, b: GradedDimInterval) -> GradedDimInterval:
    """Degreewise bounds on the cone C of a triangle A -> B -> C -> A[1]."""
    global _CONE_EVALS
    _CONE_EVALS += 1
    # C(j) reads A and B at j and j + 1, for j from start to stop - 1.
    start = min(b.offset, a.offset - 1)
    stop = max(b.offset + len(b.lows), a.offset - 1 + len(a.lows))
    alo, ahi = _padded(a, start, stop + 1)
    blo, bhi = _padded(b, start, stop + 1)
    # Where one term is 0 the other is taken as it is, so the cone shares its
    # (possibly large) ints with A and B instead of allocating equal copies.
    lows, highs = [], []
    for blo_j, bhi_j, ahi_j, alo_j1, ahi_j1, bhi_j1 in zip(
        blo, bhi, ahi, islice(alo, 1, None), islice(ahi, 1, None), islice(bhi, 1, None)
    ):
        # hi_C(j) = hi_B(j) + hi_A(j+1)
        if ahi_j1 == 0:
            hi = bhi_j
        elif bhi_j == 0:
            hi = ahi_j1
        else:
            hi = bhi_j + ahi_j1
        # lo_C(j) = max(0, lo_B(j) - hi_A(j)) + max(0, lo_A(j+1) - hi_B(j+1))
        lo = 0
        if blo_j > ahi_j:
            lo = blo_j if ahi_j == 0 else blo_j - ahi_j
        if alo_j1 > bhi_j1:
            excess = alo_j1 if bhi_j1 == 0 else alo_j1 - bhi_j1
            lo = excess if lo == 0 else lo + excess
        lows.append(lo)
        highs.append(hi)
    return _profile(start, lows, highs)


def delta_value_interval(g: GradedDimInterval) -> tuple[int, int]:
    """Lower and upper totals: the sums of [lo, hi](k) over all degrees k."""
    return sum(g.lows), sum(g.highs)
