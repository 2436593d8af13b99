"""Transfer of entropy and spectral radius to Hilbert-scheme models.

A surface autoequivalence induces one on the n-point Hilbert scheme; at
dimension level the Ext totals of the box power are n-th powers of the base
totals (Kuenneth), and the induced lattice action is the n-th Kronecker power
restricted to the symmetric-tensor subspace.  Both transfers scale the
entropy bound and the log spectral radius by exactly n, so a strict gap on
the surface forces one on every Hilbert scheme over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

from .errors import InputError, ResourceError
from .lattice import DEFAULT_TOL, SquareIntMatrix
from .twists import BoundSeries, HKVerdict
from .words import derive_verdict

#: Hard cap on the dimension of an expanded Kronecker power.
TENSOR_DIM_CAP = 10_000


def kunneth_power_series(series: BoundSeries, n: int) -> BoundSeries:
    """Pointwise n-th power of a bound series; unknown uppers absorb."""
    if n < 1:
        raise InputError("power must be >= 1")
    if n == 1:
        return series
    return BoundSeries(
        series.t,
        tuple(lo**n for lo in series.lowers),
        tuple(None if hi is None else hi**n for hi in series.uppers),
    )


def tensor_power_matrix(m: SquareIntMatrix, n: int) -> SquareIntMatrix:
    """Kronecker n-th power, guarded by a hard dimension cap."""
    if n < 1:
        raise InputError("power must be >= 1")
    if m.n**n > TENSOR_DIM_CAP:
        raise ResourceError(
            f"Kronecker power dimension {m.n}^{n} exceeds the cap {TENSOR_DIM_CAP}"
        )
    result = m
    for _ in range(n - 1):
        result = _kron(result, m)
    return result


def _kron(a: SquareIntMatrix, b: SquareIntMatrix) -> SquareIntMatrix:
    na, nb = a.n, b.n
    rows = []
    for i in range(na):
        for k in range(nb):
            rows.append(
                tuple(
                    a.entries[i][j] * b.entries[k][l]
                    for j in range(na)
                    for l in range(nb)
                )
            )
    return SquareIntMatrix(tuple(rows))


def symmetric_power_matrix(m: SquareIntMatrix, n: int) -> SquareIntMatrix:
    """Action of the tensor power on the symmetric-tensor subspace.

    Basis vectors are monomial symmetrizations indexed by multisets of size n
    over the base indices; the image coefficient on a multiset is read off at
    a sorted representative, so entries stay integral for integer input.
    """
    if n < 1:
        raise InputError("power must be >= 1")
    basis = list(combinations_with_replacement(range(m.n), n))
    index = {b: i for i, b in enumerate(basis)}
    size = len(basis)
    rows = [[0] * size for _ in range(size)]
    for col, alpha in enumerate(basis):
        arrangements = set(permutations(alpha))
        for beta in basis:
            total = 0
            for w in arrangements:
                prod = 1
                for bi, wi in zip(beta, w):
                    prod *= m.entries[bi][wi]
                    if prod == 0:
                        break
                total += prod
            rows[index[beta]][col] = total
    return SquareIntMatrix(tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class HilbVerdict:
    """Scaled bound, slope and spectral radius, their gap and verdict, and
    whether the base gap was strict."""

    n: int
    entropy_lower: float
    empirical_slope: float
    log_rho: float
    log_rho_exact_zero: bool
    gap: float
    strict_gap: bool
    verdict: str
    series: BoundSeries


def hilbert_lift_verdict(
    n: int, base: HKVerdict, tol: float = DEFAULT_TOL
) -> HilbVerdict:
    """Transfer the base verdict to n points: every quantity scales by exactly
    n, and the lifted values pass through the one verdict gate."""
    if n < 1:
        raise InputError("number of points n must be >= 1")
    if any(lo <= 0 for lo in base.series.lowers):
        raise InputError("base series must have positive lower bounds")
    if base.entropy_lower < 0:
        raise InputError("base entropy bound must be nonnegative")
    entropy_lower, log_rho = n * base.entropy_lower, n * base.log_rho
    return HilbVerdict(
        n=n,
        entropy_lower=entropy_lower,
        empirical_slope=n * base.empirical_slope,
        log_rho=log_rho,
        log_rho_exact_zero=base.log_rho_exact_zero,
        gap=entropy_lower - log_rho,
        strict_gap=base.verdict == "GY violated",
        verdict=derive_verdict(entropy_lower, log_rho, base.log_rho_exact_zero, tol),
        series=kunneth_power_series(base.series, n),
    )
