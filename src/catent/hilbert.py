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
from .twists import BoundSeries
from .words import certify_log_rho, derive_verdict

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
class HilbScenario:
    """Inputs for the n-point transfer: the surface action and its series.

    ``base_entropy_lower`` is the certified entropy lower bound of the base
    autoequivalence (e.g. log d_1 from the twist iteration); the series
    carries the observed growth it came from.
    """

    n: int
    base_matrix: SquareIntMatrix
    base_series: BoundSeries
    base_entropy_lower: float

    def __post_init__(self):
        if self.n < 1:
            raise InputError("number of points n must be >= 1")
        if any(lo <= 0 for lo in self.base_series.lowers):
            raise InputError("base series must have positive lower bounds")
        if self.base_entropy_lower < 0:
            raise InputError("base entropy bound must be nonnegative")


@dataclass(frozen=True)
class HilbVerdict:
    """Scaled bound and spectral radius, and whether the strict gap survives."""

    n: int
    entropy_lower: float
    log_rho: float
    log_rho_exact_zero: bool
    strict_gap: bool
    series: BoundSeries


def hilbert_lift_verdict(sc: HilbScenario, tol: float = DEFAULT_TOL) -> HilbVerdict:
    """Transfer the base gap: both sides scale by exactly n."""
    base_log_rho, exact_zero = certify_log_rho(sc.base_matrix, tol)
    strict_gap = (
        derive_verdict(sc.base_entropy_lower, base_log_rho, exact_zero, tol)
        == "GY violated"
    )
    return HilbVerdict(
        n=sc.n,
        entropy_lower=sc.n * sc.base_entropy_lower,
        log_rho=sc.n * base_log_rho,
        log_rho_exact_zero=exact_zero,
        strict_gap=strict_gap,
        series=kunneth_power_series(sc.base_series, sc.n),
    )
