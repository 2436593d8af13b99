"""Transfer of entropy and spectral radius to Hilbert-scheme models.

A surface autoequivalence induces one on the n-point Hilbert scheme; at
dimension level the Ext totals of the box power are n-th powers of the base
totals (Kuenneth), and the induced lattice action is the n-th Kronecker power
restricted to the symmetric-tensor subspace, whose spectral radius is the
n-th power of the base one.  Both transfers scale the entropy bound and the
log spectral radius by exactly n, so a strict gap on the surface forces one
on every Hilbert scheme over it; the lift scales the base ``Verdict`` into
a new one, gap included, and never forms the power matrices.  The gate
compares the base's d_1 with rho, since d_1^n > rho^n iff d_1 > rho.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import InputError, require_int
from .twists import BoundSeries
from .words import Verdict


def kunneth_power_series(series: BoundSeries, n: int) -> BoundSeries:
    """Pointwise n-th power of a bound series, lowers and uppers alike."""
    if require_int(n, "n", 1) == 1:
        return series
    return BoundSeries(
        tuple(lo**n for lo in series.lowers),
        tuple(hi**n for hi in series.uppers),
    )


def hilbert_lift_verdict(n: int, base: Verdict) -> Verdict:
    """Transfer the base verdict to n points: the bound, the log rho value
    and the slope scale by exactly n, and the one verdict gate reads the
    base's d_1 and characteristic polynomial.  ``details`` gives n as
    ``points``, the base bound and log rho, and whether the base gap was
    strict."""
    require_int(n, "n", 1)
    for name in ("entropy_lower", "empirical_slope", "log_rho", "series"):
        if getattr(base, name) is None:
            raise InputError(f"base verdict has no {name}")
    if any(lo <= 0 for lo in base.series.lowers):
        raise InputError("base series must have positive lower bounds")
    if base.entropy_lower < 0:
        raise InputError("base entropy bound must be nonnegative")
    return Verdict.of(
        base.base, replace(base.log_rho, value=n * base.log_rho.value),
        slope=n * base.empirical_slope,
        series=kunneth_power_series(base.series, n), points=n,
        details={"points": n, "base_entropy_lower": base.entropy_lower,
                 "base_log_rho": base.log_rho.value,
                 "strict_gap": base.verdict == "GY violated"},
    )
