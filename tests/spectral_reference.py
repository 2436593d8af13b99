"""Reference spectral-radius refinement, an independent oracle.

``spectral_radius`` refines by another method than ``catent.lattice``:
mpmath's Durand-Kerner iteration (``mpmath.polyroots``) from its default
starting points on the unscaled squarefree part, stopping when the
solver's error estimate is below the absolute ``tol / 2``, where the
engine runs its own Aberth-Ehrlich iteration from Newton-polygon points on
an exactly scaled polynomial with a stop relative to rho.  The
differential tests in ``test_lattice.py`` require the engine to agree with
it within ``tol * rho``, and ``lattice.roots_inside`` to agree with it at
every int radius that rho is not within 1e-6 of.  Its accuracy and its
check of ``tol`` are its own, not the engine's."""

from __future__ import annotations

import math

import mpmath

from catent.errors import NumericError
from catent.lattice import SquareIntMatrix, char_poly, squarefree_part

#: The oracle's accuracy target.
TOL = 1e-9


def spectral_radius(m: SquareIntMatrix, tol: float = TOL) -> float:
    """Maximum root modulus of char_poly(M), estimated to within tol.

    Roots are bracketed by the Cauchy bound and refined by multiprecision
    polynomial root finding on the squarefree part, escalating precision
    until the solver's own error estimate is below tol.  That estimate is
    mpmath's, not a proven enclosure, so neither is the result.  This is
    always the float estimate: deciding that rho is exactly 1 is left to
    ``words.certify_log_rho``, which owns the exact-zero certificate.
    """
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    p = char_poly(m)
    p = p[next(i for i, c in enumerate(p) if c):]  # strip x^k; p is monic
    if len(p) == 1:
        return 0.0  # nilpotent: all eigenvalues zero
    q = squarefree_part(p)
    # Cauchy bound, an mpf: a quotient of huge coefficients overflows a float
    bound = 1 + mpmath.mpf(max(map(abs, q[:-1]))) / abs(q[-1])
    desc = list(reversed(q))
    last_err = None
    for extraprec in (30, 80, 160, 320):
        try:
            roots, err = mpmath.polyroots(
                desc, maxsteps=200, extraprec=extraprec, error=True
            )
        except mpmath.mp.NoConvergence:
            continue
        last_err = err
        if err < tol / 2:
            rho = max(abs(r) for r in roots)
            if rho > bound + tol:
                raise NumericError(
                    f"root estimate {float(rho)} exceeds Cauchy bound {bound}"
                )
            return float(rho)
    raise NumericError(
        f"spectral radius refinement did not reach tol={tol} "
        f"(degree {len(q) - 1}, last error {last_err})"
    )
