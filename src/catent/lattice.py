"""Exact integer lattices, pairings, characteristic polynomials, spectral radii.

Everything here is computed in exact arbitrary-precision arithmetic; floating
point appears only in the final spectral-radius estimate.  The dichotomy
"spectral radius 1 vs. > 1" drives every certificate downstream, so it must
never be a rounding artifact:

  * characteristic polynomials come from an integer Faddeev-LeVerrier
    recursion with an exact divisibility check at every step,
  * unipotence is an exact integer nilpotence test, never ``|lambda - 1| < eps``,
  * the spectral radius is bracketed by the Cauchy bound of the exact
    characteristic polynomial and refined by multiprecision root finding on
    its squarefree part.  The refinement stops on mpmath's own error
    estimate, which is not a proven bound, so the float spectral radius is
    an estimate; only the exact-zero certificate is proved.

Cheap exact tests run in front of the expensive exact ones, and they only
ever decide a case they can prove:

  * necessary-condition gates answer "no" early: a unipotent M has
    trace(M) = n, so ``is_unipotent`` returns False on any other trace
    without a matrix product (``words.log_rho_is_exact_zero`` gates M^2 the
    same way, reading trace(M^2) as sum m_ij m_ji),
  * sufficient-condition shortcuts answer "yes" early: a triangular M
    (upper or lower) with a unit diagonal is unipotent, because M - I is
    strictly triangular, so ``is_unipotent`` returns True without a matrix
    product; and if p mod P and p' mod P are coprime in F_P[x] for a prime
    P not dividing the leading coefficient, p is squarefree over Q (Gauss's
    lemma), so ``squarefree_part`` returns p without the rational Euclid.

Every case a gate or shortcut cannot decide (trace n but not unit
triangular; a common factor mod P or P dividing the leading coefficient)
still reaches the full exact test, so the results are the same as without
them.

Each type checks its values when it is built, with no coercion: a non-int
entry or coefficient (``errors.is_int``), a bad symmetry kind or euler_sign
and an asymmetric gram declared symmetric are ``InputError``s.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .errors import InputError, NumericError, is_int, shown

#: Default accuracy target for spectral-radius refinement.
DEFAULT_TOL = 1e-9

_SYMMETRY_KINDS = ("symmetric", "euler_general")


def _as_int_rows(rows):
    """``rows`` as a tuple of int tuples; anything else is an InputError."""
    try:
        out = tuple(map(tuple, rows))
    except TypeError:
        raise InputError(
            f"matrix must be a sequence of rows, got {shown(rows)}") from None
    for row in out:
        if not all(map(is_int, row)):
            raise InputError(f"matrix entries must be integers, got row {shown(row)}")
    return out


@dataclass(frozen=True)
class SquareIntMatrix:
    """Immutable square matrix with (arbitrary-precision) integer entries."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = _as_int_rows(self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n == 0:
            raise InputError("matrix must have positive dimension")
        if any(len(row) != n for row in rows):
            raise InputError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def _unchecked(cls, rows: tuple[tuple[int, ...], ...]) -> "SquareIntMatrix":
        # Results of integer arithmetic on valid matrices: square tuples of
        # ints by construction, so the constructor's checks are skipped.
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        return m

    @staticmethod
    def identity(n: int) -> "SquareIntMatrix":
        return SquareIntMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    def __matmul__(self, other: "SquareIntMatrix") -> "SquareIntMatrix":
        if self.n != other.n:
            raise InputError(f"dimension mismatch: {self.n} vs {other.n}")
        cols = tuple(zip(*other.entries))
        mul = operator.mul
        return SquareIntMatrix._unchecked(
            tuple(
                tuple(sum(map(mul, row, col)) for col in cols)
                for row in self.entries
            )
        )

    def __add__(self, other: "SquareIntMatrix") -> "SquareIntMatrix":
        if self.n != other.n:
            raise InputError(f"dimension mismatch: {self.n} vs {other.n}")
        return SquareIntMatrix._unchecked(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "SquareIntMatrix") -> "SquareIntMatrix":
        return self + other.scaled(-1)

    def scaled(self, c: int) -> "SquareIntMatrix":
        c = operator.index(c)
        return SquareIntMatrix._unchecked(
            tuple(tuple(c * a for a in row) for row in self.entries)
        )

    def power(self, k: int) -> "SquareIntMatrix":
        if k < 0:
            raise InputError("negative matrix power not supported")
        result = SquareIntMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def apply(self, v: tuple[int, ...]) -> tuple[int, ...]:
        if len(v) != self.n:
            raise InputError(f"dimension mismatch: {self.n} vs {len(v)}")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def scalar(self) -> int | None:
        """The c with M = c*I, or None when M is not a scalar matrix."""
        c = self.entries[0][0]
        for i, row in enumerate(self.entries):
            if row[i] != c or any(row[:i]) or any(row[i + 1:]):
                return None
        return c

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.n))

    def transpose(self) -> "SquareIntMatrix":
        return SquareIntMatrix(tuple(zip(*self.entries)))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)


@dataclass(frozen=True)
class BilinearLattice:
    """Finite-rank integer lattice with a symmetric or Euler-type pairing.

    ``euler_sign`` records how the stored pairing relates to the Euler
    pairing chi of the category being modelled: pairing = euler_sign * chi.
    The default -1 is the Mukai convention, under which spherical classes
    have self-pairing -2 and twist actions are reflections there.
    """

    gram: tuple[tuple[int, ...], ...]
    symmetry_kind: str = "euler_general"
    euler_sign: int = -1

    def __post_init__(self):
        rows = _as_int_rows(self.gram)
        object.__setattr__(self, "gram", rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise InputError("gram matrix must be square of positive rank")
        if self.symmetry_kind not in _SYMMETRY_KINDS:
            raise InputError(
                f"symmetry_kind must be one of {_SYMMETRY_KINDS}, "
                f"got {shown(self.symmetry_kind)}"
            )
        if self.symmetry_kind == "symmetric":
            for i in range(n):
                for j in range(i + 1, n):
                    if rows[i][j] != rows[j][i]:
                        raise InputError(
                            f"symmetric lattice has asymmetric gram at ({i},{j})"
                        )
        if not (is_int(self.euler_sign) and self.euler_sign in (1, -1)):
            raise InputError(
                f"euler_sign must be the integer +1 or -1, got {shown(self.euler_sign)}")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, v, w) -> int:
        """Evaluate v^T . gram . w exactly for int sequences v and w."""
        if len(v) != self.rank or len(w) != self.rank:
            raise InputError(
                f"vector length mismatch: rank {self.rank}, got {len(v)} and {len(w)}"
            )
        return sum(
            v[i] * self.gram[i][j] * w[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending; () is the zero polynomial."""

    coeffs: tuple[int, ...] = field(default=())

    def __post_init__(self):
        cs = list(self.coeffs)
        if not all(map(is_int, cs)):
            raise InputError(f"coefficients must be integers, got {shown(self.coeffs)}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def is_zero(self) -> bool:
        return not self.coeffs


def _frac_divmod(a: list[Fraction], b: list[Fraction]):
    # Plain Euclidean division over Q, coefficients ascending.
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        c = r[-1] / b[-1]
        d = len(r) - len(b)
        q[d] = c
        for i, bc in enumerate(b):
            r[i + d] -= c * bc
        r.pop()
    return q, r


def poly_divmod_exact(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact quotient a / b; raises if the division leaves a remainder."""
    if b.is_zero():
        raise InputError("division by the zero polynomial")
    q, r = _frac_divmod(
        [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    )
    if any(r):
        raise InputError("polynomial division is not exact")
    if any(c.denominator != 1 for c in q):
        raise InputError("polynomial quotient is not integral")
    return IntPolynomial(tuple(int(c) for c in q))


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive integer gcd with positive leading coefficient."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    while any(fb):
        _, r = _frac_divmod(fa, fb)
        while r and r[-1] == 0:
            r.pop()
        fa, fb = fb, r
    if not any(fa):
        return IntPolynomial()
    from math import gcd, lcm

    denom = lcm(*(c.denominator for c in fa)) if fa else 1
    ints = [int(c * denom) for c in fa]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPolynomial(tuple(ints))


#: Prime modulus of the squarefree pre-test: the Mersenne prime 2^61 - 1.
_SQUAREFREE_PRIME = (1 << 61) - 1


def _coprime_mod(a: list[int], b: list[int], prime: int) -> bool:
    """True iff gcd(a, b) = 1 in F_prime[x]; coefficients ascending."""
    a = [c % prime for c in a]
    b = [c % prime for c in b]
    for r in (a, b):
        while r and r[-1] == 0:
            r.pop()
    while b:
        inv = pow(b[-1], -1, prime)
        while len(a) >= len(b):
            c = a[-1] * inv % prime
            d = len(a) - len(b)
            for i, bc in enumerate(b):
                a[i + d] = (a[i + d] - c * bc) % prime
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p divided by gcd(p, p'); same roots, all simple."""
    if p.degree < 1:
        return p
    dp = p.derivative()
    if p.coeffs[-1] % _SQUAREFREE_PRIME and _coprime_mod(
        list(p.coeffs), list(dp.coeffs), _SQUAREFREE_PRIME
    ):
        return p  # squarefree mod P with the degree kept, hence over Q
    g = poly_gcd(p, dp)
    if g.degree < 1:
        return p
    return poly_divmod_exact(p, g)


# ---------------------------------------------------------------------------
# Characteristic polynomial, unipotence, spectral radius
# ---------------------------------------------------------------------------


def char_poly(m: SquareIntMatrix) -> IntPolynomial:
    """Exact characteristic polynomial det(lambda*I - M).

    Integer Faddeev-LeVerrier recursion; each division by the step index is
    checked for exactness, which certifies the arithmetic.
    """
    n = m.n
    ident = SquareIntMatrix.identity(n)
    coeffs_desc = [1]
    aux = ident
    for k in range(1, n + 1):
        prod = m @ aux
        t = prod.trace()
        if t % k != 0:
            raise NumericError(f"Faddeev-LeVerrier integrality failed at step {k}")
        ck = -t // k
        coeffs_desc.append(ck)
        aux = prod + ident.scaled(ck)
    return IntPolynomial(tuple(reversed(coeffs_desc)))


def is_unipotent(m: SquareIntMatrix) -> bool:
    """Exact test: (M - I)^k = 0 for a power k >= n, n the dimension.

    A unipotent M has trace n, so any other trace is a "no" without a
    matrix product.  A triangular M, upper or lower, with a unit diagonal is
    a "yes" without one, as M - I is strictly triangular.  Every other
    matrix of trace n goes through the nilpotence test, which squares
    N = M - I: N is nilpotent iff N^n = 0 iff N^(2^j) = 0 once 2^j >= n.
    """
    if m.trace() != m.n:
        return False
    rows = m.entries
    if all(row[i] == 1 for i, row in enumerate(rows)) and (
        not any(any(row[:i]) for i, row in enumerate(rows))
        or not any(any(row[i + 1:]) for i, row in enumerate(rows))
    ):
        return True
    power, k = m - SquareIntMatrix.identity(m.n), 1  # power = (M - I)^k
    while not power.is_zero():
        if k >= m.n:
            return False
        power, k = power @ power, 2 * k
    return True


def _cauchy_bound(p: IntPolynomial) -> mpmath.mpf:
    # An mpf, not a float: a quotient of huge coefficients overflows a float.
    if p.degree < 1:
        return mpmath.mpf(0)
    return 1 + mpmath.mpf(max(abs(c) for c in p.coeffs[:-1])) / abs(p.coeffs[-1])


def spectral_radius(m: SquareIntMatrix, tol: float = DEFAULT_TOL) -> float:
    """Maximum root modulus of char_poly(M), estimated to within tol.

    Roots are bracketed by the Cauchy bound and refined by multiprecision
    polynomial root finding on the squarefree part, escalating precision
    until the solver's own error estimate is below tol.  That estimate is
    mpmath's, not a proven enclosure, so neither is the result.  This is
    always the float estimate: deciding that rho is exactly 1 is left to
    ``words.certify_log_rho``, which owns the exact-zero certificate.
    """
    if not tol > 0:
        raise InputError("tol must be positive")
    p = char_poly(m)
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) <= 1:
        return 0.0  # nilpotent: all eigenvalues zero
    q = squarefree_part(IntPolynomial(tuple(coeffs)))
    bound = _cauchy_bound(q)
    desc = list(reversed(q.coeffs))
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
        f"(degree {q.degree}, last error {last_err})"
    )
