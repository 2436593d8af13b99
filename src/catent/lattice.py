"""Exact integer lattices, pairings, characteristic polynomials, spectral radii.

Everything here is computed in exact arbitrary-precision arithmetic; floating
point appears only in the final spectral-radius estimate.  The dichotomy
"spectral radius 1 vs. > 1" drives every certificate downstream, so it must
never be a rounding artifact:

  * characteristic polynomials come from Hessenberg reduction modulo
    Mersenne primes whose product exceeds twice a proven bound on every
    coefficient, combined by the Chinese remainder theorem, so they are
    exact by that bound; they are tuples of int coefficients in ascending
    order,
  * unipotence is an exact integer nilpotence test, never ``|lambda - 1| < eps``,
  * the spectral radius rho is bracketed by the Cauchy bound of the exact
    characteristic polynomial and refined by a multiprecision Aberth-Ehrlich
    iteration on its squarefree part, scaled exactly by a power of two so
    that its roots have moduli around 1, from Bini's Newton-polygon starting
    points.  The refinement stops when its error estimate, the largest last
    Aberth correction, is below (ACCURACY/2)*rho.  That estimate is not a
    proven bound, so the float spectral radius is an estimate, which no
    verdict reads,
  * the verdict gate compares rho with an int exactly: ``roots_inside`` is
    the Schur-Cohn recursion on integer coefficients.

Cheap exact tests run in front of the expensive exact ones, and they only
ever decide a case they can prove:

  * necessary-condition gates answer "no" early: a unipotent M has
    trace(M) = n, so ``is_unipotent`` returns False on any other trace
    without a matrix product,
  * sufficient-condition shortcuts answer "yes" early: a triangular M
    (upper or lower) with a unit diagonal is unipotent, because M - I is
    strictly triangular, so ``is_unipotent`` returns True without a matrix
    product; and if p mod P and p' mod P are coprime in F_P[x] for a prime
    P not dividing the leading coefficient, p is squarefree over Q (Gauss's
    lemma), so ``squarefree_part`` returns p without the Euclid over Q.

Every case a gate or shortcut cannot decide (trace n but not unit
triangular; a common factor mod P or P dividing the leading coefficient)
still reaches the full exact test, so the results are the same as without
them.

Each type checks its values when it is built, with no coercion: a non-int
entry (``errors.is_int``) and an asymmetric gram are ``InputError``s.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import InputError, NumericError, is_int, require_int, shown

#: Relative accuracy of the spectral-radius estimate and its Cauchy check.
ACCURACY = 1e-9


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
        require_int(k, "k", 0)
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
    """Finite-rank integer lattice with its symmetric Mukai pairing.

    The pairing is <v, w> = -chi(v, w), the negative of the Euler pairing
    chi of the category being modelled; Serre duality makes chi symmetric on
    the K3 and hyperkaehler categories here.  Spherical classes have
    self-pairing -2, and twist actions are reflections there.
    """

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = _as_int_rows(self.gram)
        object.__setattr__(self, "gram", rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise InputError("gram matrix must be square of positive rank")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise InputError(f"symmetric lattice has asymmetric gram at ({i},{j})")

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
# Integer polynomials: tuples of int coefficients, ascending, with a nonzero
# leading coefficient; () is the zero polynomial
# ---------------------------------------------------------------------------

Poly = tuple[int, ...]


def _divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder over Q of a by a nonzero b, coefficients
    ascending; the remainder has no zero top coefficient."""
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    r = [Fraction(c) for c in a]
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        d = len(r) - len(b)
        q[d] = c
        for i, bc in enumerate(b):
            r[i + d] -= c * bc
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return q, r


def poly_exact_quotient(a: Poly, b: Poly) -> Poly | None:
    """a / b when the nonzero b divides a in Z[x], else None."""
    q, r = _divmod(a, b)
    if any(r) or any(c.denominator != 1 for c in q):
        return None
    return tuple(map(int, q))


#: Exponents e of the Mersenne primes 2^e - 1, in increasing order: the
#: moduli of ``char_poly``; the first is the prime of the squarefree pre-test.
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253,
                       4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243)


def _coprime_mod(a: Poly, b: Poly, prime: int) -> bool:
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


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), the gcd primitive with a positive leading
    coefficient; same roots, all simple."""
    dp = tuple(i * c for i, c in enumerate(p))[1:]
    prime = (1 << _MERSENNE_EXPONENTS[0]) - 1
    if len(p) < 2 or (p[-1] % prime and _coprime_mod(p, dp, prime)):
        return p  # squarefree mod P with the degree kept, hence over Q
    a, b = p, dp
    while b:  # Euclid over Q
        a, b = b, _divmod(a, b)[1]
    denom = math.lcm(*(Fraction(c).denominator for c in a))
    g = [int(c * denom) for c in a]
    content = math.gcd(*g) if g[-1] > 0 else -math.gcd(*g)
    g = tuple(c // content for c in g)
    return p if len(g) < 2 else poly_exact_quotient(p, g)


# ---------------------------------------------------------------------------
# Characteristic polynomial, unipotence, spectral radius
# ---------------------------------------------------------------------------


def _char_poly_mod(rows, prime: int) -> list[int]:
    """det(lambda*I - M) over F_prime, ascending coefficients in [0, prime).

    M is reduced to upper Hessenberg form H by similarity transforms: for
    each column j, a row swap (and the matching column swap) brings a
    nonzero pivot to row j + 1, and the rows below subtract multiples of it
    (and column j + 1 gains the inverse multiples of theirs).  The leading
    minors' polynomials of H then follow the Hessenberg recurrence
    p_(k+1) = (x - h_kk) p_k - sum_(i<k) h_ik h_(i+1,i) ... h_(k,k-1) p_i
    (Cohen, A Course in Computational Algebraic Number Theory, 1993, 2.2).
    """
    n = len(rows)
    h = [[a % prime for a in row] for row in rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue  # column j is already zero below the subdiagonal
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        pivot_row = h[j + 1][j:]
        inv = pow(pivot_row[0], -1, prime)
        us = []
        for row in h[j + 2:]:
            u = row[j] * inv % prime
            if u:
                row[j:] = [(a - u * b) % prime for a, b in zip(row[j:], pivot_row)]
            us.append(u)
        if any(us):
            for row in h:
                row[j + 1] = (row[j + 1] + sum(map(operator.mul, us, row[j + 2:]))) % prime
    polys = [[1]]
    for k in range(n):
        p, diag = polys[k], h[k][k]
        new = [0, *p]
        new[:-1] = [a - diag * c for a, c in zip(new, p)]
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * h[i + 1][i] % prime
            if not t:
                break
            if a := h[i][k] * t % prime:
                new[:i + 1] = [b - a * c for b, c in zip(new, polys[i])]
        polys.append([c % prime for c in new])
    return polys[n]


def char_poly(m: SquareIntMatrix) -> Poly:
    """Exact characteristic polynomial det(lambda*I - M), as its ascending
    int coefficients.

    The coefficient of lambda^(n-k) is plus or minus the sum of the C(n, k)
    principal k-by-k minors, each at most the product of its rows' Euclidean
    norms in modulus (Hadamard), so it has modulus at most
    B = max_k C(n, k) P_k, P_k the product of the k largest ceil(|row|_2).
    As ceil(|row|_2) <= |row|_1, B is at most the row-sum bound
    max_k C(n, k) R^k, and equal to it on +-R*I.  The polynomial is computed
    modulo Mersenne primes 2^e - 1, e from ``_MERSENNE_EXPONENTS`` in
    increasing order, until their product Q exceeds 2B, each in O(n^3)
    operations by Hessenberg reduction (``_char_poly_mod``); the residues
    are combined by the Chinese remainder theorem and lifted to the
    symmetric range (-Q/2, Q/2), which holds every integer of modulus at
    most B.  The result is exact by that bound, with no float and no
    probable prime.  A bound past the product of all the moduli is a
    NumericError.
    """
    n = m.n
    squares = (sum(a * a for a in row) for row in m.entries)
    norms = sorted((math.isqrt(s - 1) + 1 if s else 0 for s in squares), reverse=True)
    products = itertools.accumulate(norms, operator.mul, initial=1)
    bound = max(math.comb(n, k) * p for k, p in enumerate(products))
    primes, modulus = [], 1
    for e in _MERSENNE_EXPONENTS:
        if modulus > 2 * bound:
            break
        primes.append((1 << e) - 1)
        modulus *= primes[-1]
    if modulus <= 2 * bound:
        raise NumericError(
            f"characteristic polynomial coefficient bound of {bound.bit_length()} "
            f"bits is past the product of the moduli ({modulus.bit_length()} bits)")
    coeffs, modulus = [0] * (n + 1), 1
    for prime in primes:
        inv = pow(modulus, -1, prime)
        coeffs = [c + modulus * ((x - c) * inv % prime)
                  for c, x in zip(coeffs, _char_poly_mod(m.entries, prime))]
        modulus *= prime
    return tuple(c - modulus if 2 * c > modulus else c for c in coeffs)


def roots_inside(p: Poly, r: int) -> bool:
    """True when every root of the int polynomial p (nonzero leading
    coefficient) has modulus below the positive int r.

    Schur-Cohn (Henrici, Applied and Computational Complex Analysis I, 1974,
    6.8) on the int coefficients a_k r^k of p(r z): if |a_0| >= |a_n|, some
    root has modulus >= 1.  Otherwise, by Rouche, a_n p - a_0 p* (p* is p
    reversed) has as many roots inside the unit circle as p, one of them 0,
    so the test recurses on it over z, divided by its content.  A root on
    the circle stays one at every step, until the step of degree 1 fails.
    """
    require_int(r, "r", 1)
    a = [c * r**k for k, c in enumerate(p)]
    while len(a) > 1:
        if abs(a[0]) >= abs(a[-1]):
            return False
        a = [a[-1] * x - a[0] * y for x, y in zip(a[1:], a[-2::-1])]
        content = math.gcd(*a)
        a = [c // content for c in a]
    return True


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


def _newton_polygon_starts(coeffs) -> list:
    """Bini's starting points for the roots of sum c_k x^k, ``coeffs``
    ascending with c_0 and c_n nonzero (Bini, Numer. Algorithms 13, 1996):
    each edge i -> j of the upper convex hull of the points (k, log|c_k|),
    c_k != 0, puts j - i points on the circle of radius
    (|c_i| / |c_j|)^(1/(j - i)).  Logs and radii are mpf, as a float
    overflows on the coefficients of a large entry.
    """
    n = len(coeffs) - 1
    hull = []
    for k, c in enumerate(coeffs):
        if c:
            log_c = mpmath.log(abs(c))
            # pop the last vertex while it is on or below the chord to (k, log_c)
            while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (log_c - hull[-2][1])
                                     >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])):
                hull.pop()
            hull.append((k, log_c))
    starts = []
    for (i, log_i), (j, log_j) in zip(hull, hull[1:]):
        radius = mpmath.exp((log_i - log_j) / (j - i))
        starts += [radius * mpmath.expj(2 * math.pi * (t / (j - i) + i / n) + 0.7)
                   for t in range(j - i)]
    return starts


def _aberth(desc, starts, extraprec: int):
    """Roots of the polynomial with mpf coefficients ``desc`` (descending)
    from the approximations ``starts``, and the largest last correction.

    Aberth-Ehrlich (Aberth, Math. Comp. 27, 1973) in Gauss-Seidel order:
    z_i -= N / (1 - N sum_(j != i) 1/(z_i - z_j)), N = f(z_i)/f'(z_i), at
    ``extraprec`` bits above the working precision.  A root is frozen once
    its correction is below the working eps, and the iteration stops when
    every root is frozen; the roots are then rounded to the working
    precision, with an imaginary part below eps dropped.  The error
    estimate is the largest last correction, at least 2^(1 - prec).  More
    than 200 sweeps, or a zero divisor (two approximations meet, or
    f'(z_i) = 0), is mpmath's NoConvergence.
    """
    prec, eps = mpmath.mp.prec, +mpmath.mp.eps
    with mpmath.mp.extraprec(extraprec):
        roots = [mpmath.mpc(z) for z in starts]
        err = [mpmath.mpf(1)] * len(roots)
        moving = list(range(len(roots)))
        for _ in range(200):
            for i in moving:
                z = roots[i]
                try:
                    f, df = mpmath.polyval(desc, z, derivative=True)
                    newton = f / df
                    pull = sum(1 / (z - r) for j, r in enumerate(roots) if j != i)
                    w = newton / (1 - newton * pull)
                except ZeroDivisionError:
                    raise mpmath.mp.NoConvergence("zero divisor in the Aberth step") from None
                roots[i] = z - w
                err[i] = abs(w)
            moving = [i for i in moving if err[i] >= eps]
            if not moving:
                break
        else:
            raise mpmath.mp.NoConvergence("no convergence in 200 Aberth sweeps")
        roots = [z.real if abs(z.imag) < eps else z for z in roots]
    return [+z for z in roots], max(+max(err), mpmath.ldexp(1, 1 - prec))


def spectral_radius(poly: Poly) -> float:
    """Maximum root modulus rho of the characteristic polynomial ``poly``,
    estimated to within ACCURACY*rho.

    The squarefree part q of degree n is refined on the exactly scaled
    q(2^s y) / 2^(s n), s = round((bitlen|q_0| - bitlen|q_n|) / n), whose
    roots y = x / 2^s have moduli around 1.  The Aberth iteration
    (``_aberth``) starts from the Newton-polygon points, and the extra
    precision climbs the ladder 30, 80, 160, 320 bits until its error
    estimate, the largest last correction scaled back by 2^s, is below
    (ACCURACY/2)*rho, so ACCURACY bounds the error of log rho; as a monic q
    with q_0 != 0 has rho >= 1, that never asks more than an absolute
    ACCURACY/2.  The estimate is the iteration's, not a proven enclosure, so
    neither is the result.  The iteration stops on an absolute correction
    in y, so roots of very different moduli may not converge; that, a rho
    past the Cauchy bound and a rho past the float range are NumericErrors.
    Deciding that rho is exactly 1 is left to
    ``words.certify_log_rho``, and comparing it with an int to
    ``roots_inside``.
    """
    p = poly[next(i for i, c in enumerate(poly) if c):]  # strip x^k; p is monic
    if len(p) == 1:
        return 0.0  # nilpotent: all eigenvalues zero
    q = squarefree_part(p)
    n = len(q) - 1
    # Cauchy bound, an mpf: a quotient of huge coefficients overflows a float
    bound = 1 + mpmath.mpf(max(map(abs, q[:-1]))) / abs(q[-1])
    s = round((abs(q[0]).bit_length() - abs(q[-1]).bit_length()) / n)
    scaled = [mpmath.ldexp(c, s * (k - n)) for k, c in enumerate(q)]  # exact
    starts = _newton_polygon_starts(scaled)
    desc = scaled[::-1]
    last_err = None
    for extraprec in (30, 80, 160, 320):
        try:
            roots, err = _aberth(desc, starts, extraprec)
        except mpmath.mp.NoConvergence:
            continue
        rho = mpmath.ldexp(max(abs(r) for r in roots), s)
        last_err = mpmath.ldexp(err, s)
        if last_err < ACCURACY / 2 * rho:
            if rho > bound * (1 + ACCURACY):
                raise NumericError(
                    f"root estimate {mpmath.nstr(rho, 17)} exceeds Cauchy "
                    f"bound {bound}"
                )
            if math.isinf(out := float(rho)):
                raise NumericError(
                    f"spectral radius {mpmath.nstr(rho, 6)} is past the "
                    "float range"
                )
            return out
    raise NumericError(
        f"spectral radius refinement did not reach accuracy {ACCURACY} "
        f"(degree {n}, last error {last_err})"
    )
