"""Kronecker and symmetric powers of integer matrices, for the tests that
check spectral-radius scaling under the Hilbert-scheme lift, the integer
polynomial helpers the tests use to check characteristic polynomials, and
the Faddeev-LeVerrier recursion that is ``char_poly``'s oracle.
Polynomials are tuples of int coefficients, ascending, as ``char_poly``
returns them.

The engine never forms these matrices: ``hilbert_lift_verdict`` scales the
base verdict by the number of points.  These helpers let the tests confirm
that scaling on explicit matrices.  Nor does the engine multiply, test
divisibility of, or evaluate polynomials at matrices: the tests use those to
check ``char_poly`` (Cayley-Hamilton, companion matrices) and
``squarefree_part``, the latter against the rational Euclid kept here as its
oracle.  ``unipotent_reference`` is the plain nilpotence test of M - I on
lists, the oracle for ``lattice.is_unipotent``.  ``unipotent_up_to_sign``,
built on it, is the matrix test of an exact-zero ``log rho``, the oracle
for ``words.log_rho_is_exact_zero``.  Both engine functions read only the
characteristic polynomial, through ``lattice.without_root``, so neither
oracle calls the engine.  ``counted_products`` counts the matrix products
a call makes, for the tests of the paths that should make none.
"""

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import gcd, lcm
from unittest import mock

from catent.errors import InputError, NumericError
from catent.lattice import SquareIntMatrix


def tensor_power_matrix(m: SquareIntMatrix, n: int) -> SquareIntMatrix:
    """Kronecker n-th power (n >= 1)."""
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
    """Action of the tensor power on the symmetric-tensor subspace (n >= 1).

    Basis vectors are monomial symmetrizations indexed by multisets of size n
    over the base indices; the image coefficient on a multiset is read off at
    a sorted representative, so entries stay integral for integer input.
    """
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


def poly_mul(a, b):
    """Product of int coefficient tuples, ascending; () is zero."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def derivative(p):
    return tuple(i * c for i, c in enumerate(p))[1:]


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


def poly_divmod_exact(a, b):
    """Exact quotient a / b in Z[x]; raises if there is none."""
    if not any(b):
        raise InputError("division by the zero polynomial")
    q, r = _frac_divmod([Fraction(c) for c in a], [Fraction(c) for c in b])
    if any(r):
        raise InputError("polynomial division is not exact")
    if any(c.denominator != 1 for c in q):
        raise InputError("polynomial quotient is not integral")
    q = [int(c) for c in q]
    while q and q[-1] == 0:
        q.pop()
    return tuple(q)


def poly_gcd(a, b):
    """Primitive integer gcd with positive leading coefficient."""
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]
    while any(fb):
        _, r = _frac_divmod(fa, fb)
        while r and r[-1] == 0:
            r.pop()
        fa, fb = fb, r
    while fa and fa[-1] == 0:
        fa.pop()
    if not fa:
        return ()
    denom = lcm(*(c.denominator for c in fa))
    ints = [int(c * denom) for c in fa]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def euclid_squarefree_part(p):
    """p / gcd(p, p') by the Euclid above, without a mod-P pre-test: the
    oracle for ``lattice.squarefree_part``."""
    if len(p) < 2:
        return p
    g = poly_gcd(p, derivative(p))
    return p if len(g) < 2 else poly_divmod_exact(p, g)


def poly_divides(b, a) -> bool:
    """True iff b divides a in Z[x]; for a monic b, the same as over Q."""
    try:
        poly_divmod_exact(a, b)
    except InputError:
        return False
    return True


def poly_eval_matrix(p, m: SquareIntMatrix) -> SquareIntMatrix:
    """Evaluate a polynomial at a matrix argument (Horner, exact)."""
    acc = SquareIntMatrix.identity(m.n).scaled(0)
    for c in reversed(p):
        acc = acc @ m + SquareIntMatrix.identity(m.n).scaled(c)
    return acc


def companion_matrix(p) -> SquareIntMatrix:
    """Companion matrix of a monic integer polynomial."""
    if len(p) < 2 or p[-1] != 1:
        raise InputError("companion matrix requires a monic polynomial of degree >= 1")
    n = len(p) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p[i]
    return SquareIntMatrix(tuple(tuple(r) for r in rows))


def plain_matmul(a, b):
    """Product of two square matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unipotent_reference(rows) -> bool:
    """(M - I)^n == 0 by n - 1 plain products, M given as rows."""
    n = len(rows)
    nil = [[rows[i][j] - (i == j) for j in range(n)] for i in range(n)]
    acc = nil
    for _ in range(n - 1):
        acc = plain_matmul(acc, nil)
    return all(x == 0 for row in acc for x in row)


def unipotent_up_to_sign(m: SquareIntMatrix) -> bool:
    """True iff M or M^2 is unipotent, so that every eigenvalue is 1 or -1."""
    rows = m.entries
    return unipotent_reference(rows) or unipotent_reference(plain_matmul(rows, rows))


def faddeev_leverrier(m: SquareIntMatrix) -> tuple[int, ...]:
    """det(lambda*I - M), ascending, by the integer Faddeev-LeVerrier
    recursion in n matrix products, each division by the step index checked
    for exactness: the oracle for ``lattice.char_poly``."""
    n = m.n
    ident = SquareIntMatrix.identity(n)
    coeffs_desc = [1]
    aux = ident
    for k in range(1, n + 1):
        prod = m @ aux
        t = sum(prod.entries[i][i] for i in range(n))
        if t % k != 0:
            raise NumericError(f"Faddeev-LeVerrier integrality failed at step {k}")
        ck = -t // k
        coeffs_desc.append(ck)
        aux = prod + ident.scaled(ck)
    return tuple(reversed(coeffs_desc))


@contextmanager
def counted_products():
    """A list that gains one entry per ``SquareIntMatrix`` product made in
    the ``with`` block."""
    products = []
    matmul = SquareIntMatrix.__matmul__

    def counting(a, b):
        products.append(1)
        return matmul(a, b)

    with mock.patch.object(SquareIntMatrix, "__matmul__", counting):
        yield products
