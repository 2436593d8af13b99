"""Kronecker and symmetric powers of integer matrices, for the tests that
check spectral-radius scaling under the Hilbert-scheme lift, and the integer
polynomial helpers the tests use to check characteristic polynomials.

The engine never forms these matrices: ``hilbert_lift_verdict`` scales the
base verdict by the number of points.  These helpers let the tests confirm
that scaling on explicit matrices.  Nor does the engine multiply, test
divisibility of, or evaluate polynomials at matrices: the tests use those to
check ``char_poly`` (Cayley-Hamilton, companion matrices) and
``squarefree_part``.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from catent.errors import InputError
from catent.lattice import IntPolynomial, SquareIntMatrix, _frac_divmod


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


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    if a.is_zero() or b.is_zero():
        return IntPolynomial()
    out = [0] * (a.degree + b.degree + 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPolynomial(tuple(out))


def poly_divides(b: IntPolynomial, a: IntPolynomial) -> bool:
    """True iff b divides a exactly over Q."""
    if b.is_zero():
        return a.is_zero()
    _, r = _frac_divmod(
        [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    )
    return not any(r)


def poly_eval_matrix(p: IntPolynomial, m: SquareIntMatrix) -> SquareIntMatrix:
    """Evaluate a polynomial at a matrix argument (Horner, exact)."""
    acc = SquareIntMatrix.identity(m.n).scaled(0)
    for c in reversed(p.coeffs):
        acc = acc @ m + SquareIntMatrix.identity(m.n).scaled(c)
    return acc


def companion_matrix(p: IntPolynomial) -> SquareIntMatrix:
    """Companion matrix of a monic integer polynomial."""
    if p.degree < 1 or p.coeffs[-1] != 1:
        raise InputError("companion matrix requires a monic polynomial of degree >= 1")
    n = p.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p.coeffs[i]
    return SquareIntMatrix(tuple(tuple(r) for r in rows))
