"""Kronecker and symmetric powers of integer matrices, for the tests that
check spectral-radius scaling under the Hilbert-scheme lift.

The engine never forms these matrices: ``hilbert_lift_verdict`` scales the
base verdict by the number of points.  These helpers let the tests confirm
that scaling on explicit matrices.
"""

from itertools import combinations_with_replacement, permutations

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
