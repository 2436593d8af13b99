"""Rational reference versions of the descent steps and the tensor exponential.

``kernel_basis`` is the unimodular row reduction of
``catent.descent.integer_kernel_basis`` without the inverse it now keeps, and
``restrict_to_basis`` solves the restricted action over exact rationals by
Gauss-Jordan elimination: the versions the run path used before it worked in
integers only, kept as oracles for the differential tests in
``test_descent.py``.  ``tensor_matrix_from_nilpotent`` sums the exponential
series of a cup-product matrix in ``Fraction``s; ``test_twists.py`` checks the
tensor matrix that ``catent.twists.default_action`` writes out against it.
"""

from __future__ import annotations

from fractions import Fraction

from catent.errors import ContractError, InputError
from catent.lattice import SquareIntMatrix, is_unipotent


def kernel_basis(m: SquareIntMatrix) -> tuple[tuple[int, ...], ...]:
    """Basis of the saturated integer kernel {v : M v = 0}."""
    n = m.n
    mt = m.transpose().entries
    rows = [list(mt[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    pivot_row = 0
    for col in range(n):
        while True:
            nonzero = [i for i in range(pivot_row, n) if rows[i][col] != 0]
            if not nonzero:
                break
            best = min(nonzero, key=lambda i: abs(rows[i][col]))
            rows[pivot_row], rows[best] = rows[best], rows[pivot_row]
            clean = True
            for i in range(pivot_row + 1, n):
                if rows[i][col]:
                    q = rows[i][col] // rows[pivot_row][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot_row])]
                    if rows[i][col]:
                        clean = False
            if clean:
                pivot_row += 1
                break
    return tuple(tuple(row[n:]) for row in rows[pivot_row:])


def restrict_to_basis(
    action: SquareIntMatrix, basis: tuple[tuple[int, ...], ...]
) -> SquareIntMatrix:
    """Matrix of the action on the sublattice spanned by ``basis`` vectors."""
    rank = action.n
    size = len(basis)
    images = [action.apply(v) for v in basis]
    # Solve [basis columns] X = [image columns] over Q by Gaussian elimination.
    aug = [
        [Fraction(basis[j][i]) for j in range(size)]
        + [Fraction(images[j][i]) for j in range(size)]
        for i in range(rank)
    ]
    pivots = []
    row = 0
    for col in range(size):
        pivot = next((r for r in range(row, rank) if aug[r][col] != 0), None)
        if pivot is None:
            raise ContractError("sublattice basis is not linearly independent")
        aug[row], aug[pivot] = aug[pivot], aug[row]
        aug[row] = [x / aug[row][col] for x in aug[row]]
        for r in range(rank):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(row)
        row += 1
    for r in range(row, rank):
        if any(aug[r][size:]):
            raise ContractError(
                "action does not preserve the invariant sublattice"
            )
    rows_out = []
    for r in pivots:
        row_vals = []
        for j in range(size):
            val = aug[r][size + j]
            if val.denominator != 1:
                raise ContractError(
                    "restricted action is not integral on the kernel basis"
                )
            row_vals.append(int(val))
        rows_out.append(tuple(row_vals))
    return SquareIntMatrix(tuple(rows_out))


def tensor_matrix_from_nilpotent(n: SquareIntMatrix) -> SquareIntMatrix:
    """Exponential of a nilpotent cup-product matrix, as an integer matrix.

    The exponential series terminates; each term is computed exactly over
    Fractions and the result must clear to integers.
    """
    if not is_unipotent(n + SquareIntMatrix.identity(n.n)):
        raise InputError("matrix is not nilpotent")
    size = n.n
    acc = [[Fraction(1 if i == j else 0) for j in range(size)] for i in range(size)]
    power = SquareIntMatrix.identity(size)
    factorial = 1
    for k in range(1, size):
        power = power @ n
        if power.is_zero():
            break
        factorial *= k
        for i in range(size):
            for j in range(size):
                acc[i][j] += Fraction(power.entries[i][j], factorial)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if acc[i][j].denominator != 1:
                raise InputError(
                    "exponential of this nilpotent matrix is not integral; "
                    "supply the unipotent class action directly"
                )
            row.append(int(acc[i][j]))
        rows.append(tuple(row))
    return SquareIntMatrix(tuple(rows))
