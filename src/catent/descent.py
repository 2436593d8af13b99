"""Descent of entropy and spectral radius through a cyclic covering.

Models the quotient of a hyperkaehler-type cover by a finite cyclic group of
deck transformations.  A ``CoverScenario`` holds the integer action a word
induces on the cover lattice (``words.induced_matrix``).  When that action
commutes with the deck action, the quotient's numerical lattice embeds as
the deck-fixed sublattice, the action restricts to it, and

  * the quotient inherits the cover's certified entropy lower bound, and
  * the quotient log spectral radius is squeezed to exactly zero whenever
    the cover action is unipotent up to sign (restriction preserves it).

``quotient_verdict`` gives both as one ``Verdict``.  All sublattice
computation is exact: the fixed sublattice is the integer kernel of
(deck - I), computed by unimodular row reduction, and the restricted action
is solved over exact rationals and cleared to integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError, InputError
from .lattice import DEFAULT_TOL, BilinearLattice, SquareIntMatrix
from .words import Verdict, certify_log_rho


def integer_kernel_basis(m: SquareIntMatrix) -> tuple[tuple[int, ...], ...]:
    """Basis of the saturated integer kernel {v : M v = 0}.

    Row-reduces [M^T | I] with unimodular integer operations; rows whose left
    block vanishes carry a basis of the kernel lattice in their right block.
    """
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


def _restrict_to_basis(
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


@dataclass(frozen=True)
class CoverScenario:
    """A cover model, its cyclic deck action, and the induced action of the
    word to descend.

    The deck matrix must have the declared finite order exactly; this is a
    construction-time check, never a runtime surprise.  Commutation of the
    action with the deck action is what ``commutes_with_deck`` decides, and
    is a precondition for the descent operations.
    """

    cover_lattice: BilinearLattice
    deck_matrix: SquareIntMatrix
    order: int
    action: SquareIntMatrix
    cover_entropy_bound: float

    def __post_init__(self):
        rank = self.cover_lattice.rank
        if self.deck_matrix.n != rank:
            raise InputError(
                f"deck matrix dimension {self.deck_matrix.n} != lattice rank {rank}"
            )
        if self.order < 1:
            raise InputError("deck order must be a positive integer")
        if self.deck_matrix.power(self.order) != SquareIntMatrix.identity(rank):
            raise InputError(
                f"deck matrix does not have order dividing {self.order}"
            )
        if self.action.n != rank:
            raise InputError("word acts on a lattice of different rank")
        if self.cover_entropy_bound < 0:
            raise InputError("cover entropy bound must be nonnegative")


def commutes_with_deck(sc: CoverScenario) -> bool:
    """Exact check that the induced word action commutes with the deck action."""
    return sc.action @ sc.deck_matrix == sc.deck_matrix @ sc.action


def invariant_sublattice(
    sc: CoverScenario,
) -> tuple[tuple[tuple[int, ...], ...], SquareIntMatrix]:
    """Basis of the deck-fixed sublattice and the word's restriction to it."""
    if not commutes_with_deck(sc):
        raise ContractError(
            "word action does not commute with the deck action; descent needs "
            "an invariant polarization"
        )
    fixed = sc.deck_matrix - SquareIntMatrix.identity(sc.cover_lattice.rank)
    basis = integer_kernel_basis(fixed)
    if not basis:
        raise InputError(
            "deck action fixes no lattice vector; not a valid quotient model"
        )
    return basis, _restrict_to_basis(sc.action, basis)


def quotient_verdict(sc: CoverScenario, tol: float = DEFAULT_TOL) -> Verdict:
    """Descend the entropy bound and squeeze the quotient spectral radius.

    The entropy bound transfers as an identity through the covering.  The
    cover action and its restriction are certified separately: an exactly
    zero cover certificate must restrict to an exactly zero one, and
    otherwise only the inequality against the cover value is asserted.
    ``details`` gives the cover's log rho and the quotient rank.
    """
    basis, restricted = invariant_sublattice(sc)
    cover_log_rho, cover_exact_zero = certify_log_rho(sc.action, tol)
    log_rho, exact_zero = certify_log_rho(restricted, tol)
    if cover_exact_zero and not exact_zero:
        raise ContractError(
            "restriction of an action that is unipotent up to sign failed "
            "the exact-zero certificate"
        )
    if log_rho > cover_log_rho + 10 * tol:
        raise ContractError("restricted spectral radius exceeds the ambient one")
    return Verdict.of(
        sc.cover_entropy_bound, log_rho, exact_zero, tol,
        details={"cover_log_rho": cover_log_rho, "quotient_rank": len(basis)},
    )
