"""Descent of entropy and spectral radius through a cyclic covering.

Models the quotient of a hyperkaehler-type cover by a finite cyclic group of
deck transformations.  A ``CoverScenario`` holds the deck matrix, its order
and the integer action a word induces on the cover lattice
(``words.induced_matrix``), and makes every check of them when it is built:
the action commutes with the deck action, so the quotient's numerical
lattice embeds as the deck-fixed sublattice, which must be nonzero, and the
action restricts to it.  Then

  * the quotient inherits the cover's certified entropy lower bound, and
  * the restriction's characteristic polynomial divides the cover's, so
    the quotient log spectral radius is exactly zero whenever the cover's
    is (``quotient_verdict``).

``quotient_verdict`` certifies the quotient log spectral radius; the
caller gates it against the cover's bound.  All sublattice
computation is in integers: the fixed sublattice is the integer kernel of
(deck - I), computed by unimodular row reduction, and the inverse of that
reduction reads the restricted action off the images of the kernel basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractError, InputError, require_int, shown
from .lattice import SquareIntMatrix, char_poly, poly_exact_quotient
from .words import LogRho, certify_log_rho

Vectors = tuple[tuple[int, ...], ...]


def integer_kernel_basis(m: SquareIntMatrix) -> tuple[Vectors, Vectors]:
    """Basis of the saturated integer kernel {v : M v = 0}, and its left
    inverse.

    Row-reduces [M^T | I] with unimodular integer operations; rows whose left
    block vanishes carry a basis of the kernel lattice in their right block
    U.  The inverse V of U is kept alongside: a row swap swaps the same two
    columns of V, and ``row_i -= q row_p`` adds q times column i to column p.
    ``left`` is the columns of V that match the kernel rows, so
    ``left . basis^T = I``.
    """
    n = m.n
    mt = m.transpose().entries
    rows = [list(mt[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    inv = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    pivot_row = 0
    for col in range(n):
        while True:
            nonzero = [i for i in range(pivot_row, n) if rows[i][col] != 0]
            if not nonzero:
                break
            best = min(nonzero, key=lambda i: abs(rows[i][col]))
            rows[pivot_row], rows[best] = rows[best], rows[pivot_row]
            for r in inv:
                r[pivot_row], r[best] = r[best], r[pivot_row]
            clean = True
            for i in range(pivot_row + 1, n):
                if rows[i][col]:
                    q = rows[i][col] // rows[pivot_row][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot_row])]
                    for r in inv:
                        r[pivot_row] += q * r[i]
                    if rows[i][col]:
                        clean = False
            if clean:
                pivot_row += 1
                break
    basis = tuple(tuple(row[n:]) for row in rows[pivot_row:])
    left = tuple(tuple(r[k] for r in inv) for k in range(pivot_row, n))
    return basis, left


def _restrict_to_basis(
    action: SquareIntMatrix, basis: Vectors, left: Vectors
) -> SquareIntMatrix:
    """Matrix X of the action on the sublattice spanned by ``basis``.

    X = left . (A basis^T), and basis^T X == A basis^T is checked exactly,
    which holds exactly when the action preserves the sublattice.
    """
    images = [action.apply(v) for v in basis]
    x = tuple(tuple(sum(a * b for a, b in zip(row, image)) for image in images)
              for row in left)
    back = [tuple(sum(c * v[i] for c, v in zip(col, basis)) for i in range(action.n))
            for col in zip(*x)]
    if back != images:
        raise ContractError("action does not preserve the invariant sublattice")
    return SquareIntMatrix(x)


@dataclass(frozen=True)
class CoverScenario:
    """A cyclic deck action of the declared order on a cover lattice, and the
    induced action of the word to descend; the rank is the deck's.

    Every check is made at construction, in this order: the order is a
    positive int and the deck has that order, the action has the deck's
    rank and commutes with the deck, and the deck fixes a nonzero vector.
    ``basis`` spans the fixed sublattice and ``restricted`` is the action on
    it.
    """

    deck_matrix: SquareIntMatrix
    order: int
    action: SquareIntMatrix
    basis: Vectors = field(init=False)
    restricted: SquareIntMatrix = field(init=False)

    def __post_init__(self):
        rank = self.deck_matrix.n
        require_int(self.order, "order", 1)
        if self.deck_matrix.power(self.order) != SquareIntMatrix.identity(rank):
            raise InputError(
                f"deck matrix does not have order dividing {shown(self.order)}"
            )
        if self.action.n != rank:
            raise InputError("word acts on a lattice of different rank")
        if self.action @ self.deck_matrix != self.deck_matrix @ self.action:
            raise ContractError(
                "word action does not commute with the deck action; descent needs "
                "an invariant polarization"
            )
        basis, left = integer_kernel_basis(
            self.deck_matrix - SquareIntMatrix.identity(rank))
        if not basis:
            raise InputError(
                "deck action fixes no lattice vector; not a valid quotient model"
            )
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "restricted",
                           _restrict_to_basis(self.action, basis, left))


def quotient_verdict(sc: CoverScenario) -> tuple[LogRho, dict]:
    """The quotient's log rho certificate and its details.

    The cover's entropy bound transfers as an identity through the covering,
    so only the spectral radius needs descending.  The restriction's
    characteristic polynomial must divide the cover's, as it does for an
    action on a saturated invariant sublattice (the action is block
    triangular in an adapted basis), so no quotient root exceeds the cover's.
    Each distinct polynomial is then certified once: when the two are equal,
    as under an identity deck, the cover's certificate is the quotient's.
    An exactly zero cover certificate needs no check that it restricts to an
    exactly zero one: a monic int divisor of (x - 1)^a (x + 1)^b is
    (x - 1)^c (x + 1)^d, as Z[x] factors uniquely, so the quotient
    certificate is an exact zero too.
    The details give the cover's log rho and the quotient rank.
    """
    cover_poly, poly = char_poly(sc.action), char_poly(sc.restricted)
    if poly_exact_quotient(cover_poly, poly) is None:
        raise ContractError("restricted characteristic polynomial does not divide "
                            "the ambient one")
    cover = certify_log_rho(cover_poly)
    quotient = cover if poly == cover_poly else certify_log_rho(poly)
    return quotient, {"cover_log_rho": cover.value, "quotient_rank": len(sc.basis)}
