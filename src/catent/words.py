"""Autoequivalence words and their induced integer actions on a lattice.

Generators act at the level of numerical classes only:

  * ``Shift`` negates classes,
  * ``TensorClass`` multiplies by a stored unipotent matrix (the class action
    of tensoring with a line bundle, e.g. an exponential of a nilpotent
    cup-product matrix),
  * ``SphericalTwist`` reflects along a spherical class,
  * ``PTwist`` is the identity on classes,
  * ``ExplicitMatrix`` injects an arbitrary integer action.

Words compose right-to-left, matching functor composition: the first
generator in the list is applied last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import InputError
from .lattice import (
    DEFAULT_TOL,
    BilinearLattice,
    LatticeVector,
    SquareIntMatrix,
    is_unipotent,
    spectral_radius,
)

if TYPE_CHECKING:
    from .twists import BoundSeries


@dataclass(frozen=True)
class Shift:
    """Homological shift by one; negates numerical classes."""


@dataclass(frozen=True)
class PTwist:
    """Projective-space twist; acts as the identity on numerical classes."""


@dataclass(frozen=True)
class TensorClass:
    """Tensoring with a line bundle: a stored unipotent class action."""

    matrix: SquareIntMatrix

    def __post_init__(self):
        if not is_unipotent(self.matrix):
            raise InputError("TensorClass matrix must be unipotent")


@dataclass(frozen=True)
class SphericalTwist:
    """Twist along a spherical class.

    ``whitelisted`` skips the self-pairing validity check, for scenarios
    whose lattice is only a stand-in for the actual numerical lattice.
    """

    vector: LatticeVector
    whitelisted: bool = False


@dataclass(frozen=True)
class ExplicitMatrix:
    """An arbitrary integer class action supplied directly."""

    matrix: SquareIntMatrix


Generator = Shift | PTwist | TensorClass | SphericalTwist | ExplicitMatrix


def shift_class_action(lattice: BilinearLattice) -> SquareIntMatrix:
    """Class action of the shift [1]: minus the identity."""
    return SquareIntMatrix.identity(lattice.rank).scaled(-1)


def p_twist_class_action(lattice: BilinearLattice) -> SquareIntMatrix:
    """Class action of a projective-space twist: the identity."""
    return SquareIntMatrix.identity(lattice.rank)


def twist_class_action(lattice: BilinearLattice, e) -> SquareIntMatrix:
    """Class action of the spherical twist along e.

    The class formula sends v to v - chi(e, v) e, where chi is the Euler
    pairing.  The lattice stores pairing = euler_sign * chi, so the matrix is
    I - euler_sign * e . (e^T G).  Under the Mukai convention (euler_sign -1)
    this is a reflection exactly at classes of self-pairing -2.
    """
    coords = e.coords if isinstance(e, LatticeVector) else tuple(int(x) for x in e)
    n = lattice.rank
    if len(coords) != n:
        raise InputError(f"class has length {len(coords)}, lattice rank {n}")
    row = tuple(
        sum(coords[i] * lattice.gram[i][j] for i in range(n)) for j in range(n)
    )
    s = lattice.euler_sign
    return SquareIntMatrix(
        tuple(
            tuple((1 if i == j else 0) - s * coords[i] * row[j] for j in range(n))
            for i in range(n)
        )
    )


@dataclass(frozen=True)
class ActionWord:
    """A composable word of generators over one lattice, applied right-to-left."""

    lattice: BilinearLattice
    generators: tuple[Generator, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        rank = self.lattice.rank
        for i, gen in enumerate(self.generators):
            if isinstance(gen, (TensorClass, ExplicitMatrix)):
                if gen.matrix.n != rank:
                    raise InputError(
                        f"generator {i} has dimension {gen.matrix.n}, lattice rank {rank}"
                    )
            elif isinstance(gen, SphericalTwist):
                if len(gen.vector.coords) != rank:
                    raise InputError(
                        f"generator {i} class has length {len(gen.vector.coords)}, "
                        f"lattice rank {rank}"
                    )
                if not gen.whitelisted:
                    sp = self.lattice.pairing(gen.vector, gen.vector)
                    want = 2 * self.lattice.euler_sign
                    if sp != want:
                        raise InputError(
                            f"generator {i} class has self-pairing {sp}, "
                            f"spherical classes need {want} (or whitelist it)"
                        )
            elif not isinstance(gen, (Shift, PTwist)):
                raise InputError(f"unknown generator {gen!r}")


def generator_matrix(lattice: BilinearLattice, gen: Generator) -> SquareIntMatrix:
    if isinstance(gen, Shift):
        return shift_class_action(lattice)
    if isinstance(gen, PTwist):
        return p_twist_class_action(lattice)
    if isinstance(gen, TensorClass):
        return gen.matrix
    if isinstance(gen, SphericalTwist):
        return twist_class_action(lattice, gen.vector)
    if isinstance(gen, ExplicitMatrix):
        return gen.matrix
    raise InputError(f"unknown generator {gen!r}")


def induced_matrix(word: ActionWord) -> SquareIntMatrix:
    """Product of the generator matrices in application order."""
    result = SquareIntMatrix.identity(word.lattice.rank)
    for gen in word.generators:
        result = result @ generator_matrix(word.lattice, gen)
    return result


def log_rho_is_exact_zero(m: SquareIntMatrix) -> bool:
    """True when log of the spectral radius is certifiably zero.

    Covers unipotent actions and their compositions with shifts: if M or M^2
    is unipotent, every eigenvalue has modulus one.  trace(M^2) is read as
    sum m_ij m_ji first, so M^2 is only formed when its trace is n.
    """
    if is_unipotent(m):
        return True
    rows = m.entries
    trace_sq = sum(a * b for r, c in zip(rows, zip(*rows)) for a, b in zip(r, c))
    if trace_sq != m.n:
        return False
    return is_unipotent(m @ m)


def certify_log_rho(
    m: SquareIntMatrix, tol: float = DEFAULT_TOL
) -> tuple[float, bool]:
    """The one certificate for log of the spectral radius of an action.

    Returns ``(log_rho, exact_zero)``: ``(0.0, True)`` when the action is
    unipotent up to sign, otherwise the refined float value and False.  A
    nilpotent action has no logarithm and is an input error.
    """
    if log_rho_is_exact_zero(m):
        return 0.0, True
    rho = spectral_radius(m, tol)
    if rho == 0.0:
        raise InputError("nilpotent action: spectral radius 0 has no logarithm")
    return math.log(rho), False


def derive_verdict(
    bound: float | None,
    log_rho: float | None,
    exact_zero: bool,
    tol: float,
) -> str:
    """The one verdict gate: a violation needs a positive certified bound and
    either an exactly-zero log rho or a margin of ten tolerances."""
    if bound is None or log_rho is None or bound <= 0:
        return "no violation certified"
    if exact_zero or bound > log_rho + 10 * tol:
        return "GY violated"
    return "no violation certified"


@dataclass(frozen=True)
class Verdict:
    """One certified comparison of an entropy lower bound with log rho.

    ``details`` holds what the certifying function found, in report order.
    ``Verdict.of`` is the only place the gap and the verdict are computed.
    """

    entropy_lower: float | None
    empirical_slope: float | None
    log_rho: float | None
    log_rho_exact_zero: bool
    gap: float | None
    verdict: str
    series: BoundSeries | None
    details: dict

    @classmethod
    def of(cls, bound: float | None, log_rho: float | None, exact_zero: bool,
           tol: float, slope: float | None = None,
           series: BoundSeries | None = None, details: dict | None = None) -> Verdict:
        """The gap, when both sides exist, and the verdict of the one gate."""
        gap = None if bound is None or log_rho is None else bound - log_rho
        return cls(bound, slope, log_rho, exact_zero, gap,
                   derive_verdict(bound, log_rho, exact_zero, tol), series,
                   details or {})


def tensor_matrix_from_nilpotent(n: SquareIntMatrix) -> SquareIntMatrix:
    """Exponential of a nilpotent cup-product matrix, as an integer matrix.

    The exponential series terminates; each term is computed exactly over
    Fractions and the result must clear to integers.
    """
    from fractions import Fraction

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
