"""Autoequivalence words and their induced integer actions on a lattice.

A word is a list of generator objects, the normalized dicts that
``cli.validate_config`` produces and the report echoes.  Generators act at
the level of numerical classes only:

  * ``{"kind": "shift"}`` negates classes,
  * ``{"kind": "ptwist"}`` (a projective-space twist) is the identity,
  * ``{"kind": "tensor", "matrix": M}`` multiplies by the unipotent M, the
    class action of tensoring with a line bundle,
  * ``{"kind": "spherical", "class": e}`` reflects along the spherical
    class e, whose self-pairing must be -2 (the Mukai pairing),
  * ``{"kind": "explicit", "matrix": M}`` injects an arbitrary integer action.

``generator_matrix`` is the one place that reads a generator's kind, and it
makes every check of a generator's values, for ``catent validate`` as for
the run.  Words compose right-to-left, matching functor composition: the first
generator in the list is applied last.  ``certify_log_rho`` reads only the
characteristic polynomial of a word's action, so the word gets the same
``log rho`` certificate whichever scenario kind reaches it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InputError, is_int, shown
from .lattice import (
    BilinearLattice,
    Poly,
    SquareIntMatrix,
    is_unipotent,
    roots_inside,
    spectral_radius,
)

if TYPE_CHECKING:
    from .twists import BoundSeries


def twist_class_action(lattice: BilinearLattice, e) -> SquareIntMatrix:
    """Class action of the spherical twist along the int sequence e.

    The class formula sends v to v - chi(e, v) e, where chi is the Euler
    pairing.  The lattice stores the Mukai pairing <e, v> = -chi(e, v), so
    the matrix is I + e . (e^T G), a reflection exactly at classes of
    self-pairing -2.
    """
    n = lattice.rank
    if len(e) != n:
        raise InputError(f"class has length {len(e)}, lattice rank {n}")
    row = tuple(sum(e[i] * lattice.gram[i][j] for i in range(n)) for j in range(n))
    return SquareIntMatrix(tuple(
        tuple(int(i == j) + e[i] * row[j] for j in range(n)) for i in range(n)))


def generator_matrix(lattice: BilinearLattice, gen: dict, i: int) -> SquareIntMatrix:
    """Class action of generator ``gen``, the i-th of its word, on ``lattice``."""
    rank = lattice.rank
    kind = gen.get("kind") if isinstance(gen, dict) else None
    if kind == "shift":
        return SquareIntMatrix.identity(rank).scaled(-1)
    if kind == "ptwist":
        return SquareIntMatrix.identity(rank)
    if kind == "spherical":
        e = gen.get("class")
        if not isinstance(e, (list, tuple)) or not all(map(is_int, e)):
            raise InputError(
                f"generator {i} class must be a list of integers, got {shown(e)}")
        if len(e) != rank:
            raise InputError(
                f"generator {i} class has length {len(e)}, lattice rank {rank}"
            )
        if (sp := lattice.pairing(e, e)) != -2:
            raise InputError(f"generator {i} class has self-pairing {shown(sp)}, "
                             "spherical classes need -2")
        return twist_class_action(lattice, e)
    if kind not in ("tensor", "explicit"):
        raise InputError(f"unknown generator {shown(gen)}")
    if "matrix" not in gen:
        raise InputError(f"generator {i} has no matrix")
    matrix = SquareIntMatrix(gen["matrix"])
    if matrix.n != rank:
        raise InputError(f"generator {i} has dimension {matrix.n}, lattice rank {rank}")
    if kind == "tensor" and not is_unipotent(matrix):
        raise InputError(f"generator {i} tensor matrix must be unipotent")
    return matrix


def induced_matrix(lattice: BilinearLattice, word) -> SquareIntMatrix:
    """Product of the generator matrices of ``word`` in application order.

    A generator matrix equal to c*I, such as a shift's or a ptwist's,
    commutes with every matrix, so it scales the product by c instead of
    entering a matrix product.  The product starts from the first other
    generator, not from I.
    """
    scale, result = 1, None
    for i, gen in enumerate(word):
        matrix = generator_matrix(lattice, gen, i)
        c = matrix.scalar()
        if c is not None:
            scale *= c
        else:
            result = matrix if result is None else result @ matrix
    if result is None:
        return SquareIntMatrix.identity(lattice.rank).scaled(scale)
    return result if scale == 1 else result.scaled(scale)


def log_rho_is_exact_zero(poly: Poly) -> bool:
    """True iff poly = (x - 1)^a (x + 1)^b, by exact int synthetic division
    by x - 1, then by x + 1.  By Cayley-Hamilton this is the matrix test "M
    or M^2 is unipotent", as M^2 is unipotent iff every eigenvalue is +-1."""
    p = list(poly)
    for root in (1, -1):
        while len(p) > 1:  # Horner: the quotient's coefficients, then p(root)
            q = list(itertools.accumulate(reversed(p), lambda a, c: a * root + c))
            if q.pop():
                break
            p = q[::-1]
    return p == [1]


@dataclass(frozen=True)
class LogRho:
    """A certified log of the spectral radius of an action.

    ``poly`` is the characteristic polynomial that ``value``, a refined
    float estimate, came from, and the gate reads it; it is None for an
    exact zero, whose ``value`` is exactly 0.0.  After a ``hilb`` lift,
    ``value`` is the base's scaled by the number of points and ``poly`` is
    still the base's.
    """

    value: float
    poly: Poly | None

    @property
    def exact_zero(self) -> bool:
        return self.poly is None


def certify_log_rho(poly: Poly) -> LogRho:
    """The one certificate for log of the spectral radius of an action, from
    its characteristic polynomial ``poly`` alone: an exact 0.0 when every
    root is 1 or -1, otherwise the refined float value with ``poly``.  A
    nilpotent action has no logarithm and is an input error."""
    if log_rho_is_exact_zero(poly):
        return LogRho(0.0, None)
    rho = spectral_radius(poly)
    if rho == 0.0:
        raise InputError("nilpotent action: spectral radius 0 has no logarithm")
    return LogRho(math.log(rho), poly)


def derive_verdict(base: int | None, log_rho: LogRho | None) -> str:
    """The one verdict gate, exact: a violation is log base > log rho, base
    the int whose log is the certified bound.  An exact zero is one iff
    base > 1, any other log rho iff ``roots_inside(poly, base)``."""
    if base is None or log_rho is None or base <= 1:
        return "no violation certified"
    if log_rho.exact_zero or roots_inside(log_rho.poly, base):
        return "GY violated"
    return "no violation certified"


@dataclass(frozen=True)
class Verdict:
    """One certified comparison of an entropy lower bound with log rho.

    ``base`` is the int whose log, per point, is the bound ``entropy_lower``.
    ``details`` holds what the certifying function found, in report order.
    ``Verdict.of`` is the only place the gap and the verdict are computed.
    """

    base: int | None
    entropy_lower: float | None
    empirical_slope: float | None
    log_rho: LogRho | None
    gap: float | None
    verdict: str
    series: BoundSeries | None
    details: dict

    @classmethod
    def of(cls, base: int | None, log_rho: LogRho | None,
           slope: float | None = None, series: BoundSeries | None = None,
           details: dict | None = None, points: int = 1) -> Verdict:
        """The bound ``points`` log base, the gap, when both sides exist, and
        the verdict of the one gate on base, the int d_1 of a model."""
        bound = None if base is None else points * math.log(base)
        gap = None if bound is None or log_rho is None else bound - log_rho.value
        return cls(base, bound, slope, log_rho, gap, derive_verdict(base, log_rho),
                   series, details or {})
