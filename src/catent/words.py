"""Autoequivalence words and their induced integer actions on a lattice.

A word is a list of generator objects, the normalized dicts that
``cli.validate_config`` produces and the report echoes.  Generators act at
the level of numerical classes only:

  * ``{"kind": "shift"}`` negates classes,
  * ``{"kind": "ptwist"}`` (a projective-space twist) is the identity,
  * ``{"kind": "tensor", "matrix": M}`` multiplies by the unipotent M, the
    class action of tensoring with a line bundle; ``"nilpotent": N`` in
    place of ``"matrix"`` gives M as the exponential of the cup-product
    matrix N, summed in integers,
  * ``{"kind": "spherical", "class": e}`` reflects along the spherical
    class e; ``"whitelisted": true`` skips the self-pairing check, for
    lattices that only stand in for the actual numerical lattice,
  * ``{"kind": "explicit", "matrix": M}`` injects an arbitrary integer action.

``generator_matrix`` is the one place that reads a generator's kind, and it
makes every check of a generator's values, for ``catent validate`` as for
the run.  Words compose right-to-left, matching functor composition: the first
generator in the list is applied last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InputError, is_int, shown
from .lattice import (
    DEFAULT_TOL,
    BilinearLattice,
    SquareIntMatrix,
    is_unipotent,
    spectral_radius,
)

if TYPE_CHECKING:
    from .twists import BoundSeries


def twist_class_action(lattice: BilinearLattice, e) -> SquareIntMatrix:
    """Class action of the spherical twist along the int sequence e.

    The class formula sends v to v - chi(e, v) e, where chi is the Euler
    pairing.  The lattice stores pairing = euler_sign * chi, so the matrix is
    I - euler_sign * e . (e^T G).  Under the Mukai convention (euler_sign -1)
    this is a reflection exactly at classes of self-pairing -2.
    """
    n = lattice.rank
    if len(e) != n:
        raise InputError(f"class has length {len(e)}, lattice rank {n}")
    row = tuple(sum(e[i] * lattice.gram[i][j] for i in range(n)) for j in range(n))
    s = lattice.euler_sign
    return SquareIntMatrix(
        tuple(
            tuple((1 if i == j else 0) - s * e[i] * row[j] for j in range(n))
            for i in range(n)
        )
    )


def generator_matrix(lattice: BilinearLattice, gen: dict, i: int) -> SquareIntMatrix:
    """Class action of generator ``gen``, the i-th of its word, on ``lattice``."""
    rank = lattice.rank
    kind = gen["kind"]
    if kind == "shift":
        return SquareIntMatrix.identity(rank).scaled(-1)
    if kind == "ptwist":
        return SquareIntMatrix.identity(rank)
    if kind == "spherical":
        e = gen["class"]
        if len(e) != rank:
            raise InputError(
                f"generator {i} class has length {len(e)}, lattice rank {rank}"
            )
        if not all(map(is_int, e)):
            raise InputError(
                f"generator {i} class entries must be integers, got {shown(e)}")
        if not gen.get("whitelisted", False):
            sp = lattice.pairing(e, e)
            want = 2 * lattice.euler_sign
            if sp != want:
                raise InputError(
                    f"generator {i} class has self-pairing {shown(sp)}, "
                    f"spherical classes need {want} (or whitelist it)"
                )
        return twist_class_action(lattice, e)
    if kind not in ("tensor", "explicit"):
        raise InputError(f"unknown generator {shown(gen)}")
    if "nilpotent" in gen:
        matrix = tensor_matrix_from_nilpotent(SquareIntMatrix(gen["nilpotent"]))
    else:
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

    The exponential series terminates at N^(size-1); with f = (size-1)!, the
    integer sum of N^k (f/k!) must divide by f entry by entry.
    """
    if not is_unipotent(n + SquareIntMatrix.identity(n.n)):
        raise InputError("matrix is not nilpotent")
    f = math.factorial(n.n - 1)
    acc = SquareIntMatrix.identity(n.n).scaled(f)
    power = SquareIntMatrix.identity(n.n)
    for k in range(1, n.n):
        power = power @ n
        if power.is_zero():
            break
        acc = acc + power.scaled(f // math.factorial(k))
    if any(x % f for row in acc.entries for x in row):
        raise InputError(
            "exponential of this nilpotent matrix is not integral; "
            "supply the unipotent class action directly"
        )
    return SquareIntMatrix(tuple(tuple(x // f for x in row) for row in acc.entries))
