import math
import random

import pytest

from catent.errors import InputError
from catent.lattice import (
    BilinearLattice,
    IntPolynomial,
    LatticeVector,
    SquareIntMatrix,
    is_unipotent,
    spectral_radius,
)
from catent.words import (
    ActionWord,
    ExplicitMatrix,
    PTwist,
    Shift,
    SphericalTwist,
    TensorClass,
    certify_log_rho,
    induced_matrix,
    p_twist_class_action,
    shift_class_action,
    tensor_matrix_from_nilpotent,
    twist_class_action,
)
from lattice_powers import companion_matrix

TOL = 1e-9

# Rank-3 Mukai-type lattice of a degree-10 polarized K3 restricted to
# (rank, divisor, point) classes; the structure sheaf class is (1, 0, 1).
MUKAI10 = BilinearLattice(((0, 0, -1), (0, 10, 0), (-1, 0, 0)), "symmetric")
SPHERICAL = LatticeVector((1, 0, 1))
# Class action of tensoring with the inverse polarization.
TENSOR10 = SquareIntMatrix(((1, 0, 0), (-1, 1, 0), (5, -10, 1)))


def unimodular(rng, n, steps=12):
    """Random unimodular matrix with its exact inverse, via elementary ops."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        # row_i += c * row_j on m  <->  col_j -= c * col_i on inv
        for k in range(n):
            m[i][k] += c * m[j][k]
        for k in range(n):
            inv[k][j] -= c * inv[k][i]
    return (
        SquareIntMatrix(tuple(tuple(r) for r in m)),
        SquareIntMatrix(tuple(tuple(r) for r in inv)),
    )


def random_matrix(rng, n, lo=-4, hi=4):
    return SquareIntMatrix(
        tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))
    )


# -- generator actions ---------------------------------------------------------


def test_twist_reflection_at_minus_two_class():
    m = twist_class_action(MUKAI10, SPHERICAL)
    assert MUKAI10.pairing(SPHERICAL, SPHERICAL) == -2
    assert (m @ m) == SquareIntMatrix.identity(3)
    assert m.apply((1, 0, 1)) == (-1, 0, -1)


def test_twist_zero_class_is_identity():
    assert twist_class_action(MUKAI10, (0, 0, 0)) == SquareIntMatrix.identity(3)


def test_twist_matches_per_basis_formula():
    # Oracle: expand v - euler_sign * <e, v> e on each basis vector.
    m = twist_class_action(MUKAI10, SPHERICAL)
    s = MUKAI10.euler_sign
    for j in range(3):
        basis = tuple(1 if i == j else 0 for i in range(3))
        pe = MUKAI10.pairing(SPHERICAL, basis)
        expected = tuple(
            basis[i] - s * pe * SPHERICAL.coords[i] for i in range(3)
        )
        assert m.apply(basis) == expected


def test_twist_dimension_mismatch():
    with pytest.raises(InputError):
        twist_class_action(MUKAI10, (1, 0))


def test_p_twist_is_identity():
    m = p_twist_class_action(MUKAI10)
    assert m == SquareIntMatrix.identity(3)
    assert (m @ m) == m
    assert spectral_radius(m, TOL) == 1.0


def test_shift_action():
    m = shift_class_action(BilinearLattice(((1, 0), (0, 1)), "symmetric"))
    assert m.entries == ((-1, 0), (0, -1))
    assert (m @ m) == SquareIntMatrix.identity(2)
    assert spectral_radius(m, TOL) == 1.0


# -- words ---------------------------------------------------------------------


def test_induced_matrix_empty_word():
    assert induced_matrix(ActionWord(MUKAI10)) == SquareIntMatrix.identity(3)


def test_induced_matrix_double_shift():
    w = ActionWord(MUKAI10, (Shift(), Shift()))
    assert induced_matrix(w) == SquareIntMatrix.identity(3)


def test_induced_matrix_twist_then_tensor():
    # Word applies tensor first, twist second; oracle applies the two maps
    # successively to each basis vector.
    w = ActionWord(MUKAI10, (SphericalTwist(SPHERICAL), TensorClass(TENSOR10)))
    m = induced_matrix(w)
    t = twist_class_action(MUKAI10, SPHERICAL)
    for j in range(3):
        basis = tuple(1 if i == j else 0 for i in range(3))
        expected = t.apply(TENSOR10.apply(basis))
        assert m.apply(basis) == expected


def test_word_concatenation_is_matrix_product():
    rng = random.Random(3)
    gens = (
        Shift(),
        PTwist(),
        SphericalTwist(SPHERICAL),
        TensorClass(TENSOR10),
        ExplicitMatrix(random_matrix(rng, 3)),
    )
    for _ in range(10):
        g1 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        g2 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        lhs = induced_matrix(ActionWord(MUKAI10, g1 + g2))
        rhs = induced_matrix(ActionWord(MUKAI10, g1)) @ induced_matrix(
            ActionWord(MUKAI10, g2)
        )
        assert lhs == rhs


def test_word_log_rho_p_twist_tensor_exact_zero():
    w = ActionWord(MUKAI10, (PTwist(), TensorClass(TENSOR10)))
    assert certify_log_rho(induced_matrix(w), TOL) == (0.0, True)
    assert is_unipotent(induced_matrix(w))


def test_word_log_rho_companion():
    m = companion_matrix(IntPolynomial((1, -3, 1)))
    lat = BilinearLattice(((1, 0), (0, 1)), "symmetric")
    w = ActionWord(lat, (ExplicitMatrix(m),))
    log_rho, exact_zero = certify_log_rho(induced_matrix(w), TOL)
    assert log_rho == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=TOL)
    assert not exact_zero


def test_word_log_rho_empty():
    assert certify_log_rho(induced_matrix(ActionWord(MUKAI10)), TOL) == (0.0, True)


def test_unipotent_words_have_exact_zero_log_rho():
    # Shift / identity-twist / unitriangular tensor words: the product is
    # plus-or-minus a unipotent matrix, so log rho must be exactly 0.0.
    rng = random.Random(41)
    lat = BilinearLattice(
        tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)),
        "symmetric",
    )
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(("shift", "ptwist", "tensor"))
            if kind == "shift":
                gens.append(Shift())
            elif kind == "ptwist":
                gens.append(PTwist())
            else:
                rows = [[0] * 4 for _ in range(4)]
                for i in range(4):
                    rows[i][i] = 1
                    for j in range(i + 1, 4):
                        rows[i][j] = rng.randint(-3, 3)
                gens.append(TensorClass(SquareIntMatrix(tuple(map(tuple, rows)))))
        m = induced_matrix(ActionWord(lat, tuple(gens)))
        assert certify_log_rho(m, TOL) == (0.0, True)
        assert is_unipotent(m) or is_unipotent(m @ m)


def test_conjugation_invariance_of_spectral_radius():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n)
        c, c_inv = unimodular(rng, n)
        assert (c @ c_inv) == SquareIntMatrix.identity(n)
        conj = c @ m @ c_inv
        assert abs(
            spectral_radius(conj, TOL) - spectral_radius(m, TOL)
        ) <= 1e-8


# -- validation ----------------------------------------------------------------


def test_tensor_class_requires_unipotent():
    with pytest.raises(InputError):
        TensorClass(SquareIntMatrix(((2, 0), (0, 1))))


def test_spherical_class_validated_with_whitelist_escape():
    bad = LatticeVector((0, 1, 0))  # self-pairing 10, not -2
    with pytest.raises(InputError):
        ActionWord(MUKAI10, (SphericalTwist(bad),))
    ActionWord(MUKAI10, (SphericalTwist(bad, whitelisted=True),))


def test_word_rejects_wrong_rank_generator():
    with pytest.raises(InputError):
        ActionWord(MUKAI10, (ExplicitMatrix(SquareIntMatrix.identity(2)),))


def test_tensor_matrix_from_nilpotent():
    n = SquareIntMatrix(((0, 0, 0), (-1, 0, 0), (0, -10, 0)))
    assert tensor_matrix_from_nilpotent(n) == TENSOR10
    with pytest.raises(InputError):
        tensor_matrix_from_nilpotent(SquareIntMatrix(((1, 0), (0, 1))))


def test_tensor_matrix_from_nilpotent_nonintegral():
    # exp of this nilpotent has a 1/2 entry that does not clear.
    n = SquareIntMatrix(((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    with pytest.raises(InputError):
        tensor_matrix_from_nilpotent(n)
