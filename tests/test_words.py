import math
import random
import re

import pytest

from catent.errors import InputError
from catent.lattice import (
    BilinearLattice,
    SquareIntMatrix,
    char_poly,
    is_unipotent,
    spectral_radius,
)
from catent.words import (
    LogRho,
    certify_log_rho,
    derive_verdict,
    generator_matrix,
    induced_matrix,
    twist_class_action,
)
from lattice_powers import companion_matrix, counted_products

TOL = 1e-9

# Rank-3 Mukai-type lattice of a degree-10 polarized K3 restricted to
# (rank, divisor, point) classes; the structure sheaf class is (1, 0, 1).
MUKAI10 = BilinearLattice(((0, 0, -1), (0, 10, 0), (-1, 0, 0)))
SPHERICAL = (1, 0, 1)
# Class action of tensoring with the inverse polarization.
TENSOR10 = SquareIntMatrix(((1, 0, 0), (-1, 1, 0), (5, -10, 1)))
SHIFT = {"kind": "shift"}
PTWIST = {"kind": "ptwist"}
TWIST = {"kind": "spherical", "class": list(SPHERICAL)}
TENSOR = {"kind": "tensor", "matrix": [list(row) for row in TENSOR10.entries]}


def explicit(m: SquareIntMatrix) -> dict:
    return {"kind": "explicit", "matrix": [list(row) for row in m.entries]}


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
    # Oracle: expand v + <e, v> e on each basis vector.
    m = twist_class_action(MUKAI10, SPHERICAL)
    for j in range(3):
        basis = tuple(1 if i == j else 0 for i in range(3))
        pe = MUKAI10.pairing(SPHERICAL, basis)
        expected = tuple(basis[i] + pe * SPHERICAL[i] for i in range(3))
        assert m.apply(basis) == expected


def test_twist_dimension_mismatch():
    with pytest.raises(InputError):
        twist_class_action(MUKAI10, (1, 0))


def test_p_twist_is_identity():
    m = generator_matrix(MUKAI10, PTWIST, 0)
    assert m == SquareIntMatrix.identity(3)
    assert (m @ m) == m
    assert spectral_radius(char_poly(m)) == 1.0


def test_shift_action():
    m = generator_matrix(BilinearLattice(((1, 0), (0, 1))), SHIFT, 0)
    assert m.entries == ((-1, 0), (0, -1))
    assert (m @ m) == SquareIntMatrix.identity(2)
    assert spectral_radius(char_poly(m)) == 1.0


# -- words ---------------------------------------------------------------------


def test_induced_matrix_empty_word():
    assert induced_matrix(MUKAI10, []) == SquareIntMatrix.identity(3)


def test_induced_matrix_double_shift():
    assert induced_matrix(MUKAI10, [SHIFT, SHIFT]) == SquareIntMatrix.identity(3)


def test_induced_matrix_twist_then_tensor():
    # Word applies tensor first, twist second; oracle applies the two maps
    # successively to each basis vector.
    m = induced_matrix(MUKAI10, [TWIST, TENSOR])
    t = twist_class_action(MUKAI10, SPHERICAL)
    for j in range(3):
        basis = tuple(1 if i == j else 0 for i in range(3))
        expected = t.apply(TENSOR10.apply(basis))
        assert m.apply(basis) == expected


def _fold_from_identity(lattice, word):
    """The word's action as a fold from I, one plain product per generator."""
    n = lattice.rank
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, gen in enumerate(word):
        cols = list(zip(*generator_matrix(lattice, gen, i).entries))
        rows = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in rows]
    return SquareIntMatrix(tuple(map(tuple, rows)))


@pytest.mark.parametrize("word", [
    [], [SHIFT], [SHIFT] * 2, [SHIFT] * 3, [SHIFT] * 4, [PTWIST], [PTWIST] * 3,
    [SHIFT, PTWIST, SHIFT, PTWIST, SHIFT],
])
def test_induced_matrix_of_scalar_words_matches_fold_from_identity(word):
    assert induced_matrix(MUKAI10, word) == _fold_from_identity(MUKAI10, word)


def test_induced_matrix_matches_fold_from_identity():
    rng = random.Random(2003)
    ident = SquareIntMatrix.identity(3)
    gens = (SHIFT, PTWIST, TWIST, TENSOR, explicit(random_matrix(rng, 3)),
            explicit(random_matrix(rng, 3)), explicit(ident.scaled(-2)),
            explicit(ident.scaled(0)), {**explicit(ident), "kind": "tensor"})
    for _ in range(300):
        word = [rng.choice(gens) for _ in range(rng.randint(0, 6))]
        assert induced_matrix(MUKAI10, word) == _fold_from_identity(MUKAI10, word)


def test_scalar_generators_enter_no_matrix_product():
    word = [SHIFT, PTWIST, TENSOR, SHIFT, TWIST]
    with counted_products() as products:
        m = induced_matrix(MUKAI10, word)
    assert len(products) == 1  # TENSOR10 times the twist
    assert m == _fold_from_identity(MUKAI10, word)


def test_word_concatenation_is_matrix_product():
    rng = random.Random(3)
    gens = (SHIFT, PTWIST, TWIST, TENSOR, explicit(random_matrix(rng, 3)))
    for _ in range(10):
        g1 = [rng.choice(gens) for _ in range(rng.randint(0, 3))]
        g2 = [rng.choice(gens) for _ in range(rng.randint(0, 3))]
        lhs = induced_matrix(MUKAI10, g1 + g2)
        rhs = induced_matrix(MUKAI10, g1) @ induced_matrix(MUKAI10, g2)
        assert lhs == rhs


def test_word_log_rho_p_twist_tensor_exact_zero():
    m = induced_matrix(MUKAI10, [PTWIST, TENSOR])
    assert certify_log_rho(char_poly(m)) == LogRho(0.0, None)
    assert is_unipotent(m)


def test_word_log_rho_companion():
    m = companion_matrix((1, -3, 1))
    lat = BilinearLattice(((1, 0), (0, 1)))
    log_rho = certify_log_rho(char_poly(induced_matrix(lat, [explicit(m)])))
    assert log_rho.value == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=TOL)
    assert not log_rho.exact_zero and log_rho.poly == (1, -3, 1)


@pytest.mark.parametrize("digits", [161, 300])
def test_log_rho_of_a_large_radius_meets_tol(digits):
    # the refinement's accuracy bounds the error of log rho however large
    # rho is
    log_rho = certify_log_rho(char_poly(SquareIntMatrix(((10**digits,),))))
    assert log_rho.value == pytest.approx(digits * math.log(10), abs=TOL)
    assert log_rho.poly == (-10**digits, 1)


# -- the gate -------------------------------------------------------------------


def test_the_gate_on_an_exact_zero_needs_a_base_above_one():
    exact_zero = LogRho(0.0, None)
    assert derive_verdict(2, exact_zero) == "GY violated"
    for base in (1, None):
        assert derive_verdict(base, exact_zero) == "no violation certified"
    assert derive_verdict(2, None) == "no violation certified"


# The surface word at q = 2*10^9: rho = 999999997.999999998999..., against
# d_1 = 10^9 + 2.  The float gap is about 4.0e-9, and rho is 1e-9 below the
# int 999999998, closer than the float spacing there (1.2e-7): the int
# comparison decides both exactly.
CLOSE_CALL_POLY = (1, 999999999, 999999999, 1)


def test_the_gate_decides_the_close_call_exactly():
    log_rho = certify_log_rho(char_poly(companion_matrix(CLOSE_CALL_POLY)))
    assert log_rho.poly == CLOSE_CALL_POLY
    assert math.log(10**9 + 2) - log_rho.value == pytest.approx(4.0e-9, rel=0.01)
    assert derive_verdict(10**9 + 2, log_rho) == "GY violated"
    assert derive_verdict(999999998, log_rho) == "GY violated"
    assert derive_verdict(999999997, log_rho) == "no violation certified"


def test_the_gate_reads_the_polynomial_not_the_value():
    # The value does not enter the gate: rho = 2, and rho = 2.618... of
    # x^2 - 3x + 1, are each below base 3 and not below base 2.
    assert derive_verdict(2, LogRho(0.0, (-2, 1))) == "no violation certified"
    assert derive_verdict(3, LogRho(99.0, (-2, 1))) == "GY violated"
    assert derive_verdict(2, LogRho(0.0, (1, -3, 1))) == "no violation certified"
    assert derive_verdict(3, LogRho(0.0, (1, -3, 1))) == "GY violated"


def test_word_log_rho_empty():
    assert certify_log_rho(char_poly(induced_matrix(MUKAI10, []))) == LogRho(0.0, None)


def test_unipotent_words_have_exact_zero_log_rho():
    # Shift / identity-twist / unitriangular tensor words: the product is
    # plus-or-minus a unipotent matrix, so log rho must be exactly 0.0.
    rng = random.Random(41)
    lat = BilinearLattice(
        tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    )
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(("shift", "ptwist", "tensor"))
            if kind == "tensor":
                rows = [[0] * 4 for _ in range(4)]
                for i in range(4):
                    rows[i][i] = 1
                    for j in range(i + 1, 4):
                        rows[i][j] = rng.randint(-3, 3)
                gens.append({"kind": "tensor", "matrix": rows})
            else:
                gens.append({"kind": kind})
        m = induced_matrix(lat, gens)
        assert certify_log_rho(char_poly(m)) == LogRho(0.0, None)
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
            spectral_radius(char_poly(conj)) - spectral_radius(char_poly(m))
        ) <= 1e-8


# -- validation ----------------------------------------------------------------


def test_tensor_class_requires_unipotent():
    lat = BilinearLattice(((1, 0), (0, 1)))
    tensor = {"kind": "tensor", "matrix": [[2, 0], [0, 1]]}
    with pytest.raises(InputError, match="^generator 0 tensor matrix must be unipotent$"):
        generator_matrix(lat, tensor, 0)
    # The same matrix is a valid explicit action.
    assert generator_matrix(lat, {**tensor, "kind": "explicit"}, 0).entries == (
        (2, 0), (0, 1))


def test_explicit_generator_reads_its_matrix_only():
    # A nilpotent beside the matrix once replaced it by the nilpotent's
    # exponential, here the identity; no generator reads that key now.
    lat = BilinearLattice(((1, 0), (0, 1)))
    gen = {"kind": "explicit", "matrix": [[2, 1], [1, 1]], "nilpotent": [[0, 0], [0, 0]]}
    assert generator_matrix(lat, gen, 0).entries == ((2, 1), (1, 1))
    shear = {"kind": "tensor", "matrix": [[1, 1], [0, 1]], "nilpotent": [[0, 0], [0, 0]]}
    assert generator_matrix(lat, shear, 0).entries == ((1, 1), (0, 1))


@pytest.mark.parametrize("gen, message", [
    ({"kind": "tensor"}, "generator 1 has no matrix"),
    ({"kind": "explicit"}, "generator 1 has no matrix"),
    ({"kind": "spherical"}, "generator 1 class must be a list of integers, got None"),
    ({"kind": "spherical", "class": 101},
     "generator 1 class must be a list of integers, got 101"),
])
def test_generator_without_its_value_is_an_input_error(gen, message):
    # Through the Python API these were a bare KeyError or TypeError.
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        induced_matrix(MUKAI10, [SHIFT, gen])


def test_spherical_class_needs_the_spherical_self_pairing():
    bad = {"kind": "spherical", "class": [0, 1, 0]}  # self-pairing 10, not -2
    with pytest.raises(InputError, match=(
        r"^generator 1 class has self-pairing 10, spherical classes need -2$"
    )):
        induced_matrix(MUKAI10, [PTWIST, bad])


def test_word_rejects_wrong_rank_generator():
    cases = [
        (explicit(SquareIntMatrix.identity(2)), "has dimension 2"),
        ({"kind": "tensor", "matrix": [[1, 0], [0, 1]]}, "has dimension 2"),
        ({"kind": "spherical", "class": [1, 0]}, "class has length 2"),
    ]
    for gen, what in cases:
        with pytest.raises(InputError, match=f"^generator 1 {what}, lattice rank 3$"):
            induced_matrix(MUKAI10, [SHIFT, gen])


@pytest.mark.parametrize("entries", [[True, 0, True], [1.0, 0, 1], ["1", 0, 1]])
def test_spherical_class_entries_must_be_integers(entries):
    # True would pass the self-pairing check as 1, and a str would end in a
    # TypeError inside the pairing.
    gen = {"kind": "spherical", "class": entries}
    with pytest.raises(InputError, match=re.escape(
            f"generator 1 class must be a list of integers, got {entries!r}")):
        induced_matrix(MUKAI10, [SHIFT, gen])


def test_unknown_generator_kind_rejected():
    # A generator that is not a dict was a bare TypeError.
    for gen in ({"kind": "rotate", "matrix": [[1]]}, "shift", [[1]]):
        with pytest.raises(InputError, match="unknown generator"):
            induced_matrix(MUKAI10, [gen])
