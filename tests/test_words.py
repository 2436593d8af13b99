import math
import random
import re

import pytest

from catent.errors import InputError
from catent.lattice import (
    BilinearLattice,
    IntPolynomial,
    SquareIntMatrix,
    is_unipotent,
    spectral_radius,
)
from catent.words import (
    certify_log_rho,
    generator_matrix,
    induced_matrix,
    tensor_matrix_from_nilpotent,
    twist_class_action,
)
from lattice_powers import companion_matrix, counted_products
from rational_reference import tensor_matrix_from_nilpotent as rational_exponential

TOL = 1e-9

# Rank-3 Mukai-type lattice of a degree-10 polarized K3 restricted to
# (rank, divisor, point) classes; the structure sheaf class is (1, 0, 1).
MUKAI10 = BilinearLattice(((0, 0, -1), (0, 10, 0), (-1, 0, 0)), "symmetric")
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
    # Oracle: expand v - euler_sign * <e, v> e on each basis vector.
    m = twist_class_action(MUKAI10, SPHERICAL)
    s = MUKAI10.euler_sign
    for j in range(3):
        basis = tuple(1 if i == j else 0 for i in range(3))
        pe = MUKAI10.pairing(SPHERICAL, basis)
        expected = tuple(
            basis[i] - s * pe * SPHERICAL[i] for i in range(3)
        )
        assert m.apply(basis) == expected


def test_twist_dimension_mismatch():
    with pytest.raises(InputError):
        twist_class_action(MUKAI10, (1, 0))


def test_p_twist_is_identity():
    m = generator_matrix(MUKAI10, PTWIST, 0)
    assert m == SquareIntMatrix.identity(3)
    assert (m @ m) == m
    assert spectral_radius(m, TOL) == 1.0


def test_shift_action():
    m = generator_matrix(BilinearLattice(((1, 0), (0, 1)), "symmetric"), SHIFT, 0)
    assert m.entries == ((-1, 0), (0, -1))
    assert (m @ m) == SquareIntMatrix.identity(2)
    assert spectral_radius(m, TOL) == 1.0


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
    assert certify_log_rho(m, TOL) == (0.0, True)
    assert is_unipotent(m)


def test_word_log_rho_companion():
    m = companion_matrix(IntPolynomial((1, -3, 1)))
    lat = BilinearLattice(((1, 0), (0, 1)), "symmetric")
    log_rho, exact_zero = certify_log_rho(induced_matrix(lat, [explicit(m)]), TOL)
    assert log_rho == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=TOL)
    assert not exact_zero


def test_word_log_rho_empty():
    assert certify_log_rho(induced_matrix(MUKAI10, []), TOL) == (0.0, True)


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
    lat = BilinearLattice(((1, 0), (0, 1)), "symmetric")
    tensor = {"kind": "tensor", "matrix": [[2, 0], [0, 1]]}
    with pytest.raises(InputError, match="^generator 0 tensor matrix must be unipotent$"):
        generator_matrix(lat, tensor, 0)
    # The same matrix is a valid explicit action.
    assert generator_matrix(lat, {**tensor, "kind": "explicit"}, 0).entries == (
        (2, 0), (0, 1))


def test_spherical_class_validated_with_whitelist_escape():
    bad = {"kind": "spherical", "class": [0, 1, 0]}  # self-pairing 10, not -2
    with pytest.raises(InputError, match=(
        r"^generator 1 class has self-pairing 10, spherical classes need -2 "
        r"\(or whitelist it\)$"
    )):
        induced_matrix(MUKAI10, [PTWIST, bad])
    whitelisted = {**bad, "whitelisted": True}
    assert induced_matrix(MUKAI10, [PTWIST, whitelisted]) == twist_class_action(
        MUKAI10, (0, 1, 0))


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
    for whitelisted in (False, True):
        gen = {"kind": "spherical", "class": entries, "whitelisted": whitelisted}
        with pytest.raises(InputError, match=re.escape(
                f"generator 1 class entries must be integers, got {entries!r}")):
            induced_matrix(MUKAI10, [SHIFT, gen])


def test_unknown_generator_kind_rejected():
    with pytest.raises(InputError, match="unknown generator"):
        induced_matrix(MUKAI10, [{"kind": "rotate", "matrix": [[1]]}])


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


def test_tensor_exponential_matches_rational_reference():
    # Conjugates of strictly lower-triangular matrices are nilpotent, and
    # their exponentials are integral only sometimes; the plain random
    # matrices are rarely nilpotent.  The integer sum must equal the
    # Fraction sum, or fail with the same message.
    rng = random.Random(1303)
    agreed = rejected = 0
    for case in range(1500):
        n = rng.randint(1, 6)
        if case % 2:
            m = SquareIntMatrix(tuple(
                tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)))
        else:
            low = SquareIntMatrix(tuple(
                tuple(rng.randint(-3, 3) if j < i else 0 for j in range(n))
                for i in range(n)))
            c = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            c_inv = [row[:] for row in c]
            for _ in range(n):
                if n < 2:
                    break
                i, j = rng.sample(range(n), 2)
                f = rng.choice([-1, 1])
                for k in range(n):
                    c[i][k] += f * c[j][k]
                for k in range(n):
                    c_inv[k][j] -= f * c_inv[k][i]
            cm = SquareIntMatrix(tuple(map(tuple, c)))
            m = cm @ low @ SquareIntMatrix(tuple(map(tuple, c_inv)))
        try:
            want = rational_exponential(m)
        except InputError as exc:
            with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                tensor_matrix_from_nilpotent(m)
            rejected += 1
            continue
        assert tensor_matrix_from_nilpotent(m) == want
        agreed += 1
    assert agreed > 300 and rejected > 800
