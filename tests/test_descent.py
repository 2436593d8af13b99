import math
import random

import pytest

from catent import descent
from catent.descent import (
    CoverScenario,
    commutes_with_deck,
    integer_kernel_basis,
    invariant_sublattice,
    quotient_verdict,
)
from catent.errors import ContractError, InputError
from catent.lattice import BilinearLattice, SquareIntMatrix, is_unipotent, spectral_radius
from catent.words import induced_matrix

TOL = 1e-9

Z2 = BilinearLattice(((1, 0), (0, 1)), "symmetric")
SWAP = SquareIntMatrix(((0, 1), (1, 0)))
SHEAR = SquareIntMatrix(((1, 1), (0, 1)))


def rank4_cover():
    # Mukai-style rank-3 block plus one anti-invariant direction.
    lattice = BilinearLattice(
        ((0, 0, -1, 0), (0, 2, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -2)),
        "symmetric",
    )
    deck = SquareIntMatrix(
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
    )
    tensor = [[1, 0, 0, 0], [-1, 1, 0, 0], [1, -2, 1, 0], [0, 0, 0, 1]]
    word = [{"kind": "ptwist"}, {"kind": "tensor", "matrix": tensor}]
    return CoverScenario(lattice, deck, 2, induced_matrix(lattice, word), math.log(6))


# -- integer kernel ---------------------------------------------------------------


def test_kernel_of_zero_map_is_everything():
    basis = integer_kernel_basis(SquareIntMatrix.identity(3).scaled(0))
    assert len(basis) == 3


def test_kernel_swap_fixed_line():
    fixed = SWAP - SquareIntMatrix.identity(2)
    basis = integer_kernel_basis(fixed)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] and abs(v[0]) == 1  # primitive (1, 1) up to sign


def test_kernel_is_saturated():
    # 2x + 2y = 0 has primitive kernel vector (1, -1), not (2, -2).
    m = SquareIntMatrix(((2, 2), (0, 0)))
    basis = integer_kernel_basis(m)
    assert len(basis) == 1
    assert sorted(map(abs, basis[0])) == [1, 1]


def test_kernel_random_members_annihilate():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        m = SquareIntMatrix(
            tuple(
                tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)
            )
        )
        for v in integer_kernel_basis(m):
            assert m.apply(v) == (0,) * n


# -- scenario validation -------------------------------------------------------------


def test_deck_order_checked_at_construction():
    identity = SquareIntMatrix.identity(2)
    with pytest.raises(InputError):
        CoverScenario(Z2, SHEAR, 2, identity, 0.0)
    CoverScenario(Z2, SWAP, 2, identity, 0.0)


def test_deck_dimension_checked():
    with pytest.raises(InputError):
        CoverScenario(Z2, SquareIntMatrix.identity(3), 1, SWAP, 0.0)


def test_action_dimension_checked():
    with pytest.raises(InputError, match="word acts on a lattice of different rank"):
        CoverScenario(Z2, SWAP, 2, SquareIntMatrix.identity(3), 0.0)


# -- commutation -----------------------------------------------------------------


def test_p_twist_word_always_commutes():
    action = induced_matrix(Z2, [{"kind": "ptwist"}])
    sc = CoverScenario(Z2, SWAP, 2, action, 1.0)
    assert commutes_with_deck(sc)


def test_invariant_tensor_commutes():
    sc = rank4_cover()
    assert commutes_with_deck(sc)


def test_non_invariant_tensor_fails_commutation():
    # Oracle: [[1,1],[0,1]] and the swap do not commute (direct 2x2 product).
    sc = CoverScenario(Z2, SWAP, 2, SHEAR, 1.0)
    assert not commutes_with_deck(sc)
    with pytest.raises(ContractError):
        invariant_sublattice(sc)


# -- invariant sublattice --------------------------------------------------------------


def test_trivial_deck_restricts_to_original():
    sc = CoverScenario(Z2, SquareIntMatrix.identity(2), 1, SHEAR, 0.5)
    basis, restricted = invariant_sublattice(sc)
    assert len(basis) == 2
    assert spectral_radius(restricted, TOL) == pytest.approx(
        spectral_radius(SHEAR, TOL), abs=1e-8
    )


def test_swap_invariants_identity_word():
    sc = CoverScenario(Z2, SWAP, 2, SquareIntMatrix.identity(2), 0.0)
    basis, restricted = invariant_sublattice(sc)
    assert len(basis) == 1 and abs(basis[0][0]) == 1
    assert restricted.entries == ((1,),)


def test_swap_invariants_and_doubling_word():
    word = [{"kind": "explicit", "matrix": [[0, 1], [1, 0]]},
            {"kind": "explicit", "matrix": [[2, 0], [0, 2]]}]
    sc = CoverScenario(Z2, SWAP, 2, induced_matrix(Z2, word), 0.0)
    basis, restricted = invariant_sublattice(sc)
    assert len(basis) == 1
    # Oracle: the word sends (1, 1) to (2, 2), so the restriction is [2].
    assert restricted.entries == ((2,),)


def test_fixed_free_deck_rejected():
    minus = SquareIntMatrix.identity(2).scaled(-1)
    sc = CoverScenario(Z2, minus, 2, SquareIntMatrix.identity(2), 1.0)
    with pytest.raises(InputError):
        invariant_sublattice(sc)


def test_restriction_never_exceeds_ambient_radius():
    rng = random.Random(17)
    found = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        # Build a commuting pair: deck permutes blocks, action is block-scalar.
        perm = list(range(n))
        rng.shuffle(perm)
        deck = SquareIntMatrix(
            tuple(
                tuple(1 if j == perm[i] else 0 for j in range(n)) for i in range(n)
            )
        )
        c = rng.randint(-3, 3)
        action = SquareIntMatrix.identity(n).scaled(c)
        order = 1
        p = deck
        while p != SquareIntMatrix.identity(n):
            p = p @ deck
            order += 1
        lat = BilinearLattice(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
            "symmetric",
        )
        sc = CoverScenario(lat, deck, order, action, 0.0)
        if not commutes_with_deck(sc):
            continue
        try:
            basis, restricted = invariant_sublattice(sc)
        except InputError:
            continue
        found += 1
        assert spectral_radius(restricted, TOL) <= spectral_radius(action, TOL) + 1e-8
    assert found > 50


# -- quotient verdict -------------------------------------------------------------------


def test_quotient_verdict_hyperkahler_cover():
    sc = rank4_cover()
    verdict = quotient_verdict(sc)
    assert verdict.verdict == "GY violated"
    assert verdict.entropy_lower == pytest.approx(math.log(6))
    assert verdict.log_rho == 0.0
    assert verdict.log_rho_exact_zero
    assert verdict.details["quotient_rank"] == 3


def test_quotient_verdict_no_bound_no_claim():
    sc = CoverScenario(Z2, SWAP, 2, SquareIntMatrix.identity(2), 0.0)
    verdict = quotient_verdict(sc)
    assert verdict.verdict == "no violation certified"


def test_quotient_verdict_non_unipotent_inequality():
    big = SquareIntMatrix(((2, 1), (1, 1)))
    sc = CoverScenario(Z2, SquareIntMatrix.identity(2), 1, big, 0.1)
    verdict = quotient_verdict(sc)
    assert not verdict.log_rho_exact_zero
    assert verdict.log_rho <= verdict.details["cover_log_rho"] + 1e-8
    assert verdict.details["quotient_rank"] == 2


def test_unipotent_cover_forces_unipotent_restriction():
    sc = rank4_cover()
    _, restricted = invariant_sublattice(sc)
    assert is_unipotent(restricted)


def test_exact_zero_cover_with_growing_restriction_is_a_contract_error(
    monkeypatch,
):
    growing = SquareIntMatrix(((2, 1), (1, 1)))
    monkeypatch.setattr(
        descent, "invariant_sublattice", lambda sc: (((1, 0), (0, 1)), growing)
    )
    with pytest.raises(ContractError):
        quotient_verdict(rank4_cover())
