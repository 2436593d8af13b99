import math
import random
import re
import sys

import pytest

from catent import descent, words
from catent.cli import load_config, run_scenario
from catent.descent import CoverScenario, integer_kernel_basis, quotient_verdict
from catent.errors import ContractError, InputError
from catent.lattice import (
    BilinearLattice,
    SquareIntMatrix,
    char_poly,
    is_unipotent,
    spectral_radius,
)
from catent.words import LogRho, Verdict, certify_log_rho, induced_matrix
from lattice_powers import counted_products
from rational_reference import kernel_basis, restrict_to_basis

Z2 = BilinearLattice(((1, 0), (0, 1)))
SWAP = SquareIntMatrix(((0, 1), (1, 0)))
SHEAR = SquareIntMatrix(((1, 1), (0, 1)))


def _product(left, basis):
    """left . basis^T, as rows."""
    return tuple(tuple(sum(a * b for a, b in zip(row, v)) for v in basis)
                 for row in left)


def _matrix(rows):
    return SquareIntMatrix(tuple(map(tuple, rows)))


def _random_matrix(rng, n):
    """An n x n product of n x r and r x n factors: rank at most r, so the
    kernel is often nontrivial."""
    r = rng.randint(0, n)
    a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    return _matrix([[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)]
                    for i in range(n)])


def rank4_cover():
    # Mukai-style rank-3 block plus one anti-invariant direction.
    lattice = BilinearLattice(
        ((0, 0, -1, 0), (0, 2, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -2))
    )
    deck = SquareIntMatrix(
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
    )
    tensor = [[1, 0, 0, 0], [-1, 1, 0, 0], [1, -2, 1, 0], [0, 0, 0, 1]]
    word = [{"kind": "ptwist"}, {"kind": "tensor", "matrix": tensor}]
    return CoverScenario(deck, 2, induced_matrix(lattice, word))


# -- integer kernel ---------------------------------------------------------------


def test_kernel_of_zero_map_is_everything():
    basis, left = integer_kernel_basis(SquareIntMatrix.identity(3).scaled(0))
    assert len(basis) == 3
    assert _product(left, basis) == SquareIntMatrix.identity(3).entries


def test_kernel_swap_fixed_line():
    fixed = SWAP - SquareIntMatrix.identity(2)
    basis, left = integer_kernel_basis(fixed)
    assert len(basis) == 1
    assert _product(left, basis) == ((1,),)
    v = basis[0]
    assert v[0] == v[1] and abs(v[0]) == 1  # primitive (1, 1) up to sign


def test_kernel_is_saturated():
    # 2x + 2y = 0 has primitive kernel vector (1, -1), not (2, -2).
    m = SquareIntMatrix(((2, 2), (0, 0)))
    basis, left = integer_kernel_basis(m)
    assert len(basis) == 1
    assert sorted(map(abs, basis[0])) == [1, 1]
    assert _product(left, basis) == ((1,),)


def test_kernel_random_members_annihilate():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        m = SquareIntMatrix(
            tuple(
                tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)
            )
        )
        for v in integer_kernel_basis(m)[0]:
            assert m.apply(v) == (0,) * n


def test_kernel_basis_matches_reference_with_left_inverse():
    rng = random.Random(1301)
    nonempty = 0
    for _ in range(1500):
        m = _random_matrix(rng, rng.randint(1, 6))
        basis, left = integer_kernel_basis(m)
        assert basis == kernel_basis(m)
        identity = SquareIntMatrix.identity(len(basis)).entries if basis else ()
        assert _product(left, basis) == identity
        nonempty += bool(basis)
    assert nonempty > 500


def test_restriction_matches_rational_reference():
    # Each kernel gets a random action, which rarely preserves it, and the
    # action B R L + Q (I - B L), which preserves it with restriction R
    # (B = basis^T, L = left).  The integer restriction must equal the
    # rational solve, or fail with the same message.
    rng = random.Random(1302)
    agreed = rejected = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        basis, left = integer_kernel_basis(_random_matrix(rng, n))
        if not basis:
            continue
        s = len(basis)
        r = [[rng.randint(-3, 3) for _ in range(s)] for _ in range(s)]
        q = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        bl = [[sum(v[i] * w[j] for v, w in zip(basis, left)) for j in range(n)]
              for i in range(n)]
        brl = [[sum(basis[k][i] * r[k][l] * left[l][j]
                    for k in range(s) for l in range(s)) for j in range(n)]
               for i in range(n)]
        preserving = [[brl[i][j] + q[i][j] - sum(q[i][k] * bl[k][j] for k in range(n))
                       for j in range(n)] for i in range(n)]
        for action, restriction in ((_matrix(q), None), (_matrix(preserving), r)):
            try:
                want = restrict_to_basis(action, basis)
            except ContractError as exc:
                with pytest.raises(ContractError, match=f"^{re.escape(str(exc))}$"):
                    descent._restrict_to_basis(action, basis, left)
                rejected += 1
                continue
            got = descent._restrict_to_basis(action, basis, left)
            assert got == want
            if restriction is not None:
                assert got == _matrix(restriction)
            agreed += 1
    assert agreed > 400 and rejected > 100


# -- scenario validation -------------------------------------------------------------


def test_deck_order_checked_at_construction():
    identity = SquareIntMatrix.identity(2)
    with pytest.raises(InputError, match="^deck matrix does not have order dividing 2$"):
        CoverScenario(SHEAR, 2, identity)
    with pytest.raises(InputError, match="^order: must be >= 1, got 0$"):
        CoverScenario(SWAP, 0, identity)
    CoverScenario(SWAP, 2, identity)


@pytest.mark.parametrize("order", [2.0, "2", True, None])
def test_deck_order_must_be_an_int(order):
    # No coercion: a float or str order is not powered, and True is not 1.
    with pytest.raises(InputError, match="^order: must be an integer, got "):
        CoverScenario(SWAP, order, SquareIntMatrix.identity(2))


def test_deck_dimension_checked():
    # The rank is the deck's, so a deck of another rank than the action's
    # is the same mismatch as an action of another rank than the deck's.
    with pytest.raises(InputError, match="word acts on a lattice of different rank"):
        CoverScenario(SquareIntMatrix.identity(3), 1, SWAP)


def test_action_dimension_checked():
    with pytest.raises(InputError, match="word acts on a lattice of different rank"):
        CoverScenario(SWAP, 2, SquareIntMatrix.identity(3))


# -- commutation -----------------------------------------------------------------


def test_p_twist_word_always_commutes():
    action = induced_matrix(Z2, [{"kind": "ptwist"}])
    sc = CoverScenario(SWAP, 2, action)
    assert sc.action @ sc.deck_matrix == sc.deck_matrix @ sc.action


def test_invariant_tensor_commutes():
    sc = rank4_cover()
    assert sc.action @ sc.deck_matrix == sc.deck_matrix @ sc.action


def test_non_invariant_tensor_fails_commutation():
    # Oracle: [[1,1],[0,1]] and the swap do not commute (direct 2x2 product).
    assert SHEAR @ SWAP != SWAP @ SHEAR
    with pytest.raises(ContractError, match="^word action does not commute with the "
                       "deck action; descent needs an invariant polarization$"):
        CoverScenario(SWAP, 2, SHEAR)


def test_checks_run_in_order():
    # Deck order, then action rank, then commutation, then a fixed vector:
    # the quarter turn fixes no vector and does not commute with the shear.
    quarter_turn = SquareIntMatrix(((0, -1), (1, 0)))
    with pytest.raises(InputError, match="^deck matrix does not have order dividing 2$"):
        CoverScenario(quarter_turn, 2, SquareIntMatrix.identity(3))
    with pytest.raises(InputError, match="^word acts on a lattice of different rank$"):
        CoverScenario(quarter_turn, 4, SquareIntMatrix.identity(3))
    with pytest.raises(ContractError, match="does not commute"):
        CoverScenario(quarter_turn, 4, SHEAR)
    with pytest.raises(InputError, match="^deck action fixes no lattice vector"):
        CoverScenario(quarter_turn, 4, SquareIntMatrix.identity(2))


# -- invariant sublattice --------------------------------------------------------------


def test_trivial_deck_restricts_to_original():
    sc = CoverScenario(SquareIntMatrix.identity(2), 1, SHEAR)
    assert len(sc.basis) == 2
    assert spectral_radius(char_poly(sc.restricted)) == pytest.approx(
        spectral_radius(char_poly(SHEAR)), abs=1e-8
    )


def test_swap_invariants_identity_word():
    sc = CoverScenario(SWAP, 2, SquareIntMatrix.identity(2))
    assert len(sc.basis) == 1 and abs(sc.basis[0][0]) == 1
    assert sc.restricted.entries == ((1,),)


def test_swap_invariants_and_doubling_word():
    word = [{"kind": "explicit", "matrix": [[0, 1], [1, 0]]},
            {"kind": "explicit", "matrix": [[2, 0], [0, 2]]}]
    sc = CoverScenario(SWAP, 2, induced_matrix(Z2, word))
    assert len(sc.basis) == 1
    # Oracle: the word sends (1, 1) to (2, 2), so the restriction is [2].
    assert sc.restricted.entries == ((2,),)


def test_fixed_free_deck_rejected():
    minus = SquareIntMatrix.identity(2).scaled(-1)
    with pytest.raises(InputError, match="^deck action fixes no lattice vector; "
                       "not a valid quotient model$"):
        CoverScenario(minus, 2, SquareIntMatrix.identity(2))


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
        try:
            sc = CoverScenario(deck, order, action)
        except InputError:
            continue
        found += 1
        rho = spectral_radius(char_poly(action))
        assert spectral_radius(char_poly(sc.restricted)) <= rho + 1e-8
    assert found > 50


# -- quotient verdict -------------------------------------------------------------------


def test_quotient_verdict_hyperkahler_cover():
    log_rho, details = quotient_verdict(rank4_cover())
    assert log_rho == LogRho(0.0, None)
    assert details == {"cover_log_rho": 0.0, "quotient_rank": 3}
    verdict = Verdict.of(6, log_rho)
    assert verdict.entropy_lower == math.log(6)
    assert verdict.verdict == "GY violated"


def test_quotient_verdict_no_bound_no_claim():
    # A zero cover bound, log 1, certifies nothing, whatever the quotient
    # certificate.
    sc = CoverScenario(SWAP, 2, SquareIntMatrix.identity(2))
    log_rho, _ = quotient_verdict(sc)
    assert log_rho.exact_zero
    assert Verdict.of(1, log_rho).verdict == "no violation certified"


def test_quotient_verdict_non_unipotent_inequality():
    big = SquareIntMatrix(((2, 1), (1, 1)))
    sc = CoverScenario(SquareIntMatrix.identity(2), 1, big)
    log_rho, details = quotient_verdict(sc)
    assert not log_rho.exact_zero
    assert log_rho.value <= details["cover_log_rho"] + 1e-8
    assert details["quotient_rank"] == 2


def test_quotient_certificate_reads_the_restriction_not_the_cover():
    # diag(2, 3) under the deck diag(1, -1) restricts to [[2]] on the fixed
    # e_1: log rho is log 2 for the quotient, log 3 for the cover.
    sc = CoverScenario(SquareIntMatrix(((1, 0), (0, -1))), 2,
                       SquareIntMatrix(((2, 0), (0, 3))))
    log_rho, details = quotient_verdict(sc)
    assert log_rho.poly == (-2, 1)
    assert log_rho.value == pytest.approx(math.log(2), abs=1e-9)
    assert details == {"cover_log_rho": pytest.approx(math.log(3), abs=1e-9),
                       "quotient_rank": 1}


def test_unipotent_cover_forces_unipotent_restriction():
    assert is_unipotent(rank4_cover().restricted)


def test_restriction_whose_char_poly_does_not_divide_is_a_contract_error():
    # (x - 1)^2 does not divide x^2 - 3x + 1, although the shear's log rho,
    # 0, is below the cover's.
    sc = CoverScenario(SquareIntMatrix.identity(2), 1, SquareIntMatrix(((2, 1), (1, 1))))
    object.__setattr__(sc, "restricted", SHEAR)
    with pytest.raises(ContractError, match="^restricted characteristic polynomial "
                       "does not divide the ambient one$"):
        quotient_verdict(sc)


def test_exact_zero_cover_with_growing_restriction_is_a_contract_error():
    # x^2 - 3x + 1 does not divide the cover's (x - 1)^4: the divisibility
    # contract is what rules out a growing restriction of an exact zero.
    sc = rank4_cover()
    object.__setattr__(sc, "restricted", SquareIntMatrix(((2, 1), (1, 1))))
    with pytest.raises(ContractError, match="^restricted characteristic polynomial "
                       "does not divide the ambient one$"):
        quotient_verdict(sc)


def test_the_log_rho_certificate_forms_no_matrix_product():
    # certify_log_rho reads a polynomial, and quotient_verdict the two it
    # computes: an exact zero and a refined log rho alike need no M @ M.
    covers = (rank4_cover(), CoverScenario(
        SquareIntMatrix.identity(2), 1, SquareIntMatrix(((2, 1), (1, 1)))))
    polys = [char_poly(sc.restricted) for sc in covers]
    with counted_products() as products:
        for sc, poly in zip(covers, polys):
            assert quotient_verdict(sc)[0] == certify_log_rho(poly)
    assert not products


def test_identity_deck_refines_its_one_polynomial_once(monkeypatch):
    # Under the identity deck the restriction has the cover's polynomial, so
    # the quotient certificate is the cover's, from one refinement.
    calls, original = [], words.spectral_radius

    def spy(poly):
        calls.append(poly)
        return original(poly)

    monkeypatch.setattr(words, "spectral_radius", spy)
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    report = run_scenario(load_config({
        "kind": "enriques", "cover": {"n": 1, "q": 2, "m_max": 4},
        "lattice": {"gram": identity}, "deck": {"matrix": identity, "order": 1},
        "word": [{"kind": "explicit", "matrix": [[2, 1, 0], [1, 1, 0], [0, 0, 1]]}]}))
    assert report["error"] is None and report["log_rho_exact_zero"] is False
    assert calls == [(-1, 4, -4, 1)]  # (x - 1)(x^2 - 3x + 1)
    assert report["log_rho"] == report["details"]["cover_log_rho"] == math.log(
        original(calls[0]))


def test_quotient_verdict_computes_each_char_poly_once(monkeypatch):
    # The spectral radius and the divisibility contract share each polynomial:
    # one for the action, one for its restriction (here the same matrix).
    original, calls = descent.char_poly, []

    def spy(m):
        calls.append(m)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name == "catent" or name.startswith("catent."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)
    big = SquareIntMatrix(((2, 1), (1, 1)))
    log_rho, _ = quotient_verdict(CoverScenario(SquareIntMatrix.identity(2), 1, big))
    assert not log_rho.exact_zero
    assert log_rho.value == pytest.approx(math.log((3 + math.sqrt(5)) / 2))
    assert calls == [big, big]
