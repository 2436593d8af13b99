import math
import random
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from catent import lattice
from catent.cli import load_config
from catent.descent import CoverScenario
from catent.errors import InputError, NumericError
from catent.lattice import (
    BilinearLattice,
    SquareIntMatrix,
    char_poly,
    is_unipotent,
    poly_exact_quotient,
    roots_inside,
    spectral_radius,
    squarefree_part,
)
from catent.words import induced_matrix, log_rho_is_exact_zero
from lattice_powers import (
    companion_matrix,
    counted_products,
    derivative,
    euclid_squarefree_part,
    faddeev_leverrier,
    plain_matmul,
    poly_divmod_exact,
    poly_eval_matrix,
    poly_gcd,
    poly_mul,
    unipotent_reference,
    unipotent_up_to_sign,
)
import report_digest
import spectral_reference

TOL = 1e-9


def random_matrix(rng, n, lo=-5, hi=5):
    return SquareIntMatrix(
        tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))
    )


# -- pairings ----------------------------------------------------------------


def test_pairing_orthogonal_basis():
    lat = BilinearLattice(((1, 0), (0, 1)))
    assert lat.pairing((1, 0), (0, 1)) == 0


def test_pairing_hyperbolic():
    lat = BilinearLattice(((0, 1), (1, 0)))
    assert lat.pairing((1, 0), (0, 1)) == 1


def test_pairing_mukai_rank3():
    # <v(O), v(O)> = -chi(O, O) on a K3 with H^2 = 10;
    # expanding v^T G w by hand gives -2.
    lat = BilinearLattice(((0, 0, -1), (0, 10, 0), (-1, 0, 0)))
    assert lat.pairing((1, 0, 1), (1, 0, 1)) == -2


def test_pairing_dimension_mismatch():
    lat = BilinearLattice(((1, 0), (0, 1)))
    with pytest.raises(InputError):
        lat.pairing((1, 0, 0), (0, 1))


def test_symmetric_gram_validated():
    with pytest.raises(InputError, match=r"^symmetric lattice has asymmetric gram at \(0,1\)$"):
        BilinearLattice(((0, 1), (2, 0)))


@pytest.mark.parametrize("bad", [1.9, 1.0, True, "1"])
def test_matrix_entries_are_not_coerced(bad):
    # [[1.9]] was once stored as [[1]].
    message = f"matrix entries must be integers, got row ({bad!r},)"
    with pytest.raises(InputError) as info:
        SquareIntMatrix([[bad]])
    assert str(info.value) == message
    with pytest.raises(InputError) as info:
        BilinearLattice([[bad]])
    assert str(info.value) == message


@pytest.mark.parametrize("rows", [5, None, [5], [[1], 2]])
def test_matrix_rows_must_be_sequences(rows):
    with pytest.raises(InputError, match="^matrix must be a sequence of rows"):
        SquareIntMatrix(rows)


# -- characteristic polynomial ----------------------------------------------


def test_char_poly_identity():
    p = char_poly(SquareIntMatrix.identity(2))
    assert p == (1, -2, 1)  # (x - 1)^2
    assert type(p) is tuple and all(type(c) is int for c in p)


def test_char_poly_trace_det():
    p = char_poly(SquareIntMatrix(((0, -1), (1, 3))))
    assert p == (1, -3, 1)


def test_char_poly_unipotent_triangular():
    m = SquareIntMatrix(((1, 2, 3), (0, 1, 4), (0, 0, 1)))
    assert char_poly(m) == (-1, 3, -3, 1)  # (x - 1)^3


@pytest.mark.parametrize("n", range(1, 9))
def test_cayley_hamilton_random(n):
    rng = random.Random(1000 + n)
    for _ in range(5):
        m = random_matrix(rng, n)
        assert not any(map(any, poly_eval_matrix(char_poly(m), m).entries))


# char_poly reduces M to Hessenberg form modulo Mersenne primes until their
# product exceeds 2B, B = max_k C(n, k) P_k with P_k the product of the k
# largest ceil(|row|_2) (Hadamard), and lifts the residues by CRT to the
# symmetric range; Faddeev-LeVerrier over Z is its oracle.


@st.composite
def char_poly_matrices(draw):
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(
        ("small", "large", "large_row", "singular", "nilpotent", "scalar")))
    bound = 10**40 if kind == "large" else 5
    entry = st.integers(-bound, bound)
    if kind == "scalar":
        c = draw(entry)
        return [[c if i == j else 0 for j in range(n)] for i in range(n)]
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "large_row":  # where the Hadamard bound is far below R^k
        rows[draw(st.integers(0, n - 1))] = [draw(st.integers(-10**40, 10**40))
                                             for _ in range(n)]
    if kind == "singular":  # the last row a combination of the others
        coeffs = [draw(st.integers(-3, 3)) for _ in range(n - 1)]
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    if kind == "nilpotent":  # strictly upper triangular, conjugated
        strict = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
        rows = _conjugated(draw, strict, st.integers(-3, 3))
    return rows


@settings(max_examples=300, deadline=None)
@given(char_poly_matrices())
@example([[10**161]])
def test_char_poly_matches_faddeev_leverrier(rows):
    m = SquareIntMatrix(tuple(map(tuple, rows)))
    assert char_poly(m) == faddeev_leverrier(m)


def _reference_word_actions():
    for config in report_digest.reference_configs():
        cfg = load_config(config)
        if cfg["kind"] == "enriques":
            action = induced_matrix(BilinearLattice(cfg["lattice"]["gram"]), cfg["word"])
            sc = CoverScenario(SquareIntMatrix(cfg["deck"]["matrix"]),
                               cfg["deck"]["order"], action)
            yield from (action, sc.restricted)
        elif cfg["kind"] == "lattice_word":
            yield induced_matrix(BilinearLattice(cfg["lattice"]["gram"]), cfg["word"])


def test_char_poly_matches_faddeev_leverrier_on_the_reference_words():
    # every lattice-rank word of seeds 1 and 5, every enriques action of the
    # presets and of preset-mix, and each restriction to the fixed sublattice
    actions = list(_reference_word_actions())
    assert sum(m.n >= 10 for m in actions) == 200  # 10 batches of 10, two seeds
    assert sum(m.n == 4 for m in actions) >= 2  # enriques-over-hk, action and restriction
    for m in actions:
        assert char_poly(m) == faddeev_leverrier(m)


def _binomial_power(n, c):
    """(x - c)^n, ascending."""
    return tuple(math.comb(n, k) * (-c) ** (n - k) for k in range(n + 1))


@pytest.mark.parametrize("r", [1, 2**61, 10**30])
@pytest.mark.parametrize("n", range(1, 13))
def test_char_poly_of_plus_or_minus_r_times_identity_meets_the_bound(n, r):
    # |c_k| = C(n, k) R^k is the bound B itself at its largest k
    for c in (r, -r):
        m = SquareIntMatrix.identity(n).scaled(c)
        assert char_poly(m) == faddeev_leverrier(m) == _binomial_power(n, c)


def _moduli_count(m):
    calls = []
    original = lattice._char_poly_mod

    def counting(rows, prime):
        calls.append(prime)
        return original(rows, prime)

    with mock.patch.object(lattice, "_char_poly_mod", counting):
        poly = char_poly(m)
    return poly, calls


def test_char_poly_takes_moduli_until_their_product_exceeds_twice_the_bound():
    p1 = (1 << 61) - 1
    # [[c]] has B = |c|: 2B < P1 for |c| = (P1 - 1) / 2, one modulus, and the
    # lift of -c lands on the edge of the symmetric range; |c| = (P1 + 1) / 2
    # has 2B > P1 and needs a second modulus.
    for c, moduli in ((2**60 - 1, 1), (2**60, 2), (p1, 2)):
        for sign in (1, -1):
            poly, calls = _moduli_count(SquareIntMatrix(((sign * c,),)))
            assert poly == (-sign * c, 1)
            assert calls == [(1 << e) - 1 for e in lattice._MERSENNE_EXPONENTS[:moduli]]


def test_char_poly_of_the_zero_matrix_takes_one_modulus():
    # every row norm is 0, so B = 1
    for n in (1, 5, 12):
        poly, calls = _moduli_count(SquareIntMatrix.identity(n).scaled(0))
        assert poly == (0,) * n + (1,)
        assert calls == [(1 << 61) - 1]


def test_char_poly_combines_three_or_more_moduli():
    rng = random.Random(35)
    m = random_matrix(rng, 6, -10**12, 10**12)
    poly, calls = _moduli_count(m)
    assert len(calls) >= 3
    assert poly == faddeev_leverrier(m)


def _minus_unit_upper_with_corner(n, e):
    """-U, U unit upper triangular with e in its top right corner: its
    polynomial is (x + 1)^n and its row norms ceil to e + 1 and n - 1 ones."""
    rows = [[-int(i == j) for j in range(n)] for i in range(n)]
    rows[0][n - 1] = -e
    return SquareIntMatrix(rows)


# With one row norm e + 1 and the others 1, B = C(20, 10) (e + 1).  At the
# largest e with 2B below the product of the first ten moduli, those ten
# suffice; one more and 2B passes it, so the eleventh is taken.  A bound
# without the binomial, from the k smallest norms or from floored norms
# takes ten at both.
_TEN_MODULI = math.prod((1 << e) - 1 for e in lattice._MERSENNE_EXPONENTS[:10])
_EDGE = _TEN_MODULI // (2 * math.comb(20, 10)) - 1


@pytest.mark.parametrize("e, moduli", [(_EDGE, 10), (_EDGE + 1, 11)],
                         ids=["below-the-edge", "at-the-edge"])
def test_one_huge_entry_takes_the_moduli_of_its_hadamard_bound(e, moduli):
    poly, calls = _moduli_count(_minus_unit_upper_with_corner(20, e))
    assert poly == _binomial_power(20, -1)
    assert calls == [(1 << x) - 1 for x in lattice._MERSENNE_EXPONENTS[:moduli]]


def test_bound_past_the_moduli_is_a_numeric_error():
    m = SquareIntMatrix(((2**60, 1), (1, 0)))
    with mock.patch.object(lattice, "_MERSENNE_EXPONENTS", (61,)):
        with pytest.raises(NumericError, match="past the product of the moduli"):
            char_poly(m)
        assert char_poly(SquareIntMatrix(((2, 1), (1, 0)))) == (-1, -2, 1)


# -- unipotence ---------------------------------------------------------------


def test_is_unipotent_basic():
    assert is_unipotent(SquareIntMatrix.identity(3))
    assert is_unipotent(SquareIntMatrix(((1, 1), (0, 1))))
    assert not is_unipotent(SquareIntMatrix(((2, 0), (0, 1))))


# The nilpotence test of M - I reads char_poly (Cayley-Hamilton): it is
# (x - 1)^n iff (M - I)^n = 0, and no matrix product is formed.
def test_trace_n_matrix_still_gets_the_nilpotence_test():
    with counted_products() as products:
        # trace 2 = n, but eigenvalues 2 and 0: only the full test can say no
        assert not is_unipotent(SquareIntMatrix(((2, 0), (0, 0))))
        assert not is_unipotent(SquareIntMatrix(((2, 0), (0, 1))))
        # unipotent but not triangular: char_poly (x - 1)^2
        assert is_unipotent(SquareIntMatrix(((2, 1), (-1, 0))))
    assert not products


def test_unit_triangular_is_unipotent_without_a_product():
    with counted_products() as products:
        assert is_unipotent(SquareIntMatrix(((1, 5, -2), (0, 1, 7), (0, 0, 1))))
        assert is_unipotent(SquareIntMatrix(((1, 0, 0), (3, 1, 0), (-4, 9, 1))))
        # a unit diagonal with entries on both sides is not triangular
        assert not is_unipotent(SquareIntMatrix(((1, 1), (1, 1))))
    assert not products


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 8))
    bound = draw(st.sampled_from((3, 3**40)))
    entry = st.integers(-bound, bound)
    return tuple([[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(matrix_pairs())
def test_matmul_matches_plain_triple_loop(pair):
    a, b = (SquareIntMatrix(tuple(map(tuple, rows))) for rows in pair)
    assert (a @ b).entries == tuple(map(tuple, plain_matmul(*pair)))


def _conjugated(draw, rows, entry):
    """P M P^-1 for a drawn unimodular P, made by elementary row operations."""
    n = len(rows)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    if n > 1:
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(entry)
            for k in range(n):  # row_i += c row_j on P, col_j -= c col_i on P^-1
                p[i][k] += c * p[j][k]
                p_inv[k][j] -= c * p_inv[k][i]
    return plain_matmul(plain_matmul(p, rows), p_inv)


@st.composite
def unipotence_candidates(draw):
    n = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    kind = draw(st.sampled_from((
        "random", "trace_n", "conjugated", "unit_upper", "unit_lower",
        "triangular_trace_n", "unit_diagonal_both_sides")))
    if kind == "random":
        return [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "trace_n":
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
        rows[-1][-1] += n - sum(rows[i][i] for i in range(n))
        return rows
    if kind in ("unit_upper", "unit_lower"):
        upper = kind == "unit_upper"
        return [[1 if i == j else (draw(entry) if (j > i) == upper else 0)
                 for j in range(n)] for i in range(n)]
    if kind == "triangular_trace_n":
        # trace n on a diagonal that is not all ones, such as diag(2, 0, 1)
        diag = [draw(entry) for _ in range(n)]
        diag[-1] += n - sum(diag)
        if n > 1 and diag == [1] * n:
            diag[0], diag[1] = 2, 0
        upper = draw(st.booleans())
        return [[diag[i] if i == j else (draw(entry) if (j > i) == upper else 0)
                 for j in range(n)] for i in range(n)]
    if kind == "unit_diagonal_both_sides":
        rows = [[1 if i == j else draw(entry) for j in range(n)] for i in range(n)]
        if n > 1:
            nonzero = st.sampled_from((-3, -2, -1, 1, 2, 3))
            rows[0][-1], rows[-1][0] = draw(nonzero), draw(nonzero)
        return rows
    # P U P^-1 with U unit upper triangular (or minus that) and P unimodular
    sign = draw(st.sampled_from((1, -1)))
    u = [[sign * (1 if i == j else (draw(entry) if j > i else 0)) for j in range(n)]
         for i in range(n)]
    return _conjugated(draw, u, entry)


@settings(max_examples=300, deadline=None)
@given(unipotence_candidates())
def test_is_unipotent_matches_plain_reference(rows):
    m = SquareIntMatrix(tuple(map(tuple, rows)))
    assert is_unipotent(m) == unipotent_reference(rows)


# -- the exact-zero certificate ------------------------------------------------
# log_rho_is_exact_zero reads only char_poly(M); the matrix test "M or M^2 is
# unipotent" is its oracle.

FINITE_ORDER_BLOCKS = (
    ((0, 1), (-1, 0)),  # order 4, roots +-i
    companion_matrix((1, 1, 1)).entries,  # order 3
    companion_matrix((1, -1, 1)).entries,  # order 6
)


@st.composite
def exact_zero_candidates(draw):
    n = draw(st.integers(1, 7))
    entry = st.integers(-3, 3)
    kind = draw(st.sampled_from(("plus_minus_one", "random", "finite_order")))
    if kind == "random":
        return [[draw(entry) for _ in range(n)] for _ in range(n)]
    # triangular with a diagonal of 1s and -1s, then a finite-order block
    # whose roots are not +-1 on its diagonal, and conjugated
    rows = [[draw(st.sampled_from((1, -1))) if i == j else (draw(entry) if j > i else 0)
             for j in range(n)] for i in range(n)]
    if kind == "finite_order":
        block = draw(st.sampled_from(FINITE_ORDER_BLOCKS))
        rows = [row + [draw(entry) for _ in range(2)] for row in rows]
        rows += [[0] * n + list(r) for r in block]
    return _conjugated(draw, rows, entry)


@settings(max_examples=300, deadline=None)
@given(exact_zero_candidates())
def test_log_rho_is_exact_zero_matches_the_matrix_oracle(rows):
    m = SquareIntMatrix(tuple(map(tuple, rows)))
    assert log_rho_is_exact_zero(char_poly(m)) == unipotent_up_to_sign(m)


def test_finite_order_roots_other_than_plus_minus_one_are_not_an_exact_zero():
    # Kronecker would certify rho = 1 here too; neither side does.
    for block in FINITE_ORDER_BLOCKS:
        m = SquareIntMatrix(block)
        assert not log_rho_is_exact_zero(char_poly(m))
        assert not unipotent_up_to_sign(m)


# monic factors: products of x - 1 and x + 1 first, then ones with another root
PLUS_MINUS_ONE_FACTORS = ((1,), (-1, 1), (1, 1), (-1, 0, 1))
OTHER_FACTORS = ((0, 1), (1, 0, 1), (1, 1, 1), (1, -1, 1), (-2, 1), (-1, -1, 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8),
       st.sampled_from(PLUS_MINUS_ONE_FACTORS + OTHER_FACTORS))
def test_every_monic_divisor_of_a_plus_minus_one_power_passes(a, b, c, d, factor):
    # the proof behind quotient_verdict's one contract: a monic divisor of
    # (x - 1)^a (x + 1)^b is (x - 1)^c (x + 1)^d, an exact zero again
    power = poly_mul(_binomial_power(a, 1), _binomial_power(b, -1))
    candidate = poly_mul(poly_mul(_binomial_power(c, 1), _binomial_power(d, -1)), factor)
    assert log_rho_is_exact_zero(power)
    assert log_rho_is_exact_zero(candidate) == (factor in PLUS_MINUS_ONE_FACTORS)
    if poly_exact_quotient(power, candidate) is not None:
        assert log_rho_is_exact_zero(candidate)


def test_unipotent_spectral_radius_is_one():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
            for j in range(i + 1, n):
                rows[i][j] = rng.randint(-4, 4)
        m = SquareIntMatrix(tuple(tuple(r) for r in rows))
        assert is_unipotent(m)
        assert abs(spectral_radius(char_poly(m)) - 1.0) <= TOL


# -- spectral radius ----------------------------------------------------------


def test_spectral_radius_identity():
    assert spectral_radius(char_poly(SquareIntMatrix.identity(4))) == 1.0


def test_spectral_radius_companion_quadratic():
    m = companion_matrix((1, -3, 1))
    assert abs(spectral_radius(char_poly(m)) - (3 + math.sqrt(5)) / 2) <= TOL


def test_spectral_radius_nilpotent():
    assert spectral_radius(char_poly(SquareIntMatrix(((0, 1), (0, 0))))) == 0.0


def test_spectral_radius_mean_eigenvalue_bound():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        trace = sum(m.entries[i][i] for i in range(n))
        assert spectral_radius(char_poly(m)) >= abs(trace) / n - TOL


def test_spectral_radius_power_scaling():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, -3, 3)
        rho = spectral_radius(char_poly(m))
        for k in range(2, 5):
            slack = k * TOL * max(1.0, rho) ** (k - 1) + TOL
            assert abs(spectral_radius(char_poly(m.power(k))) - rho**k) <= slack


# The refinement runs Aberth-Ehrlich on the scaled polynomial from
# Newton-polygon starting points and stops on an error relative to rho; the
# oracle is another method, mpmath's Durand-Kerner on the unscaled
# polynomial from its default starting points with an absolute stop.


@st.composite
def non_nilpotent_matrices(draw):
    n = draw(st.integers(1, 12))
    bound = draw(st.sampled_from((1, 3, 50)))
    entry = st.integers(-bound, bound)
    m = SquareIntMatrix(tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)))
    assume(any(char_poly(m)[:-1]))
    return m


@settings(max_examples=100, deadline=None)
@given(non_nilpotent_matrices())
def test_spectral_radius_matches_the_unscaled_refinement(m):
    rho = spectral_radius(char_poly(m))
    assert abs(rho - spectral_reference.spectral_radius(m, TOL)) <= TOL * rho


@pytest.mark.parametrize("tol", ["x", True, None, 0, -1.0, math.nan, math.inf])
def test_the_reference_refinement_checks_its_tol(tol):
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        spectral_reference.spectral_radius(SquareIntMatrix.identity(2), tol)


# -- exact comparison of rho with an int ---------------------------------------


@settings(max_examples=100, deadline=None)
@given(non_nilpotent_matrices())
def test_roots_inside_matches_the_reference_refinement(m):
    # At r = floor(rho) and floor(rho) + 1, whenever the float can tell.
    p, rho = char_poly(m), spectral_reference.spectral_radius(m)
    for r in (math.floor(rho), math.floor(rho) + 1):
        if r >= 1 and abs(rho - r) > 1e-6:
            assert roots_inside(p, r) == (rho < r)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("r", [1, 2, 10**30])
@pytest.mark.parametrize("sign", [1, -1])
def test_roots_inside_plus_or_minus_r_times_identity(n, r, sign):
    # every root is sign * r, on the circle of radius r
    p = char_poly(SquareIntMatrix.identity(n).scaled(sign * r))
    assert not roots_inside(p, r)
    assert roots_inside(p, r + 1)


@pytest.mark.parametrize("p, inside_from", [
    ((4, 0, 1), 3),  # +-2i: complex roots on the circle of radius 2
    ((1, 1, 1), 2),  # primitive cube roots of unity
    ((0, 0, 1), 1),  # x^2: every root is 0
    ((6, -5, 1), 4),  # roots 2 and 3
    ((-10**40, 1), 10**40 + 1),
])
def test_roots_inside_is_exact_at_the_boundary(p, inside_from):
    assert roots_inside(p, inside_from)
    if inside_from > 1:
        assert not roots_inside(p, inside_from - 1)


def _moduli(starts):
    return sorted(float(abs(z)) for z in starts)


def test_newton_polygon_starts_skip_an_interior_zero():
    # x^4 - 2: one hull edge 0 -> 4, four points on |x| = 2^(1/4)
    starts = lattice._newton_polygon_starts((-2, 0, 0, 0, 1))
    assert _moduli(starts) == pytest.approx([2 ** 0.25] * 4, rel=1e-12)
    assert len({complex(z) for z in starts}) == 4


def test_newton_polygon_starts_follow_each_hull_edge():
    # (x - 1)(x - 100): edges 0 -> 1 and 1 -> 2, radii 100/101 and 101
    starts = lattice._newton_polygon_starts((100, -101, 1))
    assert _moduli(starts) == pytest.approx([100 / 101, 101], rel=1e-12)


def test_newton_polygon_start_of_degree_one():
    assert _moduli(lattice._newton_polygon_starts((-3, 1))) == pytest.approx([3.0])
    assert spectral_radius(char_poly(SquareIntMatrix(((-7,),)))) == 7.0


def test_finite_order_word_has_spectral_radius_one():
    # x^2 + x + 1: the primitive cube roots of unity
    assert abs(spectral_radius(char_poly(SquareIntMatrix(((0, -1), (1, -1))))) - 1.0) <= TOL


def _refinement_rungs(poly):
    """spectral_radius(poly), or its NumericError, and how the Aberth run at
    each extraprec ended."""
    rungs, aberth = [], lattice._aberth

    def spy(desc, starts, extraprec):
        try:
            result = aberth(desc, starts, extraprec)
        except mpmath.mp.NoConvergence as exc:
            rungs.append((extraprec, str(exc)))
            raise
        rungs.append((extraprec, "converged"))
        return result

    with mock.patch.object(lattice, "_aberth", spy):
        try:
            return spectral_radius(poly), rungs
        except NumericError as exc:
            return exc, rungs


def test_refinement_runs_aberth_from_the_newton_polygon_starts():
    starts, calls = [], []
    newton_polygon_starts, aberth = lattice._newton_polygon_starts, lattice._aberth

    def starts_spy(coeffs):
        starts.append(newton_polygon_starts(coeffs))
        return starts[-1]

    def aberth_spy(desc, points, extraprec):
        calls.append((len(desc) - 1, points, extraprec))
        return aberth(desc, points, extraprec)

    def polyroots(*args, **kwargs):
        raise AssertionError("the refinement called mpmath.polyroots")

    with mock.patch.object(lattice, "_newton_polygon_starts", starts_spy), \
            mock.patch.object(lattice, "_aberth", aberth_spy), \
            mock.patch.object(lattice.mpmath, "polyroots", polyroots):
        spectral_radius(char_poly(companion_matrix((1, -3, 1))))
    assert len(starts) == 1 and len(starts[0]) == 2
    assert calls == [(2, starts[0], 30)] and calls[0][1] is starts[0]


def mignotte(n, k):
    """Mignotte's x^n - 2 (10^k x - 1)^2, ascending: two of its roots are
    very close together, near 10^-k."""
    return (-2, 4 * 10**k, -2 * 10**(2 * k)) + (0,) * (n - 3) + (1,)


CAPPED = "no convergence in 200 Aberth sweeps"


@pytest.mark.parametrize("n, k, capped, last, rho", [
    (12, 80, [30], 80, 1.0717734625362932e+16),
    (6, 60, [30, 80], 160, 1.189207115002721e+30),
])
def test_refinement_climbs_the_precision_ladder(n, k, capped, last, rho):
    # each rung below the last stops at the sweep cap
    result, rungs = _refinement_rungs(mignotte(n, k))
    assert result == rho
    assert rungs == [(e, CAPPED) for e in capped] + [(last, "converged")]


def test_refinement_past_the_precision_ladder_is_a_numeric_error():
    result, rungs = _refinement_rungs(mignotte(4, 200))
    assert isinstance(result, NumericError)
    assert str(result).startswith("spectral radius refinement did not reach accuracy")
    assert rungs == [(e, CAPPED) for e in (30, 80, 160, 320)]


@pytest.mark.parametrize("poly, starts", [
    ((1, -3, 1), (1, 1)),  # two approximations meet
    ((-2, 0, 1), (0, 1)),  # f'(0) = 0
])
def test_aberth_zero_divisor_is_no_convergence(poly, starts):
    starts = list(map(mpmath.mpc, starts))
    with pytest.raises(mpmath.mp.NoConvergence, match="zero divisor"):
        lattice._aberth([mpmath.mpf(c) for c in reversed(poly)], starts, 30)
    with mock.patch.object(lattice, "_newton_polygon_starts", lambda coeffs: starts), \
            pytest.raises(NumericError, match="did not reach accuracy"):
        spectral_radius(poly)


def test_spectral_radius_past_the_float_range_is_a_numeric_error():
    with pytest.raises(NumericError, match="spectral radius 1.0e\\+400 is past the float range"):
        spectral_radius(char_poly(SquareIntMatrix(((10**400,),))))


# -- polynomial helpers -------------------------------------------------------


def test_poly_trim_and_zero():
    # () is the zero polynomial, and no result has a zero top coefficient.
    assert poly_exact_quotient((), (1, 1)) == ()
    assert poly_exact_quotient((0, 0, 1), (0, 1)) == (0, 1)
    assert squarefree_part(()) == ()
    assert squarefree_part((5,)) == (5,)


def test_poly_mul_divmod_roundtrip():
    a = (2, 0, 1)
    b = (-1, 1)
    assert poly_exact_quotient(poly_mul(a, b), b) == a
    assert poly_exact_quotient(poly_mul(a, b), (1, 1)) is None  # a remainder
    assert poly_exact_quotient((1, 2), (0, 2)) is None  # a non-integral quotient


@st.composite
def division_cases(draw):
    """(a, divisor): a = b q with the divisor b, a = b q + r with deg r <
    deg b, or a = b q with the divisor k b, k > 1, whose quotient q / k is
    not integral unless k divides q's content.  Leading coefficients are
    any nonzero ints, and coefficients reach 200 bits."""
    bound = draw(st.sampled_from((3, 2**200)))
    coeff = st.integers(-bound, bound)
    lead = coeff.filter(bool)
    b = tuple(draw(st.lists(coeff, max_size=4))) + (draw(lead),)
    q = tuple(draw(st.lists(coeff, max_size=4))) + (draw(lead),)
    kind = draw(st.sampled_from(("exact", "remainder", "not_integral")))
    if kind == "not_integral":
        k = draw(st.integers(2, 6))
        return poly_mul(b, q), tuple(k * c for c in b)
    a = poly_mul(b, q)
    if kind == "remainder":
        r = draw(st.lists(coeff, min_size=len(b) - 1, max_size=len(b) - 1))
        a = tuple(c + (r[i] if i < len(r) else 0) for i, c in enumerate(a))
    return a, b


@settings(max_examples=300, deadline=None)
@given(division_cases())
@example(((3,), (1, 1)))  # a nonzero a of lower degree than b
def test_poly_exact_quotient_matches_the_fraction_oracle(case):
    a, b = case
    try:
        expected = poly_divmod_exact(a, b)
    except InputError:
        expected = None
    assert poly_exact_quotient(a, b) == expected


def test_poly_gcd_and_squarefree():
    # (x-1)^2 (x+2) has squarefree part (x-1)(x+2)
    sq = poly_mul(poly_mul((-1, 1), (-1, 1)), (2, 1))
    assert squarefree_part(sq) == poly_mul((-1, 1), (2, 1))
    assert poly_gcd(sq, derivative(sq)) == (-1, 1)
    # (x^2 - 10^30 x + 1)^2 (x - 3): not squarefree mod P either, so the
    # remainder sequence runs on 100-bit coefficients
    factor = (1, -10**30, 1)
    p = poly_mul(poly_mul(factor, factor), (-3, 1))
    assert squarefree_part(p) == euclid_squarefree_part(p) == poly_mul(factor, (-3, 1))


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@settings(max_examples=300, deadline=None)
@given(
    factors=st.lists(
        st.tuples(st.lists(st.integers(-6, 6), min_size=2, max_size=4),
                  st.integers(1, 3)),
        min_size=1, max_size=4,
    ),
    scale=st.integers(1, 4),
    exponent=st.sampled_from((2, 3, 5, lattice._MERSENNE_EXPONENTS[0])),
    lead_divisible=st.booleans(),
)
def test_squarefree_part_matches_euclid(factors, scale, exponent, lead_divisible):
    # Small primes 2^e - 1 reach every branch: the leading coefficient
    # divisible by P, and a common factor mod P of a polynomial squarefree
    # over Q.
    prime = (1 << exponent) - 1
    p = (scale * prime if lead_divisible else scale,)
    for coeffs, multiplicity in factors:
        for _ in range(multiplicity):
            p = poly_mul(p, _trimmed(coeffs))
    with mock.patch.object(lattice, "_MERSENNE_EXPONENTS", (exponent,)):
        assert squarefree_part(p) == euclid_squarefree_part(p)


def test_matrix_power_and_apply():
    m = SquareIntMatrix(((1, 1), (0, 1)))
    assert m.power(5).entries == ((1, 5), (0, 1))
    assert m.apply((2, 3)) == (5, 3)
    with pytest.raises(InputError):
        m.apply((1, 2, 3))
