import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catent import lattice
from catent.errors import InputError, NumericError
from catent.lattice import (
    BilinearLattice,
    SquareIntMatrix,
    char_poly,
    is_unipotent,
    poly_exact_quotient,
    spectral_radius,
    squarefree_part,
)
from lattice_powers import (
    companion_matrix,
    counted_products,
    derivative,
    euclid_squarefree_part,
    poly_eval_matrix,
    poly_gcd,
    poly_mul,
)
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
        assert poly_eval_matrix(char_poly(m), m).is_zero()


# -- unipotence ---------------------------------------------------------------


def test_is_unipotent_basic():
    assert is_unipotent(SquareIntMatrix.identity(3))
    assert is_unipotent(SquareIntMatrix(((1, 1), (0, 1))))
    assert not is_unipotent(SquareIntMatrix(((2, 0), (0, 1))))


def test_trace_n_matrix_still_gets_the_nilpotence_test():
    with counted_products() as products:
        # trace 2 = n, but eigenvalues 2 and 0: only the full test can say no
        assert not is_unipotent(SquareIntMatrix(((2, 0), (0, 0))))
        assert products
        products.clear()
        # trace 3 != n: the gate says no without a matrix product
        assert not is_unipotent(SquareIntMatrix(((2, 0), (0, 1))))
        assert not products


def test_unit_triangular_is_unipotent_without_a_product():
    with counted_products() as products:
        assert is_unipotent(SquareIntMatrix(((1, 5, -2), (0, 1, 7), (0, 0, 1))))
        assert is_unipotent(SquareIntMatrix(((1, 0, 0), (3, 1, 0), (-4, 9, 1))))
        assert not products
        # a unit diagonal with entries on both sides is not triangular
        assert not is_unipotent(SquareIntMatrix(((1, 1), (1, 1))))
        assert products


def _plain_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


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
    assert (a @ b).entries == tuple(map(tuple, _plain_matmul(*pair)))


def _unipotent_reference(rows):
    """(M - I)^n == 0 by n - 1 plain products."""
    n = len(rows)
    nil = [[rows[i][j] - (i == j) for j in range(n)] for i in range(n)]
    acc = nil
    for _ in range(n - 1):
        acc = _plain_matmul(acc, nil)
    return all(x == 0 for row in acc for x in row)


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
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    if n > 1:
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(entry)
            for k in range(n):  # row_i += c row_j on P, col_j -= c col_i on P^-1
                p[i][k] += c * p[j][k]
                p_inv[k][j] -= c * p_inv[k][i]
    return _plain_matmul(_plain_matmul(p, u), p_inv)


@settings(max_examples=300, deadline=None)
@given(unipotence_candidates())
def test_is_unipotent_matches_plain_reference(rows):
    m = SquareIntMatrix(tuple(map(tuple, rows)))
    assert is_unipotent(m) == _unipotent_reference(rows)


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
        assert abs(spectral_radius(m, TOL) - 1.0) <= TOL


# -- spectral radius ----------------------------------------------------------


def test_spectral_radius_identity():
    assert spectral_radius(SquareIntMatrix.identity(4)) == 1.0


def test_spectral_radius_companion_quadratic():
    m = companion_matrix((1, -3, 1))
    assert abs(spectral_radius(m) - (3 + math.sqrt(5)) / 2) <= TOL


def test_spectral_radius_nilpotent():
    assert spectral_radius(SquareIntMatrix(((0, 1), (0, 0)))) == 0.0


def test_spectral_radius_mean_eigenvalue_bound():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        assert spectral_radius(m, TOL) >= abs(m.trace()) / n - TOL


def test_spectral_radius_power_scaling():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, -3, 3)
        rho = spectral_radius(m, TOL)
        for k in range(2, 5):
            slack = k * TOL * max(1.0, rho) ** (k - 1) + TOL
            assert abs(spectral_radius(m.power(k), TOL) - rho**k) <= slack


def test_spectral_radius_requires_positive_tol():
    with pytest.raises(InputError):
        spectral_radius(SquareIntMatrix.identity(2), 0.0)


# The refinement runs on the scaled polynomial from Newton-polygon starting
# points and stops on an error relative to rho; the unscaled refinement with
# mpmath's default starting points and an absolute stop is its oracle.


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
    rho = spectral_radius(m, TOL)
    assert abs(rho - spectral_reference.spectral_radius(m, TOL)) <= TOL * rho


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
    assert spectral_radius(SquareIntMatrix(((-7,),)), TOL) == 7.0


def test_finite_order_word_has_spectral_radius_one():
    # x^2 + x + 1: the primitive cube roots of unity
    assert abs(spectral_radius(SquareIntMatrix(((0, -1), (1, -1))), TOL) - 1.0) <= TOL


def test_refinement_calls_polyroots_through_the_module_with_its_starts():
    calls = []
    polyroots = lattice.mpmath.polyroots

    def spy(coeffs, **kwargs):
        calls.append((len(coeffs) - 1, len(kwargs["roots_init"])))
        return polyroots(coeffs, **kwargs)

    with mock.patch.object(lattice.mpmath, "polyroots", spy):
        spectral_radius(companion_matrix((1, -3, 1)), TOL)
    assert calls == [(2, 2)]


def test_spectral_radius_past_the_float_range_is_a_numeric_error():
    with pytest.raises(NumericError, match="spectral radius 1.0e\\+400 is past the float range"):
        spectral_radius(SquareIntMatrix(((10**400,),)), TOL)


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


def test_poly_gcd_and_squarefree():
    # (x-1)^2 (x+2) has squarefree part (x-1)(x+2)
    sq = poly_mul(poly_mul((-1, 1), (-1, 1)), (2, 1))
    assert squarefree_part(sq) == poly_mul((-1, 1), (2, 1))
    assert poly_gcd(sq, derivative(sq)) == (-1, 1)


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
    prime=st.sampled_from((3, 5, 7, lattice._SQUAREFREE_PRIME)),
    lead_divisible=st.booleans(),
)
def test_squarefree_part_matches_euclid(factors, scale, prime, lead_divisible):
    # Small primes reach every branch: the leading coefficient divisible by
    # P, and a common factor mod P of a polynomial squarefree over Q.
    p = (scale * prime if lead_divisible else scale,)
    for coeffs, multiplicity in factors:
        for _ in range(multiplicity):
            p = poly_mul(p, _trimmed(coeffs))
    with mock.patch.object(lattice, "_SQUAREFREE_PRIME", prime):
        assert squarefree_part(p) == euclid_squarefree_part(p)


def test_matrix_power_and_apply():
    m = SquareIntMatrix(((1, 1), (0, 1)))
    assert m.power(5).entries == ((1, 5), (0, 1))
    assert m.apply((2, 3)) == (5, 3)
    with pytest.raises(InputError):
        m.apply((1, 2, 3))
