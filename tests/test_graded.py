import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catent.errors import InputError
from catent.graded import (
    GradedDim,
    GradedDimInterval,
    cone_bounds,
    cone_exact_from_map_rank,
    convolve,
    convolve_interval,
    delta_value,
    delta_value_interval,
    direct_sum,
)


def gd(d):
    return GradedDim.from_dict(d)


def gi(d):
    return GradedDimInterval.from_dict(d)


def random_graded(rng, max_dim=5, lo_deg=-6, hi_deg=6):
    return gd(
        {j: rng.randint(0, max_dim) for j in range(lo_deg, hi_deg + 1)}
    )


graded_dims = st.dictionaries(
    st.integers(-6, 6), st.integers(0, 5), max_size=8
).map(gd)


# -- shift / direct sum --------------------------------------------------------


def test_shift_examples():
    assert gi({0: (1, 1)}).shifted(1) == gi({-1: (1, 1)})
    g = gi({0: (1, 2), 3: (0, None)})
    assert g.shifted(0) == g


@given(graded_dims, st.integers(-4, 4), st.integers(-4, 4))
def test_shift_group_action(g, a, b):
    assert g.shifted(a).shifted(b) == g.shifted(a + b)


def test_direct_sum_examples():
    g = gi({0: (1, 1), 2: (0, 3)})
    assert direct_sum(g, gi({})) == g
    assert direct_sum(gi({0: (1, 1)}), gi({0: (2, 2)})) == gi({0: (3, 3)})


def test_direct_sum_commutative():
    rng = random.Random(5)
    for _ in range(20):
        a = GradedDimInterval.exact(random_graded(rng))
        b = GradedDimInterval.exact(random_graded(rng))
        assert direct_sum(a, b) == direct_sum(b, a)


def test_direct_sum_unknown_absorbs():
    s = direct_sum(gi({0: (1, None)}), gi({0: (2, 2)}))
    assert s.lo(0) == 3 and s.hi(0) is None


# -- convolution ---------------------------------------------------------------


def test_convolve_unit():
    g = gd({0: 1, 1: 1, 5: 2})
    assert convolve(g, gd({0: 1})) == g


def test_convolve_binomial():
    g = gd({0: 1, 1: 1})
    assert convolve(g, g) == gd({0: 1, 1: 2, 2: 1})


@given(graded_dims, graded_dims)
def test_convolve_commutative(g1, g2):
    assert convolve(g1, g2) == convolve(g2, g1)


@given(graded_dims, graded_dims, graded_dims)
@settings(max_examples=40)
def test_convolve_associative(g1, g2, g3):
    assert convolve(convolve(g1, g2), g3) == convolve(g1, convolve(g2, g3))


def test_self_convolution_matches_series_power():
    # n-fold self-convolution evaluated at t equals (sum g(k) e^{-kt})^n.
    rng = random.Random(11)
    for _ in range(10):
        g = random_graded(rng, max_dim=4, lo_deg=-3, hi_deg=3)
        for t in (0.0, 0.3, 1.1):
            base = sum(v * math.exp(-k * t) for k, v in g.entries)
            power = g
            for n in (2, 3):
                power = convolve(power, g)
                got = delta_value(power, t)
                assert math.isclose(got, base**n, rel_tol=1e-9, abs_tol=1e-9)


def test_delta_multiplicative_under_convolve():
    rng = random.Random(13)
    for _ in range(20):
        g1, g2 = random_graded(rng), random_graded(rng)
        for t in (0.0, 0.7):
            lhs = delta_value(convolve(g1, g2), t)
            rhs = delta_value(g1, t) * delta_value(g2, t)
            assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_delta_value_examples():
    assert delta_value(gd({0: 1}), 1.7) == pytest.approx(1.0)
    assert delta_value(gd({0: 1, 2: 1}), 0.0) == 2
    assert delta_value(gd({4: 7}), 0.0) == 7
    assert isinstance(delta_value(gd({2: 3}), 0.0), int)


# -- cone bounds ---------------------------------------------------------------


def test_cone_with_zero_source_is_target():
    b = gi({0: (1, 1), 2: (3, 5)})
    assert cone_bounds(gi({}), b) == b


def test_cone_one_dim_hom_both_outcomes():
    # A = B = one dimension in degree 0; identity map kills the cone, the
    # zero map keeps both pieces.  Bounds must cover both.
    a = b = gd({0: 1})
    c = cone_bounds(GradedDimInterval.exact(a), GradedDimInterval.exact(b))
    assert (c.lo(0), c.hi(0)) == (0, 1)
    assert (c.lo(-1), c.hi(-1)) == (0, 1)
    iso = cone_exact_from_map_rank(a, b, {0: 1})
    zero = cone_exact_from_map_rank(a, b, {0: 0})
    assert iso == gd({})
    assert zero == gd({-1: 1, 0: 1})


def test_cone_disjoint_support_collapse():
    # A concentrated in degrees >= d+2, B in degrees <= d: the connecting
    # range vanishes and the cone is exact on both sides.
    d = 1
    a = gi({3: (2, 2), 5: (7, 7)})
    b = gi({0: (4, 4), 1: (1, 1)})
    c = cone_bounds(a, b)
    for j in range(-3, d + 1):
        assert c.lo(j) == c.hi(j) == b.lo(j)
    for j in range(d + 1, 8):
        assert c.lo(j) == c.hi(j) == a.lo(j + 1)


def test_cone_tight_on_disjoint_window():
    # hi_A(j) * hi_B(j) = 0 and hi_A(j+1) * hi_B(j+1) = 0 everywhere.
    a = gi({1: (1, 1)})
    b = gi({0: (1, 1)})
    c = cone_bounds(a, b)
    assert (c.lo(0), c.hi(0)) == (2, 2)


def test_cone_exact_from_map_rank_extremes():
    a = gd({0: 2, 1: 3})
    maximal = {0: 2, 1: 3}
    assert cone_exact_from_map_rank(a, a, maximal) == gd({})
    split = cone_exact_from_map_rank(a, a, {})
    assert split == gd({-1: 2, 0: 5, 1: 3})


def test_cone_exact_rejects_infeasible_rank():
    a = gd({0: 1})
    b = gd({0: 2})
    with pytest.raises(InputError):
        cone_exact_from_map_rank(a, b, {0: 2})
    with pytest.raises(InputError):
        cone_exact_from_map_rank(a, b, {0: -1})


def test_cone_soundness_randomized():
    rng = random.Random(99)
    for _ in range(500):
        a = random_graded(rng)
        b = random_graded(rng)
        ranks = {
            j: rng.randint(0, min(a.dim(j), b.dim(j)))
            for j in set(a.support) | set(b.support)
        }
        exact = cone_exact_from_map_rank(a, b, ranks)
        bounds = cone_bounds(GradedDimInterval.exact(a), GradedDimInterval.exact(b))
        for j in set(exact.support) | set(bounds.support):
            assert bounds.lo(j) <= exact.dim(j) <= bounds.hi(j)


def test_cone_euler_additivity_when_exact():
    # Whenever the cone collapses to exact values, alternating sums must add.
    rng = random.Random(101)
    found = 0
    for _ in range(300):
        a = random_graded(rng, max_dim=3, lo_deg=0, hi_deg=2).shifted(-4)
        b = random_graded(rng, max_dim=3, lo_deg=0, hi_deg=2)
        c = cone_bounds(GradedDimInterval.exact(a), GradedDimInterval.exact(b))
        if c.is_exact():
            found += 1
            chi_c = c.to_exact().euler_characteristic()
            assert chi_c == b.euler_characteristic() - a.euler_characteristic()
    assert found > 0


def test_unknown_upper_bound_absorbs_through_cone():
    a = gi({1: (2, None)})
    b = gi({0: (1, 1)})
    c = cone_bounds(a, b)
    assert c.hi(0) is None
    # lo still combines the known pieces: b_0 plus the forced kernel a_1.
    assert c.lo(0) == 3
    # an unknown hi on the source side removes the cokernel information
    c2 = cone_bounds(gi({0: (0, None)}), b)
    assert c2.lo(0) == 0 and c2.hi(0) == 1


# -- interval helpers ----------------------------------------------------------


def test_interval_validation():
    with pytest.raises(InputError):
        gi({0: (2, 1)})
    with pytest.raises(InputError):
        gi({0: (-1, 1)})
    assert gi({0: (0, 0)}) == gi({})


def test_interval_exact_roundtrip():
    g = gd({0: 1, 3: 4})
    assert GradedDimInterval.exact(g).to_exact() == g
    with pytest.raises(InputError):
        gi({0: (1, 2)}).to_exact()


def test_convolve_interval_matches_exact_case():
    rng = random.Random(17)
    for _ in range(20):
        g1, g2 = random_graded(rng), random_graded(rng)
        got = convolve_interval(GradedDimInterval.exact(g1), g2)
        assert got == GradedDimInterval.exact(convolve(g1, g2))


def test_delta_value_interval():
    g = gi({0: (1, 2), 2: (3, None)})
    lo, hi = delta_value_interval(g, 0.0)
    assert (lo, hi) == (4, None)
    lo, hi = delta_value_interval(gi({0: (1, 1), 1: (2, 4)}), 0.5)
    assert lo == pytest.approx(1 + 2 * math.exp(-0.5))
    assert hi == pytest.approx(1 + 4 * math.exp(-0.5))
