import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graded_reference as ref
from catent.errors import InputError
from catent.graded import (
    GradedDimInterval,
    cone_bounds,
    convolve_interval,
    delta_value_interval,
)
from graded_reference import cone_exact_from_map_rank, from_dict, support


def gd(d):
    return GradedDimInterval.exact(d)


def gi(d):
    return from_dict(d)


def random_graded(rng, max_dim=5, lo_deg=-6, hi_deg=6):
    return gd(
        {j: rng.randint(0, max_dim) for j in range(lo_deg, hi_deg + 1)}
    )


graded_dims = st.dictionaries(
    st.integers(-6, 6), st.integers(0, 5), max_size=8
).map(gd)

# Interval entries [lo, hi].
interval_dicts = st.dictionaries(
    st.integers(-6, 6),
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=6,
)


def chi(g):
    """Alternating sum of an exact profile."""
    lo, hi = ref._chi_interval(g)
    assert lo == hi
    return lo


def reference_convolve(g1, g2):
    """Plain Kuenneth product of two exact profiles, as a dict."""
    out = {}
    for d1, v1, _ in g1.entries:
        for d2, v2, _ in g2.entries:
            out[d1 + d2] = out.get(d1 + d2, 0) + v1 * v2
    return out


# -- shift / direct sum --------------------------------------------------------


def test_shift_examples():
    assert gi({0: (1, 1)}).shifted(1) == gi({-1: (1, 1)})
    g = gi({0: (1, 2), 3: (0, 5)})
    assert g.shifted(0) == g


@given(graded_dims, st.integers(-4, 4), st.integers(-4, 4))
def test_shift_group_action(g, a, b):
    assert g.shifted(a).shifted(b) == g.shifted(a + b)


# -- convolution ---------------------------------------------------------------


def test_convolve_unit():
    g = gd({0: 1, 1: 1, 5: 2})
    assert convolve_interval(g, gd({0: 1})) == g


def test_convolve_binomial():
    g = gd({0: 1, 1: 1})
    assert convolve_interval(g, g) == gd({0: 1, 1: 2, 2: 1})


@given(graded_dims, graded_dims)
def test_convolve_commutative(g1, g2):
    assert convolve_interval(g1, g2) == convolve_interval(g2, g1)


@given(graded_dims, graded_dims, graded_dims)
@settings(max_examples=40)
def test_convolve_associative(g1, g2, g3):
    assert convolve_interval(convolve_interval(g1, g2), g3) == convolve_interval(
        g1, convolve_interval(g2, g3)
    )


def _draw_inside(data, g):
    """An exact profile inside the interval profile g."""
    return gd({deg: data.draw(st.integers(lo, hi)) for deg, lo, hi in g.entries})


@given(interval_dicts, interval_dicts, st.data())
def test_convolve_interval_contains_every_exact_convolution(d1, d2, data):
    g1, g2 = gi(d1), gi(d2)
    e1, e2 = _draw_inside(data, g1), _draw_inside(data, g2)
    out = convolve_interval(g1, g2)
    exact = reference_convolve(e1, e2)
    for j in set(support(out)) | set(exact):
        val = exact.get(j, 0)
        assert out.lo(j) <= val
        assert val <= out.hi(j)


def test_self_convolution_matches_series_power():
    # The total of an n-fold self-convolution is the n-th power of the total.
    rng = random.Random(11)
    for _ in range(10):
        g = random_graded(rng, max_dim=4, lo_deg=-3, hi_deg=3)
        base = sum(v for _, v, _ in g.entries)
        power = g
        for n in (2, 3):
            power = convolve_interval(power, g)
            assert delta_value_interval(power) == (base**n, base**n)


def test_delta_multiplicative_under_convolve():
    rng = random.Random(13)
    for _ in range(20):
        g1, g2 = random_graded(rng), random_graded(rng)
        lo1, hi1 = delta_value_interval(g1)
        lo2, hi2 = delta_value_interval(g2)
        assert delta_value_interval(convolve_interval(g1, g2)) == (lo1 * lo2, hi1 * hi2)


def test_delta_value_examples():
    assert delta_value_interval(gd({0: 1})) == (1, 1)
    assert delta_value_interval(gd({0: 1, 2: 1})) == (2, 2)
    assert delta_value_interval(gd({4: 7})) == (7, 7)
    assert all(isinstance(v, int) for v in delta_value_interval(gd({2: 3})))


# -- cone bounds ---------------------------------------------------------------


def test_cone_with_zero_source_is_target():
    b = gi({0: (1, 1), 2: (3, 5)})
    assert cone_bounds(gi({}), b) == b


def test_cone_one_dim_hom_both_outcomes():
    # A = B = one dimension in degree 0; identity map kills the cone, the
    # zero map keeps both pieces.  Bounds must cover both.
    a = b = gd({0: 1})
    c = cone_bounds(a, b)
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


def test_cone_exact_rejects_inexact_profile():
    exact = gd({0: 1})
    for inexact in (gi({0: (1, 2)}), gi({0: (0, 3)})):
        with pytest.raises(InputError):
            cone_exact_from_map_rank(inexact, exact, {})
        with pytest.raises(InputError):
            cone_exact_from_map_rank(exact, inexact, {})


def _random_ranks(rng, a, b):
    """A feasible rank for H^j(A) -> H^j(B) at every degree of A and B."""
    return {
        j: rng.randint(0, min(a.lo(j), b.lo(j)))
        for j in set(support(a)) | set(support(b))
    }


def test_cone_soundness_randomized():
    rng = random.Random(99)
    for _ in range(500):
        a = random_graded(rng)
        b = random_graded(rng)
        exact = cone_exact_from_map_rank(a, b, _random_ranks(rng, a, b))
        assert exact.is_exact()
        bounds = cone_bounds(a, b)
        for j in set(support(exact)) | set(support(bounds)):
            assert bounds.lo(j) <= exact.lo(j) <= bounds.hi(j)


def test_chained_cones_contain_every_exact_realization():
    # The twist recursion feeds cone_bounds its own inexact output, as in
    # cone(cone(A, B), D) and cone(D, cone(A, B)).  Every exact realization of
    # the inner cone, chained with D at any feasible ranks, must lie inside
    # the bounds computed from the inner interval.
    rng = random.Random(7)
    inexact_inner = 0
    for _ in range(200):
        a, b, d = (random_graded(rng, max_dim=3, lo_deg=-3, hi_deg=3) for _ in range(3))
        inner = cone_bounds(a, b)
        inexact_inner += not inner.is_exact()
        inner_first, inner_last = cone_bounds(inner, d), cone_bounds(d, inner)
        for _ in range(10):
            e = cone_exact_from_map_rank(a, b, _random_ranks(rng, a, b))
            for src, dst, bounds in ((e, d, inner_first), (d, e, inner_last)):
                exact = cone_exact_from_map_rank(src, dst, _random_ranks(rng, src, dst))
                for j in set(support(exact)) | set(support(bounds)):
                    assert bounds.lo(j) <= exact.lo(j) <= bounds.hi(j), (src, dst, j)
    assert inexact_inner > 150  # 198 of the 200 inner cones at this seed


def _scaled(g, c):
    """c·g, built through the public constructor."""
    return GradedDimInterval(tuple((deg, c * lo, c * hi) for deg, lo, hi in g.entries))


@given(interval_dicts.map(gi), interval_dicts.map(gi), st.integers(1, 9))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_cone_and_convolution_are_positively_homogeneous(a, b, c):
    # max(0, c·y - c·x) = c·max(0, y - x).
    assert cone_bounds(_scaled(a, c), _scaled(b, c)) == _scaled(cone_bounds(a, b), c)
    assert convolve_interval(_scaled(a, c), b) == _scaled(convolve_interval(a, b), c)


def test_cone_euler_additivity_when_exact():
    # Whenever the cone collapses to exact values, alternating sums must add.
    rng = random.Random(101)
    found = 0
    for _ in range(300):
        a = random_graded(rng, max_dim=3, lo_deg=0, hi_deg=2).shifted(-4)
        b = random_graded(rng, max_dim=3, lo_deg=0, hi_deg=2)
        c = cone_bounds(a, b)
        if c.is_exact():
            found += 1
            assert chi(c) == chi(b) - chi(a)
    assert found > 0


# -- interval helpers ----------------------------------------------------------


def test_interval_validation():
    with pytest.raises(InputError):
        gi({0: (2, 1)})
    with pytest.raises(InputError):
        gi({0: (-1, 1)})
    assert gi({0: (0, 0)}) == gi({})


def test_interval_exact_roundtrip():
    d = {0: 1, 3: 4}
    g = GradedDimInterval.exact(d)
    assert g.is_exact() and g.entries == ((0, 1, 1), (3, 4, 4))
    assert {deg: lo for deg, lo, _ in g.entries} == d
    assert GradedDimInterval.exact({0: 0, 2: 5}) == gi({2: (5, 5)})
    assert not gi({0: (1, 2)}).is_exact()
    assert not gi({0: (0, 3)}).is_exact()
    with pytest.raises(InputError):
        GradedDimInterval.exact({0: -1})


def test_convolve_interval_matches_exact_case():
    rng = random.Random(17)
    for _ in range(20):
        g1, g2 = random_graded(rng), random_graded(rng)
        got = convolve_interval(g1, g2)
        assert got.is_exact()
        assert got == gd(reference_convolve(g1, g2))


def test_delta_value_interval():
    g = gi({0: (1, 2), 2: (3, 5)})
    assert delta_value_interval(g) == (4, 7)
    assert delta_value_interval(gi({0: (1, 1), 1: (2, 4)})) == (3, 5)


def test_constructor_rejects_non_integers():
    bad = [
        ((0, 2.7, 3),),       # float lower bound, once truncated to 2
        ((0, 1, 3.0),),       # float upper bound
        ((0.5, 1, 1),),       # float degree, once truncated to 0
        ((True, 1, 1),),      # bools are not integers here
        ((0, True, 1),),
        ((0, 1, False),),
        (("4", 1, 1),),       # strings are not parsed
        ((0, "4", "4"),),
        ((0, 2, None),),      # no unknown upper bound
    ]
    for entries in bad:
        with pytest.raises(InputError):
            GradedDimInterval(entries)
    with pytest.raises(InputError):
        GradedDimInterval.exact({0: 2.0})
    with pytest.raises(InputError):
        gi({1: (1, "2")})
    with pytest.raises(InputError):
        GradedDimInterval(((0, 1, 1), (0, 0, 0)))  # duplicate degree


# -- dense representation ------------------------------------------------------

# Interval profiles over negative and positive degrees: cells may be [0, 0]
# (interior zeros once stored), and the profile may be empty.
cells = st.one_of(
    st.just((0, 0)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda p: (p[0], p[0] + p[1])),
)
profiles = st.dictionaries(st.integers(-8, 8), cells, max_size=8).map(gi)
exact_profiles = st.dictionaries(
    st.integers(-8, 8), st.integers(0, 3**40), max_size=8
).map(gd)


@given(profiles, profiles)
@settings(max_examples=300)
def test_dense_operations_match_sparse_reference(a, b):
    assert cone_bounds(a, b).entries == ref.cone_bounds(a, b).entries
    assert convolve_interval(a, b).entries == ref.convolve_interval(a, b).entries


@given(exact_profiles, exact_profiles, st.integers(-3, 3))
def test_dense_operations_match_sparse_reference_on_big_exact_profiles(a, b, s):
    a = a.shifted(s)
    assert cone_bounds(a, b).entries == ref.cone_bounds(a, b).entries
    assert convolve_interval(a, b).entries == ref.convolve_interval(a, b).entries


def _corners(g):
    """The exact profiles at the lows and at the highs of g."""
    return (gd({d: lo for d, lo, _ in g.entries}), gd({d: hi for d, _, hi in g.entries}))


@given(st.one_of(profiles, exact_profiles), st.one_of(profiles, exact_profiles),
       st.integers(-3, 3))
@settings(max_examples=300)
def test_cone_box_holds_a_point_with_the_euler_characteristic_of_b_minus_a(a, b, s):
    # The theorem in the catent.graded docstring: with every rank 0, a point
    # of A's box and one of B's give c_j = b_j + a_{j+1} inside the cone's
    # box, with alternating sum chi(b) - chi(a).  So no Euler-characteristic
    # filter can fail, and the reference, which keeps one, never raises.
    a = a.shifted(s)
    cone = cone_bounds(a, b)
    ref.cone_bounds(a, b)
    degrees = set(support(b)) | {d - 1 for d in support(a)} | set(support(cone))
    for pa in _corners(a):
        for pb in _corners(b):
            witness = {j: pb.lo(j) + pa.lo(j + 1) for j in degrees}
            for j, c_j in witness.items():
                assert cone.lo(j) <= c_j <= cone.hi(j), (pa, pb, j)
            assert chi(gd(witness)) == chi(pb) - chi(pa)


def _every_profile(g1, g2):
    """The inputs and results of every operation on g1 and g2."""
    return [g1, g2, g1.shifted(3), g1.scaled(0), g1.scaled(1), g2.scaled(3),
            g2.scaled(7**40), cone_bounds(g1, g2), cone_bounds(g2, g1),
            convolve_interval(g1, g2)]


@given(profiles, profiles)
def test_stored_ends_are_trimmed(g1, g2):
    for g in _every_profile(g1, g2):
        assert len(g.lows) == len(g.highs)
        if g.lows:
            for i in (0, -1):
                assert (g.lows[i], g.highs[i]) != (0, 0)
            assert g.entries[0][0] == g.offset
            assert g.entries[-1][0] == g.offset + len(g.lows) - 1
        else:
            assert g.offset == 0 and g.entries == ()


@given(profiles, profiles)
def test_highs_is_lows_exactly_when_exact(g1, g2):
    for g in _every_profile(g1, g2):
        exact = all(lo == hi for _, lo, hi in g.entries)
        assert (g.highs is g.lows) == exact == g.is_exact()
        for lo, hi in zip(g.lows, g.highs):
            if lo == hi:
                assert lo is hi


def test_equal_cells_share_one_int():
    big = 7**64
    g = gi({0: (big, big), 1: (0, big + 1)})
    assert not g.is_exact()
    assert g.lows[0] is g.highs[0]
    c = cone_bounds(gd({5: big}), gd({0: big}))
    assert c.is_exact() and c.lows[0] is c.lows[-1] is big
    s = g.scaled(big)
    assert not s.is_exact() and s.lows[0] is s.highs[0] == big * big


@given(profiles, st.integers(0, 9))
@settings(max_examples=300)
def test_scaled_is_the_kuenneth_product_with_one_cell(g, c):
    # Inexact and empty profiles alike; c = 0 gives the empty profile.
    got = g.scaled(c)
    assert got == convolve_interval(g, gd({0: c})) == _scaled(g, c)
    assert got.entries == tuple((d, c * lo, c * hi) for d, lo, hi in g.entries if c)


@given(profiles, st.integers(-5, 5), st.integers(1, 9))
def test_one_cell_kernel_is_a_shift_and_a_scale(g, s, c):
    assert convolve_interval(g, gd({s: c})) == g.shifted(-s).scaled(c)


@given(profiles, st.integers(-5, 5))
def test_shifted_shares_storage(g, s):
    moved = g.shifted(s)
    assert moved.lows is g.lows and moved.highs is g.highs
    assert moved.entries == tuple((d - s, lo, hi) for d, lo, hi in g.entries)


@given(profiles, profiles)
def test_equality_and_hash_follow_entries(g1, g2):
    for h in _every_profile(g1, g2):
        assert (h == g1) == (h.entries == g1.entries)
        same = GradedDimInterval(h.entries)
        assert same == h and hash(same) == hash(h)
        assert from_dict({d: (lo, hi) for d, lo, hi in h.entries}) == h


@given(profiles)
def test_lo_hi_are_lookups_into_entries(g):
    stored = {d: (lo, hi) for d, lo, hi in g.entries}
    for j in range(-12, 13):
        assert (g.lo(j), g.hi(j)) == stored.get(j, (0, 0))
    assert support(g) == tuple(stored)


def test_profiles_are_immutable():
    g = gi({0: (1, 2)})
    for name, value in (("offset", 3), ("lows", (5,)), ("highs", (5,)),
                        ("entries", ()), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    with pytest.raises(AttributeError):
        del g.lows
    assert g.entries == ((0, 1, 2),)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and twin.entries == g.entries
