import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catent.errors import CollapseError, InputError
from catent.graded import (
    GradedDimInterval,
    cone_bounds,
    convolve_interval,
    delta_value_interval,
)
from catent.twists import (
    BoundSeries,
    HKModel,
    _check_top,
    _levels,
    default_action,
    ext_growth_series,
    ext_growth_uppers,
    eval_cone_profile,
    model_verdict,
    negative_line_bundle_profile,
    spherical_twist_levels,
    spherical_twist_series,
    spherical_twist_uppers,
    verify_iterate_contract,
)
from catent.lattice import BilinearLattice, SquareIntMatrix, char_poly, is_unipotent
from catent.words import LogRho, certify_log_rho, induced_matrix
from graded_reference import _chi_interval, from_dict, support
from rational_reference import tensor_matrix_from_nilpotent as tensor_exponential
import twists_reference
from twists_reference import (
    first_iterate_profile,
    trivial_bundle_profile,
    verify_correction_contract,
    verify_eval_cone_boundary,
)

exact = GradedDimInterval.exact

K3 = HKModel(1, q=10)  # d_i = 5 i^2 + 2: the degree-10 polarized K3 model
HK2 = HKModel(2, q=2)  # d_i = binom(i^2 + 3, 2)
EXACT_ZERO = LogRho(0.0, None)  # as certify_log_rho gives the default word


# -- model validation ----------------------------------------------------------


def test_model_requires_exactly_one_rule():
    with pytest.raises(InputError):
        HKModel(1)
    with pytest.raises(InputError):
        HKModel(1, q=10, table=(2, 3))


def test_model_rejects_degenerate_dimensions():
    with pytest.raises(InputError):
        HKModel(1, table=(1, 5))
    with pytest.raises(InputError):
        HKModel(1, table=(5, 4))
    with pytest.raises(InputError):
        HKModel(0, q=10)


def test_model_rejects_nonintegral_rule():
    # d_1 = 9/2 + 2 is not an integer, so the model takes an even q only.
    with pytest.raises(InputError, match=r"^q: must be an even positive integer, got 9$"):
        HKModel(1, q=9)


@pytest.mark.parametrize("n, q, table, message", [
    (1, 10.0, None, "q: must be an even positive integer, got 10.0"),
    (1, True, None, "q: must be an even positive integer, got True"),
    (1, "10", None, "q: must be an even positive integer, got '10'"),
    (1, -2, None, "q: must be an even positive integer, got -2"),
    (1.0, 10, None, "n: must be an integer, got 1.0"),
    (True, 10, None, "n: must be an integer, got True"),
    ("1", 10, None, "n: must be an integer, got '1'"),
    (1, None, (2.9, 3), "d-table entry d_1 must be an integer, got 2.9"),
    (1, None, (2, True), "d-table entry d_2 must be an integer, got True"),
    (1, None, (2, "3"), "d-table entry d_2 must be an integer, got '3'"),
    (1, None, (), "d-table must be a nonempty list of integers, got ()"),
    (1, None, "23", "d-table must be a nonempty list of integers, got '23'"),
    (1, None, 5, "d-table must be a nonempty list of integers, got 5"),
])
def test_model_values_are_checked_without_coercion(n, q, table, message):
    # A float, bool or str is never read as an int: q=10.0 once ended in a
    # TypeError, and the table (2.9, 3) was stored as (2, 3).
    with pytest.raises(InputError) as info:
        HKModel(n, q, table)
    assert str(info.value) == message


def test_model_stores_a_list_table_as_a_tuple():
    assert HKModel(1, table=[6, 21]).table == (6, 21)


def test_dim_values():
    assert [K3.dim(i) for i in range(1, 5)] == [7, 22, 47, 82]
    assert [HK2.dim(i) for i in range(1, 5)] == [6, 21, 66, 171]
    assert HKModel(1, table=(6, 21)).dim(2) == 21
    with pytest.raises(InputError):
        HKModel(1, table=(6, 21)).dim(3)


# -- line bundle profiles --------------------------------------------------------


def test_negative_line_bundle_profile():
    assert negative_line_bundle_profile(K3, 1) == exact({2: 7})
    assert negative_line_bundle_profile(HKModel(2, table=(6,)), 1) == exact({4: 6})
    p = negative_line_bundle_profile(HK2, 3)
    assert support(p) == (4,) and p.lo(4) == p.hi(4) == HK2.dim(3)
    with pytest.raises(InputError):
        negative_line_bundle_profile(K3, 0)


def test_trivial_bundle_profile():
    assert trivial_bundle_profile(K3) == exact({0: 1, 2: 1})
    assert trivial_bundle_profile(HK2) == exact({0: 1, 2: 1, 4: 1})


# -- first iterate ----------------------------------------------------------------


def test_first_iterate_k3():
    assert first_iterate_profile(K3, 1, 1) == exact({2: 47, 3: 154, 4: 154})


def test_first_iterate_table_model():
    model = HKModel(2, table=(6, 21, 48, 171))
    assert first_iterate_profile(model, 1, 2) == exact({4: 171, 7: 441, 8: 441})


def test_first_iterate_euler_characteristic():
    # The two top entries sit in adjacent degrees and cancel, so the
    # alternating sum equals the single bottom entry.
    for model in (K3, HK2):
        for k in (1, 2):
            for l in (1, 3):
                p = first_iterate_profile(model, k, l)
                chi = model.dim(k + l + 1)
                assert _chi_interval(p) == (chi, chi)


def test_machinery_matches_closed_form_sweep():
    rules = (
        HKModel(1, q=10),
        HKModel(2, q=2),
        HKModel(3, q=4),
        HKModel(2, table=tuple(3 * i * i + 3 for i in range(1, 12))),
    )
    for model in rules:
        for k in range(1, 4):
            for l in range(1, 4):
                dd = model.dim(k + 1) * model.dim(l)
                got = first_iterate_profile(model, k, l)
                assert got == exact(
                    {
                        model.dim_x: model.dim(k + l + 1),
                        2 * model.dim_x - 1: dd,
                        2 * model.dim_x: dd,
                    }
                )


# -- iteration contracts -----------------------------------------------------------


def test_second_iterate_step_values():
    prof = verify_iterate_contract(K3, 2, 1, 1)
    # top degree 2n(m+1) = 6 with d_2 d_1 d_1 = 22 * 49 = 1078, nothing above
    assert (prof.lo(6), prof.hi(6)) == (1078, 1078)
    assert max(support(prof)) == 6


def test_vanishing_window_and_top_through_m6():
    for model in (K3, HK2):
        for k in (1, 2):
            for l in (1, 2):
                first_iterate_profile(model, k, l)
                verify_correction_contract(model, 1, k, l)
            for m in range(2, 7):
                for l in (1, 2):
                    verify_correction_contract(model, m, k, l)
                    verify_eval_cone_boundary(model, m, k, l)
                    prof = verify_iterate_contract(model, m, k, l)
                    top = model.dim_x * (m + 1)
                    expected = model.dim(k + 1) * model.dim(l) * model.dim(1) ** (m - 1)
                    assert (prof.lo(top), prof.hi(top)) == (expected, expected)
                    assert all(deg <= top for deg in support(prof))
                    assert min(support(prof)) >= 0


def test_correction_top_values():
    # h^{2n(m+1)+1} of the level-l correction is d_{k+1} d_l d_1^{m-1}, exactly.
    for m in range(1, 6):
        prof = verify_correction_contract(K3, m, 1, 2)
        top = 2 * (m + 1) + 1
        assert (prof.lo(top), prof.hi(top)) == (22 * 22 * 7 ** (m - 1),) * 2


def test_eval_cone_boundary_rows():
    # The evaluation cone has the exact product entry at 2n(m+1)+2, zero
    # above, and its shifted complex term carries the same value one higher.
    for m in range(2, 6):
        prof = verify_eval_cone_boundary(K3, m, 1, 1)
        top = 2 * (m + 1) + 2
        expected = 22 * 7 * 7 ** (m - 1)
        assert (prof.lo(top), prof.hi(top)) == (expected, expected)
        assert all(deg <= top for deg in support(prof))


def test_first_step_contracts_hold_at_every_generator_level():
    assert HK2.generator_width == 5
    for l in range(1, HK2.generator_width + 1):
        first_iterate_profile(HK2, 1, l)
        verify_correction_contract(HK2, 1, 1, l)


def test_contracts_reject_bad_level():
    with pytest.raises(InputError):
        verify_iterate_contract(K3, 2, 1, 0)
    with pytest.raises(InputError):
        verify_correction_contract(K3, 2, 1, 0)
    with pytest.raises(InputError):
        eval_cone_profile(K3, exact({2: 7}), 0)
    with pytest.raises(InputError, match=r"^l: must be >= 1, got 0$"):
        spherical_twist_series(K3, 1, 0, 3)


def test_collapse_error_names_degree():
    prof = from_dict({4: (3, 5)})
    with pytest.raises(CollapseError) as exc:
        _check_top(prof, 4, 4, "test profile")
    assert exc.value.degree == 4
    with pytest.raises(CollapseError) as exc:
        _check_top(prof, 3, 1, "test profile")
    assert exc.value.degree == 4


def test_collapse_error_names_the_lowest_cell_above_top():
    # An inexact cell above the top, zero cells around it, and a larger
    # stored cell last: the error names the inexact one, not the last.
    prof = from_dict({4: (4, 4), 6: (1, 2), 9: (5, 5)})
    with pytest.raises(CollapseError) as exc:
        _check_top(prof, 4, 4, "test profile")
    assert exc.value.degree == 6
    assert str(exc.value) == ("test profile: expected exact vanishing above "
                              "degree 4, found [1, 2] at degree 6")
    _check_top(prof, 9, 5, "test profile")  # nothing above the last cell


# Interval profiles whose cells may be [0, 0] inside the range, or empty.
_cells = st.one_of(
    st.just((0, 0)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda p: (p[0], p[0] + p[1])),
)
_profiles = st.dictionaries(st.integers(-4, 8), _cells, max_size=6).map(from_dict)


def _collapse(check, *args):
    try:
        check(*args)
    except CollapseError as exc:
        return str(exc), exc.degree
    return None


@given(_profiles, st.integers(-3, 10), st.integers(0, 4))
@settings(max_examples=300)
def test_check_top_matches_the_full_scan(profile, top, expected):
    args = (profile, top, expected, "test profile")
    assert _collapse(_check_top, *args) == _collapse(
        twists_reference.check_top_by_scan, *args)


@given(_profiles, st.sampled_from([K3, HK2, HKModel(1, table=(3, 7, 12))]))
@settings(max_examples=200)
def test_eval_cone_matches_the_convolution_oracle(mult, model):
    for l in range(1, model.generator_width + 1):
        assert eval_cone_profile(model, mult, l) == twists_reference.eval_cone_profile(
            model, mult, l)


# -- growth series -------------------------------------------------------------------


def test_series_first_value_exact():
    series = ext_growth_series(K3, 3)
    d = K3.dim
    expected = sum(
        d(k + l + 1) + 2 * d(k + 1) * d(l)
        for k in range(1, 4)
        for l in range(1, 4)
    )
    assert series.lowers[0] == expected == 24155
    assert series.uppers[0] == expected


def test_series_dominates_top_terms_and_geometric_floor():
    for model in (K3, HK2):
        series = ext_growth_series(model, 6)
        d = model.dim
        width = model.generator_width
        for m, lo, _ in series.rows():
            tops = sum(
                d(k + 1) * d(l) * d(1) ** (m - 1)
                for k in range(1, width + 1)
                for l in range(1, width + 1)
            )
            assert lo >= tops >= d(1) ** (m + 1)


def test_series_integer_at_t_zero():
    series = ext_growth_series(K3, 3)
    assert all(isinstance(lo, int) for lo in series.lowers)
    assert all(isinstance(hi, int) for hi in series.uppers)


# hk at n = 2, m_max = 4 reads d_1 .. d_14.
FIBONACCI = HKModel(2, table=(2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987))


@pytest.mark.parametrize("model, m_max", [
    (K3, 10), (HK2, 8), (HKModel(3, q=10), 6), (HKModel(1, q=2), 14),
    (HKModel(4, q=16), 6), (K3, 24), (FIBONACCI, 4),
])
def test_upper_totals_equal_the_series_uppers(model, m_max):
    # Upper totals add through a cone and multiply through a Kuenneth
    # product, so the scalar recursion gives the profiles' uppers exactly.
    uppers = ext_growth_series(model, m_max).uppers
    assert tuple(ext_growth_uppers(model, m_max)) == uppers


def test_upper_totals_read_a_table_in_order():
    # The series reads up to d_14; the totals fail at the first missing d_i.
    for size in (10, 13):
        short = HKModel(2, table=FIBONACCI.table[:size])
        message = f"^d-table too short: need d_{size + 1}, have {size} entries$"
        with pytest.raises(InputError, match=message):
            tuple(ext_growth_uppers(short, 4))


@pytest.mark.parametrize("model", [
    HKModel(n, q=q) for n in range(1, 5) for q in (2, 10, 16)] + [FIBONACCI])
def test_upper_totals_match_the_memoized_recursion(model):
    # The level loop on unit corrections against the memoized recursion on
    # every (m, k, l).  The uppers at step m do not depend on m_max, so one
    # oracle run serves every m_max; FIBONACCI reaches m_max 4 at n = 2.
    depths = [*range(1, 9), 24, 64] if model.table is None else range(1, 5)
    oracle = twists_reference.ext_growth_uppers(model, max(depths))
    for m_max in depths:
        assert list(ext_growth_uppers(model, m_max)) == oracle[:m_max]


@pytest.mark.parametrize("n", range(1, 5))
def test_unit_corrections_are_a_convolution(n):
    # c_m = C(m, 1) = 2 sum_{i<m} c_{m-i} d_i + 2 d_m, so that
    # sum c_m x^m = 2D(x) / (1 - 2D(x)) with D(x) = sum d_i x^i.
    d = [None, *map(HKModel(n, q=10).dim, range(1, 41))]
    unit_step = lambda a, d_lv, b: 2 * a * d_lv + b  # as in ext_growth_uppers
    c = [None] + [level[0] for level in _levels([1] + [0] * 40, unit_step, d, 40)]
    for m in range(1, 41):
        assert c[m] == 2 * sum(c[m - i] * d[i] for i in range(1, m)) + 2 * d[m]


def test_log_slope_window_validation():
    series = BoundSeries((2, 4, 8), (2, 4, 8))
    assert series.log_slope(1, 3) == pytest.approx(math.log(2))
    with pytest.raises(InputError):
        series.log_slope(3, 1)


@pytest.mark.parametrize("lower", [0, -1, 0.0])
def test_log_slope_needs_positive_lowers_in_its_window(lower):
    series = BoundSeries((lower, 1, 2), (1, 1, 2))
    assert series.log_slope(2, 3) == pytest.approx(math.log(2))  # outside the window
    with pytest.raises(InputError, match="^series must have positive lower bounds "
                       "in the slope window$"):
        series.log_slope(1, 2)


# -- entropy bound and verdict ----------------------------------------------------


def test_entropy_lower_bound_values():
    assert model_verdict(K3, 6, EXACT_ZERO).entropy_lower == pytest.approx(math.log(7))
    assert model_verdict(HK2, 6, EXACT_ZERO).entropy_lower == pytest.approx(math.log(6))
    with pytest.raises(InputError):
        model_verdict(K3, 2, EXACT_ZERO)


def test_entropy_empirical_slope_converges():
    verdict = model_verdict(K3, 10, EXACT_ZERO)
    assert verdict.empirical_slope >= verdict.entropy_lower - 0.05


def _default_word_verdict(model, m_max):
    return model_verdict(model, m_max, certify_log_rho(char_poly(default_action(model))))


def test_gy_verdict_k3():
    verdict = _default_word_verdict(K3, 6)
    assert verdict.verdict == "GY violated"
    assert verdict.log_rho == EXACT_ZERO
    assert verdict.gap >= math.log(7) - 1e-12
    assert verdict.entropy_lower == pytest.approx(math.log(7))


def test_gy_verdict_generic_model():
    table = tuple(i * i + 3 for i in range(1, 15))
    verdict = _default_word_verdict(HKModel(2, table=table), 4)
    assert verdict.verdict == "GY violated"
    assert verdict.gap >= math.log(4) - 1e-12


def test_default_word_is_unipotent():
    for model in (K3, HK2, HKModel(3, table=(2, 3, 4, 5, 6, 7, 8))):
        assert is_unipotent(default_action(model))
    # For q = 10 the word is the identity P-twist times the tensor action.
    assert default_action(K3).entries == ((1, 0, 0), (-1, 1, 0), (5, -10, 1))


def test_default_action_is_the_ptwist_times_the_tensor_exponential():
    # default_action writes the tensor as a matrix; the Fraction sum of the
    # exponential series of the cup product N checks it.  The ptwist acts as
    # I, and a d_table model stands in q = 2.
    models = [HKModel(1, q=q) for q in (*range(2, 201, 2), 2 * 10**9)]
    for model in models + [HKModel(1, table=(3, 6, 11))]:
        q = 2 if model.q is None else model.q
        n = SquareIntMatrix(((0, 0, 0), (-1, 0, 0), (0, -q, 0)))
        want = SquareIntMatrix.identity(3) @ tensor_exponential(n)
        assert default_action(model) == want


@pytest.mark.parametrize("q", range(2, 21, 2))
def test_spherical_and_tensor_word_polynomial(q):
    # The spherical twist along v(O) = (1, 0, 1), of self-pairing -2, then
    # the tensor that default_action writes: (x + 1)(x^2 + (q/2 - 2) x + 1).
    lattice = BilinearLattice(((0, 0, -1), (0, q, 0), (-1, 0, 0)))
    tensor = default_action(HKModel(1, q=q)).entries  # the ptwist acts as I
    word = [{"kind": "spherical", "class": [1, 0, 1]},
            {"kind": "tensor", "matrix": tensor}]
    assert char_poly(induced_matrix(lattice, word)) == (1, q // 2 - 1, q // 2 - 1, 1)


# -- surface spherical twist -------------------------------------------------------


def test_surface_series_frozen_values():
    # m = 1 value 201 = d_3 + d_2 d_1 cross-checked by a hand long-exact-
    # sequence expansion; later values are exact regression anchors.
    series = spherical_twist_series(K3, 1, 1, 5)
    assert series.lowers[:3] == (201, 1973, 18246)
    assert series.uppers[:3] == (201, 1973, 19394)


@pytest.mark.parametrize("model, k, l, m_max", [
    (K3, 1, 1, 5), (K3, 2, 3, 8), (HKModel(1, q=2), 4, 1, 12),
    (HKModel(1, table=FIBONACCI.table[:9]), 3, 2, 4),
])
def test_surface_upper_totals_equal_the_series_uppers(model, k, l, m_max):
    # The level loop on ints gives the series uppers, exact ints.
    totals = spherical_twist_uppers(model, k, l, m_max)
    uppers = spherical_twist_series(model, k, l, m_max).uppers
    assert [(type(x), x) for x in totals] == [(int, x) for x in uppers]


def test_surface_series_nondecreasing():
    series = spherical_twist_series(K3, 1, 1, 5)
    assert all(a <= b for a, b in zip(series.lowers, series.lowers[1:]))


def test_surface_trivial_twist_of_zero_object():
    # The twist of the zero object at any level is the zero profile.
    zero = GradedDimInterval()
    assert cone_bounds(convolve_interval(zero, exact({2: 22})), zero) == zero


def test_surface_model_validation():
    with pytest.raises(InputError):
        HKModel(1, q=9)
    with pytest.raises(InputError):
        spherical_twist_series(K3, 0, 1, 3)
    with pytest.raises(InputError):
        spherical_twist_series(HK2, 1, 1, 3)
    # The checks run at the call, before the loop reads a d_i.
    for run in (spherical_twist_levels, spherical_twist_uppers):
        with pytest.raises(InputError, match="surface model"):
            run(HK2, 1, 1, 3)
        with pytest.raises(InputError, match=r"^l: must be >= 1, got 0$"):
            run(K3, 1, 0, 3)
        with pytest.raises(InputError, match=r"^m_max: must be >= 1, got 0$"):
            run(K3, 1, 1, 0)


SURFACES = {
    "q2": HKModel(1, q=2),
    "q10": K3,
    "fibonacci": HKModel(1, table=FIBONACCI.table[:9] + (400,) * 9),
    "linear": HKModel(1, table=tuple(range(2, 20))),
}


@pytest.mark.parametrize("name", SURFACES)
def test_surface_level_loop_matches_the_dict_recursion(name):
    # The level loop keeps one level; the reference keeps every (m, lv)
    # profile in a dict and propagates the upper profiles by hand.  Series
    # and upper totals agree bit for bit, types included.
    model = SURFACES[name]

    def typed(values):
        return [(type(x), x) for x in values]

    for k in range(1, 4):
        for l in range(1, 4):
            for m_max in range(1, 13):
                series = spherical_twist_series(model, k, l, m_max)
                oracle = twists_reference.spherical_twist_series(model, k, l, m_max)
                assert typed(series.lowers) == typed(oracle.lowers)
                assert typed(series.uppers) == typed(oracle.uppers)
                totals = [delta_value_interval(p)[1] for p in
                          twists_reference.spherical_twist_uppers(model, k, l, m_max)]
                assert typed(spherical_twist_uppers(model, k, l, m_max)) == typed(totals)


def test_surface_series_names_the_first_missing_d():
    # The loop reads d_1, d_2, ... in order: k = 5 on three entries needs
    # d_6 first, but d_4 is the first entry missing.
    with pytest.raises(InputError, match="need d_4, have 3 entries"):
        spherical_twist_series(HKModel(1, table=(7, 22, 47)), 5, 1, 3)
