import math
import random
from dataclasses import replace

import pytest

from catent.errors import InputError
from catent.hilbert import hilbert_lift_verdict, kunneth_power_series
from catent.lattice import SquareIntMatrix, char_poly, spectral_radius
from catent.twists import BoundSeries, HKModel, default_action, model_verdict
from catent.words import LogRho, Verdict, certify_log_rho, derive_verdict
from lattice_powers import poly_divides, symmetric_power_matrix, tensor_power_matrix


def random_matrix(rng, n, lo=-3, hi=3):
    return SquareIntMatrix(
        tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))
    )


# -- Kuenneth series -------------------------------------------------------------


def test_kunneth_identity_at_one():
    s = BoundSeries((2, 4), (2, 5))
    assert kunneth_power_series(s, 1) == s


def test_kunneth_geometric():
    s = BoundSeries((2, 4, 8), (2, 4, 8))
    out = kunneth_power_series(s, 2)
    assert out.lowers == (4, 16, 64)


def test_kunneth_slope_scales_exactly():
    rng = random.Random(2)
    for n in (2, 3):
        c, r = rng.randint(1, 9), rng.randint(2, 5)
        exact = tuple(c * r**m for m in range(1, 8))
        s = BoundSeries(exact, exact)
        base_slope = s.log_slope(1, 7)
        lifted = kunneth_power_series(s, n).log_slope(1, 7)
        assert math.isclose(lifted, n * base_slope, rel_tol=1e-9)


# -- tensor powers ----------------------------------------------------------------


def test_tensor_power_one_is_identity_op():
    m = SquareIntMatrix(((1, 2), (3, 4)))
    assert tensor_power_matrix(m, 1) == m


def test_tensor_power_diagonal():
    m = SquareIntMatrix(((2, 0), (0, 3)))
    out = tensor_power_matrix(m, 2)
    assert [out.entries[i][i] for i in range(4)] == [4, 6, 6, 9]
    assert all(
        out.entries[i][j] == 0 for i in range(4) for j in range(4) if i != j
    )


def test_tensor_power_spectral_radius_scales():
    rng = random.Random(5)
    for _ in range(10):
        m = random_matrix(rng, rng.randint(2, 3))
        rho = spectral_radius(char_poly(m))
        for n in (2, 3):
            got = spectral_radius(char_poly(tensor_power_matrix(m, n)))
            assert abs(got - rho**n) <= 1e-6 * max(1.0, rho**n)


# -- symmetric powers ---------------------------------------------------------------


def test_symmetric_power_identity():
    out = symmetric_power_matrix(SquareIntMatrix.identity(3), 2)
    assert out == SquareIntMatrix.identity(6)  # binom(3+1, 2)


def test_symmetric_power_diagonal():
    out = symmetric_power_matrix(SquareIntMatrix(((2, 0), (0, 3))), 2)
    assert out.entries == ((4, 0, 0), (0, 6, 0), (0, 0, 9))


def test_symmetric_power_spectral_radius_scales():
    rng = random.Random(7)
    for _ in range(12):
        m = random_matrix(rng, rng.randint(2, 4))
        rho = spectral_radius(char_poly(m))
        for n in (2, 3):
            got = spectral_radius(char_poly(symmetric_power_matrix(m, n)))
            assert abs(got - rho**n) <= 1e-6 * max(1.0, rho**n)


def test_symmetric_eigenvalues_contained_in_tensor_power():
    # char poly of the symmetric restriction divides that of the full
    # Kronecker power, so its eigenvalues are products of base eigenvalues.
    rng = random.Random(11)
    for _ in range(8):
        m = random_matrix(rng, rng.randint(2, 3))
        for n in (2, 3):
            sym = char_poly(symmetric_power_matrix(m, n))
            full = char_poly(tensor_power_matrix(m, n))
            assert poly_divides(sym, full)


def test_symmetric_power_unipotent_preserved():
    u = SquareIntMatrix(((1, 2, 0), (0, 1, -1), (0, 0, 1)))
    from catent.lattice import is_unipotent

    assert is_unipotent(symmetric_power_matrix(u, 3))


# -- scenario and verdict --------------------------------------------------------------


def make_base(m_max=5):
    model = HKModel(1, q=10)
    return model_verdict(model, m_max, certify_log_rho(char_poly(default_action(model))))


def test_scenario_validation():
    base = make_base(3)
    with pytest.raises(InputError):
        hilbert_lift_verdict(0, base)
    with pytest.raises(InputError):
        hilbert_lift_verdict(2, replace(base, series=BoundSeries((0,), (0,))))
    with pytest.raises(InputError):
        hilbert_lift_verdict(2, replace(base, entropy_lower=-1.0))


@pytest.mark.parametrize("field", ["entropy_lower", "empirical_slope", "log_rho", "series"])
def test_lift_names_a_missing_base_field(field):
    # Once an AttributeError (no series) or a TypeError (no bound, slope or
    # log rho); the field is named before any positivity check reads it.
    base = replace(make_base(3), **{field: None})
    with pytest.raises(InputError, match=f"^base verdict has no {field}$"):
        hilbert_lift_verdict(2, base)


def test_lift_verdict_scales_gap():
    base = make_base()
    verdict = hilbert_lift_verdict(3, base)
    assert verdict.entropy_lower == pytest.approx(3 * math.log(7))
    assert verdict.log_rho == LogRho(0.0, None)
    assert list(verdict.details.items()) == [
        ("points", 3), ("base_entropy_lower", base.entropy_lower),
        ("base_log_rho", 0.0), ("strict_gap", True)]
    assert verdict.series.lowers[0] == 24155**3
    assert verdict.empirical_slope == 3 * base.empirical_slope
    assert verdict.gap == verdict.entropy_lower
    assert verdict.verdict == "GY violated"


def test_lift_verdict_identity_at_one_point():
    base = make_base()
    verdict = hilbert_lift_verdict(1, base)
    assert verdict.entropy_lower == pytest.approx(math.log(7))
    assert verdict.series == base.series


def test_lift_verdict_equality_case_claims_no_gap():
    # Base with entropy bound equal to log rho: no strict gap is claimed.
    series = BoundSeries((2, 4, 8), (2, 4, 8))
    log2 = math.log(2)
    log_rho = LogRho(log2, char_poly(SquareIntMatrix(((2,),))))
    base = Verdict(
        base=2,
        log_rho=log_rho,
        entropy_lower=log2,
        empirical_slope=series.log_slope(1, 3),
        gap=0.0,
        verdict=derive_verdict(2, log_rho),
        series=series,
        details={},
    )
    verdict = hilbert_lift_verdict(2, base)
    assert not verdict.details["strict_gap"]
    # Only the value scales: the base's polynomial carries over to the gate.
    assert verdict.log_rho == LogRho(2 * math.log(2), (-2, 1))
    assert verdict.verdict == "no violation certified"
