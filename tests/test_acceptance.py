"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines and timings.  Every tolerance is pinned here, not calibrated.
"""

import json
import math
import random
import time

import pytest

from catent.cli import emit_report, list_builtin_models, load_config, run_scenario
from catent.descent import CoverScenario, quotient_verdict
from catent.errors import ContractError
from catent.graded import GradedDimInterval, cone_bounds
from catent.hilbert import kunneth_power_series
from catent.lattice import (
    BilinearLattice,
    SquareIntMatrix,
    char_poly,
    spectral_radius,
)
from catent.twists import (
    BoundSeries,
    HKModel,
    ext_growth_series,
    verify_iterate_contract,
)
from catent.words import LogRho, induced_matrix
from graded_reference import cone_exact_from_map_rank, support
from lattice_powers import poly_eval_matrix, symmetric_power_matrix
from twists_reference import (
    first_iterate_profile,
    verify_correction_contract,
    verify_eval_cone_boundary,
)

TOL = 1e-9


def _passed(n, text, elapsed=None):
    timing = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    print(f"PASS  criterion {n}: {text}{timing}")


def random_matrix(rng, n, lo=-3, hi=3):
    return SquareIntMatrix(
        tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))
    )


def test_criterion_1_first_iterate_closed_form():
    start = time.perf_counter()
    rules = {
        1: (HKModel(1, q=10), HKModel(1, q=2),
            HKModel(1, table=tuple(3 * i * i + 2 for i in range(1, 12)))),
        2: (HKModel(2, q=10), HKModel(2, q=2),
            HKModel(2, table=tuple(5 * i * i + 4 for i in range(1, 12)))),
        3: (HKModel(3, q=10), HKModel(3, q=2),
            HKModel(3, table=tuple(i**3 + 3 for i in range(1, 12)))),
    }
    checked = 0
    for n, models in rules.items():
        for model in models:
            for k in range(1, 6):
                for l in range(1, 6):
                    dd = model.dim(k + 1) * model.dim(l)
                    expected = GradedDimInterval.exact(
                        {
                            2 * n: model.dim(k + l + 1),
                            4 * n - 1: dd,
                            4 * n: dd,
                        }
                    )
                    assert first_iterate_profile(model, k, l) == expected
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s, budget 1 s"
    _passed(1, f"triangle machinery equals the m=1 closed form "
               f"({checked} cases, zero tolerance)", elapsed)


def test_criterion_2_iteration_tables_through_m6():
    start = time.perf_counter()
    cases = (
        (HKModel(1, q=10), (1, 2, 3), (1, 2, 3)),
        (HKModel(2, q=2), (1, 2), (1, 2, 3, 4, 5)),
    )
    for model, ks, ls in cases:
        n = model.n
        d = model.dim
        for k in ks:
            for l in ls:
                first_iterate_profile(model, k, l)
                verify_correction_contract(model, 1, k, l)
            for m in range(2, 7):
                for l in ls:
                    prof = verify_iterate_contract(model, m, k, l)
                    verify_correction_contract(model, m, k, l)
                    top = 2 * n * (m + 1)
                    expected = d(k + 1) * d(l) * d(1) ** (m - 1)
                    assert (prof.lo(top), prof.hi(top)) == (expected, expected)
                    assert all(deg <= top for deg in support(prof))
                for l in ls:
                    dprof = verify_eval_cone_boundary(model, m, k, l)
                    row = 2 * n * (m + 1) + 2
                    boundary = d(k + 1) * d(l) * d(1) ** (m - 1)
                    assert (dprof.lo(row), dprof.hi(row)) == (boundary, boundary)
                    assert all(deg <= row for deg in support(dprof))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s, budget 5 s"
    _passed(2, "top cohomology, vanishing window, and evaluation-cone "
               "boundary rows reproduced exactly for m <= 6", elapsed)


def test_criterion_3_growth_floor_and_slope():
    start = time.perf_counter()
    for model in (HKModel(1, q=10), HKModel(2, q=2)):
        series = ext_growth_series(model, 10)
        d1 = model.dim(1)
        for m, lo, _ in series.rows():
            assert isinstance(lo, int)
            assert lo >= d1 ** (m + 1)
        slope = series.log_slope(5, 10)
        assert abs(slope - math.log(d1)) <= 0.05
    elapsed = time.perf_counter() - start
    _passed(3, "lower(m) >= d1^(m+1) exactly for m <= 10 and the log-slope "
               "on [5,10] is within 0.05 of log d1", elapsed)


def test_criterion_4_k3_preset_verdict():
    report = run_scenario(load_config(list_builtin_models()["k3-q10"]))
    assert report["verdict"] == "GY violated"
    assert report["entropy_lower_certified"] == math.log(7)
    assert report["log_rho"] == 0.0
    assert report["log_rho_exact_zero"]
    _passed(4, "k3-q10 preset certifies bound log 7 with integer-verified "
               "unipotent action (log rho exactly 0)")


def test_criterion_5_power_scaling():
    start = time.perf_counter()
    rng = random.Random(20260810)
    for case in range(50):
        n = case % 3 + 1
        rank = rng.randint(2, 4)
        m = random_matrix(rng, rank)
        rho = spectral_radius(char_poly(m))
        sym_rho = spectral_radius(char_poly(symmetric_power_matrix(m, n)))
        assert abs(sym_rho - rho**n) <= 1e-6 * max(1.0, rho**n)
    for n in (2, 3):
        exact = tuple(5 * 3**m for m in range(1, 9))
        base = BoundSeries(exact, exact)
        lifted = kunneth_power_series(base, n)
        assert math.isclose(
            lifted.log_slope(1, 8), n * base.log_slope(1, 8), rel_tol=1e-12
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s, budget 10 s"
    _passed(5, "symmetric-restriction spectral radius is the n-th power "
               "(50 cases, 1e-6) and geometric series slopes scale by n", elapsed)


def test_criterion_6_cone_soundness_bulk():
    start = time.perf_counter()
    rng = random.Random(424242)
    for _ in range(10_000):
        a = GradedDimInterval.exact({j: rng.randint(0, 5) for j in range(-6, 7)})
        b = GradedDimInterval.exact({j: rng.randint(0, 5) for j in range(-6, 7)})
        ranks = {
            j: rng.randint(0, min(a.lo(j), b.lo(j)))
            for j in set(support(a)) | set(support(b))
        }
        exact = cone_exact_from_map_rank(a, b, ranks)
        assert exact.is_exact()
        bounds = cone_bounds(a, b)
        for j in set(support(exact)) | set(support(bounds)):
            assert bounds.lo(j) <= exact.lo(j) <= bounds.hi(j)
    # Disjoint supports: both sides of the window must collapse exactly.
    for _ in range(500):
        cut = rng.randint(-3, 3)
        a = GradedDimInterval.exact(
            {j: rng.randint(0, 5) for j in range(cut + 2, cut + 6)}
        )
        b = GradedDimInterval.exact(
            {j: rng.randint(0, 5) for j in range(cut - 4, cut + 1)}
        )
        c = cone_bounds(a, b)
        assert c.is_exact()
        for j in range(cut - 6, cut + 7):
            expected = b.lo(j) if j <= cut else a.lo(j + 1)
            assert c.lo(j) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s, budget 10 s"
    _passed(6, "10^4 rank-realized triangles lie inside cone_bounds and "
               "disjoint-support windows collapse exactly", elapsed)


def test_criterion_7_exact_linear_algebra_checks():
    start = time.perf_counter()
    rng = random.Random(777)
    for n in range(1, 9):
        for _ in range(3):
            m = random_matrix(rng, n, -5, 5)
            assert not any(map(any, poly_eval_matrix(char_poly(m), m).entries))
    for _ in range(100):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n)
        c = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        c_inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(10):
            i, j = rng.sample(range(n), 2)
            f = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                c[i][k] += f * c[j][k]
            for k in range(n):
                c_inv[k][j] -= f * c_inv[k][i]
        cm = SquareIntMatrix(tuple(map(tuple, c)))
        cm_inv = SquareIntMatrix(tuple(map(tuple, c_inv)))
        assert cm @ cm_inv == SquareIntMatrix.identity(n)
        assert abs(
            spectral_radius(char_poly(cm @ m @ cm_inv)) - spectral_radius(char_poly(m))
        ) <= 1e-8
    for _ in range(20):
        m = random_matrix(rng, rng.randint(2, 4))
        rho = spectral_radius(char_poly(m))
        for k in range(1, 5):
            slack = k * TOL * max(1.0, rho) ** (k - 1) + TOL
            assert abs(spectral_radius(char_poly(m.power(k))) - rho**k) <= slack
    elapsed = time.perf_counter() - start
    _passed(7, "Cayley-Hamilton, unimodular conjugation invariance "
               "(100 cases, 1e-8), and power scaling of the radius", elapsed)


def test_criterion_8_descent_preset_and_counterexample():
    report = run_scenario(load_config(list_builtin_models()["enriques-over-hk"]))
    assert report["verdict"] == "GY violated"
    assert report["log_rho"] == 0.0 and report["log_rho_exact_zero"]
    assert report["entropy_lower_certified"] == math.log(6)  # equals the cover bound

    preset = list_builtin_models()["enriques-over-hk"]
    lattice = BilinearLattice(preset["lattice"]["gram"])
    deck = SquareIntMatrix(tuple(map(tuple, preset["deck"]["matrix"])))
    sc = CoverScenario(deck, 2, induced_matrix(lattice, preset["word"]))
    assert sc.action @ deck == deck @ sc.action
    assert quotient_verdict(sc)[0] == LogRho(0.0, None)

    z2 = BilinearLattice(((1, 0), (0, 1)))
    with pytest.raises(ContractError, match="does not commute with the deck"):
        CoverScenario(
            SquareIntMatrix(((0, 1), (1, 0))),
            2,
            induced_matrix(z2, [{"kind": "tensor", "matrix": [[1, 1], [0, 1]]}]),
        )
    _passed(8, "descent preset: commutation holds, quotient log rho is "
               "exactly 0, bound equals the cover bound; the non-invariant "
               "counterexample fails commutation")


def test_criterion_9_batch_determinism():
    presets = list_builtin_models()
    first = {}
    for name in sorted(presets):
        cfg = load_config(presets[name])
        first[name] = emit_report(run_scenario(cfg)).encode()
    for name in sorted(presets):
        cfg = load_config(presets[name])
        again = emit_report(run_scenario(cfg)).encode()
        assert again == first[name], f"preset {name} not byte-identical"
        json.loads(again.decode())  # stays parseable
    _passed(9, "running every preset twice with the same config emits "
               "byte-identical JSON reports")
