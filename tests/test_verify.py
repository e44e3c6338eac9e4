"""Tests for the statistical verification harness."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats

from rmtdec.densities import log_q_odd_batch
from rmtdec.errors import BadParameter, EmptySample
from rmtdec.numerics import integrate
from rmtdec.samplers import EnsembleSpec, sample_ensemble
from rmtdec.verify import (
    ALPHA,
    SubtestResult,
    VerificationReport,
    _cell_probs,
    _chi2_sf,
    build_report,
    ks_two_sample,
    two_sample_battery,
    verify_cor1,
    verify_dixon_anderson,
    verify_q_odd,
    verify_recurrence,
    verify_thm1,
    verify_thmCE,
)
from rmtdec.weights import gauss_weight, jacobi_weight, make_weight, theta1


class TestKsTwoSample:
    def test_identical_samples(self) -> None:
        x = np.linspace(0.0, 1.0, 50)
        d, p = ks_two_sample(x, x)
        assert d == 0.0
        assert p == 1.0

    def test_disjoint_samples(self) -> None:
        d, p = ks_two_sample(np.linspace(0, 1, 200), np.linspace(10, 11, 200))
        assert d == 1.0
        assert p < 1e-12

    def test_empty_raises(self) -> None:
        with pytest.raises(EmptySample):
            ks_two_sample(np.array([]), np.array([1.0]))

    def test_null_p_value_is_large(self) -> None:
        rng = np.random.default_rng(7)
        a = rng.normal(size=5000)
        b = rng.normal(size=5000)
        _, p = ks_two_sample(a, b)
        assert p > 1e-3

    def test_matches_scipy_asymptotic(self) -> None:
        rng = np.random.default_rng(3)
        a = rng.normal(size=800)
        b = rng.normal(0.1, 1.1, size=900)
        d, p = ks_two_sample(a, b)
        ref = stats.ks_2samp(a, b, method="asymp")
        assert_allclose(d, ref.statistic, rtol=1e-12)
        assert abs(p - ref.pvalue) < 0.02


class TestChi2Tail:
    @pytest.mark.parametrize("dof", [0, 1, 2, 7, 63, 200])
    @pytest.mark.parametrize(
        "stat", [0.0, 1e-3, 0.5, 7.0, 57.19524530, 125.6, 1e3, math.inf, math.nan]
    )
    def test_bit_identical_to_scipy_stats(self, stat: float, dof: int) -> None:
        ref = np.float64(stats.chi2.sf(stat, dof))
        got = _chi2_sf(stat, dof)
        assert type(got) is float
        assert np.float64(got).tobytes() == ref.tobytes()


class TestReportPlumbing:
    def test_bonferroni_share(self) -> None:
        tests = [(f"t{i}", "ks", 0.1, 3e-4) for i in range(5)]
        rep = build_report("demo", {}, stat_tests=tests)
        # five tests share alpha: threshold 2e-4, so p = 3e-4 passes
        assert all(s.threshold == pytest.approx(ALPHA / 5) for s in rep.subtests)
        assert rep.passed

        rep2 = build_report("demo", {}, stat_tests=tests[:2])
        assert not rep2.passed

    def test_residual_checks(self) -> None:
        rep = build_report(
            "demo",
            {"n": 3},
            checks=[
                ("ok", "residual", 1e-9, 1e-7, 1.0, 1.0),
                ("bad", "residual", 1e-3, 1e-7, 1.0, 1.001),
            ],
        )
        assert rep.subtests[0].passed
        assert not rep.subtests[1].passed
        assert not rep.passed

    def test_nonfinite_statistic_fails(self) -> None:
        rep = build_report("demo", {}, checks=[("nan", "z", math.nan, 3.0, None, None)])
        assert not rep.passed

    def test_json_round_trip(self) -> None:
        import json

        rep = build_report(
            "demo",
            {"family": "gauss", "n": 2},
            stat_tests=[("ks_pooled", "ks", 0.01, 0.5)],
            checks=[("resid", "residual", 1e-9, 1e-7, 0.5, 0.5)],
        )
        data = json.loads(rep.to_json())
        assert data["identity"] == "demo"
        assert data["parameters"]["n"] == 2
        assert data["pass"] is True
        kinds = {s["name"]: s for s in data["subtests"]}
        assert kinds["ks_pooled"]["p_value"] == 0.5
        assert kinds["resid"]["residual"] == 1e-9
        assert kinds["resid"]["tolerance"] == 1e-7

    def test_table_mentions_outcome(self) -> None:
        rep = build_report("demo", {}, checks=[("r", "residual", 0.0, 1.0, None, None)])
        text = rep.table()
        assert "demo" in text and "PASS" in text


class TestBattery:
    def test_same_distribution_passes(self) -> None:
        rng = np.random.default_rng(11)
        a = np.sort(rng.normal(size=(4000, 3)), axis=1)
        b = np.sort(rng.normal(size=(4000, 3)), axis=1)
        rep = build_report("null", {}, stat_tests=two_sample_battery(a, b))
        assert rep.passed
        names = [s.name for s in rep.subtests]
        assert "ks_order_1" in names and "ks_pooled" in names and "chi2_bin_1" in names

    def test_shifted_distribution_fails(self) -> None:
        rng = np.random.default_rng(12)
        a = np.sort(rng.normal(size=(4000, 2)), axis=1)
        b = np.sort(rng.normal(0.3, 1.0, size=(4000, 2)), axis=1)
        rep = build_report("shift", {}, stat_tests=two_sample_battery(a, b))
        assert not rep.passed

    def test_width_mismatch_raises(self) -> None:
        with pytest.raises(BadParameter):
            two_sample_battery(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_zero_width_raises(self) -> None:
        with pytest.raises(EmptySample):
            two_sample_battery(np.zeros((5, 0)), np.zeros((5, 0)))

    def test_null_calibration_ten_seeds(self) -> None:
        spec = EnsembleSpec("OE", 2, gauss_weight())
        passed = 0
        for rep in range(10):
            a = sample_ensemble(spec, 2000, 100 + 2 * rep).spectra
            b = sample_ensemble(spec, 2000, 101 + 2 * rep).spectra
            report = build_report("null", {}, stat_tests=two_sample_battery(a, b))
            passed += report.passed
        assert passed == 10


class TestThm1:
    def test_gauss_n2_passes(self) -> None:
        rep = verify_thm1("gauss", None, 2, 6000, seed=5)
        assert rep.passed
        assert rep.parameters["n"] == 2

    def test_gauss_even_matches_erf_oracle(self) -> None:
        # even-decimated |OE_2| with the Gauss weight has CDF erf(x)
        w1 = gauss_weight()
        batch = sample_ensemble(EnsembleSpec("OE", 2, w1), 8000, 21)
        even = np.sort(np.abs(batch.spectra), axis=1)[:, 0]
        res = stats.kstest(even, lambda x: special.erf(x))
        assert res.pvalue > 1e-3

    def test_small_n_raises(self) -> None:
        with pytest.raises(BadParameter):
            verify_thm1("gauss", None, 1, 100, seed=0)

    def test_deterministic_reports(self) -> None:
        r1 = verify_thm1("gauss", None, 2, 1500, seed=9)
        r2 = verify_thm1("gauss", None, 2, 1500, seed=9)
        assert r1.to_json() == r2.to_json()


class TestCor1:
    def test_gauss_n1_super_edge(self) -> None:
        # n=1: the first factor contributes no even locations
        rep = verify_cor1("gauss", None, 1, 6000, seed=3, variant="super")
        assert rep.passed

    def test_gauss_n2_both_variants(self) -> None:
        rep = verify_cor1("gauss", None, 2, 6000, seed=4, variant="both")
        assert rep.passed
        names = [s.name for s in rep.subtests]
        assert any(n.startswith("super_") for n in names)
        assert any(n.startswith("chiral_") for n in names)

    def test_chiral_variant_identity_name(self) -> None:
        rep = verify_cor1("gauss", None, 1, 2000, seed=6, variant="chiral")
        assert rep.identity == "eq117"

    def test_unknown_variant_raises(self) -> None:
        with pytest.raises(BadParameter):
            verify_cor1("gauss", None, 2, 100, seed=0, variant="nope")


class TestThmCE:
    def test_n2_passes(self) -> None:
        rep = verify_thmCE(2, 5000, seed=8)
        assert rep.passed
        assert rep.parameters["nu"] == 1

    def test_n3_passes(self) -> None:
        rep = verify_thmCE(3, 5000, seed=9)
        assert rep.passed
        assert rep.parameters["nu"] == -1


class TestDixonAnderson:
    def test_gauss_m1_mu0(self) -> None:
        rep = verify_dixon_anderson("gauss", None, 1, 0, seed=1)
        assert rep.passed
        assert all(s.kind == "residual" for s in rep.subtests)
        assert len(rep.subtests) == 5

    def test_gauss_m1_mu1(self) -> None:
        assert verify_dixon_anderson("gauss", None, 1, 1, seed=2).passed

    def test_jacobi_m2_mu0(self) -> None:
        assert verify_dixon_anderson("jacobi", 0.0, 2, 0, seed=3).passed

    @pytest.mark.parametrize("a", [0.5, 1.5])
    @pytest.mark.parametrize("m,mu", [(1, 0), (1, 1), (2, 0)])
    def test_jacobi_endpoint_singularity(self, a: float, m: int, mu: int) -> None:
        assert verify_dixon_anderson("jacobi", a, m, mu, seed=5).passed

    def test_cauchy_m1_mu0(self) -> None:
        rep = verify_dixon_anderson("cauchy", 3.5, 1, 0, seed=4)
        assert rep.passed
        assert rep.subtests[0].threshold == 1e-5

    def test_bad_m_raises(self) -> None:
        with pytest.raises(BadParameter):
            verify_dixon_anderson("gauss", None, 3, 0)

    def test_cauchy_order_guard(self) -> None:
        with pytest.raises(BadParameter):
            verify_dixon_anderson("cauchy", 0.5, 2, 1)


class TestQOddBatch:
    @pytest.mark.parametrize("family,a,n", [("gauss", None, 2), ("gauss", None, 3), ("jacobi", 0.0, 3)])
    def test_matches_scalar(self, family: str, a: float | None, n: int) -> None:
        w1 = make_weight(family, a)
        rng = np.random.default_rng(17)
        mhat = (n + 1) // 2
        hi = 0.95 if family == "jacobi" else 2.5
        rows = np.sort(rng.uniform(0.01, hi, size=(40, mhat)), axis=1)
        got = log_q_odd_batch(w1, rows, n)
        # per-row pair loop and companion/theta1 determinant, written out here
        nu = 1 - n % 2
        want = []
        for t in rows:
            val = float(np.sum(w1.log_w1(t))) + nu * float(np.sum(np.log(t)))
            for j in range(mhat):
                for k in range(j + 1, mhat):
                    val += math.log(t[k] ** 2 - t[j] ** 2)
            m = [w1.companion(t) * t ** (nu + 2 * i) for i in range(mhat - 1)]
            m.append(theta1(w1, t) if nu else np.ones(mhat))
            want.append(val + math.log(np.linalg.det(np.array(m))))
        assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_invalid_rows_give_neg_inf(self) -> None:
        w1 = gauss_weight()
        rows = np.array([[2.0, 1.0], [-1.0, 2.0], [1.0, 1.0]])
        got = log_q_odd_batch(w1, rows, 3)
        assert np.all(np.isneginf(got))

    def test_jacobi_out_of_support(self) -> None:
        got = log_q_odd_batch(jacobi_weight(0.0), np.array([[0.5, 1.5]]), 3)
        assert np.isneginf(got[0])


class TestQOdd:
    def test_gauss_n2(self) -> None:
        rep = verify_q_odd("gauss", 2, 20000, seed=13)
        assert rep.passed
        kinds = {s.name: s for s in rep.subtests}
        assert kinds["bin_mass"].statistic < 1e-5

    def test_gauss_n3(self) -> None:
        assert verify_q_odd("gauss", 3, 20000, seed=14).passed

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [-0.5, 0.5, 1.0])
    def test_jacobi_endpoint_exponents(self, a: float, n: int) -> None:
        # (1 - x^2)^a at x = 1: normalization, bins and cells are integrated
        # in the Jacobi chart x = -1 + 2 sin^2(v / 2)
        rep = verify_q_odd("jacobi", n, 20000, seed=15, a=a)
        assert rep.passed, rep.to_json()
        kinds = {s.name: s for s in rep.subtests}
        assert kinds["bin_mass"].statistic < 1e-5

    def test_bad_n_raises(self) -> None:
        with pytest.raises(BadParameter):
            verify_q_odd("gauss", 4, 100, seed=0)


class TestRecurrenceReport:
    @pytest.mark.parametrize(
        "family,a",
        [("gauss", None), ("jacobi", 0.5), ("cauchy", 2.0), ("jacobi", -0.99), ("jacobi", -0.75)],
    )
    def test_families_pass(self, family: str, a: float | None) -> None:
        rep = verify_recurrence(family, a)
        assert rep.passed
        names = [s.name for s in rep.subtests]
        assert "theta_closed_form" in names


def _ordered_pair_integral(f, lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    """Nested adaptive integral of f(u1, u2) over lo1 < u1 < hi1,
    lo2 < u2 < hi2, u1 < u2; the outer range is split where the inner lower
    limit max(u1, lo2) has its kink."""
    hi1 = min(hi1, hi2)
    if not lo1 < hi1:
        return 0.0

    def outer(u1s: np.ndarray) -> np.ndarray:
        return np.array([
            integrate(lambda u2: f(np.full(u2.size, u1), u2), (max(u1, lo2), hi2), tol=1e-12)
            if max(u1, lo2) < hi2 else 0.0
            for u1 in u1s
        ])

    cuts = [lo1, *(c for c in (lo2,) if lo1 < c < hi1), hi1]
    return sum(integrate(outer, (a, b), tol=1e-11) for a, b in zip(cuts[:-1], cuts[1:]))


class TestQOddCellProbs:
    """The n = 3 cell probabilities against nested adaptive integrals of the
    odd-location marginal w1(x1) w1(x2) (x2^2 - x1^2) (c(x1) - c(x2)), c the
    companion weight, written out in x (Gauss) or in t with x = sin t
    (Jacobi, where 1 - x^2 = cos(t)^2 keeps its precision near omega)."""

    @pytest.mark.parametrize(
        "w,cols",
        [
            (gauss_weight(), ([0.0, 0.4, 1.0, math.inf], [0.0, 0.7, 1.5, math.inf])),
            (jacobi_weight(0.0), ([0.0, 0.3, 0.6, 1.0], [0.0, 0.45, 0.8, 1.0])),
            (jacobi_weight(0.5), ([0.0, 0.3, 0.6, 1.0], [0.0, 0.45, 0.8, 1.0])),
        ],
        ids=["gauss", "jacobi0", "jacobi0.5"],
    )
    def test_cells_match_nested_integrals(self, w, cols) -> None:
        probs = _cell_probs(w, 3, np.array(cols)).reshape(3, 3)
        if math.isinf(w.omega):
            to_u = lambda x: x

            def f(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
                c1, c2 = np.exp(-0.5 * x1**2), np.exp(-0.5 * x2**2)
                return c1 * c2 * (x2**2 - x1**2) * (c1 - c2)

        else:
            to_u = math.asin

            def f(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
                k1, k2 = np.cos(t1), np.cos(t2)
                vdm = np.sin(t2 - t1) * np.sin(t2 + t1)
                comp = k1 ** (2 * w.a + 2) - k2 ** (2 * w.a + 2)
                return (k1 * k2) ** (2 * w.a + 1) * vdm * comp

        u = [[to_u(e) for e in col] for col in cols]
        z = _ordered_pair_integral(f, u[0][0], u[0][-1], u[1][0], u[1][-1])
        # (1, 1) is cut by the diagonal, (2, 2) is cut and touches omega,
        # (0, 2) touches omega uncut, and (2, 0) lies above the diagonal
        for i, j in ((1, 1), (2, 2), (0, 2), (2, 0)):
            want = _ordered_pair_integral(f, u[0][i], u[0][i + 1], u[1][j], u[1][j + 1]) / z
            assert probs[i, j] == pytest.approx(want, rel=1e-9, abs=1e-15), (i, j)
        assert probs[2, 0] == 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
