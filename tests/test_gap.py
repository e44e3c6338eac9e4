"""Tests for the exact gap engines, brute-force quadrature, and gap checkers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.testing import assert_allclose
import scipy.stats
from scipy import special

from rmtdec.errors import BadParameter, MomentDivergence, NonConvergence
from rmtdec.gap import (
    GapEstimate,
    GapPolynomial,
    GaudinData,
    check_8_31p,
    check_B1_structure,
    check_identity_24,
    check_identity_24cp,
    check_thm_D4,
    check_thm_gap,
    gap_chue_exact,
    gap_cue_exact,
    gap_mc,
    gap_oe_bruteforce,
    gap_oe_odd_exact,
    gap_ue_exact,
    gaudin_data,
    pair_for_24,
    pair_for_24cp,
)
from rmtdec.numerics import integrate
from rmtdec.orthopoly import build, gram
from rmtdec.samplers import EnsembleSpec, McmcParams, sample_ensemble, sample_mcmc
from rmtdec.weights import cauchy_weight, gauss_weight, jacobi_weight


class TestGapPolynomial:
    def test_size_mismatch(self) -> None:
        with pytest.raises(BadParameter):
            GapPolynomial(np.array([0.5, 0.5]), 2, (0.0, 1.0))

    def test_negative_entry(self) -> None:
        with pytest.raises(NonConvergence):
            GapPolynomial(np.array([1.2, -0.2]), 1, (0.0, 1.0))

    def test_bad_sum(self) -> None:
        with pytest.raises(NonConvergence):
            GapPolynomial(np.array([0.5, 0.4]), 1, (0.0, 1.0))

    def test_prob_outside_range(self) -> None:
        p = GapPolynomial(np.array([0.25, 0.75]), 1, (0.0, 1.0))
        assert p.prob(-1) == 0.0
        assert p.prob(2) == 0.0
        assert p.prob(1) == 0.75

    def test_generating_function_endpoints(self) -> None:
        p = GapPolynomial(np.array([0.1, 0.6, 0.3]), 2, (0.0, 1.0))
        assert p.generating_function(0.0) == pytest.approx(1.0, abs=1e-15)
        assert p.generating_function(1.0) == pytest.approx(0.1, abs=1e-15)
        grid = np.array([0.3, 0.7, 1.4])
        expect = 0.1 + 0.6 * (1 - grid) + 0.3 * (1 - grid) ** 2
        assert_allclose(p.generating_function(grid), expect, atol=1e-15)


class TestGaudinDataClass:
    def test_eigenvalue_out_of_range(self) -> None:
        with pytest.raises(NonConvergence):
            GaudinData(np.array([1.5]), np.eye(1))
        with pytest.raises(NonConvergence):
            GaudinData(np.array([-0.1]), np.eye(1))

    def test_rotation_must_be_orthogonal(self) -> None:
        with pytest.raises(NonConvergence):
            GaudinData(np.array([0.5, 0.5]), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_valid(self) -> None:
        d = GaudinData(np.array([0.25, 0.5]), np.eye(2))
        assert_allclose(d.nus, [0.25, 0.5])


class TestGapEstimate:
    def test_sum_prob_deduplicates(self) -> None:
        est = GapEstimate(np.array([0.2, 0.3, 0.5]), np.zeros(3), 1000, 2)
        p, se = est.sum_prob([1, 1, -3, 2])
        assert p == pytest.approx(0.8)
        assert se == pytest.approx(math.sqrt(0.8 * 0.2 / 1000))

    def test_prob_outside(self) -> None:
        est = GapEstimate(np.array([1.0]), np.zeros(1), 10, 0)
        assert est.prob(1) == 0.0
        assert est.stderr_of(-1) == 0.0


class TestGapMc:
    def test_empty_interval(self) -> None:
        with pytest.raises(BadParameter):
            gap_mc(EnsembleSpec("CUE", 2), (1.0, 1.0), 2, 100, 0)

    def test_deterministic(self) -> None:
        spec = EnsembleSpec("CUE", 3)
        a = gap_mc(spec, (-1.0, 1.0), 3, 500, 7)
        b = gap_mc(spec, (-1.0, 1.0), 3, 500, 7)
        assert_allclose(a.probs, b.probs)

    def test_probs_form_distribution(self) -> None:
        est = gap_mc(EnsembleSpec("COE", 3), (-2.0, 2.0), 3, 2000, 1)
        assert np.all(est.probs >= 0.0)
        assert est.probs.sum() == pytest.approx(1.0)


class TestGapUe:
    def test_single_point_gauss(self) -> None:
        # one point with density e^{-x^2}/sqrt(pi)
        a, b = -0.3, 0.9
        p = gap_ue_exact(gauss_weight(), 1, (a, b))
        assert p.prob(1) == pytest.approx(0.5 * (special.erf(b) - special.erf(a)), abs=1e-12)

    def test_single_point_jacobi(self) -> None:
        # squared-base weight is 1 - x^2, total mass 4/3
        a, b = -0.3, 0.9
        p = gap_ue_exact(jacobi_weight(0.0), 1, (a, b))
        expect = ((b - b**3 / 3) - (a - a**3 / 3)) / (4.0 / 3.0)
        assert p.prob(1) == pytest.approx(expect, abs=1e-12)

    def test_full_interval_forces_k_equals_n(self) -> None:
        p = gap_ue_exact(jacobi_weight(0.5), 3, (-1.0, 1.0))
        assert p.prob(3) == pytest.approx(1.0, abs=1e-9)

    def test_e0_is_fredholm_determinant(self) -> None:
        w = gauss_weight()
        J = (-0.7, 0.4)
        p = gap_ue_exact(w, 3, J)
        sys = build(w.w2, w.support, 2)
        G = gram(sys, J, [0, 1, 2])
        assert p.prob(0) == pytest.approx(float(np.linalg.det(np.eye(3) - G)), abs=1e-11)

    def test_matches_monte_carlo(self) -> None:
        w = gauss_weight()
        J = (-0.8, 0.5)
        p = gap_ue_exact(w, 2, J)
        est = gap_mc(EnsembleSpec("UE", 2, w), J, 2, 20000, 3)
        for k in range(3):
            se = max(est.stderr_of(k), 1e-12)
            assert abs(est.prob(k) - p.prob(k)) < 3.5 * se

    def test_callable_needs_support(self) -> None:
        with pytest.raises(BadParameter):
            gap_ue_exact(lambda x: np.exp(-(x**2)), 2, (-1.0, 1.0))

    def test_needs_points(self) -> None:
        with pytest.raises(BadParameter):
            gap_ue_exact(gauss_weight(), 0, (-1.0, 1.0))

    def test_moment_starved_weight_raises(self) -> None:
        with pytest.raises(MomentDivergence):
            gap_ue_exact(cauchy_weight(0.4), 9, (-1.0, 1.0))


class TestGapChue:
    def test_width_zero(self) -> None:
        p = gap_chue_exact(gauss_weight(), 0, 0, 1.0)
        assert_allclose(p.coeffs, [1.0])

    def test_gauss_closed_forms(self) -> None:
        s = 0.8
        p0 = gap_chue_exact(gauss_weight(), 0, 1, s)
        assert p0.prob(1) == pytest.approx(special.erf(s), abs=1e-12)
        p1 = gap_chue_exact(gauss_weight(), 1, 1, s)
        expect = special.erf(s) - 2 * s * math.exp(-s * s) / math.sqrt(math.pi)
        assert p1.prob(1) == pytest.approx(expect, abs=1e-12)

    def test_jacobi_closed_forms(self) -> None:
        # squared-base weight 1 - x^2 on (0, 1); moments of x^0 and x^2
        s = 0.8
        p0 = gap_chue_exact(jacobi_weight(0.0), 0, 1, s)
        assert p0.prob(1) == pytest.approx((3 * s - s**3) / 2, abs=1e-12)
        p1 = gap_chue_exact(jacobi_weight(0.0), 1, 1, s)
        assert p1.prob(1) == pytest.approx((5 * s**3 - 3 * s**5) / 2, abs=1e-12)

    def test_matches_monte_carlo(self) -> None:
        w = gauss_weight()
        s = 1.0
        p = gap_chue_exact(w, 1, 2, s)
        est = gap_mc(EnsembleSpec("chUE", 2, w, mu=1), (0.0, s), 2, 20000, 5)
        for k in range(3):
            se = max(est.stderr_of(k), 1e-12)
            assert abs(est.prob(k) - p.prob(k)) < 3.5 * se

    def test_divergent_moment_raises(self) -> None:
        # u^(-1/2) (1 + u)^(-5) has no u-moment of order 6, which m = 4 needs
        w = cauchy_weight(2.0)
        with pytest.raises(MomentDivergence):
            gap_chue_exact(w, 0, 4, 1.0)
        assert gap_chue_exact(w, 0, 3, 1.0).n == 3
        # x^24 overflows before the divergence shows; the probe must still fail
        with pytest.raises(MomentDivergence):
            gap_chue_exact(cauchy_weight(4.0), 0, 7, 1.0)

    def test_parameter_validation(self) -> None:
        w = gauss_weight()
        with pytest.raises(BadParameter):
            gap_chue_exact(w, 2, 1, 1.0)
        with pytest.raises(BadParameter):
            gap_chue_exact(w, 0, -1, 1.0)
        with pytest.raises(BadParameter):
            gap_chue_exact(w, 0, 1, 0.0)


class TestGapCue:
    def test_full_circle_angle(self) -> None:
        p = gap_cue_exact(3, math.pi)
        assert p.prob(3) == pytest.approx(1.0, abs=1e-12)

    def test_single_angle_uniform(self) -> None:
        theta = 1.1
        p = gap_cue_exact(1, theta)
        assert p.prob(1) == pytest.approx(theta / math.pi, abs=1e-14)

    def test_mean_count(self) -> None:
        # expected count in (-theta, theta) is n theta / pi by rotation invariance
        theta = 1.1
        p = gap_cue_exact(4, theta)
        mean = sum(k * p.prob(k) for k in range(5))
        assert mean == pytest.approx(4 * theta / math.pi, abs=1e-12)

    def test_matches_monte_carlo(self) -> None:
        theta = 1.0
        p = gap_cue_exact(3, theta)
        est = gap_mc(EnsembleSpec("CUE", 3), (-theta, theta), 3, 20000, 9)
        for k in range(4):
            se = max(est.stderr_of(k), 1e-12)
            assert abs(est.prob(k) - p.prob(k)) < 3.5 * se

    def test_parameter_validation(self) -> None:
        with pytest.raises(BadParameter):
            gap_cue_exact(0, 1.0)
        with pytest.raises(BadParameter):
            gap_cue_exact(2, 3.5)


class TestGapOeOdd:
    @pytest.mark.parametrize("mode", ["direct", "gaudin"])
    def test_n1_gauss_closed_form(self, mode: str) -> None:
        s = 1.0
        p = gap_oe_odd_exact(gauss_weight(), 1, s, mode=mode)
        e1 = special.erf(s / math.sqrt(2))
        assert_allclose(p.coeffs, [1 - e1, e1], atol=1e-12)

    @pytest.mark.parametrize("mode", ["direct", "gaudin"])
    def test_n1_jacobi_closed_form(self, mode: str) -> None:
        # flat base weight: the half mass is 1 and theta1(s) = s
        p = gap_oe_odd_exact(jacobi_weight(0.0), 1, 0.4, mode=mode)
        assert_allclose(p.coeffs, [0.6, 0.4], atol=1e-12)

    @pytest.mark.parametrize(
        "family,a,n,s",
        [("gauss", None, 3, 1.0), ("gauss", None, 5, 0.8), ("jacobi", 0.0, 3, 0.5)],
    )
    def test_modes_agree(self, family: str, a: float | None, n: int, s: float) -> None:
        w = gauss_weight() if family == "gauss" else jacobi_weight(a)
        d = gap_oe_odd_exact(w, n, s, mode="direct")
        g = gap_oe_odd_exact(w, n, s, mode="gaudin")
        assert_allclose(d.coeffs, g.coeffs, atol=1e-9)
        assert d.meta["mode"] == "direct"
        assert g.meta["mode"] == "gaudin"

    def test_n3_matches_bruteforce(self) -> None:
        w = gauss_weight()
        s = 1.0
        p = gap_oe_odd_exact(w, 3, s)
        for k in range(4):
            b = gap_oe_bruteforce(w, 3, (-s, s), k)
            assert b == pytest.approx(p.prob(k), abs=1e-6)

    @pytest.mark.parametrize("a,brute_tol,atol", [(-0.5, 1e-6, 1e-9), (-0.25, 1e-4, 2e-5)])
    def test_negative_jacobi_exponent_matches_bruteforce(
        self, a: float, brute_tol: float, atol: float
    ) -> None:
        # (1 - x^2)^a is infinite at +-1 for a < 0.  For a = -1/4 the brute
        # force's tensor rule meets cos(t)^(1/2) in t and settles only at 1e-4.
        w = jacobi_weight(a)
        for s in (0.3, 0.5, 0.8):
            p = gap_oe_odd_exact(w, 3, s)
            g = gap_oe_odd_exact(w, 3, s, mode="gaudin")
            assert_allclose(p.coeffs, g.coeffs, atol=1e-9)
            assert p.meta["theta_residual"] < 1e-9
            b = [gap_oe_bruteforce(w, 3, (-s, s), k, tol=brute_tol) for k in range(4)]
            assert_allclose(b, p.coeffs, rtol=0, atol=atol)

    @pytest.mark.parametrize("a", [-0.5, -0.25])
    def test_negative_jacobi_exponent_matches_beta_jacobi_counts(self, a: float) -> None:
        w = jacobi_weight(a)
        s = 0.5
        p = gap_oe_odd_exact(w, 3, s)
        batch = sample_ensemble(EnsembleSpec("OE", 3, w), 100_000, seed=97)
        assert batch.diagnostics["route"] == "beta-jacobi"
        counts = np.sum(np.abs(batch.spectra) < s, axis=1)
        got = np.bincount(counts, minlength=4) / batch.count
        z = np.abs(got - p.coeffs) / np.sqrt(p.coeffs * (1 - p.coeffs) / batch.count)
        assert np.max(z) < 4.0, z

    def test_theta_residual_small(self) -> None:
        p = gap_oe_odd_exact(gauss_weight(), 3, 1.0)
        assert p.meta["theta_residual"] < 1e-9

    def test_e0_monotone_in_s(self) -> None:
        w = gauss_weight()
        vals = [gap_oe_odd_exact(w, 3, s).prob(0) for s in (0.4, 0.8, 1.2)]
        assert vals[0] > vals[1] > vals[2]

    def test_parameter_validation(self) -> None:
        w = gauss_weight()
        with pytest.raises(BadParameter):
            gap_oe_odd_exact(w, 2, 1.0)
        with pytest.raises(BadParameter):
            gap_oe_odd_exact(w, 3, -1.0)
        with pytest.raises(BadParameter):
            gap_oe_odd_exact(jacobi_weight(0.0), 3, 1.2)
        with pytest.raises(BadParameter):
            gap_oe_odd_exact(w, 3, 1.0, mode="fast")


class TestGaudinDataFunction:
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.7])
    def test_n3_gauss_closed_form(self, s: float) -> None:
        # single odd-degree polynomial: nu = 2 int_0^s w2 p1^2 with
        # p1(x) = x sqrt(2/sqrt(pi)) for the squared Gauss base weight
        d = gaudin_data(gauss_weight(), 3, s)
        expect = special.erf(s) - 2 * s * math.exp(-s * s) / math.sqrt(math.pi)
        assert d.nus[0] == pytest.approx(expect, abs=1e-10)
        assert abs(abs(d.C[0, 0]) - 1.0) < 1e-12

    def test_n5_properties(self) -> None:
        d = gaudin_data(gauss_weight(), 5, 1.0)
        assert d.nus.shape == (2,)
        assert np.all((d.nus > 0) & (d.nus < 1))
        assert_allclose(d.C @ d.C.T, np.eye(2), atol=1e-10)

    def test_n1_has_no_block(self) -> None:
        with pytest.raises(BadParameter):
            gaudin_data(gauss_weight(), 1, 1.0)


class TestBruteForce:
    def test_k_outside_range(self) -> None:
        w = gauss_weight()
        assert gap_oe_bruteforce(w, 2, (-1.0, 1.0), -1) == 0.0
        assert gap_oe_bruteforce(w, 2, (-1.0, 1.0), 3) == 0.0

    def test_interval_covering_support(self) -> None:
        w = jacobi_weight(0.0)
        assert gap_oe_bruteforce(w, 2, (-2.0, 2.0), 2) == 1.0
        assert gap_oe_bruteforce(w, 2, (-2.0, 2.0), 1) == 0.0

    def test_interval_outside_support(self) -> None:
        w = jacobi_weight(0.0)
        assert gap_oe_bruteforce(w, 2, (1.5, 2.0), 0) == 1.0
        assert gap_oe_bruteforce(w, 2, (1.5, 2.0), 1) == 0.0

    def test_uniform_two_point_oracle(self) -> None:
        # flat weight on (-1, 1): densities are |x - y| / (8/3); counting
        # masses over (-1/2, 1/2) integrate to 5/16, 9/16, and 2/16
        w = jacobi_weight(0.0)
        vals = [gap_oe_bruteforce(w, 2, (-0.5, 0.5), k) for k in range(3)]
        assert_allclose(vals, [5 / 16, 9 / 16, 2 / 16], atol=1e-9)

    @pytest.mark.parametrize("a", [0.5, 1.5])
    def test_jacobi_endpoint_singularity_matches_odd_exact(self, a: float) -> None:
        # (1 - x^2)^a is not analytic at +-1 for half-integer a
        w = jacobi_weight(a)
        s = 0.5
        p = gap_oe_odd_exact(w, 3, s)
        b = [gap_oe_bruteforce(w, 3, (-s, s), k) for k in range(4)]
        assert_allclose(b, p.coeffs, rtol=0, atol=1e-9)

    def test_single_point_gauss(self) -> None:
        s = 0.9
        v = gap_oe_bruteforce(gauss_weight(), 1, (-s, s), 1)
        assert v == pytest.approx(special.erf(s / math.sqrt(2)), abs=1e-9)

    def test_asymmetric_interval_vs_monte_carlo(self) -> None:
        w = gauss_weight()
        J = (-0.4, 1.1)
        est = gap_mc(EnsembleSpec("OE", 2, w), J, 2, 20000, 13)
        for k in range(3):
            b = gap_oe_bruteforce(w, 2, J, k)
            se = max(est.stderr_of(k), 1e-12)
            assert abs(est.prob(k) - b) < 3.5 * se

    def test_order_cap(self) -> None:
        with pytest.raises(BadParameter):
            gap_oe_bruteforce(gauss_weight(), 5, (-1.0, 1.0), 0)
        with pytest.raises(BadParameter):
            gap_oe_bruteforce(gauss_weight(), 2, (1.0, -1.0), 0)


class TestCoefficientPairing:
    """Pure-calculus lemma behind the adjacent-pair identities.

    For any polynomial G, the substitution H(xi) = G(2 xi - xi^2) turns
    single Taylor coefficients of G at 1 into pairs at 1: with
    L_k[P] = P^(2k)(1)/(2k)! - P^(2k+1)(1)/(2k+1)!, one has
    L_k[H] = (-1)^k G^(k)(1)/k! while xi * H is annihilated.  Reading
    the expansions in powers of (1 - xi), this is exactly the statement
    that adjacent gap-probability sums at beta = 1 collapse to single
    beta = 2 coefficients.
    """

    @staticmethod
    def _pair_functional(Q: Polynomial, k: int) -> float:
        d1 = Q.deriv(2 * k)(1.0) / math.factorial(2 * k)
        d2 = Q.deriv(2 * k + 1)(1.0) / math.factorial(2 * k + 1)
        return float(d1 - d2)

    def test_lemma_on_random_polynomials(self) -> None:
        rng = np.random.default_rng(42)
        sub = Polynomial([0.0, 2.0, -1.0])
        for _ in range(40):
            deg = int(rng.integers(0, 7))
            G = Polynomial(rng.standard_normal(deg + 1))
            H = G(sub)
            xiH = Polynomial([0.0, 1.0]) * H
            for k in range(deg + 1):
                expect = (-1) ** k * G.deriv(k)(1.0) / math.factorial(k)
                assert self._pair_functional(H, k) == pytest.approx(expect, abs=1e-10)
                assert self._pair_functional(xiH, k) == pytest.approx(0.0, abs=1e-10)


class TestCheckThmGap:
    def test_odd_exact_route(self) -> None:
        rep = check_thm_gap("gauss", 3, 0, 1.0)
        assert rep.identity == "thm_gap"
        assert rep.passed
        assert [s.name for s in rep.subtests] == ["exact_vs_exact"]
        assert rep.subtests[0].statistic < 1e-10

    def test_even_mc_and_brute_route(self) -> None:
        rep = check_thm_gap("gauss", 2, 0, 1.0, count=20000, seed=2)
        assert rep.passed
        names = [s.name for s in rep.subtests]
        assert names == ["mc_vs_exact", "brute_vs_exact"]

    def test_even_without_bruteforce(self) -> None:
        rep = check_thm_gap("gauss", 2, 1, 0.8, count=8000, seed=4, bruteforce=False)
        assert [s.name for s in rep.subtests] == ["mc_vs_exact"]

    def test_jacobi_odd(self) -> None:
        rep = check_thm_gap("jacobi", 3, 1, 0.5, a=0.0)
        assert rep.passed


class TestCheckB1Structure:
    @pytest.mark.parametrize("n", [1, 3])
    def test_gauss(self, n: int) -> None:
        rep = check_B1_structure("gauss", n, 1.0)
        assert rep.identity == "b1"
        assert rep.passed
        names = [s.name for s in rep.subtests]
        assert "mode_agreement" in names
        assert "structure_residual" in names
        assert ("even_part_vs_chiral" in names) == (n > 1)

    def test_jacobi(self) -> None:
        rep = check_B1_structure("jacobi", 3, 0.5, a=0.0)
        assert rep.passed

    def test_even_n_rejected(self) -> None:
        with pytest.raises(BadParameter):
            check_B1_structure("gauss", 2, 1.0)


EXACT_PAIRS = [
    pair_for_24("laguerre"),
    pair_for_24("jacobi", a=2.0),
    pair_for_24cp("gauss", 2),
    pair_for_24cp("laguerre", 2, a=1.5),
    pair_for_24cp("jacobi", 2, a=1.0, b=2.0),
]
EXACT_PAIR_IDS = ["24-laguerre", "24-jacobi", "24cp-gauss", "24cp-laguerre", "24cp-jacobi"]


class TestWeightPairs:
    def test_pair_for_24_families(self) -> None:
        lag = pair_for_24("laguerre")
        assert lag.support == (0.0, math.inf)
        assert lag.w2(np.array([1.0]))[0] == pytest.approx(math.exp(-1.0))
        assert lag.log_w1(np.array([-1.0]))[0] == -math.inf
        jac = pair_for_24("jacobi", a=1.0)
        assert jac.support == (0.0, 1.0)
        with pytest.raises(BadParameter):
            pair_for_24("gauss")

    def test_pair_for_24cp_families(self) -> None:
        g = pair_for_24cp("gauss", 2)
        assert g.w2(np.array([0.5]))[0] == pytest.approx(math.exp(-0.25))
        c = pair_for_24cp("cauchy", 2, a=1.0)
        assert c.heavy_tail
        assert c.w2(np.array([1.0]))[0] == pytest.approx(2.0 ** -3.0)
        with pytest.raises(BadParameter):
            pair_for_24cp("cauchy", 2, a=0.0)
        with pytest.raises(BadParameter):
            pair_for_24cp("hermite", 2)

    def test_only_cauchy_pair_uses_metropolis(self) -> None:
        assert pair_for_24cp("cauchy", 2, a=1.0).exact is None
        assert all(pair.exact is not None for pair in EXACT_PAIRS)

    @pytest.mark.parametrize("pair", EXACT_PAIRS, ids=EXACT_PAIR_IDS)
    def test_pair_rows_on_support_and_worker_independent(self, pair) -> None:
        from rmtdec.gap import _pair_batch

        a = _pair_batch(pair, 3, 1001, 41, workers=1)
        b = _pair_batch(pair, 3, 1001, 41, workers=4)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1001, 3)
        assert np.all(np.diff(a, axis=1) >= 0)
        assert np.all((a > pair.support[0]) & (a < pair.support[1]))

    @pytest.mark.parametrize(
        "pair",
        [pair_for_24("laguerre"), pair_for_24cp("jacobi", 2, a=1.0, b=2.0)],
        ids=["24-laguerre", "24cp-jacobi"],
    )
    def test_pair_model_matches_metropolis(self, pair) -> None:
        from rmtdec.gap import _pair_batch, _pair_init, _pair_log_density

        n, count = 2, 20_000
        exact = _pair_batch(pair, n, count, 43, workers=1)
        walked = sample_mcmc(
            _pair_log_density(pair, n), n, count, 44, params=McmcParams(), init=_pair_init(pair)
        ).spectra
        for k in range(n):
            p = scipy.stats.ks_2samp(exact[:, k], walked[:, k]).pvalue
            assert p > 0.001, f"order statistic {k}: p = {p}"


class TestCheckIdentity24:
    def test_laguerre(self) -> None:
        rep = check_identity_24(pair_for_24("laguerre"), 2, [0, 1], 0.7, count=8000, seed=5, workers=2)
        assert rep.identity == "eq24"
        assert rep.passed
        assert len(rep.subtests) == 2

    def test_degenerate_count_is_residual(self) -> None:
        # k beyond the spectrum size pins both sides at zero
        rep = check_identity_24(pair_for_24("laguerre"), 2, 3, 0.7, count=2000, seed=6)
        assert rep.subtests[0].kind == "residual"
        assert rep.passed


class TestCheckIdentity24cp:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_gauss_both_sides(self, side: str) -> None:
        rep = check_identity_24cp(
            pair_for_24cp("gauss", 2), 2, [0], 0.6, side=side, count=8000, seed=7, workers=2
        )
        assert rep.identity == "eq24cp"
        assert rep.passed

    def test_bad_side(self) -> None:
        with pytest.raises(BadParameter):
            check_identity_24cp(pair_for_24cp("gauss", 2), 2, 0, 0.6, side="middle")


class TestCircularChecks:
    def test_8_31p(self) -> None:
        rep = check_8_31p(2, [0, 1], 1.2, count=10000, seed=9)
        assert rep.identity == "eq831p"
        assert rep.passed
        assert len(rep.subtests) == 2

    def test_8_31p_degenerate_full_circle(self) -> None:
        rep = check_8_31p(2, 2, math.pi, count=2000, seed=3)
        assert rep.subtests[0].kind == "residual"
        assert rep.passed

    def test_8_31p_bad_theta(self) -> None:
        with pytest.raises(BadParameter):
            check_8_31p(2, 0, 4.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_thm_D4(self, n: int) -> None:
        rep = check_thm_D4(n, [0, 1], 1.2, count=10000, seed=13)
        assert rep.identity == "thmD4"
        assert rep.passed
        assert len(rep.subtests) == 4

    def test_thm_D4_bad_theta(self) -> None:
        with pytest.raises(BadParameter):
            check_thm_D4(2, 0, math.pi)
