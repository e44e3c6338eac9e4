"""Tests for the exact gap engines, brute-force quadrature, and gap checkers."""

from __future__ import annotations

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.testing import assert_allclose
import scipy.stats
from scipy import special

from rmtdec import gap, samplers
from rmtdec.errors import BadParameter, MomentDivergence, NoExactEngine, NonConvergence
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
    _label_convolution,
)
from rmtdec.numerics import integrate
from rmtdec.orthopoly import ClassicalWeight, build, gram
from rmtdec.samplers import (
    EnsembleSpec,
    McmcParams,
    law_of,
    sample_ensemble,
    sample_law,
    sample_mcmc,
)
from rmtdec.weights import cauchy_weight, gauss_weight, jacobi_weight, make_weight, theta1


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

    def test_non_finite_entry(self) -> None:
        # NaN escapes every range and sum comparison, so it is tested on its own
        with pytest.raises(NonConvergence):
            GapPolynomial(np.array([np.nan, np.nan]), 1, (0.0, 1.0))
        with pytest.raises(NonConvergence):
            GapPolynomial(np.array([np.nan, 1.0]), 1, (0.0, 1.0))

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
        sys = build(w.w2, 2)
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

    def test_plain_callable_rejected(self) -> None:
        # the engines take classical weight records, not bare callables
        with pytest.raises(BadParameter):
            gap_ue_exact(lambda x: np.exp(-(x**2)), 2, (-1.0, 1.0))

    @pytest.mark.parametrize("n", [60, 101])
    def test_parity_split_at_large_n(self, n: int) -> None:
        # even and odd Hermite functions are the two chiral systems, so the
        # UE generating function on (-s, s) is the product of the chUE ones
        w, s = gauss_weight(), 1.3
        ue = gap_ue_exact(w, n, (-s, s)).coeffs
        even = gap_chue_exact(w, 0, (n + 1) // 2, s).coeffs
        odd = gap_chue_exact(w, 1, n // 2, s).coeffs
        assert_allclose(ue, np.convolve(even, odd), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [60, 80])
    def test_infinite_ranges_at_large_n(self, n: int) -> None:
        # on the whole line the Gram is the identity, so all n points lie in
        # J; on (-inf, 0.5) the engine matches the Gram of a rule with ten
        # times the nodes on (-25, 0.5), past which the Hermite functions up
        # to degree 79 are below 1e-100
        w = gauss_weight()
        assert_allclose(gap_ue_exact(w, n, (-np.inf, np.inf)).coeffs, np.eye(n + 1)[n], atol=1e-13)
        t, h = np.polynomial.legendre.leggauss(40)
        edges = np.linspace(-25.0, 0.5, 801)
        half = 0.5 * np.diff(edges)[:, None]
        x = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * t).ravel()
        q = build(w.w2, n - 1).evaluate(x, None, -0.5 * x**2)
        want = np.array([1.0])
        for lam in np.linalg.eigvalsh((q * (half * h).ravel()) @ q.T):
            want = np.convolve(want, [1.0 - lam, lam])
        assert_allclose(gap_ue_exact(w, n, (-np.inf, 0.5)).coeffs, want, rtol=0, atol=1e-12)

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
        # the beta-prime image u^(-1/2) (1 + u)^(-9) has no u-moment of order 12
        with pytest.raises(MomentDivergence):
            gap_chue_exact(cauchy_weight(4.0), 0, 7, 1.0)

    def test_gauss_has_every_moment(self) -> None:
        # the Laguerre image of the Gauss weight has every moment, so no
        # width is refused; m = 60 builds to degree 59
        for m in (30, 60):
            p = gap_chue_exact(gauss_weight(), 0, m, 0.5 * math.sqrt(m))
            assert p.n == m
            assert abs(p.coeffs.sum() - 1.0) <= 1e-8

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

    @pytest.mark.parametrize("theta", [0.4, 1.2, 2.5, 3.0])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_romanovski_law(self, n: int, theta: float) -> None:
        # under x = tan(angle/2) the CUE of order n is the Romanovski law
        # (2, n, (1 + x^2)^-n), so the Fourier Gram and the Romanovski
        # Gram over (-tan(theta/2), tan(theta/2)) give one gap vector
        t = math.tan(theta / 2)
        want = gap_ue_exact(ClassicalWeight("romanovski", n), n, (-t, t)).coeffs
        assert_allclose(gap_cue_exact(n, theta).coeffs, want, rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("family,a,s", [("gauss", None, 1.0), ("jacobi", 0.5, 0.5)])
    def test_modes_agree_to_n39(self, family: str, a: float | None, s: float) -> None:
        w = make_weight(family, a)
        for n in range(1, 40, 2):
            d = gap_oe_odd_exact(w, n, s, mode="direct")
            g = gap_oe_odd_exact(w, n, s, mode="gaudin")
            assert_allclose(d.coeffs, g.coeffs, rtol=0, atol=1e-12, err_msg=f"n = {n}")

    def test_n401_memory_and_mode_agreement(self) -> None:
        # direct mode walks xi in blocks of _XI_BLOCK, Gaudin mode takes the
        # arrowhead in O(m) per xi; one stack over all 403 xi traced 741 MiB
        w = gauss_weight()
        coeffs = {}
        for mode in ("direct", "gaudin"):
            tracemalloc.start()
            try:
                coeffs[mode] = gap_oe_odd_exact(w, 401, 1.0, mode=mode).coeffs
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64e6, (mode, peak)
        assert_allclose(coeffs["direct"], coeffs["gaudin"], rtol=0, atol=1e-12)

    def test_gaudin_arrowhead_matches_lapack(self) -> None:
        # nu = 1/2 makes d = z nu - 1 vanish at z = 2, i.e. at xi = 1 -+ i
        rng = np.random.default_rng(3)
        m = 5
        gp = gap._GaudinParts(m, 1.3, 0.4, 0.7, np.array([0.1, 0.5, 0.5, 0.8, 0.99]),
                              *rng.normal(size=(4, m)))
        xi = np.concatenate([[0.0, 1.0 - 1j, 1.0 + 1j], rng.normal(size=6) + 1j * rng.normal(size=6)])
        want = []
        for x in xi:
            z = 2.0 * x - x * x
            Y = np.zeros((m + 1, m + 1), dtype=complex)
            Y[0, :m] = gp.Uq - 2.0 * gp.theta * gp.Tsq - z * (gp.Vq - 2.0 * gp.th1s * gp.Tsq)
            Y[0, m] = gp.theta - x * gp.th1s
            Y[1:, :m] = z * np.diag(gp.nus) - np.eye(m)
            Y[1:, m] = x * gp.comp_s * gp.q_s
            want.append(np.linalg.det(Y))
        assert_allclose(gap._det_gaudin(gp, xi), want, rtol=1e-13, atol=1e-13)

    def test_n3_matches_bruteforce(self) -> None:
        w = gauss_weight()
        for s in (0.2, 1.0, 2.5):
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


def _bench_gap_weights() -> tuple:
    """``GAP_WEIGHTS`` of the exact-gaps-io workload, read from the source
    of perfbench/workloads.py without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["GAP_WEIGHTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no GAP_WEIGHTS")


def _max_count_z(spec: EnsembleSpec, intervals: list, count: int, seed: int, batches: int) -> float:
    """The largest |z| of the in-J count frequencies of ``count`` draws of
    ``spec`` (``batches`` batches at seeds seed, seed + 1, ...) against the
    exact table, over the intervals J and every count of positive mass."""
    probs = [gap.law_gap(spec.law, J).coeffs for J in intervals]
    counts = [np.zeros(p.size) for p in probs]
    for i in range(batches):
        x = sample_ensemble(spec, count // batches, seed + i, workers=1).spectra
        for J, c in zip(intervals, counts):
            c += np.bincount(np.sum((x > J[0]) & (x < J[1]), axis=1), minlength=c.size)
    z = []
    for p, c in zip(probs, counts):
        live = p > 0.0
        z.append((c[live] - count * p[live]) / np.sqrt(count * p[live] * (1.0 - p[live])))
    return float(np.max(np.abs(np.concatenate(z))))


class TestLawTable:
    """``gap.law_gap``, the one exact table, on the law record of every kind."""

    @staticmethod
    def table(kind: str, n: int, J: tuple) -> np.ndarray:
        return gap.law_gap(law_of(kind, n), J).coeffs

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.0, 3.0, math.pi])
    def test_closed_forms(self, t: float) -> None:
        # one Oplus angle of order 2 is uniform on (0, pi); the angle of
        # Ominus (Oplus) of order 3 has density (1 -+ cos t) / pi; one COE
        # angle is uniform on the circle
        assert self.table("Oplus", 1, (0.0, t))[1] == pytest.approx(t / math.pi, abs=1e-14)
        assert self.table("Ominus", 2, (0.0, t))[1] == pytest.approx(
            (t - math.sin(t)) / math.pi, abs=1e-14
        )
        assert self.table("Oplus", 2, (0.0, t))[1] == pytest.approx(
            (t + math.sin(t)) / math.pi, abs=1e-14
        )
        assert self.table("COE", 1, (-t, t))[1] == pytest.approx(t / math.pi, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("kind", ["COE", "CUE", "Oplus", "Ominus"])
    def test_whole_circle_holds_every_point(self, kind: str, n: int) -> None:
        law = law_of(kind, n)
        J = (-math.pi, math.pi) if kind in ("COE", "CUE") else (0.0, math.pi)
        if gap.law_engine(law) == "none":
            with pytest.raises(NoExactEngine):
                gap.law_gap(law, J)
            return
        assert gap.law_gap(law, J).coeffs.tolist() == np.eye(law.n + 1)[-1].tolist()

    @pytest.mark.parametrize(
        "kind,n,w,whole,outside",
        [
            ("UE", 3, gauss_weight(), (-math.inf, math.inf), None),
            ("UE", 4, jacobi_weight(0.5), (-1.0, 1.0), (1.0, 2.0)),
            ("chUE", 3, jacobi_weight(0.5), (0.0, 1.0), (-1.0, 0.0)),
            ("CUE", 5, None, (-math.pi, math.pi), (math.pi, 4.0)),
            ("Oplus", 5, None, (0.0, math.pi), (-1.0, 0.0)),
            ("Ominus", 5, None, (-1.0, 4.0), (math.pi, 4.0)),
            ("COE", 3, None, (-4.0, 4.0), (-4.0, -math.pi)),
            ("OE", 3, gauss_weight(), (-math.inf, math.inf), None),
            ("OE", 5, jacobi_weight(-0.5), (-1.0, 1.0), (-2.0, -1.0)),
        ],
    )
    def test_door_decides_whole_and_missed_support(self, kind, n, w, whole, outside) -> None:
        # every row: a J that covers the support holds all n points exactly,
        # and one that misses it none
        law = law_of(kind, n, w)
        eye = np.eye(law.n + 1)
        got = gap.law_gap(law, whole)
        assert got.coeffs.tolist() == eye[-1].tolist() and got.interval == whole
        if outside is not None:
            assert gap.law_gap(law, outside).coeffs.tolist() == eye[0].tolist()

    def test_kind_engines_hold_every_point_on_the_whole_support(self) -> None:
        one = lambda poly: poly.coeffs.tolist() == np.eye(poly.n + 1)[-1].tolist()
        assert one(gap_cue_exact(5, math.pi))
        assert one(gap_ue_exact(gauss_weight(), 3, (-math.inf, math.inf)))
        for mu in (0, 1):
            assert one(gap_chue_exact(jacobi_weight(0.5), mu, 3, 1.0))

    @pytest.mark.parametrize("a", [0.3, 0.35, 0.45])
    def test_oe_without_finite_mass_builds_no_system(self, monkeypatch, a: float) -> None:
        # the OE law (1, 3, romanovski 2a + 2) needs 3 < 2a + 2; w2 has the
        # moments the bordered system asks, so only the mass check stops it
        def no_build(*args):
            raise AssertionError("a system was built")

        monkeypatch.setattr(gap, "build", no_build)
        w1 = cauchy_weight(a)
        calls = [
            lambda: gap_oe_odd_exact(w1, 3, 0.8),
            lambda: gap_oe_odd_exact(w1, 3, 0.8, mode="gaudin"),
            lambda: check_B1_structure(w1, 3, 0.8),
            lambda: gap.law_gap(law_of("OE", 3, w1), (-0.8, 0.8)),
            lambda: gap.law_gap(law_of("OE", 3, w1), (-math.inf, math.inf)),
        ]
        for call in calls:
            with pytest.raises(MomentDivergence, match="romanovski law beta=1, n=3, .* no finite mass"):
                call()
        # a law without a row is answered first
        with pytest.raises(NoExactEngine):
            gap.law_gap(law_of("OE", 4, w1), (-0.8, 0.8))

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("kind", ["Oplus", "Ominus"])
    def test_orthogonal_counts_match_table(self, kind: str, n: int) -> None:
        spec = EnsembleSpec(kind, n)
        assert _max_count_z(spec, [(0.0, 1.3)], 400_000, 3100 + n, batches=1) < 4.0

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_coe_counts_match_table(self, n: int) -> None:
        arcs = [(-t, t) for t in (0.5, 1.2, 2.5)]
        assert _max_count_z(EnsembleSpec("COE", n), arcs, 400_000, 3200 + 10 * n, batches=4) < 4.0

    def test_engines_by_law(self) -> None:
        w = gauss_weight()
        engines = {
            (kind, n): gap.law_engine(law_of(kind, n, None if kind in ("COE", "CUE") else w))
            for kind in ("OE", "UE", "chUE", "COE", "CUE")
            for n in (3, 4)
        }
        assert engines == {
            ("OE", 3): "bordered", ("OE", 4): "none", ("UE", 3): "gram", ("UE", 4): "gram",
            ("chUE", 3): "gram", ("chUE", 4): "gram", ("COE", 3): "bordered",
            ("COE", 4): "none", ("CUE", 3): "fourier", ("CUE", 4): "fourier",
        }
        # the bordered row reads the record's root w1 as given, also where
        # the OE law's Romanovski exponent 2a + 2 rounds (a = 0.65, 1.2)
        for a in (0.65, 1.2):
            w1 = cauchy_weight(a)
            assert law_of("OE", 3, w1).root is w1
            table = gap.law_gap(law_of("OE", 3, w1), (-0.8, 0.8)).coeffs
            assert table.tobytes() == gap_oe_odd_exact(w1, 3, 0.8).coeffs.tobytes()
        assert law_of("COE", 5).root == cauchy_weight(2.0)
        assert law_of("CUE", 5).root is None and law_of("UE", 5, w).root is None
        # the bordered row takes symmetric J only
        with pytest.raises(NoExactEngine):
            gap.law_gap(law_of("OE", 3, w), (-0.5, 0.7))
        with pytest.raises(NoExactEngine):
            gap.law_gap(law_of("COE", 4), (-1.0, 1.0))

    def test_kind_engines_are_the_table_on_the_benchmark_grid(self) -> None:
        # every kind engine is the table on its kind's law, bit for bit, and
        # both are bit for bit the hand-derived engines they replaced, over
        # the exact-gaps-io arguments (s at its mid value)
        def same(got: GapPolynomial, *others: GapPolynomial) -> None:
            for other in others:
                assert got.coeffs.tobytes() == other.coeffs.tobytes()
                assert got.interval == other.interval

        for family, a, s, ue_max, oe_orders in _bench_gap_weights():
            w = make_weight(family, a)
            r = 0.9 if family == "jacobi" else 2.0
            for n, J in [(1, (-0.6 * r, 0.4 * r))] + [(n, (-s, s)) for n in range(2, ue_max + 1)]:
                ref = gap._gram_gap(w.w2, n, J, J)
                same(gap_ue_exact(w, n, J), gap.law_gap(law_of("UE", n, w), J), ref)
            for mu, m_max in ((0, (ue_max + 1) // 2), (1, ue_max // 2)):
                for m in range(1, m_max + 1):
                    ref = gap._gram_gap(w.w2.squared_argument(mu), m, (0.0, s**2), (0.0, s))
                    table = gap.law_gap(law_of("chUE", m, w, mu), (0.0, s))
                    same(gap_chue_exact(w, mu, m, s), table, ref)
            for n in oe_orders:
                ref = gap._odd_gap(gap._odd_parts(w, n, s), (-s, s), "gaudin")
                same(gap_oe_odd_exact(w, n, s, "gaudin"), ref)
                ref = gap._odd_gap(gap._odd_parts(w, n, s), (-s, s), "direct")
                same(gap_oe_odd_exact(w, n, s), gap.law_gap(law_of("OE", n, w), (-s, s)), ref)
        for theta in (0.2, 1.7, 3.0):
            for n in range(1, 10):
                j = np.arange(n, dtype=float)
                diff = j[:, None] - j[None, :]
                with np.errstate(invalid="ignore", divide="ignore"):
                    G = np.sin(diff * theta) / (np.pi * diff)
                np.fill_diagonal(G, theta / np.pi)
                ref = gap._eigen_gap(G, (-theta, theta))
                same(gap_cue_exact(n, theta), gap.law_gap(law_of("CUE", n), (-theta, theta)), ref)


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

    @pytest.mark.parametrize(
        "w,n,s", [(gauss_weight(), 7, 0.75), (jacobi_weight(0.5), 5, 0.5), (cauchy_weight(4.0), 5, 1.0)]
    )
    def test_is_the_assembly_decomposition(self, w, n: int, s: float) -> None:
        # bit for bit the rotation of the Gaudin assembly and check_B1_structure
        d = gaudin_data(w, n, s)
        parts = gap._odd_parts(w, n, s)
        rotated = gap._gaudin_parts(parts)
        assert d.nus.tobytes() == rotated.nus.tobytes()
        assert (d.C @ parts.p_s).tobytes() == rotated.q_s.tobytes()


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

    @pytest.mark.parametrize(
        "w,n,s,want",
        [
            (gauss_weight(), 3, 0.75, [0.17330697134672743, 0.5977356968934305,
                                       0.2189634260767163, 0.00999390568312575]),
            (cauchy_weight(4.0), 3, 0.75, [0.0009152155242733238, 0.07413277784706232,
                                           0.47106467757349163, 0.45388732905517276]),
            (jacobi_weight(0.5), 2, 0.5, [0.2070312500000002, 0.5825037944942959,
                                          0.21046495550570377]),
        ],
        ids=["gauss", "cauchy4", "jacobi0.5"],
    )
    def test_values_are_pinned(self, w, n: int, s: float, want: list[float]) -> None:
        # bit for bit: the chart, the order ladder, the composition summation
        # order and the settling test are part of what the brute force computes
        assert [gap_oe_bruteforce(w, n, (-s, s), k) for k in range(n + 1)] == want

    @pytest.mark.parametrize("n,J", [(3, (-math.inf, 0.3)), (4, (-0.4, 1.1))])
    def test_gauss_on_the_clipped_chart_settles(self, n: int, J: tuple[float, float]) -> None:
        # under x = tan u, e^{-x^2/2} is not analytic at u = +-pi/2 and
        # neither ladder settled; on the clipped Hermite range both do
        vals = [gap_oe_bruteforce(gauss_weight(), n, J, k) for k in range(n + 1)]
        assert min(vals) >= 0.0
        assert sum(vals) == pytest.approx(1.0, abs=1e-12)

    def test_interval_past_the_clip_holds_no_point(self) -> None:
        vals = [gap_oe_bruteforce(gauss_weight(), 2, (12.0, 15.0), k) for k in range(3)]
        assert vals == [1.0, 0.0, 0.0]

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

    def test_jacobi_odd(self) -> None:
        rep = check_thm_gap("jacobi", 3, 1, 0.5, a=0.0)
        assert rep.passed

    @pytest.mark.parametrize(
        "family,a,n,s",
        [
            ("gauss", None, 21, 1.0),
            ("gauss", None, 31, 1.0),
            ("gauss", None, 39, 1.0),
            ("jacobi", 0.5, 21, 0.5),
            ("jacobi", 0.5, 31, 0.5),
            ("jacobi", 0.5, 39, 0.5),
            ("cauchy", 20.0, 21, 0.6),
            ("jacobi", -0.9, 21, 0.5),
            ("jacobi", -0.75, 31, 0.5),
            ("jacobi", -0.25, 39, 0.5),
            ("gauss", None, 101, 1.0),
            ("cauchy", 30.0, 41, 0.6),
        ],
    )
    def test_large_odd_n_exact_vs_exact(
        self, family: str, a: float | None, n: int, s: float
    ) -> None:
        for k in range((n - 1) // 2 + 1):
            rep = check_thm_gap(family, n, k, s, a=a)
            (sub,) = rep.subtests
            assert rep.passed
            assert abs(sub.lhs - sub.rhs) <= 1e-12, (k, sub.lhs, sub.rhs)
        c = gap_oe_odd_exact(make_weight(family, a), n, s).coeffs
        assert np.min(c) >= -1e-14
        assert abs(c.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize(
        "family,a,n,s",
        [("gauss", None, 401, 1.0), ("jacobi", 0.5, 401, 0.3), ("jacobi", -0.9, 201, 0.5)],
    )
    def test_whole_vector_against_chue(
        self, family: str, a: float | None, n: int, s: float
    ) -> None:
        # E(2k) + E(2k+1) of n = 2m + 1 beta = 1 points on (-s, s) is the
        # chiral beta = 2 gap E(k) of m points on (0, s), for every k at once
        w = make_weight(family, a)
        c = gap_oe_odd_exact(w, n, s).coeffs
        chiral = gap_chue_exact(w, 1, n // 2, s).coeffs
        assert np.max(np.abs(c[0::2] + c[1::2] - chiral)) <= 1e-12


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

    def test_parts_built_once(self, monkeypatch) -> None:
        calls = []
        real = gap._odd_parts
        monkeypatch.setattr(gap, "_odd_parts", lambda *args: calls.append(args) or real(*args))
        w = cauchy_weight(4.0)
        rep = check_B1_structure(w, 5, 1.0)
        assert rep.passed and len(calls) == 1
        # the report still compares the two public assemblies
        d = gap_oe_odd_exact(w, 5, 1.0, mode="direct").coeffs
        g = gap_oe_odd_exact(w, 5, 1.0, mode="gaudin").coeffs
        stat = {t.name: t.statistic for t in rep.subtests}
        assert stat["mode_agreement"] == float(np.max(np.abs(d - g)))


class TestOddPartsIntegrals:
    """The closed forms of ``_odd_parts`` against one adaptive scalar integral
    per odd-degree polynomial, taken here in x (Gauss, Cauchy) or in t with
    x = sin t (Jacobi)."""

    @pytest.mark.parametrize(
        "w,n,s",
        [
            (gauss_weight(), 7, 0.75),
            (cauchy_weight(4.0), 5, 1.0),
            (jacobi_weight(0.5), 5, 0.5),
            (jacobi_weight(-0.5), 7, 0.6),
        ],
        ids=["gauss", "cauchy4", "jacobi0.5", "jacobi-0.5"],
    )
    def test_components_match_scalar_integrals(self, w, n: int, s: float) -> None:
        parts = gap._odd_parts(w, n, s)
        m = (n - 1) // 2
        sys = build(w.w2, 2 * m - 1)
        th1s = float(theta1(w, s))

        def w1_integral(f, lo, hi):
            if math.isinf(w.omega):
                return integrate(lambda x: f(x) * w.w1(x), (lo, hi), tol=1e-12)
            p = 2.0 * w.a + 1.0
            g = lambda t: f(np.minimum(np.sin(t), np.nextafter(1.0, 0.0))) * np.cos(t) ** p
            return integrate(g, (math.asin(lo), math.asin(hi)), tol=1e-12)

        for r in range(m):
            pk = lambda x, r=r: sys.evaluate(x, [2 * r + 1])[0]
            t0 = w1_integral(pk, 0.0, w.omega)
            ts = w1_integral(pk, s, w.omega)
            u = 2.0 * w1_integral(lambda x: theta1(w, x) * pk(x), 0.0, w.omega)
            inner = w1_integral(lambda x: pk(x) * (th1s - theta1(w, x)), 0.0, s)
            for got, want in (
                (parts.Ts[r], ts),
                (parts.U[r], u),
                (parts.V[r], 2.0 * th1s * t0 - 2.0 * inner),
            ):
                assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


EXACT_PAIRS = [
    pair_for_24("laguerre"),
    pair_for_24("jacobi", a=2.0),
    pair_for_24cp("gauss", 2),
    pair_for_24cp("laguerre", 2, a=1.5),
    pair_for_24cp("jacobi", 2, a=1.0, b=2.0),
]
EXACT_PAIR_IDS = ["24-laguerre", "24-jacobi", "24cp-gauss", "24cp-laguerre", "24cp-jacobi"]


def _pair_law_log_density(pair):
    """log of prod w1 |Vdm| for the beta = 1 law of ``pair``, built from its
    w1^2 and -inf off the support."""
    w = pair.w1sq
    lo, hi = w.support

    def log_density(x: np.ndarray) -> np.ndarray:
        out = np.full(x.shape[0], -np.inf)
        inside = np.all((x > lo) & (x < hi), axis=1)
        y = x[inside]
        i, j = np.triu_indices(x.shape[1], 1)
        out[inside] = 0.5 * np.sum(w.log(y), axis=1) + np.sum(np.log(np.abs(y[:, j] - y[:, i])), axis=1)
        return out

    return log_density


def _pair_law_init(pair):
    """Start points inside the support of ``pair``."""
    lo, hi = pair.support
    if math.isinf(lo) and math.isinf(hi):
        return lambda rng, c, n: rng.standard_normal((c, n))
    if math.isinf(hi):
        return lambda rng, c, n: lo + np.abs(rng.standard_normal((c, n))) + 0.05
    span = hi - lo
    return lambda rng, c, n: rng.uniform(lo + 0.05 * span, hi - 0.05 * span, (c, n))


class TestWeightPairs:
    def test_pair_for_24_families(self) -> None:
        lag = pair_for_24("laguerre")
        assert lag.support == (0.0, math.inf)
        assert lag.w2(np.array([1.0]))[0] == pytest.approx(math.exp(-1.0))
        # w1 = e^(-x/2) on (0, inf)
        assert lag.w1sq == ClassicalWeight("laguerre")
        jac = pair_for_24("jacobi", a=1.0)
        assert jac.support == (0.0, 1.0)
        # w1 = (1 - x)^((a - 1)/2) on (0, 1)
        assert pair_for_24("jacobi", a=2.5).w1sq == ClassicalWeight("jacobi", 1.5, 0.0, (0.0, 1.0))
        with pytest.raises(BadParameter):
            pair_for_24("gauss")

    def test_pair_for_24cp_families(self) -> None:
        g = pair_for_24cp("gauss", 2)
        assert g.w2(np.array([0.5]))[0] == pytest.approx(math.exp(-0.25))
        c = pair_for_24cp("cauchy", 2, a=1.0)
        # w1 = (1 + x^2)^(-(n + a + 1)/2)
        assert c.w1sq == ClassicalWeight("romanovski", 4.0)
        assert g.w1sq == ClassicalWeight("hermite")
        assert pair_for_24cp("laguerre", 2, a=1.5).w1sq == ClassicalWeight("laguerre", b=0.5)
        # w1 = (1 + x)^((a - 1)/2) (1 - x)^((b - 1)/2)
        assert pair_for_24cp("jacobi", 2, a=1.0, b=2.0).w1sq == ClassicalWeight("jacobi", 1.0, 0.0)
        # the report records the exponents each family's weights use
        assert c.exponents == {"a": 1.0}
        assert g.exponents == {} and pair_for_24("laguerre").exponents == {}
        assert pair_for_24cp("jacobi", 2, a=1.0, b=2.0).exponents == {"a": 1.0, "b": 2.0}
        assert c.w2(np.array([1.0]))[0] == pytest.approx(2.0 ** -3.0)
        with pytest.raises(BadParameter):
            pair_for_24cp("cauchy", 2, a=0.0)
        with pytest.raises(BadParameter):
            pair_for_24cp("hermite", 2)

    def test_law_table_decides_pair_mass(self) -> None:
        # the table refuses exactly where a > -1 (eq24 Jacobi, eq24cp
        # Laguerre), a, b > -1 (eq24cp Jacobi) and a > 0 (eq24cp Cauchy)
        # fail, and names the identity, the pair and the run law
        def refusal(make, *args):
            try:
                make(*args)
            except BadParameter as exc:
                return str(exc)
            return None

        grid = [v / 4 for v in range(-10, 11)] + [-1.0 - 1e-12, -1.0 + 1e-12, 1e-12, math.inf]
        for a in grid:
            assert (refusal(pair_for_24, "jacobi", a) is None) == (a > -1.0)
            assert refusal(pair_for_24, "laguerre", a) is None
            for n in (1, 2, 5):
                assert (refusal(pair_for_24cp, "laguerre", n, a) is None) == (a > -1.0)
                assert (refusal(pair_for_24cp, "cauchy", n, a) is None) == (a > 0.0)
                assert refusal(pair_for_24cp, "gauss", n, a) is None
                for b in grid[::3]:
                    ok = refusal(pair_for_24cp, "jacobi", n, a, b) is None
                    assert ok == (a > -1.0 and b > -1.0)
        assert refusal(pair_for_24, "jacobi", -1.0) == (
            "eq24 jacobi pair, a=-1: jacobi law beta=1, n=1, a=-2, b=0 has no finite mass"
        )
        assert refusal(pair_for_24cp, "cauchy", 2, 0.0) == (
            "eq24cp cauchy pair, a=0: romanovski law beta=1, n=3, a=3, b=0 has no finite mass"
        )
        # a NaN exponent has no finite mass in either slot
        for args in [("jacobi", 2, math.nan, 1.0), ("jacobi", 2, 1.0, math.nan),
                     ("laguerre", 2, math.nan), ("cauchy", 2, math.nan)]:
            assert "no finite mass" in refusal(pair_for_24cp, *args)
        assert "no finite mass" in refusal(pair_for_24, "jacobi", math.nan)

    @pytest.mark.parametrize("n,a,t", [(2, -0.75, 0.5), (3, 0.5, 0.3), (4, -0.9, 0.2)])
    def test_eq24_jacobi_hard_edge_gap(self, n: int, a: float, t: float) -> None:
        # w2 = (1 - x)^a on (0, 1) has E(0; (0, t)) = (1 - t)^(n (n + a));
        # at a = -3/4, n = 2, t = 1/2 that is 2^(-5/2) = 0.1767767
        p = gap_ue_exact(pair_for_24("jacobi", a).w2, n, (0.0, t))
        assert p.prob(0) == pytest.approx((1.0 - t) ** (n * (n + a)), abs=1e-12)

    def test_pairs_carry_classical_weights(self) -> None:
        assert pair_for_24("laguerre").w2 == ClassicalWeight("laguerre")
        assert pair_for_24("jacobi", a=-0.5).w2 == ClassicalWeight("jacobi", -0.5, 0.0, (0.0, 1.0))
        assert pair_for_24cp("gauss", 2).w2 == ClassicalWeight("hermite")
        assert pair_for_24cp("laguerre", 2, a=1.5).w2 == ClassicalWeight("laguerre", b=1.5)
        # (1 + x)^a (1 - x)^b: b is the exponent at the upper end
        assert pair_for_24cp("jacobi", 2, a=1.0, b=2.0).w2 == ClassicalWeight("jacobi", 2.0, 1.0)
        assert pair_for_24cp("cauchy", 2, a=1.0).w2 == ClassicalWeight("romanovski", 3.0)
        for pair in [*EXACT_PAIRS, pair_for_24cp("cauchy", 2, a=1.0)]:
            assert pair.w1sq.support == pair.support

    def test_only_cauchy_pair_uses_metropolis(self, monkeypatch) -> None:
        # both runs of every pair row, as _check_pair_convolution draws them
        routes = {"24-laguerre": "beta-laguerre", "24-jacobi": "beta-jacobi",
                  "24cp-gauss": "gaussian", "24cp-laguerre": "beta-laguerre",
                  "24cp-jacobi": "beta-jacobi"}
        # short chains: only the route is checked here
        monkeypatch.setattr(samplers, "McmcParams", lambda: McmcParams(burn_in=20, chains=8))
        for pair, name in zip(EXACT_PAIRS, EXACT_PAIR_IDS):
            for size in (2, 3):
                assert sample_law(1, size, pair.w1sq, 8, 3).diagnostics["route"] == routes[name]
        # Cauchy: (1 + x^2)^(-(n + a + 1)/2) is the law of tan(angle/2)
        # over Haar COE angles at size n + 1 exactly when a = 1, and
        # Metropolis otherwise
        for a, n, size, route in [(1.0, 2, 3, "haar"), (1.0, 3, 4, "haar"),
                                  (1.0, 2, 2, "metropolis"), (0.5, 2, 3, "metropolis")]:
            w = pair_for_24cp("cauchy", n, a=a).w1sq
            assert sample_law(1, size, w, 8, 3).diagnostics["route"] == route

    @pytest.mark.parametrize("pair", EXACT_PAIRS, ids=EXACT_PAIR_IDS)
    def test_pair_rows_on_support_and_worker_independent(self, pair) -> None:
        a = sample_law(1, 3, pair.w1sq, 1001, 41, workers=1).spectra
        b = sample_law(1, 3, pair.w1sq, 1001, 41, workers=4).spectra
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
        n, count = 2, 20_000
        exact = sample_law(1, n, pair.w1sq, count, 43, workers=1).spectra
        walked = sample_mcmc(
            _pair_law_log_density(pair), n, count, 44, params=McmcParams(), init=_pair_law_init(pair)
        ).spectra
        for k in range(n):
            p = scipy.stats.ks_2samp(exact[:, k], walked[:, k]).pvalue
            assert p > 0.001, f"order statistic {k}: p = {p}"


class TestLabelConvolution:
    # the identities in the paper's form: which count pairs (i, j) add up to k
    PAPER_FORM = {
        "eq24": lambda i, j, k: i + j in (2 * k - 1, 2 * k),
        "eq24cp": lambda i, j, k: i + j in (2 * k, 2 * k + 1),
        "eq831p": lambda i, j, k: math.ceil(i / 2) + math.floor(j / 2) == k,
    }

    @pytest.mark.parametrize(
        "identity, sizes", [("eq24", (4, 4)), ("eq24cp", (4, 5)), ("eq831p", (5, 5))]
    )
    def test_matches_double_sum(self, identity: str, sizes: tuple[int, int]) -> None:
        rng = np.random.default_rng(17)
        nA, nB = sizes
        pA, pB = rng.dirichlet(np.ones(nA)), rng.dirichlet(np.ones(nB))
        count = 1000
        covA = (np.diag(pA) - np.outer(pA, pA)) / count
        covB = (np.diag(pB) - np.outer(pB, pB)) / count
        for k in range(max(sizes) + 1):
            form = self.PAPER_FORM[identity]
            hit = np.array([[float(form(i, j, k)) for j in range(nB)] for i in range(nA)])
            rhs = sum(pA[i] * hit[i, j] * pB[j] for i in range(nA) for j in range(nB))
            gA, gB = hit @ pB, hit.T @ pA
            got_rhs, got_var = _label_convolution(pA, pB, identity, k, count)
            assert got_rhs == pytest.approx(rhs, abs=1e-15)
            assert got_var == pytest.approx(gA @ covA @ gA + gB @ covB @ gB, rel=1e-10, abs=1e-18)

    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("theta", [0.4, 1.2, 2.0, 3.0])
    def test_eq831p_label_exact_at_odd_n(self, n: int, theta: float) -> None:
        # exact COE counts via the Cauchy pullback x = tan(angle / 2)
        coe = gap_oe_odd_exact(cauchy_weight((n - 1) / 2), n, math.tan(theta / 2)).coeffs
        cue = gap_cue_exact(n, theta)
        for k in range(n + 2):
            rhs, _ = _label_convolution(coe, coe, "eq831p", k, 1)
            assert rhs == pytest.approx(cue.prob(k), abs=1e-12)


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

    def test_pinned_sample_is_tested_against_exact_variance(self) -> None:
        # at s = 0.001 every sampled count is 0, so the sampled side is
        # pinned at 1 while the exact E2(0) is 0.998: the fallback variance
        # must come from the exact side, not from the pinned estimate
        rep = check_identity_24(pair_for_24("laguerre"), 2, 0, 0.001, count=200, seed=1, workers=1)
        sub = rep.subtests[0]
        assert (sub.lhs, sub.rhs) == (pytest.approx(0.998, abs=1e-3), 1.0)
        assert sub.kind == "z"
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

    def test_8_31p_pinned_sample_is_tested_against_exact_variance(self) -> None:
        rep = check_8_31p(2, 0, 0.001, count=200, seed=1)
        sub = rep.subtests[0]
        assert sub.rhs == 1.0 and sub.lhs < 1.0
        assert sub.kind == "z"
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
