from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erf

from rmtdec.errors import BadParameter, OrderExceeded, OutOfSupport
from rmtdec.numerics import integrate
from rmtdec.weights import (
    alpha,
    beta,
    big_A,
    cauchy_weight,
    check_recurrence,
    from_table1,
    gauss_weight,
    jacobi_weight,
    make_weight,
    theta1,
    theta_by_quadrature,
)

GAUSS = gauss_weight()


def hyp2f1_series(a: float, b: float, c: float, z: float) -> float:
    """Truncated Gauss hypergeometric series; oracle use only, |z| <= 0.5."""
    term, total = 1.0, 1.0
    for k in range(500):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) <= 1e-14:
            return total
    raise AssertionError("series did not truncate")


class TestConstruction:
    def test_families_and_parameters(self) -> None:
        assert GAUSS.omega == math.inf and GAUSS.kappa == math.inf
        assert jacobi_weight(0.5).omega == 1.0
        assert cauchy_weight(2.0).kappa == 4.0

    def test_bad_parameters(self) -> None:
        with pytest.raises(BadParameter):
            jacobi_weight(-1.0)
        with pytest.raises(BadParameter):
            cauchy_weight(-0.5)
        with pytest.raises(BadParameter):
            make_weight("gauss", 1.0)
        with pytest.raises(BadParameter):
            make_weight("laguerre", 1.0)

    def test_make_weight_round_trip(self) -> None:
        w = make_weight("Cauchy", 3.5)
        assert w.family == "cauchy" and w.a == 3.5


class TestEvalW1:
    def test_closed_form_examples(self) -> None:
        assert GAUSS.w1(0.0) == pytest.approx(1.0)
        assert jacobi_weight(1.0).w1(0.5) == pytest.approx(0.75)
        assert cauchy_weight(1.0).w1(1.0) == pytest.approx(0.25)

    def test_even_and_normalized(self) -> None:
        xs = np.linspace(-0.9, 0.9, 21)
        for w in (GAUSS, jacobi_weight(0.5), cauchy_weight(2.0)):
            np.testing.assert_allclose(w.w1(xs), w.w1(-xs), rtol=1e-15)
            assert w.w1(0.0) == pytest.approx(1.0)

    def test_out_of_support(self) -> None:
        with pytest.raises(OutOfSupport):
            jacobi_weight(1.0).w1(1.0)
        with pytest.raises(OutOfSupport):
            jacobi_weight(1.0).w2(np.array([0.5, -1.2]))

    def test_log_forms_match(self) -> None:
        xs = np.linspace(-0.95, 0.95, 11)
        for w in (GAUSS, jacobi_weight(2.0), cauchy_weight(1.5)):
            np.testing.assert_allclose(np.exp(w.log_w1(xs)), w.w1(xs), rtol=1e-13)
            np.testing.assert_allclose(
                np.exp(w.log_companion(xs)), w.companion(xs), rtol=1e-13
            )
            np.testing.assert_allclose(np.exp(w.log_w2(xs)), w.w2(xs), rtol=1e-13)

    def test_log_out_of_support_is_minus_inf(self) -> None:
        w = jacobi_weight(1.0)
        out = w.log_w1(np.array([0.0, 1.0, 2.0]))
        assert out[0] == 0.0 and out[1] == -np.inf and out[2] == -np.inf


class TestRecurrenceCoefficients:
    def test_gauss_row(self) -> None:
        assert alpha(GAUSS, 5) == pytest.approx(1.0)
        assert beta(GAUSS, 5) == pytest.approx(4.0)

    def test_jacobi_row(self) -> None:
        w = jacobi_weight(0.0)
        assert alpha(w, 1) == pytest.approx(0.5)
        assert beta(w, 1) == 0.0
        assert alpha(w, 3) == pytest.approx(0.25)
        assert beta(w, 3) == pytest.approx(0.5)

    def test_cauchy_row(self) -> None:
        w = cauchy_weight(1.0)
        assert alpha(w, 1) == pytest.approx(0.5)
        assert beta(w, 1) == 0.0

    def test_cauchy_order_bound_strict(self) -> None:
        w = cauchy_weight(2.0)
        alpha(w, 3)  # 3 < 4 is fine
        with pytest.raises(OrderExceeded):
            alpha(w, 4)  # k = 2a rejected
        with pytest.raises(OrderExceeded):
            beta(w, 5)

    def test_rejects_nonpositive_order(self) -> None:
        with pytest.raises(BadParameter):
            alpha(GAUSS, 0)

    def test_big_A_products(self) -> None:
        assert big_A(GAUSS, 3, 1) == pytest.approx(1.0)
        assert big_A(jacobi_weight(0.0), 2, 0) == pytest.approx(1.0 / 3.0)
        assert big_A(cauchy_weight(2.0), 2, 1) == pytest.approx(1.0 / 8.0)

    def test_big_A_positive_and_bounded(self) -> None:
        for w in (GAUSS, jacobi_weight(1.5), cauchy_weight(3.5)):
            for n, nu in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]:
                assert big_A(w, n, nu) > 0.0
        with pytest.raises(OrderExceeded):
            big_A(cauchy_weight(1.0), 2, 1)  # needs order 3 < 2

    def test_phi_curvature_matches_alpha_gap(self) -> None:
        # phi(x) = 1 + tau x^2 with tau = (alpha_2 - alpha_1)/(alpha_2 alpha_1)
        for w in (GAUSS, jacobi_weight(0.7), cauchy_weight(2.5)):
            a1, a2 = alpha(w, 1), alpha(w, 2)
            tau = (a2 - a1) / (a2 * a1)
            assert tau == pytest.approx(w.tau, abs=1e-12)
            x = 0.37
            assert w.phi(x) == pytest.approx(1.0 + tau * x * x, rel=1e-14)


class TestTheta:
    def test_closed_forms_reduce_to_one(self) -> None:
        assert jacobi_weight(0.0).theta == pytest.approx(1.0, rel=1e-14)
        assert cauchy_weight(0.5).theta == pytest.approx(1.0, rel=1e-14)

    def test_gauss_value(self) -> None:
        assert GAUSS.theta == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-15)

    @pytest.mark.parametrize(
        "w",
        [
            GAUSS,
            jacobi_weight(0.0),
            jacobi_weight(0.5),
            jacobi_weight(2.0),
            cauchy_weight(0.75),
            cauchy_weight(2.0),
            cauchy_weight(3.5),
            jacobi_weight(-0.99),
            jacobi_weight(-0.75),
        ],
        ids=lambda w: f"{w.family}-{w.a}",
    )
    def test_quadrature_agrees(self, w) -> None:
        assert theta_by_quadrature(w) == pytest.approx(w.theta, rel=1e-10)

    @pytest.mark.parametrize("family", ["jacobi", "cauchy"])
    def test_beta_form_against_mpmath(self, family: str) -> None:
        # theta = B(1/2, a + 1) / 2 (Jacobi) or B(1/2, a + 1/2) / 2 (Cauchy);
        # Gamma(a + 1) alone overflows a float past a = 170
        lo = -0.99 if family == "jacobi" else -0.49
        shift = 1.0 if family == "jacobi" else 0.5
        grid = [*np.linspace(lo, 30.0, 61), *np.linspace(30.0, 1000.0, 98), 169.5, 170.5, 171.0]
        with mp.workdps(30):
            for a in grid:
                want = mp.beta(0.5, mp.mpf(float(a)) + shift) / 2
                got = make_weight(family, float(a)).theta
                assert abs(got - want) <= 1e-12 * want, a


class TestTheta1:
    def test_zero_at_origin(self) -> None:
        for w in (GAUSS, jacobi_weight(1.0), cauchy_weight(1.0)):
            assert theta1(w, 0.0) == 0.0

    def test_flat_jacobi(self) -> None:
        assert theta1(jacobi_weight(0.0), 0.7) == pytest.approx(0.7, rel=1e-12)

    def test_gauss_matches_erf(self) -> None:
        xs = np.array([-2.5, -1.1, -0.3, 0.2, 0.9, 1.7, 3.0])
        want = math.sqrt(math.pi / 2.0) * erf(xs / math.sqrt(2.0))
        np.testing.assert_allclose(theta1(GAUSS, xs), want, rtol=1e-11, atol=1e-13)

    def test_gauss_saturates_at_theta(self) -> None:
        assert theta1(GAUSS, 40.0) == pytest.approx(GAUSS.theta, rel=1e-12)

    def test_jacobi_hypergeometric_oracle(self) -> None:
        for a in (0.5, 2.0, -0.3):
            w = jacobi_weight(a)
            for x in (0.05, 0.2, 0.35, 0.5):
                want = x * hyp2f1_series(0.5, -a, 1.5, x * x)
                assert theta1(w, x) == pytest.approx(want, rel=1e-12)

    def test_cauchy_hypergeometric_oracle(self) -> None:
        for a in (0.75, 2.0, 3.5):
            w = cauchy_weight(a)
            for x in (0.05, 0.2, 0.35, 0.5):
                want = x * hyp2f1_series(0.5, a + 1.0, 1.5, -x * x)
                assert theta1(w, x) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a", [-0.75, -0.5, -0.25])
    def test_jacobi_negative_exponent_near_endpoint(self, a: float) -> None:
        # (1 - x^2)^a is singular at x = 1; in t = asin x the mass is
        # int cos(t)^(2a+1) dt, and for a = -1/2 it is asin x itself
        w = jacobi_weight(a)
        for x in (0.3, 0.9, 0.999, 0.99999, 0.999999):
            t = math.asin(x)
            if a == -0.5:
                want = t
            else:
                want = integrate(lambda u: np.cos(u) ** (2.0 * a + 1.0), (0.0, t), tol=1e-14)
            assert theta1(w, x) == pytest.approx(want, rel=1e-12)
            assert theta1(w, -x) == pytest.approx(-want, rel=1e-12)

    @pytest.mark.parametrize("a", [-0.25, 0.5])
    def test_cauchy_far_tail(self, a: float) -> None:
        # int_x^inf (1+t^2)^(-a-1) = x^(-2a-1)/(2a+1) 2F1(a+1, a+1/2; a+3/2; -1/x^2)
        w = cauchy_weight(a)
        for x in (1e3, 1e5, 1e7):
            tail = x ** (-2.0 * a - 1.0) / (2.0 * a + 1.0) * hyp2f1_series(
                a + 1.0, a + 0.5, a + 1.5, -1.0 / x**2
            )
            assert w.theta - theta1(w, x) == pytest.approx(tail, rel=1e-10)

    def test_infinite_argument(self) -> None:
        for w in (GAUSS, cauchy_weight(-0.25), cauchy_weight(2.0)):
            assert theta1(w, math.inf) == w.theta
            assert theta1(w, -math.inf) == -w.theta

    def test_odd_symmetry(self) -> None:
        xs = np.linspace(-0.9, 0.9, 13)
        for w in (GAUSS, jacobi_weight(0.5), cauchy_weight(2.0)):
            np.testing.assert_allclose(theta1(w, xs), -theta1(w, -xs), rtol=1e-13)

    def test_vector_matches_scalar(self) -> None:
        w = cauchy_weight(2.0)
        xs = np.array([0.1, 1.3, -0.7, 4.0, 0.1])
        vec = theta1(w, xs)
        for i, x in enumerate(xs):
            assert vec[i] == pytest.approx(theta1(w, float(x)), rel=1e-13)

    def test_out_of_support(self) -> None:
        with pytest.raises(OutOfSupport):
            theta1(jacobi_weight(1.0), 1.5)


class TestDerivedBundle:
    def test_w2_is_w1_times_companion(self) -> None:
        xs = np.linspace(-0.9, 0.9, 9)
        for w in (GAUSS, jacobi_weight(0.5), cauchy_weight(2.0)):
            np.testing.assert_allclose(w.w2(xs), w.w1(xs) * w.companion(xs), rtol=1e-14)

    def test_psi_zero_at_origin(self) -> None:
        for w in (GAUSS, jacobi_weight(0.5), cauchy_weight(2.0)):
            assert w.psi(0.0) == 0.0

    def test_companion_psi_limit(self) -> None:
        # companion(s) * psi(s) -> -theta as s -> omega
        cases = [
            (GAUSS, 10.0),
            (jacobi_weight(0.0), 1.0 - 1e-8),
            (jacobi_weight(0.5), 1.0 - 1e-8),
            (cauchy_weight(2.0), 1e3),
        ]
        for w, s in cases:
            val = w.companion(s) * w.psi(s)
            assert val == pytest.approx(-w.theta, abs=1e-6)


def _definite(w, k: int, x: float) -> float:
    if x == 0.0:
        return 0.0
    sign = 1.0 if x > 0 else -1.0
    lo, hi = (0.0, x) if x > 0 else (x, 0.0)
    return sign * integrate(lambda t: t**k * w.w1(t), (lo, hi), tol=1e-12)


class TestAntiderivativeRecurrence:
    """Definite integral form of the three-term recurrence, from 0 to x."""

    @pytest.mark.parametrize(
        "w,kmax,span",
        [
            (GAUSS, 8, 2.5),
            (jacobi_weight(0.5), 8, 0.95),
            (cauchy_weight(2.0), 3, 4.0),
            (cauchy_weight(3.5), 6, 4.0),
        ],
        ids=["gauss", "jacobi-0.5", "cauchy-2", "cauchy-3.5"],
    )
    def test_matches_quadrature(self, w, kmax, span) -> None:
        rng = np.random.default_rng(42)
        xs = rng.uniform(-span, span, size=20)
        for k in range(1, kmax + 1):
            ak, bk = alpha(w, k), beta(w, k)
            for x in xs:
                lhs = _definite(w, k, float(x))
                rhs = -ak * x ** (k - 1) * w.companion(x)
                if k == 1:
                    rhs += ak  # boundary term at 0: alpha_1 phi(0) w1(0)
                else:
                    rhs += bk * _definite(w, k - 2, float(x))
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestBoundaryVanishing:
    def test_companion_vanishes(self) -> None:
        # decay rate is (2e-6)^(a+1): about 2e-6 at a=0, far smaller beyond
        x = 1.0 - 1e-6
        for a in (0.0, 0.5, 2.0):
            w = jacobi_weight(a)
            for k in range(0, 9):
                assert x**k * w.companion(x) < 1e-5
                if a >= 0.5:
                    assert x**k * w.companion(x) < 1e-6

    def test_gauss_tail(self) -> None:
        x = 1e6
        for k in range(0, 9):
            assert x**k * GAUSS.w1(x) < 1e-6
            assert x**k * GAUSS.companion(x) < 1e-6

    def test_cauchy_tail(self) -> None:
        x = 1e6
        for a, kmax in [(2.0, 3), (3.5, 6)]:
            w = cauchy_weight(a)
            for k in range(0, kmax + 1):
                assert x**k * w.w1(x) < 1e-6
                if k <= 2 * a - 2:
                    assert x**k * w.companion(x) < 1e-6

    def test_jacobi_w1_vanishes_for_large_a(self) -> None:
        x = 1.0 - 1e-6
        w = jacobi_weight(2.0)
        for k in range(0, 9):
            assert x**k * w.w1(x) < 1e-6


class TestCheckRecurrence:
    def test_gauss_identity(self) -> None:
        assert check_recurrence(GAUSS, 1, [0.3, -0.3, 1.1]) < 1e-12

    def test_jacobi_hundred_points(self) -> None:
        pts = np.linspace(-0.95, 0.95, 100)
        assert check_recurrence(jacobi_weight(0.5), 3, pts) < 1e-10

    def test_cauchy_legal_and_illegal(self) -> None:
        pts = np.linspace(-3.0, 3.0, 50)
        assert check_recurrence(cauchy_weight(3.0), 5, pts) < 1e-10
        with pytest.raises(OrderExceeded):
            check_recurrence(cauchy_weight(2.0), 5, pts)


class TestFromTable1:
    def test_cauchy_reparameterization(self) -> None:
        w = from_table1("cauchy", 3, 0.0)
        assert w.family == "cauchy" and w.a == pytest.approx(1.0)

    def test_cauchy_edge_accepted(self) -> None:
        w = from_table1("cauchy", 1, 0.0)
        assert w.a == pytest.approx(0.0)

    def test_cauchy_rejected_below_bound(self) -> None:
        with pytest.raises(BadParameter):
            from_table1("cauchy", 0, 0.0)

    def test_gauss_passthrough(self) -> None:
        assert from_table1("gauss", 7).family == "gauss"

    def test_consistency_with_exponent(self) -> None:
        # (1+x^2)^{-(n+a+1)/2} must equal canonical (1+x^2)^{-a_c-1}
        n, a_t = 4, 1.5
        w = from_table1("cauchy", n, a_t)
        x = 0.8
        want = (1.0 + x * x) ** (-(n + a_t + 1.0) / 2.0)
        assert w.w1(x) == pytest.approx(want, rel=1e-14)
