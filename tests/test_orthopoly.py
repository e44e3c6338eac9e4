from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from rmtdec.errors import BadParameter, MomentDivergence, OutOfSupport
from rmtdec.numerics import integrate
from rmtdec.orthopoly import ClassicalWeight, _gram_rule, _monic_recurrence, build, gram
from rmtdec.weights import cauchy_weight, jacobi_weight

HERMITE = ClassicalWeight("hermite")
LEGENDRE = ClassicalWeight("jacobi", 0.0, 0.0)


def w_hermite(x: np.ndarray) -> np.ndarray:
    return np.exp(-(x**2))


class TestBuildOracles:
    def test_hermite_recurrence(self) -> None:
        # orthonormal Hermite: a_j = 0, b_j = sqrt(j/2), b_0 = pi^(1/4)
        sys = build(HERMITE, 4)
        np.testing.assert_allclose(sys.recur_a, np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(sys.recur_b[0], math.pi**0.25, rtol=1e-12)
        want = np.sqrt(np.arange(1, 5) / 2.0)
        np.testing.assert_allclose(sys.recur_b[1:], want, rtol=1e-11)

    def test_legendre_first_degree(self) -> None:
        sys = build(LEGENDRE, 3)
        xs = np.linspace(-0.9, 0.9, 7)
        p1 = sys.evaluate(xs, [1])[0]
        np.testing.assert_allclose(p1, math.sqrt(1.5) * xs, rtol=1e-12, atol=1e-14)

    def test_cauchy_type_brute_gram_schmidt(self) -> None:
        # independent construction from raw moments of (1+x^2)^(-4)
        w = ClassicalWeight("romanovski", 4.0)
        m = [integrate(lambda x, k=k: x**k * w(x), (-np.inf, np.inf), 1e-12) for k in range(5)]
        sys = build(w, 2)
        np.testing.assert_allclose(sys.recur_a, np.zeros(2), atol=1e-12)
        xs = np.array([-1.7, -0.4, 0.0, 0.8, 2.2])
        p = sys.evaluate(xs)
        np.testing.assert_allclose(p[0], np.full(5, 1.0 / math.sqrt(m[0])), rtol=1e-10)
        np.testing.assert_allclose(np.abs(p[1]), np.abs(xs / math.sqrt(m[2])), rtol=1e-10, atol=1e-14)
        c = m[2] / m[0]
        norm2 = m[4] - m[2] ** 2 / m[0]
        want2 = (xs**2 - c) / math.sqrt(norm2)
        np.testing.assert_allclose(np.abs(p[2]), np.abs(want2), rtol=1e-9)

    def test_orthonormality_invariant(self) -> None:
        cases = [
            (HERMITE, 12),
            (ClassicalWeight("jacobi", 2.0, 2.0), 12),
            (ClassicalWeight("jacobi", 3.0, 1.0, (0.0, 2.0)), 8),
            (ClassicalWeight("romanovski", 5.0), 3),
            (ClassicalWeight("laguerre", b=2.0), 6),
            (ClassicalWeight("betaprime", 12.0, 1.0), 4),
        ]
        for w, deg in cases:
            sys = build(w, deg)
            g = gram(sys, w.support)
            np.testing.assert_allclose(g, np.eye(deg + 1), atol=1e-10, err_msg=w.shape)

    def test_parity_of_even_weight(self) -> None:
        sys = build(HERMITE, 9)
        xs = np.linspace(0.1, 2.5, 11)
        p_pos = sys.evaluate(xs)
        p_neg = sys.evaluate(-xs)
        signs = (-1.0) ** np.arange(10)
        np.testing.assert_allclose(p_neg, signs[:, None] * p_pos, atol=1e-12)

    def test_degree_exactness(self) -> None:
        sys = build(LEGENDRE, 5)
        # leading coefficient positive and degree exact: p_j grows like
        # lead_j x^j, with lead_j = 1 / (b_0 b_1 ... b_j)
        lead = 1.0 / np.cumprod(sys.recur_b)
        big = 50.0
        vals = sys.evaluate(np.array([big]))[:, 0]
        for j in range(6):
            assert vals[j] == pytest.approx(lead[j] * big**j, rel=1e-3)

    def test_moment_divergence(self) -> None:
        w = ClassicalWeight("romanovski", 3.0)
        build(w, 2)  # x^4 moment still integrable
        with pytest.raises(MomentDivergence):
            build(w, 3)
        # beta-prime x^(1/2) (1+x)^(-6) has moments of order < 4.5
        bp = ClassicalWeight("betaprime", 6.0, 0.5)
        build(bp, 2)
        with pytest.raises(MomentDivergence):
            build(bp, 3)
        with pytest.raises(MomentDivergence):
            build(ClassicalWeight("laguerre", b=-1.0), 0)

    def test_overflowing_moment_diverges(self) -> None:
        # (1+x^2)^(-9) lacks the x^24 moment; the closed-form condition says
        # so without integrating anything that could overflow
        w = ClassicalWeight("romanovski", 9.0)
        build(w, 8)
        with pytest.raises(MomentDivergence):
            build(w, 12)

    def test_no_degree_cap(self) -> None:
        # monic Legendre: beta_k = k^2 / (4 k^2 - 1), at any degree
        k = np.arange(1.0, 121.0)
        sys = build(LEGENDRE, 120)
        np.testing.assert_allclose(sys.recur_b[1:], k / np.sqrt(4.0 * k * k - 1.0), rtol=1e-15)
        g = gram(build(LEGENDRE, 60), (-1.0, 1.0), range(0, 61, 10))
        np.testing.assert_allclose(g, np.eye(7), atol=1e-12)

    def test_indices_beyond_cap_rejected(self) -> None:
        sys = build(LEGENDRE, 3)
        with pytest.raises(BadParameter):
            sys.evaluate(np.array([0.0]), [4])

    def test_plain_callable_rejected(self) -> None:
        with pytest.raises(BadParameter):
            build(w_hermite, 3)
        with pytest.raises(BadParameter):
            build(HERMITE, -1)

    def test_mass_outside_float_range(self) -> None:
        # Gamma(201) overflows; the Jacobi mass 2^2003 B(1002, 1002) does not,
        # though each factor leaves the float range: it is B(1/2, 1002)
        with pytest.raises(BadParameter):
            build(ClassicalWeight("laguerre", b=200.0), 1)
        sys = build(ClassicalWeight("jacobi", 1001.0, 1001.0), 1)
        assert sys.recur_b[0] ** 2 == pytest.approx(special.beta(0.5, 1002.0), rel=1e-12)

    def test_removable_limits(self) -> None:
        # Chebyshev (1-x^2)^(-1/2): beta_1 = 1/2 where a + b = -1; the
        # monic alpha_0 of (1-x)^c (1+x)^(-c) is -c where a + b = 0
        cheb = build(ClassicalWeight("jacobi", -0.5, -0.5), 3)
        np.testing.assert_allclose(cheb.recur_b, [math.sqrt(math.pi), math.sqrt(0.5), 0.5, 0.5])
        np.testing.assert_allclose(cheb.recur_a, 0.0, atol=1e-16)
        skew = build(ClassicalWeight("jacobi", 0.3, -0.3), 1)
        assert skew.recur_a[0] == pytest.approx(-0.3, rel=1e-15)

    def test_far_nodes_stay_finite(self) -> None:
        # p_k alone overflows at x = 1e30 and sqrt(w) alone underflows; with
        # the factor in log form the recurrence gives the (vanishing)
        # orthonormal functions, and at x = 10 their closed-form size
        sys = build(ClassicalWeight("romanovski", 60.0), 50)
        x = np.array([1e30, -1e30, 0.5])
        q = sys.evaluate(x, log_factor=0.5 * sys.weight.log(x))
        assert np.all(np.isfinite(q))
        assert np.all(np.abs(q[:, :2]) < 1e-250)
        # psi_800(45) = H_800(45) e^{-45^2 / 2} / sqrt(2^800 800! sqrt(pi)),
        # 3.640088698089361e-31 in 50-digit arithmetic; e^{-45^2 / 2} alone
        # underflows and H_800(45) alone overflows
        herm = build(HERMITE, 800)
        far = herm.evaluate(np.array([45.0]), [800], -0.5 * 45.0**2)[0, 0]
        assert far == pytest.approx(3.640088698089361e-31, rel=1e-11)


class TestClassicalWeight:
    def test_values_and_support(self) -> None:
        x = np.array([0.3, 1.7])
        np.testing.assert_allclose(ClassicalWeight("laguerre", b=1.5)(x), x**1.5 * np.exp(-x))
        np.testing.assert_allclose(
            ClassicalWeight("betaprime", 4.0, -0.5)(x), x**-0.5 * (1.0 + x) ** -4.0
        )
        jac = ClassicalWeight("jacobi", 2.0, 0.5, (0.0, 2.0))
        np.testing.assert_allclose(jac(x), (2.0 - x) ** 2.0 * x**0.5)
        assert ClassicalWeight("romanovski", 2.0)(1.0) == 0.25
        with pytest.raises(OutOfSupport):
            jac(np.array([1.0, 2.0]))
        with pytest.raises(OutOfSupport):
            ClassicalWeight("laguerre")(-0.1)

    def test_bad_records(self) -> None:
        with pytest.raises(BadParameter):
            ClassicalWeight("legendre")
        with pytest.raises(BadParameter):
            ClassicalWeight("jacobi", 1.0, 1.0, (0.0, math.inf))
        with pytest.raises(BadParameter):
            ClassicalWeight("jacobi", 1.0, 1.0, (1.0, 0.0))
        with pytest.raises(BadParameter):
            ClassicalWeight("laguerre").squared_argument(0)
        with pytest.raises(BadParameter):
            ClassicalWeight("jacobi", 1.0, 2.0).squared_argument(0)
        with pytest.raises(BadParameter):
            ClassicalWeight("laguerre", support=(1.0, math.inf))
        with pytest.raises(BadParameter):
            ClassicalWeight("hermite", support=(-1.0, 1.0))
        assert ClassicalWeight("laguerre", support=(0.0, math.inf)).support == (0.0, math.inf)

    def test_squared_argument_families(self) -> None:
        assert HERMITE.squared_argument(1) == ClassicalWeight("laguerre", b=0.5)
        assert ClassicalWeight("jacobi", 2.0, 2.0).squared_argument(0) == ClassicalWeight(
            "jacobi", 2.0, -0.5, (0.0, 1.0)
        )
        assert ClassicalWeight("romanovski", 5.0).squared_argument(0) == ClassicalWeight(
            "betaprime", 5.0, -0.5
        )


class TestBetaHalfMasses:
    """The Romanovski and beta-prime masses and theta take B(1/2, b) from
    one Stirling series from b = 20 on, where scipy's beta is off by up to
    1.5e-12."""

    @pytest.mark.parametrize("b", [20.0, 21.0, 25.0, 200.5, 2001.5])
    def test_against_mpmath(self, b: float) -> None:
        with mpmath.workdps(40):
            half, three_halves = float(mpmath.beta(0.5, b)), float(mpmath.beta(1.5, b))
        mass = lambda *w: _monic_recurrence(ClassicalWeight(*w), 0)[2]
        got = {
            "romanovski": (mass("romanovski", b + 0.5), half),
            "betaprime mu=0": (mass("betaprime", b + 0.5, -0.5), half),
            "betaprime mu=1": (mass("betaprime", b + 1.5, 0.5), three_halves),
            "jacobi theta": (2.0 * jacobi_weight(b - 1.0).theta, half),
            "cauchy theta": (2.0 * cauchy_weight(b - 0.5).theta, half),
        }
        for name, (value, want) in got.items():
            assert abs(value / want - 1.0) <= 1e-15, name


class TestGram:
    def test_full_support_is_identity(self) -> None:
        sys = build(HERMITE, 6)
        g = gram(sys, (-np.inf, np.inf))
        np.testing.assert_allclose(g, np.eye(7), atol=1e-10)

    @pytest.mark.parametrize(
        "w, degree",
        [
            (HERMITE, 400),
            (ClassicalWeight("laguerre"), 200),
            (ClassicalWeight("laguerre", b=-0.9), 60),
            (LEGENDRE, 200),
            (ClassicalWeight("jacobi", -0.8, 0.7, (0.0, 1.0)), 120),
            (ClassicalWeight("romanovski", 81.0), 79),
            (ClassicalWeight("betaprime", 81.0, 0.5), 39),
        ],
        ids=str,
    )
    def test_identity_at_high_degree(self, w: ClassicalWeight, degree: int) -> None:
        # the rule grows with the degree, and the factor sqrt(w) enters the
        # recurrence in log form, so nothing drifts off the identity where
        # a fixed rule or a plain sqrt(w) underflows
        g = gram(build(w, degree), w.support)
        assert np.abs(g - np.eye(degree + 1)).max() < 1e-12

    def test_romanovski_mass_keeps_the_identity(self) -> None:
        # B(1/2, 200.5) from scipy put the whole Gram 9.2e-14 off the identity
        w = ClassicalWeight("romanovski", 201.0)
        g = gram(build(w, 40), w.support)
        assert np.abs(g - np.eye(41)).max() < 5e-15

    def test_empty_interval_is_zero(self) -> None:
        sys = build(LEGENDRE, 3)
        np.testing.assert_allclose(gram(sys, (0.5, 0.5)), np.zeros((4, 4)))
        np.testing.assert_allclose(gram(sys, (0.7, 0.2)), np.zeros((4, 4)))

    def test_interval_past_the_clip_is_zero(self) -> None:
        # the Hermite chart ends 7 past the turning point sqrt(2 * 3 + 1)
        sys = build(HERMITE, 3)
        assert np.array_equal(gram(sys, (20.0, np.inf)), np.zeros((4, 4)))

    def test_subinterval_against_direct_quadrature(self) -> None:
        sys = build(HERMITE, 4)
        g = gram(sys, (-1.0, 1.0), [1, 3])
        for r, j in enumerate([1, 3]):
            for c, k in enumerate([1, 3]):
                want = integrate(
                    lambda x, j=j, k=k: w_hermite(x)
                    * sys.evaluate(x, [j])[0]
                    * sys.evaluate(x, [k])[0],
                    (-1.0, 1.0),
                    1e-12,
                )
                assert g[r, c] == pytest.approx(want, abs=1e-12)
        vals = np.linalg.eigvalsh(g)
        assert np.all(vals > 0.0) and np.all(vals < 1.0)

    def test_eigenvalues_in_unit_interval(self) -> None:
        sys = build(HERMITE, 8)
        for J in [(-0.5, 0.5), (-2.0, 1.0), (0.0, 3.0), (-8.0, 8.0)]:
            vals = np.linalg.eigvalsh(gram(sys, J))
            assert np.all(vals > -1e-10)
            assert np.all(vals < 1.0 + 1e-10)

    def test_strictly_inside_for_proper_subinterval(self) -> None:
        sys = build(LEGENDRE, 6)
        vals = np.linalg.eigvalsh(gram(sys, (-0.4, 0.7), [1, 3, 5]))
        assert np.all(vals > 0.0) and np.all(vals < 1.0)

    def test_monotone_in_interval(self) -> None:
        sys = build(HERMITE, 6)
        inner = gram(sys, (-0.8, 0.5))
        outer = gram(sys, (-1.5, 1.1))
        assert np.all(np.linalg.eigvalsh(outer - inner) >= -1e-10)

    def test_parity_block_structure(self) -> None:
        sys = build(HERMITE, 7)
        g = gram(sys, (-1.3, 1.3))
        for j in range(8):
            for k in range(8):
                if (j + k) % 2 == 1:
                    assert abs(g[j, k]) < 1e-12


class TestSquaredArgumentRule:
    def test_rejects_negative_nodes(self) -> None:
        # the weight of u = x^2 lives on u > 0
        with pytest.raises(OutOfSupport):
            HERMITE.squared_argument(0).log(np.array([-1.0, 0.5]))

    def test_integrates_mapped_weight(self) -> None:
        # int_0^inf u^(-1/2) e^(-u) du = Gamma(1/2) = sqrt(pi), with the
        # Gauss-Jacobi panel at u = 0 taking the power exactly
        w = HERMITE.squared_argument(0)
        nodes, weights = _gram_rule(w, 0.0, np.inf, 0)
        assert np.all(nodes > 0.0)
        total = float(np.dot(weights, w(nodes)))
        assert total == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_even_hermite_correspondence(self) -> None:
        # r_j for Laguerre u^(-1/2) e^(-u) on (0, inf) must match the even
        # orthonormal Hermite polynomials through u = x^2, up to sign
        mapped = build(HERMITE.squared_argument(0), 4)
        assert mapped.weight == ClassicalWeight("laguerre", b=-0.5)
        herm = build(HERMITE, 9)
        xs = np.linspace(0.2, 2.0, 9)
        r = mapped.evaluate(xs**2)
        h = herm.evaluate(xs, [0, 2, 4, 6, 8])
        np.testing.assert_allclose(np.abs(r), np.abs(h), rtol=1e-12)

    def test_odd_hermite_correspondence(self) -> None:
        # with Laguerre u^(+1/2) e^(-u): x r_j(x^2) matches odd Hermite
        mapped = build(HERMITE.squared_argument(1), 3)
        assert mapped.weight == ClassicalWeight("laguerre", b=0.5)
        herm = build(HERMITE, 7)
        xs = np.linspace(0.2, 2.0, 9)
        r = xs * mapped.evaluate(xs**2)
        h = herm.evaluate(xs, [1, 3, 5, 7])
        np.testing.assert_allclose(np.abs(r), np.abs(h), rtol=1e-12)
