from __future__ import annotations

import math

import numpy as np
import pytest

from rmtdec.errors import BadParameter, MomentDivergence
from rmtdec.numerics import integrate, tan_transformed_rule
from rmtdec.orthopoly import build, gram, squared_argument_rule


def w_hermite(x: np.ndarray) -> np.ndarray:
    return np.exp(-(x**2))


def w_flat(x: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


class TestBuildOracles:
    def test_hermite_recurrence(self) -> None:
        # orthonormal Hermite: a_j = 0, b_j = sqrt(j/2), b_0 = pi^(1/4)
        sys = build(w_hermite, (-np.inf, np.inf), 4)
        np.testing.assert_allclose(sys.recur_a, np.zeros(5), atol=1e-12)
        np.testing.assert_allclose(sys.recur_b[0], math.pi**0.25, rtol=1e-12)
        want = np.sqrt(np.arange(1, 5) / 2.0)
        np.testing.assert_allclose(sys.recur_b[1:], want, rtol=1e-11)

    def test_legendre_first_degree(self) -> None:
        sys = build(w_flat, (-1.0, 1.0), 3)
        xs = np.linspace(-0.9, 0.9, 7)
        p1 = sys.evaluate(xs, [1])[0]
        np.testing.assert_allclose(p1, math.sqrt(1.5) * xs, rtol=1e-12, atol=1e-14)

    def test_cauchy_type_brute_gram_schmidt(self) -> None:
        # independent construction from raw moments of (1+x^2)^(-4)
        w = lambda x: (1.0 + x**2) ** -4.0
        m = [integrate(lambda x, k=k: x**k * w(x), (-np.inf, np.inf), 1e-12) for k in range(5)]
        sys = build(w, (-np.inf, np.inf), 2)
        np.testing.assert_allclose(sys.recur_a, np.zeros(3), atol=1e-12)
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
            (w_hermite, (-np.inf, np.inf), 12),
            (lambda x: (1.0 - x**2) ** 2.0, (-1.0, 1.0), 12),
            (lambda x: (1.0 + x**2) ** -5.0, (-np.inf, np.inf), 3),
        ]
        for w, interval, deg in cases:
            sys = build(w, interval, deg)
            g = gram(sys, interval)
            np.testing.assert_allclose(g, np.eye(deg + 1), atol=1e-10)

    def test_parity_of_even_weight(self) -> None:
        sys = build(w_hermite, (-np.inf, np.inf), 9)
        xs = np.linspace(0.1, 2.5, 11)
        p_pos = sys.evaluate(xs)
        p_neg = sys.evaluate(-xs)
        signs = (-1.0) ** np.arange(10)
        np.testing.assert_allclose(p_neg, signs[:, None] * p_pos, atol=1e-12)

    def test_degree_exactness(self) -> None:
        sys = build(w_flat, (-1.0, 1.0), 5)
        # leading coefficient positive and degree exact: p_j grows like norms[j] x^j
        big = 50.0
        vals = sys.evaluate(np.array([big]))[:, 0]
        for j in range(6):
            assert vals[j] == pytest.approx(sys.norms[j] * big**j, rel=1e-3)
        assert np.all(sys.norms > 0)

    def test_moment_divergence(self) -> None:
        w = lambda x: (1.0 + x**2) ** -3.0
        build(w, (-np.inf, np.inf), 2)  # x^4 moment still integrable
        with pytest.raises(MomentDivergence):
            build(w, (-np.inf, np.inf), 3)

    def test_overflowing_moment_diverges(self) -> None:
        # x^24 overflows to inf far out, so the probe sums to inf, not NaN
        w = lambda x: (1.0 + x**2) ** -9.0
        with pytest.raises(MomentDivergence):
            build(w, (-np.inf, np.inf), 12)

    def test_degree_cap(self) -> None:
        with pytest.raises(BadParameter):
            build(w_flat, (-1.0, 1.0), 41)

    def test_indices_beyond_cap_rejected(self) -> None:
        sys = build(w_flat, (-1.0, 1.0), 3)
        with pytest.raises(BadParameter):
            sys.evaluate(np.array([0.0]), [4])


class TestGram:
    def test_full_support_is_identity(self) -> None:
        sys = build(w_hermite, (-np.inf, np.inf), 6)
        g = gram(sys, (-np.inf, np.inf))
        np.testing.assert_allclose(g, np.eye(7), atol=1e-10)

    def test_empty_interval_is_zero(self) -> None:
        sys = build(w_flat, (-1.0, 1.0), 3)
        np.testing.assert_allclose(gram(sys, (0.5, 0.5)), np.zeros((4, 4)))
        np.testing.assert_allclose(gram(sys, (0.7, 0.2)), np.zeros((4, 4)))

    def test_subinterval_against_direct_quadrature(self) -> None:
        sys = build(w_hermite, (-np.inf, np.inf), 4)
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
        sys = build(w_hermite, (-np.inf, np.inf), 8)
        for J in [(-0.5, 0.5), (-2.0, 1.0), (0.0, 3.0), (-8.0, 8.0)]:
            vals = np.linalg.eigvalsh(gram(sys, J))
            assert np.all(vals > -1e-10)
            assert np.all(vals < 1.0 + 1e-10)

    def test_strictly_inside_for_proper_subinterval(self) -> None:
        sys = build(w_flat, (-1.0, 1.0), 6)
        vals = np.linalg.eigvalsh(gram(sys, (-0.4, 0.7), [1, 3, 5]))
        assert np.all(vals > 0.0) and np.all(vals < 1.0)

    def test_monotone_in_interval(self) -> None:
        sys = build(w_hermite, (-np.inf, np.inf), 6)
        inner = gram(sys, (-0.8, 0.5))
        outer = gram(sys, (-1.5, 1.1))
        assert np.all(np.linalg.eigvalsh(outer - inner) >= -1e-10)

    def test_parity_block_structure(self) -> None:
        sys = build(w_hermite, (-np.inf, np.inf), 7)
        g = gram(sys, (-1.3, 1.3))
        for j in range(8):
            for k in range(8):
                if (j + k) % 2 == 1:
                    assert abs(g[j, k]) < 1e-12


class TestSquaredArgumentRule:
    def test_rejects_negative_nodes(self) -> None:
        with pytest.raises(BadParameter):
            squared_argument_rule(tan_transformed_rule(-1.0, 1.0, 4, 8))

    def test_integrates_mapped_weight(self) -> None:
        # int_0^inf u^(-1/2) e^(-u) du = Gamma(1/2) = sqrt(pi)
        base = tan_transformed_rule(0.0, np.inf, 125, 16)
        rule = squared_argument_rule(base)
        w = lambda u: np.where(u > 0, u, 1.0) ** -0.5 * np.exp(-u)
        total = float(np.dot(rule.weights, w(rule.nodes)))
        assert total == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_even_hermite_correspondence(self) -> None:
        # r_j for u^(-1/2) e^(-u) on (0, inf) must match the even orthonormal
        # Hermite polynomials through u = x^2, up to sign
        base = tan_transformed_rule(0.0, np.inf, 125, 16)
        rule = squared_argument_rule(base)
        w_u = lambda u: np.where(u > 0, u, 1.0) ** -0.5 * np.exp(-u)
        mapped = build(w_u, (0.0, np.inf), 4, rule=rule)
        herm = build(w_hermite, (-np.inf, np.inf), 9)
        xs = np.linspace(0.2, 2.0, 9)
        r = mapped.evaluate(xs**2)
        h = herm.evaluate(xs, [0, 2, 4, 6, 8])
        np.testing.assert_allclose(np.abs(r), np.abs(h), rtol=1e-9)

    def test_odd_hermite_correspondence(self) -> None:
        # with weight u^(+1/2) e^(-u): x r_j(x^2) matches odd Hermite
        base = tan_transformed_rule(0.0, np.inf, 125, 16)
        rule = squared_argument_rule(base)
        w_u = lambda u: np.sqrt(np.abs(u)) * np.exp(-u)
        mapped = build(w_u, (0.0, np.inf), 3, rule=rule)
        herm = build(w_hermite, (-np.inf, np.inf), 7)
        xs = np.linspace(0.2, 2.0, 9)
        r = xs * mapped.evaluate(xs**2)
        h = herm.evaluate(xs, [1, 3, 5, 7])
        np.testing.assert_allclose(np.abs(r), np.abs(h), rtol=1e-9)
