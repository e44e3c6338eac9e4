from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import erf

import rmtdec
from rmtdec.densities import (
    _ORDER_LADDER,
    OrderedSpectrum,
    SingularSpectrum,
    log_chiral_batch,
    log_p_beta,
    log_p_beta_batch,
    log_p_chiral,
    log_q_even,
    log_q_odd,
    log_q_odd_batch,
    log_q_xy,
    normalize,
    _placement_masses,
    _settle,
)
from rmtdec.errors import BadParameter, InterlacingViolated, OutOfSupport
from rmtdec.numerics import ordered_tensor
from rmtdec.weights import cauchy_weight, gauss_weight, jacobi_weight

GAUSS = gauss_weight()


class TestSpectrumTypes:
    def test_ordered_accepts_ties(self) -> None:
        spec = OrderedSpectrum([1.0, 1.0, 2.0])
        assert spec.n == 3

    def test_ordered_rejects_descending(self) -> None:
        with pytest.raises(BadParameter):
            OrderedSpectrum([2.0, 1.0])

    def test_singular_rejects_negative(self) -> None:
        with pytest.raises(BadParameter):
            SingularSpectrum([-0.5, 1.0])


class TestLogPBeta:
    def test_single_gauss_at_zero(self) -> None:
        assert log_p_beta(GAUSS, 1, OrderedSpectrum([0.0])) == 0.0

    def test_jacobi_beta2_pair(self) -> None:
        val = log_p_beta(jacobi_weight(0.0), 2, OrderedSpectrum([-0.5, 0.5]))
        assert val == pytest.approx(2.0 * math.log(0.75), rel=1e-13)

    def test_coincident_points(self) -> None:
        assert log_p_beta(GAUSS, 1, OrderedSpectrum([0.3, 0.3])) == -np.inf

    def test_out_of_support(self) -> None:
        with pytest.raises(OutOfSupport):
            log_p_beta(jacobi_weight(1.0), 1, [0.0, 1.5])

    def test_direct_formula(self) -> None:
        vals = np.array([-1.2, 0.1, 0.9])
        want = float(np.sum(-0.5 * vals**2))
        for j in range(3):
            for k in range(j + 1, 3):
                want += math.log(abs(vals[k] - vals[j]))
        assert log_p_beta(GAUSS, 1, OrderedSpectrum(vals)) == pytest.approx(want)

    def test_batch_matches_scalar(self) -> None:
        # against a per-row pair loop, independent of the shared kernel
        rng = np.random.default_rng(0)
        x = np.sort(rng.normal(size=(50, 4)), axis=1)
        batch = log_p_beta_batch(GAUSS, 2, x)
        for i in range(50):
            want = float(np.sum(-(x[i] ** 2)))
            for j in range(4):
                for k in range(j + 1, 4):
                    want += 2.0 * math.log(abs(x[i, k] - x[i, j]))
            assert batch[i] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("beta", [0, 3])
    def test_batch_rejects_beta(self, beta: int) -> None:
        with pytest.raises(BadParameter):
            log_p_beta_batch(GAUSS, beta, np.array([[-0.3, 0.4, 1.1]]))

    def test_batch_out_of_support_is_minus_inf(self) -> None:
        w = jacobi_weight(1.0)
        out = log_p_beta_batch(w, 1, np.array([[0.0, 0.5], [0.0, 1.5]]))
        assert np.isfinite(out[0]) and out[1] == -np.inf


class TestLogPChiral:
    def test_single_value(self) -> None:
        w = lambda x: np.exp(-(x**2))
        assert log_p_chiral(w, [1.3]) == pytest.approx(-1.69)

    def test_flat_weight_pair(self) -> None:
        assert log_p_chiral(lambda x: np.ones_like(x), [1.0, 2.0]) == pytest.approx(
            2.0 * math.log(3.0)
        )

    def test_coincidence(self) -> None:
        assert log_p_chiral(lambda x: np.ones_like(x), [1.0, 1.0]) == -np.inf

    def test_nonpositive_rejected(self) -> None:
        with pytest.raises(OutOfSupport):
            log_p_chiral(lambda x: np.ones_like(x), [0.0, 1.0])

    def test_batch_matches_scalar(self) -> None:
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0.01, 3.0, size=(30, 3)), axis=1)
        logw = lambda v: -(v**2) + np.where(v > 0, 0.0, -np.inf)
        batch = log_chiral_batch(logw, x)
        for i in range(30):
            # per-row pair loop, independent of the shared kernel
            want = float(np.sum(-(x[i] ** 2)))
            for j in range(3):
                for k in range(j + 1, 3):
                    want += 2.0 * math.log(x[i, k] ** 2 - x[i, j] ** 2)
            assert batch[i] == pytest.approx(want, rel=1e-12)


class TestLogQxy:
    def test_single(self) -> None:
        assert log_q_xy(GAUSS, [0.8]) == pytest.approx(-0.32)

    def test_pair_gauss(self) -> None:
        want = -0.5 + math.log(2.0) - 2.0
        assert log_q_xy(GAUSS, SingularSpectrum([1.0, 2.0])) == pytest.approx(want)

    def test_unsorted_rejected(self) -> None:
        with pytest.raises(InterlacingViolated):
            log_q_xy(GAUSS, [2.0, 1.0])

    def test_negative_rejected(self) -> None:
        with pytest.raises(InterlacingViolated):
            log_q_xy(GAUSS, [-1.0, 2.0])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sign_sum_factorization(self, n: int) -> None:
        # brute force over all 2^n sign patterns must match up to one constant
        rng = np.random.default_rng(n)
        offsets = []
        for _ in range(200):
            sv = np.sort(rng.uniform(0.05, 2.5, size=n))
            if np.min(np.diff(sv)) < 1e-3:
                continue
            brute = 0.0
            for signs in itertools.product([1.0, -1.0], repeat=n):
                v = np.asarray(signs) * sv
                delta = 1.0
                for j in range(n):
                    for k in range(j + 1, n):
                        delta *= v[k] - v[j]
                brute += abs(delta)
            direct = log_q_xy(GAUSS, sv) - float(np.sum(GAUSS.log_w1(sv)))
            offsets.append(direct - math.log(brute))
        offsets = np.asarray(offsets)
        assert offsets.size > 150
        assert np.max(np.abs(offsets - offsets[0])) < 1e-9
        # the constant is exactly -n log 2
        assert offsets[0] == pytest.approx(-n * math.log(2.0), rel=1e-12)


class TestLogQEven:
    def test_single_mu0(self) -> None:
        assert log_q_even(GAUSS, [0.7], 0) == pytest.approx(-0.49)

    def test_single_mu1(self) -> None:
        want = 2.0 * math.log(0.7) - 0.49
        assert log_q_even(GAUSS, [0.7], 1) == pytest.approx(want)

    def test_matches_chiral_cross_call(self) -> None:
        rng = np.random.default_rng(5)
        for w in (GAUSS, jacobi_weight(0.5), cauchy_weight(2.0)):
            hi = 0.95 if w.family == "jacobi" else 2.5
            for mu in (0, 1):
                s = np.sort(rng.uniform(0.05, hi, size=2))
                chiral_w = lambda x: x ** (2 * mu) * w.w2(x)
                a = log_q_even(w, s, mu)
                b = log_p_chiral(chiral_w, s)
                assert a == pytest.approx(b, abs=1e-14)


class TestLogQOdd:
    def test_n1_is_w1(self) -> None:
        for t in (0.3, 1.1, 2.4):
            assert log_q_odd(GAUSS, [t], 1) == pytest.approx(
                float(GAUSS.log_w1(np.array([t]))[0])
            )

    def test_n2_closed_form(self) -> None:
        # t * w1(t) * theta1(t), Gauss: theta1 = sqrt(pi/2) erf(t/sqrt(2))
        for t in (0.4, 1.0, 1.9):
            want = math.log(
                t * math.exp(-0.5 * t * t) * math.sqrt(math.pi / 2) * erf(t / math.sqrt(2))
            )
            assert log_q_odd(GAUSS, [t], 2) == pytest.approx(want, rel=1e-11)

    def test_n3_closed_form(self) -> None:
        w = jacobi_weight(0.5)
        t1, t2 = 0.3, 0.8
        want = math.log(
            w.w1(t1) * w.w1(t2) * (t2**2 - t1**2) * (w.companion(t1) - w.companion(t2))
        )
        assert log_q_odd(w, [t1, t2], 3) == pytest.approx(want, rel=1e-12)

    def test_tie_is_minus_inf(self) -> None:
        assert log_q_odd(GAUSS, [0.7, 0.7], 3) == -np.inf

    def test_wrong_length(self) -> None:
        with pytest.raises(BadParameter):
            log_q_odd(GAUSS, [0.5], 3)


class TestMarginalization:
    """Quadrature of the joint q over one block reproduces the marginals.

    Integration rules are fixed tensor Gauss-Legendre grids; for the Jacobi
    weight the upper-end axis is mapped through x = sin(phi) to remove the
    endpoint kink, and for Gauss it is truncated 12 units out.
    """

    @staticmethod
    def _axis(w, lo, hi_is_support_end):
        from rmtdec.numerics import composite_gl_rule

        if not hi_is_support_end:
            lo, hi = lo
            rule = composite_gl_rule(lo, hi, 4, 32)
            return rule.nodes, rule.weights
        if w.family == "jacobi":
            rule = composite_gl_rule(math.asin(lo), math.pi / 2.0, 4, 32)
            return np.sin(rule.nodes), np.cos(rule.nodes) * rule.weights
        rule = composite_gl_rule(lo, lo + 12.0, 6, 32)
        return rule.nodes, rule.weights

    def _ratios_even(self, w, n, points) -> np.ndarray:
        out = []
        for s in points:
            xt, wt = self._axis(w, s, True)
            if n == 2:
                val = float(
                    np.dot(wt, [math.exp(log_q_xy(w, [s, t])) for t in xt])
                )
            else:
                xl, wl = self._axis(w, (0.0, s), False)
                grid = np.array(
                    [
                        [math.exp(log_q_xy(w, [a, s, b])) for b in xt]
                        for a in xl
                    ]
                )
                val = float(wl @ grid @ wt)
            out.append(val / math.exp(log_q_even(w, [s], n % 2)))
        return np.asarray(out)

    def _ratios_odd(self, w, n, configs) -> np.ndarray:
        out = []
        for cfg in configs:
            if n == 2:
                (t,) = cfg
                xs, ws = self._axis(w, (0.0, t), False)
                val = float(np.dot(ws, [math.exp(log_q_xy(w, [s, t])) for s in xs]))
            else:
                t1, t2 = cfg
                xs, ws = self._axis(w, (t1, t2), False)
                val = float(np.dot(ws, [math.exp(log_q_xy(w, [t1, y, t2])) for y in xs]))
            out.append(val / math.exp(log_q_odd(w, list(cfg), n)))
        return np.asarray(out)

    @pytest.mark.parametrize("w", [GAUSS, jacobi_weight(0.5)], ids=["gauss", "jacobi"])
    def test_even_marginal_n2(self, w) -> None:
        r = self._ratios_even(w, 2, [0.2, 0.5, 0.8])
        assert np.max(np.abs(r / r[0] - 1.0)) < 1e-6

    @pytest.mark.parametrize("w", [GAUSS, jacobi_weight(0.5)], ids=["gauss", "jacobi"])
    def test_even_marginal_n3(self, w) -> None:
        r = self._ratios_even(w, 3, [0.3, 0.6, 0.85])
        assert np.max(np.abs(r / r[0] - 1.0)) < 1e-6

    @pytest.mark.parametrize("w", [GAUSS, jacobi_weight(0.5)], ids=["gauss", "jacobi"])
    def test_odd_marginal_n2(self, w) -> None:
        r = self._ratios_odd(w, 2, [(0.3,), (0.7,), (0.9,)])
        assert np.max(np.abs(r / r[0] - 1.0)) < 1e-6

    @pytest.mark.parametrize("w", [GAUSS, jacobi_weight(0.5)], ids=["gauss", "jacobi"])
    def test_odd_marginal_n3(self, w) -> None:
        r = self._ratios_odd(w, 3, [(0.2, 0.6), (0.4, 0.9), (0.1, 0.5)])
        assert np.max(np.abs(r / r[0] - 1.0)) < 1e-6


class TestNormalize:
    def test_gauss_oe_n1(self) -> None:
        f = lambda x: -0.5 * np.sum(x**2, axis=1)
        val = normalize(f, 1, (-np.inf, np.inf))
        assert val == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-7)

    def test_chiral_n1(self) -> None:
        f = lambda x: -np.sum(x**2, axis=1)
        val = normalize(f, 1, (0.0, np.inf))
        assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-7)

    def test_jacobi_oe_n2(self) -> None:
        w = jacobi_weight(0.0)
        f = lambda x: log_p_beta_batch(w, 1, x)
        val = normalize(f, 2, (-1.0, 1.0))
        assert val == pytest.approx(4.0 / 3.0, rel=1e-7)

    def test_gauss_oe_n2(self) -> None:
        # rotate coordinates: (1/2) E|u| terms give exactly 2 sqrt(pi)
        f = lambda x: log_p_beta_batch(GAUSS, 1, x)
        val = normalize(f, 2, (-np.inf, np.inf))
        assert val == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-6)

    @pytest.mark.parametrize("beta", [1, 2])
    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 1.5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jacobi_selberg(self, n: int, a: float, beta: int) -> None:
        # Selberg on (-1, 1): prod (1 - x^2)^s |Vdm|^(2g) over the cube is
        # 2^(n(2s + 1) + g n(n - 1)) S_n(s + 1, s + 1, g); the ordered region
        # is 1/n! of it.  s = a for w1, 2a + 1 for w2; g = beta/2
        w = jacobi_weight(a)
        s, g = (a if beta == 1 else 2.0 * a + 1.0), 0.5 * beta
        log_s = sum(
            2.0 * math.lgamma(s + 1.0 + j * g) + math.lgamma(1.0 + (j + 1) * g)
            - math.lgamma(2.0 * s + 2.0 + (n + j - 1) * g) - math.lgamma(1.0 + g)
            for j in range(n)
        )
        log_2 = (n * (2.0 * s + 1.0) + g * n * (n - 1)) * math.log(2.0)
        want = math.exp(log_s + log_2 - math.lgamma(n + 1.0))
        got = normalize(lambda x: log_p_beta_batch(w, beta, x), n, (-1.0, 1.0), tol=1e-12)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("beta,n,box", [(2, 1, (-10.0, 10.0)), (1, 4, (-4.0, 4.0))])
    def test_peaked_density_on_wide_box(self, beta: int, n: int, box: tuple[float, float]) -> None:
        # the sine chart puts the middle of the box's nodes pi/2 farther apart
        # than x does, so these settle only on the last rung of their ladder;
        # the reference is the rule in x at the order where it settles
        f = lambda x: log_p_beta_batch(GAUSS, beta, x)
        want = ordered_tensor(f, box, [n], {1: 80, 4: 32}[n])
        assert normalize(f, n, box) == pytest.approx(want, rel=1e-9)

    def test_n_out_of_range(self) -> None:
        with pytest.raises(BadParameter):
            normalize(lambda x: np.zeros(x.shape[0]), 5, (0.0, 1.0))


FAMILIES = {
    "gauss": GAUSS,
    "jacobi": jacobi_weight(0.5),
    "jacobi_neg": jacobi_weight(-0.25),
    "cauchy": cauchy_weight(2.0),
}


class TestDensityProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        beta=st.sampled_from([1, 2]),
        raw=st.lists(st.floats(-0.98, 0.98), min_size=2, max_size=5),
        scale=st.sampled_from([1.0, 4.0]),
        tie_at=st.integers(0, 3),
    )
    def test_reflection_and_ties(
        self, family: str, beta: int, raw: list[float], scale: float, tie_at: int
    ) -> None:
        w = FAMILIES[family]
        x = np.sort(np.asarray(raw)) * (1.0 if w.family == "jacobi" else scale)
        assume(np.min(np.diff(x)) > 1e-6)
        rows = np.stack([x, -x[::-1]])
        # the weights are even, so x -> -x reversed leaves the density alone
        a, b = log_p_beta_batch(w, beta, rows)
        assert np.isfinite(a)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)
        tied = x.copy()
        k = tie_at % (x.size - 1)
        tied[k + 1] = tied[k]
        assert log_p_beta_batch(w, beta, tied[None, :])[0] == -np.inf
        t = np.sort(np.abs(x))
        t[k + 1] = t[k]
        assert log_q_odd_batch(w, t[None, :], 2 * t.size - 1)[0] == -np.inf


class TestPlacementMasses:
    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["gauss", "jacobi"]),
        n=st.integers(1, 3),
        cuts=st.lists(st.floats(0.02, 0.98), max_size=3, unique=True),
    )
    def test_sum_matches_normalize(self, family: str, n: int, cuts: list[float]) -> None:
        # the placements of n points over any segment grid tile the ordered
        # region; the Jacobi masses are taken in t with x = sin t, the
        # normalization in t with x = c + h sin t on the box itself
        w = FAMILIES[family]
        lo, hi = (-2.5, 3.0) if family == "gauss" else (-0.9, 0.95)
        edges = [lo, *sorted(lo + c * (hi - lo) for c in cuts), hi]
        assume(np.min(np.diff(edges)) > 1e-3)
        logd = lambda x: log_p_beta_batch(w, 1, x)
        masses = _settle(
            lambda order: _placement_masses(w, logd, edges, n, lambda s: s.count(0), n + 1, order),
            _ORDER_LADDER[n],
            1e-11,
            1e-6,
        )
        want = normalize(logd, n, (lo, hi), tol=1e-12)
        assert masses.sum() == pytest.approx(want, rel=1e-10)


def test_pair_products_and_determinants_live_in_densities() -> None:
    src = Path(rmtdec.__file__).parent
    for token in ("triu_indices", "slogdet"):
        users = sorted(p.name for p in src.glob("*.py") if token in p.read_text())
        assert users == ["densities.py"], token
