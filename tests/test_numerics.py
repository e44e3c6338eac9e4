from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest

from rmtdec import densities, gap, numerics
from rmtdec.errors import (
    BadParameter,
    InvalidInterval,
    NonConvergence,
    NotSymmetric,
)
from rmtdec.numerics import (
    QuadratureRule,
    composite_gl_rule,
    integrate,
    ordered_tensor,
    sym_eigen,
)
from rmtdec.orthopoly import ClassicalWeight, _gram_rule, chart
from rmtdec.weights import gauss_weight, jacobi_weight


class TestIntegrate:
    def test_linear_on_unit_interval(self) -> None:
        assert integrate(lambda x: x, (0.0, 1.0)) == pytest.approx(0.5, abs=1e-13)

    def test_gaussian_full_line(self) -> None:
        val = integrate(lambda x: np.exp(-(x**2)), (-np.inf, np.inf), tol=1e-12)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-11)

    def test_half_gaussian_semiaxis(self) -> None:
        val = integrate(lambda x: np.exp(-(x**2) / 2), (0.0, np.inf), tol=1e-12)
        assert val == pytest.approx(math.sqrt(math.pi / 2), rel=1e-11)

    def test_heavy_tail(self) -> None:
        # arctan derivative: integral over R is pi
        val = integrate(lambda x: 1.0 / (1.0 + x**2), (-np.inf, np.inf), tol=1e-12)
        assert val == pytest.approx(math.pi, rel=1e-12)

    def test_oscillatory(self) -> None:
        val = integrate(np.sin, (0.0, 2 * math.pi), tol=1e-12)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_mildly_singular_endpoint(self) -> None:
        # integrable inverse square root; adaptive splitting must cope
        val = integrate(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300), (0.0, 1.0), tol=1e-8)
        assert val == pytest.approx(2.0, rel=1e-6)

    def test_empty_interval_rejected(self) -> None:
        with pytest.raises(InvalidInterval):
            integrate(lambda x: x, (1.0, 1.0))
        with pytest.raises(InvalidInterval):
            integrate(lambda x: x, (2.0, 1.0))

    def test_bad_tol_rejected(self) -> None:
        with pytest.raises(InvalidInterval):
            integrate(lambda x: x, (0.0, 1.0), tol=0.0)

    def test_nonconvergence_on_pathological(self) -> None:
        # non-integrable 1/x betrays itself as never-settling panel errors
        with pytest.raises(NonConvergence):
            integrate(lambda x: 1.0 / np.abs(x + 1e-320), (0.0, 1.0), tol=1e-10)

    def test_non_finite_integrand_raises_at_once(self) -> None:
        # x^96 overflows to inf near the tan-mapped endpoint, and inf * 0 = nan
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergence):
                integrate(lambda x: x**96 * np.exp(-x * x), (0.0, np.inf), tol=1e-6)
        assert time.perf_counter() - start < 1.0


class TestVectorIntegrate:
    """Integrand shapes: f must map npts abscissae to npts values; any other
    shape, a (k, npts) stack of k integrands included, is rejected."""

    def test_scalar_call_returns_float(self) -> None:
        val = integrate(np.cos, (0.0, 1.0))
        assert type(val) is float

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: 1.0,
            lambda x: np.ones(x.size + 1),
            lambda x: np.ones((2, 3, x.size)),
            lambda x: np.ones((x.size, 2)),
            lambda x: np.ones((2, x.size)),
        ],
    )
    def test_bad_shapes_rejected(self, f) -> None:
        with pytest.raises(BadParameter):
            integrate(f, (0.0, 1.0))
        with pytest.raises(BadParameter):
            integrate(f, (0.0, np.inf))

    def test_interval_errors_before_any_call(self) -> None:
        f = lambda x: np.stack([np.sin(x), np.cos(x)])
        with pytest.raises(InvalidInterval):
            integrate(f, (1.0, 1.0))
        with pytest.raises(InvalidInterval):
            integrate(f, (0.0, 1.0), tol=-1.0)


class TestTensorGridCache:
    def test_repeated_calls_identical(self) -> None:
        f = lambda x: -0.5 * np.sum(x**2, axis=1) + np.log1p(x[:, 0] ** 2)
        f, edges = _tan_chart(f, [-1.0, 0.3, np.inf])
        vals = [ordered_tensor(f, edges, [2, 1], 12) for _ in range(3)]
        assert vals[0] == vals[1] == vals[2]

    def test_cached_grid_is_shared_and_read_only(self) -> None:
        blocks = numerics._tensor_blocks(9, 3)
        again = numerics._tensor_blocks(9, 3)
        assert len(blocks) == 1
        tmat, logwt = blocks[0]
        assert again[0][0] is tmat and again[0][1] is logwt
        assert tmat.shape == (9**3, 3) and logwt.shape == (9**3,)
        for arr in (tmat, logwt):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_large_grids_not_retained(self) -> None:
        # 22^4 = 234,256 nodes: above the cap, so rebuilt block by block on every call
        assert 22**4 > numerics._GRID_CACHE_NODES
        before = numerics._cached_tensor_blocks.cache_info().currsize
        first = list(numerics._tensor_blocks(22, 4))
        second = list(numerics._tensor_blocks(22, 4))
        assert numerics._cached_tensor_blocks.cache_info().currsize == before
        assert first[0][0] is not second[0][0]
        assert len(first) == len(second) == -(-(22**4) // numerics._BLOCK_ROWS)
        for (t1, l1), (t2, l2) in zip(first, second):
            np.testing.assert_array_equal(t1, t2)
            np.testing.assert_array_equal(l1, l2)

    @pytest.mark.parametrize("order,dim", [(9, 3), (129, 2), (12, 4), (18, 4)])
    def test_blocks_tile_the_meshgrid_grid(self, order: int, dim: int) -> None:
        tmat, logwt = _whole_grid(order, dim)
        blocks = list(numerics._tensor_blocks(order, dim))
        assert all(t.shape[0] <= numerics._BLOCK_ROWS for t, _ in blocks)
        np.testing.assert_array_equal(np.concatenate([t for t, _ in blocks]), tmat)
        np.testing.assert_array_equal(np.concatenate([lw for _, lw in blocks]), logwt)


def _whole_grid(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The order**dim Gauss-Legendre grid on (0, 1)^dim in one piece, and the
    log of each node's product weight."""
    g, gw = np.polynomial.legendre.leggauss(order)
    t, tw = 0.5 * (g + 1.0), 0.5 * gw
    tmat = np.stack([gr.ravel() for gr in np.meshgrid(*([t] * dim), indexing="ij")], axis=1)
    wmat = np.stack([gr.ravel() for gr in np.meshgrid(*([tw] * dim), indexing="ij")], axis=1)
    return tmat, np.sum(np.log(wmat), axis=1)


def _whole_grid_tensor(log_density, edges, counts, order: int) -> float:
    """``ordered_tensor`` with the whole grid evaluated in one call."""
    bounds = [float(e) for e in edges]
    tmat, logwt = _whole_grid(order, sum(counts))
    u = np.empty_like(tmat)
    logjac = np.zeros(tmat.shape[0])
    col = 0
    for a, b, c in zip(bounds[:-1], bounds[1:], counts):
        prev = np.full(tmat.shape[0], a)
        for _ in range(c):
            span = b - prev
            u[:, col] = prev + span * tmat[:, col]
            logjac += np.log(span)
            prev = u[:, col]
            col += 1
    logvals = np.asarray(log_density(u), dtype=float) + logjac + logwt
    peak = float(np.max(logvals))
    if not np.isfinite(peak):
        return 0.0
    return float(np.exp(peak) * np.sum(np.exp(logvals - peak)))


def _tan_chart(log_density, edges):
    """``log_density`` and ``edges`` carried into the tan chart x = tan(v) of
    ``orthopoly.chart``, with the log Jacobian log(1 + x^2) added, so that an
    infinite edge becomes the finite +-pi/2."""
    to_v, to_x, jac = chart(ClassicalWeight("romanovski"), 0)[:3]
    log_density_v = lambda v: log_density(to_x(v)) + np.sum(np.log(jac(to_x(v))), axis=1)
    return log_density_v, [to_v(e) for e in edges]


def _beta1_gauss(x: np.ndarray) -> np.ndarray:
    return densities.log_p_beta_batch(gauss_weight(), 1, x)


class TestBlockedTensor:
    # 2^14 = 16,384 rows per block: 127^2, 25^3 and 11^4 fit in one block,
    # 129^2, 26^3 and 12^4 need two; 18^4 is above _GRID_CACHE_NODES
    @pytest.mark.parametrize(
        "edges,counts,order",
        [
            ([-np.inf, np.inf], [1], 80),
            ([-1.5, 0.2, 2.0], [1, 1], 127),
            ([-np.inf, 0.2, np.inf], [1, 1], 128),
            ([-1.5, 0.2, 2.0], [2, 0], 129),
            ([-2.0, -0.3, 0.4, np.inf], [1, 1, 1], 25),
            ([-np.inf, 0.5, np.inf], [2, 1], 26),
            ([-1.0, 1.0], [4], 11),
            ([-np.inf, -0.5, 0.5, np.inf], [1, 2, 1], 12),
            ([-np.inf, 0.0, np.inf], [3, 1], 18),
        ],
    )
    def test_matches_whole_grid_bit_for_bit(self, edges, counts, order: int) -> None:
        f = _beta1_gauss
        if not np.all(np.isfinite(edges)):
            f, edges = _tan_chart(f, edges)
        got = ordered_tensor(f, edges, counts, order)
        assert got == _whole_grid_tensor(f, edges, counts, order)

    @pytest.mark.parametrize(
        "edges,counts,order",
        [([-1.0, 0.3, 1.0], [2, 1], 26), ([-1.0, -0.2, 0.3, 1.0], [1, 2, 1], 12)],
    )
    def test_jacobi_sin_map_bit_for_bit(self, edges, counts, order: int) -> None:
        # the Jacobi chart x = -1 + 2 sin^2(v / 2), dx/dv = sqrt((1 + x)(1 - x))
        w = jacobi_weight(0.5)
        log_density = lambda x: densities.log_p_beta_batch(w, 1, x)
        got = densities._support_tensor(w.w2, log_density, edges, counts, order)
        to_x = lambda v: -1.0 + 2.0 * np.sin(0.5 * v) ** 2
        jac = lambda x: np.sqrt((x + 1.0) * (1.0 - x))
        log_density_v = lambda v: log_density(to_x(v)) + np.sum(np.log(jac(to_x(v))), axis=1)
        v_edges = [2.0 * math.asin(math.sqrt((e + 1.0) / 2.0)) for e in edges]
        assert got == _whole_grid_tensor(log_density_v, v_edges, counts, order)

    def test_memory_is_one_array_per_node(self) -> None:
        # 234,256 rows: the whole-grid rule traced 37 MB here, a dozen
        # temporaries per row; the blocked rule 5.4 MB, 8 bytes a row plus a block
        f = lambda x: -0.5 * np.sum(x**2, axis=1)
        ordered_tensor(f, [-1.0, 2.0], [4], 8)
        tracemalloc.start()
        try:
            ordered_tensor(f, [-1.0, 2.0], [4], 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def _flat(x: np.ndarray) -> np.ndarray:
    return np.zeros(x.shape[0])


class TestOrderedTensor:
    def test_one_segment_flat_is_simplex_volume(self) -> None:
        # ordered n-tuples in (a, b) fill (b - a)^n / n! of the cube
        val = ordered_tensor(_flat, [0.5, 2.0], [3], 4)
        assert val == pytest.approx(1.5**3 / 6.0, rel=1e-13)

    def test_one_point_per_segment_is_box_volume(self) -> None:
        val = ordered_tensor(_flat, [-1.0, 0.25, 0.5, 3.0], [1, 1, 1], 3)
        assert val == pytest.approx(1.25 * 0.25 * 2.5, rel=1e-13)

    def test_empty_segment_contributes_nothing(self) -> None:
        val = ordered_tensor(_flat, [0.0, 1.0, 2.0], [0, 2], 4)
        assert val == pytest.approx(0.5, rel=1e-13)

    def test_gauss_full_line(self) -> None:
        f, edges = _tan_chart(lambda x: -0.5 * np.sum(x**2, axis=1), [-np.inf, np.inf])
        val = ordered_tensor(f, edges, [1], 80)
        assert val == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_nan_at_one_node_raises(self) -> None:
        # one bad node must not read as zero mass
        def f(x: np.ndarray) -> np.ndarray:
            out = np.zeros(x.shape[0])
            out[x.shape[0] // 2] = np.nan
            return out

        with pytest.raises(NonConvergence):
            ordered_tensor(f, [0.0, 1.0], [2], 6)

    def test_minus_inf_everywhere_is_zero(self) -> None:
        f = lambda x: np.full(x.shape[0], -np.inf)
        assert ordered_tensor(f, [0.0, 1.0, 2.0], [1, 1], 6) == 0.0

    def test_plus_inf_at_a_node_raises(self) -> None:
        # a divergent integrand must not read as zero mass either, whether
        # the other nodes are finite or -inf
        with pytest.raises(NonConvergence):
            ordered_tensor(lambda x: np.where(x[:, 0] < 0.5, np.inf, 0.0), [0.0, 1.0], [1], 6)
        with pytest.raises(NonConvergence):
            ordered_tensor(lambda x: np.where(x[:, 0] < 0.5, np.inf, -np.inf), [0.0, 1.0], [1], 6)

    @pytest.mark.parametrize(
        "edges,counts",
        [
            ([1.0, 0.0], [1]),
            ([0.0, 1.0, 1.0], [1, 1]),
            ([0.0, np.nan], [1]),
            ([0.0, 1.0], [1, 1]),
            ([0.0, 1.0, 2.0], [2]),
            ([0.0, 1.0], [0]),
            ([0.0, np.inf], [1]),
        ],
    )
    def test_bad_edges_or_counts(self, edges: list, counts: list) -> None:
        with pytest.raises(InvalidInterval):
            ordered_tensor(_flat, edges, counts, 4)


class TestQuadratureRule:
    def test_weight_sum_matches_length(self) -> None:
        for lo, hi, panels, order in [(0.0, 1.0, 4, 8), (-3.0, 7.5, 11, 5)]:
            rule = composite_gl_rule(lo, hi, panels, order)
            assert np.all(rule.weights > 0)
            assert rule.weights.sum() == pytest.approx(hi - lo, rel=1e-13)

    def test_gl_exactness_degree(self) -> None:
        # order-n GL integrates degree 2n-1 exactly
        rule = composite_gl_rule(-1.0, 2.0, 1, 6)
        exact = (2.0**12 - 1.0) / 12.0
        assert np.dot(rule.weights, rule.nodes**11) == pytest.approx(exact, rel=1e-13)

    def test_tan_transform_gaussian(self) -> None:
        # the x = tan(v) chart of the Romanovski Gram rule on the whole line
        nodes, weights = _gram_rule(ClassicalWeight("romanovski", 1.0), -np.inf, np.inf, 0)
        val = np.dot(weights, np.exp(-(nodes**2) / 2))
        assert val == pytest.approx(math.sqrt(2 * math.pi), rel=1e-11)

    def test_rejects_bad_weights(self) -> None:
        with pytest.raises(InvalidInterval):
            QuadratureRule(np.array([0.5]), np.array([-1.0]), (0.0, 1.0))

    def test_rejects_empty_interval(self) -> None:
        with pytest.raises(InvalidInterval):
            composite_gl_rule(1.0, 1.0, 1, 4)


class TestSymEigen:
    def test_identity(self) -> None:
        vals, vecs = sym_eigen(np.eye(3))
        np.testing.assert_allclose(vals, np.ones(3), atol=1e-14)
        np.testing.assert_allclose(vecs @ vecs.T, np.eye(3), atol=1e-12)

    def test_diagonal_sorted(self) -> None:
        vals, _ = sym_eigen(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(vals, [-1.0, 2.0, 3.0], atol=1e-14)

    def test_exchange_matrix(self) -> None:
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        vals, vecs = sym_eigen(m)
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)
        resid = np.linalg.norm(m @ vecs - vecs @ np.diag(vals))
        assert resid <= 1e-10 * np.linalg.norm(m)

    def test_orthogonal_similarity_invariance(self) -> None:
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        m = a + a.T
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        v1, _ = sym_eigen(m)
        v2, _ = sym_eigen(q @ m @ q.T)
        np.testing.assert_allclose(v1, v2, atol=1e-10)

    def test_rejects_asymmetric(self) -> None:
        with pytest.raises(NotSymmetric):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotSymmetric):
            sym_eigen(np.zeros((2, 3)))

    def test_rejects_non_finite(self) -> None:
        # a NaN passes the asymmetry test, since no comparison with NaN holds
        with pytest.raises(NonConvergence):
            sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(NonConvergence):
            sym_eigen(np.diag([1.0, np.inf]))

    def test_residual_bound_random(self) -> None:
        rng = np.random.default_rng(11)
        a = rng.standard_normal((12, 12))
        m = 0.5 * (a + a.T)
        vals, vecs = sym_eigen(m)
        resid = np.linalg.norm(m @ vecs - vecs @ np.diag(vals))
        assert resid <= 1e-10 * max(np.linalg.norm(m), 1.0)


class TestExtractCoeffs:
    """The roots-of-unity FFT behind the odd-n beta = 1 gap engine."""

    E = gap._bernoulli_coeffs(np.random.default_rng(17).uniform(0.0, 1.0, 40))
    D0 = 0.37

    def _detfn(self, top: float = 0.0, sign: float = 1.0):
        coeffs = np.append(self.E, top)
        return lambda xi: sign * self.D0 * np.polynomial.polynomial.polyval(1.0 - xi, coeffs)

    def test_recovers_hand_built_polynomial(self) -> None:
        detfn = self._detfn()
        c, det0 = gap._extract_coeffs(detfn, 40)
        assert c.shape == (41,)
        np.testing.assert_allclose(c, self.E, rtol=0, atol=1e-14)
        assert det0 == detfn(np.zeros(1))[0].real
        assert det0 == pytest.approx(self.D0, rel=1e-15)

    def test_degree_overflow_raises(self) -> None:
        with pytest.raises(NonConvergence):
            gap._extract_coeffs(self._detfn(top=1e-6), 40)

    def test_nonpositive_det0_raises(self) -> None:
        with pytest.raises(NonConvergence):
            gap._extract_coeffs(self._detfn(sign=-1.0), 40)
