from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rmtdec import gap, samplers
from rmtdec.densities import log_p_beta_batch, normalize
from rmtdec.errors import BadParameter, PoleAtPi, StuckChain
from rmtdec.samplers import (
    EnsembleSpec,
    McmcParams,
    SampleBatch,
    has_exact_route,
    sample_ensemble,
    sample_beta_jacobi,
    sample_beta_laguerre,
    sample_gaussian_matrix,
    sample_haar_circular,
    sample_mcmc,
    stereographic,
    stereographic_inverse,
)
from rmtdec.samplers import (
    _block_rng,
    _block_sizes,
    _cayley_tan_half,
    _circular_tan_half,
    _eigvalsh,
    _haar_unitary,
    _squared_singular_values,
)
from rmtdec.weights import cauchy_weight, gauss_weight, jacobi_weight

GAUSS = gauss_weight()


class TestGaussianMatrix:
    def test_n1_standard_normal(self) -> None:
        batch = sample_gaussian_matrix(1, 1, 40_000, seed=1)
        assert abs(batch.spectra.mean()) < 4.0 / math.sqrt(40_000)
        p = scipy.stats.kstest(batch.spectra.ravel(), "norm").pvalue
        assert p > 0.001

    def test_n2_trace_centered(self) -> None:
        count = 40_000
        batch = sample_gaussian_matrix(1, 2, count, seed=2)
        trace = batch.spectra.sum(axis=1)
        assert abs(trace.mean()) < 4.0 * math.sqrt(2.0 / count)

    def test_n3_hermitian_second_moment(self) -> None:
        # quadrature oracle for E[sum x^2] under the beta=2 Gaussian density
        logd = lambda x: log_p_beta_batch(GAUSS, 2, x)
        logd_s2 = lambda x: logd(x) + np.log(np.sum(x * x, axis=1))
        # truncation at |x| = 6 discards ~2e-16 relative mass
        z = normalize(logd, 3, (-6.0, 6.0))
        target = normalize(logd_s2, 3, (-6.0, 6.0)) / z
        # independent entrywise derivation: 3 diag * 1/2 + 6 offdiag * 1/2
        assert target == pytest.approx(4.5, abs=1e-6)
        count = 40_000
        batch = sample_gaussian_matrix(2, 3, count, seed=3)
        s2 = np.sum(batch.spectra**2, axis=1)
        stderr = s2.std() / math.sqrt(count)
        assert abs(s2.mean() - target) < 4.0 * stderr

    def test_rows_sorted_and_deterministic(self) -> None:
        a = sample_gaussian_matrix(1, 4, 500, seed=9)
        b = sample_gaussian_matrix(1, 4, 500, seed=9)
        assert np.all(np.diff(a.spectra, axis=1) >= 0)
        np.testing.assert_array_equal(a.spectra, b.spectra)

    def test_workers_do_not_change_output(self) -> None:
        a = sample_gaussian_matrix(2, 3, 1000, seed=11, workers=1)
        b = sample_gaussian_matrix(2, 3, 1000, seed=11, workers=3)
        np.testing.assert_array_equal(a.spectra, b.spectra)

    def test_bad_beta(self) -> None:
        with pytest.raises(BadParameter):
            sample_gaussian_matrix(3, 2, 10, seed=0)


def _qr_orthogonal(rng: np.random.Generator, m: int, size: int, det_sign: int) -> np.ndarray:
    """Reference sampler: Haar orthogonal matrices of one determinant sign,
    from the sign-fixed QR of Gaussian matrices with one row flipped into
    the sector."""
    q, r = np.linalg.qr(rng.standard_normal((m, size, size)))
    d = np.sign(np.einsum("bii->bi", r))
    d[d == 0.0] = 1.0
    q = q * d[:, None, :]
    q[np.linalg.det(q) * det_sign < 0, 0, :] *= -1.0
    return q


def _eigvals_angles(q: np.ndarray, width: int) -> np.ndarray:
    """Ascending angles in (0, pi) of each matrix's conjugate eigenvalue
    pairs; the forced eigenvalues at +-1 are dropped."""
    ang = np.angle(np.linalg.eigvals(q))
    keep = (ang > 1e-9) & (ang < math.pi - 1e-9)
    assert np.all(np.count_nonzero(keep, axis=1) == width)
    return np.sort(np.where(keep, ang, np.inf), axis=1)[:, :width]


def _sector_sign(kind: str, n: int) -> int:
    """Determinant of the order n + 1 sector: Oplus has no forced +1."""
    unforced = 1 if (n + 1) % 2 == 0 else -1
    return unforced if kind == "Oplus" else -unforced


class TestHaarCircular:
    def test_cue_n1_uniform(self) -> None:
        batch = sample_haar_circular("CUE", 1, 100_000, seed=5)
        p = scipy.stats.kstest(
            batch.spectra.ravel(), "uniform", args=(-math.pi, 2 * math.pi)
        ).pvalue
        assert p > 0.001

    def test_oplus2_uniform_weyl(self) -> None:
        # Haar on the rotation group of the plane is a uniform angle
        batch = sample_haar_circular("Oplus", 1, 30_000, seed=6)
        assert batch.width == 1
        p = scipy.stats.kstest(
            batch.spectra.ravel(), "uniform", args=(0.0, math.pi)
        ).pvalue
        assert p > 0.001

    def test_ominus2_empty(self) -> None:
        batch = sample_haar_circular("Ominus", 1, 50, seed=7)
        assert batch.width == 0
        assert batch.count == 50

    @pytest.mark.parametrize(
        "kind,n,width",
        [
            ("Oplus", 2, 1),
            ("Oplus", 3, 2),
            ("Oplus", 4, 2),
            ("Oplus", 5, 3),
            ("Ominus", 2, 1),
            ("Ominus", 3, 1),
            ("Ominus", 4, 2),
            ("Ominus", 5, 2),
        ],
    )
    def test_orthogonal_widths_and_bounds(self, kind: str, n: int, width: int) -> None:
        batch = sample_haar_circular(kind, n, 400, seed=8)
        assert batch.spectra.shape == (400, width)
        if width:
            assert batch.spectra.min() > 1e-9
            assert batch.spectra.max() < math.pi - 1e-9

    def test_schur_angles_match_complex_eigenvalues(self) -> None:
        # the reference itself: its angles against the per-matrix real Schur
        # form, whose 2x2 rotation blocks carry cos(angle) on their diagonal
        def schur_angles(q: np.ndarray) -> np.ndarray:
            t = scipy.linalg.schur(q, output="real")[0]
            angles, i = [], 0
            while i < t.shape[0]:
                if i + 1 < t.shape[0] and t[i + 1, i] != 0.0:
                    theta = math.acos(min(1.0, max(-1.0, 0.5 * (t[i, i] + t[i + 1, i + 1]))))
                    if 1e-9 < theta < math.pi - 1e-9:
                        angles.append(theta)
                    i += 2
                else:
                    i += 1
            return np.sort(angles)

        rng = np.random.default_rng(21)
        for kind in ("Oplus", "Ominus"):
            sign = _sector_sign(kind, 4)
            qs = _qr_orthogonal(rng, 100, 5, sign)
            np.testing.assert_allclose(np.linalg.det(qs), sign, atol=1e-10)
            angles = _eigvals_angles(qs, 2)
            for q, row in zip(qs, angles):
                np.testing.assert_allclose(row, schur_angles(q), atol=1e-10)

    @pytest.mark.parametrize("kind", ["Oplus", "Ominus"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_beta_jacobi_angles_match_haar_orthogonal(self, kind: str, n: int) -> None:
        # per-column two-sample KS against the Haar orthogonal reference
        count = 40_000
        width = n // 2 if kind == "Ominus" else (n + 1) // 2
        batch = sample_haar_circular(kind, n, count, seed=100 + n)
        assert batch.spectra.shape == (count, width)
        rng = np.random.default_rng(200 + n)
        ref = _eigvals_angles(_qr_orthogonal(rng, count, n + 1, _sector_sign(kind, n)), width)
        for k in range(width):
            p = scipy.stats.ks_2samp(batch.spectra[:, k], ref[:, k]).pvalue
            assert p > 0.001, f"{kind} n={n} column {k}: p = {p}"

    @pytest.mark.parametrize("kind", ["COE", "CUE"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cayley_angles_match_eigvals(self, kind: str, n: int) -> None:
        rng = np.random.default_rng(300 + n)
        u = _haar_unitary(rng, 2000, n)
        if kind == "COE":
            u = np.swapaxes(u, 1, 2) @ u
        got = stereographic(_cayley_tan_half(u, real=kind == "COE"))
        want = np.sort(np.angle(np.linalg.eigvals(u)), axis=1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("real", [False, True])
    def test_cayley_fallback_near_pi(self, real: bool) -> None:
        # hand-built spectra with an angle at pi - 1e-9, whose tan(theta/2)
        # ~ 2e9 sends the row back to eigvals; V is orthogonal for the
        # symmetric (COE-like) stack, unitary otherwise
        rng = np.random.default_rng(31)
        theta = np.array([[-2.0, 0.5, math.pi - 1e-9], [-1.0, 0.1, 3.0], [-(math.pi - 1e-9), 0.0, 1.0]])
        v = _qr_orthogonal(rng, 3, 3, 1) if real else _haar_unitary(rng, 3, 3)
        u = np.einsum("bij,bj,bkj->bik", v, np.exp(1j * theta), v.conj())
        lam = _cayley_tan_half(u, real)
        assert np.all(np.any(np.abs(lam) > 100.0, axis=1) == [True, False, True])
        got = stereographic(lam)
        np.testing.assert_allclose(got, np.sort(np.angle(np.linalg.eigvals(u)), axis=1), atol=1e-12)
        np.testing.assert_allclose(got, theta, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("diag", [(-1.0, 1.0), (-1.0, 1.0, 1.0)])
    def test_cayley_singular(self, real: bool, diag: tuple[float, ...]) -> None:
        # I + U is exactly singular: the row goes through eigvals, at order 2
        # because its closed form is not finite, at order 3 because solve fails
        u = np.stack([np.diag(np.array(diag, dtype=complex)), np.eye(len(diag))])
        got = stereographic(_cayley_tan_half(u, real))
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got[0], np.sort(np.angle(diag)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[1], 0.0, rtol=0, atol=1e-12)

    def test_order3_sector_densities(self) -> None:
        # size 3: one nontrivial angle; no-forced-+1 sector ~ 2cos^2(t/2),
        # forced-+1 sector ~ 2sin^2(t/2) (classical group angle measures)
        plus = sample_haar_circular("Oplus", 2, 20_000, seed=19)
        minus = sample_haar_circular("Ominus", 2, 20_000, seed=20)
        cdf_cos = lambda t: (t + np.sin(t)) / math.pi
        cdf_sin = lambda t: (t - np.sin(t)) / math.pi
        assert scipy.stats.kstest(plus.spectra.ravel(), cdf_cos).pvalue > 0.001
        assert scipy.stats.kstest(minus.spectra.ravel(), cdf_sin).pvalue > 0.001

    @pytest.mark.parametrize("kind", ["COE", "CUE"])
    def test_rotation_invariance(self, kind: str) -> None:
        batch = sample_haar_circular(kind, 4, 20_000, seed=13)
        flat = batch.spectra.ravel()
        rotated = np.mod(flat + 1.0 + math.pi, 2 * math.pi) - math.pi
        p = scipy.stats.ks_2samp(flat, rotated).pvalue
        assert p > 0.001

    def test_deterministic(self) -> None:
        a = sample_haar_circular("COE", 3, 300, seed=17, workers=1)
        b = sample_haar_circular("COE", 3, 300, seed=17, workers=4)
        np.testing.assert_array_equal(a.spectra, b.spectra)

    def test_bad_kind(self) -> None:
        with pytest.raises(BadParameter):
            sample_haar_circular("OE", 2, 10, seed=0)


# -- closed forms at order <= 2 against the LAPACK route -------------------------

EPS = np.finfo(float).eps


def _lapack_haar(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Haar unitaries from qr, each column turned by the phase of R's diagonal."""
    z = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    q, r = np.linalg.qr(z)
    d = np.einsum("bii->bi", r)
    return q * (d / np.abs(d))[:, None, :]


def _lapack_tan_half(rng: np.random.Generator, m: int, kind: str, n: int) -> np.ndarray:
    """COE/CUE tan(theta/2) by qr, matmul, solve and eigvalsh, with the
    sampler's eigvals fallback for |tan(theta/2)| > 100."""
    u = _lapack_haar(rng, m, n)
    if kind == "COE":
        u = np.swapaxes(u, 1, 2) @ u
    eye = np.eye(n)
    h = 1j * np.linalg.solve(eye + u, eye - u)
    lam = np.linalg.eigvalsh(h.real if kind == "COE" else h)
    far = np.any(np.abs(lam) > 100.0, axis=1)
    lam[far] = np.sort(np.tan(0.5 * np.angle(np.linalg.eigvals(u[far]))), axis=1)
    return lam


def _lapack_angles(rng: np.random.Generator, m: int, kind: str, n: int) -> np.ndarray:
    return stereographic(_lapack_tan_half(rng, m, kind, n))


def _lapack_gaussian(rng: np.random.Generator, m: int, beta: int, n: int) -> np.ndarray:
    if beta == 1:
        a = rng.standard_normal((m, n, n))
        return np.linalg.eigvalsh((a + np.swapaxes(a, 1, 2)) / 2.0)
    a = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return np.linalg.eigvalsh((a + np.conj(np.swapaxes(a, 1, 2))) / (2.0 * math.sqrt(2.0)))


def _lapack_chue_gauss(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """chUE Gauss (mu = 0) by svd of the dense lower beta-Laguerre bidiagonal."""
    k = np.arange(n)
    diag = np.sqrt(rng.chisquare(1.0 + 2.0 * (n - 1 - k), (m, n)))
    off = np.sqrt(rng.chisquare(2.0 * (n - k[1:]), (m, n - 1)))
    b = np.zeros((m, n, n))
    b[:, k, k] = diag
    b[:, k[1:], k[:-1]] = off
    return np.sqrt(0.5 * np.sort(np.linalg.svd(b, compute_uv=False) ** 2, axis=1))


def _by_blocks(fn, count: int, seed: int) -> np.ndarray:
    """fn(rng, size) over the samplers' block partition and generators."""
    return np.vstack([fn(_block_rng(seed, i), m) for i, m in enumerate(_block_sizes(count))])


class TestSmallOrderKernels:
    """The order 1 and 2 closed forms against numpy.linalg on 10^5 matrices."""

    COUNT = 100_000

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_eigvalsh(self, n: int, hermitian: bool) -> None:
        rng = np.random.default_rng(51 + n)
        scale = np.exp(rng.uniform(-3.0, 3.0, (self.COUNT, 1, 1)))
        a = rng.standard_normal((self.COUNT, n, n)) * scale
        if hermitian:
            a = a + 1j * rng.standard_normal(a.shape)
        h = a + np.conj(np.swapaxes(a, 1, 2))
        want = np.linalg.eigvalsh(h)
        norm = np.max(np.abs(want), axis=1, keepdims=True)
        got = _eigvalsh(h)
        assert np.all(got[:, 1:] >= got[:, :-1])
        assert np.max(np.abs(got - want) / norm) <= 8.0 * EPS

    @pytest.mark.parametrize("n", [1, 2])
    def test_haar_unitary(self, n: int) -> None:
        # the exact complement keeps U unitary to rounding (1.1e-15 here,
        # LAPACK's Q 1.4e-15); one Gram-Schmidt pass for the second column
        # gives 6.3e-13 on the same draws and would fail
        u = _haar_unitary(np.random.default_rng(61 + n), self.COUNT, n)
        gram = np.conj(np.swapaxes(u, 1, 2)) @ u
        assert np.max(np.abs(gram - np.eye(n))) <= 4e-15
        want = _lapack_haar(np.random.default_rng(61 + n), self.COUNT, n)
        assert np.max(np.abs(u - want)) <= 1e-12

    @pytest.mark.parametrize("kind", ["COE", "CUE"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_circular_angles(self, kind: str, n: int) -> None:
        got = stereographic(_circular_tan_half(np.random.default_rng(71 + n), self.COUNT, kind, n))
        want = _lapack_angles(np.random.default_rng(71 + n), self.COUNT, kind, n)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("upper", [False, True])
    def test_squared_singular_values(self, n: int, upper: bool) -> None:
        # beta-Laguerre (chUE Gauss, mu = 0) and beta-Jacobi-like diagonals
        rng = np.random.default_rng(81 + n)
        if upper:
            diag = np.sqrt(rng.beta(1.5, 1.0, (self.COUNT, n)))
            off = -np.sqrt(rng.beta(1.0, 2.5, (self.COUNT, n - 1)))
        else:
            diag = np.sqrt(rng.chisquare(np.arange(2 * n - 1, 0, -2), (self.COUNT, n)))
            off = np.sqrt(rng.chisquare(2.0, (self.COUNT, n - 1)))
        b = np.zeros((self.COUNT, n, n))
        k = np.arange(n)
        b[:, k, k] = diag
        if upper:
            b[:, k[:-1], k[1:]] = off
        else:
            b[:, k[1:], k[:-1]] = off
        want = np.sort(np.linalg.svd(b, compute_uv=False) ** 2, axis=1)
        got = _squared_singular_values(diag, off, upper)
        assert np.all(got[:, 1:] >= got[:, :-1])
        assert np.max(np.abs(got - want) / want) <= 1e-13
        # the product of the two is det^2, to rounding
        det2 = np.prod(diag, axis=1) ** 2
        assert np.max(np.abs(np.prod(got, axis=1) / det2 - 1.0)) <= 4.0 * EPS

    def test_squared_singular_values_at_zero(self) -> None:
        got = _squared_singular_values(np.zeros((2, 2)), np.array([[0.0], [1.0]]), True)
        np.testing.assert_array_equal(got, [[0.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "spec,reference",
        [
            (EnsembleSpec("COE", 3), lambda rng, m: _lapack_angles(rng, m, "COE", 3)),
            (EnsembleSpec("CUE", 3), lambda rng, m: _lapack_angles(rng, m, "CUE", 3)),
            (EnsembleSpec("OE", 3, GAUSS), lambda rng, m: _lapack_gaussian(rng, m, 1, 3)),
            (EnsembleSpec("UE", 3, GAUSS), lambda rng, m: _lapack_gaussian(rng, m, 2, 3)),
            (EnsembleSpec("chUE", 3, GAUSS), lambda rng, m: _lapack_chue_gauss(rng, m, 3)),
        ],
        ids=["COE", "CUE", "OE", "UE", "chUE"],
    )
    def test_order_three_keeps_lapack(self, spec: EnsembleSpec, reference) -> None:
        # above order 2 every route is the LAPACK one, bit for bit
        got = sample_ensemble(spec, 2001, seed=93).spectra
        np.testing.assert_array_equal(got, _by_blocks(reference, 2001, 93))


class TestExactLawsAtOrderTwo:
    """KS of the n = 2 spacing against its closed-form CDF, 10^5 draws."""

    @staticmethod
    def _circular_distance(theta: np.ndarray) -> np.ndarray:
        phi = theta[:, 1] - theta[:, 0]
        return np.minimum(phi, 2.0 * math.pi - phi)

    def test_goe(self) -> None:
        d = np.diff(sample_gaussian_matrix(1, 2, 100_000, seed=101).spectra, axis=1).ravel()
        assert scipy.stats.kstest(d, lambda s: -np.expm1(-s * s / 4.0)).pvalue > 0.001

    def test_gue(self) -> None:
        d = np.diff(sample_gaussian_matrix(2, 2, 100_000, seed=102).spectra, axis=1).ravel()

        def cdf(s: np.ndarray) -> np.ndarray:  # chi with 3 degrees of freedom
            tail = math.sqrt(2.0 / math.pi) * s * np.exp(-s * s / 2.0)
            return scipy.special.erf(s / math.sqrt(2.0)) - tail

        assert scipy.stats.kstest(d, cdf).pvalue > 0.001

    def test_coe(self) -> None:
        delta = self._circular_distance(sample_haar_circular("COE", 2, 100_000, seed=103).spectra)
        assert scipy.stats.kstest(delta, lambda t: 1.0 - np.cos(t / 2.0)).pvalue > 0.001

    def test_cue(self) -> None:
        delta = self._circular_distance(sample_haar_circular("CUE", 2, 100_000, seed=104).spectra)
        assert scipy.stats.kstest(delta, lambda t: (t - np.sin(t)) / math.pi).pvalue > 0.001


class TestStereographic:
    def test_anchors(self) -> None:
        assert stereographic(0.0) == pytest.approx(0.0, abs=1e-15)
        assert stereographic(1.0) == pytest.approx(math.pi / 2)
        assert stereographic(-1.0) == pytest.approx(-math.pi / 2)

    def test_round_trip(self) -> None:
        x = np.linspace(-50.0, 50.0, 501)
        back = stereographic_inverse(stereographic(x))
        np.testing.assert_allclose(back, x, rtol=1e-14, atol=1e-14)
        theta = np.linspace(-3.1, 3.1, 101)
        np.testing.assert_allclose(
            stereographic(stereographic_inverse(theta)), theta, atol=1e-14
        )

    def test_pole(self) -> None:
        with pytest.raises(PoleAtPi):
            stereographic_inverse(math.pi)
        with pytest.raises(PoleAtPi):
            stereographic_inverse(np.array([0.0, -math.pi]))

    def test_scalar_type(self) -> None:
        assert isinstance(stereographic(0.3), float)
        assert isinstance(stereographic_inverse(0.3), float)


class TestMcmc:
    def test_n1_gauss_vs_normal(self) -> None:
        logd = lambda x: log_p_beta_batch(GAUSS, 1, x)
        batch = sample_mcmc(logd, 1, 100_000, seed=23)
        p = scipy.stats.kstest(batch.spectra.ravel(), "norm").pvalue
        assert p > 0.001
        assert 0.15 < batch.diagnostics["acceptance"] < 0.6
        assert batch.diagnostics["ess"] > 0.5 * batch.count

    def test_n2_gauss_box_probability(self) -> None:
        logd = lambda x: log_p_beta_batch(GAUSS, 1, x)
        z_full = normalize(logd, 2, (-np.inf, np.inf))
        z_box = normalize(logd, 2, (-1.0, 1.0))
        target = z_box / z_full
        count = 30_000
        batch = sample_mcmc(logd, 2, count, seed=29)
        inside = np.all(np.abs(batch.spectra) < 1.0, axis=1)
        p_hat = inside.mean()
        stderr = math.sqrt(target * (1 - target) / count)
        assert abs(p_hat - target) < 3.0 * stderr

    def test_n2_jacobi_ue_box_probability(self) -> None:
        w = jacobi_weight(0.0)
        logd = lambda x: log_p_beta_batch(w, 2, x)
        z_full = normalize(logd, 2, (-1.0, 1.0))
        z_box = normalize(logd, 2, (-0.5, 0.5))
        target = z_box / z_full
        count = 30_000
        init = lambda rng, c, n: rng.uniform(-0.8, 0.8, (c, n))
        batch = sample_mcmc(logd, 2, count, seed=31, init=init)
        assert np.all(np.abs(batch.spectra) < 1.0)
        p_hat = np.all(np.abs(batch.spectra) < 0.5, axis=1).mean()
        stderr = math.sqrt(target * (1 - target) / count)
        assert abs(p_hat - target) < 3.0 * stderr

    def test_deterministic_across_workers(self) -> None:
        logd = lambda x: log_p_beta_batch(GAUSS, 1, x)
        fast = McmcParams(burn_in=200, chains=32)
        a = sample_mcmc(logd, 2, 400, seed=37, params=fast, workers=1)
        b = sample_mcmc(logd, 2, 400, seed=37, params=fast, workers=4)
        np.testing.assert_array_equal(a.spectra, b.spectra)
        assert a.diagnostics == b.diagnostics

    def test_stuck_chain(self) -> None:
        logd = lambda x: log_p_beta_batch(GAUSS, 1, x)
        frozen = McmcParams(burn_in=5, adapt_window=10_000, step0=1e8, chains=8)
        with pytest.raises(StuckChain):
            sample_mcmc(logd, 1, 16, seed=41, params=frozen)

    def test_no_finite_start(self) -> None:
        logd = lambda x: np.full(x.shape[0], -np.inf)
        with pytest.raises(BadParameter):
            sample_mcmc(logd, 1, 8, seed=43, params=McmcParams(burn_in=1, chains=4))

    def test_bad_params(self) -> None:
        with pytest.raises(BadParameter):
            McmcParams(accept_low=0.5, accept_high=0.3)
        with pytest.raises(BadParameter):
            McmcParams(step0=0.0)


class TestEnsembleSpecValidation:
    def test_bad_kind(self) -> None:
        with pytest.raises(BadParameter):
            EnsembleSpec("GOE", 2)

    def test_circular_with_weight(self) -> None:
        with pytest.raises(BadParameter):
            EnsembleSpec("CUE", 2, weight=GAUSS)

    def test_circular_mcmc(self) -> None:
        with pytest.raises(BadParameter):
            EnsembleSpec("COE", 2, method="mcmc")

    def test_weight_required(self) -> None:
        with pytest.raises(BadParameter):
            EnsembleSpec("OE", 2)

    def test_mu_rules(self) -> None:
        with pytest.raises(BadParameter):
            EnsembleSpec("chUE", 2, weight=GAUSS, mu=2)
        with pytest.raises(BadParameter):
            EnsembleSpec("OE", 2, weight=GAUSS, mu=1)
        EnsembleSpec("chUE", 2, weight=GAUSS, mu=1)

    def test_exact_unavailable(self) -> None:
        spec = EnsembleSpec("OE", 3, weight=cauchy_weight(0.7), method="exact")
        with pytest.raises(BadParameter):
            sample_ensemble(spec, 10, seed=0)

    def test_cauchy_normalizability(self) -> None:
        # largest-value tail is x^(n-1) * w1; at a = (n-2)/2 it decays like 1/x
        with pytest.raises(BadParameter):
            EnsembleSpec("OE", 4, weight=cauchy_weight(1.0))
        with pytest.raises(BadParameter):
            EnsembleSpec("UE", 3, weight=cauchy_weight(0.75))
        with pytest.raises(BadParameter):
            EnsembleSpec("chUE", 2, weight=cauchy_weight(1.0), mu=1)
        EnsembleSpec("OE", 4, weight=cauchy_weight(1.2))
        EnsembleSpec("UE", 3, weight=cauchy_weight(0.8))
        EnsembleSpec("chUE", 2, weight=cauchy_weight(1.0), mu=0)


class TestExactRouting:
    def test_route_table(self) -> None:
        assert has_exact_route(EnsembleSpec("OE", 3, weight=GAUSS))
        assert has_exact_route(EnsembleSpec("UE", 3, weight=GAUSS))
        assert has_exact_route(EnsembleSpec("CUE", 3))
        assert has_exact_route(EnsembleSpec("OE", 3, weight=cauchy_weight(1.0)))
        assert not has_exact_route(EnsembleSpec("OE", 3, weight=cauchy_weight(0.7)))
        assert not has_exact_route(EnsembleSpec("OE", 4, weight=cauchy_weight(1.2)))
        assert has_exact_route(EnsembleSpec("OE", 3, weight=jacobi_weight(1.0)))
        # every chiral spec goes to a beta-ensemble model
        w = cauchy_weight(1.0)
        assert has_exact_route(EnsembleSpec("chUE", 2, weight=w, mu=0))
        assert has_exact_route(EnsembleSpec("chUE", 1, weight=w, mu=0))
        assert has_exact_route(EnsembleSpec("chUE", 1, weight=w, mu=1))
        assert has_exact_route(EnsembleSpec("chUE", 1, weight=cauchy_weight(2.0), mu=1))
        assert has_exact_route(EnsembleSpec("chUE", 2, weight=GAUSS, mu=0))

    def test_gauss_oe_routes_to_matrices(self) -> None:
        spec = EnsembleSpec("OE", 2, weight=GAUSS)
        batch = sample_ensemble(spec, 200, seed=51)
        direct = sample_gaussian_matrix(1, 2, 200, seed=51)
        np.testing.assert_array_equal(batch.spectra, direct.spectra)

    def test_chiral_cauchy_is_oplus_pullback(self) -> None:
        w = cauchy_weight(0.5)  # order 2: positive sector, one angle
        spec = EnsembleSpec("chUE", 1, weight=w, mu=0)
        batch = sample_ensemble(spec, 500, seed=53)
        angles = sample_haar_circular("Oplus", 2, 500, seed=53)
        np.testing.assert_allclose(batch.spectra, np.tan(0.5 * angles.spectra), rtol=1e-12)

    def test_chiral_cauchy_pullback_cdf(self) -> None:
        # one positive value with weight (1+x^2)^-2: closed-form CDF
        w = cauchy_weight(0.5)
        spec = EnsembleSpec("chUE", 1, weight=w, mu=0)
        batch = sample_ensemble(spec, 30_000, seed=59)
        x = batch.spectra.ravel()

        def cdf(t: np.ndarray) -> np.ndarray:
            return (np.arctan(t) + t / (1 + t * t)) / (math.pi / 2)

        p = scipy.stats.kstest(x, cdf).pvalue
        assert p > 0.001

    def test_jacobi_routes_to_mcmc(self) -> None:
        # OE Cauchy off the circular exponents is left to Metropolis
        spec = EnsembleSpec("OE", 3, weight=cauchy_weight(0.7))
        batch = sample_ensemble(spec, 300, seed=61, params=McmcParams(burn_in=300))
        assert batch.diagnostics["route"] == "metropolis"
        assert "acceptance" in batch.diagnostics
        assert np.all(np.isfinite(batch.spectra))
        # Jacobi reaches Metropolis only on request, and stays on its support
        spec = EnsembleSpec("OE", 2, weight=jacobi_weight(1.5), method="mcmc")
        batch = sample_ensemble(spec, 300, seed=61, params=McmcParams(burn_in=300))
        assert batch.diagnostics["route"] == "metropolis"
        assert "acceptance" in batch.diagnostics
        assert np.all(np.abs(batch.spectra) < 1.0)

    @pytest.mark.parametrize(
        "spec,route",
        [
            (EnsembleSpec("OE", 3, weight=GAUSS), "gaussian"),
            (EnsembleSpec("UE", 2, weight=GAUSS), "gaussian"),
            (EnsembleSpec("COE", 3), "haar"),
            (EnsembleSpec("Ominus", 3), "beta-jacobi"),
            (EnsembleSpec("OE", 3, weight=cauchy_weight(1.0)), "pullback"),
            (EnsembleSpec("chUE", 1, weight=cauchy_weight(0.5)), "beta-jacobi"),
            (EnsembleSpec("chUE", 2, weight=GAUSS, mu=1), "beta-laguerre"),
            (EnsembleSpec("chUE", 2, weight=jacobi_weight(0.5)), "beta-jacobi"),
            (EnsembleSpec("chUE", 1, weight=cauchy_weight(2.0), mu=1), "beta-jacobi"),
            (EnsembleSpec("OE", 3, weight=jacobi_weight(1.0)), "beta-jacobi"),
            (EnsembleSpec("UE", 2, weight=jacobi_weight(0.0)), "beta-jacobi"),
            (EnsembleSpec("OE", 3, weight=GAUSS, method="mcmc"), "metropolis"),
            (EnsembleSpec("Oplus", 2), "beta-jacobi"),
        ],
    )
    def test_route_diagnostic(self, spec: EnsembleSpec, route: str) -> None:
        params = McmcParams(burn_in=50, chains=8)
        batch = sample_ensemble(spec, 16, seed=63, params=params)
        assert batch.diagnostics["route"] == route
        assert ("acceptance" in batch.diagnostics) == (route == "metropolis")
        assert ("ess" in batch.diagnostics) == (route == "metropolis")


def _count_z(x: np.ndarray, lo: float, hi: float, probs: np.ndarray) -> np.ndarray:
    """Per-cell z of the in-(lo, hi) count histogram against exact E(k)."""
    counts = np.sum((x > lo) & (x < hi), axis=1)
    got = np.bincount(counts, minlength=probs.size) / x.shape[0]
    se = np.sqrt(probs * (1.0 - probs) / x.shape[0])
    return np.abs(got - probs) / np.maximum(se, 1e-300)


def _exact_counts(spec: EnsembleSpec, interval: tuple[float, float]) -> np.ndarray:
    if spec.kind == "chUE":
        return gap.gap_chue_exact(spec.weight, spec.mu, spec.n, interval[1]).coeffs
    if spec.kind == "UE":
        return gap.gap_ue_exact(spec.weight, spec.n, interval).coeffs
    return gap.gap_oe_odd_exact(spec.weight, spec.n, interval[1]).coeffs


BETA_MODEL_CASES = [
    (EnsembleSpec("chUE", 1, weight=GAUSS, mu=0), (0.0, 0.8)),
    (EnsembleSpec("chUE", 3, weight=GAUSS, mu=1), (0.0, 1.2)),
    (EnsembleSpec("chUE", 2, weight=jacobi_weight(0.5), mu=0), (0.0, 0.6)),
    (EnsembleSpec("chUE", 2, weight=jacobi_weight(-0.5), mu=1), (0.0, 0.5)),
    (EnsembleSpec("chUE", 1, weight=cauchy_weight(2.0), mu=1), (0.0, 0.9)),
    (EnsembleSpec("chUE", 2, weight=cauchy_weight(2.5), mu=0), (0.0, 0.7)),
    (EnsembleSpec("OE", 3, weight=jacobi_weight(0.5)), (-0.5, 0.5)),
    (EnsembleSpec("OE", 5, weight=jacobi_weight(0.0)), (-0.3, 0.3)),
    (EnsembleSpec("UE", 2, weight=jacobi_weight(1.5)), (-0.3, 0.6)),
    (EnsembleSpec("UE", 4, weight=jacobi_weight(0.0)), (-0.5, 0.2)),
]


class TestBetaModels:
    @pytest.mark.parametrize("spec,interval", BETA_MODEL_CASES)
    def test_counts_match_exact_engine(self, spec: EnsembleSpec, interval) -> None:
        batch = sample_ensemble(spec, 100_000, seed=79)
        assert batch.diagnostics["route"].startswith("beta-")
        z = _count_z(batch.spectra, *interval, _exact_counts(spec, interval))
        assert np.max(z) < 4.0, f"{spec.describe()}: z = {z}"

    @pytest.mark.parametrize("spec,interval", BETA_MODEL_CASES)
    def test_workers_do_not_change_output(self, spec: EnsembleSpec, interval) -> None:
        a = sample_ensemble(spec, 1001, seed=83, workers=1)
        b = sample_ensemble(spec, 1001, seed=83, workers=4)
        np.testing.assert_array_equal(a.spectra, b.spectra)
        lo, hi = spec.weight.support if spec.kind != "chUE" else (0.0, spec.weight.omega)
        assert np.all((a.spectra > lo) & (a.spectra < hi))

    @pytest.mark.parametrize("kind", ["Oplus", "Ominus"])
    def test_orthogonal_workers_do_not_change_output(self, kind: str) -> None:
        a = sample_haar_circular(kind, 4, 1001, seed=85, workers=1)
        b = sample_haar_circular(kind, 4, 1001, seed=85, workers=4)
        np.testing.assert_array_equal(a.spectra, b.spectra)

    def test_laguerre_n1_is_chi_square(self) -> None:
        # n = 1: lam^p e^(-lam/2) is the chi-square law with 2p + 2 degrees
        batch = sample_beta_laguerre(1, 1, 0.75, 40_000, seed=87)
        p = scipy.stats.kstest(batch.spectra.ravel(), "chi2", args=(3.5,)).pvalue
        assert p > 0.001

    def test_jacobi_n1_is_beta(self) -> None:
        # n = 1: lam^(A/2 - 1/2) (1 - lam)^(B/2 - 1/2) at beta = 1
        batch = sample_beta_jacobi(1, 1, 0.4, 2.5, 40_000, seed=89)
        p = scipy.stats.kstest(batch.spectra.ravel(), "beta", args=(0.7, 1.75)).pvalue
        assert p > 0.001

    def test_jacobi_n2_beta_half_matches_quadrature(self) -> None:
        # beta = 3, outside the classical 1, 2, 4: P(both values below 1/2)
        # against quadrature of the polynomial density lam (1 - lam)^2 |Vdm|^3
        A, B, beta = 1.0 / 3.0, 1.0, 3.0

        def logd(x: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = (0.5 * beta * (A + 1) - 1) * np.log(x) + (0.5 * beta * (B + 1) - 1) * np.log1p(-x)
                out = np.sum(out, axis=1) + beta * np.log(np.abs(x[:, 1] - x[:, 0]))
            return np.where(np.all((x > 0) & (x < 1), axis=1), out, -np.inf)

        target = normalize(logd, 2, (0.0, 0.5)) / normalize(logd, 2, (0.0, 1.0))
        count = 40_000
        batch = sample_beta_jacobi(beta, 2, A, B, count, seed=91)
        got = np.mean(batch.spectra[:, 1] < 0.5)
        assert abs(got - target) < 4.0 * math.sqrt(target * (1 - target) / count)

    def test_bad_parameters(self) -> None:
        with pytest.raises(BadParameter):
            sample_beta_laguerre(1, 2, -1.0, 10, seed=0)
        with pytest.raises(BadParameter):
            sample_beta_laguerre(0, 2, 0.0, 10, seed=0)
        with pytest.raises(BadParameter):
            sample_beta_jacobi(2, 2, -1.0, 0.0, 10, seed=0)
        with pytest.raises(BadParameter):
            sample_beta_jacobi(2, 0, 0.0, 0.0, 10, seed=0)


class TestExactVersusMcmc:
    def test_gauss_oe_n2(self) -> None:
        spec = EnsembleSpec("OE", 2, weight=GAUSS)
        exact = sample_ensemble(spec, 100_000, seed=67)
        walked = sample_ensemble(replace_method(spec, "mcmc"), 100_000, seed=68)
        for k in range(2):
            p = scipy.stats.ks_2samp(exact.spectra[:, k], walked.spectra[:, k]).pvalue
            assert p > 0.001, f"order statistic {k}"

    def test_cauchy_oe_n3_canonical(self) -> None:
        w = cauchy_weight(1.0)  # matches the order-3 circular pullback
        spec = EnsembleSpec("OE", 3, weight=w)
        exact = sample_ensemble(spec, 100_000, seed=71)
        walked = sample_ensemble(replace_method(spec, "mcmc"), 100_000, seed=72)
        for k in range(3):
            p = scipy.stats.ks_2samp(exact.spectra[:, k], walked.spectra[:, k]).pvalue
            assert p > 0.001, f"order statistic {k}"
        med_exact = np.median(np.max(np.abs(exact.spectra), axis=1))
        med_walked = np.median(np.max(np.abs(walked.spectra), axis=1))
        assert abs(med_exact - med_walked) < 0.05


def replace_method(spec: EnsembleSpec, method: str) -> EnsembleSpec:
    return EnsembleSpec(spec.kind, spec.n, weight=spec.weight, mu=spec.mu, method=method)


class TestSerialization:
    def _batch(self) -> SampleBatch:
        return SampleBatch(
            spectra=np.array([[1.0, 2.5], [-0.25, 1e-17]]).cumsum(axis=1),
            seed=99,
            label="Ensemble(kind=OE, n=2)",
            diagnostics={"route": "metropolis", "acceptance": 0.31, "ess": 1234.5},
        )

    def test_csv_round_trip(self, tmp_path) -> None:
        batch = self._batch()
        path = tmp_path / "batch.csv"
        batch.to_csv(path)
        back = SampleBatch.from_csv(path)
        np.testing.assert_array_equal(back.spectra, batch.spectra)
        assert back.seed == batch.seed
        assert back.label == batch.label
        assert back.diagnostics == batch.diagnostics
        assert back.diagnostics["route"] == "metropolis"

    def test_jsonl_round_trip(self, tmp_path) -> None:
        batch = self._batch()
        path = tmp_path / "batch.jsonl"
        batch.to_jsonl(path)
        back = SampleBatch.from_jsonl(path)
        np.testing.assert_array_equal(back.spectra, batch.spectra)
        assert back.diagnostics == batch.diagnostics
        assert back.diagnostics["route"] == "metropolis"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_sampled_route_round_trip(self, tmp_path, fmt: str) -> None:
        batch = sample_ensemble(EnsembleSpec("chUE", 2, weight=jacobi_weight(0.5)), 9, seed=4)
        path = tmp_path / f"batch.{fmt}"
        getattr(batch, f"to_{fmt}")(path)
        back = getattr(SampleBatch, f"from_{fmt}")(path)
        np.testing.assert_array_equal(back.spectra, batch.spectra)
        assert back.diagnostics == {"route": "beta-jacobi"}

    def test_empty_width_round_trip(self, tmp_path) -> None:
        batch = sample_haar_circular("Ominus", 1, 7, seed=3)
        for name, loader in (("b.csv", SampleBatch.from_csv), ("b.jsonl", SampleBatch.from_jsonl)):
            path = tmp_path / name
            (batch.to_csv if name.endswith("csv") else batch.to_jsonl)(path)
            back = loader(path)
            assert back.spectra.shape == (7, 0)

    GOLDEN_CSV = (
        '# spec=Ensemble(kind=OE, n=3) seed=7 diagnostics={"ess":12.5,"route":"gaussian"}\n'
        "v1,v2,v3\n"
        "-0,4.9406564584124654e-324,0.10000000000000001\n"
        "-1.0000000000000001e+300,0.33333333333333331,1.0000000000000001e+300\n"
        "-inf,inf,nan\n"
    )
    GOLDEN_JSONL = (
        '{"diagnostics": {"ess": 12.5, "route": "gaussian"}, "seed": 7,'
        ' "spec": "Ensemble(kind=OE, n=3)", "width": 3}\n'
        '{"values": [-0.0, 5e-324, 0.1]}\n'
        '{"values": [-1e+300, 0.3333333333333333, 1e+300]}\n'
        '{"values": [-Infinity, Infinity, NaN]}\n'
    )

    @staticmethod
    def _golden_batch() -> SampleBatch:
        return SampleBatch(
            spectra=np.array(
                [[-0.0, 5e-324, 0.1], [-1e300, 1.0 / 3.0, 1e300], [-np.inf, np.inf, np.nan]]
            ),
            seed=7,
            label="Ensemble(kind=OE, n=3)",
            diagnostics={"route": "gaussian", "ess": 12.5},
        )

    @staticmethod
    def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
        # nan comes back as the canonical nan; every other value bit for bit
        assert got.shape == want.shape
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_golden_text(self, tmp_path, fmt: str) -> None:
        batch = self._golden_batch()
        path = tmp_path / f"b.{fmt}"
        getattr(batch, f"to_{fmt}")(path)
        want = self.GOLDEN_CSV if fmt == "csv" else self.GOLDEN_JSONL
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_blocked_writes_match_golden_text(self, tmp_path, monkeypatch, fmt: str,
                                              rows: int) -> None:
        # writers format _IO_ROWS rows at a time; any block size gives the same bytes
        monkeypatch.setattr(samplers, "_IO_ROWS", rows)
        path = tmp_path / f"b.{fmt}"
        getattr(self._golden_batch(), f"to_{fmt}")(path)
        want = self.GOLDEN_CSV if fmt == "csv" else self.GOLDEN_JSONL
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("ending", ["crlf", "no-final-newline"])
    def test_reader_accepts_line_endings(self, tmp_path, fmt: str, ending: str) -> None:
        text = self.GOLDEN_CSV if fmt == "csv" else self.GOLDEN_JSONL
        text = text.replace("\n", "\r\n") if ending == "crlf" else text[:-1]
        path = tmp_path / f"b.{fmt}"
        path.write_bytes(text.encode())
        back = getattr(SampleBatch, f"from_{fmt}")(path)
        want = self._golden_batch()
        self._assert_same_bits(back.spectra, want.spectra)
        assert (back.label, back.seed, back.diagnostics) == (
            want.label,
            want.seed,
            want.diagnostics,
        )

    SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf])

    @settings(max_examples=60, deadline=None)
    @given(
        spectra=arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.integers(0, 5)),
            elements=st.floats(allow_nan=True, allow_infinity=True) | SPECIAL,
        ),
        seed=st.integers(0, 2**63 - 1),
        fmt=st.sampled_from(["csv", "jsonl"]),
    )
    @example(spectra=np.zeros((0, 3)), seed=1, fmt="jsonl")
    @example(spectra=np.array([[np.inf, np.inf]]), seed=1, fmt="csv")
    @pytest.mark.filterwarnings("error")
    def test_round_trip_property(self, tmp_path_factory, spectra, seed: int, fmt: str) -> None:
        # a batch without rows keeps its width: the CSV column header and
        # the JSONL "width" key both record it
        batch = SampleBatch(
            spectra=np.sort(spectra, axis=1),
            seed=seed,
            label="Ensemble(kind=UE, n=5)",
            diagnostics={"route": "gaussian"},
        )
        path = tmp_path_factory.mktemp("rt") / f"b.{fmt}"
        getattr(batch, f"to_{fmt}")(path)
        back = getattr(SampleBatch, f"from_{fmt}")(path)
        self._assert_same_bits(back.spectra, batch.spectra)
        assert (back.label, back.seed, back.diagnostics) == (
            batch.label,
            batch.seed,
            batch.diagnostics,
        )

    def test_csv_blank_row_rejected(self, tmp_path) -> None:
        path = tmp_path / "b.csv"
        path.write_text(self.GOLDEN_CSV.replace("\n-inf", "\n\n-inf"))
        with pytest.raises(BadParameter):
            SampleBatch.from_csv(path)

    def test_empty_csv_keeps_width(self, tmp_path) -> None:
        path = tmp_path / "b.csv"
        SampleBatch(spectra=np.zeros((0, 3)), seed=1).to_csv(path)
        assert SampleBatch.from_csv(path).spectra.shape == (0, 3)

    def test_jsonl_without_width_key(self, tmp_path) -> None:
        # files written before the header recorded the width take it from
        # the first row
        path = tmp_path / "b.jsonl"
        path.write_text(self.GOLDEN_JSONL.replace(', "width": 3', ""))
        back = SampleBatch.from_jsonl(path)
        self._assert_same_bits(back.spectra, self._golden_batch().spectra)

    def test_unsorted_rejected(self) -> None:
        with pytest.raises(BadParameter):
            SampleBatch(spectra=np.array([[2.0, 1.0]]), seed=0)
