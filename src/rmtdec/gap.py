"""Gap probabilities: exact determinant engines, Monte Carlo counting, and
identity checkers.

E(k; J) is the probability that exactly k points of an ensemble fall in the
interval J.  For beta = 2 ensembles the full vector E(0..n) comes from the
eigenvalues of the Gram matrix of the first n orthonormal polynomials over J
(or the Fourier Gram for circular ensembles).  For beta = 1 at odd n the
generating function is a bordered (m+1) x (m+1) determinant, evaluated
either from its direct entries or after Gaudin diagonalization of the
restricted Gram block; both modes must agree.  Its entries are closed forms
in the recurrence coefficients of w2 = phi w1^2 and one Gram matrix over
(-s, s), from the antiderivative recurrence of w1.

One table, ``law_gap``, keyed by beta and the shape of w as the sampling
table ``samplers._law_draw`` is, gives the law record of every spec
(``samplers.law_of``) its exact engine, with J in the spec's own points:
the Gram engine at beta = 2 (the Fourier Gram for CUE angles) and the
bordered determinant at beta = 1 and odd n, so O+/O- and odd-n COE are
exact too.  ``gap_ue_exact``, ``gap_chue_exact`` and ``gap_cue_exact`` are
that table on their kind's law, and ``gap_oe_odd_exact`` is its bordered
row on the OE law, in either assembly.
gap_mc counts samples where it has no engine, beta = 1 at even n, and a
brute-force ordered quadrature covers n <= 4.

The superposition checkers (eq24, eq24cp, eq831p) share one helper,
``_label_convolution``: each identity reads E2(k; J) = P(L(i, j) = k) for the
in-J counts i, j of two independent beta = 1 runs and a count label L from
``_COUNT_LABELS``.  With M = [L(i, j) = k] the helper returns
rhs = pA . M pB and the delta-method variance of that plug-in estimate.
The beta = 1 runs of eq24/eq24cp are laws of ``samplers.sample_law``, whose
one table picks their sampler and records its route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .densities import _placement_masses, _settle, log_p_beta_batch
from .errors import BadParameter, MomentDivergence, NoExactEngine, NonConvergence
from .numerics import sym_eigen
from .orthopoly import ClassicalWeight, build, gram
from .samplers import (
    EnsembleSpec,
    Law,
    _law_draw,
    law_of,
    sample_ensemble,
    sample_law,
    stereographic,
)
from .verify import VerificationReport, _substreams, build_report
from .weights import AdmissibleWeight, make_weight, theta1

__all__ = [
    "GapPolynomial",
    "GaudinData",
    "GapEstimate",
    "WeightPair",
    "gap_mc",
    "law_engine",
    "law_gap",
    "gap_ue_exact",
    "gap_chue_exact",
    "gap_cue_exact",
    "gap_oe_odd_exact",
    "gaudin_data",
    "gap_oe_bruteforce",
    "pair_for_24",
    "pair_for_24cp",
    "check_thm_gap",
    "check_B1_structure",
    "check_identity_24",
    "check_identity_24cp",
    "check_8_31p",
    "check_thm_D4",
]

_COEFF_SLACK = 1e-9
_SUM_TOL = 1e-8
_Z_TOL = 3.0  # |z| gate of every Monte Carlo subtest


@dataclass(frozen=True)
class GapPolynomial:
    """Exact gap-probability vector; entry k of ``coeffs`` is E(k; J).

    The generating function sum_k E(k) (1 - xi)^k therefore evaluates to 1
    at xi = 0 and to E(0; J) at xi = 1 by construction.  Entries must lie in
    [0, 1] and sum to 1 up to engine slack, else the producing engine is
    declared non-convergent.
    """

    coeffs: np.ndarray
    n: int
    interval: tuple[float, float]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.size != self.n + 1:
            raise BadParameter(f"need {self.n + 1} entries for order {self.n}")
        if not np.all(np.isfinite(c)):
            raise NonConvergence(f"gap coefficients are not finite: {c}")
        if np.min(c) < -_COEFF_SLACK or np.max(c) > 1.0 + _COEFF_SLACK:
            raise NonConvergence(f"gap coefficients escape [0, 1]: {c}")
        if abs(float(c.sum()) - 1.0) > _SUM_TOL:
            raise NonConvergence(f"gap coefficients sum to {c.sum()}, not 1")
        object.__setattr__(self, "coeffs", c)

    def prob(self, k: int) -> float:
        """E(k; J), defined as 0 outside 0 <= k <= n."""
        if k < 0 or k > self.n:
            return 0.0
        return float(self.coeffs[k])

    def generating_function(self, xi):
        """sum_k E(k) (1 - xi)^k, vectorized over xi."""
        u = 1.0 - np.asarray(xi, dtype=float)
        return np.polynomial.polynomial.polyval(u, self.coeffs)


@dataclass(frozen=True)
class GaudinData:
    """Diagonalized restricted Gram block of the odd-degree polynomials.

    ``nus`` are its eigenvalues, strictly inside (0, 1) for a proper
    subinterval; row j of ``C`` expresses the rotated polynomial q_{2j-1} in
    the p_{2k-1} basis, so C is orthogonal.
    """

    nus: np.ndarray
    C: np.ndarray

    def __post_init__(self) -> None:
        nus = np.atleast_1d(np.asarray(self.nus, dtype=float))
        C = np.asarray(self.C, dtype=float)
        if np.min(nus) <= 0.0 or np.max(nus) >= 1.0:
            raise NonConvergence(f"Gaudin eigenvalues escape (0, 1): {nus}")
        if np.max(np.abs(C @ C.T - np.eye(C.shape[0]))) > 1e-10:
            raise NonConvergence("Gaudin rotation is not orthogonal")
        object.__setattr__(self, "nus", nus)
        object.__setattr__(self, "C", C)


@dataclass(frozen=True)
class GapEstimate:
    """Monte Carlo gap probabilities with binomial standard errors."""

    probs: np.ndarray
    stderr: np.ndarray
    count: int
    k_max: int

    def prob(self, k: int) -> float:
        if k < 0 or k > self.k_max:
            return 0.0
        return float(self.probs[k])

    def stderr_of(self, k: int) -> float:
        if k < 0 or k > self.k_max:
            return 0.0
        return float(self.stderr[k])

    def sum_prob(self, ks: Sequence[int]) -> tuple[float, float]:
        """Probability of the disjoint union of count events and its stderr."""
        p = sum(self.prob(k) for k in set(ks))
        return p, math.sqrt(max(p * (1.0 - p), 0.0) / self.count)


def gap_mc(
    spec: EnsembleSpec,
    J: tuple[float, float],
    k_max: int,
    count: int,
    seed: int,
    workers: int = 1,
) -> GapEstimate:
    """Estimate E(k; J) for k = 0..k_max by counting sampled points in J."""
    if not J[0] < J[1]:
        raise BadParameter(f"empty interval {J}")
    batch = sample_ensemble(spec, count, seed, workers=workers)
    inside = (batch.spectra > J[0]) & (batch.spectra < J[1])
    counts = np.sum(inside, axis=1)
    probs = np.bincount(counts, minlength=k_max + 1)[: k_max + 1] / count
    stderr = np.sqrt(probs * (1.0 - probs) / count)
    return GapEstimate(probs, stderr, count, k_max)


# -- beta = 2 determinant engines --------------------------------------------------


def _bernoulli_coeffs(lams: np.ndarray) -> np.ndarray:
    """E(k) vector from Gram eigenvalues: iterated Bernoulli convolution.

    Each eigenvalue contributes an independent presence/absence factor, so
    the coefficients are nonnegative and sum to 1 by construction.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.size and (np.min(lams) < -1e-9 or np.max(lams) > 1.0 + 1e-9):
        raise NonConvergence(f"Gram eigenvalues escape [0, 1]: {lams}")
    lams = np.clip(lams, 0.0, 1.0)
    d = np.array([1.0])
    for lam in lams:
        d = np.convolve(d, [1.0 - lam, lam])
    return d


def _eigen_gap(G: np.ndarray, J: tuple[float, float]) -> GapPolynomial:
    """E(0..n; J) from the n x n Gram matrix G of a beta = 2 ensemble over J."""
    lams, _ = sym_eigen(G)
    return GapPolynomial(_bernoulli_coeffs(lams), G.shape[0], (float(J[0]), float(J[1])))


def _gram_gap(w: ClassicalWeight, n: int, J: tuple, shown: tuple) -> GapPolynomial:
    """E(0..n) of the law (2, n, w) over J by its Gram matrix, shown on ``shown``."""
    return _eigen_gap(gram(build(w, n - 1), J, list(range(n))), shown)


def _fourier_gap(n: int, h: float, shown: tuple) -> GapPolynomial:
    """E(0..n) of n CUE angles on an arc of half-width h by the Fourier Gram
    sin((j - k) h) / (pi (j - k)), with diagonal h / pi, shown on ``shown``."""
    j = np.arange(n, dtype=float)
    diff = j[:, None] - j[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        G = np.sin(diff * h) / (np.pi * diff)
    np.fill_diagonal(G, h / np.pi)
    return _eigen_gap(G, shown)


def gap_ue_exact(
    w2: AdmissibleWeight | ClassicalWeight, n: int, J: tuple[float, float]
) -> GapPolynomial:
    """Exact E(0..n; J) for n eigenvalues with joint density prod w2 |Vdm|^2.

    ``w2`` is a classical weight, whose law (2, n, w2) is taken as it is,
    or an admissible weight, for the UE law of ``samplers.law_of``; either
    goes to ``law_gap``.
    """
    if n < 1:
        raise BadParameter("need at least one eigenvalue")
    if isinstance(w2, AdmissibleWeight):
        return law_gap(law_of("UE", n, w2), J)
    if not isinstance(w2, ClassicalWeight):
        raise BadParameter(f"gap_ue_exact needs a weight, got {type(w2).__name__}")
    return law_gap(Law(2, n, w2), J)


def gap_chue_exact(w2: AdmissibleWeight, mu: int, m: int, s: float) -> GapPolynomial:
    """Exact E(0..m; (0, s)) for m positive points with density
    prod x^(2 mu) w2(x) * Vdm(x^2)^2: ``law_gap`` on the chUE law of
    ``samplers.law_of``, a Laguerre, Jacobi or beta-prime law of u = x^2,
    whose power at u = 0 ``gram`` takes with a Gauss-Jacobi panel.  The
    system is built only to degree m - 1, and a law without the u-moments
    of order 2(m - 1) raises MomentDivergence.
    """
    if mu not in (0, 1):
        raise BadParameter("mu must be 0 or 1")
    if m < 0:
        raise BadParameter("m must be nonnegative")
    if not 0.0 < s <= w2.omega or math.isinf(s):
        raise BadParameter(f"need a finite s with 0 < s <= {w2.omega}")
    if m == 0:
        return GapPolynomial(np.array([1.0]), 0, (0.0, float(s)))
    return law_gap(law_of("chUE", m, w2, mu), (0.0, s))


def gap_cue_exact(n: int, theta: float) -> GapPolynomial:
    """Exact E(0..n; (-theta, theta)) for the n circular unitary angles:
    ``law_gap`` on the CUE law, whose row is the Fourier Gram."""
    if n < 1:
        raise BadParameter("need at least one angle")
    if not 0.0 < theta <= math.pi:
        raise BadParameter("theta must lie in (0, pi]")
    return law_gap(law_of("CUE", n), (-theta, theta))


# -- beta = 1, odd n: bordered determinant ------------------------------------------


@dataclass(frozen=True)
class _OddParts:
    """s-dependent ingredients of the bordered determinant.  p_k are the
    orthonormal polynomials of w2 = phi w1^2 and R_k the even polynomials of
    ``_odd_parts``, with int_x^omega w1 p_{2k-1} = R_k(x) companion(x)."""

    m: int
    theta: float
    th1s: float
    comp_s: float
    p_s: np.ndarray  # p_{2k-1}(s)
    Ts: np.ndarray  # int_s^omega w1 p_{2k-1} = R_k(s) companion(s)
    U: np.ndarray  # 2 int_0^omega theta1 w1 p_{2k-1} = int w2 R_k
    V: np.ndarray  # int_{-s}^s w1(x) int_x^omega w1 p_{2k-1} = int_{-s}^s w2 R_k
    G: np.ndarray  # 2 int_0^s w2 p_{2j-1} p_{2k-1}


def _odd_parts(w1: AdmissibleWeight, n: int, s: float) -> _OddParts:
    """Bordered-determinant ingredients for n = 2m + 1 points on (-s, s), 0 < s
    < omega, built only for an OE law of finite mass, else MomentDivergence.

    (phi w1)' = -x w1 / alpha_1 gives -(R companion)' = w1 L R for
    L = x / alpha_1 - phi d/dx, so R_k with L R_k = p_{2k-1} integrates w1
    p_{2k-1} in closed form, and by parts (theta1' = w1) the theta1 terms
    become int w2 R_k.  L is skew-adjoint in w2's inner product and raises
    the degree by one: L p_j = l_{j+1} p_{j+1} - l_j p_{j-1}, with
    l_j = (1/alpha_1 - (j-1) tau) recur_b[j] from the leading coefficients.
    Hence R_k = sum_i K[k, i] p_{2i} with K[k, k-1] = 1 / l_{2k-1} and
    K[k, i] = K[k, i+1] l_{2i+2} / l_{2i+1}, and int_J w2 p_{2i} =
    recur_b[0] G[2i, 0] for the one Gram matrix G over J = (-s, s).
    """
    if n < 1 or n % 2 == 0:
        raise BadParameter("the bordered determinant needs odd n >= 1")
    if not 0.0 < s < w1.omega:
        raise BadParameter(f"need 0 < s < {w1.omega}")
    law_of("OE", n, w1).check_mass(MomentDivergence)
    m, theta = (n - 1) // 2, w1.theta
    th1s = float(theta1(w1, s))
    comp_s = float(w1.companion(s))
    if m == 0:
        z = np.zeros(0)
        return _OddParts(0, theta, th1s, comp_s, z, z, z, z, np.zeros((0, 0)))

    sys = build(w1.w2, 2 * m - 1)
    odd_idx, even_idx = list(range(1, 2 * m, 2)), list(range(0, 2 * m, 2))
    j = np.arange(2 * m)
    # 1/alpha_1 = 2a + 1 - tau for all three families (a = 0 for Gauss)
    ell = (2.0 * (w1.a or 0.0) + 1.0 - j * w1.tau) * sys.recur_b[: 2 * m]
    ladder = np.cumprod(np.concatenate([[1.0], ell[2::2] / ell[1:-1:2]]))
    K = np.tril(np.outer(ladder / ell[1::2], 1.0 / ladder))
    b0 = sys.recur_b[0]
    G = gram(sys, (-s, s))
    x = np.array([s])
    Ts = K @ sys.evaluate(x, even_idx, w1.log_companion(x))[:, 0]
    p_s = sys.evaluate(x, odd_idx)[:, 0]
    U, V = b0 * K[:, 0], b0 * (K @ G[even_idx, 0])
    return _OddParts(m, theta, th1s, comp_s, p_s, Ts, U, V, G[np.ix_(odd_idx, odd_idx)])


# xi values per determinant stack in ``_det_direct``: memory is one
# (_XI_BLOCK, m + 1, m + 1) complex stack and its temporaries
_XI_BLOCK = 8


def _det_direct(parts: _OddParts, xi: np.ndarray) -> np.ndarray:
    """The bordered determinant at each complex xi, by LAPACK on
    (_XI_BLOCK, m+1, m+1) stacks."""
    m = parts.m
    xi = np.asarray(xi, dtype=complex)
    out = np.empty(xi.shape, dtype=complex)
    outer, eye = np.outer(parts.p_s, parts.Ts), np.eye(m)
    for start in range(0, xi.size, _XI_BLOCK):
        x = xi[start : start + _XI_BLOCK, None, None]
        z = 2.0 * x - x * x
        Y = np.empty((x.shape[0], m + 1, m + 1), dtype=complex)
        Y[:, :1, :m] = parts.U - z * parts.V + 2.0 * x * (1.0 - x) * parts.th1s * parts.Ts
        Y[:, :1, m:] = parts.theta - x * parts.th1s
        Y[:, 1:, :m] = 2.0 * x * parts.comp_s * outer - eye + z * parts.G
        Y[:, 1:, m:] = x * parts.comp_s * parts.p_s[:, None]
        out[start : start + x.shape[0]] = np.linalg.det(Y)
    return out


@dataclass(frozen=True)
class _GaudinParts:
    """Ingredients rotated into the eigenbasis of the restricted Gram block."""

    m: int
    theta: float
    th1s: float
    comp_s: float
    nus: np.ndarray
    q_s: np.ndarray
    Tsq: np.ndarray
    Uq: np.ndarray
    Vq: np.ndarray


def _gaudin_parts(parts: _OddParts) -> _GaudinParts:
    if parts.m == 0:
        z = np.zeros(0)
        return _GaudinParts(0, parts.theta, parts.th1s, parts.comp_s, z, z, z, z, z)
    data = _gaudin_from_gram(parts.G)
    C = data.C
    return _GaudinParts(
        parts.m,
        parts.theta,
        parts.th1s,
        parts.comp_s,
        data.nus,
        C @ parts.p_s,
        C @ parts.Ts,
        C @ parts.U,
        C @ parts.V,
    )


def _gaudin_from_gram(G: np.ndarray) -> GaudinData:
    vals, vecs = sym_eigen(G)
    if np.min(vals) <= 0.0:
        if np.min(vals) < -1e-12:
            raise NonConvergence(f"restricted Gram block indefinite: {vals}")
        vals = np.maximum(vals, 1e-300)
    if np.max(vals) >= 1.0:
        if np.max(vals) > 1.0 + 1e-12:
            raise NonConvergence(f"restricted Gram block exceeds identity: {vals}")
        vals = np.minimum(vals, 1.0 - 1e-16)
    return GaudinData(vals, vecs.T)


def _det_gaudin(gp: _GaudinParts, xi: np.ndarray) -> np.ndarray:
    """The Gaudin-rotated bordered determinant at each complex xi.

    Its matrix is an arrowhead: row 0 is (a, b) with a = Uq - 2 theta Tsq -
    z (Vq - 2 th1s Tsq) and b = theta - x th1s, and row i + 1 holds d_i =
    z nu_i - 1 on the diagonal and c_i = x comp_s q_i in the last column.
    So det = (-1)^m (b prod_k d_k - sum_i a_i c_i prod_{k != i} d_k), with
    the products over k != i from prefix and suffix products and no
    division, as d_i vanishes where z nu_i = 1: O(m) per xi.
    """
    x = np.asarray(xi, dtype=complex)[:, None]
    z = 2.0 * x - x * x
    a = gp.Uq - 2.0 * gp.theta * gp.Tsq - z * (gp.Vq - 2.0 * gp.th1s * gp.Tsq)
    b = gp.theta - x[:, 0] * gp.th1s
    c = x * gp.comp_s * gp.q_s
    d = z * gp.nus - 1.0
    ones = np.ones_like(x)
    before = np.cumprod(np.concatenate([ones, d], axis=1), axis=1)  # prod_{k < i} d_k
    after = np.cumprod(np.concatenate([ones, d[:, ::-1]], axis=1), axis=1)[:, ::-1]  # k >= i
    rest = np.sum(a * c * before[:, :-1] * after[:, 1:], axis=1)
    return (-1.0) ** gp.m * (b * before[:, -1] - rest)


def _extract_coeffs(
    detfn: Callable[[np.ndarray], np.ndarray], n: int
) -> tuple[np.ndarray, float]:
    """Coefficients of the normalized determinant in powers of z = 1 - xi.

    The determinant has z-degree at most n + 1.  Sampled at the N = n + 2
    roots of unity z_j = exp(2 pi i j / N), where z_0 = 1 gives xi = 0 and
    the half-mass value det0, its coefficients are one FFT, accurate to
    about eps * max |G| <= eps on the unit circle.  The generating function
    has degree n and real coefficients, so the top coefficient and every
    imaginary part must be round-off.  Returns E(0..n) and det0.
    """
    N = n + 2
    vals = detfn(1.0 - np.exp(2j * np.pi * np.arange(N) / N))
    det0 = float(vals[0].real)
    if not det0 > 0.0:
        raise NonConvergence(f"determinant at xi = 0 is {det0}, expected positive")
    c = np.fft.fft(vals / det0) / N
    if abs(c[n + 1]) > 1e-8:
        raise NonConvergence(f"generating function overflows degree {n}: {c[n + 1]}")
    if np.max(np.abs(c.imag)) > 1e-8:
        raise NonConvergence(f"generating function has complex coefficients: {c}")
    return c.real[: n + 1], det0


def gap_oe_odd_exact(
    w1: AdmissibleWeight, n: int, s: float, mode: str = "direct"
) -> GapPolynomial:
    """Exact E(0..n; (-s, s)) for n = 2m + 1 points at beta = 1, 0 < s <
    omega: the bordered row of ``law_gap`` on the OE law of w1.

    ``mode`` picks the determinant assembly: "direct" uses the raw bordered
    entries, "gaudin" first diagonalizes the restricted Gram block.  The two
    agree to engine precision and are cross-checked by check_B1_structure.
    The determinant at xi = 0 equals the half-mass constant exactly; its
    numerical residual is recorded in ``meta`` and enforced loosely.
    """
    if mode not in ("direct", "gaudin"):
        raise BadParameter(f"unknown mode {mode!r}")
    return _odd_gap(_odd_parts(w1, n, s), (-float(s), float(s)), mode)


def _odd_gap(parts: _OddParts, shown: tuple, mode: str) -> GapPolynomial:
    """The gap vector on (-s, s) from one set of bordered-determinant parts,
    shown on ``shown``."""
    if mode == "direct":
        detfn = lambda xi: _det_direct(parts, xi)
    else:
        gp = _gaudin_parts(parts)
        detfn = lambda xi: _det_gaudin(gp, xi)
    n = 2 * parts.m + 1
    coeffs, det0 = _extract_coeffs(detfn, n)
    resid = abs(det0 - parts.theta) / parts.theta
    if resid > 1e-6:
        raise NonConvergence(f"det at xi = 0 is off the half mass by {resid}")
    return GapPolynomial(
        coeffs, n, shown, meta={"mode": mode, "theta_residual": resid}
    )


def gaudin_data(w1: AdmissibleWeight, n: int, s: float) -> GaudinData:
    """The Gaudin assembly's eigen-decomposition of the restricted odd-degree Gram block."""
    parts = _odd_parts(w1, n, s)
    if parts.m == 0:
        raise BadParameter("n = 1 has no odd-degree block to diagonalize")
    return _gaudin_from_gram(parts.G)


# -- the exact table -----------------------------------------------------------------


def law_engine(law: Law) -> str:
    """The row of ``law_gap`` for the law (beta, n, w), keyed by beta and
    ``w.shape`` as ``samplers._law_draw`` is:

        gram      beta = 2: the Gram matrix of w's orthonormal functions over
                  J in the law's own coordinate
        fourier   beta = 2 where the points are the angles of the
                  stereographic map (CUE): the Gram of the same law in the
                  angle, in closed form
        bordered  beta = 1 at odd n, where w = w1^2 for the record's root,
                  a Gauss, Jacobi or Cauchy w1: the bordered determinant,
                  on symmetric J
        none      every other law, beta = 1 at even n among them
    """
    if law.beta == 2:
        return "fourier" if law.to_points is stereographic else "gram"
    return "bordered" if law.n % 2 == 1 and law.root is not None else "none"


def law_gap(law: Law, J: tuple[float, float]) -> GapPolynomial:
    """Exact E(0..n; J) for the n points of a law record, J in the spec's own
    points: the one exact table, by the row of ``law_engine``.

    Its door decides the edge cases once, for every row, in this order: a law
    without a row raises NoExactEngine, one without finite mass
    (``Law.check_mass``) MomentDivergence; a J that misses the support gives
    E(0) = 1, one that covers it E(n) = 1 exactly.  J reaches the law's
    coordinate through ``law.interval``, so it never meets a pole of the map.
    The rows see proper subintervals: the Fourier row reads the arc, clipped
    to (-pi, pi), by its half-width alone (rotation invariance); the bordered
    row needs J = (-s, s) in the law's coordinate, else NoExactEngine.
    """
    engine, m, shown, w = law_engine(law), law.n, (float(J[0]), float(J[1])), law.w
    if engine != "none":
        law.check_mass(MomentDivergence)
        lo, hi = law.interval(J)
        if m == 0 or not lo < hi or (lo, hi) == w.support:
            return GapPolynomial(np.eye(m + 1)[m if lo < hi else 0], m, shown)
        if engine == "fourier":
            return _fourier_gap(m, 0.5 * (min(J[1], math.pi) - max(J[0], -math.pi)), shown)
        if engine == "gram":
            return _gram_gap(w, m, (lo, hi), shown)
        if lo == -hi:
            return _odd_gap(_odd_parts(law.root, m, hi), shown, "direct")
    raise NoExactEngine(
        f"no exact engine for the law beta={law.beta}, n={m}, "
        f"{w.shape}(a={w.a:g}, b={w.b:g}) on {shown}"
    )


# -- brute force, n <= 4 -------------------------------------------------------------


_BRUTE_LADDER = {
    1: (32, 48, 72, 96),
    2: (16, 24, 36, 48),
    3: (10, 14, 20, 27, 36),
    4: (7, 10, 13, 17, 22, 28, 36),
}


@lru_cache(maxsize=64)
def _brute_distribution(
    w1: AdmissibleWeight, n: int, lo: float, hi: float, tol: float
) -> tuple[float, ...]:
    slo, shi = w1.support
    edges = [slo, *(e for e in (lo, hi) if slo < e < shi), shi]
    mid = edges.index(lo)  # the segment that starts at lo is J

    def log_density(xs: np.ndarray) -> np.ndarray:
        return log_p_beta_batch(w1, 1, xs)

    def probs_at(order: int) -> np.ndarray:
        label = lambda segs: segs.count(mid)  # the placement's count in J
        nums = _placement_masses(w1, log_density, edges, n, label, n + 1, order)
        return nums / nums.sum()

    return tuple(float(p) for p in _settle(probs_at, _BRUTE_LADDER[n], tol, 1e-6))


def gap_oe_bruteforce(
    w1: AdmissibleWeight, n: int, J: tuple[float, float], k: int, tol: float = 1e-6
) -> float:
    """E(k; J) for n <= 4 points at beta = 1 by direct ordered quadrature.

    Splits the support at the interval endpoints, sums the placement
    integrals (``densities._placement_masses``) by their count in J, and
    self-normalizes, escalating the per-dimension order until successive
    ladder levels agree to ``tol``.
    """
    if not 1 <= n <= 4:
        raise BadParameter("brute force is limited to 1 <= n <= 4")
    if not J[0] < J[1]:
        raise BadParameter(f"empty interval {J}")
    if k < 0 or k > n:
        return 0.0
    slo, shi = w1.support
    lo, hi = max(float(J[0]), slo), min(float(J[1]), shi)
    if lo >= hi:
        return float(k == 0)
    if lo <= slo and hi >= shi:
        return float(k == n)
    return _brute_distribution(w1, n, lo, hi, tol)[k]


# -- gap identity checkers -----------------------------------------------------------


def _z_or_residual(
    name: str,
    lhs: float,
    rhs: float,
    var: float,
    count: int,
    exact_lhs: bool = False,
) -> tuple[str, str, float, float, float, float]:
    """z subtest against the sampling error.  Where the delta-method ``var``
    is 0 (a sample pinned at 0 or 1) the variance is p(1 - p)/count at the
    exact side p, ``rhs`` or, if ``exact_lhs``, ``lhs``; the test falls back
    to an exact residual only when that p is 0 or 1 too."""
    if var <= 0.0:
        p = lhs if exact_lhs else rhs
        var = p * (1.0 - p) / count
    if var <= 0.0:
        return (name, "residual", abs(lhs - rhs), 1e-9, lhs, rhs)
    return (name, "z", abs(lhs - rhs) / math.sqrt(var), _Z_TOL, lhs, rhs)


def check_thm_gap(
    w1: AdmissibleWeight | str,
    n: int,
    k: int,
    s: float,
    a: float | None = None,
    count: int = 100_000,
    seed: int = 11,
    workers: int = 1,
) -> VerificationReport:
    """Sum of two adjacent beta = 1 gap probabilities on (-s, s) against the
    exact chiral beta = 2 gap on (0, s).

    Odd n compares two exact engines; even n compares a Monte Carlo count
    (and, for n <= 4, the brute-force quadrature) against the exact side.
    """
    w = make_weight(w1, a) if isinstance(w1, str) else w1
    mu = n % 2
    m = n // 2
    rhs = gap_chue_exact(w, mu, m, s).prob(k)
    checks = []
    if mu == 1:
        poly = gap_oe_odd_exact(w, n, s)
        lhs = poly.prob(2 * k + mu - 1) + poly.prob(2 * k + mu)
        checks.append(("exact_vs_exact", "residual", abs(lhs - rhs), 1e-8, lhs, rhs))
    else:
        est = gap_mc(EnsembleSpec("OE", n, w), (-s, s), n, count, seed, workers=workers)
        lhs, se = est.sum_prob([2 * k - 1, 2 * k])
        checks.append(_z_or_residual("mc_vs_exact", lhs, rhs, se * se, count))
        if n <= 4:
            bl = gap_oe_bruteforce(w, n, (-s, s), 2 * k - 1) + gap_oe_bruteforce(
                w, n, (-s, s), 2 * k
            )
            checks.append(("brute_vs_exact", "residual", abs(bl - rhs), 1e-5, bl, rhs))
    params = {"family": w.family, "a": w.a, "n": n, "k": k, "s": s, "count": count, "seed": seed}
    return build_report("thm_gap", params, checks=checks)


def check_B1_structure(
    w1: AdmissibleWeight | str,
    n: int,
    s: float,
    a: float | None = None,
) -> VerificationReport:
    """Structure of the odd-n beta = 1 generating function.

    Checks that direct and Gaudin assemblies agree, that both start from the
    half-mass constant at xi = 0, that the eigenvalue product matches the
    chiral beta = 2 generating function under the xi -> 2 xi - xi^2
    substitution, and that the remainder after subtracting that even part is
    xi times a polynomial of degree at most m in 2 xi - xi^2 (fitted on m+1
    nodes, verified on a dense grid including the mirrored branch).  Both
    assemblies and the eigenvalues come from one ``_odd_parts`` build.
    """
    w = make_weight(w1, a) if isinstance(w1, str) else w1
    if n < 1 or n % 2 == 0:
        raise BadParameter("structure check needs odd n")
    m = (n - 1) // 2
    parts = _odd_parts(w, n, s)
    direct = _odd_gap(parts, (-float(s), float(s)), "direct")
    gaud = _odd_gap(parts, (-float(s), float(s)), "gaudin")
    grid = np.linspace(0.0, 2.0, 81)

    checks = [
        (
            "mode_agreement",
            "residual",
            float(np.max(np.abs(direct.coeffs - gaud.coeffs))),
            1e-9,
            None,
            None,
        ),
        ("direct_theta", "residual", direct.meta["theta_residual"], 1e-9, None, None),
        ("gaudin_theta", "residual", gaud.meta["theta_residual"], 1e-9, None, None),
    ]

    if m:
        nus = _gaudin_from_gram(parts.G).nus
        even_part = lambda zz: np.prod(1.0 - np.multiply.outer(np.asarray(zz), nus), axis=-1)
        chue = gap_chue_exact(w, 1, m, s)
        match = float(np.max(np.abs(even_part(grid) - chue.generating_function(grid))))
        checks.append(("even_part_vs_chiral", "residual", match, 1e-9, None, None))
    else:
        even_part = lambda zz: np.ones_like(np.asarray(zz, dtype=float))

    nodes = (np.arange(m + 1) + 1.0) / (m + 1)
    zn = 2.0 * nodes - nodes**2
    rhsv = (direct.generating_function(nodes) - even_part(zn)) / nodes
    fcoef = np.linalg.solve(np.vander(zn, m + 1, increasing=True), rhsv)
    zg = 2.0 * grid - grid**2
    recon = even_part(zg) + grid * np.polynomial.polynomial.polyval(zg, fcoef)
    resid = float(np.max(np.abs(direct.generating_function(grid) - recon)))
    checks.append(("structure_residual", "residual", resid, 1e-9, None, None))

    params = {"family": w.family, "a": w.a, "n": n, "s": s}
    return build_report("b1", params, checks=checks)


# -- superposition weight pairs ------------------------------------------------------


@dataclass(frozen=True)
class WeightPair:
    """A beta = 1 base weight w1 and the classical beta = 2 weight its
    superposition decimates to, on the support of ``w2``.

    ``w1sq`` is w1^2 as a classical weight, so a beta = 1 run of size n is
    the law (1, n, w1sq) of ``samplers.sample_law``: density
    prod w1 |Vdm|.  ``exponents`` holds the family's parameters that the
    weights use, for the report.
    """

    name: str
    w2: ClassicalWeight
    w1sq: ClassicalWeight
    exponents: Mapping[str, float] = field(default_factory=dict, hash=False)

    @property
    def support(self) -> tuple[float, float]:
        return self.w2.support


def _finite_runs(identity: str, pair: WeightPair, size: int) -> WeightPair:
    """``pair`` once the law table finds its beta = 1 run law (1, size, w1sq)
    of finite mass; otherwise the table's BadParameter, naming ``identity``
    and the pair's exponents."""
    try:
        _law_draw(1, size, pair.w1sq)
    except BadParameter as exc:
        given = "".join(f", {k}={v:g}" for k, v in pair.exponents.items())
        raise BadParameter(f"{identity} {pair.name} pair{given}: {exc}") from None
    return pair


def pair_for_24(family: str, a: float = 1.0) -> WeightPair:
    """Same-size superposition rows: Laguerre and shifted Jacobi.  Their
    runs' mass does not depend on the size, so size 1 stands for every n."""
    if family == "laguerre":
        pair = WeightPair("laguerre", ClassicalWeight("laguerre"), ClassicalWeight("laguerre"))
    elif family == "jacobi":
        w1sq = ClassicalWeight("jacobi", a - 1.0, 0.0, (0.0, 1.0))
        pair = WeightPair("jacobi", ClassicalWeight("jacobi", a, 0.0, (0.0, 1.0)), w1sq, {"a": a})
    else:
        raise BadParameter(f"no same-size superposition row for {family!r}")
    return _finite_runs("eq24", pair, 1)


def pair_for_24cp(family: str, n: int, a: float = 1.0, b: float = 1.0) -> WeightPair:
    """Adjacent-size superposition rows: Gauss, Laguerre, Jacobi, Cauchy.  The
    size-(n+1) run is the one whose mass the table checks."""
    if family == "gauss":
        pair = WeightPair("gauss", ClassicalWeight("hermite"), ClassicalWeight("hermite"))
    elif family == "laguerre":
        w1sq = ClassicalWeight("laguerre", b=a - 1.0)
        pair = WeightPair("laguerre", ClassicalWeight("laguerre", b=a), w1sq, {"a": a})
    elif family == "jacobi":
        w1sq = ClassicalWeight("jacobi", b - 1.0, a - 1.0)
        pair = WeightPair("jacobi", ClassicalWeight("jacobi", b, a), w1sq, {"a": a, "b": b})
    elif family == "cauchy":
        w1sq = ClassicalWeight("romanovski", n + a + 1.0)
        pair = WeightPair("cauchy", ClassicalWeight("romanovski", n + a), w1sq, {"a": a})
    else:
        raise BadParameter(f"no adjacent-size superposition row for {family!r}")
    return _finite_runs("eq24cp", pair, n + 1)


def _count_probs(spectra: np.ndarray, J: tuple[float, float]) -> np.ndarray:
    """Categorical in-J count probabilities, one slot per possible count."""
    inside = (spectra > J[0]) & (spectra < J[1])
    return np.bincount(np.sum(inside, axis=1), minlength=spectra.shape[1] + 1) / spectra.shape[0]


def _linear_var(p: np.ndarray, coef: np.ndarray, count: int) -> float:
    """Variance of coef . p_hat under the multinomial law of p_hat."""
    mean = float(coef @ p)
    return (float(coef**2 @ p) - mean * mean) / count


# Count labels L(i, j): each superposition identity reads E2(k) = P(L(i, j) = k)
# for the independent in-J counts i, j of its two beta = 1 runs.
_COUNT_LABELS = {
    "eq24": lambda i, j: (i + j + 1) // 2,
    "eq24cp": lambda i, j: (i + j) // 2,
    "eq831p": lambda i, j: (i + 1) // 2 + j // 2,
}


def _label_convolution(
    pA: np.ndarray, pB: np.ndarray, identity: str, k: int, count: int
) -> tuple[float, float]:
    """rhs = P(L(i, j) = k) for independent counts i ~ pA, j ~ pB, and its
    delta-method variance when pA and pB are the count frequencies of two
    independent runs of ``count`` rows each."""
    i, j = np.ogrid[: pA.size, : pB.size]
    M = (_COUNT_LABELS[identity](i, j) == k).astype(float)
    MpB = M @ pB
    return float(pA @ MpB), _linear_var(pA, MpB, count) + _linear_var(pB, M.T @ pA, count)


def _check_pair_convolution(
    identity: str,
    pair: WeightPair,
    n: int,
    n_b: int,
    ks: list[int],
    svals: list[float],
    side: str,
    count: int,
    seed: int,
    workers: int,
) -> list[tuple]:
    """Subtests of the exact UE gap on each boundary-anchored interval against
    the label convolution of two independent beta = 1 runs of sizes n and n_b."""
    seed_a, seed_b = _substreams(seed, 2)
    runA = sample_law(1, n, pair.w1sq, count, seed_a, workers).spectra
    runB = sample_law(1, n_b, pair.w1sq, count, seed_b, workers).spectra
    checks = []
    for si in svals:
        J = (pair.support[0], si) if side == "left" else (si, pair.support[1])
        pA = _count_probs(runA, J)
        pB = _count_probs(runB, J)
        poly = gap_ue_exact(pair.w2, n, J)
        for ki in ks:
            rhs, var = _label_convolution(pA, pB, identity, ki, count)
            checks.append(
                _z_or_residual(f"k={ki}_s={si:g}", poly.prob(ki), rhs, var, count, exact_lhs=True)
            )
    return checks


def check_identity_24(
    pair: WeightPair,
    n: int,
    k: int | Sequence[int],
    s: float | Sequence[float],
    count: int = 100_000,
    seed: int = 23,
    workers: int = 1,
) -> VerificationReport:
    """Exact beta = 2 gap on a left-anchored interval against the convolution
    of counting probabilities from two independent same-size beta = 1 runs:
    E2(k) = P((i + j + 1) // 2 = k) for the in-J counts i, j.

    Vector ``k`` / ``s`` values share the same two Monte Carlo runs.
    """
    ks = [int(v) for v in np.atleast_1d(k)]
    svals = [float(v) for v in np.atleast_1d(s)]
    checks = _check_pair_convolution("eq24", pair, n, n, ks, svals, "left", count, seed, workers)
    params = {"pair": pair.name, **pair.exponents, "n": n, "k": ks, "s": svals,
              "count": count, "seed": seed}
    return build_report("eq24", params, checks=checks)


def check_identity_24cp(
    pair: WeightPair,
    n: int,
    k: int | Sequence[int],
    s: float | Sequence[float],
    side: str = "left",
    count: int = 100_000,
    seed: int = 29,
    workers: int = 1,
) -> VerificationReport:
    """Exact beta = 2 gap on a boundary-anchored interval against the
    convolution of counting probabilities from independent beta = 1 runs of
    adjacent sizes n and n + 1: E2(k) = P((i + j) // 2 = k)."""
    if side not in ("left", "right"):
        raise BadParameter("side must be 'left' or 'right'")
    ks = [int(v) for v in np.atleast_1d(k)]
    svals = [float(v) for v in np.atleast_1d(s)]
    checks = _check_pair_convolution(
        "eq24cp", pair, n, n + 1, ks, svals, side, count, seed, workers
    )
    params = {
        "pair": pair.name,
        **pair.exponents,
        "n": n,
        "k": ks,
        "s": svals,
        "side": side,
        "count": count,
        "seed": seed,
    }
    return build_report("eq24cp", params, checks=checks)


# -- circular checkers ---------------------------------------------------------------


def check_8_31p(
    n: int,
    k: int | Sequence[int],
    theta: float,
    count: int = 100_000,
    seed: int = 31,
    workers: int = 1,
) -> VerificationReport:
    """Exact circular beta = 2 gap against the convolution of adjacent-count
    sums from two independent circular beta = 1 runs on (-theta, theta):
    E2(k) = P((i + 1) // 2 + j // 2 = k).

    Vector ``k`` values share the same two Monte Carlo runs.
    """
    if not 0.0 < theta <= math.pi:
        raise BadParameter("theta must lie in (0, pi]")
    ks = [int(v) for v in np.atleast_1d(k)]
    poly = gap_cue_exact(n, theta)
    seed_a, seed_b = _substreams(seed, 2)
    spec, J = EnsembleSpec("COE", n), (-theta, theta)
    pA = _count_probs(sample_ensemble(spec, count, seed_a, workers=workers).spectra, J)
    pB = _count_probs(sample_ensemble(spec, count, seed_b, workers=workers).spectra, J)
    checks = []
    for ki in ks:
        rhs, var = _label_convolution(pA, pB, "eq831p", ki, count)
        checks.append(_z_or_residual(f"k={ki}", poly.prob(ki), rhs, var, count, exact_lhs=True))
    params = {"n": n, "k": ks, "theta": theta, "count": count, "seed": seed}
    return build_report("eq831p", params, checks=checks)


def check_thm_D4(
    n: int,
    k: int | Sequence[int],
    theta: float,
    count: int = 100_000,
    seed: int = 37,
    workers: int = 1,
) -> VerificationReport:
    """Adjacent-count sums of circular beta = 1 gaps against the two exact
    chiral gaps of the tangent-half-angle image.

    The COE law of order n is the beta = 1 Romanovski law w1^2 of
    x = tan(theta/2) (``samplers.law_of``); the chiral gaps are those of w1,
    a Cauchy weight, on (0, tan(theta/2)); the first relation uses the even
    chiral width, the second the odd one.  Vector ``k`` values share the
    same Monte Carlo run.
    """
    if not 0.0 < theta < math.pi:
        raise BadParameter("theta must lie in (0, pi)")
    ks = [int(v) for v in np.atleast_1d(k)]
    mu = n % 2
    law = law_of("COE", n)
    w1, s = law.root, law.interval((-theta, theta))[1]
    poly1 = gap_chue_exact(w1, mu, n // 2, s)
    poly2 = gap_chue_exact(w1, 1 - mu, (n + 1) // 2, s)

    est = gap_mc(EnsembleSpec("COE", n), (-theta, theta), n, count, seed, workers=workers)
    checks = []
    for ki in ks:
        lhs1, se1 = est.sum_prob([2 * ki - 1 + mu, 2 * ki + mu])
        lhs2, se2 = est.sum_prob([2 * ki - mu, 2 * ki + 1 - mu])
        checks.append(_z_or_residual(f"even_sector_k={ki}", lhs1, poly1.prob(ki), se1 * se1, count))
        checks.append(_z_or_residual(f"odd_sector_k={ki}", lhs2, poly2.prob(ki), se2 * se2, count))
    params = {"n": n, "k": ks, "theta": theta, "count": count, "seed": seed}
    return build_report("thmD4", params, checks=checks)
