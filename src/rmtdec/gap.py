"""Gap probabilities: exact determinant engines, Monte Carlo counting, and
identity checkers.

E(k; J) is the probability that exactly k points of an ensemble fall in the
interval J.  For beta = 2 ensembles the full vector E(0..n) comes from the
eigenvalues of the Gram matrix of the first n orthonormal polynomials over J
(or the Fourier Gram for circular ensembles).  For beta = 1 at odd n the
generating function is a bordered (m+1) x (m+1) determinant, evaluated
either from its direct entries or after Gaudin diagonalization of the
restricted Gram block; both modes must agree.  A brute-force ordered
quadrature covers n <= 4, and gap_mc counts samples for everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .densities import _support_tensor, log_p_beta_batch
from .errors import BadParameter, NonConvergence
from .numerics import (
    QuadratureRule,
    chebyshev_nodes,
    composite_gl_rule,
    integrate,
    poly_from_samples,
    sym_eigen,
    tan_transformed_rule,
)
from .orthopoly import _probe_moment, build, gram, squared_argument_rule
from .samplers import (
    EnsembleSpec,
    McmcParams,
    sample_beta_jacobi,
    sample_beta_laguerre,
    sample_ensemble,
    sample_gaussian_matrix,
    sample_mcmc,
)
from .verify import VerificationReport, build_report
from .weights import AdmissibleWeight, from_table1, make_weight, theta1

__all__ = [
    "GapPolynomial",
    "GaudinData",
    "GapEstimate",
    "WeightPair",
    "gap_mc",
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
    params: McmcParams | None = None,
) -> GapEstimate:
    """Estimate E(k; J) for k = 0..k_max by counting sampled points in J."""
    if not J[0] < J[1]:
        raise BadParameter(f"empty interval {J}")
    batch = sample_ensemble(spec, count, seed, workers=workers, params=params)
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


def gap_ue_exact(
    w2: AdmissibleWeight | Callable[[np.ndarray], np.ndarray],
    n: int,
    J: tuple[float, float],
    support: tuple[float, float] | None = None,
) -> GapPolynomial:
    """Exact E(0..n; J) for n eigenvalues with joint density prod w2 |Vdm|^2.

    ``w2`` is an admissible weight (its squared-base weight is used) or a
    plain callable with an explicit ``support``.
    """
    if isinstance(w2, AdmissibleWeight):
        fn, supp = w2.w2, w2.support
    else:
        if support is None:
            raise BadParameter("a callable weight needs an explicit support")
        fn, supp = w2, support
    if n < 1:
        raise BadParameter("need at least one eigenvalue")
    sys = build(fn, supp, n - 1)
    G = gram(sys, J, list(range(n)))
    lams, _ = sym_eigen(G)
    return GapPolynomial(_bernoulli_coeffs(lams), n, (float(J[0]), float(J[1])))


def _squared_rules(
    omega: float, s: float, order_rule: int = 16
) -> tuple[QuadratureRule, QuadratureRule]:
    """Pushforward rules under u = x^2 for the build and the Gram restriction."""
    if math.isinf(omega):
        base = tan_transformed_rule(0.0, math.inf, 125, order_rule)
    else:
        base = composite_gl_rule(0.0, omega, 125, order_rule)
    grambase = composite_gl_rule(0.0, s, 64, order_rule)
    return squared_argument_rule(base), squared_argument_rule(grambase)


def gap_chue_exact(
    w2: AdmissibleWeight | Callable[[np.ndarray], np.ndarray],
    mu: int,
    m: int,
    s: float,
    support: tuple[float, float] | None = None,
) -> GapPolynomial:
    """Exact E(0..m; (0, s)) for m positive points with density
    prod x^(2 mu) w2(x) * Vdm(x^2)^2.

    Mapped to u = x^2 the weight is u^(mu - 1/2) w2(sqrt u); the pushforward
    quadrature keeps every evaluation at u > 0, so the half-integer power at
    the origin never enters, and the polynomial system is built only to
    degree m - 1 (heavy-tailed images have no higher moments to spare).
    On infinite support the u-moment of order 2(m - 1) is probed first, as
    ``build`` does by default; a divergent one raises MomentDivergence.
    """
    if mu not in (0, 1):
        raise BadParameter("mu must be 0 or 1")
    if m < 0:
        raise BadParameter("m must be nonnegative")
    if not s > 0.0:
        raise BadParameter("need s > 0")
    if m == 0:
        return GapPolynomial(np.array([1.0]), 0, (0.0, float(s)))
    if isinstance(w2, AdmissibleWeight):
        fn, omega = w2.w2, w2.omega
    else:
        if support is None:
            raise BadParameter("a callable weight needs an explicit support")
        fn, omega = w2, support[1]
    if math.isinf(omega):
        _probe_moment(lambda x: x ** (2 * mu) * fn(x), (0.0, omega), 2 * (m - 1))

    def mapped(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return u ** (mu - 0.5) * fn(np.sqrt(u))

    build_rule, gram_rule = _squared_rules(omega, s)
    sys = build(mapped, (0.0, omega**2), m - 1, rule=build_rule)
    G = gram(sys, (0.0, s**2), list(range(m)), rule=gram_rule)
    lams, _ = sym_eigen(G)
    return GapPolynomial(_bernoulli_coeffs(lams), m, (0.0, float(s)))


def gap_cue_exact(n: int, theta: float) -> GapPolynomial:
    """Exact E(0..n; (-theta, theta)) for the n circular unitary angles.

    Uses the Fourier Gram sin((j - k) theta) / (pi (j - k)) with diagonal
    theta / pi.
    """
    if n < 1:
        raise BadParameter("need at least one angle")
    if not 0.0 < theta <= math.pi:
        raise BadParameter("theta must lie in (0, pi]")
    j = np.arange(n, dtype=float)
    diff = j[:, None] - j[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        G = np.sin(diff * theta) / (np.pi * diff)
    np.fill_diagonal(G, theta / np.pi)
    lams, _ = sym_eigen(G)
    return GapPolynomial(_bernoulli_coeffs(lams), n, (-float(theta), float(theta)))


# -- beta = 1, odd n: bordered determinant ------------------------------------------


@dataclass(frozen=True)
class _OddParts:
    """s-dependent ingredients of the bordered determinant."""

    m: int
    theta: float
    th1s: float
    comp_s: float
    p_s: np.ndarray  # p_{2k-1}(s)
    T0: np.ndarray  # int_0^omega w1 p_{2k-1}
    Ts: np.ndarray  # int_s^omega w1 p_{2k-1}
    U: np.ndarray  # 2 int_0^omega theta1 w1 p_{2k-1}
    V: np.ndarray  # int_{-s}^s w1(x) int_x^omega w1 p_{2k-1}
    G: np.ndarray  # 2 int_0^s w2 p_{2j-1} p_{2k-1}


def _w1_integral(
    w1: AdmissibleWeight, f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: float, hi: float
) -> float:
    """int_lo^hi f(x, w1(x)) dx.

    On the finite Jacobi support the integral is taken in t with x = sin t,
    where w1(x) dx = cos(t)^(2a+1) dt, as in ``densities._support_tensor``:
    the (1 - x^2)^a endpoint singularity, on which ``integrate`` stalls for
    a < 0, becomes the power cos(t)^(2a+1), which ``integrate`` resolves by
    bisection.  Nodes within about 1e-8 of t = pi/2, where sin t rounds to
    1, are moved to the largest float below 1 so that f stays on the
    support.
    """
    if math.isinf(w1.omega):
        return integrate(lambda x: f(x, w1.w1(x)), (lo, hi), tol=1e-12)
    p = 2.0 * w1.a + 1.0
    below_one = np.nextafter(1.0, 0.0)

    def in_t(t: np.ndarray) -> np.ndarray:
        return f(np.clip(np.sin(t), -below_one, below_one), np.cos(t) ** p)

    return integrate(in_t, (math.asin(lo), math.asin(hi)), tol=1e-12)


def _odd_parts(w1: AdmissibleWeight, n: int, s: float) -> _OddParts:
    if n < 1 or n % 2 == 0:
        raise BadParameter("the bordered determinant needs odd n >= 1")
    if not 0.0 < s < w1.omega:
        raise BadParameter(f"need 0 < s < {w1.omega}")
    m = (n - 1) // 2
    theta = w1.theta
    th1s = float(theta1(w1, s))
    comp_s = float(w1.companion(s))
    if m == 0:
        z = np.zeros(0)
        return _OddParts(0, theta, th1s, comp_s, z, z, z, z, z, np.zeros((0, 0)))

    sys = build(w1.w2, w1.support, 2 * m - 1)
    odd_idx = list(range(1, 2 * m, 2))
    p_s = sys.evaluate(np.array([s]), odd_idx)[:, 0]

    def pk(x: np.ndarray, row: int) -> np.ndarray:
        return sys.evaluate(np.atleast_1d(x), [odd_idx[row]])[0]

    omega = w1.omega
    T0 = np.array([_w1_integral(w1, lambda x, wx, r=r: wx * pk(x, r), 0.0, omega) for r in range(m)])
    Ts = np.array([_w1_integral(w1, lambda x, wx, r=r: wx * pk(x, r), s, omega) for r in range(m)])
    U = 2.0 * np.array(
        [
            _w1_integral(w1, lambda x, wx, r=r: theta1(w1, x) * wx * pk(x, r), 0.0, omega)
            for r in range(m)
        ]
    )
    inner = np.array(
        [
            _w1_integral(w1, lambda t, wt, r=r: wt * pk(t, r) * (th1s - theta1(w1, t)), 0.0, s)
            for r in range(m)
        ]
    )
    V = 2.0 * th1s * T0 - 2.0 * inner
    G = gram(sys, (-s, s), odd_idx)
    return _OddParts(m, theta, th1s, comp_s, p_s, T0, Ts, U, V, G)


def _det_direct(parts: _OddParts, xi: float) -> float:
    m = parts.m
    z = 2.0 * xi - xi * xi
    Y = np.empty((m + 1, m + 1))
    Y[0, :m] = parts.U - z * parts.V + 2.0 * xi * (1.0 - xi) * parts.th1s * parts.Ts
    Y[0, m] = parts.theta - xi * parts.th1s
    if m:
        Y[1:, :m] = (
            2.0 * xi * parts.comp_s * np.outer(parts.p_s, parts.Ts)
            - np.eye(m)
            + z * parts.G
        )
        Y[1:, m] = xi * parts.comp_s * parts.p_s
    return float(np.linalg.det(Y))


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


def _det_gaudin(gp: _GaudinParts, xi: float) -> float:
    m = gp.m
    z = 2.0 * xi - xi * xi
    Y = np.zeros((m + 1, m + 1))
    Y[0, :m] = gp.Uq - 2.0 * gp.theta * gp.Tsq - z * (gp.Vq - 2.0 * gp.th1s * gp.Tsq)
    Y[0, m] = gp.theta - xi * gp.th1s
    if m:
        Y[np.arange(1, m + 1), np.arange(m)] = -1.0 + z * gp.nus
        Y[1:, m] = xi * gp.comp_s * gp.q_s
    return float(np.linalg.det(Y))


def _extract_coeffs(detfn: Callable[[float], float], n: int) -> tuple[np.ndarray, float]:
    """Fit the normalized determinant at Chebyshev nodes on [0, 2].

    The determinant has xi-degree at most n + 1 but the generating function
    has degree n; the top fitted coefficient must be interpolation noise.
    Returns the coefficient vector and det at xi = 0.
    """
    det0 = detfn(0.0)
    if not det0 > 0.0:
        raise NonConvergence(f"determinant at xi = 0 is {det0}, expected positive")
    nodes = chebyshev_nodes(n + 2, 0.0, 2.0)
    vals = np.array([detfn(x) for x in nodes]) / det0
    poly = poly_from_samples(nodes, vals, basis="one-minus-xi")
    c = poly.coeffs
    if abs(c[-1]) > 1e-8:
        raise NonConvergence(f"generating function overflows degree {n}: {c[-1]}")
    return c[:-1], det0


def gap_oe_odd_exact(
    w1: AdmissibleWeight, n: int, s: float, mode: str = "direct"
) -> GapPolynomial:
    """Exact E(0..n; (-s, s)) for n = 2m + 1 points at beta = 1.

    ``mode`` picks the determinant assembly: "direct" uses the raw bordered
    entries, "gaudin" first diagonalizes the restricted Gram block.  The two
    agree to engine precision and are cross-checked by check_B1_structure.
    The determinant at xi = 0 equals the half-mass constant exactly; its
    numerical residual is recorded in ``meta`` and enforced loosely.
    """
    if mode not in ("direct", "gaudin"):
        raise BadParameter(f"unknown mode {mode!r}")
    parts = _odd_parts(w1, n, s)
    if mode == "direct":
        detfn = lambda xi: _det_direct(parts, xi)
    else:
        gp = _gaudin_parts(parts)
        detfn = lambda xi: _det_gaudin(gp, xi)
    coeffs, det0 = _extract_coeffs(detfn, n)
    resid = abs(det0 - parts.theta) / parts.theta
    if resid > 1e-6:
        raise NonConvergence(f"det at xi = 0 is off the half mass by {resid}")
    return GapPolynomial(
        coeffs, n, (-float(s), float(s)), meta={"mode": mode, "theta_residual": resid}
    )


def gaudin_data(w1: AdmissibleWeight, n: int, s: float) -> GaudinData:
    """Eigen-decomposition of the restricted odd-degree Gram block."""
    parts = _odd_parts(w1, n, s)
    if parts.m == 0:
        raise BadParameter("n = 1 has no odd-degree block to diagonalize")
    return _gaudin_from_gram(parts.G)


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

    prev = None
    for order in _BRUTE_LADDER[n]:
        nums = np.zeros(n + 1)
        for counts in _compositions(n, len(edges) - 1):
            nums[counts[mid]] += _support_tensor(w1, log_density, edges, counts, order)
        probs = nums / nums.sum()
        if prev is not None and np.all(
            np.abs(probs - prev) <= tol * np.maximum(probs, 1e-6)
        ):
            return tuple(float(p) for p in probs)
        prev = probs
    raise NonConvergence("ordered quadrature did not settle on the order ladder")


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, parts - 1):
            yield (head,) + rest


def gap_oe_bruteforce(
    w1: AdmissibleWeight, n: int, J: tuple[float, float], k: int, tol: float = 1e-6
) -> float:
    """E(k; J) for n <= 4 points at beta = 1 by direct ordered quadrature.

    Splits the support at the interval endpoints, sums composition-wise
    tensor integrals, and self-normalizes, escalating the per-dimension
    order until successive ladder levels agree to ``tol``.
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
    z_tol: float = 3.0,
) -> tuple[str, str, float, float, float, float]:
    """z subtest against the sampling error; exact-residual fallback when the
    estimator is degenerate (both sides pinned at 0 or 1)."""
    if var <= 0.0:
        var = rhs * (1.0 - rhs) / count
    if var <= 0.0:
        return (name, "residual", abs(lhs - rhs), 1e-9, lhs, rhs)
    return (name, "z", abs(lhs - rhs) / math.sqrt(var), z_tol, lhs, rhs)


def check_thm_gap(
    w1: AdmissibleWeight | str,
    n: int,
    k: int,
    s: float,
    a: float | None = None,
    count: int = 100_000,
    seed: int = 11,
    workers: int = 1,
    bruteforce: bool | None = None,
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
        if bruteforce or (bruteforce is None and n <= 4):
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
    xi_grid: np.ndarray | None = None,
) -> VerificationReport:
    """Structure of the odd-n beta = 1 generating function.

    Checks that direct and Gaudin assemblies agree, that both start from the
    half-mass constant at xi = 0, that the eigenvalue product matches the
    chiral beta = 2 generating function under the xi -> 2 xi - xi^2
    substitution, and that the remainder after subtracting that even part is
    xi times a polynomial of degree at most m in 2 xi - xi^2 (fitted on m+1
    nodes, verified on a dense grid including the mirrored branch).
    """
    w = make_weight(w1, a) if isinstance(w1, str) else w1
    if n < 1 or n % 2 == 0:
        raise BadParameter("structure check needs odd n")
    m = (n - 1) // 2
    direct = gap_oe_odd_exact(w, n, s, mode="direct")
    gaud = gap_oe_odd_exact(w, n, s, mode="gaudin")
    grid = np.linspace(0.0, 2.0, 81) if xi_grid is None else np.asarray(xi_grid, dtype=float)

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
        nus = gaudin_data(w, n, s).nus
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
    """A beta = 1 base weight and the beta = 2 weight its superposition
    decimates to, on a shared support.

    ``exact`` draws sorted beta = 1 rows, (n, count, seed, workers) -> array,
    from a matrix model of the base weight; None leaves Metropolis on
    ``log_w1`` as the only sampler.
    """

    name: str
    support: tuple[float, float]
    log_w1: Callable[[np.ndarray], np.ndarray]
    w2: Callable[[np.ndarray], np.ndarray]
    heavy_tail: bool = False
    exact: Callable[[int, int, int, int], np.ndarray] | None = None


def _laguerre_rows(p: float) -> Callable[[int, int, int, int], np.ndarray]:
    """beta = 1 rows with weight x^p e^(-x/2) on (0, inf)."""
    return lambda n, count, seed, workers: sample_beta_laguerre(
        1, n, p, count, seed, workers
    ).spectra


def _jacobi_rows(A: float, B: float, lo: float) -> Callable[[int, int, int, int], np.ndarray]:
    """beta = 1 rows on (lo, 1), lo = 0 or -1, with weight
    (x - lo)^((A-1)/2) (1 - x)^((B-1)/2) up to a constant."""
    return lambda n, count, seed, workers: lo + (1.0 - lo) * sample_beta_jacobi(
        1, n, A, B, count, seed, workers
    ).spectra


def pair_for_24(family: str, a: float = 1.0) -> WeightPair:
    """Same-size superposition rows: Laguerre and shifted Jacobi."""
    if family == "laguerre":

        def lw1(x: np.ndarray) -> np.ndarray:
            return np.where(x > 0.0, -0.5 * x, -np.inf)

        return WeightPair(
            "laguerre", (0.0, math.inf), lw1, lambda x: np.exp(-x), exact=_laguerre_rows(0.0)
        )
    if family == "jacobi":
        if a <= -1.0:
            raise BadParameter("need a > -1")

        def jw1(x: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):
                v = 0.5 * (a - 1.0) * np.log1p(-x)
            return np.where((x > 0.0) & (x < 1.0), v, -np.inf)

        return WeightPair(
            "jacobi", (0.0, 1.0), jw1, lambda x: (1.0 - x) ** a, exact=_jacobi_rows(1.0, a, 0.0)
        )
    raise BadParameter(f"no same-size superposition row for {family!r}")


def pair_for_24cp(family: str, n: int, a: float = 1.0, b: float = 1.0) -> WeightPair:
    """Adjacent-size superposition rows: Gauss, Laguerre, Jacobi, Cauchy."""
    if family == "gauss":
        return WeightPair(
            "gauss",
            (-math.inf, math.inf),
            lambda x: -0.5 * x * x,
            lambda x: np.exp(-x * x),
            exact=lambda n, count, seed, workers: sample_gaussian_matrix(
                1, n, count, seed, workers
            ).spectra,
        )
    if family == "laguerre":
        if a <= -1.0:
            raise BadParameter("need a > -1")

        def lw1(x: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):
                v = 0.5 * (a - 1.0) * np.log(x) - 0.5 * x
            return np.where(x > 0.0, v, -np.inf)

        return WeightPair(
            "laguerre",
            (0.0, math.inf),
            lw1,
            lambda x: x**a * np.exp(-x),
            exact=_laguerre_rows(0.5 * (a - 1.0)),
        )
    if family == "jacobi":
        if a <= -1.0 or b <= -1.0:
            raise BadParameter("need a, b > -1")

        def jw1(x: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):
                v = 0.5 * (a - 1.0) * np.log1p(x) + 0.5 * (b - 1.0) * np.log1p(-x)
            return np.where((x > -1.0) & (x < 1.0), v, -np.inf)

        return WeightPair(
            "jacobi",
            (-1.0, 1.0),
            jw1,
            lambda x: (1.0 + x) ** a * (1.0 - x) ** b,
            exact=_jacobi_rows(a, b, -1.0),
        )
    if family == "cauchy":
        if a <= 0.0:
            raise BadParameter("need a > 0 so the size-(n+1) batch stays normalizable")
        ex = 0.5 * (n + a + 1.0)
        return WeightPair(
            "cauchy",
            (-math.inf, math.inf),
            lambda x: -ex * np.log1p(x * x),
            lambda x: (1.0 + x * x) ** (-(n + a)),
            heavy_tail=True,
        )
    raise BadParameter(f"no adjacent-size superposition row for {family!r}")


def _pair_log_density(pair: WeightPair, n: int) -> Callable[[np.ndarray], np.ndarray]:
    iu, ju = np.triu_indices(n, k=1)

    def logd(x: np.ndarray) -> np.ndarray:
        out = np.sum(pair.log_w1(x), axis=1)
        if n > 1:
            with np.errstate(divide="ignore"):
                out = out + np.sum(np.log(np.abs(x[:, ju] - x[:, iu])), axis=1)
        return out

    return logd


def _pair_init(pair: WeightPair) -> Callable:
    lo, hi = pair.support
    if math.isinf(lo) and math.isinf(hi):
        return lambda rng, c, n: rng.standard_normal((c, n))
    if math.isinf(hi):
        return lambda rng, c, n: lo + np.abs(rng.standard_normal((c, n))) + 0.05
    span = hi - lo
    return lambda rng, c, n: rng.uniform(lo + 0.05 * span, hi - 0.05 * span, (c, n))


def _pair_batch(pair: WeightPair, n: int, count: int, seed: int, workers: int) -> np.ndarray:
    """One beta = 1 run for a table weight, from its matrix model where it
    has one and by Metropolis otherwise; returns sorted rows."""
    if pair.exact is not None:
        return pair.exact(n, count, seed, workers)
    params = McmcParams(heavy_tail=pair.heavy_tail)
    batch = sample_mcmc(
        _pair_log_density(pair, n), n, count, seed, params=params, init=_pair_init(pair), workers=workers
    )
    return batch.spectra


def _count_probs(spectra: np.ndarray, J: tuple[float, float]) -> np.ndarray:
    """Categorical in-J count probabilities, one slot per possible count."""
    inside = (spectra > J[0]) & (spectra < J[1])
    return np.bincount(np.sum(inside, axis=1), minlength=spectra.shape[1] + 1) / spectra.shape[0]


def _linear_var(p: np.ndarray, coef: np.ndarray, count: int) -> float:
    """Variance of coef . p_hat under the multinomial law of p_hat."""
    mean = float(coef @ p)
    return (float(coef**2 @ p) - mean * mean) / count


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
    of counting probabilities from two independent same-size beta = 1 runs.

    Vector ``k`` / ``s`` values share the same two Monte Carlo runs.
    """
    ks = [int(v) for v in np.atleast_1d(k)]
    svals = [float(v) for v in np.atleast_1d(s)]
    state = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    runA = _pair_batch(pair, n, count, int(state[0]), workers)
    runB = _pair_batch(pair, n, count, int(state[1]), workers)
    checks = []
    for si in svals:
        J = (pair.support[0], si)
        pA = _count_probs(runA, J)
        pB = _count_probs(runB, J)
        poly = gap_ue_exact(pair.w2, n, J, support=pair.support)
        for ki in ks:
            lhs = poly.prob(ki)
            rhs = 0.0
            gA = np.zeros(n + 1)
            gB = np.zeros(n + 1)
            for j in range(0, 2 * ki + 1):
                ia = 2 * ki - j
                fa = pA[ia] if 0 <= ia <= n else 0.0
                fb = (pB[j] if j <= n else 0.0) + (pB[j - 1] if 1 <= j <= n + 1 else 0.0)
                rhs += fa * fb
                if 0 <= ia <= n:
                    gA[ia] += fb
                if j <= n:
                    gB[j] += fa
                if 1 <= j <= n + 1 and j - 1 <= n:
                    gB[j - 1] += fa
            var = _linear_var(pA, gA, count) + _linear_var(pB, gB, count)
            checks.append(_z_or_residual(f"k={ki}_s={si:g}", lhs, rhs, var, count))
    params = {"pair": pair.name, "n": n, "k": ks, "s": svals, "count": count, "seed": seed}
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
    adjacent sizes n and n + 1."""
    if side not in ("left", "right"):
        raise BadParameter("side must be 'left' or 'right'")
    ks = [int(v) for v in np.atleast_1d(k)]
    svals = [float(v) for v in np.atleast_1d(s)]
    state = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    runA = _pair_batch(pair, n, count, int(state[0]), workers)
    runB = _pair_batch(pair, n + 1, count, int(state[1]), workers)
    checks = []
    for si in svals:
        J = (pair.support[0], si) if side == "left" else (si, pair.support[1])
        pA = _count_probs(runA, J)
        pB = _count_probs(runB, J)
        poly = gap_ue_exact(pair.w2, n, J, support=pair.support)
        for ki in ks:
            lhs = poly.prob(ki)
            rhs = 0.0
            gA = np.zeros(n + 1)
            gB = np.zeros(n + 2)
            for j in range(0, 2 * ki + 2):
                ia = 2 * ki + 1 - j
                fa = pA[ia] if 0 <= ia <= n else 0.0
                fb = (pB[j] if j <= n + 1 else 0.0) + (
                    pB[j - 1] if 1 <= j <= n + 2 else 0.0
                )
                rhs += fa * fb
                if 0 <= ia <= n:
                    gA[ia] += fb
                if j <= n + 1:
                    gB[j] += fa
                if 1 <= j <= n + 2 and j - 1 <= n + 1:
                    gB[j - 1] += fa
            var = _linear_var(pA, gA, count) + _linear_var(pB, gB, count)
            checks.append(_z_or_residual(f"k={ki}_s={si:g}", lhs, rhs, var, count))
    params = {
        "pair": pair.name,
        "n": n,
        "k": ks,
        "s": svals,
        "side": side,
        "count": count,
        "seed": seed,
    }
    return build_report("eq24cp", params, checks=checks)


# -- circular checkers ---------------------------------------------------------------


def _coe_counts(n: int, theta: float, count: int, seed: int, workers: int) -> np.ndarray:
    batch = sample_ensemble(EnsembleSpec("COE", n), count, seed, workers=workers)
    inside = (batch.spectra > -theta) & (batch.spectra < theta)
    return np.bincount(np.sum(inside, axis=1), minlength=n + 1) / count


def check_8_31p(
    n: int,
    k: int | Sequence[int],
    theta: float,
    count: int = 100_000,
    seed: int = 31,
    workers: int = 1,
) -> VerificationReport:
    """Exact circular beta = 2 gap against the convolution of adjacent-count
    sums from two independent circular beta = 1 runs on (-theta, theta).

    Vector ``k`` values share the same two Monte Carlo runs.
    """
    if not 0.0 < theta <= math.pi:
        raise BadParameter("theta must lie in (0, pi]")
    ks = [int(v) for v in np.atleast_1d(k)]
    poly = gap_cue_exact(n, theta)
    state = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    pA = _coe_counts(n, theta, count, int(state[0]), workers)
    pB = _coe_counts(n, theta, count, int(state[1]), workers)

    def pval(p: np.ndarray, i: int) -> float:
        return p[i] if 0 <= i <= n else 0.0

    checks = []
    for ki in ks:
        lhs = poly.prob(ki)
        cA = np.array(
            [pval(pA, 2 * (ki - j)) + pval(pA, 2 * (ki - j) - 1) for j in range(n + 1)]
        )
        cB = np.array([pval(pB, 2 * j) + pval(pB, 2 * j + 1) for j in range(n + 1)])
        rhs = float(cA @ cB)
        gA = np.zeros(n + 1)
        gB = np.zeros(n + 1)
        for j in range(n + 1):
            for i in (2 * (ki - j), 2 * (ki - j) - 1):
                if 0 <= i <= n:
                    gA[i] += cB[j]
            for i in (2 * j, 2 * j + 1):
                if 0 <= i <= n:
                    gB[i] += cA[j]
        var = _linear_var(pA, gA, count) + _linear_var(pB, gB, count)
        checks.append(_z_or_residual(f"k={ki}", lhs, rhs, var, count))
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

    The image weight is the Cauchy squared-base weight with the canonical
    exponent for order n, evaluated on (0, tan(theta/2)); the first relation
    uses the even chiral width, the second the odd one.  Vector ``k`` values
    share the same Monte Carlo run.
    """
    if not 0.0 < theta < math.pi:
        raise BadParameter("theta must lie in (0, pi)")
    ks = [int(v) for v in np.atleast_1d(k)]
    mu = n % 2
    w2c = from_table1("cauchy", n, 0.0)
    s = math.tan(0.5 * theta)
    poly1 = gap_chue_exact(w2c, mu, n // 2, s)
    poly2 = gap_chue_exact(w2c, 1 - mu, (n + 1) // 2, s)

    est = gap_mc(EnsembleSpec("COE", n), (-theta, theta), n, count, seed, workers=workers)
    checks = []
    for ki in ks:
        lhs1, se1 = est.sum_prob([2 * ki - 1 + mu, 2 * ki + mu])
        lhs2, se2 = est.sum_prob([2 * ki - mu, 2 * ki + 1 - mu])
        checks.append(_z_or_residual(f"even_sector_k={ki}", lhs1, poly1.prob(ki), se1 * se1, count))
        checks.append(_z_or_residual(f"odd_sector_k={ki}", lhs2, poly2.prob(ki), se2 * se2, count))
    params = {"n": n, "k": ks, "theta": theta, "count": count, "seed": seed}
    return build_report("thmD4", params, checks=checks)
