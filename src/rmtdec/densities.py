"""Joint and marginal spectral densities, all unnormalized and in log form.

Covers the beta = 1, 2 eigenvalue densities, the chiral positive-eigenvalue
density, the factorized singular-value density q(x; y), and its even- and
odd-location marginals.  Every pairwise product prod_{i<j} |x_j^p - x_i^p|
is the row-wise kernel ``_log_vdm_rows`` on (batch, n) arrays, which the
Metropolis pair weights in ``gap`` and the interlacing integrand in
``verify`` share; the odd-location determinant lives only in
``log_q_odd_batch``.  The scalar forms validate their input and then
evaluate one row through the batch form or the kernel.

Every small-n multiple integral is the ordered tensor rule of ``numerics``,
escalated by ``_settle`` along an order ladder: the normalization constants
for n <= 4, and the placement sums of ``_placement_masses``, which put
ordered points on a segment grid in every possible way and add each
placement's integral to the entry its label names.  The brute-force gap
oracle in ``gap`` labels a placement by its count in J, and the odd-marginal
fit in ``verify`` by the quantile cell its points fall in.  Integrals of a
weight's density over its finite Jacobi support, and ``normalize`` on any
finite box, are taken in t with x = c + h sin t (``_sine_chart``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadParameter,
    InterlacingViolated,
    NonConvergence,
    OutOfSupport,
)
from .numerics import ordered_tensor
from .weights import AdmissibleWeight, theta1

__all__ = [
    "OrderedSpectrum",
    "SingularSpectrum",
    "log_p_beta",
    "log_p_chiral",
    "log_q_xy",
    "log_q_even",
    "log_q_odd",
    "log_p_beta_batch",
    "log_chiral_batch",
    "log_q_odd_batch",
    "normalize",
]


@dataclass(frozen=True)
class OrderedSpectrum:
    """Ascending eigenvalue configuration."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.ndim != 1:
            raise BadParameter("spectrum must be one-dimensional")
        if np.any(np.diff(vals) < 0):
            raise BadParameter("spectrum must be ascending")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SingularSpectrum:
    """Ascending nonnegative singular-value configuration."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.ndim != 1:
            raise BadParameter("spectrum must be one-dimensional")
        if np.any(np.diff(vals) < 0):
            raise BadParameter("singular values must be ascending")
        if vals.size and vals[0] < 0:
            raise BadParameter("singular values must be nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size


def _vals(spec) -> np.ndarray:
    if isinstance(spec, (OrderedSpectrum, SingularSpectrum)):
        return spec.values
    return np.atleast_1d(np.asarray(spec, dtype=float))


def _log_vdm_rows(x: np.ndarray, power: int = 1) -> np.ndarray:
    """Row-wise sum over i < j of log|x_j^power - x_i^power| for a (B, n)
    array; -inf on a tie, 0 for n < 2."""
    iu, ju = np.triu_indices(x.shape[1], k=1)
    v = x**power if power != 1 else x
    with np.errstate(divide="ignore"):
        return np.sum(np.log(np.abs(v[:, ju] - v[:, iu])), axis=1)


def log_p_beta(w: AdmissibleWeight, beta: int, spec) -> float:
    """log of prod w_beta(x_k) * prod |x_k - x_j|^beta; -inf on coincidence."""
    vals = _vals(spec)
    if w.family == "jacobi" and np.any(np.abs(vals) >= 1.0):
        raise OutOfSupport("eigenvalues outside the weight support")
    return float(log_p_beta_batch(w, beta, vals[None, :])[0])


def log_p_chiral(weight: Callable[[np.ndarray], np.ndarray], spec) -> float:
    """log of prod weight(x_k) * prod (x_k^2 - x_j^2)^2 for positive values."""
    vals = _vals(spec)
    if np.any(vals <= 0.0):
        raise OutOfSupport("chiral values must be strictly positive")
    wv = np.asarray(weight(vals), dtype=float)
    if np.any(wv < 0):
        raise BadParameter("weight must be nonnegative")
    with np.errstate(divide="ignore"):
        logw = np.log(wv)
    return float(np.sum(logw)) + 2.0 * float(_log_vdm_rows(vals[None, :], 2)[0])


def log_q_xy(w1: AdmissibleWeight, sv) -> float:
    """Factorized singular-value density: x-block times y-block.

    log of  prod w1(x_k) * Vdm(x^2)  *  prod y_k w1(y_k) * Vdm(y^2),
    where the x are the odd-indexed and y the even-indexed entries of the
    ascending input.  Raises InterlacingViolated if the input is not an
    ascending nonnegative sequence.
    """
    vals = _vals(sv)
    if np.any(np.diff(vals) < 0) or (vals.size and vals[0] < 0):
        raise InterlacingViolated("need ascending nonnegative singular values")
    if w1.family == "jacobi" and np.any(vals >= 1.0):
        raise OutOfSupport("singular values outside the weight support")
    x, y = vals[None, 0::2], vals[None, 1::2]
    out = np.sum(w1.log_w1(x), axis=1) + _log_vdm_rows(x, 2)
    out += np.sum(w1.log_w1(y), axis=1) + _log_vdm_rows(y, 2)
    with np.errstate(divide="ignore"):
        out += np.sum(np.log(y), axis=1)
    return float(out[0])


def log_q_even(w1: AdmissibleWeight, s, mu: int) -> float:
    """Even-location marginal: prod s_k^(2mu) w2(s_k) * Vdm(s^2)^2."""
    if mu not in (0, 1):
        raise BadParameter(f"mu must be 0 or 1, got {mu}")
    vals = _vals(s)
    if np.any(vals < 0.0) or np.any(np.diff(vals) < 0):
        raise BadParameter("need ascending nonnegative values")
    if w1.family == "jacobi" and np.any(vals >= 1.0):
        raise OutOfSupport("values outside the weight support")
    row = vals[None, :]
    out = np.sum(w1.log_w2(row), axis=1) + 2.0 * _log_vdm_rows(row, 2)
    if mu == 1:
        with np.errstate(divide="ignore"):
            out += 2.0 * np.sum(np.log(row), axis=1)
    return float(out[0])


def log_q_odd(w1: AdmissibleWeight, t, n: int) -> float:
    """Odd-location marginal for an ensemble of n singular values.

    Product of a positive Vandermonde-type block
        prod w1(t_k) t_k^(1-mu) * Vdm(t^2)
    and the determinant with companion-weight monomial rows
        companion(t_j) t_j^{(1-mu)+2(i-1)},  i = 1..mhat-1,
    closed by a last row of theta_{1-mu}(t_j) (the constant 1 when mu = 1,
    the partial mass theta1 when mu = 0).  The determinant must come out
    positive; a nonpositive value returns the -inf sentinel, as do ties.
    """
    vals = _vals(t)
    out = log_q_odd_batch(w1, vals[None, :], n)  # raises on a wrong length
    if np.any(vals < 0.0) or np.any(np.diff(vals) < 0):
        raise BadParameter("need ascending nonnegative values")
    if w1.family == "jacobi" and np.any(vals >= 1.0):
        raise OutOfSupport("values outside the weight support")
    return float(out[0])


# -- batched forms for samplers and Monte Carlo verification -------------------


def log_p_beta_batch(w: AdmissibleWeight, beta: int, x: np.ndarray) -> np.ndarray:
    """Row-wise log_p_beta on a (B, n) array; out-of-support rows give -inf."""
    if beta not in (1, 2):
        raise BadParameter(f"beta must be 1 or 2, got {beta}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise BadParameter("expected a (batch, n) array")
    logw = w.log_w1(x) if beta == 1 else w.log_w2(x)
    return np.sum(logw, axis=1) + beta * _log_vdm_rows(x)


def log_chiral_batch(
    log_weight: Callable[[np.ndarray], np.ndarray], x: np.ndarray
) -> np.ndarray:
    """Row-wise chiral log density; log_weight must send x <= 0 to -inf."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise BadParameter("expected a (batch, n) array")
    return np.sum(log_weight(x), axis=1) + 2.0 * _log_vdm_rows(x, 2)


def log_q_odd_batch(w1: AdmissibleWeight, x: np.ndarray, n: int) -> np.ndarray:
    """Row-wise log_q_odd on a (B, mhat) array; invalid rows give -inf.

    Shares the closed theta1 evaluation across all rows, which is what makes
    binned goodness-of-fit tests at large sample counts affordable.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise BadParameter("expected a (batch, mhat) array")
    mu = n % 2
    mhat = (n + 1) // 2
    if x.shape[1] != mhat:
        raise BadParameter(f"expected {mhat} odd-location values for n={n}")
    nu = 1 - mu

    bad = np.any(x < 0.0, axis=1) | np.any(np.diff(x, axis=1) < 0, axis=1)
    if w1.family == "jacobi":
        bad |= np.any(x >= 1.0, axis=1)
    safe = np.where(bad[:, None], 0.5, x)

    with np.errstate(divide="ignore"):
        out = np.sum(w1.log_w1(safe), axis=1)
        if nu == 1:
            out = out + np.sum(np.log(safe), axis=1)
    out = out + _log_vdm_rows(safe, 2)

    # determinant block: companion-monomial rows closed by the theta row
    mats = np.empty((x.shape[0], mhat, mhat))
    comp = w1.companion(safe)
    for i in range(mhat - 1):
        mats[:, i, :] = comp * safe ** (nu + 2 * i)
    mats[:, mhat - 1, :] = 1.0 if nu == 0 else theta1(w1, safe)
    sign, logdet = np.linalg.slogdet(mats)
    out = np.where(sign > 0, out + logdet, -np.inf)
    return np.where(bad, -np.inf, out)


# -- numeric normalization -------------------------------------------------------


# the last rung of each ladder is there for ``normalize``'s sine chart, whose
# nodes in the middle of a box lie pi/2 times farther apart than in x itself
_ORDER_LADDER = {
    1: [16, 24, 36, 54, 80, 120],
    2: [8, 12, 18, 27, 40, 60, 90],
    3: [8, 12, 18, 27, 40, 60, 90],
    4: [8, 12, 18, 24, 32, 48],
}


def _settle(value_at: Callable[[int], float | np.ndarray], ladder: Sequence[int],
            tol: float, floor: float = 1e-300) -> float | np.ndarray:
    """Escalate the tensor order along ``ladder`` until two successive values
    of ``value_at(order)``, a number or an array, agree in every entry to
    ``tol`` relative to max(|value|, floor); failing that raises
    NonConvergence."""
    prev = None
    for order in ladder:
        val = value_at(order)
        if prev is not None and np.all(np.abs(val - prev) <= tol * np.maximum(np.abs(val), floor)):
            return val
        prev = val
    raise NonConvergence(f"ordered integral did not settle at tol={tol}")


def _support_tensor(
    w: AdmissibleWeight,
    log_density: Callable[[np.ndarray], np.ndarray],
    edges: Sequence[float],
    counts: Sequence[int],
    order: int,
) -> float:
    """``ordered_tensor`` for a density on the support of ``w``.

    On the finite Jacobi support it is taken in t with x = sin t, as in
    ``theta_by_quadrature``: the (1 - x^2)^a endpoint singularity, on which
    Gauss-Legendre stalls, becomes a power of cos t, analytic for
    half-integer a.  Elsewhere it is taken in x itself.
    """
    if math.isinf(w.omega):
        return ordered_tensor(log_density, edges, counts, order)
    return ordered_tensor(_sine_chart(log_density, 0.0, 1.0), np.arcsin(edges), counts, order)


def _sine_chart(log_density: Callable[[np.ndarray], np.ndarray], c: float,
                h: float) -> Callable[[np.ndarray], np.ndarray]:
    """``log_density`` in t with x = c + h sin t, plus the log Jacobian
    sum log(h cos t): an endpoint power (x - lo)^a (hi - x)^b on
    (c - h, c + h) becomes a power of cos t."""
    return lambda t: log_density(c + h * np.sin(t)) + np.sum(np.log(h * np.cos(t)), axis=1)


def _placement_masses(w: AdmissibleWeight, log_density: Callable[[np.ndarray], np.ndarray],
                      edges: Sequence[float], n: int, label: Callable[[tuple[int, ...]], int],
                      size: int, order: int) -> np.ndarray:
    """Masses of n ordered points on the support of ``w``, summed by label.

    A placement gives each point, in ascending order, the index of its
    segment between ``edges``; its ``_support_tensor`` integral at ``order``
    is added to entry ``label(segments)`` of a length-``size`` vector.  The
    placements are visited in one fixed order, all points in the last
    segment first, so each sum is reproducible bit for bit.
    """
    out = np.zeros(size)
    parts = len(edges) - 1
    for segs in reversed(list(combinations_with_replacement(range(parts), n))):
        counts = np.bincount(segs, minlength=parts).tolist()
        out[label(segs)] += _support_tensor(w, log_density, edges, counts, order)
    return out


def normalize(
    log_density: Callable[[np.ndarray], np.ndarray],
    n: int,
    support: tuple[float, float],
    tol: float = 1e-7,
) -> float:
    """Integral of exp(log_density) over the ordered region lo < x_1 < ... < hi.

    ``log_density`` must accept a (batch, n) array of ascending rows.  On a
    finite support the integral is taken in t with x = c + h sin t
    (``_sine_chart``), so that an endpoint singularity such as the Jacobi
    (1 - x^2)^a does not stall the rule; on an infinite one it is taken in
    x.  The tensor order is escalated until two successive estimates agree
    to ``tol`` relative; failing that raises NonConvergence.  Restricted to
    n <= 4.
    """
    if not 1 <= n <= 4:
        raise BadParameter("normalize supports 1 <= n <= 4")
    lo, hi = support
    if not lo < hi:
        raise BadParameter(f"empty support {support}")
    if math.isinf(lo) or math.isinf(hi):
        f, edges = log_density, support
    else:
        f = _sine_chart(log_density, 0.5 * (lo + hi), 0.5 * (hi - lo))
        edges = (-0.5 * math.pi, 0.5 * math.pi)
    return _settle(lambda order: ordered_tensor(f, edges, [n], order), _ORDER_LADDER[n], tol)
