"""Shared numerical kernels.

Quadrature on finite and infinite intervals, the finite-box ordered tensor
rule behind every small-n integral, and symmetric eigendecomposition.
Everything here is a pure function on immutable inputs; integrands are
expected to be vectorized (accept an ndarray of abscissae and return an
ndarray of values of the same shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BadParameter, InvalidInterval, NonConvergence, NotSymmetric

MAX_DEPTH = 40

__all__ = [
    "QuadratureRule",
    "integrate",
    "ordered_tensor",
    "sym_eigen",
    "composite_gl_rule",
]


def special():
    """``scipy.special``, imported at the first call: ``import rmtdec``
    loads no scipy, and a call that needs none of its functions pays
    nothing for it."""
    import scipy.special

    return scipy.special


@lru_cache(maxsize=64)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights integrating over ``interval``."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if nodes.shape != weights.shape or nodes.size < 1:
            raise InvalidInterval("nodes and weights must be equal-length, nonempty")
        lo, hi = self.interval
        if not lo < hi:
            raise InvalidInterval(f"empty interval ({lo}, {hi})")
        if np.any(weights <= 0):
            raise InvalidInterval("quadrature weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def composite_gl_rule(lo: float, hi: float, panels: int, order: int) -> QuadratureRule:
    """Composite Gauss-Legendre rule: ``panels`` equal panels of ``order`` nodes."""
    if not lo < hi:
        raise InvalidInterval(f"empty interval ({lo}, {hi})")
    edges = np.linspace(lo, hi, panels + 1)
    x, w = _leggauss(order)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    weights = (halfs[:, None] * w[None, :]).ravel()
    return QuadratureRule(nodes, weights, (lo, hi))


def _panel_values(
    f: Callable[[np.ndarray], np.ndarray],
    ends: Sequence[tuple[float, float]],
    transform: bool,
) -> list[tuple[float, float]]:
    """For each panel (a, b) in ``ends``, the high-order estimate of the
    integral of f over it and its error against the embedded low-order rule.

    All panels' nodes go to f in one call.  When ``transform`` is set, the
    ends are tan-substitution coordinates and the Jacobian is applied here.
    A non-finite value raises NonConvergence: its panel could never settle.
    """
    xh, wh = _leggauss(16)
    xl, wl = _leggauss(8)
    x = np.concatenate([xh, xl])
    ab = np.asarray(ends, dtype=float)
    mid, half = 0.5 * (ab[:, 0] + ab[:, 1]), 0.5 * (ab[:, 1] - ab[:, 0])
    u = (mid[:, None] + half[:, None] * x).ravel()
    vals = np.asarray(f(np.tan(u) if transform else u), dtype=float)
    if vals.shape != u.shape:
        raise BadParameter(f"integrand returned shape {vals.shape}, not {u.shape}")
    if transform:
        vals = vals / np.cos(u) ** 2
    rows = vals.reshape(len(ab), x.size)
    out = []
    for p, (a, b) in enumerate(ends):
        hi = half[p] * float(np.dot(wh, rows[p, :16]))
        lo = half[p] * float(np.dot(wl, rows[p, 16:]))
        # the weights are positive, so a non-finite value makes its sum non-finite
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NonConvergence(f"integrand is not finite on panel ({a}, {b})")
        out.append((hi, abs(hi - lo)))
    return out


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    tol: float = 1e-10,
) -> float:
    """Adaptive integral of a vectorized integrand over ``interval``.

    ``f`` maps npts abscissae to npts values.  Infinite endpoints are mapped
    through x = tan(u).  Panels are bisected, the one with the largest error
    estimate (high- minus embedded low-order Gauss-Legendre value) first,
    until the summed estimate meets the relative tolerance.

    Raises NonConvergence if a panel would need more than MAX_DEPTH splits or
    the integrand is not finite on one, InvalidInterval when lo >= hi or
    tol <= 0, and BadParameter when f returns any other shape.
    """
    lo, hi = interval
    if not lo < hi:
        raise InvalidInterval(f"empty interval ({lo}, {hi})")
    if not tol > 0:
        raise InvalidInterval("tol must be positive")

    transform = not (np.isfinite(lo) and np.isfinite(hi))
    if transform:
        a = math.atan(lo) if np.isfinite(lo) else -0.5 * math.pi
        b = math.atan(hi) if np.isfinite(hi) else 0.5 * math.pi
    else:
        a, b = float(lo), float(hi)

    # panel: (a, b, value, error, depth)
    edges = np.linspace(a, b, 9)
    ends = list(zip(edges[:-1], edges[1:]))
    panels = [(pa, pb, *ve, 0) for (pa, pb), ve in zip(ends, _panel_values(f, ends, transform))]

    for _ in range(200_000):
        total = math.fsum(p[2] for p in panels)
        err_total = math.fsum(p[3] for p in panels)
        abs_total = math.fsum(abs(p[2]) for p in panels)
        if err_total <= tol * max(abs(total), 1e-3 * abs_total, 1e-300):
            return total
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        pa, pb, _, _, depth = panels[worst]
        if depth >= MAX_DEPTH:
            raise NonConvergence(
                f"integrate: error {err_total:.3e} above tol at max depth over {interval}"
            )
        mid = 0.5 * (pa + pb)
        left, right = _panel_values(f, [(pa, mid), (mid, pb)], transform)
        panels[worst] = (pa, mid, *left, depth + 1)
        panels.append((mid, pb, *right, depth + 1))
    raise NonConvergence(f"integrate: panel budget exhausted over {interval}")


# grids up to this many nodes keep their blocks; the top rungs of the dim-4
# order ladders (1e5 to 1.7e6 nodes) rebuild them block by block per call
_GRID_CACHE_NODES = 100_000
# rows of the tensor grid built and evaluated at a time
_BLOCK_ROWS = 1 << 14


def _tensor_block(order: int, dim: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows start .. start + _BLOCK_ROWS of the Gauss-Legendre grid on
    (0, 1)^dim, in C order over the order**dim nodes, and the log of each
    node's product weight; both read-only."""
    g, gw = _leggauss(order)
    t = 0.5 * (g + 1.0)
    tw = 0.5 * gw
    idx = np.unravel_index(np.arange(start, min(start + _BLOCK_ROWS, order**dim)), (order,) * dim)
    tmat = np.stack([t[i] for i in idx], axis=1)
    logwt = np.sum(np.log(np.stack([tw[i] for i in idx], axis=1)), axis=1)
    tmat.setflags(write=False)
    logwt.setflags(write=False)
    return tmat, logwt


@lru_cache(maxsize=32)
def _cached_tensor_blocks(order: int, dim: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    return tuple(_tensor_block(order, dim, s) for s in range(0, order**dim, _BLOCK_ROWS))


def _tensor_blocks(order: int, dim: int) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    """The blocks of the order**dim grid in row order, cached for grids of at
    most _GRID_CACHE_NODES nodes and built one at a time above that."""
    if order**dim <= _GRID_CACHE_NODES:
        return _cached_tensor_blocks(order, dim)
    return (_tensor_block(order, dim, s) for s in range(0, order**dim, _BLOCK_ROWS))


def ordered_tensor(
    log_density: Callable[[np.ndarray], np.ndarray],
    edges: Sequence[float],
    counts: Sequence[int],
    order: int,
) -> float:
    """Tensor Gauss-Legendre integral of exp(log_density) over ordered points.

    The region holds ``counts[i]`` ascending points in segment
    (edges[i], edges[i+1]); ``log_density`` receives a (batch, sum(counts))
    array of ascending rows and must be row-wise, each row's value
    independent of the others, since the grid is evaluated in blocks of
    _BLOCK_ROWS rows.  Within a segment (a, b) the points come from the
    iterated map u_j = u_{j-1} + (b - u_{j-1}) t_j on t in (0,1)^c, whose
    Jacobian is prod (b - u_{j-1}).  Memory is 8 bytes per grid node plus
    one block's temporaries.  Raises InvalidInterval unless the edges are
    finite (``densities._support_tensor`` charts a line) and ascend
    strictly and there is one count per segment.  A nan or +inf at any node
    raises NonConvergence; a density that is -inf at every node integrates
    to 0.
    """
    bounds = np.asarray(edges, dtype=float)
    if bounds.ndim != 1 or bounds.size != len(counts) + 1:
        raise InvalidInterval("need one count per segment between the edges")
    ascend = np.all(np.isfinite(bounds)) and np.all(np.diff(bounds) > 0)
    if not ascend or sum(counts) < 1 or min(counts) < 0:
        raise InvalidInterval(f"edges {list(edges)} must be finite and ascend around points")

    dim = sum(counts)
    logvals = np.empty(order**dim)
    start = 0
    for tmat, logwt in _tensor_blocks(order, dim):
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
        stop = start + tmat.shape[0]
        logvals[start:stop] = np.asarray(log_density(u), dtype=float) + logjac + logwt
        start = stop

    peak = float(np.max(logvals))  # nan if any node is nan
    if math.isnan(peak) or peak == math.inf:
        raise NonConvergence(f"log density is {peak} at a tensor node")
    if peak == -math.inf:
        return 0.0
    logvals -= peak
    return float(np.exp(peak) * np.sum(np.exp(logvals, out=logvals)))


def sym_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    Raises NotSymmetric when the relative asymmetry exceeds 1e-12 and
    NonConvergence when an entry is not finite.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise NonConvergence("matrix has non-finite entries")
    scale = max(float(np.linalg.norm(m)), 1.0)
    if float(np.linalg.norm(m - m.T)) > 1e-12 * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative")
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    return vals, vecs
