"""Orthonormal polynomials for arbitrary positive weights.

Built by the discrete Stieltjes procedure on a dense quadrature
discretization of the weight, which keeps one code path for classical and
heavy-tailed weights alike.  Gram matrices of the polynomials over
subintervals are the raw material for every determinantal gap probability
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadParameter, MomentDivergence, NonConvergence
from .numerics import (
    QuadratureRule,
    composite_gl_rule,
    integrate,
    tan_transformed_rule,
)

__all__ = [
    "OrthoSystem",
    "build",
    "gram",
    "squared_argument_rule",
]

DEGREE_CAP = 40


@dataclass(frozen=True)
class OrthoSystem:
    """Orthonormal polynomial family p_0..p_max_degree for one weight.

    recur_a[j], recur_b[j] are the symmetric three-term coefficients in
    x p_j = recur_b[j+1] p_{j+1} + recur_a[j] p_j + recur_b[j] p_{j-1},
    with recur_b[0] = sqrt(total mass) normalizing p_0.  norms[j] is the
    leading coefficient of p_j.
    """

    weight: Callable[[np.ndarray], np.ndarray]
    interval: tuple[float, float]
    max_degree: int
    recur_a: np.ndarray
    recur_b: np.ndarray
    norms: np.ndarray

    def evaluate(
        self, x: np.ndarray, indices: Sequence[int] | None = None
    ) -> np.ndarray:
        """Matrix P[i, j] = p_{indices[i]}(x_j); all degrees when indices is None."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if indices is None:
            indices = range(self.max_degree + 1)
        indices = list(indices)
        if indices and max(indices) > self.max_degree:
            raise BadParameter(
                f"degree {max(indices)} beyond system cap {self.max_degree}"
            )
        top = max(indices, default=0)
        rows = np.empty((top + 1, x.size))
        prev = np.zeros_like(x)
        cur = np.full_like(x, 1.0 / self.recur_b[0])
        rows[0] = cur
        for j in range(top):
            nxt = ((x - self.recur_a[j]) * cur - self.recur_b[j] * prev) / self.recur_b[
                j + 1
            ]
            prev, cur = cur, nxt
            rows[j + 1] = cur
        return rows[indices]


def _probe_moment(
    weight: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    degree: int,
) -> None:
    # an integrand that overflows is not finite on some panel and fails at once
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = integrate(lambda x: x ** (2 * degree) * weight(x), interval, tol=1e-6)
    except NonConvergence:
        value = np.inf
    if not np.isfinite(value):
        raise MomentDivergence(
            f"moment of order {2 * degree} does not converge on {interval}"
        )


def build(
    weight: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    max_degree: int,
    rule: QuadratureRule | None = None,
) -> OrthoSystem:
    """Stieltjes construction of the orthonormal family up to max_degree.

    ``rule`` overrides the default dense discretization; its nodes must carry
    the plain Lebesgue measure on ``interval`` (the weight is applied here).
    Raises MomentDivergence when the needed moments fail to converge.
    """
    lo, hi = interval
    if not lo < hi:
        raise BadParameter(f"empty interval {interval}")
    if not 0 <= max_degree <= DEGREE_CAP:
        raise BadParameter(f"max_degree must be in [0, {DEGREE_CAP}]")
    if rule is None:
        if np.isfinite(lo) and np.isfinite(hi):
            rule = composite_gl_rule(lo, hi, 125, 16)
        else:
            _probe_moment(weight, interval, max_degree)
            rule = tan_transformed_rule(lo, hi, 125, 16)

    nodes = rule.nodes
    rho = np.asarray(weight(nodes), dtype=float) * rule.weights
    if np.any(rho < 0) or not np.all(np.isfinite(rho)):
        raise BadParameter("weight must be nonnegative and finite on the nodes")

    mass = float(rho.sum())
    if mass <= 0:
        raise BadParameter("weight has no mass on the discretization")
    recur_a = np.zeros(max_degree + 1)
    recur_b = np.zeros(max_degree + 1)
    recur_b[0] = np.sqrt(mass)

    sq = np.sqrt(rho)
    prev = np.zeros_like(nodes)
    cur = sq / recur_b[0]  # p_0(x_i) sqrt(rho_i)
    for j in range(max_degree + 1):
        recur_a[j] = float(np.dot(nodes * cur, cur))
        if j == max_degree:
            break
        raw = (nodes - recur_a[j]) * cur - (recur_b[j] if j > 0 else 0.0) * prev
        norm = float(np.linalg.norm(raw))
        if norm < 1e-13 * np.sqrt(mass):
            raise BadParameter(f"measure cannot support degree {j + 1}")
        recur_b[j + 1] = norm
        prev, cur = cur, raw / norm

    norms = np.empty(max_degree + 1)
    norms[0] = 1.0 / recur_b[0]
    for j in range(1, max_degree + 1):
        norms[j] = norms[j - 1] / recur_b[j]
    return OrthoSystem(weight, (float(lo), float(hi)), max_degree, recur_a, recur_b, norms)


def gram(
    sys: OrthoSystem,
    J: tuple[float, float],
    indices: Sequence[int] | None = None,
    rule: QuadratureRule | None = None,
) -> np.ndarray:
    """G[j, k] = int_J w p_j p_k over the clipped interval J.

    Empty or degenerate J yields the zero matrix.  A custom ``rule`` (plain
    Lebesgue nodes/weights on J) replaces the default composite one.
    """
    if indices is None:
        indices = range(sys.max_degree + 1)
    indices = list(indices)
    size = len(indices)
    lo = max(sys.interval[0], J[0])
    hi = min(sys.interval[1], J[1])
    if not lo < hi:
        return np.zeros((size, size))
    if rule is None:
        if np.isfinite(lo) and np.isfinite(hi):
            rule = composite_gl_rule(lo, hi, 48, 16)
        else:
            rule = tan_transformed_rule(lo, hi, 96, 16)
    p = sys.evaluate(rule.nodes, indices)
    rho = np.asarray(sys.weight(rule.nodes), dtype=float) * rule.weights
    g = (p * rho) @ p.T
    return 0.5 * (g + g.T)


def squared_argument_rule(base: QuadratureRule) -> QuadratureRule:
    """Push a rule on (0, b) forward through u = x^2, Jacobian included.

    Used to integrate against mapped weights u^{mu-1/2} w2(sqrt(u)) without
    ever evaluating near the u = 0 singularity: the returned nodes are x_i^2
    and the weights 2 x_i w_i, so the x-space rule's accuracy carries over.
    """
    if base.interval[0] < 0 or np.any(base.nodes < 0):
        raise BadParameter("squared_argument_rule needs a rule on (0, b)")
    lo, hi = base.interval
    return QuadratureRule(
        base.nodes**2, 2.0 * base.nodes * base.weights, (lo * lo, hi * hi)
    )
