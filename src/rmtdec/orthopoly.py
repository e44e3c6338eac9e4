"""Orthonormal polynomials of the classical weights, in closed form.

Every weight an engine builds on is classical: Hermite, Laguerre, Jacobi,
Romanovski or beta-prime.  Their monic three-term recurrences, masses and
the degree up to which their moments exist are known in closed form (DLMF
18.9; Gautschi, *Orthogonal Polynomials*, 2004), so ``build`` reads them
from one table.  Gram matrices of the orthonormal functions p_k sqrt(w)
over subintervals are the raw material for every determinantal gap
probability downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import BadParameter, MomentDivergence, OutOfSupport
from .numerics import composite_gl_rule, special

__all__ = [
    "ClassicalWeight",
    "OrthoSystem",
    "build",
    "chart",
    "gram",
]

_LINE, _HALF_LINE = (-math.inf, math.inf), (0.0, math.inf)
_SUPPORTS = {"hermite": _LINE, "laguerre": _HALF_LINE, "romanovski": _LINE, "betaprime": _HALF_LINE}


@dataclass(frozen=True)
class ClassicalWeight:
    """A classical weight: its shape, exponents a and b, and support.

        hermite     e^{-x^2}                  on (-inf, inf)
        laguerre    x^b e^{-x}                on (0, inf)
        jacobi      (hi - x)^a (x - lo)^b     on (lo, hi) = ``support``
        romanovski  (1 + x^2)^{-a}            on (-inf, inf)
        betaprime   x^b (1 + x)^{-a}          on (0, inf)

    b is always the exponent at the lower end; a sets the upper end or the
    tail.  Calling the record evaluates the weight on its open support.
    """

    shape: str
    a: float = 0.0
    b: float = 0.0
    support: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        fixed = _SUPPORTS.get(self.shape)
        if fixed is None and self.shape != "jacobi":
            raise BadParameter(f"unknown weight shape {self.shape!r}")
        support = self.support or fixed or (-1.0, 1.0)
        finite = -math.inf < support[0] < support[1] < math.inf
        if (support != fixed) if fixed else not finite:
            raise BadParameter(f"a {self.shape} weight cannot live on {support}")
        object.__setattr__(self, "support", support)

    def log(self, x: float | np.ndarray) -> np.ndarray:
        """log w(x) on the open support; it stays finite where w underflows."""
        x = np.asarray(x, dtype=float)
        (lo, hi), a, b = self.support, self.a, self.b
        if np.any((x <= lo) | (x >= hi)):
            raise OutOfSupport(f"{self.shape} weight defined only on ({lo}, {hi})")
        return {
            "hermite": lambda: -(x**2),
            "laguerre": lambda: b * np.log(x) - x,
            "jacobi": lambda: a * np.log(hi - x) + b * np.log(x - lo),
            "romanovski": lambda: -a * np.log1p(x**2),
            "betaprime": lambda: b * np.log(x) - a * np.log1p(x),
        }[self.shape]()

    def __call__(self, x: float | np.ndarray) -> np.ndarray:
        return np.exp(self.log(x))

    def squared_argument(self, mu: int) -> ClassicalWeight:
        """The weight u^(mu - 1/2) w(sqrt u) of u = x^2 for this even weight w:
        Hermite maps to Laguerre, symmetric Jacobi to Jacobi on (0, hi^2) and
        Romanovski to beta-prime."""
        (lo, hi), b = self.support, mu - 0.5
        if self.shape == "hermite":
            return ClassicalWeight("laguerre", b=b)
        if self.shape == "jacobi" and self.a == self.b and lo == -hi:
            return ClassicalWeight("jacobi", self.a, b, (0.0, hi * hi))
        if self.shape == "romanovski":
            return ClassicalWeight("betaprime", self.a, b)
        raise BadParameter(f"{self} is not an even weight")

    def moments_exist(self, degree: int) -> bool:
        """Whether the mass and every moment up to order 2 * degree are finite."""
        a, b, top = self.a, self.b, 2 * degree + 1.0
        return {"hermite": True, "laguerre": b > -1.0, "jacobi": min(a, b) > -1.0,
                "romanovski": top < 2.0 * a, "betaprime": b > -1.0 and top + b < a}[self.shape]


def _beta_half(b: float) -> float:
    """B(1/2, b).  scipy's beta is off by 9e-14 relative at b = 200.5 and by
    1.5e-12 at b = 2001.5, so from b = 20 on it is sqrt(pi / b) exp(-l(b)),
    where l(b) = log(Gamma(b + 1/2) / (Gamma(b) sqrt(b))) has the series
    sum_k (2^-k - 2) B_{k+1} / (k (k+1) b^k) over odd k <= 11 (DLMF 5.11.8);
    its first omitted term is below 2e-19 at b = 20."""
    if b < 20.0:
        return float(special().beta(0.5, b))
    r = 1.0 / (b * b)
    series = -1.0 / 8.0 + r * (1.0 / 192.0 + r * (-1.0 / 640.0 + r * (
        17.0 / 14336.0 + r * (-31.0 / 18432.0 + r * 691.0 / 180224.0))))
    return math.sqrt(math.pi / b) * math.exp(-series / b)


def _jacobi_recurrence(a: float, b: float, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """alpha_0..alpha_{degree-1} and beta_1..beta_degree of the monic Jacobi
    polynomials for (1 - t)^a (1 + t)^b on (-1, 1).  alpha_0 and beta_1 use
    their reduced forms, which settle the 0/0 at a + b = 0 and a + b = -1."""
    k = np.arange(degree, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = (b * b - a * a) / (s * (s + 2.0))
        k, s = k + 1.0, s + 2.0
        beta = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    if degree:
        alpha[0] = (b - a) / (a + b + 2.0)
        beta[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    return alpha, beta


def _monic_recurrence(w: ClassicalWeight, degree: int) -> tuple[np.ndarray, np.ndarray, float]:
    """alpha_0..alpha_{degree-1}, beta_1..beta_degree and the mass of w."""
    a, b = w.a, w.b
    k = np.arange(1, degree + 1, dtype=float)  # the index of beta_k
    if w.shape == "hermite":
        return np.zeros(degree), 0.5 * k, math.sqrt(math.pi)
    if w.shape == "laguerre":
        return 2.0 * k + b - 1.0, k * (k + b), float(special().gamma(b + 1.0))
    if w.shape == "romanovski":
        beta = k * (2.0 * a - k) / ((2.0 * a - 2.0 * k) ** 2 - 1.0)
        return np.zeros(degree), beta, _beta_half(a - 0.5)
    if w.shape == "jacobi":
        lo, hi = w.support
        mass = np.exp((a + b + 1.0) * math.log(hi - lo) + special().betaln(a + 1.0, b + 1.0))
        alpha, beta = _jacobi_recurrence(a, b, degree)
    else:
        # the moments of x^b (1 + x)^(-a) are proportional to those of the
        # Jacobi weight (0 - x)^b (x + 1)^(-a) on (-1, 0), continued in a
        lo, hi, y = -1.0, 0.0, a - b - 1.0
        if b == -0.5:
            mass = _beta_half(y)
        elif b == 0.5 and y >= 20.0:  # B(3/2, y) = B(1/2, y) / (2y + 1)
            mass = _beta_half(y) / (2.0 * y + 1.0)
        else:
            mass = special().beta(b + 1.0, y)
        alpha, beta = _jacobi_recurrence(b, -a, degree)
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * alpha, half * half * beta, float(mass)


@dataclass(frozen=True)
class OrthoSystem:
    """Orthonormal polynomial family p_0..p_max_degree for one classical weight.

    recur_a[j] (j < max_degree) and recur_b[j] are the symmetric three-term
    coefficients in x p_j = recur_b[j+1] p_{j+1} + recur_a[j] p_j + recur_b[j] p_{j-1},
    with recur_b[0] = sqrt(total mass) normalizing p_0.
    """

    weight: ClassicalWeight
    max_degree: int
    recur_a: np.ndarray
    recur_b: np.ndarray

    def evaluate(
        self, x: np.ndarray, indices: Sequence[int] | None = None, log_factor: float | np.ndarray = 0.0
    ) -> np.ndarray:
        """Matrix P[i, j] = exp(log_factor_j) p_{indices[i]}(x_j); all degrees
        when indices is None.

        The recurrence runs on p_k alone and is renormalized every
        _RESCALE steps, its scale kept as a logarithm together with
        log_factor, so a factor that underflows on its own (a weight root far
        out) and a p_k that overflows on its own still give their product.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        indices = list(range(self.max_degree + 1) if indices is None else indices)
        if indices and max(indices) > self.max_degree:
            raise BadParameter(f"degree {max(indices)} beyond system degree {self.max_degree}")
        top = max(indices, default=0)
        rows = np.empty((top + 1, x.size))
        log_scale = np.broadcast_to(np.asarray(log_factor, dtype=float) - math.log(self.recur_b[0]), x.shape)
        rows[0] = scale = np.exp(log_scale)
        prev, cur = np.zeros_like(x), np.ones_like(x)
        a, b = self.recur_a, self.recur_b
        for j in range(top):
            prev, cur = cur, ((x - a[j]) * cur - b[j] * prev) / b[j + 1]
            if j % _RESCALE == _RESCALE - 1:
                size = np.abs(prev) + np.abs(cur)
                prev, cur = prev / size, cur / size
                log_scale = log_scale + np.log(size)
                scale = np.exp(log_scale)
            rows[j + 1] = scale * cur
        return rows[indices]


_RESCALE = 8  # p_k grows like |x|^k, so eight steps stay far inside the float range


def build(weight: ClassicalWeight, max_degree: int) -> OrthoSystem:
    """The orthonormal family of ``weight`` up to max_degree, from the table;
    MomentDivergence when the weight lacks the moments of order 2 * max_degree."""
    if not isinstance(weight, ClassicalWeight):
        raise BadParameter(f"build needs a ClassicalWeight, got {type(weight).__name__}")
    if max_degree < 0:
        raise BadParameter(f"max_degree must be nonnegative, got {max_degree}")
    if not weight.moments_exist(max_degree):
        raise MomentDivergence(f"{weight} has no finite moments up to order {2 * max_degree}")
    alpha, beta, mass = _monic_recurrence(weight, max_degree)
    if not 0.0 < mass < math.inf:
        raise BadParameter(f"the mass of {weight} is {mass}, outside the float range")
    return OrthoSystem(weight, max_degree, alpha, np.sqrt(np.concatenate([[mass], beta])))


def gram(sys: OrthoSystem, J: tuple[float, float], indices: Sequence[int] | None = None) -> np.ndarray:
    """G[j, k] = int_J w p_j p_k over the clipped interval J.

    The orthonormal functions p_k sqrt(w) come from the recurrence with
    the factor sqrt(w), in log form, at the nodes of ``_gram_rule``, which
    is sized to the top degree.  Empty or degenerate J yields the zero
    matrix.
    """
    indices = list(range(sys.max_degree + 1) if indices is None else indices)
    w = sys.weight
    lo, hi = max(w.support[0], J[0]), min(w.support[1], J[1])
    if not lo < hi:
        return np.zeros((len(indices), len(indices)))
    nodes, weights = _gram_rule(w, lo, hi, max(indices, default=0))
    q = sys.evaluate(nodes, indices, 0.5 * w.log(nodes))
    g = (q * weights) @ q.T
    return 0.5 * (g + g.T)


# past its turning point the square of a Hermite or Laguerre function falls
# at least as fast as e^{-x^2} past the origin: 5e-22 at x = 7
_MARGIN = 7.0
_ORDER = 16


@lru_cache(maxsize=64)
def _gauss_jacobi(e: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights for (1 + t)^e on (-1, 1), from the
    eigenvectors of the table's Jacobi matrix (Golub-Welsch)."""
    alpha, beta = _jacobi_recurrence(0.0, e, _ORDER)
    off = np.sqrt(beta[:-1])
    nodes, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 ** (e + 1.0) / (e + 1.0) * vecs[0] ** 2


def chart(w: ClassicalWeight, top: int) -> tuple:
    """The one chart table: for each shape a v where its functions up to
    degree ``top`` oscillate evenly (x for Hermite, sqrt(x) for Laguerre,
    lo + (hi - lo) sin^2(v / 2) for Jacobi, tan(v) for Romanovski, tan(v)^2
    for beta-prime).  Returns to_v of a float, to_x, dx/dv as a function of
    x, the v span (Hermite and Laguerre end _MARGIN past the turning point
    of degree top), the frequency in v and w's powers at its lower and
    upper end (None: no Gauss-Jacobi panel)."""
    (slo, shi), a, b = w.support, w.a, w.b
    clip = math.inf
    if w.shape in ("hermite", "laguerre"):
        sq = w.shape == "laguerre"
        turn = math.sqrt(4.0 * top + 2.0 * b + 2.0 if sq else 2.0 * top + 1.0)
        to_v, clip = (math.sqrt if sq else float), turn + _MARGIN
        to_x, jac = (np.square, lambda x: 2.0 * np.sqrt(x)) if sq else ((lambda v: v), np.ones_like)
        freq, powers = 2.0 * turn, (b if sq else None, None)
    elif w.shape == "jacobi":
        width = shi - slo
        to_v = lambda x: 2.0 * math.asin(math.sqrt((x - slo) / width))
        # the rounded width can carry a node at v = pi a hair past shi
        to_x = lambda v: np.minimum(slo + width * np.sin(0.5 * v) ** 2, shi)
        jac = lambda x: np.sqrt((x - slo) * (shi - x))
        freq, powers = 2.0 * top + abs(a) + abs(b) + 2.0, (b, a)
    else:
        sq = w.shape == "betaprime"
        to_v = (lambda x: math.atan(math.sqrt(x))) if sq else math.atan
        to_x = (lambda v: np.tan(v) ** 2) if sq else np.tan
        jac = (lambda x: 2.0 * np.sqrt(x) * (1.0 + x)) if sq else (lambda x: 1.0 + x * x)
        n = 4.0 * top + 2.0 * b + 2.0 if sq else 2.0 * top + 1.0
        tail = a - b - 2.0 * top - 2.0 if sq else 2.0 * (a - top - 1.0)
        freq, powers = 2.0 * math.sqrt(2.0 * a * n) + 2.0 * n, (b if sq else tail, tail)
    return to_v, to_x, jac, (max(to_v(slo), -clip), min(to_v(shi), clip)), freq, powers


def _gram_rule(w: ClassicalWeight, lo: float, hi: float, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and plain weights for int_lo^hi p_j p_k w, j, k <= top.

    J is taken in the ``chart`` of w's shape, clipped to its span (empty
    past it), in equal Gauss-Legendre panels, as many as its width times the
    frequency needs.  Where J reaches an end of the support, the integrand
    of the top pair is s^e times a smooth function of s = |x - end| (finite
    end) or s = 1/|x| (infinite end); lower pairs add integer powers of s.
    That end panel is Gauss-Jacobi in s for the power e, with the power
    divided out of its weights as recomputed from the float node x, so it
    cancels exactly against the weight evaluated there.
    """
    to_v, to_x, jac, (vmin, vmax), freq, powers = chart(w, top)
    vlo, vhi = (min(max(to_v(v), vmin), vmax) for v in (lo, hi))
    if not vlo < vhi:
        return np.zeros(0), np.zeros(0)
    panels = max(48, math.ceil((vhi - vlo) * freq / 4.0))
    edges = np.linspace(vlo, vhi, panels + 1)
    keep = np.ones((panels, _ORDER), dtype=bool)
    nodes, weights = [], []
    for side, e in enumerate(powers):
        end = w.support[side]
        if e is None or (lo, hi)[side] != end:
            continue
        keep[-side] = False
        e = e if e < 2 * _ORDER - 1 else 0.0  # a high power is smooth enough for Gauss-Legendre
        t, g = _gauss_jacobi(e)
        inner = float(to_x(edges[-2 if side else 1]))
        span = abs(inner - end) if math.isfinite(end) else 1.0 / abs(inner)
        s = 0.5 * span * (1.0 + t)
        x = end + math.copysign(1.0, inner - end) * s if math.isfinite(end) else math.copysign(1.0, inner) / s
        s, ds = (np.abs(x - end), 1.0) if math.isfinite(end) else (1.0 / np.abs(x), x * x)
        nodes.append(x)
        weights.append((0.5 * span) ** (1.0 + e) * g * ds / s**e)
    rule = composite_gl_rule(vlo, vhi, panels, _ORDER)
    x = to_x(rule.nodes[keep.ravel()])
    return np.concatenate([x, *nodes]), np.concatenate([rule.weights[keep.ravel()] * jac(x), *weights])
