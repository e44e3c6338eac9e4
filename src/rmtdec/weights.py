"""Symmetric weight families with an antiderivative recurrence.

Three one-parameter families qualify: Gauss e^{-x^2/2} on R, Jacobi
(1-x^2)^a on (-1, 1) with a > -1, and Cauchy (1+x^2)^{-a-1} on R with
a > -1/2.  Each is even, equals 1 at the origin, and satisfies

    int_0^x t^k w1(t) dt = -alpha_k x^{k-1} phi(x) w1(x)
                           + beta_k int_0^x t^{k-2} w1(t) dt + const

with phi quadratic, which is what every downstream factorization rests on.
The Cauchy family only supports orders k strictly below 2a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadParameter, OrderExceeded, OutOfSupport
from .numerics import integrate, special
from .orthopoly import ClassicalWeight, _beta_half

__all__ = [
    "AdmissibleWeight",
    "gauss_weight",
    "jacobi_weight",
    "cauchy_weight",
    "make_weight",
    "alpha",
    "beta",
    "big_A",
    "theta1",
    "check_recurrence",
    "from_table1",
]

_FAMILIES = ("gauss", "jacobi", "cauchy")


@dataclass(frozen=True)
class AdmissibleWeight:
    """One member of the Gauss / Jacobi / Cauchy weight families.

    ``omega`` is the support half-width and ``kappa`` the recurrence order
    bound: infinite except for Cauchy, where orders must satisfy k < 2a
    (kappa stores that open bound).
    """

    family: str
    a: float | None = None

    def __post_init__(self) -> None:
        fam = self.family.lower()
        if fam not in _FAMILIES:
            raise BadParameter(f"unknown weight family {self.family!r}")
        object.__setattr__(self, "family", fam)
        if fam == "gauss":
            if self.a is not None:
                raise BadParameter("Gauss weight takes no parameter")
        else:
            if self.a is None:
                raise BadParameter(f"{fam} weight needs parameter a")
            a = float(self.a)
            if fam == "jacobi" and not a > -1.0:
                raise BadParameter(f"Jacobi requires a > -1, got {a}")
            if fam == "cauchy" and not a > -0.5:
                raise BadParameter(f"Cauchy requires a > -1/2, got {a}")
            object.__setattr__(self, "a", a)

    # -- structural constants -------------------------------------------------

    @property
    def omega(self) -> float:
        return 1.0 if self.family == "jacobi" else math.inf

    @property
    def support(self) -> tuple[float, float]:
        return (-self.omega, self.omega)

    @property
    def kappa(self) -> float:
        """Largest usable recurrence order; open bound for Cauchy (k < kappa)."""
        return 2.0 * self.a if self.family == "cauchy" else math.inf

    @property
    def theta(self) -> float:
        """Half-mass (1/2) int w1: sqrt(pi/2) for Gauss, B(1/2, a + 1) / 2 for
        Jacobi and B(1/2, a + 1/2) / 2 for Cauchy."""
        if self.family == "gauss":
            return math.sqrt(math.pi / 2.0)
        return 0.5 * _beta_half(self.a + (1.0 if self.family == "jacobi" else 0.5))

    @property
    def tau(self) -> float:
        """Quadratic coefficient of phi: phi(x) = 1 + tau x^2."""
        return {"gauss": 0.0, "jacobi": -1.0, "cauchy": 1.0}[self.family]

    def order_ok(self, k: int) -> bool:
        return self.family != "cauchy" or k < self.kappa

    def _require_order(self, k: int) -> None:
        if not self.order_ok(k):
            raise OrderExceeded(
                f"order {k} not below Cauchy bound kappa = 2a = {self.kappa}"
            )

    # -- pointwise evaluation --------------------------------------------------

    def _check_support(self, x: np.ndarray) -> None:
        if self.family == "jacobi" and np.any(np.abs(x) >= 1.0):
            raise OutOfSupport("Jacobi weight defined only for |x| < 1")

    def w1(self, x: float | np.ndarray) -> float | np.ndarray:
        arr = np.asarray(x, dtype=float)
        self._check_support(arr)
        if self.family == "gauss":
            out = np.exp(-0.5 * arr**2)
        elif self.family == "jacobi":
            out = (1.0 - arr**2) ** self.a
        else:
            out = (1.0 + arr**2) ** (-self.a - 1.0)
        return float(out) if arr.ndim == 0 else out

    def phi(self, x: float | np.ndarray) -> float | np.ndarray:
        arr = np.asarray(x, dtype=float)
        out = 1.0 + self.tau * arr**2
        return float(out) if arr.ndim == 0 else out

    def companion(self, x: float | np.ndarray) -> float | np.ndarray:
        """phi * w1: e^{-x^2/2}, (1-x^2)^{a+1}, (1+x^2)^{-a}."""
        arr = np.asarray(x, dtype=float)
        self._check_support(arr)
        if self.family == "gauss":
            out = np.exp(-0.5 * arr**2)
        elif self.family == "jacobi":
            out = (1.0 - arr**2) ** (self.a + 1.0)
        else:
            out = (1.0 + arr**2) ** (-self.a)
        return float(out) if arr.ndim == 0 else out

    @property
    def w2(self) -> ClassicalWeight:
        """phi * w1^2 as a callable classical weight: Hermite e^{-x^2},
        Jacobi (1-x^2)^{2a+1} or Romanovski (1+x^2)^{-2a-1}."""
        c = 2.0 * (self.a or 0.0) + 1.0
        shape = {"gauss": ("hermite",), "jacobi": ("jacobi", c, c), "cauchy": ("romanovski", c)}
        return ClassicalWeight(*shape[self.family])

    def psi(self, x: float | np.ndarray) -> float | np.ndarray:
        """-theta1(x)/companion(x), with psi(0) = 0 by continuity."""
        arr = np.asarray(x, dtype=float)
        out = -theta1(self, arr) / self.companion(arr)
        return float(out) if arr.ndim == 0 else out

    # -- log scale (out-of-support maps to -inf instead of raising) -----------

    def log_w1(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if self.family == "gauss":
            return -0.5 * arr**2
        if self.family == "jacobi":
            out = np.full(arr.shape, -np.inf)
            inside = np.abs(arr) < 1.0
            if self.a == 0.0:
                out[inside] = 0.0
            else:
                out[inside] = self.a * np.log1p(-(arr[inside] ** 2))
            return out
        return (-self.a - 1.0) * np.log1p(arr**2)

    def log_companion(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if self.family == "gauss":
            return -0.5 * arr**2
        if self.family == "jacobi":
            out = np.full(arr.shape, -np.inf)
            inside = np.abs(arr) < 1.0
            out[inside] = (self.a + 1.0) * np.log1p(-(arr[inside] ** 2))
            return out
        if self.a == 0.0:
            return np.zeros(arr.shape)
        return -self.a * np.log1p(arr**2)

    def log_w2(self, x: np.ndarray) -> np.ndarray:
        return self.log_w1(x) + self.log_companion(x)


def gauss_weight() -> AdmissibleWeight:
    return AdmissibleWeight("gauss")


def jacobi_weight(a: float) -> AdmissibleWeight:
    return AdmissibleWeight("jacobi", float(a))


def cauchy_weight(a: float) -> AdmissibleWeight:
    return AdmissibleWeight("cauchy", float(a))


def make_weight(family: str, a: float | None = None) -> AdmissibleWeight:
    fam = family.lower()
    if fam == "gauss":
        if a is not None:
            raise BadParameter("Gauss weight takes no parameter")
        return gauss_weight()
    return AdmissibleWeight(fam, a)


# -- recurrence data -----------------------------------------------------------


def alpha(w: AdmissibleWeight, k: int) -> float:
    if k < 1 or k != int(k):
        raise BadParameter(f"recurrence order must be a positive integer, got {k}")
    w._require_order(k)
    if w.family == "gauss":
        return 1.0
    if w.family == "jacobi":
        return 1.0 / (2.0 * w.a + 1.0 + k)
    return 1.0 / (2.0 * w.a + 1.0 - k)


def beta(w: AdmissibleWeight, k: int) -> float:
    # beta_k = (k-1) * alpha_k * phi(0) and phi(0) = 1 for every family
    return (k - 1) * alpha(w, k)


def big_A(w: AdmissibleWeight, n: int, nu: int) -> float:
    """Product prod_{k=0}^{n-1} alpha_{2k+nu}, with alpha_0 = 1 by convention."""
    if n < 1 or nu not in (0, 1):
        raise BadParameter(f"need n >= 1 and nu in {{0,1}}, got n={n}, nu={nu}")
    w._require_order(2 * (n - 1) + nu)
    out = 1.0
    for k in range(n):
        order = 2 * k + nu
        if order > 0:
            out *= alpha(w, order)
    return out


# -- partial mass ----------------------------------------------------------------


def theta1(w: AdmissibleWeight, x: float | np.ndarray) -> float | np.ndarray:
    """int_0^x w1 in closed form, odd in x: sign(x) * theta * P, where P is a
    regularized incomplete function of x^2,

        Gauss   P = gammainc(1/2, x^2 / 2)
        Jacobi  P = betainc(1/2, a + 1, x^2)
        Cauchy  P = betainc(1/2, a + 1/2, x^2 / (1 + x^2)),

    from the substitutions u = x^2 / 2, u = x^2 and u = x^2 / (1 + x^2).
    For Cauchy at x^2 > 1 the tail 1 - P is taken as
    betainc(a + 1/2, 1/2, 1 / (1 + x^2)), which keeps its relative accuracy
    where x^2 / (1 + x^2) rounds towards 1.
    """
    arr = np.asarray(x, dtype=float)
    w._check_support(arr)
    x2 = arr**2
    sp = special()
    if w.family == "gauss":
        frac = sp.gammainc(0.5, 0.5 * x2)
    elif w.family == "jacobi":
        frac = sp.betainc(0.5, w.a + 1.0, x2)
    else:
        u = 1.0 / (1.0 + x2)
        frac = np.where(
            x2 <= 1.0,
            sp.betainc(0.5, w.a + 0.5, np.minimum(x2, 1.0) * u),
            1.0 - sp.betainc(w.a + 0.5, 0.5, u),
        )
    out = np.sign(arr) * w.theta * frac
    return float(out) if arr.ndim == 0 else out


# -- consistency checks -----------------------------------------------------------


def check_recurrence(
    w: AdmissibleWeight, k: int, points: Sequence[float] | np.ndarray
) -> float:
    """Max relative residual of the differentiated recurrence at the points.

    Checks (x^2 - beta_k + (k-1) alpha_k phi(x)) w1(x) = -alpha_k x (phi w1)'(x)
    with the analytic companion derivative (phi w1)' = -(x/alpha_1) w1.
    """
    pts = np.asarray(points, dtype=float)
    w._check_support(pts)
    ak = alpha(w, k)
    bk = beta(w, k)
    w1v = w.w1(pts)
    lhs = (pts**2 - bk + (k - 1) * ak * w.phi(pts)) * w1v
    companion_prime = -pts * w1v / alpha(w, 1)
    rhs = -ak * pts * companion_prime
    scale = max(float(np.max(np.abs(lhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs))) / scale


def from_table1(family: str, n: int, a_table1: float | None = None) -> AdmissibleWeight:
    """Map the n-dependent matrix-ensemble parameterization onto the canonical one.

    Only the Cauchy family differs: (1+x^2)^{-(n+a+1)/2} corresponds to the
    canonical parameter a_c = (n + a - 1)/2.
    """
    fam = family.lower()
    if fam == "gauss":
        return gauss_weight()
    if fam == "jacobi":
        if a_table1 is None:
            raise BadParameter("jacobi needs a parameter")
        return jacobi_weight(a_table1)
    if fam != "cauchy":
        raise BadParameter(f"unknown weight family {family!r}")
    if a_table1 is None:
        a_table1 = 0.0
    a_c = 0.5 * (n + a_table1 - 1.0)
    if not a_c > -0.5:
        raise BadParameter(f"mapped Cauchy parameter {a_c} must exceed -1/2")
    return cauchy_weight(a_c)


def theta_by_quadrature(w: AdmissibleWeight, tol: float = 1e-12) -> float:
    """Half-mass by adaptive quadrature; cross-check for the closed form.

    For Jacobi a >= -1/2, x = sin t leaves the integrand cos(t)^(2a+1),
    bounded on (0, pi/2).  Below -1/2 that power is singular, and
    v = (1 - x)^(a+1) leaves (2 - v^(1/(a+1)))^a / (a + 1) on (0, 1)
    instead, bounded since 1/(a+1) > 2.
    """
    if w.family != "jacobi":
        return integrate(w.w1, (0.0, w.omega), tol)
    a = w.a
    if a >= -0.5:
        return integrate(lambda t: np.cos(t) ** (2.0 * a + 1.0), (0.0, math.pi / 2.0), tol)
    return integrate(lambda v: (2.0 - v ** (1.0 / (a + 1.0))) ** a / (a + 1.0), (0.0, 1.0), tol)
