"""Correctness checks that do not depend on rmtdec's own output.

Every check returns a list of problems (empty when it passes), so a check
fed a deliberately perturbed answer can be shown to fail (``run.py
--smoke``).  Closed forms are written out here from the weight definitions:

- Gauss w1 = exp(-x^2/2), w2 = exp(-x^2);
- Jacobi w1 = (1-x^2)^a, w2 = (1-x^2)^(2a+1) on (-1, 1);
- Cauchy w1 = (1+x^2)^(-a-1), w2 = (1+x^2)^(-2a-1).
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import special

SIMPLEX_TOL = 1e-12
SUM_TOL = 1e-10
CLOSED_FORM_TOL = 1e-10
DECOMPOSITION_TOL = 1e-14
MODE_TOL = 1e-9
BRUTE_TOL = 1e-8
Z_MAX = 5.5
Z_MIN_VARIANCE = 10.0  # cells with N p (1 - p) below this are not z-tested


def simplex(label: str, coeffs) -> list[str]:
    """Entries in [0, 1] and summing to 1."""
    c = np.asarray(coeffs, dtype=float)
    out = []
    if c.min() < -SIMPLEX_TOL or c.max() > 1.0 + SIMPLEX_TOL:
        out.append(f"{label}: coefficient outside [0, 1]: {c.tolist()}")
    if abs(math.fsum(c) - 1.0) > SUM_TOL:
        out.append(f"{label}: coefficients sum to {math.fsum(c)!r}")
    return out


def close(label: str, got, want, tol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
    if not err <= tol:
        return [f"{label}: off by {err:.3g} (tolerance {tol:g})"]
    return []


# -- closed forms at one point ------------------------------------------------------


def _student_cdf(x: float, c: float) -> float:
    """CDF of the density proportional to (1+x^2)^(-c) on the real line."""
    mass = special.betainc(0.5, c - 0.5, x * x / (1.0 + x * x))
    return 0.5 + 0.5 * math.copysign(mass, x)


def ue_one_point(family: str, a: float | None, lo: float, hi: float) -> np.ndarray:
    """[E(0), E(1)] for one point with density proportional to w2 on (lo, hi)."""
    if family == "gauss":
        p = 0.5 * (special.erf(hi) - special.erf(lo))
    elif family == "jacobi":
        b = 2.0 * a + 2.0
        p = special.betainc(b, b, 0.5 * (hi + 1.0)) - special.betainc(b, b, 0.5 * (lo + 1.0))
    else:
        c = 2.0 * a + 1.0
        p = _student_cdf(hi, c) - _student_cdf(lo, c)
    return np.array([1.0 - p, p])


def chue_one_point(family: str, a: float | None, mu: int, s: float) -> np.ndarray:
    """[E(0), E(1)] on (0, s) for one positive point with density x^(2 mu) w2."""
    if family == "gauss":
        p = special.gammainc(mu + 0.5, s * s)
    elif family == "jacobi":
        p = special.betainc(mu + 0.5, 2.0 * a + 2.0, s * s)
    else:
        p = special.betainc(mu + 0.5, 2.0 * a + 0.5 - mu, s * s / (1.0 + s * s))
    return np.array([1.0 - p, p])


def oe_one_point(family: str, a: float | None, s: float) -> np.ndarray:
    """[E(0), E(1)] on (-s, s) for one point with density proportional to w1."""
    if family == "gauss":
        p = special.erf(s / math.sqrt(2.0))
    elif family == "jacobi":
        p = special.betainc(0.5, a + 1.0, s * s)
    else:
        p = special.betainc(0.5, a + 0.5, s * s / (1.0 + s * s))
    return np.array([1.0 - p, p])


def cue_one_point(theta: float) -> np.ndarray:
    """[E(0), E(1)] on (-theta, theta) for one uniform angle."""
    return np.array([1.0 - theta / math.pi, theta / math.pi])


# -- structural identities ---------------------------------------------------------

XI_GRID = np.linspace(0.0, 2.0, 41)


def generating_function(coeffs, xi: np.ndarray = XI_GRID) -> np.ndarray:
    """sum_k E(k) (1 - xi)^k, evaluated here rather than by rmtdec."""
    return np.polynomial.polynomial.polyval(1.0 - xi, np.asarray(coeffs, dtype=float))


def unitary_decomposition(label: str, ue, chue_even, chue_odd) -> list[str]:
    """UE_n on (-s, s) factors into chUE(mu=0, ceil(n/2)) x chUE(mu=1, floor(n/2)) on (0, s).

    An even weight splits the polynomials into even and odd ones, which are
    polynomials in u = x^2 for the weights u^(-1/2) w2 and u^(1/2) w2.
    """
    lhs = generating_function(ue)
    rhs = generating_function(chue_even) * generating_function(chue_odd)
    return close(f"{label} UE = chUE(0) x chUE(1)", lhs, rhs, DECOMPOSITION_TOL)


# -- samples ----------------------------------------------------------------------


def sorted_rows(label: str, spectra: np.ndarray) -> list[str]:
    bad = int(np.count_nonzero(np.diff(spectra, axis=1) < 0.0))
    return [f"{label}: {bad} adjacent pairs out of order"] if bad else []


def in_range(label: str, spectra: np.ndarray, lo: float, hi: float) -> list[str]:
    """Every value in the closed support [lo, hi]."""
    if spectra.size and (spectra.min() < lo or spectra.max() > hi):
        return [f"{label}: values outside [{lo}, {hi}]"]
    return []


def bit_exact(label: str, a: np.ndarray, b: np.ndarray) -> list[str]:
    if a.shape != b.shape or a.dtype != b.dtype:
        return [f"{label}: shape {a.shape} != {b.shape}"]
    diff = int(np.count_nonzero(a.view(np.uint64) != b.view(np.uint64)))
    return [f"{label}: {diff} values differ bitwise"] if diff else []


def count_distribution(label: str, spectra: np.ndarray, lo: float, hi: float, probs) -> list[str]:
    """Per-count z scores of the in-(lo, hi) count histogram against exact E(k)."""
    n = spectra.shape[0]
    inside = np.count_nonzero((spectra > lo) & (spectra < hi), axis=1)
    observed = np.bincount(inside, minlength=len(probs)).astype(float)
    if observed.size > len(probs):
        return [f"{label}: more points inside than the ensemble has"]
    p = np.asarray(probs, dtype=float)
    var = n * p * (1.0 - p)
    tested = var >= Z_MIN_VARIANCE
    z = np.abs(observed - n * p)[tested] / np.sqrt(var[tested])
    if z.size and z.max() > Z_MAX:
        return [f"{label}: count histogram off the exact gaps by z = {z.max():.2f}"]
    return []


# -- verify reports ----------------------------------------------------------------


def verify_payload(label: str, exit_code: int, report_text: str, expected: int) -> list[str]:
    """`rmtdec verify` exit code 0, the expected number of reports, all passing."""
    out = []
    if exit_code != 0:
        out.append(f"{label}: exit code {exit_code}")
    try:
        payload = json.loads(report_text)
    except json.JSONDecodeError:
        return out + [f"{label}: report file is not JSON"]
    reports = payload.get("reports", [])
    if len(reports) != expected:
        out.append(f"{label}: {len(reports)} reports, expected {expected}")
    failing = [
        f"{r.get('identity')}:{s.get('name')}"
        for r in reports
        for s in r.get("subtests", [])
        if not s.get("pass")
    ]
    if failing or not payload.get("passed") or not all(r.get("pass") for r in reports):
        out.append(f"{label}: failing subtests {failing}")
    return out
