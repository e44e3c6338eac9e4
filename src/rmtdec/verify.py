"""Statistical verification harness for distributional identities.

Report plumbing shared with the gap checkers, a classical two-sample
Kolmogorov-Smirnov test, a battery builder (KS per order statistic, KS on
pooled points, chi-square on counting statistics in quantile bins), and one
entry point per matrix-ensemble identity: the even-decimation relation, the
two superposition relations, the circular-ensemble relations, the
interlacing integral, and the odd-location marginal density.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import special, stats

from .densities import _settle, _support_tensor, log_q_odd_batch, normalize
from .errors import BadParameter, EmptySample
from .numerics import composite_gl_rule, integrate, tan_transformed_rule
from .samplers import EnsembleSpec, sample_ensemble
from .weights import (
    AdmissibleWeight,
    big_A,
    check_recurrence,
    make_weight,
    theta_by_quadrature,
)

__all__ = [
    "ALPHA",
    "SubtestResult",
    "VerificationReport",
    "build_report",
    "ks_two_sample",
    "two_sample_battery",
    "verify_thm1",
    "verify_cor1",
    "verify_thmCE",
    "verify_dixon_anderson",
    "verify_q_odd",
    "verify_recurrence",
]

ALPHA = 1e-3


@dataclass(frozen=True)
class SubtestResult:
    """One statistic inside a report.

    ``kind`` is "ks" or "chi2" (p-value against a Bonferroni threshold),
    or "residual" / "z" (statistic against a plain tolerance).
    """

    name: str
    kind: str
    statistic: float
    threshold: float
    passed: bool
    p_value: float | None = None
    lhs: float | None = None
    rhs: float | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "kind": self.kind,
            "statistic": self.statistic,
            "tolerance": self.threshold,
            "pass": self.passed,
        }
        if self.p_value is not None:
            out["p_value"] = self.p_value
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        if self.kind == "residual":
            out["residual"] = self.statistic
        elif self.kind == "z":
            out["z"] = self.statistic
        return out


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check; passes iff every subtest passes.

    P-value subtests are already Bonferroni-corrected at family-wise level
    ``alpha`` by the builder, so the conjunction here is the advertised
    family-wise decision.
    """

    identity: str
    parameters: Mapping[str, object]
    subtests: tuple[SubtestResult, ...]
    alpha: float = ALPHA

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.subtests)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "parameters": dict(self.parameters),
            "alpha": self.alpha,
            "pass": self.passed,
            "subtests": [s.to_dict() for s in self.subtests],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def table(self) -> str:
        head = f"{'subtest':<34} {'kind':<9} {'statistic':>12} {'threshold':>11}  result"
        lines = [f"identity: {self.identity}", head, "-" * len(head)]
        for s in self.subtests:
            shown = s.p_value if s.p_value is not None else s.statistic
            lines.append(
                f"{s.name:<34} {s.kind:<9} {shown:>12.4g} {s.threshold:>11.3g}  "
                + ("pass" if s.passed else "FAIL")
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def build_report(
    identity: str,
    parameters: Mapping[str, object],
    stat_tests: Sequence[tuple[str, str, float, float]] = (),
    checks: Sequence[tuple[str, str, float, float, float | None, float | None]] = (),
    alpha: float = ALPHA,
) -> VerificationReport:
    """Assemble a report from p-value tests and tolerance checks.

    ``stat_tests`` rows are (name, kind, statistic, p_value); each is held to
    the Bonferroni share alpha / len(stat_tests).  ``checks`` rows are
    (name, kind, statistic, tolerance, lhs, rhs) and pass when the statistic
    is finite and within tolerance.
    """
    subtests: list[SubtestResult] = []
    share = alpha / max(len(stat_tests), 1)
    for name, kind, statistic, p in stat_tests:
        subtests.append(
            SubtestResult(name, kind, float(statistic), share, bool(p >= share), p_value=float(p))
        )
    for name, kind, statistic, tol, lhs, rhs in checks:
        ok = bool(np.isfinite(statistic) and statistic <= tol)
        subtests.append(
            SubtestResult(name, kind, float(statistic), float(tol), ok, lhs=lhs, rhs=rhs)
        )
    return VerificationReport(identity, dict(parameters), tuple(subtests), alpha)


# -- two-sample machinery -----------------------------------------------------------


def ks_two_sample(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Two-sample KS statistic with the classical asymptotic p-value.

    p = Q(sqrt(nm/(n+m)) * D) where Q is the Kolmogorov survival function.
    Raises EmptySample when either input has no entries.
    """
    x = np.sort(np.asarray(a, dtype=float).ravel())
    y = np.sort(np.asarray(b, dtype=float).ravel())
    if x.size == 0 or y.size == 0:
        raise EmptySample("ks_two_sample needs two nonempty samples")
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / x.size
    cdf_y = np.searchsorted(y, grid, side="right") / y.size
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    ne = x.size * y.size / (x.size + y.size)
    p = float(special.kolmogorov(math.sqrt(ne) * d))
    return d, min(max(p, 0.0), 1.0)


def _counting_chi2(a: np.ndarray, b: np.ndarray, bins: int = 8) -> list[tuple[str, str, float, float]]:
    """Chi-square homogeneity of per-sample counts in pooled quantile bins.

    For each bin the two ensembles' distributions of the per-row point count
    are compared; count categories are merged from the top until every pooled
    category holds at least 10 rows.
    """
    pooled = np.concatenate([a.ravel(), b.ravel()])
    edges = np.quantile(pooled, np.linspace(0.0, 1.0, bins + 1))
    edges[0], edges[-1] = -np.inf, np.inf
    out: list[tuple[str, str, float, float]] = []
    width = a.shape[1]
    for i in range(bins):
        ca = np.sum((a > edges[i]) & (a <= edges[i + 1]), axis=1)
        cb = np.sum((b > edges[i]) & (b <= edges[i + 1]), axis=1)
        oa = np.bincount(ca, minlength=width + 1).astype(float)
        ob = np.bincount(cb, minlength=width + 1).astype(float)
        # merge sparse high-count categories downward
        hi = width
        while hi > 0 and oa[hi] + ob[hi] < 10.0:
            oa[hi - 1] += oa[hi]
            ob[hi - 1] += ob[hi]
            oa, ob = oa[:hi], ob[:hi]
            hi -= 1
        keep = (oa + ob) >= 10.0
        if np.count_nonzero(keep) < 2:
            out.append((f"chi2_bin_{i + 1}", "chi2", 0.0, 1.0))
            continue
        oa, ob = oa[keep], ob[keep]
        na, nb = oa.sum(), ob.sum()
        tot = oa + ob
        ea = tot * na / (na + nb)
        eb = tot * nb / (na + nb)
        stat = float(np.sum((oa - ea) ** 2 / ea) + np.sum((ob - eb) ** 2 / eb))
        dof = oa.size - 1
        out.append((f"chi2_bin_{i + 1}", "chi2", stat, float(stats.chi2.sf(stat, dof))))
    return out


def two_sample_battery(
    a: np.ndarray, b: np.ndarray, prefix: str = "", bins: int = 8
) -> list[tuple[str, str, float, float]]:
    """KS per order statistic, KS on pooled points, counting chi-squares.

    ``a`` and ``b`` are (count, width) arrays of ascending rows drawn from the
    two ensembles under comparison; rows are the joint samples and columns
    the order statistics.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise BadParameter("battery needs two (count, width) arrays of equal width")
    if a.shape[1] == 0:
        raise EmptySample("battery needs at least one order statistic")
    tests: list[tuple[str, str, float, float]] = []
    for j in range(a.shape[1]):
        d, p = ks_two_sample(a[:, j], b[:, j])
        tests.append((f"{prefix}ks_order_{j + 1}", "ks", d, p))
    d, p = ks_two_sample(a.ravel(), b.ravel())
    tests.append((f"{prefix}ks_pooled", "ks", d, p))
    tests.extend((f"{prefix}{n}", k, s, p) for n, k, s, p in _counting_chi2(a, b, bins))
    return tests


def _substreams(seed: int, count: int) -> list[int]:
    """Deterministic, well-separated child seeds for independent batches."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(v) for v in state]


def _folded(spectra: np.ndarray) -> np.ndarray:
    return np.sort(np.abs(spectra), axis=1)


def _even_cols(sv: np.ndarray) -> np.ndarray:
    """Even-location columns (2nd, 4th, ... largest) of ascending rows."""
    return sv[:, sv.shape[1] % 2 :: 2]


def _odd_cols(sv: np.ndarray) -> np.ndarray:
    return sv[:, 1 - sv.shape[1] % 2 :: 2]


# -- identity batteries -------------------------------------------------------------


def verify_thm1(
    family: str,
    a: float | None,
    n: int,
    count: int,
    seed: int,
    workers: int = 1,
) -> VerificationReport:
    """Even-decimated singular values of OE_n against the chiral ensemble.

    Both sides draw independent rows from exact routes: Gaussian matrices,
    circular pullbacks or the beta-Jacobi model for OE_n, and the
    beta-Laguerre / beta-Jacobi models or an Oplus/Ominus pullback for the
    chiral side (see ``samplers.sample_ensemble``); only OE with a Cauchy
    weight off the circular exponents falls back to Metropolis.  The two
    streams are independent.
    """
    if n < 2:
        raise BadParameter("decimation comparison needs n >= 2")
    w1 = make_weight(family, a)
    mu = n % 2
    m = n // 2
    s1, s2 = _substreams(seed, 2)
    oe = sample_ensemble(EnsembleSpec("OE", n, w1), count, s1, workers=workers)
    even = _even_cols(_folded(oe.spectra))
    ch = sample_ensemble(EnsembleSpec("chUE", m, w1, mu=mu), count, s2, workers=workers)
    tests = two_sample_battery(even, ch.spectra)
    params = {"family": w1.family, "a": w1.a, "n": n, "count": count, "seed": seed}
    return build_report("thm1", params, stat_tests=tests)


def verify_cor1(
    family: str,
    a: float | None,
    n: int,
    count: int,
    seed: int,
    workers: int = 1,
    variant: str = "both",
) -> VerificationReport:
    """Singular values of UE_n(w2) against the two superposition forms.

    variant "super" checks even|OE_n| union even|OE_{n+1}|, "chiral" checks
    chUE_mhat(w2) union chUE_m(x^2 w2), "both" runs the two batteries in one
    report.
    """
    if variant not in ("super", "chiral", "both"):
        raise BadParameter(f"unknown variant {variant!r}")
    w1 = make_weight(family, a)
    m = n // 2
    mhat = (n + 1) // 2
    seeds = _substreams(seed, 5)
    ue = sample_ensemble(EnsembleSpec("UE", n, w1), count, seeds[0], workers=workers)
    lhs = _folded(ue.spectra)
    tests: list[tuple[str, str, float, float]] = []
    if variant in ("super", "both"):
        oe_n = sample_ensemble(EnsembleSpec("OE", n, w1), count, seeds[1], workers=workers)
        oe_n1 = sample_ensemble(EnsembleSpec("OE", n + 1, w1), count, seeds[2], workers=workers)
        rhs = np.sort(
            np.concatenate(
                [_even_cols(_folded(oe_n.spectra)), _even_cols(_folded(oe_n1.spectra))], axis=1
            ),
            axis=1,
        )
        tests += two_sample_battery(lhs, rhs, prefix="super_")
    if variant in ("chiral", "both"):
        parts = [
            sample_ensemble(
                EnsembleSpec("chUE", mhat, w1, mu=0), count, seeds[3], workers=workers
            ).spectra
        ]
        if m >= 1:
            parts.append(
                sample_ensemble(
                    EnsembleSpec("chUE", m, w1, mu=1), count, seeds[4], workers=workers
                ).spectra
            )
        rhs = np.sort(np.concatenate(parts, axis=1), axis=1)
        tests += two_sample_battery(lhs, rhs, prefix="chiral_")
    params = {
        "family": w1.family,
        "a": w1.a,
        "n": n,
        "count": count,
        "seed": seed,
        "variant": variant,
    }
    return build_report("eq117" if variant == "chiral" else "cor1", params, stat_tests=tests)


def verify_thmCE(n: int, count: int, seed: int, workers: int = 1) -> VerificationReport:
    """The three circular relations: folded COE decimations against the two
    orthogonal-group sectors, and folded CUE against their union.

    Angles are folded to (0, pi) before decimation.  nu = +1 for even n and
    -1 for odd n selects which sector matches the even set.
    """
    if n < 2:
        raise BadParameter("circular comparison needs n >= 2")
    seeds = _substreams(seed, 6)
    nu = 1 if n % 2 == 0 else -1
    even_kind = "Oplus" if nu > 0 else "Ominus"
    odd_kind = "Ominus" if nu > 0 else "Oplus"

    coe = _folded(sample_ensemble(EnsembleSpec("COE", n), count, seeds[0], workers=workers).spectra)
    o_even = sample_ensemble(EnsembleSpec(even_kind, n), count, seeds[1], workers=workers)
    o_odd = sample_ensemble(EnsembleSpec(odd_kind, n), count, seeds[2], workers=workers)
    tests = two_sample_battery(_even_cols(coe), o_even.spectra, prefix="even_")
    tests += two_sample_battery(_odd_cols(coe), o_odd.spectra, prefix="odd_")

    cue = _folded(sample_ensemble(EnsembleSpec("CUE", n), count, seeds[3], workers=workers).spectra)
    coe_a = _folded(sample_ensemble(EnsembleSpec("COE", n), count, seeds[4], workers=workers).spectra)
    coe_b = _folded(sample_ensemble(EnsembleSpec("COE", n), count, seeds[5], workers=workers).spectra)
    union = np.sort(np.concatenate([_even_cols(coe_a), _odd_cols(coe_b)], axis=1), axis=1)
    tests += two_sample_battery(cue, union, prefix="union_")

    params = {"n": n, "count": count, "seed": seed, "nu": nu}
    return build_report("thmCE", params, stat_tests=tests)


# -- interlacing integral -----------------------------------------------------------


def _g_value(
    w: AdmissibleWeight, nu: int, pts: np.ndarray, companion: bool
) -> np.ndarray:
    """g_nu on (batch, p) arrays of strictly descending rows.

    prod z_k^nu * weight(z_k) times prod_{i<j} (z_i^2 - z_j^2), with the
    companion weight substituted when requested.
    """
    pts = np.atleast_2d(pts)
    wfun = w.companion if companion else w.w1
    vals = np.prod(wfun(pts), axis=1)
    if nu:
        vals = vals * np.prod(pts, axis=1)
    p = pts.shape[1]
    if p > 1:
        iu, ju = np.triu_indices(p, k=1)
        vals = vals * np.prod(pts[:, iu] ** 2 - pts[:, ju] ** 2, axis=1)
    return vals


def verify_dixon_anderson(
    family: str,
    a: float | None,
    m: int,
    mu: int,
    seed: int = 0,
    configs: int = 5,
    tol: float | None = None,
) -> VerificationReport:
    """Interlacing integral of g_{1-mu} against its closed evaluation.

    The left side integrates g_{1-mu}(t_1..t_mhat) over the box s_1 < t_1 <
    omega, s_2 < t_2 < s_1, ...; the right side is theta^mu * A_{mhat,1-mu} *
    g~_mu(s) with the companion weight.  Checked at ``configs`` seeded random
    descending s-configurations.  The box is the ordered tensor rule with one
    point per segment, escalated along the ``normalize`` order ladder.
    """
    if m not in (1, 2):
        raise BadParameter("nested quadrature supports m in {1, 2}")
    if mu not in (0, 1):
        raise BadParameter("mu must be 0 or 1")
    w = make_weight(family, a)
    mhat = m + mu
    n = 2 * m + mu
    if w.family == "cauchy" and not n <= w.kappa + 2:
        raise BadParameter(f"cauchy requires 2m + mu <= 2a + 2, got {n} > {w.kappa + 2}")
    if tol is None:
        tol = 1e-5 if w.family == "cauchy" else 1e-7
    const = w.theta**mu * big_A(w, mhat, 1 - mu)

    def log_g(pts: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(_g_value(w, 1 - mu, pts[:, ::-1], companion=False))

    rng = np.random.default_rng(seed)
    lo_s, hi_s = (0.15, 0.85) if w.family == "jacobi" else (0.25, 1.8)
    checks = []
    for i in range(configs):
        while True:
            s = np.sort(rng.uniform(lo_s, hi_s, m))[::-1]
            if m == 1 or np.min(-np.diff(s)) > 0.08:
                break
        edges = [0.0] * mu + list(s[::-1]) + [w.omega]
        lhs = _settle(
            lambda order: _support_tensor(w, log_g, edges, [1] * mhat, order),
            mhat,
            tol / 20.0,
        )
        rhs = const * float(_g_value(w, mu, s[None, :], companion=True)[0])
        resid = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        checks.append((f"config_{i + 1}", "residual", resid, tol, lhs, rhs))
    params = {"family": w.family, "a": w.a, "m": m, "mu": mu, "seed": seed}
    return build_report("dixon_anderson", params, checks=checks)


# -- odd-location marginal ----------------------------------------------------------


def _q_odd_batch(w1: AdmissibleWeight, n: int) -> Callable[[np.ndarray], np.ndarray]:
    def fn(rows: np.ndarray) -> np.ndarray:
        return log_q_odd_batch(w1, np.atleast_2d(rows), n)

    return fn


def _chi2_gof(observed: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """Goodness-of-fit chi-square with low-expectation cells pooled."""
    total = observed.sum()
    expected = probs * total
    keep = expected >= 5.0
    o = np.concatenate([observed[keep], [observed[~keep].sum()]])
    e = np.concatenate([expected[keep], [expected[~keep].sum()]])
    if e[-1] < 1e-12:
        o, e = o[:-1], e[:-1]
    stat = float(np.sum((o - e) ** 2 / e))
    dof = o.size - 1
    return stat, float(stats.chi2.sf(stat, dof))


def verify_q_odd(
    family: str,
    n: int,
    count: int,
    seed: int,
    a: float | None = None,
    workers: int = 1,
) -> VerificationReport:
    """Odd-decimated singular values against the predicted marginal density.

    n = 2 bins the single odd value into 16 quantile bins; n = 3 bins the
    ordered pair into an 8 x 8 quantile grid.  Expected bin masses come from
    quadrature of the marginal normalized over the ordered region.
    """
    if n not in (2, 3):
        raise BadParameter("binned comparison is defined for n in {2, 3}")
    w1 = make_weight(family, a)
    mhat = (n + 1) // 2
    batch = sample_ensemble(EnsembleSpec("OE", n, w1), count, seed, workers=workers)
    odd = _odd_cols(_folded(batch.spectra))

    logq = _q_odd_batch(w1, n)
    z = normalize(logq, mhat, (0.0, w1.omega))

    if n == 2:
        edges = np.quantile(odd[:, 0], np.linspace(0.0, 1.0, 17))
        edges[0], edges[-1] = 0.0, w1.omega
        probs = np.array(
            [
                integrate(
                    lambda t: np.exp(logq(t[:, None])), (edges[i], edges[i + 1]), tol=1e-9
                )
                for i in range(16)
            ]
        ) / z
        observed = np.histogram(odd[:, 0], bins=edges)[0].astype(float)
    else:
        e1 = np.quantile(odd[:, 0], np.linspace(0.0, 1.0, 9))
        e2 = np.quantile(odd[:, 1], np.linspace(0.0, 1.0, 9))
        e1[0], e1[-1] = 0.0, w1.omega
        e2[0], e2[-1] = 0.0, w1.omega
        probs_grid = np.empty((8, 8))
        for i in range(8):
            for j in range(8):
                probs_grid[i, j] = _cell_mass(logq, e1[i], e1[i + 1], e2[j], e2[j + 1])
        probs = probs_grid.ravel() / z
        ix = np.clip(np.searchsorted(e1, odd[:, 0], side="right") - 1, 0, 7)
        jx = np.clip(np.searchsorted(e2, odd[:, 1], side="right") - 1, 0, 7)
        observed = np.bincount(ix * 8 + jx, minlength=64).astype(float)

    raw_mass = float(probs.sum())
    mass_resid = abs(raw_mass - 1.0)
    probs = probs / raw_mass
    stat, p = _chi2_gof(observed, probs)
    params = {"family": w1.family, "a": w1.a, "n": n, "count": count, "seed": seed}
    return build_report(
        "q_odd",
        params,
        stat_tests=[("chi2_bins", "chi2", stat, p)],
        checks=[("bin_mass", "residual", mass_resid, 1e-5, raw_mass, 1.0)],
    )


def _cell_mass(
    logq: Callable[[np.ndarray], np.ndarray],
    x0: float,
    x1: float,
    y0: float,
    y1: float,
) -> float:
    """Integral of exp(logq) over the cell (x0,x1) x (y0,y1) cut by t1 < t2.

    The inner y-range starts at max(x, y0); x-nodes where the cell is empty
    contribute nothing.  Infinite y1 goes through the tan substitution.
    """
    if x0 >= y1:
        return 0.0
    x_hi = min(x1, y1)
    if math.isinf(x_hi):
        xr = tan_transformed_rule(x0, x_hi, 8, 12)
    else:
        xr = composite_gl_rule(x0, x_hi, 6, 12)
    rows, wts = [], []
    for xn, xw in zip(xr.nodes, xr.weights):
        lo = max(xn, y0)
        if lo >= y1:
            continue
        if math.isinf(y1):
            yr = tan_transformed_rule(lo, y1, 8, 12)
        else:
            yr = composite_gl_rule(lo, y1, 6, 12)
        rows.append(np.column_stack([np.full(yr.nodes.size, xn), yr.nodes]))
        wts.append(xw * yr.weights)
    if not rows:
        return 0.0
    return float(np.dot(np.concatenate(wts), np.exp(logq(np.concatenate(rows)))))


# -- admissibility recurrence -------------------------------------------------------


def verify_recurrence(
    family: str,
    a: float | None = None,
    max_order: int = 8,
    points: int = 100,
    tol: float = 1e-10,
) -> VerificationReport:
    """Antiderivative recurrence residual at seeded points, all legal orders."""
    w = make_weight(family, a)
    hi = 0.95 if w.family == "jacobi" else 3.0
    pts = np.linspace(-hi, hi, points)
    checks = []
    for k in range(1, max_order + 1):
        if not w.order_ok(k):
            continue
        resid = check_recurrence(w, k, pts)
        checks.append((f"order_{k}", "residual", resid, tol, None, None))
    quad = theta_by_quadrature(w)
    checks.append(
        ("theta_closed_form", "residual", abs(quad - w.theta) / w.theta, tol, quad, w.theta)
    )
    params = {"family": w.family, "a": w.a, "max_order": max_order}
    return build_report("recurrence", params, checks=checks)
