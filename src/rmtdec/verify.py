"""Statistical verification harness for distributional identities.

Report plumbing shared with the gap checkers, a classical two-sample
Kolmogorov-Smirnov test, a battery builder (KS per order statistic, KS on
pooled points, chi-square on counting statistics in quantile bins), and one
entry point per matrix-ensemble identity: the even-decimation relation, the
two superposition relations, the circular-ensemble relations, the
interlacing integral, and the odd-location marginal density.  The
batteries fold, decimate and superpose sampled batches row by row through
``rmtdec.decimation``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .decimation import decimate, singular_values, superpose
from .densities import (
    _ORDER_LADDER,
    _log_vdm_rows,
    _placement_masses,
    _settle,
    _support_tensor,
    log_q_odd_batch,
)
from .errors import BadParameter, EmptySample
from .numerics import special
from .samplers import EnsembleSpec, _check_seed, sample_ensemble
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
_COUNT_BINS = 8  # pooled quantile bins of the counting chi-squares
_KS_CHUNK = 1 << 13  # keys per chunk of a one-sided KS pass


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
) -> VerificationReport:
    """Assemble a report from p-value tests and tolerance checks.

    ``stat_tests`` rows are (name, kind, statistic, p_value); each is held to
    the Bonferroni share ALPHA / len(stat_tests).  ``checks`` rows are
    (name, kind, statistic, tolerance, lhs, rhs) and pass when the statistic
    is finite and within tolerance.
    """
    subtests: list[SubtestResult] = []
    share = ALPHA / max(len(stat_tests), 1)
    for name, kind, statistic, p in stat_tests:
        subtests.append(
            SubtestResult(name, kind, float(statistic), share, bool(p >= share), p_value=float(p))
        )
    for name, kind, statistic, tol, lhs, rhs in checks:
        ok = bool(np.isfinite(statistic) and statistic <= tol)
        subtests.append(
            SubtestResult(name, kind, float(statistic), float(tol), ok, lhs=lhs, rhs=rhs)
        )
    return VerificationReport(identity, dict(parameters), tuple(subtests))


# -- two-sample machinery -----------------------------------------------------------


def _sorted_sample(v: Sequence[float] | np.ndarray, side: str) -> np.ndarray:
    """A sorted flat float copy of ``v``; BadParameter if it holds NaN.
    NaN sorts last, so one search for it counts every NaN."""
    x = np.sort(np.asarray(v, dtype=float), axis=None)
    if bad := x.size - int(np.searchsorted(x, np.nan)):
        raise BadParameter(f"ks_two_sample: side {side} has {bad} NaN value(s)")
    return x


def _ks_one_sided(x: np.ndarray, y: np.ndarray) -> float:
    """max |F_x - F_y| over the points of sorted ``x``, in chunks of _KS_CHUNK.

    The last point of each tie run stands for its value: its right-rank in
    x is its index + 1, and its rank in y comes from one right-sided
    search.  A tie run that crosses a chunk boundary ends in a later chunk.
    """
    d = 0.0
    for s in range(0, x.size, _KS_CHUNK):
        keys = x[s : s + _KS_CHUNK + 1]  # the chunk and the key after it
        ends = np.flatnonzero(keys[:-1] != keys[1:]) + s
        if s + _KS_CHUNK >= x.size:
            ends = np.append(ends, x.size - 1)
        if ends.size:
            fx = (ends + 1) / x.size
            fy = np.searchsorted(y, x[ends], side="right") / y.size
            d = max(d, float(np.max(np.abs(fx - fy))))
    return d


def ks_two_sample(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Two-sample KS statistic with the classical asymptotic p-value.

    D = max |F_a - F_b| over every pooled point, from one pass over each
    sample's own points; only the two sorted copies are full length.
    p = Q(sqrt(nm/(n+m)) * D) where Q is the Kolmogorov survival function.
    Raises EmptySample when either input has no entries and BadParameter
    when either holds NaN (+-inf are ordinary points).
    """
    x = _sorted_sample(a, "a")
    y = _sorted_sample(b, "b")
    if x.size == 0 or y.size == 0:
        raise EmptySample("ks_two_sample needs two nonempty samples")
    d = max(_ks_one_sided(x, y), _ks_one_sided(y, x))
    ne = x.size * y.size / (x.size + y.size)
    p = float(special().kolmogorov(math.sqrt(ne) * d))
    return d, min(max(p, 0.0), 1.0)


def _chi2_sf(stat: float, dof: int) -> float:
    """Chi-square upper tail P(X > stat) for stat >= 0, bit for bit SciPy's
    ``chi2.sf``: nan when dof < 1 (a one-cell table fails)."""
    return float(special().chdtrc(dof, stat)) if dof >= 1 else math.nan


def _count_below(s: np.ndarray, e: float) -> np.ndarray:
    """Per-row count of the points of ``s`` that are <= e, column by column."""
    c = np.zeros(s.shape[0], np.intp)
    for j in range(s.shape[1]):
        c += s[:, j] <= e
    return c


def _count_table(s: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(bins, width + 1) table: row i counts the rows of ``s`` by how many of
    their points fall in bin i, (e_i, e_i+1].

    For NaN-free ``s`` a row's count of e_i < x <= e_i+1 is C(e_i+1) - C(e_i),
    C(e) its count of points <= e, clipped at 0 where overflow puts e_i above
    e_i+1; two length-count integer arrays are live.  A bin with a NaN edge
    (from +-inf atoms) holds no meaningful count; ``_counting_chi2`` reports
    it as NaN.
    """
    table = np.zeros((edges.size - 1, s.shape[1] + 1))
    prev = _count_below(s, edges[0])
    for i, hi in enumerate(edges[1:]):
        cur = _count_below(s, hi)
        diff = np.maximum(np.subtract(cur, prev, out=prev), 0, out=prev)
        table[i] = np.bincount(diff, minlength=s.shape[1] + 1)
        prev = cur
    return table


def _counting_chi2(a: np.ndarray, b: np.ndarray) -> list[tuple[str, str, float, float]]:
    """Chi-square homogeneity of per-sample counts in pooled quantile bins.

    For each bin the two ensembles' distributions of the per-row point count
    are compared; count categories are merged from the top until every pooled
    category holds at least 10 rows.  A bin with a NaN quantile edge, which
    +-inf atoms make, tests nothing: its statistic and p-value are NaN, so
    ``build_report`` fails it.
    """
    pooled = np.concatenate([a, b], axis=None)
    edges = np.quantile(pooled, np.linspace(0.0, 1.0, _COUNT_BINS + 1), overwrite_input=True)
    del pooled  # before the count tables, so one pooled copy is the peak
    edges[0], edges[-1] = -np.inf, np.inf
    out: list[tuple[str, str, float, float]] = []
    width = a.shape[1]
    for i, (oa, ob) in enumerate(zip(_count_table(a, edges), _count_table(b, edges))):
        if math.isnan(edges[i]) or math.isnan(edges[i + 1]):
            out.append((f"chi2_bin_{i + 1}", "chi2", math.nan, math.nan))
            continue
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
        out.append((f"chi2_bin_{i + 1}", "chi2", stat, _chi2_sf(stat, dof)))
    return out


def two_sample_battery(
    a: np.ndarray, b: np.ndarray, prefix: str = ""
) -> list[tuple[str, str, float, float]]:
    """KS per order statistic, KS on pooled points, counting chi-squares.

    ``a`` and ``b`` are (count, width) arrays of ascending rows drawn from the
    two ensembles under comparison; rows are the joint samples and columns
    the order statistics.  NaN raises BadParameter; +-inf are ordinary
    points.  Beyond the inputs, at most one pooled copy of them is live.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise BadParameter("battery needs two (count, width) arrays of equal width")
    if a.shape[1] == 0:
        raise EmptySample("battery needs at least one order statistic")
    for side, v in (("a", a), ("b", b)):
        if bad := int(np.count_nonzero(np.isnan(v))):
            raise BadParameter(f"two_sample_battery: side {side} has {bad} NaN value(s)")
    tests: list[tuple[str, str, float, float]] = []
    for j in range(a.shape[1]):
        d, p = ks_two_sample(a[:, j], b[:, j])
        tests.append((f"{prefix}ks_order_{j + 1}", "ks", d, p))
    # at width 1 the pooled points are the one order statistic's
    d, p = ks_two_sample(a, b) if a.shape[1] > 1 else (d, p)
    tests.append((f"{prefix}ks_pooled", "ks", d, p))
    tests.extend((f"{prefix}{n}", k, s, p) for n, k, s, p in _counting_chi2(a, b))
    return tests


def _substreams(seed: int, count: int) -> list[int]:
    """Deterministic, well-separated child seeds for independent batches."""
    state = np.random.SeedSequence(_check_seed(seed)).generate_state(count, dtype=np.uint64)
    return [int(v) for v in state]


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
    beta-Laguerre / beta-Jacobi models for the chiral side (see ``samplers.sample_ensemble``); only OE with a Cauchy
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
    even = decimate(singular_values(oe.spectra)).even
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
    draw = lambda spec, s: sample_ensemble(spec, count, s, workers=workers).spectra
    lhs = singular_values(draw(EnsembleSpec("UE", n, w1), seeds[0]))
    tests: list[tuple[str, str, float, float]] = []
    if variant in ("super", "both"):
        evens = [
            decimate(singular_values(draw(EnsembleSpec("OE", k, w1), s))).even
            for k, s in ((n, seeds[1]), (n + 1, seeds[2]))
        ]
        tests += two_sample_battery(lhs, superpose(*evens), prefix="super_")
    if variant in ("chiral", "both"):
        parts = [draw(EnsembleSpec("chUE", mhat, w1, mu=0), seeds[3])]
        if m >= 1:
            parts.append(draw(EnsembleSpec("chUE", m, w1, mu=1), seeds[4]))
        rhs = superpose(*parts)
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

    draw = lambda kind, s: sample_ensemble(EnsembleSpec(kind, n), count, s, workers=workers).spectra
    coe = decimate(singular_values(draw("COE", seeds[0])))
    tests = two_sample_battery(coe.even, draw(even_kind, seeds[1]), prefix="even_")
    tests += two_sample_battery(coe.odd, draw(odd_kind, seeds[2]), prefix="odd_")

    cue = singular_values(draw("CUE", seeds[3]))
    coe_a, coe_b = (decimate(singular_values(draw("COE", s))) for s in seeds[4:])
    union = superpose(coe_a.even, coe_b.odd)
    tests += two_sample_battery(cue, union, prefix="union_")

    params = {"n": n, "count": count, "seed": seed, "nu": nu}
    return build_report("thmCE", params, stat_tests=tests)


# -- interlacing integral -----------------------------------------------------------


def _log_g(w: AdmissibleWeight, nu: int, pts: np.ndarray, companion: bool) -> np.ndarray:
    """log g_nu on (batch, p) arrays of positive rows.

    log of prod z_k^nu * weight(z_k) times prod_{i<j} |z_i^2 - z_j^2|, with
    the companion weight substituted when requested.
    """
    logw = w.log_companion if companion else w.log_w1
    out = np.sum(logw(pts), axis=1)
    if nu:
        out = out + np.sum(np.log(pts), axis=1)
    return out + _log_vdm_rows(pts, 2)


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
    if configs < 1:
        raise BadParameter(f"configs must be positive, got {configs}")
    w = make_weight(family, a)
    mhat = m + mu
    n = 2 * m + mu
    if w.family == "cauchy" and not n <= w.kappa + 2:
        raise BadParameter(f"cauchy requires 2m + mu <= 2a + 2, got {n} > {w.kappa + 2}")
    if tol is None:
        tol = 1e-5 if w.family == "cauchy" else 1e-7
    const = w.theta**mu * big_A(w, mhat, 1 - mu)

    log_g = lambda pts: _log_g(w, 1 - mu, pts, companion=False)
    rng = np.random.default_rng(_check_seed(seed))
    lo_s, hi_s = (0.15, 0.85) if w.family == "jacobi" else (0.25, 1.8)
    checks = []
    for i in range(configs):
        while True:
            s = np.sort(rng.uniform(lo_s, hi_s, m))[::-1]
            if m == 1 or np.min(-np.diff(s)) > 0.08:
                break
        edges = [0.0] * mu + list(s[::-1]) + [w.omega]
        lhs = _settle(
            lambda order: _support_tensor(w.w2, log_g, edges, [1] * mhat, order),
            _ORDER_LADDER[mhat],
            tol / 20.0,
        )
        rhs = const * math.exp(_log_g(w, mu, s[None, :], companion=True)[0])
        resid = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        checks.append((f"config_{i + 1}", "residual", resid, tol, lhs, rhs))
    params = {"family": w.family, "a": w.a, "m": m, "mu": mu, "seed": seed}
    return build_report("dixon_anderson", params, checks=checks)


# -- odd-location marginal ----------------------------------------------------------


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
    return stat, _chi2_sf(stat, dof)


def _cell_index(edges: np.ndarray, points) -> np.ndarray:
    """Flat index of the grid cell that holds one point per column, or one
    array of points per column; row c of ``edges`` cuts column c into bins."""
    bins = edges.shape[1] - 1
    index = [
        np.clip(np.searchsorted(e, p, side="right") - 1, 0, bins - 1)
        for e, p in zip(edges, points)
    ]
    return np.ravel_multi_index(index, (bins,) * edges.shape[0])


def _cell_probs(w1: AdmissibleWeight, n: int, edges: np.ndarray) -> np.ndarray:
    """Probability of each cell of the grid ``edges`` (one row of bin edges
    from 0 to omega per odd column) under the odd-location marginal.

    A cell's mass sums the placement integrals on the merged grid of the
    column edges (``densities._placement_masses``) whose points fall in it;
    the whole vector is escalated until every cell settles to 1e-9 relative,
    with a floor of 1e-6 of the total.  The normalization constant is the
    one-segment integral over the ordered region, on ``normalize``'s ladder
    and tolerance, so the masses' sum is an independent check of it.
    """
    mhat = edges.shape[0]
    # log_q_odd_batch is looked up at call time, so a rebinding is seen
    logq = lambda rows: log_q_odd_batch(w1, rows, n)
    ladder = _ORDER_LADDER[mhat]
    support = [0.0, w1.omega]
    z = _settle(lambda order: _support_tensor(w1.w2, logq, support, [mhat], order), ladder, 1e-7)
    grid = np.unique(edges)
    # a point in segment i of the merged grid lies in the cell that holds grid[i]
    label = lambda segs: _cell_index(edges, grid[list(segs)])
    size = (edges.shape[1] - 1) ** mhat
    mass_at = lambda order: _placement_masses(w1, logq, grid, mhat, label, size, order)
    return _settle(mass_at, ladder, 1e-9, 1e-6 * z) / z


def verify_q_odd(
    family: str,
    n: int,
    count: int,
    seed: int,
    a: float | None = None,
    workers: int = 1,
) -> VerificationReport:
    """Odd-decimated singular values against the predicted marginal density.

    Each column of odd values (one at n = 2, an ordered pair at n = 3) is cut
    at its own quantiles, into 16 bins for one column and 8 for each of two,
    and the cells of that grid are counted against ``_cell_probs``.
    """
    if n not in (2, 3):
        raise BadParameter("binned comparison is defined for n in {2, 3}")
    w1 = make_weight(family, a)
    bins = 16 if n == 2 else 8
    batch = sample_ensemble(EnsembleSpec("OE", n, w1), count, seed, workers=workers)
    odd = decimate(singular_values(batch.spectra)).odd

    edges = np.quantile(odd, np.linspace(0.0, 1.0, bins + 1), axis=0).T
    edges[:, 0], edges[:, -1] = 0.0, w1.omega
    observed = np.bincount(_cell_index(edges, odd.T), minlength=bins**odd.shape[1])
    probs = _cell_probs(w1, n, edges)

    raw_mass = float(probs.sum())
    mass_resid = abs(raw_mass - 1.0)
    probs = probs / raw_mass
    stat, p = _chi2_gof(observed.astype(float), probs)
    params = {"family": w1.family, "a": w1.a, "n": n, "count": count, "seed": seed}
    return build_report(
        "q_odd",
        params,
        stat_tests=[("chi2_bins", "chi2", stat, p)],
        checks=[("bin_mass", "residual", mass_resid, 1e-5, raw_mass, 1.0)],
    )


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
