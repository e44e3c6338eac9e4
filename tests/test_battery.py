"""The two-sample battery against an exact oracle.

The reference below is the battery as first written: KS evaluates both
empirical CDFs on the whole 2N pooled grid, and the counting chi-squares
build one boolean mask per bin edge, and a bin with a NaN quantile edge
(from +-inf atoms) reports a NaN statistic and p-value, so that it fails.
``rmtdec.verify`` computes the same numbers with bounded temporaries; these
tests hold it to the reference bit for bit (NaN matching NaN) and to its
memory bound.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rmtdec import verify
from rmtdec.decimation import decimate
from rmtdec.errors import BadParameter
from rmtdec.numerics import special
from rmtdec.verify import ks_two_sample, two_sample_battery

# -- reference ---------------------------------------------------------------------


def ks_reference(a, b) -> tuple[float, float]:
    x = np.sort(np.asarray(a, dtype=float).ravel())
    y = np.sort(np.asarray(b, dtype=float).ravel())
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / x.size
    cdf_y = np.searchsorted(y, grid, side="right") / y.size
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    ne = x.size * y.size / (x.size + y.size)
    p = float(special().kolmogorov(math.sqrt(ne) * d))
    return d, min(max(p, 0.0), 1.0)


def counting_chi2_reference(a: np.ndarray, b: np.ndarray) -> list[tuple[str, str, float, float]]:
    pooled = np.concatenate([a.ravel(), b.ravel()])
    edges = np.quantile(pooled, np.linspace(0.0, 1.0, 9))
    edges[0], edges[-1] = -np.inf, np.inf
    out = []
    width = a.shape[1]
    for i in range(8):
        if np.isnan(edges[i]) or np.isnan(edges[i + 1]):
            out.append((f"chi2_bin_{i + 1}", "chi2", math.nan, math.nan))
            continue
        ca = np.sum((a > edges[i]) & (a <= edges[i + 1]), axis=1)
        cb = np.sum((b > edges[i]) & (b <= edges[i + 1]), axis=1)
        oa = np.bincount(ca, minlength=width + 1).astype(float)
        ob = np.bincount(cb, minlength=width + 1).astype(float)
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
        p = float(special().chdtrc(dof, stat)) if dof >= 1 else math.nan
        out.append((f"chi2_bin_{i + 1}", "chi2", stat, p))
    return out


def battery_reference(a, b, prefix: str = "") -> list[tuple[str, str, float, float]]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    tests = []
    for j in range(a.shape[1]):
        d, p = ks_reference(a[:, j], b[:, j])
        tests.append((f"{prefix}ks_order_{j + 1}", "ks", d, p))
    d, p = ks_reference(a.ravel(), b.ravel())
    tests.append((f"{prefix}ks_pooled", "ks", d, p))
    tests.extend((f"{prefix}{n}", k, s, p) for n, k, s, p in counting_chi2_reference(a, b))
    return tests


def bits(rows) -> list[tuple[str, ...]]:
    """Rows with every float as its repr: equal exactly when the bits are
    (sign of zero included), with every NaN equal to every NaN."""
    return [tuple(repr(v) for v in row) for row in rows]


# -- inputs ------------------------------------------------------------------------

# value laws: continuous, heavy ties, rounded (ties across rows), +-inf atoms,
# more than 1/8 of the pool at +inf, so that top edges become inf or NaN, and
# +-1e308 atoms, whose differences overflow so that edges can decrease
MODES = ("normal", "ties", "rounded", "atoms", "inf-heavy", "huge")


def _rows(rng: np.random.Generator, mode: str, count: int, width: int) -> np.ndarray:
    if mode == "ties":
        x = rng.integers(-2, 3, size=(count, width)).astype(float)
    elif mode == "rounded":
        x = np.round(rng.normal(size=(count, width)), 1)
    elif mode == "huge":
        x = rng.choice([-1e308, 1e308], size=(count, width))
    else:
        x = rng.normal(size=(count, width))
    if mode in ("atoms", "inf-heavy"):
        share = 0.05 if mode == "atoms" else rng.uniform(0.15, 0.7)
        x[rng.uniform(size=x.shape) < share] = np.inf
        x[rng.uniform(size=x.shape) < share / 4] = -np.inf
    return np.sort(x, axis=1)


def _side(rng: np.random.Generator, mode: str, count: int, width: int, view: bool) -> np.ndarray:
    """(count, width) ascending rows; as a view, every second column of a
    (count, 2 width) batch, as ``decimate`` returns it."""
    if not view:
        return _rows(rng, mode, count, width)
    parts = decimate(_rows(rng, mode, count, 2 * width))
    out = parts.even if rng.uniform() < 0.5 else parts.odd
    assert not out.flags.c_contiguous or width == 1 and count == 1
    return out


counts = st.one_of(st.integers(1, 30), st.integers(1, 3000))


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    na=counts,
    nb=counts,
    width=st.integers(1, 4),
    modes=st.tuples(st.sampled_from(MODES), st.sampled_from(MODES)),
    views=st.tuples(st.booleans(), st.booleans()),
    chunk=st.sampled_from([1, 3, 64, verify._KS_CHUNK]),
)
def test_battery_matches_reference(seed, na, nb, width, modes, views, chunk) -> None:
    rng = np.random.default_rng(seed)
    a = _side(rng, modes[0], na, width, views[0])
    b = _side(rng, modes[1], nb, width, views[1])
    quiet = np.errstate(over="ignore", invalid="ignore")  # quantiles between +-1e308 or infs
    with quiet, mock.patch.object(verify, "_KS_CHUNK", chunk):
        got = two_sample_battery(a, b, prefix="p_")
        want = battery_reference(a, b, prefix="p_")
    assert bits(got) == bits(want)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    na=counts,
    nb=counts,
    mode=st.sampled_from(MODES),
    chunk=st.sampled_from([1, 2, 5, verify._KS_CHUNK]),
)
def test_ks_matches_reference(seed, na, nb, mode, chunk) -> None:
    rng = np.random.default_rng(seed)
    a = _rows(rng, mode, na, 1)[:, 0]
    b = rng.permutation(_rows(rng, mode, nb, 1)[:, 0])
    with mock.patch.object(verify, "_KS_CHUNK", chunk):
        assert bits([ks_two_sample(a, b)]) == bits([ks_reference(a, b)])


def test_tie_run_across_chunks() -> None:
    # one long run of 0.0 straddles several chunks of 4 keys
    a = np.array([-1.0] * 3 + [0.0] * 11 + [2.0])
    b = np.array([0.0, 1.0, 1.0, 3.0])
    with mock.patch.object(verify, "_KS_CHUNK", 4):
        assert ks_two_sample(a, b) == ks_reference(a, b)
    # F_a(0) = 14/15 against F_b(0) = 1/4
    assert ks_two_sample(a, b)[0] == 14 / 15 - 1 / 4


def test_decreasing_edges_leave_their_bin_empty() -> None:
    # pooled: 60 points at -1e308, then 60 at 1e308; the median edge
    # 1e308 - (2e308 = inf) / 2 overflows to -inf, below the edge before it
    a = np.array([[-1e308, -1e308], [-1e308, 1e308]] * 15)
    b = np.array([[-1e308, 1e308], [1e308, 1e308]] * 15)
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.quantile(np.concatenate([a, b], axis=None), np.linspace(0.0, 1.0, 9))
        rows = two_sample_battery(a, b)
        assert edges[4] == -np.inf < edges[3]
        assert rows[6] == ("chi2_bin_4", "chi2", 0.0, 1.0)
        assert bits(rows) == bits(battery_reference(a, b))


def test_width_one_pooled_row_reuses_order_row() -> None:
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(500, 1)), rng.normal(0.2, 1.0, size=(400, 1))
    with mock.patch.object(verify, "ks_two_sample", wraps=verify.ks_two_sample) as ks:
        rows = two_sample_battery(a, b)
    assert ks.call_count == 1
    assert rows[1][0] == "ks_pooled" and rows[1][1:] == rows[0][1:]
    assert bits(rows) == bits(battery_reference(a, b))


# -- NaN ---------------------------------------------------------------------------


def test_ks_refuses_nan_naming_side_and_count() -> None:
    with pytest.raises(BadParameter, match="side b has 2 NaN"):
        ks_two_sample([1.0, 2.0, 3.0], [np.nan, 0.5, np.nan])
    with pytest.raises(BadParameter, match="side a has 1 NaN"):
        ks_two_sample([np.nan], [np.inf])
    # +-inf are ordinary points
    assert ks_two_sample([-np.inf, np.inf], [np.inf, np.inf])[0] == 0.5


def test_battery_refuses_nan_naming_side_and_count() -> None:
    a = np.zeros((6, 2))
    b = np.zeros((6, 2))
    b[1, 0] = b[4, 1] = b[5, 1] = np.nan
    with pytest.raises(BadParameter, match="side b has 3 NaN"):
        two_sample_battery(a, b)
    with pytest.raises(BadParameter, match="side a has 3 NaN"):
        two_sample_battery(b, a)


# -- memory ------------------------------------------------------------------------


@pytest.mark.parametrize("width", [1, 3])
def test_battery_peak_within_twice_inputs(width: int) -> None:
    # the full-grid KS and per-edge masks peaked at 6x the inputs' bytes
    rng = np.random.default_rng(9)
    a = np.sort(rng.normal(size=(100_000, width)), axis=1)
    b = np.sort(rng.normal(size=(100_000, width)), axis=1)
    two_sample_battery(a, b)  # first call: scipy.special import and caches
    tracemalloc.start()
    try:
        two_sample_battery(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (a.nbytes + b.nbytes)
