"""Exact-moment references for the beta = 2 engines and the recurrence table.

The reference never sees a recurrence coefficient.  For UE it takes the
monomial Gram G[j, k] = int_J x^(j+k) w2 and the full-support Hankel matrix
M[j, k] = int x^(j+k) w2 from incomplete beta and gamma moments; the
generalized eigenvalues of (G, M) are the eigenvalues of the orthonormal
Gram, and E(0..n; J) is the Bernoulli convolution of them.  chUE does the
same in u = x^2 with the moments of x^(2(j+k)+2 mu) w2 on (0, s).

Monomial Hankel matrices are ill-conditioned (about 1e8 for the chUE Jacobi
u-moments at m = 6), which a float64 reference cannot resolve at 1e-12, so
the moments and the Cholesky reduction run in 30-digit mpmath arithmetic
(mpmath is a test dependency, listed in the ``test`` extra).
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest

from rmtdec import orthopoly
from rmtdec.errors import MomentDivergence
from rmtdec.gap import gap_chue_exact, gap_ue_exact
from rmtdec.weights import make_weight

TOL = 1e-12
N_MAX = 6
# each family also runs on (0.5, omega) for UE and, for Jacobi, s = 1 for
# chUE: a range that reaches the end of the support, where the weight's
# power sits
UE_INTERVALS = [(-0.5, 0.5), (-0.3, 0.8)]
CHUE_WIDTHS = [0.5, 0.9]
WEIGHTS = (
    [("gauss", None)]
    + [("jacobi", a) for a in (-0.95, -0.9, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 1.5, 3.0)]
    + [("cauchy", a) for a in (0.3, 0.75, 1.5, 2.5)]
)
WEIGHT_IDS = [f"{fam}{'' if a is None else a}" for fam, a in WEIGHTS]


def _moment(family: str, a: float | None, k: int, x) -> object:
    """int_0^x t^k w2(t) dt for 0 <= x <= omega, w2 the squared-base weight:
    e^(-t^2), (1 - t^2)^(2a+1) or (1 + t^2)^(-2a-1)."""
    h = mp.mpf(k + 1) / 2
    x = mp.mpf(x)
    if family == "gauss":
        return mp.gammainc(h, 0, x * x) / 2
    c = 2 * mp.mpf(a) + 1
    if family == "jacobi":
        return mp.betainc(h, c + 1, 0, x * x) / 2
    v = 1 if mp.isinf(x) else x * x / (1 + x * x)
    return mp.betainc(h, c - h, 0, v) / 2


def _signed_moment(family: str, a: float | None, k: int, x: float) -> object:
    """int_0^x t^k w2(t) dt for either sign of x; w2 is even."""
    if x >= 0:
        return _moment(family, a, k, x)
    return (-1) ** (k + 1) * _moment(family, a, k, -x)


def _gap_vector(G, M, n: int) -> np.ndarray:
    """E(0..n) from the leading n x n blocks of the monomial Grams G and M."""
    with mp.workdps(30):
        L = mp.cholesky(M[:n, :n])
        Linv = L**-1
        C = Linv * G[:n, :n] * Linv.T
        lams = np.linalg.eigvalsh(np.array(C.tolist(), dtype=float))
    e = np.array([1.0])
    for lam in lams:
        e = np.convolve(e, [1.0 - lam, lam])
    return e


def _largest_n(family: str, a: float | None, mu: int | None = None) -> int:
    """Largest n <= N_MAX whose Gram the moments of w2 support: those of
    order 2(n - 1) for UE (mu None), of u-order 2(n - 1) under
    u^(mu - 1/2) w2(sqrt u) for chUE."""
    if family != "cauchy":
        return N_MAX

    def exists(n: int) -> bool:
        if mu is None:
            return 2 * (n - 1) + 1 < 2 * (2 * a + 1)
        return 2 * (n - 1) + mu + 0.5 < 2 * a + 1

    return max(n for n in range(1, N_MAX + 1) if exists(n))


@pytest.mark.parametrize("family,a", WEIGHTS, ids=WEIGHT_IDS)
def test_ue_against_moment_reference(family: str, a: float | None) -> None:
    w = make_weight(family, a)
    top = _largest_n(family, a)
    with mp.workdps(30):
        omega = mp.mpf(1) if family == "jacobi" else mp.inf
        full = [(1 + (-1) ** k) * _moment(family, a, k, omega) for k in range(2 * top - 1)]
        M = mp.matrix([[full[j + k] for k in range(top)] for j in range(top)])
        for J in UE_INTERVALS + [(0.5, float(omega))]:
            part = [
                _signed_moment(family, a, k, J[1]) - _signed_moment(family, a, k, J[0])
                for k in range(2 * top - 1)
            ]
            G = mp.matrix([[part[j + k] for k in range(top)] for j in range(top)])
            for n in range(1, top + 1):
                got = gap_ue_exact(w, n, J).coeffs
                want = _gap_vector(G, M, n)
                np.testing.assert_allclose(got, want, rtol=0, atol=TOL, err_msg=f"n={n} J={J}")


@pytest.mark.parametrize("family,a", WEIGHTS, ids=WEIGHT_IDS)
@pytest.mark.parametrize("mu", [0, 1])
def test_chue_against_moment_reference(family: str, a: float | None, mu: int) -> None:
    w = make_weight(family, a)
    top = _largest_n(family, a, mu)
    with mp.workdps(30):
        omega = mp.mpf(1) if family == "jacobi" else mp.inf
        orders = [2 * k + 2 * mu for k in range(2 * top - 1)]
        full = [_moment(family, a, k, omega) for k in orders]
        M = mp.matrix([[full[j + k] for k in range(top)] for j in range(top)])
        for s in CHUE_WIDTHS + ([1.0] if family == "jacobi" else []):
            part = [_moment(family, a, k, s) for k in orders]
            G = mp.matrix([[part[j + k] for k in range(top)] for j in range(top)])
            for m in range(1, top + 1):
                got = gap_chue_exact(w, mu, m, s).coeffs
                want = _gap_vector(G, M, m)
                np.testing.assert_allclose(got, want, rtol=0, atol=TOL, err_msg=f"m={m} s={s}")


def _table_moment(w, k: int) -> object:
    """The k-th moment of a classical weight over its support, in closed form."""
    a, b = mp.mpf(w.a), mp.mpf(w.b)
    if w.shape == "hermite":
        return mp.gamma(mp.mpf(k + 1) / 2) if k % 2 == 0 else mp.mpf(0)
    if w.shape == "laguerre":
        return mp.gamma(k + b + 1)
    if w.shape == "romanovski":
        return mp.beta(mp.mpf(k + 1) / 2, a - mp.mpf(k + 1) / 2) if k % 2 == 0 else mp.mpf(0)
    if w.shape == "betaprime":
        return mp.beta(k + b + 1, a - k - b - 1)
    # (hi - x)^a (x - lo)^b with x = lo + (hi - lo) t, expanded in powers of t
    lo, hi = (mp.mpf(e) for e in w.support)
    span = hi - lo
    return sum(
        mp.binomial(k, i) * lo ** (k - i) * span ** (i + a + b + 1) * mp.beta(i + b + 1, a + 1)
        for i in range(k + 1)
    )


TABLE_DEGREE = 6


def _table_cases() -> list:
    W = orthopoly.ClassicalWeight
    return [
        W("hermite"),
        W("laguerre", b=-0.5),
        W("laguerre", b=1.5),
        W("jacobi", -0.5, -0.5),
        W("jacobi", 0.7, -0.7),
        W("jacobi", -0.9, -0.9),
        W("jacobi", 0.3, -0.6, (0.0, 1.0)),
        W("jacobi", 2.5, 0.5, (-2.0, 3.0)),
        W("romanovski", 7.3),
        W("betaprime", 15.0, 0.5),
        W("betaprime", 16.0, -0.5),
    ]


def test_recurrence_table_against_hankel_cholesky() -> None:
    """alpha_k and sqrt(beta_k) from the Cholesky factor R of the Hankel
    moment matrix: sqrt(beta_k) = R[k, k] / R[k-1, k-1] and
    alpha_k = R[k, k+1] / R[k, k] - R[k-1, k] / R[k-1, k-1]."""
    d = TABLE_DEGREE
    for w in _table_cases():
        sys = orthopoly.build(w, d)
        with mp.workdps(30):
            H = mp.matrix([[_table_moment(w, i + j) for j in range(d + 1)] for i in range(d + 1)])
            R = mp.cholesky(H).T
            want_b = [R[0, 0]] + [R[k, k] / R[k - 1, k - 1] for k in range(1, d + 1)]
            want_a = [
                R[k, k + 1] / R[k, k] - (R[k - 1, k] / R[k - 1, k - 1] if k else 0)
                for k in range(d)
            ]
            want_b = np.array([float(v) for v in want_b])
            want_a = np.array([float(v) for v in want_a])
        scale = max(1.0, float(np.max(np.abs(want_a))))
        np.testing.assert_allclose(sys.recur_b, want_b, rtol=1e-13, err_msg=str(w))
        np.testing.assert_allclose(sys.recur_a, want_a, rtol=0, atol=1e-13 * scale, err_msg=str(w))


def test_moment_range_is_the_table_condition() -> None:
    """The Cauchy grid above stops exactly where the table refuses."""
    for a in (0.3, 0.75, 1.5):
        w = make_weight("cauchy", a)
        top = _largest_n("cauchy", a)
        gap_ue_exact(w, top, (-0.5, 0.5))
        with pytest.raises(MomentDivergence):
            gap_ue_exact(w, top + 1, (-0.5, 0.5))
        for mu in (0, 1):
            top = _largest_n("cauchy", a, mu)
            gap_chue_exact(w, mu, top, 0.5)
            with pytest.raises(MomentDivergence):
                gap_chue_exact(w, mu, top + 1, 0.5)
