"""Spectrum samplers for every supported ensemble.

Exact, independent draws wherever the law has a matrix model: Gaussian
symmetric and Hermitian matrices, Haar circular and orthogonal matrices,
tangent-half-angle pullbacks of the circular ensembles for the matched
Cauchy weights, and the beta-Laguerre (Dumitriu-Edelman) and beta-Jacobi
(Edelman-Sutton) bidiagonal models with real parameters for the chiral and
Jacobi laws.  A generic random-walk Metropolis sampler covers the rest (OE
and UE with a Cauchy weight off the circular exponents) and serves as an
independent cross-check on request.  All samplers are deterministic given
the seed: work is split into a fixed number of logical blocks, each with its
own generator derived from (seed, block index), so the output does not
depend on the worker count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .densities import log_chiral_batch, log_p_beta_batch
from .errors import BadParameter, NonConvergence, PoleAtPi, StuckChain
from .weights import AdmissibleWeight

__all__ = [
    "EnsembleSpec",
    "SampleBatch",
    "McmcParams",
    "sample_gaussian_matrix",
    "sample_haar_circular",
    "sample_beta_laguerre",
    "sample_beta_jacobi",
    "sample_mcmc",
    "sample_ensemble",
    "has_exact_route",
    "stereographic",
    "stereographic_inverse",
]

_KINDS = ("OE", "UE", "chUE", "COE", "CUE", "Oplus", "Ominus")
_CIRCULAR = ("COE", "CUE", "Oplus", "Ominus")

# fixed logical block count; workers execute blocks, they never reshape them
_BLOCKS = 4
_ALGEBRAIC_TOL = 1e-9


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw from and how.

    ``n`` is the number of eigenvalues for OE/UE, the number of positive
    values for chUE, the matrix order for COE/CUE, and one less than the
    matrix order for Oplus/Ominus.  ``mu`` selects the chiral weight
    x^(2 mu) w2 and is meaningful only for chUE.  ``method`` is "auto"
    (exact when available, else Metropolis), "exact", or "mcmc"; see
    ``sample_ensemble`` for the routes.
    """

    kind: str
    n: int
    weight: AdmissibleWeight | None = None
    mu: int = 0
    method: str = "auto"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise BadParameter(f"unknown ensemble kind {self.kind!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise BadParameter("order n must be a positive integer")
        if self.method not in ("auto", "exact", "mcmc"):
            raise BadParameter(f"unknown method {self.method!r}")
        if self.kind in _CIRCULAR:
            if self.weight is not None:
                raise BadParameter("circular kinds carry no weight")
            if self.method == "mcmc":
                raise BadParameter("circular kinds sample exactly only")
        else:
            if self.weight is None:
                raise BadParameter(f"{self.kind} requires a weight")
        if self.kind == "chUE":
            if self.mu not in (0, 1):
                raise BadParameter("chUE takes mu in {0, 1}")
        elif self.mu != 0:
            raise BadParameter("mu is meaningful only for chUE")
        if self.weight is not None and self.weight.family == "cauchy":
            a = float(self.weight.a)
            # largest-value tail exponent must stay below -1
            bound = {"OE": 2.0 * a + 2.0, "UE": 2.0 * a + 1.5}.get(
                self.kind, a + 1.25 - 0.5 * self.mu
            )
            if not self.n < bound:
                raise BadParameter(
                    f"{self.kind}_{self.n} with cauchy a={a:g} is not normalizable"
                )

    def describe(self) -> str:
        bits = [f"kind={self.kind}", f"n={self.n}"]
        if self.weight is not None:
            w = self.weight
            bits.append(
                f"weight={w.family}" if w.a is None else f"weight={w.family}(a={w.a:g})"
            )
        if self.kind == "chUE":
            bits.append(f"mu={self.mu}")
        bits.append(f"method={self.method}")
        return "Ensemble(" + ", ".join(bits) + ")"


@dataclass(frozen=True)
class SampleBatch:
    """A batch of sorted spectra with its seed and sampler diagnostics."""

    spectra: np.ndarray
    seed: int
    label: str = ""
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.asarray(self.spectra, dtype=float)
        if arr.ndim != 2:
            raise BadParameter("spectra must be a (count, width) array")
        if arr.shape[1] > 1 and np.any(np.diff(arr, axis=1) < 0):
            raise BadParameter("every spectrum must be sorted ascending")
        object.__setattr__(self, "spectra", arr)

    @property
    def count(self) -> int:
        return self.spectra.shape[0]

    @property
    def width(self) -> int:
        return self.spectra.shape[1]

    def to_csv(self, path) -> None:
        diag = json.dumps(self.diagnostics, sort_keys=True, separators=(",", ":"))
        lines = [
            f"# spec={self.label} seed={self.seed} diagnostics={diag}",
            ",".join(f"v{i + 1}" for i in range(self.width)),
        ]
        for row in self.spectra:
            lines.append(",".join(f"{v:.17g}" for v in row))
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "SampleBatch":
        label, seed, diagnostics = "", 0, {}
        rows: list[list[float]] = []
        width = 0
        saw_header = False
        for line in Path(path).read_text().splitlines():
            if line.startswith("# spec="):
                head, diag = line[2:].rsplit(" diagnostics=", 1)
                head, seed_text = head.rsplit(" seed=", 1)
                label = head[len("spec=") :]
                seed = int(seed_text)
                diagnostics = json.loads(diag)
            elif not saw_header:
                saw_header = True
                width = len(line.split(",")) if line else 0
            else:
                rows.append([float(t) for t in line.split(",")] if line else [])
        spectra = np.array(rows, dtype=float).reshape(len(rows), width)
        return cls(spectra=spectra, seed=seed, label=label, diagnostics=diagnostics)

    def to_jsonl(self, path) -> None:
        lines = [
            json.dumps(
                {"spec": self.label, "seed": self.seed, "diagnostics": self.diagnostics},
                sort_keys=True,
            )
        ]
        for row in self.spectra:
            lines.append(json.dumps({"values": [float(v) for v in row]}))
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "SampleBatch":
        lines = Path(path).read_text().splitlines()
        head = json.loads(lines[0])
        rows = [json.loads(line)["values"] for line in lines[1:]]
        width = len(rows[0]) if rows else 0
        spectra = np.array(rows, dtype=float).reshape(len(rows), width)
        return cls(
            spectra=spectra,
            seed=int(head["seed"]),
            label=head["spec"],
            diagnostics=head["diagnostics"],
        )


# -- deterministic block scheduling ---------------------------------------------


def _block_sizes(count: int) -> list[int]:
    base, rem = divmod(count, _BLOCKS)
    return [s for s in [base + 1] * rem + [base] * (_BLOCKS - rem) if s > 0]


def _block_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**64, index]))


def _run_blocks(fn: Callable, count: int, seed: int, workers: int) -> list:
    """Run fn(rng, size) over the fixed block partition, order-stable."""
    if count < 1:
        raise BadParameter("batch size must be positive")
    sizes = _block_sizes(count)

    def job(i: int):
        return fn(_block_rng(seed, i), sizes[i])

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(job, range(len(sizes))))
    return [job(i) for i in range(len(sizes))]


def _merge(parts: list, seed: int, label: str) -> SampleBatch:
    spectra = np.vstack([p[0] for p in parts])
    stats = [p[1] for p in parts]
    diagnostics: dict = {}
    if any(stats):
        sizes = np.array([p[0].shape[0] for p in parts], dtype=float)
        acc = np.array([s.get("acceptance", 0.0) for s in stats])
        diagnostics = {
            "acceptance": float(np.sum(acc * sizes) / np.sum(sizes)),
            "ess": float(sum(s.get("ess", 0.0) for s in stats)),
        }
    return SampleBatch(spectra=spectra, seed=seed, label=label, diagnostics=diagnostics)


# -- exact matrix models ----------------------------------------------------------


def sample_gaussian_matrix(
    beta: int, n: int, count: int, seed: int, workers: int = 1
) -> SampleBatch:
    """Sorted eigenvalues of Gaussian symmetric (beta=1) or Hermitian (beta=2)
    matrices, normalized so the joint density carries prod exp(-x^2/2) |Vdm|
    for beta=1 and prod exp(-x^2) Vdm^2 for beta=2.
    """
    if beta not in (1, 2):
        raise BadParameter(f"beta must be 1 or 2, got {beta}")
    if n < 1:
        raise BadParameter("n must be positive")

    def block(rng: np.random.Generator, m: int):
        if beta == 1:
            a = rng.standard_normal((m, n, n))
            h = (a + np.swapaxes(a, 1, 2)) / 2.0
        else:
            a = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
            h = (a + np.conj(np.swapaxes(a, 1, 2))) / (2.0 * math.sqrt(2.0))
        return np.linalg.eigvalsh(h), {}

    parts = _run_blocks(block, count, seed, workers)
    return _merge(parts, seed, f"Gaussian(beta={beta}, n={n})")


def _haar_unitary(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    z = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    q, r = np.linalg.qr(z)
    d = np.einsum("bii->bi", r)
    mag = np.abs(d)
    phase = np.where(mag == 0.0, 1.0, d / np.where(mag == 0.0, 1.0, mag))
    return q * phase[:, None, :]


def _haar_orthogonal(
    rng: np.random.Generator, m: int, size: int, det_sign: int
) -> np.ndarray:
    g = rng.standard_normal((m, size, size))
    q, r = np.linalg.qr(g)
    d = np.sign(np.einsum("bii->bi", r))
    d[d == 0.0] = 1.0
    q = q * d[:, None, :]
    flip = np.linalg.det(q) * det_sign < 0
    q[flip, 0, :] *= -1.0
    return q


def _rotation_angles(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation angles in (0, pi) of a stack of orthogonal matrices.

    One batched eigenvalue call for the whole stack.  Returns (angles,
    counts): row i of ``angles`` holds the counts[i] angles of q[i] in
    ascending order, then +inf.  Angles within _ALGEBRAIC_TOL of 0 or pi are
    treated as forced by the determinant constraint and dropped.
    """
    ang = np.angle(np.linalg.eigvals(q))
    keep = (ang > _ALGEBRAIC_TOL) & (ang < math.pi - _ALGEBRAIC_TOL)
    return np.sort(np.where(keep, ang, np.inf), axis=1), np.count_nonzero(keep, axis=1)


def _oplus_width(n: int) -> int:
    return (n + 1) // 2


def _ominus_width(n: int) -> int:
    return n // 2


def sample_haar_circular(
    kind: str, n: int, count: int, seed: int, workers: int = 1
) -> SampleBatch:
    """Eigen-angle batches of Haar circular ensembles.

    COE/CUE return all n angles in (-pi, pi].  Oplus/Ominus draw Haar
    orthogonal matrices of order n + 1 and return the nontrivial angles in
    (0, pi): Oplus is the sector with no forced +1 eigenvalue (determinant
    (-1)^(n+1)), Ominus the sector whose matrices all have +1 as a forced
    eigenvalue.  At even order that is determinant +1 / -1; at odd order
    the forced eigenvalues flip the determinant.  The algebraic angles at
    0 and pi are discarded, and the rare draw whose rotation angle collides
    with them is redrawn.
    """
    if kind not in _CIRCULAR:
        raise BadParameter(f"not a circular kind: {kind!r}")
    if n < 1:
        raise BadParameter("n must be positive")

    if kind in ("COE", "CUE"):

        def block(rng: np.random.Generator, m: int):
            u = _haar_unitary(rng, m, n)
            if kind == "COE":
                u = np.swapaxes(u, 1, 2) @ u
            return np.sort(np.angle(np.linalg.eigvals(u)), axis=1), {}

    else:
        size = n + 1
        # the no-forced-+1 sector has determinant (-1)^size
        unforced = 1 if size % 2 == 0 else -1
        det_sign = unforced if kind == "Oplus" else -unforced
        width = _oplus_width(n) if kind == "Oplus" else _ominus_width(n)

        def block(rng: np.random.Generator, m: int):
            out = np.empty((m, width))
            filled = 0
            for _ in range(64):
                angles, counts = _rotation_angles(
                    _haar_orthogonal(rng, m - filled, size, det_sign)
                )
                rows = angles[counts == width, :width]
                out[filled : filled + rows.shape[0]] = rows
                filled += rows.shape[0]
                if filled == m:
                    return out, {}
            raise NonConvergence("persistent degenerate rotation angles")

    parts = _run_blocks(block, count, seed, workers)
    return _merge(parts, seed, f"Haar({kind}, n={n})")


# -- beta-ensemble matrix models -------------------------------------------------


def _bidiagonal(diag: np.ndarray, off: np.ndarray, upper: bool) -> np.ndarray:
    """Stack of bidiagonal matrices from (m, n) diagonals and (m, n-1) off-diagonals."""
    m, n = diag.shape
    b = np.zeros((m, n, n))
    i = np.arange(n)
    b[:, i, i] = diag
    if upper:
        b[:, i[:-1], i[1:]] = off
    else:
        b[:, i[1:], i[:-1]] = off
    return b


def _squared_singular_values(b: np.ndarray) -> np.ndarray:
    return np.sort(np.linalg.svd(b, compute_uv=False) ** 2, axis=1)


def sample_beta_laguerre(
    beta: float, n: int, p: float, count: int, seed: int, workers: int = 1
) -> SampleBatch:
    """Sorted eigenvalues in (0, inf) with joint density
    prod lam^p exp(-lam/2) |Vdm|^beta, for any beta > 0 and p > -1.

    Dumitriu-Edelman bidiagonal model: the squared singular values of the
    lower bidiagonal B whose row k (k = 0..n-1) holds chi_{2 alpha - beta k}
    on the diagonal and chi_{beta (n-k)} left of it, with
    alpha = p + 1 + beta (n-1)/2.  Every draw is independent.
    """
    if not beta > 0.0:
        raise BadParameter(f"beta must be positive, got {beta}")
    if n < 1:
        raise BadParameter("n must be positive")
    if not p > -1.0:
        raise BadParameter(f"Laguerre exponent must exceed -1, got {p}")
    k = np.arange(n)
    diag_df = 2.0 * p + 2.0 + beta * (n - 1 - k)
    off_df = beta * (n - k[1:])

    def block(rng: np.random.Generator, m: int):
        diag = np.sqrt(rng.chisquare(diag_df, (m, n)))
        off = np.sqrt(rng.chisquare(off_df, (m, n - 1)))
        return _squared_singular_values(_bidiagonal(diag, off, upper=False)), {}

    parts = _run_blocks(block, count, seed, workers)
    return _merge(parts, seed, f"BetaLaguerre(beta={beta:g}, n={n}, p={p:g})")


def sample_beta_jacobi(
    beta: float, n: int, A: float, B: float, count: int, seed: int, workers: int = 1
) -> SampleBatch:
    """Sorted values in (0, 1) with joint density
    prod lam^(beta/2 (A+1) - 1) (1 - lam)^(beta/2 (B+1) - 1) |Vdm|^beta,
    for any beta > 0 and A, B > -1.

    Edelman-Sutton CS model: with c_k ~ sqrt Beta(beta/2 (A+k), beta/2 (B+k))
    (k = 1..n) and c'_k ~ sqrt Beta(beta/2 k, beta/2 (A+B+1+k)) (k = 1..n-1),
    lam are the squared singular values of the upper bidiagonal B11 with
    diagonal (c_n, c_{n-1} s'_{n-1}, ..., c_1 s'_1) and superdiagonal
    (-s_n c'_{n-1}, ..., -s_2 c'_1), where s = sqrt(1 - c^2).  B11 is a
    contraction, so lam is clipped to 1 against rounding.  Every draw is
    independent.
    """
    if not beta > 0.0:
        raise BadParameter(f"beta must be positive, got {beta}")
    if n < 1:
        raise BadParameter("n must be positive")
    if not (A > -1.0 and B > -1.0):
        raise BadParameter(f"Jacobi exponents must exceed -1, got A={A}, B={B}")
    k = np.arange(1.0, n + 1.0)
    kp = k[:-1]
    half = 0.5 * beta

    def block(rng: np.random.Generator, m: int):
        c = np.sqrt(rng.beta(half * (A + k), half * (B + k), (m, n)))
        cp = np.sqrt(rng.beta(half * kp, half * (A + B + 1.0 + kp), (m, n - 1)))
        s, sp = np.sqrt(1.0 - c * c), np.sqrt(1.0 - cp * cp)
        diag = c[:, ::-1].copy()
        diag[:, 1:] *= sp[:, ::-1]
        off = -s[:, :0:-1] * cp[:, ::-1]
        return np.minimum(_squared_singular_values(_bidiagonal(diag, off, upper=True)), 1.0), {}

    parts = _run_blocks(block, count, seed, workers)
    return _merge(parts, seed, f"BetaJacobi(beta={beta:g}, n={n}, A={A:g}, B={B:g})")


# -- generic Metropolis sampler ---------------------------------------------------


@dataclass(frozen=True)
class McmcParams:
    """Random-walk Metropolis controls.

    ``thin_per_dim`` sweeps-per-sample is multiplied by the dimension; the
    step scale adapts toward the [accept_low, accept_high] band during
    burn-in only.  ``heavy_tail`` mixes a 10% Cauchy component into the
    proposals for weights whose support needs occasional long jumps.
    """

    burn_in: int = 10_000
    thin_per_dim: int = 10
    chains: int = 256
    step0: float = 0.5
    accept_low: float = 0.25
    accept_high: float = 0.40
    adapt_window: int = 50
    heavy_tail: bool = False

    def __post_init__(self) -> None:
        if self.burn_in < 0 or self.thin_per_dim < 1 or self.chains < 1:
            raise BadParameter("bad Metropolis controls")
        if not 0.0 < self.accept_low < self.accept_high < 1.0:
            raise BadParameter("need 0 < accept_low < accept_high < 1")
        if self.step0 <= 0 or self.adapt_window < 1:
            raise BadParameter("bad Metropolis controls")


def _sweep(
    rng: np.random.Generator,
    x: np.ndarray,
    lp: np.ndarray,
    step: float,
    log_density: Callable[[np.ndarray], np.ndarray],
    heavy_tail: bool,
) -> tuple[int, int]:
    """One Metropolis pass over every coordinate, in place."""
    chains, n = x.shape
    accepted = 0
    for k in range(n):
        dx = rng.standard_normal(chains) * step
        if heavy_tail:
            mix = rng.random(chains) < 0.10
            if mix.any():
                dx[mix] = rng.standard_cauchy(int(mix.sum())) * step
        old = x[:, k].copy()
        x[:, k] = old + dx
        lp_new = np.asarray(log_density(x), dtype=float)
        ref = np.log(rng.random(chains))
        with np.errstate(invalid="ignore"):
            keep = lp_new - lp > ref
        x[~keep, k] = old[~keep]
        lp[keep] = lp_new[keep]
        accepted += int(np.count_nonzero(keep))
    return accepted, chains * n


def _ess_estimate(kept: np.ndarray, m: int) -> float:
    """Crude pooled effective sample size from lag-1 autocorrelation."""
    rows = kept.shape[0]
    if rows < 3:
        return float(m)
    s = kept.sum(axis=2)
    s = s - s.mean(axis=0)
    den = float(np.sum(s * s))
    if den <= 0.0:
        return float(m)
    rho = float(np.sum(s[1:] * s[:-1])) / den
    rho = min(max(rho, 0.0), 0.999)
    return float(m) * (1.0 - rho) / (1.0 + rho)


def _default_init(rng: np.random.Generator, chains: int, n: int) -> np.ndarray:
    return rng.standard_normal((chains, n))


def _mcmc_block(
    rng: np.random.Generator,
    m: int,
    log_density: Callable[[np.ndarray], np.ndarray],
    n: int,
    params: McmcParams,
    init: Callable[[np.random.Generator, int, int], np.ndarray],
):
    chains = min(params.chains, m)
    x = np.asarray(init(rng, chains, n), dtype=float).reshape(chains, n).copy()
    lp = np.asarray(log_density(x), dtype=float)
    for _ in range(200):
        bad = ~np.isfinite(lp)
        if not bad.any():
            break
        x[bad] = init(rng, int(bad.sum()), n)
        lp[bad] = log_density(x[bad])
    else:
        raise BadParameter("no finite-density start point found")

    step = params.step0
    acc = tot = 0
    for sweep in range(params.burn_in):
        a, t = _sweep(rng, x, lp, step, log_density, params.heavy_tail)
        acc += a
        tot += t
        if (sweep + 1) % params.adapt_window == 0:
            rate = acc / tot
            if rate > params.accept_high:
                step *= 1.25
            elif rate < params.accept_low:
                step /= 1.25
            acc = tot = 0

    thin = params.thin_per_dim * n
    rows = -(-m // chains)
    kept = np.empty((rows, chains, n))
    acc = tot = 0
    for r in range(rows):
        for _ in range(thin):
            a, t = _sweep(rng, x, lp, step, log_density, params.heavy_tail)
            acc += a
            tot += t
        kept[r] = x
    rate = acc / tot
    if rate < 0.01:
        raise StuckChain(f"acceptance {rate:.4f} below 1% after adaptation")

    draws = np.sort(kept.reshape(rows * chains, n)[:m], axis=1)
    return draws, {"acceptance": rate, "ess": _ess_estimate(kept, m)}


def sample_mcmc(
    log_density: Callable[[np.ndarray], np.ndarray],
    n: int,
    count: int,
    seed: int,
    params: McmcParams | None = None,
    init: Callable[[np.random.Generator, int, int], np.ndarray] | None = None,
    workers: int = 1,
) -> SampleBatch:
    """Metropolis draws from an unnormalized log density on (batch, n) arrays.

    Coordinates are unordered during the walk; each retained draw is sorted.
    ``init`` generates start points, (rng, chains, n) -> array; the default
    is standard normal, which suits densities with mass near the origin.
    """
    if n < 1:
        raise BadParameter("n must be positive")
    p = params if params is not None else McmcParams()
    start = init if init is not None else _default_init

    def block(rng: np.random.Generator, m: int):
        return _mcmc_block(rng, m, log_density, n, p, start)

    parts = _run_blocks(block, count, seed, workers)
    return _merge(parts, seed, f"Metropolis(n={n})")


# -- stereographic bridge ---------------------------------------------------------


def stereographic(x):
    """Angle of (1 + ix)/(1 - ix), i.e. theta = 2 arctan x, onto (-pi, pi)."""
    arr = np.asarray(x, dtype=float)
    out = 2.0 * np.arctan(arr)
    return float(out) if arr.ndim == 0 else out


def stereographic_inverse(theta):
    """x = tan(theta/2) for |theta| < pi; raises PoleAtPi at the pole."""
    arr = np.asarray(theta, dtype=float)
    if np.any(np.abs(arr) >= math.pi):
        raise PoleAtPi("angle at or beyond the pole at pi")
    out = np.tan(0.5 * arr)
    return float(out) if arr.ndim == 0 else out


# -- ensemble dispatch -------------------------------------------------------------


def _near_int(v: float) -> int | None:
    r = round(v)
    return int(r) if abs(v - r) < 1e-12 else None


def _pullback_source(spec: EnsembleSpec) -> tuple[str, int] | None:
    """The circular (kind, order) whose tangent-half-angle image is this
    Cauchy spec, or None when the exponent matches no circular order."""
    order = _near_int(2.0 * spec.weight.a + 1.0)
    if order is None or order < 1:
        return None
    if spec.kind in ("OE", "UE"):
        return ("COE" if spec.kind == "OE" else "CUE", order) if order == spec.n else None
    if spec.mu == 0:
        return ("Oplus", order) if spec.n == _oplus_width(order) else None
    return ("Ominus", order) if spec.n == _ominus_width(order) else None


def _exact_route(spec: EnsembleSpec) -> str | None:
    """Name of the exact sampler for this spec, None where only Metropolis
    applies (OE/UE Cauchy at an exponent with no circular pullback)."""
    if spec.kind in _CIRCULAR:
        return "haar"
    family = spec.weight.family
    if family == "gauss":
        return "gaussian" if spec.kind in ("OE", "UE") else "beta-laguerre"
    if family == "jacobi":
        return "beta-jacobi"
    if _pullback_source(spec) is not None:
        return "pullback"
    return "beta-jacobi" if spec.kind == "chUE" else None


def has_exact_route(spec: EnsembleSpec) -> bool:
    """Whether a matrix-model or pullback sampler exists for this spec.

    Every spec has one except OE/UE with a Cauchy weight whose exponent
    2a + 1 differs from n; those sample by Metropolis only.
    """
    return _exact_route(spec) is not None


def _pullback(angles: SampleBatch) -> np.ndarray:
    return np.sort(np.tan(0.5 * angles.spectra), axis=1)


def _sample_beta_model(spec: EnsembleSpec, count: int, seed: int, workers: int) -> np.ndarray:
    """Spectra from the beta-Laguerre / beta-Jacobi model of the spec's law.

    chUE maps to u = x^2 with density prod u^(mu - 1/2) w2(sqrt u) Vdm(u)^2:
    Gauss is beta-Laguerre at u = lam/2, Jacobi is beta-Jacobi at u = lam,
    and Cauchy is beta-Jacobi after v = u/(1 + u).  OE/UE Jacobi is
    beta-Jacobi at x = 2 lam - 1.
    """
    n, w, mu = spec.n, spec.weight, spec.mu
    if spec.kind == "chUE":
        if w.family == "gauss":
            lam = sample_beta_laguerre(2, n, mu - 0.5, count, seed, workers).spectra
            return np.sqrt(0.5 * lam)
        if w.family == "jacobi":
            b = 2.0 * w.a + 1.0
            lam = sample_beta_jacobi(2, n, mu - 0.5, b, count, seed, workers).spectra
            return np.sqrt(lam)
        b = 2.0 * w.a - mu - 2.0 * n + 1.5
        lam = sample_beta_jacobi(2, n, mu - 0.5, b, count, seed, workers).spectra
        return np.sqrt(lam / (1.0 - lam))
    beta = 1 if spec.kind == "OE" else 2
    ab = 2.0 * w.a + 1.0
    return 2.0 * sample_beta_jacobi(beta, n, ab, ab, count, seed, workers).spectra - 1.0


def _sample_exact(
    spec: EnsembleSpec, route: str, count: int, seed: int, workers: int
) -> SampleBatch:
    if route == "haar":
        return sample_haar_circular(spec.kind, spec.n, count, seed, workers)
    if route == "gaussian":
        beta = 1 if spec.kind == "OE" else 2
        return sample_gaussian_matrix(beta, spec.n, count, seed, workers)
    if route == "pullback":
        kind, order = _pullback_source(spec)
        base = sample_haar_circular(kind, order, count, seed, workers)
        return SampleBatch(spectra=_pullback(base), seed=seed)
    return SampleBatch(spectra=_sample_beta_model(spec, count, seed, workers), seed=seed)


def _mcmc_density(spec: EnsembleSpec) -> Callable[[np.ndarray], np.ndarray]:
    w = spec.weight
    if spec.kind in ("OE", "UE"):
        beta = 1 if spec.kind == "OE" else 2
        return lambda x: log_p_beta_batch(w, beta, x)
    mu = spec.mu

    def log_weight(v: np.ndarray) -> np.ndarray:
        out = np.full(v.shape, -np.inf)
        pos = v > 0.0
        vv = v[pos]
        lw = w.log_w2(vv)
        if mu:
            lw = lw + 2.0 * np.log(vv)
        out[pos] = lw
        return out

    return lambda x: log_chiral_batch(log_weight, x)


def _mcmc_init(spec: EnsembleSpec) -> Callable:
    chiral = spec.kind == "chUE"
    if spec.weight.family == "jacobi":
        if chiral:
            return lambda rng, c, n: rng.uniform(0.05, 0.95, (c, n))
        return lambda rng, c, n: rng.uniform(-0.8, 0.8, (c, n))
    if chiral:
        return lambda rng, c, n: np.abs(rng.standard_normal((c, n))) + 0.05
    return _default_init


def sample_ensemble(
    spec: EnsembleSpec,
    count: int,
    seed: int,
    workers: int = 1,
    params: McmcParams | None = None,
) -> SampleBatch:
    """Draw a batch from the ensemble, routing per spec.method.

    Exact routes (``diagnostics["route"]`` names the one taken):

    - "gaussian": Gaussian symmetric/Hermitian matrices for Gauss OE/UE;
    - "haar": Haar unitary/orthogonal matrices for the circular kinds;
    - "pullback": tangent-half-angle images of COE/CUE/Oplus/Ominus for
      Cauchy weights whose exponent matches a circular order;
    - "beta-laguerre": chUE Gauss;
    - "beta-jacobi": OE/UE/chUE Jacobi and the remaining chUE Cauchy.

    OE/UE Cauchy at any other exponent, and every spec with method "mcmc",
    runs Metropolis ("metropolis") on the matching log density; those
    batches also record the acceptance rate and effective sample size.
    """
    route = _exact_route(spec)
    if spec.method == "exact" and route is None:
        raise BadParameter(f"no exact route for {spec.describe()}")
    if spec.method != "mcmc" and route is not None:
        batch = _sample_exact(spec, route, count, seed, workers)
    else:
        route = "metropolis"
        p = params if params is not None else McmcParams()
        if spec.weight.family == "cauchy" and not p.heavy_tail:
            p = replace(p, heavy_tail=True)
        batch = sample_mcmc(
            _mcmc_density(spec),
            spec.n,
            count,
            seed,
            params=p,
            init=_mcmc_init(spec),
            workers=workers,
        )
    return replace(
        batch, label=spec.describe(), diagnostics={"route": route, **batch.diagnostics}
    )
