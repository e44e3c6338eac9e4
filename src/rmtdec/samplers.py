"""Spectrum samplers for every supported ensemble.

Exact, independent draws wherever the law has a matrix model: Gaussian
symmetric and Hermitian matrices, Haar unitary matrices for COE/CUE (whose
Cayley transform is Hermitian with eigenvalues tan(theta/2)), the
tangent-half-angle pullbacks of COE/CUE for the matched Cauchy weights,
and the beta-Laguerre (Dumitriu-Edelman) and beta-Jacobi (Edelman-Sutton)
bidiagonal models with real parameters for the chiral and Jacobi laws and
the Oplus/Ominus angles.  Matrices of order 1 and 2 take closed forms at
each linear-algebra step (the Haar QR, U^T U, the Cayley step, Hermitian
eigenvalues and bidiagonal singular values), so small-n batches pay no
per-matrix LAPACK call; from order 3 on the steps are LAPACK's.  Only the
rare COE/CUE row with an angle near pi, or with I + U singular, calls a
non-symmetric eigensolver.  A generic random-walk Metropolis
sampler covers the rest (OE and UE with a Cauchy weight off the circular
exponents) and serves as an independent cross-check on request.  All
samplers are deterministic given the seed, an integer in [0, 2**64) (any
other raises BadParameter): work is split into a fixed number of logical
blocks, each with its own generator derived from (seed, block index), so
the output does not depend on the worker count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .densities import log_chiral_batch, log_p_beta_batch
from .errors import BadParameter, PoleAtPi, StuckChain
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
# |tan(theta/2)| beyond which a Cayley row falls back to eigvals
_CAYLEY_MAX = 100.0
# rows formatted per write by SampleBatch.to_csv and to_jsonl
_IO_ROWS = 1 << 14


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
        if np.any(arr[:, 1:] < arr[:, :-1]):
            raise BadParameter("every spectrum must be sorted ascending")
        object.__setattr__(self, "spectra", arr)

    @property
    def count(self) -> int:
        return self.spectra.shape[0]

    @property
    def width(self) -> int:
        return self.spectra.shape[1]

    def to_csv(self, path) -> None:
        """Write a "# spec=... seed=... diagnostics={...}" line, the column
        header v1..vN, then one row per spectrum.  Values are written with
        %.17g, so they read back bit-identically; each block of _IO_ROWS
        rows is one format operation over its flattened ``tolist()``."""
        diag = json.dumps(self.diagnostics, sort_keys=True, separators=(",", ":"))
        head = f"# spec={self.label} seed={self.seed} diagnostics={diag}\n"
        columns = ",".join(f"v{i + 1}" for i in range(self.width)) + "\n"
        row = ",".join(["%.17g"] * self.width) + "\n"
        with Path(path).open("w") as fh:
            fh.write(head + columns)
            for block in self._blocks():
                fh.write(row * len(block) % tuple(block.ravel().tolist()))

    @classmethod
    def from_csv(cls, path) -> "SampleBatch":
        """Read ``to_csv`` output; CRLF endings and a missing final newline
        are accepted.  Every line after the column header is a row; the rows
        are parsed by one ``np.loadtxt`` call, which rejects ragged rows."""
        label, seed, diagnostics = "", 0, {}
        lines = Path(path).read_text().splitlines()
        at = 0
        while at < len(lines) and lines[at].startswith("# spec="):
            head, diag = lines[at][2:].rsplit(" diagnostics=", 1)
            head, seed_text = head.rsplit(" seed=", 1)
            label = head[len("spec=") :]
            seed = int(seed_text)
            diagnostics = json.loads(diag)
            at += 1
        width = len(lines[at].split(",")) if at < len(lines) and lines[at] else 0
        body = lines[at + 1 :]
        if body and width:
            spectra = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        else:
            spectra = np.empty((len(body), width))
        if spectra.shape != (len(body), width):  # loadtxt skips blank lines
            raise BadParameter(f"expected {len(body)} rows of {width} values in {path}")
        return cls(spectra=spectra, seed=seed, label=label, diagnostics=diagnostics)

    def to_jsonl(self, path) -> None:
        """Write a header object {"diagnostics", "seed", "spec", "width"},
        then one {"values": [...]} object per spectrum.  Each block of
        _IO_ROWS rows comes from one ``json.dumps`` of its ``tolist()``, cut
        at the "], [" between rows (float text never holds a bracket)."""
        head = json.dumps(
            {
                "spec": self.label,
                "seed": self.seed,
                "diagnostics": self.diagnostics,
                "width": self.width,
            },
            sort_keys=True,
        )
        with Path(path).open("w") as fh:
            fh.write(head + "\n")
            for block in self._blocks():
                rows = json.dumps(block.tolist())[1:-1]
                fh.write('{"values": ' + rows.replace("], [", ']}\n{"values": [') + "}\n")

    def _blocks(self) -> Iterator[np.ndarray]:
        """The spectra in consecutive blocks of at most _IO_ROWS rows."""
        return (self.spectra[i : i + _IO_ROWS] for i in range(0, self.count, _IO_ROWS))

    @classmethod
    def from_jsonl(cls, path) -> "SampleBatch":
        """Read ``to_jsonl`` output with one ``json.loads`` of the joined
        rows; CRLF endings and a missing final newline are accepted.  The
        width comes from the header, or in files written without it from
        the first row (0 for such a file without rows)."""
        lines = Path(path).read_text().splitlines()
        head = json.loads(lines[0])
        rows = json.loads("[" + ",".join(lines[1:]) + "]", object_hook=itemgetter("values"))
        width = head.get("width", len(rows[0]) if rows else 0)
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


def _check_seed(seed: int) -> int:
    """The seed itself if it lies in [0, 2**64); no two seeds share a stream."""
    if not 0 <= seed < 2**64:
        raise BadParameter(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _block_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _run_blocks(fn: Callable, count: int, seed: int, workers: int) -> list:
    """Run fn(rng, size) over the fixed block partition, order-stable."""
    if count < 1:
        raise BadParameter("batch size must be positive")
    _check_seed(seed)
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
        return _eigvalsh(h), {}

    parts = _run_blocks(block, count, seed, workers)
    return _merge(parts, seed, f"Gaussian(beta={beta}, n={n})")


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of Hermitian or real symmetric
    matrices, read from the diagonal and the lower triangle as ``eigvalsh``
    reads them.  At order 1 that is the real diagonal, at order 2
    t -+ hypot((a - d)/2, |b|) with t = (a + d)/2, and above that
    ``eigvalsh`` itself."""
    n = h.shape[-1]
    if n > 2:
        return np.linalg.eigvalsh(h)
    if n == 1:
        return h[:, 0, :].real
    a, d = h[:, 0, 0].real, h[:, 1, 1].real
    t = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), np.abs(h[:, 1, 0]))
    return np.stack([t - r, t + r], axis=1)


def _phase(d: np.ndarray) -> np.ndarray:
    """d / |d|, and 1 where d is 0."""
    mag = np.abs(d)
    return np.where(mag == 0.0, 1.0, d / np.where(mag == 0.0, 1.0, mag))


def _haar_unitary(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Q of the QR decomposition z = QR whose R has a positive real diagonal,
    for m complex Gaussian z of order n: Haar unitaries (Mezzadri).  At
    order 2 the first column of Q is z_1/|z_1| = (a, b), and the second is
    its unitary complement (-conj b, conj a) times the phase of
    det z = |z_1| r_22; above that Q is ``qr``'s, with its columns turned
    by the phases of R's diagonal."""
    z = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    if n == 1:
        return _phase(z)
    if n == 2:
        a, b = (z[:, :, 0] / np.linalg.norm(z[:, :, 0], axis=1)[:, None]).T
        p = _phase(a * z[:, 1, 1] - b * z[:, 0, 1])
        q = np.empty_like(z)
        q[:, 0, 0], q[:, 1, 0] = a, b
        q[:, 0, 1], q[:, 1, 1] = -p * b.conj(), p * a.conj()
        return q
    q, r = np.linalg.qr(z)
    return q * _phase(np.einsum("bii->bi", r))[:, None, :]


def _transpose_times(u: np.ndarray) -> np.ndarray:
    """U^T U for a stack of matrices, written out at order <= 2."""
    n = u.shape[-1]
    if n == 1:
        return u * u
    if n > 2:
        return np.swapaxes(u, 1, 2) @ u
    u00, u01, u10, u11 = u[:, 0, 0], u[:, 0, 1], u[:, 1, 0], u[:, 1, 1]
    v = np.empty_like(u)
    v[:, 0, 0] = u00 * u00 + u10 * u10
    v[:, 0, 1] = v[:, 1, 0] = u00 * u01 + u10 * u11
    v[:, 1, 1] = u01 * u01 + u11 * u11
    return v


def _cayley(u: np.ndarray) -> np.ndarray:
    """H = i (I + U)^-1 (I - U) for a stack of matrices.  At order 2 it is
    i adj(I + U) (I - U) / det(I + U) written out, with
    det(I + U) = 1 + tr U + det U; at order <= 2 a singular I + U gives a
    matrix of infinities or NaNs, above that ``solve`` raises LinAlgError."""
    n = u.shape[-1]
    if n == 1:
        return 1j * (1.0 - u) / (1.0 + u)
    if n > 2:
        eye = np.eye(n)
        return 1j * np.linalg.solve(eye + u, eye - u)
    u00, u01, u10, u11 = u[:, 0, 0], u[:, 0, 1], u[:, 1, 0], u[:, 1, 1]
    det = u00 * u11 - u01 * u10
    g = 1j / (1.0 + u00 + u11 + det)
    h = np.empty_like(u)
    h[:, 0, 0] = g * (1.0 - det - u00 + u11)
    h[:, 0, 1] = -2.0 * g * u01
    h[:, 1, 0] = -2.0 * g * u10
    h[:, 1, 1] = g * (1.0 - det + u00 - u11)
    return h


def _cayley_tan_half(u: np.ndarray, real: bool) -> np.ndarray:
    """Ascending tan(theta/2) over the eigen-angles theta of each unitary
    matrix in a stack.

    The Cayley transform H = i (I + U)^-1 (I - U) is Hermitian (real
    symmetric when U is symmetric; ``real`` keeps its real part) with
    eigenvalues tan(theta/2), so one ``_eigvalsh`` sorts them.  Near
    theta = pi the solve loses about lam^2 eps, so a row with any
    |lam| > _CAYLEY_MAX, or any lam that is not finite because I + U is
    singular, is redone with ``eigvals``; at order >= 3 a singular I + U
    makes ``solve`` fail, and the whole stack is redone.
    """
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            h = _cayley(u)
            lam = _eigvalsh(h.real if real else h)
    except np.linalg.LinAlgError:
        lam = np.full(u.shape[:2], np.inf)
    far = ~np.all(np.abs(lam) <= _CAYLEY_MAX, axis=1)
    if far.any():
        lam[far] = np.sort(np.tan(0.5 * np.angle(np.linalg.eigvals(u[far]))), axis=1)
    return lam


def _circular_tan_half(rng: np.random.Generator, m: int, kind: str, n: int) -> np.ndarray:
    """tan(theta/2) of m COE/CUE spectra of order n: the Cayley transform of
    Haar unitaries U (CUE) or of the symmetric U^T U (COE)."""
    u = _haar_unitary(rng, m, n)
    if kind == "COE":
        u = _transpose_times(u)
    return _cayley_tan_half(u, real=kind == "COE")


def sample_haar_circular(
    kind: str, n: int, count: int, seed: int, workers: int = 1
) -> SampleBatch:
    """Eigen-angle batches of Haar circular ensembles.

    COE/CUE return all n angles in (-pi, pi], theta = 2 arctan of the
    Cayley-transform eigenvalues of Haar matrices.  Oplus/Ominus return the
    nontrivial angles in (0, pi) of the two sectors of Haar orthogonal
    matrices of order n + 1: Oplus is the sector with no forced +1 eigenvalue
    (determinant (-1)^(n+1)), Ominus the sector whose matrices all have +1
    as a forced eigenvalue.  At even order that is determinant +1 / -1; at
    odd order the forced eigenvalues flip the determinant.  Their angles
    carry prod (1 - cos)^A (1 + cos)^B |Vdm(cos)|^2 with A (B) = +1/2 where
    a +1 (-1) eigenvalue is forced and -1/2 otherwise, so they are drawn as
    theta = 2 arcsin sqrt(lam) from ``sample_beta_jacobi(2, width, A, B)``.
    """
    if kind not in _CIRCULAR:
        raise BadParameter(f"not a circular kind: {kind!r}")
    if n < 1:
        raise BadParameter("n must be positive")
    label = f"Haar({kind}, n={n})"

    if kind in ("COE", "CUE"):

        def block(rng: np.random.Generator, m: int):
            return stereographic(_circular_tan_half(rng, m, kind, n)), {}

        return _merge(_run_blocks(block, count, seed, workers), seed, label)

    ominus = kind == "Ominus"
    width = n // 2 if ominus else (n + 1) // 2
    if width == 0:  # Ominus of order 2: both eigenvalues are forced
        empty = lambda rng, m: (np.empty((m, 0)), {})
        return _merge(_run_blocks(empty, count, seed, workers), seed, label)
    # a -1 eigenvalue is forced at odd order n + 1 in Oplus, at even in Ominus
    A, B = (0.5 if ominus else -0.5), (0.5 if (n % 2 == 0) != ominus else -0.5)
    lam = sample_beta_jacobi(2, width, A, B, count, seed, workers).spectra
    angles = 2.0 * np.arctan2(np.sqrt(lam), np.sqrt(1.0 - lam))
    return SampleBatch(spectra=angles, seed=seed, label=label)


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


def _squared_singular_values(diag: np.ndarray, off: np.ndarray, upper: bool) -> np.ndarray:
    """Ascending squared singular values of the bidiagonal matrices with
    (m, n) diagonals and (m, n-1) off-diagonals, above the diagonal if
    ``upper``.  At n = 2 they come from F = |B|_F^2 and |det B| = |d1 d2|:
    s_max^2 = (F + sqrt((F - 2|det|)(F + 2|det|)))/2 with
    F -+ 2|det| = (|d1| -+ |d2|)^2 + e^2, and s_min^2 = det^2/s_max^2;
    above that from ``svd`` of the dense matrix."""
    n = diag.shape[1]
    if n == 1:
        return diag * diag
    if n > 2:
        return np.sort(np.linalg.svd(_bidiagonal(diag, off, upper), compute_uv=False) ** 2, axis=1)
    d1, d2, e2 = np.abs(diag[:, 0]), np.abs(diag[:, 1]), off[:, 0] ** 2
    det = d1 * d2
    big = 0.5 * (d1 * d1 + d2 * d2 + e2 + np.sqrt(((d1 - d2) ** 2 + e2) * ((d1 + d2) ** 2 + e2)))
    small = np.divide(det * det, big, out=np.zeros_like(big), where=big > 0.0)
    return np.stack([np.minimum(small, big), big], axis=1)


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
        return _squared_singular_values(diag, off, upper=False), {}

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
        return np.minimum(_squared_singular_values(diag, off, upper=True), 1.0), {}

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


def _pullback_kind(spec: EnsembleSpec) -> str | None:
    """COE/CUE when this OE/UE Cauchy spec is the tangent-half-angle image
    of the circular ensemble of its own order (2a + 1 = n), else None."""
    if spec.kind in ("OE", "UE") and _near_int(2.0 * spec.weight.a + 1.0) == spec.n:
        return "COE" if spec.kind == "OE" else "CUE"
    return None


def _exact_route(spec: EnsembleSpec) -> str | None:
    """Name of the exact sampler for this spec, None where only Metropolis
    applies (OE/UE Cauchy at an exponent with no circular pullback)."""
    if spec.kind in ("COE", "CUE"):
        return "haar"
    if spec.kind in _CIRCULAR:
        return "beta-jacobi"
    family = spec.weight.family
    if family == "gauss":
        return "gaussian" if spec.kind in ("OE", "UE") else "beta-laguerre"
    if family == "jacobi" or spec.kind == "chUE":
        return "beta-jacobi"
    return "pullback" if _pullback_kind(spec) is not None else None


def has_exact_route(spec: EnsembleSpec) -> bool:
    """Whether a matrix-model or pullback sampler exists for this spec.

    Every spec has one except OE/UE with a Cauchy weight whose exponent
    2a + 1 differs from n; those sample by Metropolis only.
    """
    return _exact_route(spec) is not None


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
    if spec.kind in _CIRCULAR:
        return sample_haar_circular(spec.kind, spec.n, count, seed, workers)
    if route == "gaussian":
        beta = 1 if spec.kind == "OE" else 2
        return sample_gaussian_matrix(beta, spec.n, count, seed, workers)
    if route == "pullback":
        kind = _pullback_kind(spec)
        tan_half = lambda rng, m: (_circular_tan_half(rng, m, kind, spec.n), {})
        return _merge(_run_blocks(tan_half, count, seed, workers), seed, "")
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
    - "haar": Haar unitary matrices for COE/CUE;
    - "pullback": tangent-half-angle images of COE/CUE for OE/UE Cauchy
      weights whose exponent 2a + 1 equals n;
    - "beta-laguerre": chUE Gauss;
    - "beta-jacobi": OE/UE/chUE Jacobi, chUE Cauchy and Oplus/Ominus.

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
