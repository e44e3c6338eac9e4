"""Spectrum samplers for every supported ensemble.

Exact, independent draws wherever the law has a matrix model: Gaussian
symmetric and Hermitian matrices, Haar unitary matrices for the Romanovski
laws at the circular exponent (COE/CUE, and OE/UE with matched Cauchy
weights), and the beta-Laguerre (Dumitriu-Edelman) and beta-Jacobi
(Edelman-Sutton) models for the chiral and Jacobi laws and the Oplus/Ominus
angles.  Matrices of order 1 and 2 take closed forms at each linear-algebra
step, so small-n batches pay no per-matrix LAPACK call; at order 3 the
Hermitian eigenvalues do, and only rows with two eigenvalues close go to
``eigvalsh``.  Only the rare Haar row with an angle near pi, or with I + U
singular, calls a non-symmetric eigensolver.  A generic random-walk
Metropolis sampler covers the rest, the Romanovski laws off the circular
exponent: OE and UE with a Cauchy weight off it, and the eq24cp Cauchy
pair runs.

A law (beta, n, w) is n points with density prod w(x_i)^(beta/2)
|Vdm(x)|^beta for a classical weight w of ``orthopoly``, so its beta = 2
law is the one ``gram`` integrates.  One table, ``_law_draw``, keyed by
the shape of w, gives every law exactly one route, Metropolis included,
and decides whether it has finite mass.  ``law_of`` gives each
``EnsembleSpec`` its one law record (``Law``): the law, the increasing map
of its points to the spec's points and the inverse map, which
``gap.law_gap`` reads to compute exact gaps.  ``_route`` draws the record,
and ``sample_law`` draws a law directly, as the eq24/eq24cp pair rows do;
both ``sample_ensemble`` and ``sample_law`` record the route in
``diagnostics["route"]``.

All samplers are deterministic given the seed, an integer in [0, 2**64)
(any other raises BadParameter): work is split into a fixed number of
logical blocks, each with its own generator derived from (seed, block
index), so the output does not depend on the worker count.  An exact
block draws all its variates first, in one fixed order, then maps them to
spectra _ROWS rows at a time; every row is transformed alone, so memory
beyond the variates stays bounded and the bits do not depend on _ROWS.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .densities import log_p_beta_batch
from .errors import BadParameter, PoleAtPi, StuckChain
from .orthopoly import ClassicalWeight
from .weights import AdmissibleWeight

__all__ = [
    "EnsembleSpec",
    "Law",
    "SampleBatch",
    "McmcParams",
    "sample_gaussian_matrix",
    "sample_haar_circular",
    "sample_beta_laguerre",
    "sample_beta_jacobi",
    "sample_mcmc",
    "sample_law",
    "sample_ensemble",
    "law_of",
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
# 1 - |r| below which an order-3 row of _eigvalsh3 falls back to eigvalsh:
# acos amplifies the rounding of r by up to 1/sqrt(2 _ACOS_MARGIN) = 7, so
# the closed form stays within about 8 eps |A| of 40-digit eigenvalues;
# about 1% of GOE and 0.1% of GUE rows fall back
_ACOS_MARGIN = 1e-2
# the smallest normal float; a smaller p^3 has lost relative precision
_TINY = np.finfo(float).tiny
# rows per chunk of an exact route's transform and of SampleBatch's writers
# and readers
_ROWS = 256


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw from and how.

    ``n`` is the number of eigenvalues for OE/UE, the number of positive
    values for chUE, the matrix order for COE/CUE, and one less than the
    matrix order for Oplus/Ominus.  ``mu`` selects the chiral weight
    x^(2 mu) w2 and is meaningful only for chUE.  ``method`` is "auto"
    (the spec's one route) or "exact" (refuse the Metropolis route); see
    ``sample_ensemble`` for the routes.
    """

    kind: str
    n: int
    weight: AdmissibleWeight | None = None
    mu: int = 0
    method: str = "auto"

    def __post_init__(self) -> None:
        law = self.law  # law_of checks the fields
        if self.method not in ("auto", "exact"):
            raise BadParameter(f"unknown method {self.method!r}")
        try:  # the law table refuses a law without finite mass
            _law_draw(law.beta, law.n, law.w)
        except BadParameter as exc:
            raise BadParameter(f"{self.describe()}: {exc}") from exc

    @property
    def law(self) -> Law:
        """The law of the spec's points and the map to them: ``law_of``."""
        return law_of(self.kind, self.n, self.weight, self.mu)

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
        %.17g, so they read back bit-identically; each block of _ROWS rows
        is one format operation over its flattened ``tolist()``."""
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
        are accepted.  Every line after the column header is a row; each
        block of _ROWS rows is parsed by one ``np.loadtxt`` call.  Under a
        blank header (width 0) every row must be blank."""

        def parse(fh):
            label, seed, diagnostics = "", 0, {}
            line = fh.readline()
            while line.startswith("# spec="):
                head, diag = line[2:].rsplit(" diagnostics=", 1)
                head, seed_text = head.rsplit(" seed=", 1)
                label, seed, diagnostics = head[len("spec=") :], int(seed_text), json.loads(diag)
                line = fh.readline()
            columns = line.rstrip("\n")
            width = len(columns.split(",")) if columns else 0
            rows = partial(np.loadtxt, delimiter=",", comments=None, ndmin=2)
            return _read_rows(fh, rows if width else _empty_rows, width), seed, label, diagnostics

        return cls._read(path, parse)

    def to_jsonl(self, path) -> None:
        """Write a header object {"diagnostics", "seed", "spec", "width"},
        then one {"values": [...]} object per spectrum.  Each block of
        _ROWS rows is one %r format operation over its flattened
        ``tolist()``, as in ``to_csv``; %r spells a float as ``json.dumps``
        does.  A block holding nan or +-inf, which JSON spells NaN and
        Infinity, is one ``json.dumps`` of its ``tolist()``, cut at the
        "], [" between rows (float text never holds a bracket)."""
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
            row = '{"values": [' + ", ".join(["%r"] * self.width) + "]}\n"
            for block in self._blocks():
                if np.isfinite(block).all():
                    fh.write(row * len(block) % tuple(block.ravel().tolist()))
                    continue
                rows = json.dumps(block.tolist())[1:-1]
                fh.write('{"values": ' + rows.replace("], [", ']}\n{"values": [') + "}\n")

    def _blocks(self) -> Iterator[np.ndarray]:
        """The spectra in consecutive blocks of at most _ROWS rows."""
        return (self.spectra[i : i + _ROWS] for i in range(0, self.count, _ROWS))

    @classmethod
    def from_jsonl(cls, path) -> "SampleBatch":
        """Read ``to_jsonl`` output, each block of _ROWS rows with one
        ``json.loads`` of its joined lines; CRLF endings and a missing final
        newline are accepted.  Values must be JSON numbers (NaN and
        Infinity included).  The width comes from the header, or in files
        written without it from the first row (0 for such a file without
        rows)."""

        def parse(fh):
            head = json.loads(fh.readline())
            spectra = _read_rows(fh, _json_rows, head.get("width"))
            return spectra, int(head["seed"]), head["spec"], head["diagnostics"]

        return cls._read(path, parse)

    @classmethod
    def _read(cls, path, parse: Callable) -> "SampleBatch":
        """The batch parse(fh) reads from the open file as (spectra, seed,
        label, diagnostics).  A file it cannot read raises BadParameter
        naming the file."""
        with Path(path).open() as fh:
            try:
                spectra, seed, label, diagnostics = parse(fh)
            except (AttributeError, LookupError, TypeError, ValueError) as exc:
                raise BadParameter(f"malformed batch file {path}: {exc}") from exc
        return cls(spectra=spectra, seed=seed, label=label, diagnostics=diagnostics)


def _empty_rows(lines: list[str]) -> np.ndarray:
    """The rows of a width-0 CSV block, whose lines must all be blank."""
    if any(line.strip() for line in lines):
        raise ValueError("a batch of width 0 has only blank rows")
    return np.empty((len(lines), 0))


def _json_rows(lines: list[str]) -> np.ndarray:
    """The rows of a JSONL block, whose values must be JSON numbers."""
    values = json.loads("[" + ",".join(lines) + "]", object_hook=itemgetter("values"))
    if not set(map(type, chain.from_iterable(values))) <= {float, int}:
        raise ValueError("every value must be a JSON number")
    return np.array(values, dtype=float)


def _read_rows(
    lines: Iterable[str], rows: Callable[[list[str]], np.ndarray], width: int | None
) -> np.ndarray:
    """The (count, width) spectra of ``lines``, one row per line, read _ROWS
    lines at a time by rows(block) and joined by one concatenate; ``width``
    None takes it from the first row.  A block that is not one row of
    ``width`` values per line (``loadtxt`` skips blank lines) raises
    ValueError."""
    blocks = []
    while block := list(islice(lines, _ROWS)):
        values = rows(block)
        width = values.shape[-1] if width is None else width
        if values.shape != (len(block), width):
            raise ValueError(f"expected {len(block)} rows of {width} values, got {values.shape}")
        blocks.append(values)
    return np.concatenate(blocks) if blocks else np.empty((0, width or 0))


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


def _sample_exact(
    draw: Callable, transform: Callable[..., np.ndarray], count: int, seed: int, workers: int,
    label: str,
) -> SampleBatch:
    """Independent exact draws: each block draws its variates with
    draw(rng, m), a tuple of arrays with m rows, and maps them to spectra
    with ``_chunked(transform, variates)``."""
    block = lambda rng, m: (_chunked(transform, draw(rng, m)), {})
    return _merge(_run_blocks(block, count, seed, workers), seed, label)


def _chunked(transform: Callable[..., np.ndarray], variates: tuple) -> np.ndarray:
    """transform(*rows) over consecutive chunks of the variates, joined by
    one concatenate.  A chunk is _ROWS * max(1, 16 // k) rows, where k is
    the size of a row's first variate (n^2 for a matrix, n for a
    bidiagonal): rows of at most 8 numbers, whose closed forms do too
    little per row to pay numpy's per-call cost, go in bigger chunks.
    Every exact transform maps each row alone, so its temporaries stay
    within one chunk and the bits do not depend on the chunking."""
    m, step = len(variates[0]), _ROWS * max(1, 16 // variates[0][0].size)
    return np.concatenate(
        [transform(*(v[i : i + step] for v in variates)) for i in range(0, m, step)]
    )


def _normal_pair(n: int) -> Callable:
    """draw(rng, m): the real, then the imaginary parts of m complex
    Gaussian matrices of order n."""
    return lambda rng, m: (rng.standard_normal((m, n, n)), rng.standard_normal((m, n, n)))


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

    label = f"Gaussian(beta={beta}, n={n})"
    if beta == 1:
        draw = lambda rng, m: (rng.standard_normal((m, n, n)),)
        spectra = lambda a: _eigvalsh((a + np.swapaxes(a, 1, 2)) / 2.0)
        return _sample_exact(draw, spectra, count, seed, workers, label)

    def spectra(re: np.ndarray, im: np.ndarray) -> np.ndarray:
        a = re + 1j * im
        return _eigvalsh((a + np.conj(np.swapaxes(a, 1, 2))) / (2.0 * math.sqrt(2.0)))

    return _sample_exact(_normal_pair(n), spectra, count, seed, workers, label)


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of Hermitian or real symmetric
    matrices, read from the diagonal and the lower triangle as ``eigvalsh``
    reads them.  At order 1 that is the real diagonal, at order 2
    t -+ hypot((a - d)/2, |b|) with t = (a + d)/2, at order 3 Smith's
    trigonometric form (``_eigvalsh3``), and above that ``eigvalsh``
    itself."""
    n = h.shape[-1]
    if n > 3:
        return np.linalg.eigvalsh(h)
    if n == 3:
        return _eigvalsh3(h)
    if n == 1:
        return h[:, 0, :].real
    a, d = h[:, 0, 0].real, h[:, 1, 1].real
    t = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), np.abs(h[:, 1, 0]))
    return np.stack([t - r, t + r], axis=1)


def _eigvalsh3(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of order-3 Hermitian or real
    symmetric matrices in Smith's closed form (Comm. ACM 4(4), 1961): with
    q = tr A / 3, B = A - qI, p = |B|_F / sqrt(6) and r = det B / (2 p^3),
    the largest and smallest are q + 2p cos(acos(r)/3) and
    q + 2p cos(acos(r)/3 + 2 pi/3), and the middle one is 3q minus both.
    A row is redone alone by ``eigvalsh`` where acos is ill-conditioned
    (|r| >= 1 - _ACOS_MARGIN: two eigenvalues close), where p^3 is 0,
    subnormal or overflows, or where its values are not finite or not in
    order."""
    d0, d1, d2 = h[:, 0, 0].real, h[:, 1, 1].real, h[:, 2, 2].real
    q = (d0 + d1 + d2) / 3.0
    d0, d1, d2 = d0 - q, d1 - q, d2 - q
    o10, o20, o21 = h[:, 1, 0], h[:, 2, 0], h[:, 2, 1]
    s10, s20, s21 = ((x * x.conj()).real for x in (o10, o20, o21))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p2 = (d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (s10 + s20 + s21)) / 6.0
        p = np.sqrt(p2)
        p3 = p * p2
        det = d0 * d1 * d2 - d0 * s21 - d1 * s20 - d2 * s10 + 2.0 * (o20.conj() * o10 * o21).real
        r = det / (2.0 * p3)
        phi = np.arccos(r) / 3.0
        hi = q + 2.0 * p * np.cos(phi)
        lo = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
        mid = 3.0 * q - hi - lo
        good = (np.abs(r) < 1.0 - _ACOS_MARGIN) & (p3 >= _TINY) & (p3 < np.inf)
        good &= (lo <= mid) & (mid <= hi) & np.isfinite(hi + lo)
    lam = np.stack([lo, mid, hi], axis=1)
    if not good.all():
        lam[~good] = np.linalg.eigvalsh(h[~good])
    return lam


def _phase(d: np.ndarray) -> np.ndarray:
    """d / |d|, and 1 where d is 0."""
    mag = np.abs(d)
    return np.where(mag == 0.0, 1.0, d / np.where(mag == 0.0, 1.0, mag))


def _haar_unitary(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Q of the QR decomposition z = QR whose R has a positive real diagonal,
    for a stack of complex Gaussian z = re + i im: Haar unitaries
    (Mezzadri).  At order 2 the first column of Q is z_1/|z_1| = (a, b),
    and the second is its unitary complement (-conj b, conj a) times the
    phase of det z = |z_1| r_22; above that Q is ``qr``'s, with its columns
    turned by the phases of R's diagonal."""
    z = re + 1j * im
    n = z.shape[-1]
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
    makes ``solve`` fail, and the whole stack, one chunk of at most _ROWS
    rows, is redone.
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


def _circular_tan_half(kind: str, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """tan(theta/2) of COE/CUE spectra: the Cayley transform of the Haar
    unitaries U of re + i im (CUE) or of the symmetric U^T U (COE)."""
    u = _haar_unitary(re, im)
    if kind == "COE":
        u = _transpose_times(u)
    return _cayley_tan_half(u, real=kind == "COE")


def sample_haar_circular(
    kind: str, n: int, count: int, seed: int, workers: int = 1
) -> SampleBatch:
    """Eigen-angles of Haar circular ensembles, the points of the kind's
    law (``law_of``) mapped to angles: all n in (-pi, pi] for COE/CUE, the
    nontrivial ones in (0, pi) for Oplus/Ominus (none for Ominus of order 2).
    """
    if kind not in _CIRCULAR or n < 1:
        raise BadParameter(f"no circular kind {kind!r} of order {n}")
    batch = _route(EnsembleSpec(kind, n))[1](count, seed, workers)
    return replace(batch, label=f"Haar({kind}, n={n})")


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

    draw = lambda rng, m: (rng.chisquare(diag_df, (m, n)), rng.chisquare(off_df, (m, n - 1)))
    spectra = lambda d, e: _squared_singular_values(np.sqrt(d), np.sqrt(e), upper=False)
    label = f"BetaLaguerre(beta={beta:g}, n={n}, p={p:g})"
    return _sample_exact(draw, spectra, count, seed, workers, label)


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

    def draw(rng: np.random.Generator, m: int):
        c2 = rng.beta(half * (A + k), half * (B + k), (m, n))
        return c2, rng.beta(half * kp, half * (A + B + 1.0 + kp), (m, n - 1))

    def spectra(c2: np.ndarray, cp2: np.ndarray) -> np.ndarray:
        c, cp = np.sqrt(c2), np.sqrt(cp2)
        s, sp = np.sqrt(1.0 - c * c), np.sqrt(1.0 - cp * cp)
        diag = c[:, ::-1].copy()
        diag[:, 1:] *= sp[:, ::-1]
        off = -s[:, :0:-1] * cp[:, ::-1]
        return np.minimum(_squared_singular_values(diag, off, upper=True), 1.0)

    label = f"BetaJacobi(beta={beta:g}, n={n}, A={A:g}, B={B:g})"
    return _sample_exact(draw, spectra, count, seed, workers, label)


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


def _law_draw(beta: int, n: int, w: ClassicalWeight) -> tuple[str, Callable[..., SampleBatch]]:
    """The one table from a law to its sampler, keyed by ``w.shape``.

    The law (beta, n, w) is n points with density
    prod w(x_i)^(beta/2) |Vdm(x)|^beta, beta 1 or 2.  Returns its route and
    draw(count, seed, workers).  Each draw looks its sampler (and the
    Metropolis density and controls) up as a module global when it runs, so
    a rebinding is seen.

        hermite     Gaussian matrices
        laguerre    beta-Laguerre, p = b beta/2, x = lam/beta
        jacobi      beta-Jacobi, A = b + 2/beta - 1, B = a + 2/beta - 1,
                    x = lo + (hi - lo) lam
        betaprime   beta-Jacobi, A as for jacobi, B = a - b - 2n + 1 - 2/beta,
                    x = lam/(1 - lam)
        romanovski  at a = n - 1 + 2/beta ("haar"), tan(theta/2) of Haar
                    COE (beta 1) or CUE (beta 2) matrices of order n by the
                    Cayley transform; at any other a, Metropolis on the
                    Cauchy weight (a - 2/beta)/2 of the same density,
                    heavy-tailed proposals

    A law without finite mass (``Law.check_mass``) raises BadParameter
    before any draw.
    """
    law = Law(beta, n, w)
    law.check_mass()
    e = 2 // beta - 1  # 2/beta - 1 as an exact integer
    (lo, hi), a, b = w.support, w.a, w.b
    if w.shape == "hermite":
        return "gaussian", lambda *run: sample_gaussian_matrix(beta, n, *run)
    if w.shape == "romanovski":
        if abs(a - n - e) < 1e-12:
            tan_half = partial(_circular_tan_half, "COE" if beta == 1 else "CUE")
            return "haar", lambda *run: _sample_exact(_normal_pair(n), tan_half, *run, "")
        cauchy = AdmissibleWeight("cauchy", (a - 2 // beta) / 2)
        log_density = lambda x: log_p_beta_batch(cauchy, beta, x)
        return "metropolis", lambda count, seed, workers: sample_mcmc(
            log_density, n, count, seed, replace(McmcParams(), heavy_tail=True), workers=workers
        )
    if w.shape == "laguerre":
        route, to_x = "beta-laguerre", lambda lam: lam / beta
        model = lambda *run: sample_beta_laguerre(beta, n, b * beta / 2, *run)
    else:
        jacobi = w.shape == "jacobi"
        to_x = (lambda lam: lo + (hi - lo) * lam) if jacobi else (lambda lam: lam / (1.0 - lam))
        A, B = law.exponents
        route, model = "beta-jacobi", lambda *run: sample_beta_jacobi(beta, n, A, B, *run)
    return route, _mapped(to_x, model)


def _mapped(to_x: Callable, draw: Callable[..., SampleBatch]) -> Callable[..., SampleBatch]:
    """draw(count, seed, workers) with its points mapped by to_x."""
    return lambda count, seed, workers: SampleBatch(to_x(draw(count, seed, workers).spectra), seed)


def _identity(x):
    return x


@dataclass(frozen=True)
class Law:
    """The law of a spec's points and the map to them.

    The spec's points are the images under ``to_points`` of the n points of
    the law (beta, n, w) of ``_law_draw``.  ``to_points`` is increasing and
    ``from_points`` is its inverse; ``interval`` applies it to the ends of
    an interval.  ``root`` is the admissible weight w1 with w = w1^2 of a
    beta = 1 law (OE and COE), kept as given so no exponent is recovered
    from a rounded one; None for every other law.
    """

    beta: int
    n: int
    w: ClassicalWeight
    to_points: Callable = _identity
    from_points: Callable = _identity
    root: AdmissibleWeight | None = None

    @property
    def exponents(self) -> tuple[float, float]:
        """(A, B) of the law's beta-Jacobi model in ``_law_draw``: b + 2/beta - 1 (A of
        beta-Laguerre too), and a + 2/beta - 1 (Jacobi) or a - b - 2n + 1 - 2/beta."""
        e, (a, b) = 2 // self.beta - 1, (self.w.a, self.w.b)  # 2/beta - 1 exactly
        return b + e, a - b - 2 * self.n - e if self.w.shape == "betaprime" else a + e

    def check_mass(self, error: type[Exception] = BadParameter) -> None:
        """Raise ``error`` unless the law has finite mass, the one condition of
        both tables: n < a + 1 - 1/beta for Romanovski, A > -1 for Laguerre,
        A, B > -1 (``exponents``) for Jacobi and beta-prime."""
        (A, B), w, n = self.exponents, self.w, self.n
        finite = {"hermite": True, "laguerre": A > -1.0, "romanovski": n - 1 + 1 / self.beta < w.a}
        if not finite.get(w.shape, A > -1.0 and B > -1.0):
            raise error(f"{w.shape} law beta={self.beta}, n={n}, a={w.a:g}, b={w.b:g} has no finite mass")

    @property
    def support(self) -> tuple[float, float]:
        """The interval of the spec's points: the image of w's support."""
        return tuple(float(self.to_points(end)) for end in self.w.support)

    def interval(self, J: tuple[float, float]) -> tuple[float, float]:
        """J, an interval of the spec's points, as one of the law's points:
        clipped to ``support``, whose ends go to the ends of w's support, so
        no map is evaluated at a pole; (lo, lo) where J misses it."""
        (plo, phi), (lo, hi) = self.support, self.w.support
        a, b = max(J[0], plo), min(J[1], phi)
        if not a < b:
            return lo, lo
        return (lo if a == plo else self.from_points(a), hi if b == phi else self.from_points(b))


def law_of(kind: str, n: int, weight: AdmissibleWeight | None = None, mu: int = 0) -> Law:
    """The law record of the spec (kind, n, weight, mu), after checking its
    fields: the one place a spec's law and point map are derived.

    OE is (1, n, w1^2) with root w1 the spec's weight, so Gauss is Hermite, Jacobi a is Jacobi (2a, 2a)
    and Cauchy a is Romanovski 2a + 2; UE is (2, n, w2); chUE is the law
    (2, n, u^(mu - 1/2) w2(sqrt u)) of u = x^2, read at x = sqrt u.  COE
    (beta 1) and CUE (beta 2) are the Romanovski laws
    (beta, n, (1 + x^2)^-(n - 1 + 2/beta)) of x = tan(theta/2), read at
    theta = ``stereographic`` x; the COE root w1 is Cauchy (n - 1)/2.  Oplus (Ominus) are the m nontrivial angles
    of Haar orthogonal matrices of order n + 1 without (with) a forced +1
    eigenvalue: the law (2, m, (1 - lam)^B lam^A) of lam = sin^2(theta/2),
    read at theta = 2 atan2(sqrt lam, sqrt(1 - lam)), with A (B) = +1/2
    where a +1 (-1) eigenvalue is forced, -1/2 otherwise.
    """
    if kind not in _KINDS:
        raise BadParameter(f"unknown ensemble kind {kind!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise BadParameter("order n must be a positive integer")
    if kind in _CIRCULAR:
        if weight is not None:
            raise BadParameter("circular kinds carry no weight")
    elif weight is None:
        raise BadParameter(f"{kind} requires a weight")
    if kind == "chUE":
        if mu not in (0, 1):
            raise BadParameter("chUE takes mu in {0, 1}")
    elif mu != 0:
        raise BadParameter("mu is meaningful only for chUE")
    if kind in ("COE", "CUE"):
        beta = 1 if kind == "COE" else 2
        w = ClassicalWeight("romanovski", n - 1 + 2 // beta)
        root = AdmissibleWeight("cauchy", (n - 1) / 2) if beta == 1 else None
        return Law(beta, n, w, stereographic, stereographic_inverse, root)
    if kind in ("Oplus", "Ominus"):
        ominus = kind == "Ominus"
        # a -1 eigenvalue is forced at odd order n + 1 in Oplus, at even in Ominus
        A, B = (0.5 if ominus else -0.5), (0.5 if (n % 2 == 0) != ominus else -0.5)
        w = ClassicalWeight("jacobi", B, A, (0.0, 1.0))
        to_angle = lambda lam: 2.0 * np.arctan2(np.sqrt(lam), np.sqrt(1.0 - lam))
        from_angle = lambda theta: np.sin(0.5 * theta) ** 2
        return Law(2, n // 2 if ominus else (n + 1) // 2, w, to_angle, from_angle)
    if kind == "OE":
        c = 2.0 * (weight.a or 0.0)
        w1sq = {"gauss": ("hermite",), "jacobi": ("jacobi", c, c), "cauchy": ("romanovski", c + 2)}
        return Law(1, n, ClassicalWeight(*w1sq[weight.family]), root=weight)
    if kind == "UE":
        return Law(2, n, weight.w2)
    return Law(2, n, weight.w2.squared_argument(mu), np.sqrt, lambda x: x**2)


def _no_points(count: int, seed: int, workers: int) -> SampleBatch:
    """count spectra of width 0, for a law of no points."""
    empty = lambda rng, size: (np.empty((size, 0)), {})
    return _merge(_run_blocks(empty, count, seed, workers), seed, "")


def _route(spec: EnsembleSpec) -> tuple[str, Callable[..., SampleBatch]]:
    """The route of ``spec`` and its draw(count, seed, workers): the route
    of its law (``law_of``) in ``_law_draw``, with the points mapped by the
    law's ``to_points``.  Ominus of order 2 has no points: both its
    eigenvalues are forced."""
    law = spec.law
    route, draw = _law_draw(law.beta, law.n, law.w)
    if law.n == 0:
        return route, _no_points
    return route, draw if law.to_points is _identity else _mapped(law.to_points, draw)


def sample_law(
    beta: int, n: int, w: ClassicalWeight, count: int, seed: int, workers: int = 1
) -> SampleBatch:
    """n points with density prod w(x_i)^(beta/2) |Vdm(x)|^beta, beta 1 or
    2, by the route of ``_law_draw``; ``diagnostics["route"]`` names the
    route, and a Metropolis batch also records its acceptance rate and
    effective sample size.
    """
    if beta not in (1, 2):
        raise BadParameter(f"beta must be 1 or 2, got {beta}")
    route, draw = _law_draw(beta, n, w)
    batch = draw(count, seed, workers)
    label = f"Law(beta={beta}, n={n}, {w.shape}(a={w.a:g}, b={w.b:g}))"
    return replace(batch, label=label, diagnostics={"route": route, **batch.diagnostics})


def has_exact_route(spec: EnsembleSpec) -> bool:
    """Whether the spec's route is a matrix model: for every spec but OE/UE
    Cauchy with 2a + 1 != n, whose route is Metropolis."""
    return _route(spec)[0] != "metropolis"


def sample_ensemble(spec: EnsembleSpec, count: int, seed: int, workers: int = 1) -> SampleBatch:
    """Draw a batch from the ensemble; ``diagnostics["route"]`` names the
    route taken:

    - "gaussian": Gaussian symmetric/Hermitian matrices for Gauss OE/UE;
    - "haar": Haar unitary matrices for COE/CUE, and their
      tangent-half-angle images for OE/UE Cauchy weights whose exponent
      2a + 1 equals n;
    - "beta-laguerre": chUE Gauss;
    - "beta-jacobi": OE/UE/chUE Jacobi, chUE Cauchy and Oplus/Ominus;
    - "metropolis": OE/UE Cauchy at any other exponent, on the matching log
      density; those batches also record the acceptance rate and effective
      sample size.  ``method="exact"`` refuses them.
    """
    route, draw = _route(spec)
    if spec.method == "exact" and route == "metropolis":
        raise BadParameter(f"no exact route for {spec.describe()}")
    batch = draw(count, seed, workers)
    label = spec.describe()
    return replace(batch, label=label, diagnostics={"route": route, **batch.diagnostics})
