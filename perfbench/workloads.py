"""The benchmark workloads: verify-quick and exact-gaps-io.

Each workload is a list of passes.  A pass draws fresh inputs from the
run's seeded generator (untimed), runs the workload's fixed list of rmtdec
operations (timed), then checks the outputs (untimed, untraced).  Every pass
holds the same operations, so the share of failed operations is the same in
every run.  rmtdec functions are looked up on their module at call time, so
the tracer's rebinding sees the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import rmtdec
from rmtdec import cli, gap
from rmtdec.errors import RmtdecError
from rmtdec.samplers import EnsembleSpec, SampleBatch
from rmtdec.weights import cauchy_weight, gauss_weight, jacobi_weight, make_weight

import checks


@dataclass(frozen=True)
class Ref:
    """Stands for the result of an earlier operation of the same pass."""

    key: str


@dataclass
class Op:
    """One rmtdec call of a pass: ``fn`` is resolved at call time."""

    key: str
    fn: Callable[[], Callable]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


@dataclass
class PassOutcome:
    results: dict
    failures: dict  # op key -> exception text


def tally(ops: list[Op], outcome: PassOutcome) -> tuple[int, int]:
    """(attempted, failed) operations of one pass."""
    return len(ops), len(outcome.failures)


def run_ops(ops: list[Op]) -> PassOutcome:
    """Run the operations in order; an RmtdecError fails that operation only,
    and an operation whose input came from a failed one fails too."""
    results, failures = {}, {}
    for op in ops:
        missing = [a.key for a in op.args if isinstance(a, Ref) and a.key not in results]
        if missing:
            failures[op.key] = f"input {missing[0]} failed"
            continue
        args = tuple(results[a.key] if isinstance(a, Ref) else a for a in op.args)
        try:
            results[op.key] = op.fn()(*args, **op.kwargs)
        except RmtdecError as exc:
            failures[op.key] = f"{type(exc).__name__}: {exc}"
    return PassOutcome(results, failures)


class Phase:
    """Passes of one phase of a run: their times, operation tallies and
    check problems.  Each phase draws its inputs from its own stream of the
    seed, so traced passes get fresh inputs and no rmtdec cache hides work.
    """

    def __init__(self, seed: int, stream: int) -> None:
        self.rng = np.random.default_rng([seed, stream])
        self.pass_s: list[float] = []
        self.attempted = self.failed = 0
        self.failures: dict[str, str] = {}
        self.problems: list[str] = []

    def run_pass(self, workload, tracer=None) -> None:
        ops, inputs = workload.prepare(self.rng)
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            outcome = workload.execute(ops)
            self.pass_s.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        attempted, failed = workload.tally(ops, outcome)
        self.attempted += attempted
        self.failed += failed
        for key, text in outcome.failures.items():
            self.failures.setdefault(key, text)
        self.problems += workload.check(inputs, outcome)

    def report(self, name: str) -> bool:
        """Failed operations and checks to stderr; True when every check passed."""
        for key, text in sorted(self.failures.items()):
            print(f"failed operation {key}: {text}", file=sys.stderr)
        for line in self.problems[:50]:
            print(f"check failed: {line}", file=sys.stderr)
        if self.problems:
            print(f"{name}: {len(self.problems)} check problems", file=sys.stderr)
        return not self.problems


# -- exact-gaps -------------------------------------------------------------------

# (family, a, interval half-width s, largest UE order, odd OE orders); Cauchy
# a = 2 has no moments beyond order 5 for the degree its UE and odd-OE
# systems need.
GAP_WEIGHTS = (
    ("gauss", None, 0.75, 7, (1, 3, 5, 7, 9)),
    ("jacobi", 0.0, 0.5, 7, (1, 3, 5, 7, 9)),
    ("jacobi", 0.5, 0.5, 7, (1, 3, 5, 7, 9)),
    ("jacobi", 1.5, 0.5, 7, (1, 3, 5, 7, 9)),
    ("cauchy", 2.0, 1.0, 5, (1, 3, 5)),
    ("cauchy", 4.0, 1.0, 7, (1, 3, 5, 7, 9)),
)
# s is jittered by ±1% on every pass: enough that no two passes
# share an interval (so gap._brute_distribution's cache never hits), small
# enough that the adaptive quadratures' cost, which depends on s, stays
# nearly the same from pass to pass and seed to seed.
S_JITTER = 0.01
CUE_ORDERS = tuple(range(1, 10))
BRUTE_FAMILIES = ("gauss", "cauchy")
# Known fault: the brute-force order ladder never settles for Jacobi(1/2); the
# call raises NonConvergence on every input, so its inputs are fixed.
FAULT_KEY = "bruteforce/jacobi(0.5)/n=2"
FAULT_ARGS = (jacobi_weight(0.5), 2, (-0.5, 0.5), 0)


def _g(name: str) -> Callable[[], Callable]:
    return lambda: getattr(gap, name)


class ExactGaps:
    """Part of exact-gaps-io: exact gap engines and exact checkers."""

    name = "exact-gaps"

    def __init__(self, workdir: Path, workers: int = 1) -> None:
        self.workers = workers
        self.weights = {(f, a): make_weight(f, a) for f, a, *_ in GAP_WEIGHTS}

    def warm_up(self) -> None:
        gap.gap_ue_exact(gauss_weight(), 3, (-1.0, 1.0))

    def prepare(self, rng: np.random.Generator) -> tuple[list[Op], dict]:
        ops: list[Op] = []
        inputs: dict = {}
        for family, a, s_mid, ue_max, oe_orders in GAP_WEIGHTS:
            w = self.weights[(family, a)]
            tag = family if a is None else f"{family}({a:g})"
            s = s_mid * float(rng.uniform(1.0 - S_JITTER, 1.0 + S_JITTER))
            r = 0.9 if family == "jacobi" else 2.0
            lo = -float(rng.uniform(0.05, 1.0)) * r
            hi = float(rng.uniform(0.05, 1.0)) * r
            k_gap = int(rng.integers(0, 2))
            k_brute = int(rng.integers(0, 4))
            inputs[tag] = dict(family=family, a=a, s=s, lo=lo, hi=hi, ue_max=ue_max,
                               oe_orders=oe_orders, k_brute=k_brute)
            ops.append(Op(f"{tag}/ue/n=1", _g("gap_ue_exact"), (w, 1, (lo, hi))))
            for n in range(2, ue_max + 1):
                ops.append(Op(f"{tag}/ue/n={n}", _g("gap_ue_exact"), (w, n, (-s, s))))
            for mu, m_max in ((0, (ue_max + 1) // 2), (1, ue_max // 2)):
                for m in range(1, m_max + 1):
                    ops.append(Op(f"{tag}/chue{mu}/m={m}", _g("gap_chue_exact"), (w, mu, m, s)))
            for n in oe_orders:
                ops.append(Op(f"{tag}/oe/n={n}", _g("gap_oe_odd_exact"), (w, n, s, "direct")))
                if n > 1:
                    ops.append(
                        Op(f"{tag}/oe-gaudin/n={n}", _g("gap_oe_odd_exact"), (w, n, s, "gaudin"))
                    )
            ops.append(Op(f"{tag}/b1", _g("check_B1_structure"), (w, 5, s)))
            ops.append(
                Op(f"{tag}/thm_gap", _g("check_thm_gap"), (w, 3, k_gap, s), {"workers": self.workers})
            )
            if family in BRUTE_FAMILIES:
                ops.append(
                    Op(f"{tag}/bruteforce/n=3", _g("gap_oe_bruteforce"), (w, 3, (-s, s), k_brute))
                )
        theta = float(rng.uniform(0.2, 3.0))
        inputs["cue"] = dict(theta=theta)
        for n in CUE_ORDERS:
            ops.append(Op(f"cue/n={n}", _g("gap_cue_exact"), (n, theta)))
        ops.append(Op(FAULT_KEY, _g("gap_oe_bruteforce"), FAULT_ARGS))
        return ops, inputs

    def check(self, inputs: dict, outcome: PassOutcome) -> list[str]:
        res = outcome.results
        problems: list[str] = []
        for key, value in res.items():
            if isinstance(value, gap.GapPolynomial):
                problems += checks.simplex(key, value.coeffs)
        for tag, p in inputs.items():
            if tag == "cue":
                continue
            fam, a, s = p["family"], p["a"], p["s"]

            def got(key: str):
                return res.get(f"{tag}/{key}")

            def have(*keys: str) -> bool:
                return all(got(k) is not None for k in keys)

            if have("ue/n=1"):
                problems += checks.close(
                    f"{tag} UE n=1 closed form", got("ue/n=1").coeffs,
                    checks.ue_one_point(fam, a, p["lo"], p["hi"]), checks.CLOSED_FORM_TOL,
                )
            for mu in (0, 1):
                if have(f"chue{mu}/m=1"):
                    problems += checks.close(
                        f"{tag} chUE mu={mu} m=1 closed form", got(f"chue{mu}/m=1").coeffs,
                        checks.chue_one_point(fam, a, mu, s), checks.CLOSED_FORM_TOL,
                    )
            if have("oe/n=1"):
                problems += checks.close(
                    f"{tag} OE n=1 closed form", got("oe/n=1").coeffs,
                    checks.oe_one_point(fam, a, s), checks.CLOSED_FORM_TOL,
                )
            for n in range(2, p["ue_max"] + 1):
                keys = (f"ue/n={n}", f"chue0/m={(n + 1) // 2}", f"chue1/m={n // 2}")
                if have(*keys):
                    problems += checks.unitary_decomposition(
                        f"{tag} n={n}", *(got(k).coeffs for k in keys)
                    )
            for n in p["oe_orders"][1:]:
                if have(f"oe/n={n}", f"oe-gaudin/n={n}"):
                    problems += checks.close(
                        f"{tag} OE n={n} direct vs Gaudin", got(f"oe/n={n}").coeffs,
                        got(f"oe-gaudin/n={n}").coeffs, checks.MODE_TOL,
                    )
            if have("bruteforce/n=3", "oe/n=3"):
                problems += checks.close(
                    f"{tag} OE n=3 brute force vs exact", got("bruteforce/n=3"),
                    got("oe/n=3").prob(p["k_brute"]), checks.BRUTE_TOL,
                )
            for key in ("b1", "thm_gap"):
                if have(key) and not got(key).passed:
                    problems.append(f"{tag} {key} report fails: {got(key).to_json()}")
        theta = inputs["cue"]["theta"]
        if res.get("cue/n=1") is not None:
            problems += checks.close(
                "CUE n=1 closed form", res["cue/n=1"].coeffs, checks.cue_one_point(theta),
                checks.CLOSED_FORM_TOL,
            )
        return problems


# -- sample-io --------------------------------------------------------------------


def _symmetric(lo: float, hi: float):
    def draw(rng: np.random.Generator) -> tuple[float, float]:
        half = float(rng.uniform(lo, hi))
        return (-half, half)

    return draw


def _from_zero(lo: float, hi: float):
    return lambda rng: (0.0, float(rng.uniform(lo, hi)))


def _anywhere(rng: np.random.Generator) -> tuple[float, float]:
    lo = float(rng.uniform(-1.5, 0.3))
    return (lo, lo + float(rng.uniform(0.3, 1.5)))


@dataclass(frozen=True)
class Route:
    """A sampling route; ``window`` draws the interval of the exact count
    check, None where rmtdec has no exact engine for the ensemble."""

    name: str
    spec: EnsembleSpec
    support: tuple[float, float]
    window: Callable[[np.random.Generator], tuple[float, float]] | None


SAMPLE_ROUTES = (
    Route("oe-gauss", EnsembleSpec("OE", 5, gauss_weight()), (-math.inf, math.inf),
          _symmetric(0.4, 1.6)),
    Route("ue-gauss", EnsembleSpec("UE", 5, gauss_weight()), (-math.inf, math.inf), _anywhere),
    Route("coe", EnsembleSpec("COE", 3), (-math.pi, math.pi), None),
    Route("cue", EnsembleSpec("CUE", 5), (-math.pi, math.pi), _symmetric(0.3, 2.8)),
    Route("oplus", EnsembleSpec("Oplus", 3), (0.0, math.pi), None),
    Route("ue-cauchy", EnsembleSpec("UE", 5, cauchy_weight(2.0)), (-math.inf, math.inf),
          _anywhere),
    Route("chue-cauchy", EnsembleSpec("chUE", 3, cauchy_weight(2.5)), (0.0, math.inf),
          _from_zero(0.2, 1.5)),
)


class SampleIO:
    """Part of exact-gaps-io: exact sampling routes at a fixed size, each
    batch written and read back."""

    name = "sample-io"
    count = 5000
    det_count = 256  # size of the same-seed determinism draws

    def __init__(self, workdir: Path, workers: int = 1, count: int | None = None) -> None:
        self.workdir = workdir
        self.workers = workers
        if count is not None:
            self.count = count

    def warm_up(self) -> None:
        batch = rmtdec.sample_ensemble(SAMPLE_ROUTES[0].spec, 64, 0, workers=self.workers)
        path = self.workdir / "warm-up.csv"
        batch.to_csv(path)
        SampleBatch.from_csv(path)

    def prepare(self, rng: np.random.Generator) -> tuple[list[Op], dict]:
        ops: list[Op] = []
        inputs: dict = {}
        sample = lambda: rmtdec.samplers.sample_ensemble
        workers = {"workers": self.workers}
        for route in SAMPLE_ROUTES:
            key = route.name
            seed = int(rng.integers(2**62))
            det_seed = int(rng.integers(2**62))
            window = route.window(rng) if route.window else None
            inputs[key] = dict(route=route, window=window)
            batch = Ref(f"{key}/sample")
            ops.append(Op(batch.key, sample, (route.spec, self.count, seed), workers))
            for fmt in ("csv", "jsonl"):
                path = self.workdir / f"{key}.{fmt}"
                ops.append(Op(f"{key}/to_{fmt}", _attr(f"to_{fmt}"), (batch, path)))
                ops.append(Op(f"{key}/from_{fmt}", _attr(f"from_{fmt}"), (path,)))
            for copy in ("a", "b"):
                ops.append(Op(f"{key}/same-seed-{copy}", sample,
                              (route.spec, self.det_count, det_seed), workers))
        return ops, inputs

    def check(self, inputs: dict, outcome: PassOutcome) -> list[str]:
        res = outcome.results
        problems: list[str] = []
        for name, p in inputs.items():
            route: Route = p["route"]
            batch = res.get(f"{name}/sample")
            if batch is None:
                continue
            x = batch.spectra
            problems += checks.sorted_rows(f"{name} batch", x)
            problems += checks.in_range(f"{name} batch", x, *route.support)
            if x.shape != (self.count, _width(route.spec)):
                problems.append(f"{name}: batch shape {x.shape}")
            for fmt in ("csv", "jsonl"):
                back = res.get(f"{name}/from_{fmt}")
                if back is None:
                    continue
                problems += checks.bit_exact(f"{name} {fmt} round trip", x, back.spectra)
                if (back.label, back.seed, back.diagnostics) != (
                    batch.label, batch.seed, batch.diagnostics
                ):
                    problems.append(f"{name} {fmt} round trip changed the header")
            a, b = res.get(f"{name}/same-seed-a"), res.get(f"{name}/same-seed-b")
            if a is not None and b is not None:
                problems += checks.bit_exact(f"{name} same seed", a.spectra, b.spectra)
            if p["window"] is not None:
                probs = _exact_counts(route.spec, p["window"])
                problems += checks.count_distribution(f"{name} counts", x, *p["window"], probs)
        return problems


def _attr(name: str) -> Callable[[], Callable]:
    """SampleBatch I/O method, looked up when called so the tracer sees it."""
    return lambda: getattr(SampleBatch, name)


def _width(spec: EnsembleSpec) -> int:
    if spec.kind == "Oplus":
        return (spec.n + 1) // 2
    return spec.n


def _exact_counts(spec: EnsembleSpec, window: tuple[float, float]) -> np.ndarray:
    """Exact E(k) on the route's window from the matching rmtdec engine."""
    if spec.kind == "OE":
        return gap.gap_oe_odd_exact(spec.weight, spec.n, window[1]).coeffs
    if spec.kind == "UE":
        return gap.gap_ue_exact(spec.weight, spec.n, window).coeffs
    if spec.kind == "CUE":
        return gap.gap_cue_exact(spec.n, window[1]).coeffs
    return gap.gap_chue_exact(spec.weight, spec.mu, spec.n, window[1]).coeffs


# -- exact-gaps-io ----------------------------------------------------------------


class ExactGapsIO:
    """The gap table, then the sampling routes, in every pass; no Metropolis.

    The two parts share one workload so that a run is long enough to
    average over this machine's swings in speed (see README.md).
    """

    name = "exact-gaps-io"
    nominal_pass_s = 3.3

    def __init__(self, workdir: Path, workers: int = 1, count: int | None = None) -> None:
        self.parts = (ExactGaps(workdir, workers), SampleIO(workdir, workers, count))

    def warm_up(self) -> None:
        for part in self.parts:
            part.warm_up()

    def prepare(self, rng: np.random.Generator) -> tuple[list[Op], dict]:
        ops: list[Op] = []
        inputs: dict = {}
        for part in self.parts:
            part_ops, inputs[part.name] = part.prepare(rng)
            ops += part_ops
        return ops, inputs

    execute = staticmethod(run_ops)
    tally = staticmethod(tally)

    def check(self, inputs: dict, outcome: PassOutcome) -> list[str]:
        return [line for part in self.parts for line in part.check(inputs[part.name], outcome)]


# -- verify-quick -----------------------------------------------------------------

VERIFY_ROWS = 17
# The suite's seed stays at its documented default instead of following the
# run seed: its 11 z subtests are each gated at |z| < 3 with no multiplicity
# correction, so about 3% of seeds fail a row by chance (see CHANGES.md).
# The cost of a pass does not depend on the seed.
VERIFY_SEED = 0


class VerifyQuick:
    """`rmtdec verify all --quick --workers 1` through the CLI entry point."""

    name = "verify-quick"
    nominal_pass_s = 41.0

    def __init__(
        self, workdir: Path, workers: int = 1, argv: list[str] | None = None, rows: int = VERIFY_ROWS
    ) -> None:
        self.workdir = workdir
        self.workers = workers
        self.report = workdir / "verify-report.json"
        self.argv = argv or ["verify", "all", "--quick"]
        self.rows = rows

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self) -> None:
        self._main(["verify", "recurrence", "--family", "gauss", "--workers", str(self.workers),
                    "--out", str(self.workdir / "warm-up.json")])

    def prepare(self, rng: np.random.Generator) -> tuple[list[Op], dict]:
        argv = self.argv + ["--seed", str(VERIFY_SEED), "--workers", str(self.workers),
                            "--out", str(self.report)]
        return [Op("verify", lambda: self._main, (argv,))], {"argv": argv}

    execute = staticmethod(run_ops)

    def tally(self, ops: list[Op], outcome: PassOutcome) -> tuple[int, int]:
        """Each identity row is one operation; an engine error fails them all."""
        engine_error = outcome.results.get("verify") == cli.EXIT_ENGINE
        return self.rows, self.rows if engine_error else 0

    def check(self, inputs: dict, outcome: PassOutcome) -> list[str]:
        rc = outcome.results.get("verify")
        text = self.report.read_text() if self.report.exists() else ""
        self.report.unlink(missing_ok=True)
        if rc == cli.EXIT_ENGINE:
            return []
        return checks.verify_payload(" ".join(inputs["argv"]), rc, text, self.rows)


WORKLOADS = {w.name: w for w in (VerifyQuick, ExactGapsIO)}
