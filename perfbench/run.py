#!/usr/bin/env python3
"""rmtdec benchmark: one closed-loop caller, one rmtdec call at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  The workload's pass count is fixed from
``--seconds`` and the workload's nominal pass length, so every run with the
same arguments does the same work.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs every pass once traced and once untraced,
alternating, and prints the per-layer metrics.  The last line of standard output is the
result JSON; the line before it starts with ``env`` and records the
environment.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy is first imported: rmtdec's thread
# pool on top of multi-threaded OpenBLAS oversubscribes a small machine.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "--defaults" not in sys.argv:
    for _var in BLAS_VARS:
        os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 3
WORKLOAD_NAMES = ("verify-quick", "exact-gaps-io")  # keys of workloads.WORKLOADS


def _import_rmtdec():
    """Import rmtdec from this checkout's src/, never from an installed copy."""
    if not (SRC / "rmtdec" / "__init__.py").is_file():
        sys.exit(f"error: no rmtdec sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import rmtdec

    if Path(rmtdec.__file__).resolve().parent != (SRC / "rmtdec").resolve():
        sys.exit(f"error: imported rmtdec from {rmtdec.__file__}, not from {SRC}")
    return rmtdec


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(workers: int) -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


def _make(name: str, workdir: Path, workers: int):
    import workloads

    return workloads.WORKLOADS[name](workdir, workers)


def _probe(name: str, workdir: Path, workers: int) -> None:
    """Set-up probe: imports and the workload's warm-up call, then the clock."""
    _import_rmtdec()
    _make(name, workdir, workers).warm_up()
    print(time.clock_gettime(time.CLOCK_MONOTONIC))


def _setup_seconds(name: str, workdir: Path, extra: list[str]) -> list[float]:
    """Process start to first timed operation, in fresh processes, one at a time.

    CLOCK_MONOTONIC is shared by every process on the machine, so the child's
    reading minus the parent's reading before the spawn is the set-up time.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", name,
           "--workdir", str(workdir), *extra]
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _emit(env: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    env = {**env, "attempted": attempted, "failed": failed}
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out = OUT / f"result-{env['workload']}-seed{env['seed']}-trace{env['trace']}.json"
    out.write_text(json.dumps({"env": env, **result}, indent=2) + "\n")
    print(json.dumps(result))


def bench(args: argparse.Namespace) -> int:
    workers = os.cpu_count() if args.defaults else 1
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        extra = ["--defaults"] if args.defaults else []
        setup = [] if args.trace else _setup_seconds(args.workload, workdir, extra)
        workload = _make(args.workload, workdir, workers)
        workload.warm_up()
        passes = max(1, round(args.seconds / workload.nominal_pass_s))
        env = {
            **_environment(workers),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "passes": passes,
        }
        from workloads import Phase

        plain = Phase(args.seed, 0)
        if not args.trace:
            for _ in range(passes):
                plain.run_pass(workload)
            correct = plain.report(args.workload)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": _metric(statistics.median(setup), "s"),
                "wall_s": _metric(math.fsum(plain.pass_s), "s"),
                "pass_s_p50": _metric(statistics.median(plain.pass_s), "s"),
                "peak_rss_mb": _metric(rss_mb, "MB"),
            }
            env["setup_samples_s"] = setup
            env["pass_samples_s"] = plain.pass_s
            _emit(env, correct, plain.attempted, plain.failed, metrics)
            return 0

        from spans import Tracer

        # Traced and untraced passes alternate, so the machine's drift in
        # speed falls on both alike; the untraced ones only serve the
        # overhead.  A traced pass goes first, so its spans see the process
        # as a user's would be (a repeated verify suite finds brute-force
        # results in gap's own cache).
        tracer = Tracer()
        traced = Phase(args.seed, 1)
        for _ in range(passes):
            traced.run_pass(workload, tracer)
            plain.run_pass(workload)
        correct = all([traced.report(args.workload), plain.report(args.workload)])
        layer = tracer.report(math.fsum(traced.pass_s), math.fsum(plain.pass_s))
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        env["spans"] = len(tracer.span_name)
        metrics = {k: _metric(float(v), u) for k, (v, u) in layer.items()}
        _emit(env, correct, traced.attempted + plain.attempted, traced.failed + plain.failed, metrics)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke() -> int:
    """Every workload at minimal size, then each check fed a perturbed answer."""
    import selftest

    return selftest.main(OUT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at minimal size")
    parser.add_argument(
        "--defaults",
        action="store_true",
        help="reference only: rmtdec's default workers (CPU count) and unpinned BLAS threads",
    )
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, str(BENCH_DIR))
    if args.probe:
        _probe(args.probe, Path(args.workdir), os.cpu_count() if args.defaults else 1)
        return 0
    _import_rmtdec()
    OUT.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
