"""Command-line front end: sampling to files, exact gap computation, and the
verification suite.

Exit codes: 0 success (all checks passed), 1 identity failure, 2 configuration
error, 3 sampler or engine failure.  ``--seed`` fully determines stochastic
output; ``--workers`` (or RMTDEC_WORKERS) only controls parallelism, never the
result.  An optional ``--config`` file of ``key = value`` lines supplies
defaults that explicit flags override.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BadParameter, RmtdecError
from .gap import (
    check_8_31p,
    check_B1_structure,
    check_identity_24,
    check_identity_24cp,
    check_thm_D4,
    check_thm_gap,
    gap_chue_exact,
    gap_cue_exact,
    gap_mc,
    gap_oe_odd_exact,
    gap_ue_exact,
    pair_for_24,
    pair_for_24cp,
)
from .samplers import EnsembleSpec, sample_ensemble
from .verify import (
    VerificationReport,
    verify_cor1,
    verify_dixon_anderson,
    verify_q_odd,
    verify_recurrence,
    verify_thm1,
    verify_thmCE,
)
from .weights import make_weight

__all__ = ["RunConfig", "cmd_sample", "cmd_gap", "cmd_verify", "main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_ENGINE = 3

_KIND_MAP = {
    "oe": "OE",
    "ue": "UE",
    "chue": "chUE",
    "coe": "COE",
    "cue": "CUE",
    "oplus": "Oplus",
    "ominus": "Ominus",
}

IDENTITIES = (
    "thm1",
    "cor1",
    "eq117",
    "thm_gap",
    "b1",
    "eq24",
    "eq24cp",
    "eq831p",
    "thmCE",
    "thmD4",
    "dixon_anderson",
    "q_odd",
    "recurrence",
)


def _default_workers() -> int:
    env = os.environ.get("RMTDEC_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise BadParameter(f"RMTDEC_WORKERS must be an integer, got {env!r}")
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; weight/ensemble constraints re-raise at build
    time so a bad combination exits with a configuration error."""

    command: str
    kind: str | None = None
    family: str | None = None
    a: float | None = None
    b: float = 1.0
    n: int = 2
    mu: int = 0
    m: int = 1
    count: int = 10_000
    seed: int = 0
    interval: tuple[float, float] | None = None
    s: float | None = None
    theta: float | None = None
    k: tuple[int, ...] = (0,)
    side: str = "left"
    configs: int = 5
    tol: float | None = None
    identity: str | None = None
    quick: bool = False
    out: str | None = None
    format: str = "csv"
    method: str = "auto"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise BadParameter(f"unknown format {self.format!r}")
        if self.interval is not None and not self.interval[0] < self.interval[1]:
            raise BadParameter(f"empty interval {self.interval}")
        if self.workers < 1:
            raise BadParameter("workers must be positive")

    def weight(self):
        if self.family is None:
            raise BadParameter("this command needs --family")
        return make_weight(self.family, self.a)

    def ensemble(self) -> EnsembleSpec:
        if self.kind is None:
            raise BadParameter("this command needs --kind")
        kind = _KIND_MAP.get(self.kind.lower())
        if kind is None:
            raise BadParameter(f"unknown ensemble kind {self.kind!r}")
        weight = self.weight() if kind in ("OE", "UE", "chUE") else None
        return EnsembleSpec(kind, self.n, weight=weight, mu=self.mu, method=self.method)


# -- command implementations -----------------------------------------------------


def cmd_sample(config: RunConfig) -> int:
    spec = config.ensemble()
    if config.out is None:
        raise BadParameter("sample needs --out")
    batch = sample_ensemble(spec, config.count, config.seed, workers=config.workers)
    if config.format == "csv":
        batch.to_csv(config.out)
    else:
        batch.to_jsonl(config.out)
    diag = json.dumps(batch.diagnostics, sort_keys=True)
    print(f"wrote {batch.count} x {batch.width} samples to {config.out}")
    print(f"diagnostics: {diag}")
    return EXIT_OK


def _gap_payload(config: RunConfig) -> dict:
    kind = (config.kind or "").lower()
    if kind == "ue":
        if config.interval is None:
            raise BadParameter("gap --kind ue needs --interval LO HI")
        poly = gap_ue_exact(config.weight(), config.n, config.interval)
    elif kind == "chue":
        if config.s is None:
            raise BadParameter("gap --kind chue needs --s")
        poly = gap_chue_exact(config.weight(), config.mu, config.n, config.s)
    elif kind == "cue":
        if config.theta is None:
            raise BadParameter("gap --kind cue needs --theta")
        poly = gap_cue_exact(config.n, config.theta)
    elif kind == "coe":
        if config.theta is None:
            raise BadParameter("gap --kind coe needs --theta")
        est = gap_mc(
            EnsembleSpec("COE", config.n),
            (-config.theta, config.theta),
            config.n,
            config.count,
            config.seed,
            workers=config.workers,
        )
        return {
            "kind": "coe",
            "n": config.n,
            "interval": [-config.theta, config.theta],
            "engine": "mc",
            "count": config.count,
            "seed": config.seed,
            "probs": [float(p) for p in est.probs],
            "stderr": [float(e) for e in est.stderr],
        }
    elif kind == "oe":
        if config.s is None:
            raise BadParameter("gap --kind oe needs --s")
        if config.n % 2 == 1:
            poly = gap_oe_odd_exact(config.weight(), config.n, config.s)
        else:
            est = gap_mc(
                EnsembleSpec("OE", config.n, config.weight()),
                (-config.s, config.s),
                config.n,
                config.count,
                config.seed,
                workers=config.workers,
            )
            return {
                "kind": "oe",
                "family": config.family,
                "a": config.a,
                "n": config.n,
                "interval": [-config.s, config.s],
                "engine": "mc",
                "count": config.count,
                "seed": config.seed,
                "probs": [float(p) for p in est.probs],
                "stderr": [float(e) for e in est.stderr],
            }
    else:
        raise BadParameter(f"gap supports kinds oe/ue/chue/cue/coe, got {config.kind!r}")
    payload = {
        "kind": kind,
        "n": poly.n,
        "interval": list(poly.interval),
        "engine": "exact",
        "coeffs": [float(c) for c in poly.coeffs],
    }
    if config.family is not None:
        payload["family"] = config.family
        payload["a"] = config.a
    return payload


def cmd_gap(config: RunConfig) -> int:
    payload = _gap_payload(config)
    text = json.dumps(payload)
    print(text)
    if config.out is not None:
        Path(config.out).write_text(text + "\n")
    return EXIT_OK


_NEEDS_FAMILY = frozenset(
    ("thm1", "cor1", "eq117", "thm_gap", "b1", "eq24", "eq24cp",
     "dixon_anderson", "q_odd", "recurrence")
)


def _run_identity(name: str, p: dict) -> VerificationReport:
    """One checker invocation from a resolved parameter dict."""
    family = p.get("family")
    a = p.get("a")
    if name in _NEEDS_FAMILY and family is None:
        raise BadParameter(f"verify {name} needs --family")
    kscalar = int(np.atleast_1d(p["k"])[0])
    if name == "thm1":
        return verify_thm1(family, a, p["n"], p["count"], p["seed"], workers=p["workers"])
    if name == "cor1":
        return verify_cor1(
            family, a, p["n"], p["count"], p["seed"], workers=p["workers"], variant="super"
        )
    if name == "eq117":
        return verify_cor1(
            family, a, p["n"], p["count"], p["seed"], workers=p["workers"], variant="chiral"
        )
    if name == "thm_gap":
        return check_thm_gap(
            family,
            p["n"],
            kscalar,
            _require(p, "s", name),
            a=a,
            count=p["count"],
            seed=p["seed"],
            workers=p["workers"],
        )
    if name == "b1":
        return check_B1_structure(family, p["n"], _require(p, "s", name), a=a)
    if name == "eq24":
        pair = pair_for_24(family, a) if a is not None else pair_for_24(family)
        return check_identity_24(
            pair, p["n"], list(p["k"]), _require(p, "s", name),
            count=p["count"], seed=p["seed"], workers=p["workers"],
        )
    if name == "eq24cp":
        if a is not None:
            pair = pair_for_24cp(family, p["n"], a, p["b"])
        else:
            pair = pair_for_24cp(family, p["n"], b=p["b"])
        return check_identity_24cp(
            pair, p["n"], list(p["k"]), _require(p, "s", name), side=p["side"],
            count=p["count"], seed=p["seed"], workers=p["workers"],
        )
    if name == "eq831p":
        return check_8_31p(
            p["n"], list(p["k"]), _require(p, "theta", name),
            count=p["count"], seed=p["seed"], workers=p["workers"],
        )
    if name == "thmCE":
        return verify_thmCE(p["n"], p["count"], p["seed"], workers=p["workers"])
    if name == "thmD4":
        return check_thm_D4(
            p["n"], list(p["k"]), _require(p, "theta", name),
            count=p["count"], seed=p["seed"], workers=p["workers"],
        )
    if name == "dixon_anderson":
        return verify_dixon_anderson(
            family, a, p["m"], p["mu"], seed=p["seed"], configs=p["configs"], tol=p["tol"]
        )
    if name == "q_odd":
        return verify_q_odd(family, p["n"], p["count"], p["seed"], a=a, workers=p["workers"])
    if name == "recurrence":
        return verify_recurrence(family, a)
    raise BadParameter(f"unknown identity {name!r}")


def _require(p: dict, key: str, name: str) -> float:
    if p.get(key) is None:
        raise BadParameter(f"verify {name} needs --{key}")
    return p[key]


def _all_profile(quick: bool, seed: int, workers: int) -> list[tuple[str, dict]]:
    """The `verify all` suite; `--quick` shrinks every Monte Carlo run."""
    c = 20_000 if quick else 100_000
    cq = 10_000 if quick else 50_000
    rows = [
        ("recurrence", dict(family="gauss")),
        ("recurrence", dict(family="jacobi", a=0.5)),
        ("recurrence", dict(family="cauchy", a=2.0)),
        ("dixon_anderson", dict(family="gauss", m=2, mu=0)),
        ("dixon_anderson", dict(family="jacobi", a=0.0, m=1, mu=1)),
        ("thm1", dict(family="gauss", n=3, count=c)),
        ("cor1", dict(family="gauss", n=2, count=c)),
        ("eq117", dict(family="gauss", n=3, count=c)),
        ("thm_gap", dict(family="gauss", n=3, k=(0,), s=1.0, count=c)),
        ("thm_gap", dict(family="gauss", n=2, k=(0,), s=1.0, count=c)),
        ("b1", dict(family="gauss", n=3, s=1.0)),
        ("eq24", dict(family="laguerre", n=2, k=(0, 1), s=0.7, count=c)),
        ("eq24cp", dict(family="gauss", n=2, k=(0, 1), s=0.6, side="left", count=c)),
        ("eq831p", dict(n=2, k=(0, 1), theta=1.2, count=c)),
        ("thmCE", dict(n=2, count=c)),
        ("thmD4", dict(n=2, k=(0, 1), theta=1.2, count=c)),
        ("q_odd", dict(family="gauss", n=2, count=cq)),
    ]
    base = dict(
        family=None, a=None, b=1.0, n=2, mu=0, m=1, count=c, seed=seed,
        s=None, theta=None, k=(0,), side="left", configs=5, tol=None, workers=workers,
    )
    return [(name, {**base, **over}) for name, over in rows]


def cmd_verify(config: RunConfig) -> int:
    if config.identity == "all":
        jobs = _all_profile(config.quick, config.seed, config.workers)
    else:
        p = dict(
            family=config.family, a=config.a, b=config.b, n=config.n, mu=config.mu,
            m=config.m, count=config.count, seed=config.seed, s=config.s,
            theta=config.theta, k=config.k, side=config.side, configs=config.configs,
            tol=config.tol, workers=config.workers,
        )
        if config.identity == "thm_gap" and len(config.k) > 1:
            jobs = [(config.identity, {**p, "k": (ki,)}) for ki in config.k]
        else:
            jobs = [(config.identity, p)]

    reports = []
    for name, p in jobs:
        rep = _run_identity(name, p)
        reports.append(rep)
        print(rep.table())
        print()

    payload = {
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    text = json.dumps(payload, indent=2)
    if config.out is not None:
        Path(config.out).write_text(text + "\n")
        print(f"report written to {config.out}")
    else:
        print(text)
    return EXIT_OK if payload["passed"] else EXIT_FAIL


# -- argument parsing --------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file of defaults; flags override")
    p.add_argument("--family", help="weight family: gauss, jacobi, cauchy (pairs add laguerre)")
    p.add_argument("--a", type=float, help="weight parameter where the family takes one")
    p.add_argument("--b", type=float, default=1.0, help="second exponent for jacobi pairs")
    p.add_argument("--n", type=int, default=2, help="ensemble order")
    p.add_argument("--mu", type=int, default=0, help="chiral weight selector in {0, 1}")
    p.add_argument("--count", type=int, default=10_000, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=0, help="seed; fully determines output")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel workers (default: RMTDEC_WORKERS or cores)")
    p.add_argument("--out", help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmtdec",
        description="Singular-value decimation identities: sample, compute exact "
        "gap probabilities, and verify the identity suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="draw spectra and write CSV or JSON lines")
    _add_common(ps)
    ps.add_argument("--kind", required=True,
                    help="oe, ue, chue, coe, cue, oplus, ominus")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument(
        "--method",
        choices=("auto", "exact", "mcmc"),
        default="auto",
        help="auto: the exact route where one exists, else Metropolis; "
        "exact: fail without one; mcmc: Metropolis (weighted kinds only)",
    )

    pg = sub.add_parser("gap", help="gap probabilities, exact when available")
    _add_common(pg)
    pg.add_argument("--kind", required=True, help="oe, ue, chue, cue, coe")
    pg.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"))
    pg.add_argument("--s", type=float, help="symmetric or half-line interval endpoint")
    pg.add_argument("--theta", type=float, help="circular interval half-width")

    pv = sub.add_parser(
        "verify",
        help="run one identity checker or the whole suite",
        epilog="identities: " + ", ".join(IDENTITIES) + ", all",
    )
    _add_common(pv)
    pv.add_argument("identity", help="identity name or 'all'")
    pv.add_argument("--k", type=int, nargs="+", default=[0], help="gap count(s)")
    pv.add_argument("--s", type=float, help="interval endpoint")
    pv.add_argument("--theta", type=float, help="circular interval half-width")
    pv.add_argument("--side", choices=("left", "right"), default="left")
    pv.add_argument("--m", type=int, default=1, help="interlacing integral order")
    pv.add_argument("--configs", type=int, default=5, help="random configurations")
    pv.add_argument("--tol", type=float, help="override the residual tolerance")
    pv.add_argument("--quick", action="store_true", help="reduced-size suite")
    return parser


def _coerce(action: argparse.Action, raw: str):
    parts = raw.split()
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        if raw.lower() not in ("true", "false", "0", "1", "yes", "no"):
            raise BadParameter(f"config key {action.dest!r} needs a boolean, got {raw!r}")
        return raw.lower() in ("true", "1", "yes")
    conv = action.type or str
    if action.nargs in (None, "?"):
        return conv(raw)
    vals = [conv(t) for t in parts]
    if isinstance(action.nargs, int) and len(vals) != action.nargs:
        raise BadParameter(f"config key {action.dest!r} needs {action.nargs} values")
    return vals


def _apply_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace,
                       argv: Sequence[str]) -> argparse.Namespace:
    """Reparse with file-sourced defaults so explicit flags keep priority."""
    path = Path(args.config)
    if not path.is_file():
        raise BadParameter(f"config file not found: {args.config}")
    sub_actions = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    subparser = sub_actions.choices[args.command]
    by_dest = {a.dest: a for a in subparser._actions if a.dest != "help"}
    defaults = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise BadParameter(f"{args.config}:{lineno}: expected 'key = value'")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key not in by_dest or key == "config":
            raise BadParameter(f"{args.config}:{lineno}: unknown key {key!r}")
        try:
            defaults[key] = _coerce(by_dest[key], value)
        except (ValueError, TypeError):
            raise BadParameter(f"{args.config}:{lineno}: bad value for {key!r}: {value!r}")
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def _to_config(args: argparse.Namespace) -> RunConfig:
    interval = getattr(args, "interval", None)
    return RunConfig(
        command=args.command,
        kind=getattr(args, "kind", None),
        family=args.family,
        a=args.a,
        b=args.b,
        n=args.n,
        mu=args.mu,
        m=getattr(args, "m", 1),
        count=args.count,
        seed=args.seed,
        interval=tuple(interval) if interval is not None else None,
        s=getattr(args, "s", None),
        theta=getattr(args, "theta", None),
        k=tuple(getattr(args, "k", [0])),
        side=getattr(args, "side", "left"),
        configs=getattr(args, "configs", 5),
        tol=getattr(args, "tol", None),
        identity=getattr(args, "identity", None),
        quick=getattr(args, "quick", False),
        out=args.out,
        format=getattr(args, "format", "csv"),
        method=getattr(args, "method", "auto"),
        workers=args.workers if args.workers is not None else _default_workers(),
    )


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = _apply_config_file(parser, args, argv)
        config = _to_config(args)
        handler = {"sample": cmd_sample, "gap": cmd_gap, "verify": cmd_verify}[config.command]
        return handler(config)
    except SystemExit as exc:
        # argparse reports its own message; normalize its code to the contract
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except BadParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RmtdecError as exc:
        print(f"engine failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
