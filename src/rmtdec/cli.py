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
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence

from .errors import BadParameter, NoExactEngine, RmtdecError
from .gap import (
    check_8_31p,
    check_B1_structure,
    check_identity_24,
    check_identity_24cp,
    check_thm_D4,
    check_thm_gap,
    gap_mc,
    law_gap,
    pair_for_24,
    pair_for_24cp,
)
from .samplers import _CIRCULAR, _KINDS, EnsembleSpec, _check_seed, law_of, sample_ensemble
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

_KIND_MAP = {kind.lower(): kind for kind in _KINDS}

# `gap --kind`: the flag each kind reads and the interval J of its own points
# that the flag's value gives
_GAP_KINDS: dict[str, tuple[str, Callable]] = {
    "oe": ("s", lambda s: (-s, s)),
    "ue": ("interval", tuple),
    "chue": ("s", lambda s: (0.0, s)),
    "coe": ("theta", lambda t: (-t, t)),
    "cue": ("theta", lambda t: (-t, t)),
    "oplus": ("theta", lambda t: (0.0, t)),
    "ominus": ("theta", lambda t: (0.0, t)),
}


def _default_workers() -> int:
    env = os.environ.get("RMTDEC_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise BadParameter(f"RMTDEC_WORKERS must be an integer, got {env!r}")
        if workers < 1:
            raise BadParameter(f"RMTDEC_WORKERS must be positive, got {env!r}")
        return workers
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation, and the only record of the parameter defaults:
    the parser leaves unset flags out.  Weight/ensemble constraints re-raise at
    build time so a bad combination exits with a configuration error."""

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
        if not self.k or min(self.k) < 0:
            raise BadParameter(f"k must be one or more counts >= 0, got {list(self.k)}")
        _check_seed(self.seed)

    def need(self, what: str, *names: str) -> None:
        """Raise the configuration error for the first of ``names`` left unset."""
        for name in names:
            if getattr(self, name) is None:
                raise BadParameter(f"{what} needs --{name}")

    def weight(self):
        self.need("this command", "family")
        return make_weight(self.family, self.a)

    def spec_fields(self) -> tuple:
        """(kind, n, weight, mu) of the ensemble the flags name."""
        self.need("this command", "kind")
        kind = _KIND_MAP.get(self.kind.lower())
        if kind is None:
            raise BadParameter(f"unknown ensemble kind {self.kind!r}")
        weight = None if kind in _CIRCULAR else self.weight()
        return kind, self.n, weight, self.mu

    def ensemble(self) -> EnsembleSpec:
        return EnsembleSpec(*self.spec_fields(), method=self.method)


# -- command implementations -----------------------------------------------------


def cmd_sample(config: RunConfig) -> int:
    spec = config.ensemble()
    config.need("sample", "out")
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
    """The kind's gap vector on its interval from the exact table
    (``law_gap`` on the kind's law), or a Monte Carlo count where the table
    has no engine: OE and COE at even n.  J must be a nonempty interval."""
    kind = (config.kind or "").lower()
    if kind not in _GAP_KINDS:
        raise BadParameter(f"gap supports kinds {'/'.join(_GAP_KINDS)}, got {config.kind!r}")
    flag, interval = _GAP_KINDS[kind]
    config.need(f"gap --kind {kind}", flag)
    if flag == "theta" and not 0.0 < config.theta <= math.pi:
        raise BadParameter("theta must lie in (0, pi]")
    J = interval(getattr(config, flag))
    if not J[0] < J[1]:
        raise BadParameter(f"empty interval {J}")
    fields = config.spec_fields()
    labels = {} if fields[2] is None else {"family": config.family, "a": config.a}
    try:
        poly = law_gap(law_of(*fields), J)
    except NoExactEngine:
        spec = config.ensemble()
        est = gap_mc(spec, J, config.n, config.count, config.seed, workers=config.workers)
        return {
            "kind": kind,
            **labels,
            "n": config.n,
            "interval": list(J),
            "engine": "mc",
            "count": config.count,
            "seed": config.seed,
            "probs": [float(p) for p in est.probs],
            "stderr": [float(e) for e in est.stderr],
        }
    coeffs = [float(c) for c in poly.coeffs]
    payload = {"kind": kind, "n": config.n, "interval": list(poly.interval), "engine": "exact"}
    return {**payload, "coeffs": coeffs, **labels}


def cmd_gap(config: RunConfig) -> int:
    payload = _gap_payload(config)
    text = json.dumps(payload)
    print(text)
    if config.out is not None:
        Path(config.out).write_text(text + "\n")
    return EXIT_OK


def _mc(c: RunConfig) -> dict:
    """The Monte Carlo keywords every sampling checker takes."""
    return {"count": c.count, "seed": c.seed, "workers": c.workers}


def _given(**kwargs) -> dict:
    """The keywords that are set, so the callee's own defaults cover the rest."""
    return {key: value for key, value in kwargs.items() if value is not None}


@dataclass(frozen=True)
class _Identity:
    """One `verify` token: its summary, the RunConfig fields it needs, and its
    run.  Each run names a module-level checker, resolved at call time, so a
    rebinding of that name (a tracer, a test double) is seen."""

    summary: str
    needs: tuple[str, ...]
    run: Callable[[RunConfig], VerificationReport]
    per_k: bool = False  # one report per --k value


IDENTITIES: dict[str, _Identity] = {
    "thm1": _Identity(
        "even-decimated OE singular values against the chiral ensemble",
        ("family",),
        lambda c: verify_thm1(c.family, c.a, c.n, **_mc(c)),
    ),
    "cor1": _Identity(
        "UE singular values against the superposed even-decimated OE pair",
        ("family",),
        lambda c: verify_cor1(c.family, c.a, c.n, **_mc(c), variant="super"),
    ),
    "eq117": _Identity(
        "UE singular values against the union of the two chiral ensembles",
        ("family",),
        lambda c: verify_cor1(c.family, c.a, c.n, **_mc(c), variant="chiral"),
    ),
    "thm_gap": _Identity(
        "adjacent-pair sums of OE gap probabilities against the chiral gap",
        ("family", "s"),
        lambda c: check_thm_gap(c.family, c.n, c.k[0], c.s, a=c.a, **_mc(c)),
        per_k=True,
    ),
    "b1": _Identity(
        "structure of the odd-order OE generating function "
        "(direct vs Gaudin, chiral even part)",
        ("family", "s"),
        lambda c: check_B1_structure(c.family, c.n, c.s, a=c.a),
    ),
    "eq24": _Identity(
        "same-size OE superposition counting convolution against the UE gap; "
        "count label (i + j + 1) // 2",
        ("family", "s"),
        lambda c: check_identity_24(
            pair_for_24(c.family, **_given(a=c.a)), c.n, list(c.k), c.s, **_mc(c)
        ),
    ),
    "eq24cp": _Identity(
        "adjacent-size OE superposition convolution against the UE gap; "
        "count label (i + j) // 2",
        ("family", "s"),
        lambda c: check_identity_24cp(
            pair_for_24cp(c.family, c.n, b=c.b, **_given(a=c.a)),
            c.n, list(c.k), c.s, side=c.side, **_mc(c),
        ),
    ),
    "eq831p": _Identity(
        "counting convolution of two COE runs against the exact CUE gap; "
        "count label (i + 1) // 2 + j // 2",
        ("theta",),
        lambda c: check_8_31p(c.n, list(c.k), c.theta, **_mc(c)),
    ),
    "thmCE": _Identity(
        "folded COE decimations against the O± sectors, and CUE against the COE union",
        (),
        lambda c: verify_thmCE(c.n, **_mc(c)),
    ),
    "thmD4": _Identity(
        "COE adjacent-count sums against the chiral gaps of the tangent half-angle image",
        ("theta",),
        lambda c: check_thm_D4(c.n, list(c.k), c.theta, **_mc(c)),
    ),
    "dixon_anderson": _Identity(
        "nested interlacing integral against its companion-weight closed form",
        ("family",),
        lambda c: verify_dixon_anderson(
            c.family, c.a, c.m, c.mu, seed=c.seed, configs=c.configs, tol=c.tol
        ),
    ),
    "q_odd": _Identity(
        "chi-square fit of the odd-decimated marginal density",
        ("family",),
        lambda c: verify_q_odd(c.family, c.n, a=c.a, **_mc(c)),
    ),
    "recurrence": _Identity(
        "weight admissibility: antiderivative recurrence and closed-form theta",
        ("family",),
        lambda c: verify_recurrence(c.family, c.a),
    ),
}

# `verify all`: (token, overrides) rows, each applied to a fresh RunConfig.
# Monte Carlo counts are full size; `--quick` divides them by 5.
_PROFILE = (
    ("recurrence", dict(family="gauss")),
    ("recurrence", dict(family="jacobi", a=0.5)),
    ("recurrence", dict(family="cauchy", a=2.0)),
    ("dixon_anderson", dict(family="gauss", m=2, mu=0)),
    ("dixon_anderson", dict(family="jacobi", a=0.0, m=1, mu=1)),
    ("thm1", dict(family="gauss", n=3, count=100_000)),
    ("cor1", dict(family="gauss", n=2, count=100_000)),
    ("eq117", dict(family="gauss", n=3, count=100_000)),
    ("thm_gap", dict(family="gauss", n=3, k=(0,), s=1.0, count=100_000)),
    ("thm_gap", dict(family="gauss", n=2, k=(0,), s=1.0, count=100_000)),
    ("b1", dict(family="gauss", n=3, s=1.0)),
    ("eq24", dict(family="laguerre", n=2, k=(0, 1), s=0.7, count=100_000)),
    ("eq24cp", dict(family="gauss", n=2, k=(0, 1), s=0.6, side="left", count=100_000)),
    ("eq831p", dict(n=2, k=(0, 1), theta=1.2, count=100_000)),
    ("thmCE", dict(n=2, count=100_000)),
    ("thmD4", dict(n=2, k=(0, 1), theta=1.2, count=100_000)),
    ("q_odd", dict(family="gauss", n=2, count=50_000)),
)


def _jobs(config: RunConfig) -> list[tuple[str, RunConfig]]:
    """The (token, config) runs of one `verify` call."""
    if config.identity == "all":
        jobs = []
        for token, over in _PROFILE:
            if config.quick and "count" in over:
                over = {**over, "count": over["count"] // 5}
            jobs.append(
                (token, RunConfig("verify", seed=config.seed, workers=config.workers, **over))
            )
        return jobs
    token = config.identity
    if token not in IDENTITIES:
        raise BadParameter(f"unknown identity {token!r}")
    if IDENTITIES[token].per_k:
        return [(token, replace(config, k=(k,))) for k in config.k]
    return [(token, config)]


def _run_identity(token: str, config: RunConfig) -> VerificationReport:
    entry = IDENTITIES[token]
    config.need(f"verify {token}", *entry.needs)
    return entry.run(config)


def cmd_verify(config: RunConfig) -> int:
    reports = []
    for token, job in _jobs(config):
        rep = _run_identity(token, job)
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
    p.add_argument("--config", default=None, help="key = value file of defaults; flags override")
    p.add_argument("--family", help="weight family: gauss, jacobi, cauchy (pairs add laguerre)")
    p.add_argument("--a", type=float, help="weight parameter where the family takes one")
    p.add_argument("--b", type=float, help="second exponent for jacobi pairs")
    p.add_argument("--n", type=int, help="ensemble order")
    p.add_argument("--mu", type=int, help="chiral weight selector in {0, 1}")
    p.add_argument("--count", type=int, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, help="seed in [0, 2**64); fully determines output")
    p.add_argument("--workers", type=int,
                   help="parallel workers (default: RMTDEC_WORKERS or cores)")
    p.add_argument("--out", help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmtdec",
        description="Singular-value decimation identities: sample, compute exact "
        "gap probabilities, and verify the identity suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # an unset flag stays out of the namespace, so RunConfig's default applies
    quiet = dict(argument_default=argparse.SUPPRESS)

    ps = sub.add_parser("sample", help="draw spectra and write CSV or JSON lines", **quiet)
    _add_common(ps)
    ps.add_argument("--kind", required=True,
                    help="oe, ue, chue, coe, cue, oplus, ominus")
    ps.add_argument("--format", choices=("csv", "json"))
    ps.add_argument(
        "--method",
        choices=("auto", "exact"),
        help="auto: the exact route where one exists, else Metropolis; "
        "exact: fail without one",
    )

    pg = sub.add_parser("gap", help="gap probabilities, exact when available", **quiet)
    _add_common(pg)
    pg.add_argument("--kind", required=True, help=", ".join(_GAP_KINDS))
    pg.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"))
    pg.add_argument("--s", type=float, help="symmetric or half-line interval endpoint")
    pg.add_argument("--theta", type=float,
                    help="circular arc (-theta, theta), or (0, theta) for oplus and ominus")

    pv = sub.add_parser(
        "verify",
        help="run one identity checker or the whole suite",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="identities:\n"
        + "".join(f"  {token:<15} {entry.summary}\n" for token, entry in IDENTITIES.items())
        + f"  {'all':<15} the {len(_PROFILE)}-row suite over every identity",
        **quiet,
    )
    _add_common(pv)
    pv.add_argument("identity", help="identity name or 'all'")
    pv.add_argument("--k", type=int, nargs="+", help="gap count(s)")
    pv.add_argument("--s", type=float, help="interval endpoint")
    pv.add_argument("--theta", type=float, help="circular interval half-width")
    pv.add_argument("--side", choices=("left", "right"))
    pv.add_argument("--m", type=int, help="interlacing integral order")
    pv.add_argument("--configs", type=int, help="random configurations")
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


# the only RunConfig fields `verify all` takes; every row sets the rest
_ALL_FIELDS = {"command", "identity", "seed", "workers", "out", "quick"}


def _to_config(args: argparse.Namespace) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    values = {key: value for key, value in vars(args).items() if key in names}
    extra = sorted(values.keys() - _ALL_FIELDS) if values.get("identity") == "all" else []
    if extra:
        flags = ", ".join(f"--{key}" for key in extra)
        raise BadParameter(f"verify all sets every run itself and takes no {flags}")
    for key in ("interval", "k"):
        if key in values:
            values[key] = tuple(values[key])
    if "workers" not in values:
        values["workers"] = _default_workers()
    return RunConfig(**values)


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
