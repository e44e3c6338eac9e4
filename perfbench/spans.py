"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` wraps a fixed list of public rmtdec functions and rebinds
each wrapped name in every loaded ``rmtdec`` module that holds the original
object, so calls made inside the package (``rmtdec.gap.sample_mcmc``,
``rmtdec.orthopoly.integrate``, ...) are seen as well as the benchmark's own.
The ``log_density`` callable handed to ``sample_mcmc`` is wrapped per call.

A span is (name, start, end, parent), stored column-wise in ``array``
buffers: the Metropolis rows of verify-quick make about a million density
calls, too many for one tuple each.  Recording is single-threaded by design
(every rmtdec call in the benchmark runs with ``workers=1``), so spans nest
and a parent's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name); span names double as the keys of ``report``
TARGETS = (
    ("samplers", "sample_ensemble", "samplers.sample_ensemble"),
    ("samplers", "sample_mcmc", "samplers.sample_mcmc"),
    ("samplers", "sample_gaussian_matrix", "samplers.sample_gaussian_matrix"),
    ("samplers", "sample_haar_circular", "samplers.sample_haar_circular"),
    ("densities", "log_p_beta_batch", "densities.log_p_beta_batch"),
    ("densities", "log_chiral_batch", "densities.log_chiral_batch"),
    ("densities", "log_q_odd_batch", "densities.log_q_odd_batch"),
    ("gap", "gap_ue_exact", "gap.gap_ue_exact"),
    ("gap", "gap_chue_exact", "gap.gap_chue_exact"),
    ("gap", "gap_cue_exact", "gap.gap_cue_exact"),
    ("gap", "gap_oe_odd_exact", "gap.gap_oe_odd_exact"),
    ("gap", "gap_oe_bruteforce", "gap.gap_oe_bruteforce"),
    ("gap", "gaudin_data", "gap.gaudin_data"),
    ("gap", "gap_mc", "gap.gap_mc"),
    ("gap", "check_thm_gap", "gap.check_thm_gap"),
    ("gap", "check_B1_structure", "gap.check_B1_structure"),
    ("gap", "check_identity_24", "gap.check_identity_24"),
    ("gap", "check_identity_24cp", "gap.check_identity_24cp"),
    ("gap", "check_8_31p", "gap.check_8_31p"),
    ("gap", "check_thm_D4", "gap.check_thm_D4"),
    ("orthopoly", "build", "orthopoly.build"),
    ("orthopoly", "gram", "orthopoly.gram"),
    ("numerics", "integrate", "numerics.integrate"),
    ("weights", "theta1", "weights.theta1"),
    ("verify", "two_sample_battery", "verify.two_sample_battery"),
    ("verify", "ks_two_sample", "verify.ks_two_sample"),
    ("verify", "verify_thm1", "verify.verify_thm1"),
    ("verify", "verify_cor1", "verify.verify_cor1"),
    ("verify", "verify_thmCE", "verify.verify_thmCE"),
    ("verify", "verify_dixon_anderson", "verify.verify_dixon_anderson"),
    ("verify", "verify_q_odd", "verify.verify_q_odd"),
    ("verify", "verify_recurrence", "verify.verify_recurrence"),
    ("cli", "cmd_verify", "cli.cmd_verify"),
)

# SampleBatch I/O methods, patched on the class
IO_METHODS = ("to_csv", "from_csv", "to_jsonl", "from_jsonl")

DENSITY_SPANS = (
    "densities.log_p_beta_batch",
    "densities.log_chiral_batch",
    "densities.log_q_odd_batch",
)
ENGINE_SPANS = {
    "ue": "gap.gap_ue_exact",
    "chue": "gap.gap_chue_exact",
    "cue": "gap.gap_cue_exact",
    "oe_odd": "gap.gap_oe_odd_exact",
    "bruteforce": "gap.gap_oe_bruteforce",
}
CHECKER_SPANS = tuple(name for _, _, name in TARGETS if ".check_" in name)
ROUTE_SPANS = {
    "gaussian": "samplers.route.gaussian",
    "unitary": "samplers.route.unitary",
    "orthogonal": "samplers.route.orthogonal",
    "pullback": "samplers.route.pullback",
}


class Tracer:
    """Span and counter store; install() patches rmtdec, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _wrap(self, fn, nid: int):
        span_ids, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_ids)
            span_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import rmtdec

        mods = [m for k, m in sys.modules.items() if k == "rmtdec" or k.startswith("rmtdec.")]
        for modname, attr, name in TARGETS:
            orig = getattr(getattr(rmtdec, modname), attr)
            wrapped = self._special(attr, orig) or self._wrap(orig, self.name_id(name))
            for mod in mods:
                if mod.__dict__.get(attr) is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        cls = rmtdec.samplers.SampleBatch
        for meth in IO_METHODS:
            raw = cls.__dict__[meth]
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, self._io_method(meth, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _special(self, attr: str, orig):
        """Wrappers that also count work or pick a route-specific span name."""
        if attr == "sample_mcmc":
            span = self._wrap(orig, self.name_id("samplers.sample_mcmc"))
            dens_id = self.name_id("samplers.mcmc_log_density")

            def sample_mcmc(log_density, n, count, seed, *args, **kwargs):
                batch = span(self._wrap(log_density, dens_id), n, count, seed, *args, **kwargs)
                self.count("mcmc_draws", batch.count)
                self.count("mcmc_ess", float(batch.diagnostics.get("ess", 0.0)))
                return batch

            return sample_mcmc
        if attr == "sample_gaussian_matrix":
            span = self._wrap(orig, self.name_id(ROUTE_SPANS["gaussian"]))

            def sample_gaussian_matrix(beta, n, count, *args, **kwargs):
                self.count("gaussian_draws", count)
                return span(beta, n, count, *args, **kwargs)

            return sample_gaussian_matrix
        if attr == "sample_haar_circular":
            unitary = self._wrap(orig, self.name_id(ROUTE_SPANS["unitary"]))
            orthogonal = self._wrap(orig, self.name_id(ROUTE_SPANS["orthogonal"]))

            def sample_haar_circular(kind, n, count, *args, **kwargs):
                route = "unitary" if kind in ("COE", "CUE") else "orthogonal"
                self.count(f"{route}_draws", count)
                fn = unitary if route == "unitary" else orthogonal
                return fn(kind, n, count, *args, **kwargs)

            return sample_haar_circular
        if attr == "sample_ensemble":
            from rmtdec.samplers import has_exact_route

            plain = self._wrap(orig, self.name_id("samplers.sample_ensemble"))
            pullback = self._wrap(orig, self.name_id(ROUTE_SPANS["pullback"]))

            def sample_ensemble(spec, count, *args, **kwargs):
                if (
                    spec.weight is not None
                    and spec.weight.family == "cauchy"
                    and spec.method != "mcmc"
                    and has_exact_route(spec)
                ):
                    self.count("pullback_draws", count)
                    return pullback(spec, count, *args, **kwargs)
                return plain(spec, count, *args, **kwargs)

            return sample_ensemble
        if attr == "theta1":
            span = self._wrap(orig, self.name_id("weights.theta1"))

            def theta1(w, x):
                self.count("theta1_points", int(np.size(x)))
                return span(w, x)

            return theta1
        return None

    def _io_method(self, meth: str, raw):
        name = f"samplers.SampleBatch.{meth}"
        if meth.startswith("from_"):
            span = self._wrap(raw.__func__, self.name_id(name))

            def load(cls, path):
                batch = span(cls, path)
                self.count(f"{meth}_rows", batch.count)
                return batch

            return classmethod(load)
        span = self._wrap(raw, self.name_id(name))

        def store(batch, path):
            span(batch, path)
            self.count(f"{meth}_rows", batch.count)
            self.count("bytes_written", Path(path).stat().st_size)

        return store

    # -- analysis ------------------------------------------------------------

    def _columns(self):
        names = np.frombuffer(self.span_name, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        return names, start, end, parent

    def report(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        names, start, end, parent = self._columns()
        dur = end - start
        child = parent >= 0
        child_sum = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_t = dur - child_sum

        def ids(*span_names: str) -> np.ndarray:
            wanted = [self._ids[n] for n in span_names if n in self._ids]
            return np.isin(names, wanted)

        def total(*span_names: str) -> float:
            return float(dur[ids(*span_names)].sum())

        def self_total(*span_names: str) -> float:
            return float(self_t[ids(*span_names)].sum())

        def calls(*span_names: str) -> int:
            return int(np.count_nonzero(ids(*span_names)))

        def p50_ms(span_name: str) -> float:
            d = dur[ids(span_name)]
            return 1e3 * statistics.median(d.tolist()) if d.size else 0.0

        def rate(amount: float, seconds: float) -> float:
            return amount / seconds if seconds > 0 else 0.0

        c = self.counters.get
        mcmc_s = total("samplers.sample_mcmc")
        engine = tuple(ENGINE_SPANS.values())
        out = {
            "samplers.mcmc_s": (mcmc_s, "s"),
            "samplers.mcmc_draws_per_s": (rate(c("mcmc_draws", 0.0), mcmc_s), "1/s"),
            "samplers.mcmc_density_evals": (calls("samplers.mcmc_log_density"), "count"),
            "samplers.mcmc_density_s": (total("samplers.mcmc_log_density"), "s"),
            "samplers.mcmc_ess_per_draw": (
                c("mcmc_ess", 0.0) / c("mcmc_draws", 1.0) if c("mcmc_draws") else 0.0,
                "ratio",
            ),
        }
        for route, span_name in ROUTE_SPANS.items():
            out[f"samplers.{route}_draws_per_s"] = (
                rate(c(f"{route}_draws", 0.0), total(span_name)),
                "1/s",
            )
        for meth in IO_METHODS:
            out[f"samplers.{meth}_rows_per_s"] = (
                rate(c(f"{meth}_rows", 0.0), total(f"samplers.SampleBatch.{meth}")),
                "1/s",
            )
        out["samplers.bytes_written"] = (c("bytes_written", 0.0), "B")
        out["densities.batch_calls"] = (calls(*DENSITY_SPANS), "count")
        out["densities.batch_s"] = (total(*DENSITY_SPANS), "s")
        for key, span_name in ENGINE_SPANS.items():
            out[f"gap.{key}_ms_p50"] = (p50_ms(span_name), "ms")
        out["gap.calls_per_s"] = (rate(calls(*engine), total(*engine)), "1/s")
        out["gap.mc_s"] = (total("gap.gap_mc"), "s")
        out["gap.checker_self_s"] = (self_total(*CHECKER_SPANS), "s")
        out["orthopoly.build_calls"] = (calls("orthopoly.build"), "count")
        out["orthopoly.build_s"] = (self_total("orthopoly.build"), "s")
        out["orthopoly.gram_s"] = (self_total("orthopoly.gram"), "s")
        out["numerics.integrate_calls"] = (calls("numerics.integrate"), "count")
        out["numerics.integrate_s"] = (self_total("numerics.integrate"), "s")
        out["weights.theta1_calls"] = (calls("weights.theta1"), "count")
        out["weights.theta1_points"] = (c("theta1_points", 0.0), "count")
        out["weights.theta1_s"] = (self_total("weights.theta1"), "s")
        out["verify.battery_s"] = (total("verify.two_sample_battery"), "s")
        out["verify.ks_calls"] = (calls("verify.ks_two_sample"), "count")
        out["cli.verify_self_s"] = (self_total("cli.cmd_verify"), "s")
        out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
        return out

    def save(self, path: Path) -> None:
        """Write every span and counter as one .npz file."""
        names, start, end, parent = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            span_names=np.array(self.names),
            name=names,
            start=start,
            end=end,
            parent=parent,
            counter_keys=np.array(sorted(self.counters)),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)]),
        )
