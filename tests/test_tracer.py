"""The benchmark's span tracer (perfbench/spans.py) against the package.

The traced benchmark run wraps every (module, attribute) in ``TARGETS``
and the four ``SampleBatch`` I/O methods; a renamed or removed name makes
that run fail.  These tests install the tracer around small calls, the way
the traced run does, without editing perfbench.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import rmtdec
from rmtdec import cli, gap, samplers
from rmtdec.samplers import EnsembleSpec, McmcParams, SampleBatch
from rmtdec.weights import cauchy_weight

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans) -> None:
    assert len(spans.TARGETS) == 33
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module("rmtdec." + module), attr))
    for meth in spans.IO_METHODS:
        assert meth in SampleBatch.__dict__


def test_traced_calls_record_spans_and_restore(spans, tmp_path, capsys) -> None:
    originals = {
        (module, attr): getattr(sys.modules["rmtdec." + module], attr)
        for module, attr, _ in spans.TARGETS
    }
    io = {meth: SampleBatch.__dict__[meth] for meth in spans.IO_METHODS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(
            ["verify", "b1", "--family", "gauss", "--n", "3", "--s", "0.8", "--workers", "1"]
        )
        # the Cauchy UE pullback: the route the tracer's sample_ensemble
        # wrapper tells apart through has_exact_route
        spec = EnsembleSpec("UE", 5, cauchy_weight(2.0))
        assert samplers.has_exact_route(spec)
        batch = samplers.sample_ensemble(spec, 64, 5, workers=1)
        for fmt in ("csv", "jsonl"):
            path = tmp_path / f"b.{fmt}"
            getattr(batch, f"to_{fmt}")(path)
            back = getattr(SampleBatch, f"from_{fmt}")(path)
            np.testing.assert_array_equal(back.spectra, batch.spectra)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0

    for (module, attr), orig in originals.items():
        assert getattr(sys.modules["rmtdec." + module], attr) is orig
    assert rmtdec.sample_ensemble is originals[("samplers", "sample_ensemble")]
    for meth, raw in io.items():
        assert SampleBatch.__dict__[meth] is raw

    seen = set(tracer.names)
    assert {"cli.cmd_verify", "gap.check_B1_structure", "numerics.integrate"} <= seen
    assert spans.ROUTE_SPANS["pullback"] in seen
    for meth in spans.IO_METHODS:
        assert f"samplers.SampleBatch.{meth}" in seen
    report = tracer.report(1.0, 1.0)
    assert report["samplers.pullback_draws_per_s"][0] > 0
    assert report["samplers.to_csv_rows_per_s"][0] > 0
    assert report["weights.theta1_points"][0] > 0
    assert report["samplers.bytes_written"][0] > 0


def test_traced_pair_rows(spans, capsys) -> None:
    # the eq24 and eq24cp rows of the quick suite draw their beta = 1 runs
    # through samplers.sample_law; the gaussian route's span is the one the
    # tracer sees under the eq24cp Gauss row
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [
            cli.main(["verify", "eq24", "--family", "laguerre", "--n", "2", "--k", "0", "1",
                      "--s", "0.7", "--count", "2000", "--workers", "1"]),
            cli.main(["verify", "eq24cp", "--family", "gauss", "--n", "2", "--k", "0", "1",
                      "--s", "0.6", "--count", "2000", "--workers", "1"]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    seen = set(tracer.names)
    assert {"gap.check_identity_24", "gap.check_identity_24cp", "gap.gap_ue_exact"} <= seen
    assert spans.ROUTE_SPANS["gaussian"] in seen
    assert tracer.report(1.0, 1.0)["samplers.gaussian_draws_per_s"][0] > 0


def test_traced_metropolis_row(spans, monkeypatch) -> None:
    # the Romanovski law off the circular exponent is the table's Metropolis
    # row; it looks sample_mcmc up when it draws, so the tracer sees it
    monkeypatch.setattr(samplers, "McmcParams", lambda: McmcParams(burn_in=20, chains=8))
    w = gap.pair_for_24cp("cauchy", 2, a=0.3).w1sq
    tracer = spans.Tracer()
    tracer.install()
    try:
        batch = samplers.sample_law(1, 2, w, 16, 3, workers=1)
    finally:
        tracer.uninstall()
    assert batch.diagnostics["route"] == "metropolis"
    assert "samplers.sample_mcmc" in set(tracer.names)
    report = tracer.report(1.0, 1.0)
    assert report["samplers.mcmc_draws_per_s"][0] > 0
    assert report["samplers.mcmc_density_evals"][0] > 0
