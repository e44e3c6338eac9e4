"""Tests for the command-line front end: parsing, formats, exit codes."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from rmtdec import cli
from rmtdec.errors import BadParameter, NonConvergence
from rmtdec.verify import build_report


def run(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestSampleCommand:
    def test_csv_shape_and_header(self, capsys, tmp_path: Path) -> None:
        out = tmp_path / "s.csv"
        code, text = run(
            capsys, "sample", "--kind", "oe", "--family", "gauss", "--n", "3",
            "--count", "50", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert "diagnostics:" in text
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# spec=")
        assert " seed=7 " in lines[0]
        assert " diagnostics=" in lines[0]
        assert lines[0].endswith(' diagnostics={"route":"gaussian"}')
        assert 'diagnostics: {"route": "gaussian"}' in text
        assert lines[1] == "v1,v2,v3"
        assert len(lines) == 52
        assert all(len(line.split(",")) == 3 for line in lines[2:])

    def test_byte_identical_reruns(self, capsys, tmp_path: Path) -> None:
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _ = run(
                capsys, "sample", "--kind", "ue", "--family", "gauss", "--n", "2",
                "--count", "40", "--seed", "5", "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_output(self, capsys, tmp_path: Path) -> None:
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, w in ((a, "1"), (b, "2")):
            run(
                capsys, "sample", "--kind", "coe", "--n", "3", "--count", "60",
                "--seed", "9", "--workers", w, "--out", str(out),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_format(self, capsys, tmp_path: Path) -> None:
        out = tmp_path / "s.jsonl"
        code, _ = run(
            capsys, "sample", "--kind", "cue", "--n", "3", "--count", "30",
            "--seed", "1", "--format", "json", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        head = json.loads(lines[0])
        assert head["seed"] == 1
        rows = [json.loads(line)["values"] for line in lines[1:]]
        arr = np.array(rows)
        assert arr.shape == (30, 3)
        assert np.all((arr > -math.pi) & (arr <= math.pi))

    def test_missing_out_is_config_error(self, capsys) -> None:
        code, _ = run(capsys, "sample", "--kind", "cue", "--n", "2", "--count", "5")
        assert code == 2

    def test_unknown_kind_is_config_error(self, capsys) -> None:
        code, _ = run(
            capsys, "sample", "--kind", "bogus", "--n", "2", "--count", "5",
            "--out", "/tmp/unused.csv",
        )
        assert code == 2


class TestGapCommand:
    def test_ue_single_point(self, capsys) -> None:
        code, text = run(
            capsys, "gap", "--kind", "ue", "--family", "gauss", "--n", "1",
            "--interval", "-1", "1",
        )
        assert code == 0
        d = json.loads(text)
        assert d["engine"] == "exact"
        e1 = special.erf(1.0)
        assert d["coeffs"] == pytest.approx([1 - e1, e1], abs=1e-10)

    def test_oe_odd_exact(self, capsys) -> None:
        code, text = run(
            capsys, "gap", "--kind", "oe", "--family", "gauss", "--n", "3", "--s", "1.0"
        )
        assert code == 0
        d = json.loads(text)
        assert d["engine"] == "exact"
        assert len(d["coeffs"]) == 4
        assert sum(d["coeffs"]) == pytest.approx(1.0, abs=1e-8)

    def test_oe_even_falls_back_to_mc(self, capsys) -> None:
        code, text = run(
            capsys, "gap", "--kind", "oe", "--family", "gauss", "--n", "4",
            "--s", "1.0", "--count", "1000", "--seed", "3",
        )
        assert code == 0
        d = json.loads(text)
        assert d["engine"] == "mc"
        assert len(d["probs"]) == 5
        assert len(d["stderr"]) == 5

    def test_chue_and_cue(self, capsys) -> None:
        code, text = run(
            capsys, "gap", "--kind", "chue", "--family", "gauss", "--n", "1",
            "--mu", "0", "--s", "0.8",
        )
        assert code == 0
        d = json.loads(text)
        assert d["coeffs"][1] == pytest.approx(special.erf(0.8), abs=1e-10)
        code, text = run(capsys, "gap", "--kind", "cue", "--n", "2", "--theta", "1.0")
        assert code == 0
        assert len(json.loads(text)["coeffs"]) == 3

    def test_out_file_matches_stdout(self, capsys, tmp_path: Path) -> None:
        out = tmp_path / "g.json"
        code, text = run(
            capsys, "gap", "--kind", "cue", "--n", "2", "--theta", "1.0",
            "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text()) == json.loads(text)

    def test_engine_error_exit(self, capsys) -> None:
        code, _ = run(
            capsys, "gap", "--kind", "ue", "--family", "cauchy", "--a", "0.4",
            "--n", "9", "--interval", "-1", "1",
        )
        assert code == 3

    def test_missing_interval_flag(self, capsys) -> None:
        code, _ = run(capsys, "gap", "--kind", "oe", "--family", "gauss", "--n", "3")
        assert code == 2


class TestVerifyCommand:
    def test_recurrence_passes(self, capsys) -> None:
        code, text = run(capsys, "verify", "recurrence", "--family", "jacobi", "--a", "0.5")
        assert code == 0
        assert "overall: PASS" in text
        payload = json.loads(text[text.index("{") :])
        assert payload["passed"] is True

    def test_report_written_to_file(self, capsys, tmp_path: Path) -> None:
        out = tmp_path / "rep.json"
        code, text = run(
            capsys, "verify", "thm_gap", "--family", "gauss", "--n", "3",
            "--k", "0", "--s", "1.0", "--out", str(out),
        )
        assert code == 0
        d = json.loads(out.read_text())
        assert d["passed"] is True
        assert d["reports"][0]["identity"] == "thm_gap"
        assert str(out) in text

    def test_thm_gap_runs_one_report_per_k(self, capsys, tmp_path: Path) -> None:
        out = tmp_path / "rep.json"
        code, _ = run(
            capsys, "verify", "thm_gap", "--family", "gauss", "--n", "3",
            "--k", "0", "1", "--s", "1.0", "--out", str(out),
        )
        assert code == 0
        d = json.loads(out.read_text())
        assert [r["parameters"]["k"] for r in d["reports"]] == [0, 1]

    def test_failing_report_exits_one(self, capsys, monkeypatch) -> None:
        bad = build_report(
            "x", {}, checks=[("broken", "residual", 1.0, 1e-9, None, None)]
        )
        monkeypatch.setattr(cli, "_run_identity", lambda name, p: bad)
        code, text = run(capsys, "verify", "recurrence", "--family", "gauss")
        assert code == 1
        assert "overall: FAIL" in text

    def test_engine_error_exits_three(self, capsys, monkeypatch) -> None:
        def boom(name, p):
            raise NonConvergence("ladder exhausted")

        monkeypatch.setattr(cli, "_run_identity", boom)
        code, _ = run(capsys, "verify", "recurrence", "--family", "gauss")
        assert code == 3

    def test_unknown_identity(self, capsys) -> None:
        code, _ = run(capsys, "verify", "thm99", "--family", "gauss")
        assert code == 2

    def test_missing_family(self, capsys) -> None:
        code, _ = run(capsys, "verify", "recurrence")
        assert code == 2

    def test_missing_s(self, capsys) -> None:
        code, _ = run(capsys, "verify", "b1", "--family", "gauss", "--n", "3")
        assert code == 2

    def test_deterministic_reports(self, capsys, tmp_path: Path) -> None:
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _ = run(
                capsys, "verify", "eq831p", "--n", "2", "--k", "0", "1",
                "--theta", "1.2", "--count", "3000", "--seed", "11",
                "--out", str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_all_identities_routed(self) -> None:
        # every documented identity token resolves to a runnable entry
        for name, p in cli._all_profile(quick=True, seed=0, workers=1):
            assert name in cli.IDENTITIES
        covered = {name for name, _ in cli._all_profile(True, 0, 1)}
        assert covered == set(cli.IDENTITIES)

    def test_quick_profile_never_calls_metropolis(self, monkeypatch) -> None:
        # every row of `verify all --quick` samples from exact routes only
        from rmtdec import gap, samplers

        def no_metropolis(*args, **kwargs):
            raise AssertionError("Metropolis was called")

        monkeypatch.setattr(samplers, "sample_mcmc", no_metropolis)
        monkeypatch.setattr(gap, "sample_mcmc", no_metropolis)
        for name, p in cli._all_profile(True, 0, 1):
            rep = cli._run_identity(name, p)
            assert rep.passed, f"{name}: {rep.table()}"


class TestConfigFile:
    def test_defaults_and_override(self, capsys, tmp_path: Path) -> None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment line\nfamily = gauss\nn = 3\ns = 1.0\n")
        code, text = run(capsys, "gap", "--kind", "oe", "--config", str(cfg))
        assert code == 0
        assert json.loads(text)["n"] == 3
        code, text = run(capsys, "gap", "--kind", "oe", "--config", str(cfg), "--n", "1")
        assert code == 0
        assert json.loads(text)["n"] == 1

    def test_interval_pair_value(self, capsys, tmp_path: Path) -> None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = gauss\nn = 1\ninterval = -1 1\n")
        code, text = run(capsys, "gap", "--kind", "ue", "--config", str(cfg))
        assert code == 0
        assert json.loads(text)["interval"] == [-1.0, 1.0]

    def test_unknown_key(self, capsys, tmp_path: Path) -> None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus = 1\n")
        code, _ = run(capsys, "gap", "--kind", "cue", "--theta", "1.0", "--config", str(cfg))
        assert code == 2

    def test_malformed_line(self, capsys, tmp_path: Path) -> None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family gauss\n")
        code, _ = run(capsys, "gap", "--kind", "cue", "--theta", "1.0", "--config", str(cfg))
        assert code == 2

    def test_missing_file(self, capsys) -> None:
        code, _ = run(capsys, "gap", "--kind", "cue", "--theta", "1.0",
                      "--config", "/nonexistent/cfg.txt")
        assert code == 2

    def test_bad_value_type(self, capsys, tmp_path: Path) -> None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = three\n")
        code, _ = run(capsys, "gap", "--kind", "cue", "--theta", "1.0", "--config", str(cfg))
        assert code == 2


class TestWorkersDefault:
    def test_env_variable(self, monkeypatch) -> None:
        monkeypatch.setenv("RMTDEC_WORKERS", "2")
        assert cli._default_workers() == 2

    def test_env_invalid(self, capsys, monkeypatch) -> None:
        monkeypatch.setenv("RMTDEC_WORKERS", "many")
        with pytest.raises(BadParameter):
            cli._default_workers()
        code, _ = run(capsys, "gap", "--kind", "cue", "--n", "2", "--theta", "1.0")
        assert code == 2

    def test_flag_overrides_env(self, monkeypatch) -> None:
        monkeypatch.setenv("RMTDEC_WORKERS", "7")
        parser = cli.build_parser()
        args = parser.parse_args(["gap", "--kind", "cue", "--theta", "1.0", "--workers", "3"])
        assert cli._to_config(args).workers == 3


class TestArgparsePlumbing:
    def test_help_exits_zero(self, capsys) -> None:
        assert cli.main(["--help"]) == 0

    def test_no_command_is_config_error(self, capsys) -> None:
        assert cli.main([]) == 2

    def test_run_config_validation(self) -> None:
        with pytest.raises(BadParameter):
            cli.RunConfig(command="gap", interval=(1.0, -1.0))
        with pytest.raises(BadParameter):
            cli.RunConfig(command="gap", format="yaml")
        with pytest.raises(BadParameter):
            cli.RunConfig(command="gap", workers=0)
