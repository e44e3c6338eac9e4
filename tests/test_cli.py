"""Tests for the command-line front end: parsing, formats, exit codes."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from rmtdec import cli, gap
from rmtdec.errors import BadParameter, NonConvergence
from rmtdec.samplers import law_of
from rmtdec.verify import build_report
from rmtdec.weights import gauss_weight


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

    def test_method_mcmc_is_not_a_choice(self, capsys, tmp_path: Path) -> None:
        code = cli.main([
            "sample", "--kind", "oe", "--family", "gauss", "--n", "2", "--count", "5",
            "--method", "mcmc", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "invalid choice: 'mcmc'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_method_exact_without_exact_route(self, capsys, tmp_path: Path) -> None:
        # OE Cauchy a = 0.7 at n = 3 is off the circular exponent 2a + 1 = n
        code = cli.main([
            "sample", "--kind", "oe", "--family", "cauchy", "--a", "0.7", "--n", "3",
            "--count", "5", "--method", "exact", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "no exact route" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


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

    def test_oe_odd_exact_large_n(self, capsys) -> None:
        code, text = run(
            capsys, "gap", "--kind", "oe", "--family", "gauss", "--n", "31", "--s", "1.0"
        )
        assert code == 0
        d = json.loads(text)
        assert len(d["coeffs"]) == 32
        assert sum(d["coeffs"]) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "a,s", [("-0.75", "0.5"), ("180", "0.1")], ids=["a=-0.75", "a=180"]
    )
    def test_oe_odd_exact_jacobi_extremes(self, capsys, a: str, s: str) -> None:
        # (1 - x^2)^a singular at the support ends, and Gamma(a + 1) past the
        # float range: both are closed forms in the engine
        code, text = run(
            capsys, "gap", "--kind", "oe", "--family", "jacobi", "--a", a, "--n", "3", "--s", s
        )
        assert code == 0
        c = np.array(json.loads(text)["coeffs"])
        assert c.size == 4 and np.min(c) >= 0.0
        assert c.sum() == pytest.approx(1.0, abs=1e-14)

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

    def test_coe_mc_payload(self, capsys) -> None:
        # COE has an exact engine at odd n only, so even n counts samples
        code, text = run(
            capsys, "gap", "--kind", "coe", "--n", "2", "--theta", "1.2",
            "--count", "500", "--seed", "11", "--workers", "1",
        )
        assert code == 0
        d = json.loads(text)
        assert list(d) == [
            "kind", "n", "interval", "engine", "count", "seed", "probs", "stderr"
        ]
        assert d["interval"] == [-1.2, 1.2] and d["engine"] == "mc"
        assert sum(d["probs"]) == pytest.approx(1.0) and len(d["stderr"]) == 3

    @pytest.mark.parametrize("kind", ["cue", "coe"])
    @pytest.mark.parametrize("theta", ["4.0", "0.0"])
    def test_theta_out_of_range_exits_2(self, capsys, kind: str, theta: str) -> None:
        code = cli.main(["gap", "--kind", kind, "--n", "3", "--theta", theta, "--count", "100"])
        assert code == 2
        assert "theta must lie in (0, pi]" in capsys.readouterr().err

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

    def test_jacobi_negative_exponent_ue(self, capsys) -> None:
        # the incomplete-beta moment reference gives E(0) = 0.8104851607056552
        code, text = run(
            capsys, "gap", "--kind", "ue", "--family", "jacobi", "--a", "-0.9", "--n", "2",
            "--interval", "-0.5", "0.5",
        )
        assert code == 0
        assert json.loads(text)["coeffs"][0] == pytest.approx(0.8104851607056552, abs=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "ue", "--n", "42", "--interval", "-0.5", "0.5"],
            ["--kind", "oe", "--n", "43", "--s", "0.5"],
        ],
        ids=["ue42", "oe43"],
    )
    def test_exact_engines_past_n_41(self, capsys, argv: list[str]) -> None:
        code, text = run(capsys, "gap", "--family", "gauss", *argv)
        assert code == 0
        d = json.loads(text)
        assert d["engine"] == "exact"
        assert sum(d["coeffs"]) == pytest.approx(1.0, abs=1e-8)

    def test_large_n_exit_codes(self, capsys) -> None:
        """Every exact engine ends in a documented exit code at large n, on
        finite and infinite ranges, and never lets a raw numpy error out.
        Even-n OE counts Monte Carlo rows, so the Cauchy family, whose even
        OE rows come from Metropolis, runs only its odd-n exact engine."""
        families = [
            ["--family", "gauss"],
            ["--family", "jacobi", "--a", "0.5"],
            ["--family", "jacobi", "--a", "-0.5"],
            ["--family", "cauchy", "--a", "3"],
            ["--family", "cauchy", "--a", "40"],
        ]
        ranges = {
            "ue": [["--interval", "-0.5", "0.5"], ["--interval", "0.5", "inf"]],
            "chue": [["--s", "0.5"], ["--s", "inf"]],
            "oe": [["--s", "0.5"], ["--s", "inf"]],
        }
        for fam in families:
            for n in (41, 42, 60, 120):
                for kind, kind_ranges in ranges.items():
                    if kind == "oe" and n % 2 == 0 and fam[1] == "cauchy":
                        continue
                    for rng in kind_ranges:
                        argv = ["gap", "--kind", kind, *fam, "--n", str(n), *rng,
                                "--count", "100", "--workers", "1"]
                        code = cli.main(argv)
                        capsys.readouterr()
                        assert code in (0, 2, 3), argv

    def test_gap_kinds_come_from_one_table(self, capsys) -> None:
        kinds = list(cli._GAP_KINDS)
        assert sorted(kinds) == sorted(cli._KIND_MAP)
        gap_parser = cli.build_parser()._subparsers._group_actions[0].choices["gap"]
        kind_help = next(a.help for a in gap_parser._actions if a.dest == "kind")
        assert kind_help == ", ".join(kinds)
        assert cli.main(["gap", "--kind", "gue", "--n", "2"]) == 2
        assert f"gap supports kinds {'/'.join(kinds)}" in capsys.readouterr().err
        # the README's gap examples show every kind
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### gap", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        assert sorted(set(re.findall(r"--kind (\w+)", block))) == sorted(kinds)

    @pytest.mark.parametrize("kind", list(cli._GAP_KINDS))
    def test_every_kind_the_table_computes_is_exact(self, capsys, kind: str) -> None:
        flag, interval = cli._GAP_KINDS[kind]
        value = {"s": ["0.7"], "interval": ["-0.4", "0.9"], "theta": ["1.1"]}[flag]
        J = interval([float(v) for v in value] if flag == "interval" else float(value[0]))
        weighted = cli._KIND_MAP[kind] in ("OE", "UE", "chUE")
        for n in (3, 4):
            law = law_of(cli._KIND_MAP[kind], n, gauss_weight() if weighted else None)
            family = ["--family", "gauss"] if weighted else []
            code, text = run(capsys, "gap", "--kind", kind, *family, "--n", str(n),
                             f"--{flag}", *value, "--count", "200", "--workers", "1")
            assert code == 0
            d = json.loads(text)
            assert d["interval"] == list(J)
            if gap.law_engine(law) == "none":
                assert d["engine"] == "mc" and cli._KIND_MAP[kind] in ("OE", "COE")
            else:
                assert d["engine"] == "exact"
                assert d["coeffs"] == gap.law_gap(law, tuple(d["interval"])).coeffs.tolist()

    def test_orthogonal_and_odd_coe_are_exact(self, capsys) -> None:
        code, text = run(capsys, "gap", "--kind", "oplus", "--n", "3", "--theta", "1.0")
        assert code == 0
        d = json.loads(text)
        assert d["engine"] == "exact" and d["interval"] == [0.0, 1.0] and len(d["coeffs"]) == 3
        code, text = run(capsys, "gap", "--kind", "coe", "--n", "3", "--theta", "1.2")
        assert code == 0
        assert json.loads(text)["engine"] == "exact"
        code, text = run(capsys, "gap", "--kind", "oe", "--family", "gauss", "--n", "4",
                         "--s", "1.0", "--count", "200", "--workers", "1")
        assert code == 0
        assert json.loads(text)["engine"] == "mc"

    @pytest.mark.parametrize("s", ["-0.5", "0", "nan"])
    def test_empty_interval_exits_2(self, capsys, s: str) -> None:
        for kind in ("chue", "oe"):
            code = cli.main(["gap", "--kind", kind, "--family", "gauss", "--n", "3", "--s", s])
            assert code == 2
            assert "empty interval" in capsys.readouterr().err

    def test_oe_cauchy_is_the_odd_engine_bit_for_bit(self, capsys) -> None:
        # 2a + 2 rounds at a = 0.65; the table reads w1 itself, so the CLI
        # prints the bordered determinant on w1 and on no rounded weight
        code, text = run(capsys, "gap", "--kind", "oe", "--family", "cauchy", "--a", "0.65",
                         "--n", "3", "--s", "0.8")
        assert code == 0
        w1 = gap.make_weight("cauchy", 0.65)
        on_w1 = gap._odd_gap(gap._odd_parts(w1, 3, 0.8), (-0.8, 0.8), "direct").coeffs
        assert json.loads(text)["coeffs"] == on_w1.tolist()
        assert on_w1.tolist() == gap.gap_oe_odd_exact(w1, 3, 0.8).coeffs.tolist()

    def test_oe_cauchy_a065_is_unchanged(self, capsys) -> None:
        # reference bits of the bordered determinant at a = 0.65, n = 3,
        # s = 0.8: a law of finite mass, where 2a + 2 rounds
        code, text = run(capsys, "gap", "--kind", "oe", "--family", "cauchy", "--a", "0.65",
                         "--n", "3", "--s", "0.8")
        assert code == 0
        want = ["0x1.8333580105b67p-3", "0x1.3bbd66d48fb6ap-1", "0x1.87cf413dd8f55p-3",
                "0x1.81f2dbb89e84dp-9"]
        assert json.loads(text)["coeffs"] == [float.fromhex(c) for c in want]

    @pytest.mark.parametrize("a", ["0.3", "0.35", "0.45"])
    def test_oe_without_finite_mass(self, capsys, a: str) -> None:
        # odd n: the exact table refuses the law as an engine error, naming
        # the missing mass; even n: no row, so the Monte Carlo spec refuses it
        base = ["gap", "--kind", "oe", "--family", "cauchy", "--a", a, "--s", "0.8"]
        assert cli.main([*base, "--n", "3"]) == 3
        err = capsys.readouterr().err
        assert "MomentDivergence" in err and "has no finite mass" in err
        assert cli.main([*base, "--n", "4", "--count", "100", "--workers", "1"]) == 2
        assert "has no finite mass" in capsys.readouterr().err

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

    def test_thm_gap_jacobi_negative_exponent_passes(self, capsys) -> None:
        # two exact engines at a = -1/4, where (1 - x^2)^(2a+1) has a
        # non-integer exponent; they agree to far below the 1e-8 gate
        code, _ = run(
            capsys, "verify", "thm_gap", "--family", "jacobi", "--a", "-0.25", "--n", "3",
            "--s", "0.5",
        )
        assert code == 0

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
        # every registry token has a profile row, and every row names a token
        covered = {token for token, _ in cli._PROFILE}
        assert covered == set(cli.IDENTITIES)

    def test_quick_profile_never_calls_metropolis(self, monkeypatch) -> None:
        # every row of `verify all --quick` samples from exact routes only
        from rmtdec import gap, samplers

        def no_metropolis(*args, **kwargs):
            raise AssertionError("Metropolis was called")

        # gap draws through samplers and holds no Metropolis entry of its own
        assert not hasattr(gap, "sample_mcmc")
        monkeypatch.setattr(samplers, "sample_mcmc", no_metropolis)
        jobs = cli._jobs(cli.RunConfig("verify", identity="all", quick=True, workers=1))
        for token, config in jobs:
            rep = cli._run_identity(token, config)
            assert rep.passed, f"{token}: {rep.table()}"

    QUICK_ROWS = [
        ("recurrence", {"family": "gauss", "a": None, "max_order": 8}),
        ("recurrence", {"family": "jacobi", "a": 0.5, "max_order": 8}),
        ("recurrence", {"family": "cauchy", "a": 2.0, "max_order": 8}),
        ("dixon_anderson", {"family": "gauss", "a": None, "m": 2, "mu": 0, "seed": 0}),
        ("dixon_anderson", {"family": "jacobi", "a": 0.0, "m": 1, "mu": 1, "seed": 0}),
        ("thm1", {"family": "gauss", "a": None, "n": 3, "count": 20000, "seed": 0}),
        ("cor1", {"family": "gauss", "a": None, "n": 2, "count": 20000, "seed": 0,
                  "variant": "super"}),
        ("eq117", {"family": "gauss", "a": None, "n": 3, "count": 20000, "seed": 0,
                   "variant": "chiral"}),
        ("thm_gap", {"family": "gauss", "a": None, "n": 3, "k": 0, "s": 1.0, "count": 20000,
                     "seed": 0}),
        ("thm_gap", {"family": "gauss", "a": None, "n": 2, "k": 0, "s": 1.0, "count": 20000,
                     "seed": 0}),
        ("b1", {"family": "gauss", "a": None, "n": 3, "s": 1.0}),
        ("eq24", {"pair": "laguerre", "n": 2, "k": [0, 1], "s": [0.7], "count": 20000,
                  "seed": 0}),
        ("eq24cp", {"pair": "gauss", "n": 2, "k": [0, 1], "s": [0.6], "side": "left",
                    "count": 20000, "seed": 0}),
        ("eq831p", {"n": 2, "k": [0, 1], "theta": 1.2, "count": 20000, "seed": 0}),
        ("thmCE", {"n": 2, "count": 20000, "seed": 0, "nu": 1}),
        ("thmD4", {"n": 2, "k": [0, 1], "theta": 1.2, "count": 20000, "seed": 0}),
        ("q_odd", {"family": "gauss", "a": None, "n": 2, "count": 10000, "seed": 0}),
    ]

    def test_quick_profile_rows_are_pinned(self, capsys, tmp_path: Path) -> None:
        # an edit to the profile cannot drop or change a row silently
        out = tmp_path / "all.json"
        code = cli.main(["verify", "all", "--quick", "--seed", "0", "--workers", "1",
                         "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())["reports"]
        assert [(r["identity"], r["parameters"]) for r in reports] == self.QUICK_ROWS

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_verify_all_rejects_per_run_flags(
        self, capsys, tmp_path: Path, source: str
    ) -> None:
        out = tmp_path / "all.json"
        argv = ["verify", "all", "--quick", "--out", str(out)]
        if source == "flag":
            argv += ["--count", "5"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("count = 5\nseed = 3\n")
            argv += ["--config", str(cfg)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "--count" in captured.err
        assert "recurrence" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,recorded",
        [
            (["eq24", "--family", "jacobi", "--a", "{a}"], {"a"}),
            (["eq24cp", "--family", "laguerre", "--a", "{a}"], {"a"}),
            (["eq24cp", "--family", "jacobi", "--a", "{a}", "--b", "1.5"], {"a", "b"}),
        ],
    )
    def test_pair_exponents_are_recorded(
        self, capsys, tmp_path: Path, argv: list[str], recorded: set[str]
    ) -> None:
        params = []
        for a in ("0.5", "2.0"):
            out = tmp_path / f"rep{a}.json"
            cli.main(["verify", *(v.format(a=a) for v in argv), "--n", "2", "--k", "0",
                      "--s", "0.5", "--count", "400", "--seed", "3", "--out", str(out)])
            params.append(json.loads(out.read_text())["reports"][0]["parameters"])
        assert params[0]["a"] == 0.5 and params[1]["a"] == 2.0
        assert recorded <= params[0].keys()
        assert {k: v for k, v in params[0].items() if k != "a"} == {
            k: v for k, v in params[1].items() if k != "a"
        }

    @pytest.mark.parametrize("configs", ["0", "-3"])
    def test_dixon_anderson_without_configs_exits_2(
        self, capsys, tmp_path: Path, configs: str
    ) -> None:
        out = tmp_path / "rep.json"
        code = cli.main(["verify", "dixon_anderson", "--family", "gauss",
                         "--configs", configs, "--out", str(out)])
        assert code == 2
        assert "configs must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["thmD4", "--n", "2", "--k", "-1", "--theta", "1.2"],
            ["thm_gap", "--family", "gauss", "--n", "3", "--k", "-1", "--s", "1.0"],
            ["eq24", "--family", "laguerre", "--n", "2", "--k", "0", "-1", "--s", "0.7"],
            ["eq831p", "--n", "2", "--k", "-2", "--theta", "1.2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_k_exits_2(self, capsys, tmp_path: Path, argv: list[str]) -> None:
        out = tmp_path / "rep.json"
        code = cli.main(["verify", *argv, "--count", "100", "--out", str(out)])
        assert code == 2
        assert "k must be one or more counts >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_help_lists_every_token_with_its_summary(self, capsys) -> None:
        assert cli.main(["verify", "--help"]) == 0
        text = capsys.readouterr().out
        for token, entry in cli.IDENTITIES.items():
            assert f"  {token:<15} {entry.summary}" in text

    def test_readme_identity_table_matches_registry(self) -> None:
        readme = Path(__file__).resolve().parent.parent / "README.md"
        lines = readme.read_text().splitlines()
        start = lines.index("| token | checks |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("| `"):
                break
            token, summary = (cell.strip() for cell in line.strip("|").split("|", 1))
            rows.append((token.strip("`"), summary))
        assert rows == [(token, e.summary) for token, e in cli.IDENTITIES.items()]


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

    @pytest.mark.parametrize("env", ["0", "-3"])
    def test_env_nonpositive(self, capsys, monkeypatch, env: str) -> None:
        monkeypatch.setenv("RMTDEC_WORKERS", env)
        with pytest.raises(BadParameter):
            cli._default_workers()
        code, _ = run(capsys, "gap", "--kind", "cue", "--n", "2", "--theta", "1.0")
        assert code == 2

    def test_flag_overrides_env(self, monkeypatch) -> None:
        monkeypatch.setenv("RMTDEC_WORKERS", "7")
        parser = cli.build_parser()
        args = parser.parse_args(["gap", "--kind", "cue", "--theta", "1.0", "--workers", "3"])
        assert cli._to_config(args).workers == 3


class TestSeedRange:
    COMMANDS = {
        "sample": ["sample", "--kind", "oe", "--family", "gauss", "--n", "2", "--count", "10"],
        "gap_mc": ["gap", "--kind", "oe", "--family", "gauss", "--n", "2", "--s", "0.5",
                   "--count", "10"],
        "verify_thm1": ["verify", "thm1", "--family", "gauss", "--n", "2", "--count", "10"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_exits_2(self, capsys, tmp_path: Path, command: str, seed: str) -> None:
        out = tmp_path / "out"
        code = cli.main([*self.COMMANDS[command], "--seed", seed, "--out", str(out)])
        assert code == 2
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_verify_all_checks_seed_up_front(self, capsys, seed: str) -> None:
        code = cli.main(["verify", "all", "--quick", "--seed", seed])
        assert code == 2
        captured = capsys.readouterr()
        assert "seed must lie in [0, 2**64)" in captured.err
        assert "recurrence" not in captured.out

    def test_largest_seed_is_recorded(self, capsys, tmp_path: Path) -> None:
        out = tmp_path / "s.csv"
        top = str(2**64 - 1)
        code = cli.main([*self.COMMANDS["sample"], "--seed", top, "--out", str(out)])
        assert code == 0
        assert f" seed={top} " in out.read_text().splitlines()[0]


class TestColdImport:
    def test_scipy_stats_is_not_imported(self) -> None:
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, rmtdec, rmtdec.cli; print('scipy.stats' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_scipy_is_not_imported(self) -> None:
        # scipy.special loads at the first call that needs it
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, rmtdec; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestArgparsePlumbing:
    def test_help_exits_zero(self, capsys) -> None:
        assert cli.main(["--help"]) == 0

    def test_python_dash_m(self) -> None:
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "rmtdec", "gap", "--kind", "cue", "--n", "3", "--theta", "1.2"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        coeffs = json.loads(done.stdout)["coeffs"]
        assert len(coeffs) == 4 and min(coeffs) >= 0.0
        assert sum(coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_no_command_is_config_error(self, capsys) -> None:
        assert cli.main([]) == 2

    def test_run_config_validation(self) -> None:
        with pytest.raises(BadParameter):
            cli.RunConfig(command="gap", interval=(1.0, -1.0))
        with pytest.raises(BadParameter):
            cli.RunConfig(command="gap", format="yaml")
        with pytest.raises(BadParameter):
            cli.RunConfig(command="gap", workers=0)
