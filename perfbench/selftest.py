"""Smoke mode: every workload at minimal size, then the checks on bad answers.

A check that cannot fail proves nothing, so each check is fed one
deliberately perturbed answer and must report a problem.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from rmtdec import gap
from rmtdec.weights import cauchy_weight, gauss_weight, jacobi_weight

import checks
import workloads


def _negative_cases() -> dict[str, list[str]]:
    """Each entry must come back with at least one problem."""
    g = gauss_weight()
    ue = gap.gap_ue_exact(g, 4, (-1.0, 1.0)).coeffs
    shifted = ue.copy()
    shifted[1] += 1e-6
    c0 = gap.gap_chue_exact(g, 0, 2, 1.0).coeffs
    c1 = gap.gap_chue_exact(g, 1, 2, 1.0).coeffs
    one = gap.gap_ue_exact(cauchy_weight(2.0), 1, (-0.4, 0.9)).coeffs
    oe3 = gap.gap_oe_odd_exact(jacobi_weight(0.5), 3, 0.5).coeffs
    rows = np.sort(np.random.default_rng(1).standard_normal((200, 4)), axis=1)
    swapped = rows.copy()
    swapped[7, [1, 2]] = swapped[7, [2, 1]]
    nudged = rows.copy()
    nudged[3, 0] = np.nextafter(nudged[3, 0], math.inf)
    cue = gap.gap_cue_exact(3, 1.0).coeffs
    angles = np.sort(np.random.default_rng(2).uniform(-math.pi, math.pi, (4000, 3)), axis=1)
    report = {"passed": True, "reports": [{"identity": "b1", "pass": True, "subtests": [
        {"name": "mode_agreement", "pass": True}]}] * 2}
    failing = json.loads(json.dumps(report))
    failing["reports"][1]["subtests"][0]["pass"] = False
    failing["reports"][1]["pass"] = False
    return {
        "simplex: gap vector shifted by 1e-6": checks.simplex("ue", shifted),
        "closed form: UE n=1 shifted by 1e-6": checks.close(
            "ue1", one + [1e-6, -1e-6], checks.ue_one_point("cauchy", 2.0, -0.4, 0.9),
            checks.CLOSED_FORM_TOL,
        ),
        "decomposition: UE gap vector shifted by 1e-6": checks.unitary_decomposition(
            "ue4", shifted, c0, c1
        ),
        "direct vs Gaudin: one mode shifted by 1e-6": checks.close(
            "oe3", oe3, oe3 + [0, 1e-6, 0, -1e-6], checks.MODE_TOL
        ),
        "sorted rows: two values swapped": checks.sorted_rows("batch", swapped),
        "round trip: one value one ulp off": checks.bit_exact("csv", rows, nudged),
        "count distribution: uniform angles against CUE gaps": checks.count_distribution(
            "cue", angles, -1.0, 1.0, cue
        ),
        "verify report: one failing subtest": checks.verify_payload(
            "verify", 0, json.dumps(failing), 2
        ),
        "verify report: a missing report": checks.verify_payload(
            "verify", 0, json.dumps(report), 3
        ),
        "verify report: exit code 1": checks.verify_payload("verify", 1, json.dumps(report), 2),
    }


def main(out: Path) -> int:
    ok = True
    workdir = out / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        minimal = {
            "verify-quick": workloads.VerifyQuick(
                workdir, argv=["verify", "b1", "--family", "gauss", "--n", "3", "--s", "1.0"],
                rows=1,
            ),
            "exact-gaps-io": workloads.ExactGapsIO(workdir, count=400),
        }
        for name, workload in minimal.items():
            t0 = time.perf_counter()
            workload.warm_up()
            phase = workloads.Phase(0, 0)
            phase.run_pass(workload)
            # the only failure is the known brute-force fault in the gap table
            want_failed = 1 if name == "exact-gaps-io" else 0
            good = not phase.problems and phase.failed == want_failed
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name}: {phase.attempted} attempted, "
                  f"{phase.failed} failed, {len(phase.problems)} check problems, "
                  f"{time.perf_counter() - t0:.2f} s")
            for line in phase.problems:
                print(f"     {line}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, problems in _negative_cases().items():
        good = bool(problems)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} check rejects {label}")
    print("smoke: " + ("all self-tests passed" if ok else "SELF-TEST FAILURES"))
    return 0 if ok else 1
