"""Tests of the benchmark itself (not part of the package's test suite).

    python3 perfbench/test_perfbench.py        # or: python3 -m pytest perfbench

Runs every workload once in quick mode, untraced and traced, and checks
the result lines against BENCHMARK.json; checks that the commutator probe
catches a sign-flipped R-matrix entry; and checks that the benchmark
refuses to run without the program's sources.  Takes about three minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import import_program, pin_environment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: failed operations per quick pass: the two L = 7 limit verdicts (fault (a))
EXPECTED_FAILED = {"verify": 0, "ops": 0, "chain": 2, "apply": 0}

#: per-layer metrics that must be nonzero on each workload
REACHED = {
    "verify": ("rmatrix.build_r.calls", "gradedcore.embed_local.us",
               "gradedcore.super_multiply.calls", "verify.check_aybe.s", "cli.main.s"),
    "ops": ("gradedcore.embed_realized.calls", "gradedcore.embed_realized.distinct_ratio",
            "qmrops.commutator_eval.s_per_probe", "qmrops.f_identity_residual.s",
            "rmatrix.build_r_normalized.us"),
    "chain": ("chain.hamiltonian_h1.s", "chain.hamiltonian_h2.s", "gradedcore.from_terms.s",
              "chain.spectrum.s", "chain.nonrelativistic_limit_h1.s",
              "chain.save_operator_binary.bytes", "rmatrix.build_f_derivative.calls"),
    "apply": ("gradedcore.apply.s", "gradedcore.apply.ns_per_amp_factor",
              "gradedcore.apply.plan_build_s", "gradedcore.factor.ns_per_amp.far",
              "gradedcore.factor.ns_per_amp.near", "gradedcore.term.s",
              "ref.multiply.ns_per_amp"),
}


def _quick(trace: int) -> dict[str, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stderr
    lines = [json.loads(ln) for ln in out.stdout.splitlines() if ln.startswith("{")]
    return {line.pop("workload"): line for line in lines}


def _check_lines(results: dict[str, dict], metric_specs: list[dict]) -> None:
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    names = {m["name"]: m["unit"] for m in metric_specs}
    for workload, res in results.items():
        assert res["correct"], workload
        assert res["attempted"] >= 1
        per_pass = res["attempted"] // (2 if workload == "verify" else 1)
        if workload == "chain":
            assert res["failed"] * 15 == EXPECTED_FAILED["chain"] * per_pass, res
        else:
            assert res["failed"] == EXPECTED_FAILED[workload], (workload, res)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == names, workload


def test_quick_end_to_end():
    results = _quick(0)
    _check_lines(results, SPEC["end_to_end"])
    for workload, res in results.items():
        for name, metric in res["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_quick_traced():
    results = _quick(1)
    _check_lines(results, SPEC["per_layer"])
    for workload, names in REACHED.items():
        for name in names:
            assert results[workload]["metrics"][name]["value"] > 0, (workload, name)
    assert results["apply"]["metrics"]["gradedcore.apply.factor_applies"]["value"] == 1360


def test_commutator_probe_catches_flipped_entry():
    pin_environment()
    g = import_program()
    import numpy as np
    from workloads import COMMUTE_TOL

    spec = g.RMatrixSpec(g.RFamily.UQ_GLNM, g.GradedDim(1, 1), 0.3)
    site = g.SiteConfig(4, (0.11 + 0.2j, 0.37 + 0.3j, 0.62 + 0.15j, 0.86 + 0.35j), 0.17 + 0.05j, 0.3)
    probe = g.random_test_function(4, np.random.default_rng(5), dim=spec.dim)
    clean = g.commutator_eval(spec, site, 1, 2, probe)
    original = g.qmrops.build_r_normalized
    # (1, 2) is the e_12 (x) e_21 flip entry at (1|1)
    g.qmrops.build_r_normalized = g.mutated_r_builder(1, 2, base=original)
    try:
        broken = g.commutator_eval(spec, site, 1, 2, probe)
    finally:
        g.qmrops.build_r_normalized = original
    assert clean <= COMMUTE_TOL < broken, (clean, broken)


def test_refuses_without_program_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench-out-test-", dir=ROOT) as tmp:
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    assert out.returncode != 0
    assert not out.stdout.strip()


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}", flush=True)
