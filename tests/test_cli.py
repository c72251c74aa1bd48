import json
import re
import shlex
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from gradedhs import DENSE_SITE_CAP, PoleError, SiteConfig, cli, qmrops
from gradedhs.cli import (
    RunConfig,
    _build_parser,
    _config_from_args,
    _draw_case,
    _draw_positions,
    _ops_plan,
    _specs,
    _spread_etas,
    main,
)
from gradedhs.verify import config_digest, mutated_r_builder


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return main(args)


def test_verify_small_battery_passes(tmp_path, monkeypatch):
    code = run_cli(
        ["verify", "--family", "all", "--nm", "1,1", "--samples", "3", "--seed", "7"],
        tmp_path,
        monkeypatch,
    )
    assert code == 0
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert doc["seed"] == 7
    assert all(r["verdict"] == "pass" for r in doc["results"])


def test_verify_rejects_empty_dimension(tmp_path, monkeypatch):
    assert run_cli(["verify", "--nm", "0,0"], tmp_path, monkeypatch) == 2


def test_verify_rejects_integer_hbar(tmp_path, monkeypatch):
    assert run_cli(["verify", "--nm", "1,1", "--hbar", "2"], tmp_path, monkeypatch) == 2


@pytest.mark.parametrize("command, flag", [
    (["verify", "--nm", "1,1", "--samples", "2"], "--hbar"),
    (["ops", "--nm", "1,1", "--L", "3"], "--hbar"),
    (["ops", "--nm", "1,1", "--L", "3"], "--eta"),
    (["chain", "--nm", "1,1", "--L", "3"], "--hbar"),
])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0.3+infj", "0.3+nanj"])
def test_non_finite_hbar_or_eta_is_a_usage_error(command, flag, value, tmp_path, monkeypatch,
                                                 capsys):
    # these once died with OverflowError or ValueError tracebacks (exit 1),
    # or wrote a verify report of FAIL rows as if identities had failed
    assert run_cli(command + [f"{flag}={value}"], tmp_path, monkeypatch) == 2
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_reports_are_seed_deterministic(tmp_path, monkeypatch):
    args = ["verify", "--nm", "1,1", "--family", "uq", "--samples", "3", "--seed", "11"]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert run_cli(args + ["--out", str(tmp_path / "a")], tmp_path, monkeypatch) == 0
    assert run_cli(args + ["--out", str(tmp_path / "b")], tmp_path, monkeypatch) == 0
    assert (tmp_path / "a/verify_report.json").read_bytes() == (
        tmp_path / "b/verify_report.json"
    ).read_bytes()


def test_verify_tightened_tolerance_fails(tmp_path, monkeypatch):
    code = run_cli(
        ["verify", "--nm", "1,1", "--samples", "2", "--tolerance", "qybe=1e-30"],
        tmp_path,
        monkeypatch,
    )
    assert code == 1


@pytest.mark.parametrize("args", [
    ["verify", "--nm", "1,1", "--samples", "2", "--tolerance", "qybe=-1"],
    ["verify", "--nm", "1,1", "--samples", "2", "--tolerance", "qybe=nan"],
    ["verify", "--nm", "1,1", "--samples", "2", "--tolerance", "qyb=1e-30"],
    ["ops", "--nm", "1,1", "--L", "3", "--tolerance", "commute=nan"],
    ["chain", "--nm", "1,1", "--L", "3", "--tolerance", "commute=-1"],
    ["chain", "--nm", "1,1", "--L", "3", "--tolerance", "commute=inf"],
    ["chain", "--nm", "1,1", "--L", "3", "--tolerance", "f_identity=1e-3"],
])
def test_unusable_tolerance_is_a_usage_error(args, tmp_path, monkeypatch, capsys):
    assert run_cli(args, tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err
    assert "--tolerance" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_tolerance_names_the_valid_gates(tmp_path, monkeypatch, capsys):
    assert run_cli(["ops", "--tolerance", "comute=1e-3"], tmp_path, monkeypatch) == 2
    assert "valid gates: f_identity, commute" in capsys.readouterr().err


def test_command_gates_are_the_report_defaults(tmp_path, monkeypatch):
    # the rows report the table's defaults; a user value replaces only its gate
    args = ["ops", "--family", "uq", "--nm", "1,1", "--L", "3", "--samples", "1"]
    assert run_cli(args + ["--tolerance", "commute=1e-3"], tmp_path, monkeypatch) == 0
    rows = json.loads((tmp_path / "ops_report.json").read_text())["results"]
    tols = {r["check"]: r["tolerance"] for r in rows}
    assert tols == {"f_identity": cli.GATES["ops"]["f_identity"], "commute": 1e-3}


def test_ops_rejects_a_repeated_order(tmp_path, monkeypatch, capsys):
    args = ["ops", "--nm", "1,1", "--L", "3", "--k", "1,1,2"]
    assert run_cli(args, tmp_path, monkeypatch) == 2
    assert "--k repeats" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ops_command(tmp_path, monkeypatch):
    code = run_cli(
        ["ops", "--family", "zn", "--nm", "1,1", "--L", "3", "--samples", "2", "--seed", "3"],
        tmp_path,
        monkeypatch,
    )
    assert code == 0
    doc = json.loads((tmp_path / "ops_report.json").read_text())
    checks = {r["check"] for r in doc["results"]}
    assert checks == {"f_identity", "commute"}
    assert all(r["verdict"] == "pass" for r in doc["results"])


def test_ops_scalar_reduction_path(tmp_path, monkeypatch):
    code = run_cli(
        ["ops", "--family", "uq", "--nm", "1,0", "--L", "3", "--samples", "1"],
        tmp_path,
        monkeypatch,
    )
    assert code == 0


def test_chain_command_writes_files(tmp_path, monkeypatch):
    code = run_cli(
        [
            "chain",
            "--family",
            "uq",
            "--nm",
            "1,1",
            "--L",
            "3",
            "--hbar",
            "0.3",
            "--spectrum",
            "--limit",
            "hs",
            "--dump-matrix",
        ],
        tmp_path,
        monkeypatch,
    )
    assert code == 0
    doc = json.loads((tmp_path / "chain_report.json").read_text())
    row = doc["results"][0]
    assert row["verdict"] == "pass"
    assert row["h1_h2_commutator"] < 1e-10
    assert row["limit_max_deviation"] < 1e-5
    assert (tmp_path / "spectrum_h1_uq_1_1_L3.csv").exists()
    assert (tmp_path / "h1_uq_1_1_L3.bin").exists()


def test_bare_chain_runs_the_gradings_with_two_or_more_directions(tmp_path, capsys):
    # without --nm, chain skips the vacuous (1|0) of the default list
    assert main(["chain", "--out", str(tmp_path)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("PASS")]
    assert [row.split()[2] for row in rows] == [
        f"uq({n}|{m})" for n, m in ((2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2))
    ]
    doc = json.loads((tmp_path / "chain_report.json").read_text())
    assert [r["verdict"] for r in doc["results"]] == ["pass"] * 6


def test_chain_dense_cap_exceeded(tmp_path, monkeypatch):
    code = run_cli(
        ["chain", "--family", "uq", "--nm", "1,1", "--L", "20", "--spectrum"],
        tmp_path,
        monkeypatch,
    )
    assert code == 2


def test_chain_hbar_times_length_on_integer_exits_before_building(tmp_path, monkeypatch, capsys):
    # default hbar 0.3 at L = 10: x_i - x_j + hbar hits the pole lattice
    def build(*args, **kwargs):
        raise AssertionError("built a Hamiltonian")

    monkeypatch.setattr(cli.chain_mod, "hamiltonian_h1", build)
    assert run_cli(["chain", "--family", "uq", "--nm", "1,1", "--L", "10"], tmp_path,
                   monkeypatch) == 2
    assert "hbar * L" in capsys.readouterr().err
    assert run_cli(["chain", "--family", "zn", "--nm", "1,1", "--L", "5", "--hbar", "0.4"],
                   tmp_path, monkeypatch) == 2
    assert not (tmp_path / "chain_report.json").exists()


def test_chain_pole_error_exits_2(tmp_path, monkeypatch, capsys):
    def on_pole(*args, **kwargs):
        raise PoleError("z=1 is within 1e-12 of an integer")

    monkeypatch.setattr(cli.chain_mod, "hamiltonian_h1", on_pole)
    assert run_cli(["chain", "--family", "uq", "--nm", "1,1", "--L", "3"], tmp_path,
                   monkeypatch) == 2
    assert "error:" in capsys.readouterr().err


def test_chain_requires_single_family(tmp_path, monkeypatch):
    code = run_cli(["chain", "--family", "all", "--nm", "1,1", "--L", "3"], tmp_path, monkeypatch)
    assert code == 2


def test_run_config_round_trip():
    cfg = RunConfig(command="verify", dims=((1, 1), (2, 0)), hbar=0.3 + 0.1j, seed=5)
    doc = cfg.to_dict()
    back = RunConfig.from_dict(json.loads(json.dumps(doc)))
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()


def test_outdir_env_variable(tmp_path, monkeypatch):
    target = tmp_path / "reports"
    monkeypatch.setenv("GRADEDHS_OUTDIR", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--nm", "1,0", "--family", "uq", "--samples", "2"]) == 0
    assert (target / "verify_report.json").exists()


def test_chain_dense_cap_applies_without_spectrum(tmp_path, monkeypatch):
    code = run_cli(
        ["chain", "--family", "uq", "--nm", "1,1", "--L", "20"], tmp_path, monkeypatch
    )
    assert code == 2


def build_nothing(*args, **kwargs):
    raise AssertionError("built a Hamiltonian")


def test_chain_limit_without_target_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.chain_mod, "hamiltonian_h1", build_nothing)
    code = run_cli(
        ["chain", "--family", "zn", "--nm", "2,1", "--L", "3", "--limit", "aniso"],
        tmp_path,
        monkeypatch,
    )
    assert code == 2
    assert not (tmp_path / "chain_report.json").exists()


@pytest.mark.parametrize("family,limit,have", [("uq", "aniso", "hs"), ("zn", "hs", "aniso")])
def test_chain_limit_of_the_other_family_exits_before_building(
    tmp_path, monkeypatch, capsys, family, limit, have
):
    monkeypatch.setattr(cli.chain_mod, "hamiltonian_h1", build_nothing)
    code = run_cli(
        ["chain", "--family", family, "--nm", "1,1", "--L", "4", "--limit", limit],
        tmp_path,
        monkeypatch,
    )
    assert code == 2
    assert f"is {have!r}, not {limit!r}" in capsys.readouterr().err
    assert not (tmp_path / "chain_report.json").exists()


@pytest.mark.parametrize("nm,length,why", [
    ("1,1", "2", "H2 has no terms at L = 2"),  # [H1,H2] = 0 with H2 = 0
    ("1,0", "3", "(1|0) chain space has dimension 1"),  # H1 = H2 = 0 exactly
    ("0,1", "3", "(0|1) chain space has dimension 1"),
])
def test_chain_with_a_vacuous_commutator_exits_before_building(
    nm, length, why, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli.chain_mod, "hamiltonian_h1", build_nothing)
    code = run_cli(["chain", "--family", "uq", "--nm", nm, "--L", length], tmp_path, monkeypatch)
    assert code == 2
    assert why in capsys.readouterr().err
    assert not (tmp_path / "chain_report.json").exists()


@pytest.mark.parametrize(
    "nm,length,seed",
    # the first draw of each sat on the pole lattice at a second eta-step
    # or at a spread eta, which once crashed the command with a traceback
    [("1,1", 5, 178592536), ("2,1", 4, 67168915)],
)
def test_ops_draws_positions_valid_for_every_shift(nm, length, seed, tmp_path, monkeypatch):
    args = ["ops", "--family", "all", "--nm", nm, "--L", str(length), "--seed", str(seed),
            "--samples", "1"]
    assert run_cli(args, tmp_path, monkeypatch) == 0
    doc = json.loads((tmp_path / "ops_report.json").read_text())
    assert doc["results"] and all(r["verdict"] == "pass" for r in doc["results"])


def test_ops_rejects_order_beyond_length(tmp_path, monkeypatch, capsys):
    assert run_cli(["ops", "--L", "3", "--k", "5"], tmp_path, monkeypatch) == 2
    assert run_cli(["ops", "--L", "3", "--k", "0,1"], tmp_path, monkeypatch) == 2
    # order L checks nothing: its four-block products are empty, so the
    # f-identity defect is 0 by construction, and D_L, a total shift,
    # commutes with any D_k
    for k in ("3", "1,3"):
        for check in ("f-identity", "commute", "all"):
            args = ["ops", "--L", "3", "--k", k, "--check", check, "--nm", "2,1"]
            assert run_cli(args, tmp_path, monkeypatch) == 2
            assert "orders [3] out of range 1..2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ops_without_rows_is_config_error(tmp_path, monkeypatch):
    # a single order has no commutator pair
    args = ["ops", "--nm", "1,1", "--L", "3", "--k", "2", "--check", "commute"]
    assert run_cli(args, tmp_path, monkeypatch) == 2
    assert run_cli(["ops", "--nm", "1,1", "--L", "2", "--check", "commute"], tmp_path,
                   monkeypatch) == 2
    assert not (tmp_path / "ops_report.json").exists()


@pytest.mark.parametrize("check", ["f-identity", "all"])
def test_ops_f_identity_above_the_dense_cap_exits_2_before_any_work(
    check, tmp_path, monkeypatch, capsys
):
    # (2|2) at L = 12 once raised MemoryError (exit 1, the failed-identity
    # code) while allocating its n^L x n^L four-block products
    for name in ("f_identity_residual", "f_identity_eta_spread", "commutator_eval"):
        monkeypatch.setattr(cli, name, compute_nothing)
    args = ["ops", "--family", "uq", "--nm", "2,2", "--L", "12", "--k", "1,2", "--check", check]
    assert run_cli(args, tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err
    assert f"dimension {4 ** 12}" in err and f"dense cap {DENSE_SITE_CAP}" in err
    assert list(tmp_path.iterdir()) == []


def test_ops_commutator_above_the_dense_cap_still_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "commutator_eval", lambda *args, **kwargs: 0.0)
    args = ["ops", "--family", "uq", "--nm", "2,2", "--L", "7", "--check", "commute",
            "--samples", "1"]
    assert 4 ** 7 > DENSE_SITE_CAP
    assert run_cli(args, tmp_path, monkeypatch) == 0
    assert (tmp_path / "ops_report.json").exists()


def test_ops_pole_error_exits_2(tmp_path, monkeypatch, capsys):
    def on_pole(*args, **kwargs):
        raise PoleError("z=1 is within 1e-12 of an integer")

    monkeypatch.setattr(cli, "commutator_eval", on_pole)
    args = ["ops", "--nm", "1,1", "--L", "3", "--check", "commute"]
    assert run_cli(args, tmp_path, monkeypatch) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["verify", "--nm", "1,1"], ["ops", "--nm", "1,1", "--L", "3"], ["chain", "--nm", "1,1"]],
)
@pytest.mark.parametrize("samples", ["0", "-1", "-3"])
def test_samples_below_one_is_config_error(command, samples, tmp_path, monkeypatch, capsys):
    # --samples -1 once passed every sampled check with max_residual=-1
    assert run_cli(command + ["--samples", samples], tmp_path, monkeypatch) == 2
    assert "--samples" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("builder,failing", [("build_r_normalized", "commute"),
                                             ("build_r", "f_identity")])
def test_ops_exits_1_under_flipped_builder(builder, failing, tmp_path, monkeypatch):
    # (1, 2) is the e_12 (x) e_21 flip entry at (1|1)
    monkeypatch.setattr(qmrops, builder, mutated_r_builder(1, 2, base=getattr(qmrops, builder)))
    args = ["ops", "--family", "uq", "--nm", "1,1", "--L", "4", "--samples", "3", "--seed", "5"]
    assert run_cli(args, tmp_path, monkeypatch) == 1
    rows = json.loads((tmp_path / "ops_report.json").read_text())["results"]
    assert {r["check"] for r in rows if r["verdict"] == "fail"} == {failing}


def test_ops_reports_are_seed_deterministic(tmp_path, monkeypatch):
    args = ["ops", "--family", "uq", "--nm", "2,1", "--L", "3", "--samples", "2", "--seed", "4"]
    reports = []
    for _ in range(2):
        assert run_cli(args, tmp_path, monkeypatch) == 0
        reports.append((tmp_path / "ops_report.json").read_bytes())
    assert reports[0] == reports[1]


def _benchmark_ops_seeds(seed):
    # program seeds of the benchmark's ops cases, derived as in
    # perfbench/workloads.py (seed_rng, program_seed)
    rng = np.random.default_rng([seed, sum(map(ord, "ops"))])
    return [int(rng.integers(1, 2**31 - 1)) for _ in range(2)]


def test_ops_draws_valid_positions_for_benchmark_seeds():
    # draws only, no operator is evaluated
    cases = (("1,1", 5), ("2,1", 4))
    for seed in range(400):
        for (nm, length), prog_seed in zip(cases, _benchmark_ops_seeds(seed)):
            args = ["ops", "--family", "all", "--nm", nm, "--L", str(length),
                    "--seed", str(prog_seed)]
            cfg = _config_from_args(_build_parser().parse_args(args))
            _, pairs = _ops_plan(cfg)
            rng = np.random.default_rng(cfg.seed)
            specs = _specs(cfg)
            for spec in specs:
                # the last spec's probes come after every position draw
                site, _ = _draw_case(cfg, spec, pairs if spec != specs[-1] else [], rng)
                site.validate_shifts(2)
                for eta in _spread_etas(cfg.eta):
                    SiteConfig(length, site.z, eta, cfg.hbar)


def test_ops_positions_follow_the_loop_rule_for_benchmark_seeds():
    # the positions each benchmark ops case draws first, against the rule
    # SiteConfig applied tuple by tuple: every shifted difference keeps
    # 1e-3 from the integers
    eta, hbar = RunConfig("ops").eta, RunConfig("ops").hbar

    def loop_ok(z, eta, depth):
        return all(
            abs(v - round(v.real)) > 1e-3
            for i, j in permutations(range(len(z)), 2)
            for m in range(-depth, depth + 1)
            for v in (z[i] - z[j] + m * eta, z[i] - z[j] + m * eta + hbar)
        )

    for seed in range(400):
        for length, prog_seed in zip((5, 4), _benchmark_ops_seeds(seed)):
            rng, ref_rng = np.random.default_rng(prog_seed), np.random.default_rng(prog_seed)
            site = _draw_positions(length, eta, hbar, rng)
            while True:
                z = tuple(complex(ref_rng.uniform(0, 1), ref_rng.uniform(0.1, 0.4))
                          for _ in range(length))
                if loop_ok(z, eta, 2) and all(loop_ok(z, e, 1) for e in _spread_etas(eta)):
                    break
            assert site.z == z
            assert rng.uniform() == ref_rng.uniform()


def test_readme_examples_run(tmp_path, monkeypatch):
    # every `gradedhs ...` line of the README's sh blocks, continuation
    # lines joined, is a command the CLI accepts and passes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [
        shlex.split(line)[1:]
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("gradedhs ")
    ]
    assert {args[0] for args in commands} == {"verify", "ops", "chain"}
    for idx, args in enumerate(commands):
        out = tmp_path / str(idx)
        assert run_cli(args + ["--out", str(out)], tmp_path, monkeypatch) == 0, args


def compute_nothing(*args, **kwargs):
    raise AssertionError("computed before resolving the output directory")


SMALL_RUNS = {
    "verify": ["verify", "--nm", "1,1", "--samples", "1"],
    "ops": ["ops", "--nm", "1,1", "--L", "3"],
    "chain": ["chain", "--nm", "1,1", "--L", "3"],
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
@pytest.mark.parametrize("where", ["out at a file", "out under a file", "env at a file"])
def test_unusable_output_directory_is_a_usage_error_before_any_work(
    command, where, tmp_path, monkeypatch, capsys
):
    # these once ran the whole command and then died with FileExistsError
    # or NotADirectoryError tracebacks (exit 1)
    for name in ("run_battery", "f_identity_residual", "commutator_eval"):
        monkeypatch.setattr(cli, name, compute_nothing)
    monkeypatch.setattr(cli.chain_mod, "hamiltonian_h1", compute_nothing)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    args = list(SMALL_RUNS[command])
    if where == "env at a file":
        monkeypatch.setenv("GRADEDHS_OUTDIR", str(blocker))
    else:
        args += ["--out", str(blocker if where == "out at a file" else blocker / "sub")]
    assert run_cli(args, tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(blocker) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, extra, blocked", [
    ("verify", [], "verify_report.json"),
    ("ops", [], "ops_report.json"),
    ("chain", [], "chain_report.json"),
    ("chain", ["--spectrum"], "spectrum_h2_uq_1_1_L3.csv"),
    ("chain", ["--dump-matrix"], "h1_uq_1_1_L3.bin"),
])
def test_output_path_that_is_not_a_file_is_a_usage_error_before_any_work(
    command, extra, blocked, tmp_path, monkeypatch, capsys
):
    # an output path taken by a directory once cost the whole run, which
    # then died with an IsADirectoryError traceback (exit 1)
    for name in ("run_battery", "f_identity_residual", "commutator_eval"):
        monkeypatch.setattr(cli, name, compute_nothing)
    monkeypatch.setattr(cli.chain_mod, "hamiltonian_h1", compute_nothing)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    args = SMALL_RUNS[command] + extra + ["--out", str(out)]
    assert run_cli(args, tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(out / blocked) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("eta", ["0", "1", "2+0j", "-1", "1e-9"])
def test_integer_eta_is_a_usage_error(eta, tmp_path, monkeypatch, capsys):
    # an integer shift leaves the integer-frequency probes unchanged, so
    # every commutator once passed without checking anything
    code = run_cli(["ops", "--nm", "1,1", "--L", "3", f"--eta={eta}"], tmp_path, monkeypatch)
    assert code == 2
    assert "--eta" in capsys.readouterr().err
    assert not (tmp_path / "ops_report.json").exists()


def test_report_config_hash_is_the_digest_of_its_config(tmp_path, monkeypatch):
    for args in (SMALL_RUNS["ops"] + ["--k", "1,2"], SMALL_RUNS["chain"]):
        assert run_cli(args, tmp_path, monkeypatch) == 0
        doc = json.loads((tmp_path / f"{args[0]}_report.json").read_text(encoding="utf-8"))
        assert doc["config_hash"] == config_digest(doc["config"])
