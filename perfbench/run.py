"""gradedhs benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick [--workload NAME] [--trace 0|1]

Workloads: verify, ops, chain (gradedhs commands, each run in a fresh
process) and apply (H1 applied matrix-free at L = 16).  A run repeats
whole passes of its workload for about S seconds, checks every output, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 each pass is run once untraced and once traced, and
the metrics are the per-layer ones.  --quick runs each workload once with
every check and prints one such line per workload.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

from calibrate import KERNELS, HostSpeed
from common import (
    CHILD,
    ROOT,
    import_program,
    median,
    pin_cpu,
    pin_environment,
    program_present,
    run_child,
)

WORKLOADS = ("verify", "ops", "chain", "apply")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: fresh processes timed for set-up, per workload kind
SETUP_SPAWNS_CLI = 7
SETUP_SPAWNS_APPLY = 3

#: layers reported as call counts and microseconds per call
COUNTED = ("rmatrix.build_r", "rmatrix.build_r_normalized", "rmatrix.build_f_derivative",
           "gradedcore.embed_local", "gradedcore.super_multiply")


def _per_layer_units() -> dict[str, str]:
    from tracing import VERIFY_CHECKS

    units = {}
    for fn in COUNTED:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.us"] = "us"
    for check in VERIFY_CHECKS:
        units[f"verify.{check}.s"] = "s"
    units.update({
        "gradedcore.embed_realized.calls": "count",
        "gradedcore.embed_realized.s": "s",
        "gradedcore.embed_realized.distinct_ratio": "ratio",
        "qmrops.commutator_eval.s_per_probe": "s",
        "qmrops.f_identity_residual.s": "s",
        "chain.hamiltonian_h1.s": "s",
        "chain.hamiltonian_h2.s": "s",
        "gradedcore.from_terms.s": "s",
        "gradedcore.commutator_norm.s": "s",
        "chain.spectrum.s": "s",
        "chain.nonrelativistic_limit_h1.s": "s",
        "chain.save_operator_binary.s": "s",
        "chain.save_operator_binary.bytes": "B",
        "gradedcore.apply.s": "s",
        "gradedcore.apply.factor_applies": "count",
        "gradedcore.apply.ns_per_amp_factor": "ns",
        "gradedcore.apply.plan_build_s": "s",
        "gradedcore.factor.ns_per_amp.far": "ns",
        "gradedcore.factor.ns_per_amp.near": "ns",
        "gradedcore.term.s": "s",
        "ref.multiply.ns_per_amp": "ns",
        "cli.main.s": "s",
        "trace.overhead_s": "s",
    })
    return units


class Run:
    """Attempted/failed counts, check failures and metric samples of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def absorb(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def result(self, units: dict[str, str]) -> dict:
        metrics = {
            name: {"value": median(self.samples.get(name, [0.0])), "unit": unit}
            for name, unit in units.items()
        }
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _keep_going(passes: int, min_passes: int, elapsed: float, seconds: float, quick: bool) -> bool:
    """Another whole pass, unless it would end more than half a pass late."""
    if passes < min_passes:
        return True
    if quick:
        return False
    return elapsed + 0.5 * elapsed / passes < seconds


# ---------------------------------------------------------------------------
# command-line workloads
# ---------------------------------------------------------------------------


def _cli_setup(run: Run) -> None:
    """Interpreter start and package import, as every command pays it."""
    speed = HostSpeed(KERNELS["setup"])
    for _ in range(SETUP_SPAWNS_CLI):
        child = run_child([sys.executable, "-c", "import gradedhs.cli"])
        if child.code != 0:
            raise RuntimeError("importing gradedhs.cli failed")
        run.sample("wall:setup_s", child.wall_s)
        speed.read()
    run.sample("setup_s", speed.corrected(median(run.samples["wall:setup_s"])))


def _span_metrics(run: Run, traces: list[dict]) -> None:
    """Per-layer samples for one traced pass (its commands' spans summed)."""
    spans: dict[str, list[float]] = {}
    distinct: dict[str, int] = {}
    counters: dict[str, float] = {}
    for tr in traces:
        for name, st in tr["spans"].items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += st["calls"]
            acc[1] += st["s"]
        for name, k in tr["distinct"].items():
            distinct[name] = distinct.get(name, 0) + k
        for name, v in tr["counters"].items():
            counters[name] = counters.get(name, 0.0) + v
    calls = lambda n: spans.get(n, [0, 0.0])[0]
    secs = lambda n: spans.get(n, [0, 0.0])[1]
    per_call = lambda n: secs(n) / calls(n) if calls(n) else 0.0
    for fn in COUNTED:
        run.sample(f"{fn}.calls", calls(fn))
        run.sample(f"{fn}.us", per_call(fn) * 1e6)
    for name in spans:
        if name.startswith(("verify.", "chain.")) or name in (
            "gradedcore.embed_realized", "qmrops.f_identity_residual",
            "gradedcore.from_terms", "gradedcore.commutator_norm",
        ):
            run.sample(f"{name}.s", secs(name))
    er = "gradedcore.embed_realized"
    run.sample(f"{er}.calls", calls(er))
    run.sample(f"{er}.distinct_ratio", distinct.get(er, 0) / calls(er) if calls(er) else 0.0)
    run.sample("qmrops.commutator_eval.s_per_probe", per_call("qmrops.commutator_eval"))
    for name, v in counters.items():
        run.sample(name, v)


def run_cli(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Run:
    from workloads import make_cli

    wl = make_cli(name, seed)
    run = Run()
    if not trace:
        _cli_setup(run)
    run.problems.extend(wl.run_problems())
    first_reports: dict[str, bytes] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-out-", dir=ROOT) as tmp:
        def execute(label, args, prefix):
            outdir = Path(tmp) / label
            shutil.rmtree(outdir, ignore_errors=True)
            outdir.mkdir()
            child = run_child(prefix + args + ["--out", str(outdir)], capture=bool(trace))
            outcome = wl.check(label, outdir, child.code if not trace else child.last_json()["code"])
            run.absorb(outcome)
            report = (outdir / wl.report).read_bytes()
            if first_reports.setdefault(label, report) != report:
                run.problems.append(f"{label}: report bytes differ between runs with the same seed")
            return child

        speed = None if trace else HostSpeed(KERNELS[name])
        passes, start = 0, time.perf_counter()
        while True:
            if trace:
                plain, traced = [], []
                for label, args in wl.commands():
                    plain.append(execute(label, args, [sys.executable, CHILD, "cli", "0"]).last_json())
                    traced.append(execute(label, args, [sys.executable, CHILD, "cli", "1"]).last_json())
                main_plain = sum(c["main_s"] for c in plain)
                run.sample("cli.main.s", main_plain)
                run.sample("trace.overhead_s", sum(c["main_s"] for c in traced) - main_plain)
                _span_metrics(run, [c["trace"] for c in traced])
            else:
                walls, rss = [], []
                for label, args in wl.commands():
                    child = execute(label, args, [sys.executable, "-m", "gradedhs.cli"])
                    walls.append(child.wall_s)
                    run.sample(f"command:{label}", child.wall_s)
                    speed.read()
                    rss.append(child.maxrss_kb)
                run.sample("wall:run_s", sum(walls))
                run.sample("peak_rss_mb", max(rss) / 1024.0)
            passes += 1
            if not _keep_going(passes, wl.min_passes, time.perf_counter() - start, seconds, quick):
                break
    if not trace:
        # one pass: each command's median over the run, summed
        run.sample("run_s", speed.corrected(sum(median(run.samples[f"command:{label}"])
                                                for label, _ in wl.commands())))
        run.samples["host_speed"] = speed.readings
    for note in wl.notes():
        print(note)
    return run


# ---------------------------------------------------------------------------
# matrix-free apply
# ---------------------------------------------------------------------------


def _timed(fn, reps: int) -> float:
    """Median wall time of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def _apply_layers(run: Run, setup) -> None:
    """Single-layer timings of the apply engine, through its public API."""
    import numpy as np

    g, spec, L = setup.g, setup.spec, setup.L
    d = spec.dim.n ** L
    state = setup.states[2]
    fresh = g.hamiltonian_h1(spec, L)
    t0 = time.perf_counter()
    g.apply(fresh, state)
    first = time.perf_counter() - t0
    run.sample("gradedcore.apply.plan_build_s", first - _timed(lambda: g.apply(fresh, state), 2))
    x = np.arange(1, L + 1) / L
    rb = g.build_r_normalized(spec, x[0] - x[1])
    for label, sites in (("far", (1, 2)), ("near", (L - 1, L))):
        op = g.embed(rb, sites, L)
        g.apply(op, state)
        run.sample(f"gradedcore.factor.ns_per_amp.{label}",
                   _timed(lambda: g.apply(op, state), 15) / d * 1e9)
    longest = max(setup.h1.terms, key=lambda t: len(t.factors))
    term_op = g.ChainOperator(spec.dim, L, terms=(longest,))
    g.apply(term_op, state)
    run.sample("gradedcore.term.s", _timed(lambda: g.apply(term_op, state), 5))
    a = state.amplitudes.copy()
    b, c = a[::-1].copy(), np.empty_like(a)
    run.sample("ref.multiply.ns_per_amp", _timed(lambda: np.multiply(a, b, out=c), 200) / d * 1e9)


def run_apply(seed: int, seconds: float, trace: bool, quick: bool) -> Run:
    from tracing import Tracer
    from workloads import ApplySetup

    run = Run()
    if not trace:
        speed = HostSpeed(KERNELS["apply-setup"])
        for _ in range(SETUP_SPAWNS_APPLY):
            child = run_child([sys.executable, CHILD, "apply-setup"])
            if child.code != 0:
                raise RuntimeError("apply set-up failed")
            run.sample("wall:setup_s", child.wall_s)
            speed.read()
        run.sample("setup_s", speed.corrected(median(run.samples["wall:setup_s"])))
    setup = ApplySetup.build(seed)
    tracer = Tracer()
    traced_apply = tracer.span("gradedcore.apply", setup.g.apply)
    speed = None if trace else HostSpeed(KERNELS["apply"])
    passes, start = 0, time.perf_counter()
    while True:
        outs, plain = setup.run_pass(between=None if trace else speed.read)
        run.absorb(setup.check(outs))
        if trace:
            outs, busy = setup.run_pass(traced_apply)
            run.sample("trace.overhead_s", busy - plain)
            run.absorb(setup.check(outs))
        else:
            run.sample("wall:run_s", plain)
        passes += 1
        if not _keep_going(passes, 1, time.perf_counter() - start, seconds, quick):
            break
    if trace:
        calls, total = tracer.stats["gradedcore.apply"]
        per_apply = total / calls
        n_fac = setup.factor_applies()
        run.sample("gradedcore.apply.s", per_apply)
        run.sample("gradedcore.apply.factor_applies", n_fac)
        run.sample("gradedcore.apply.ns_per_amp_factor",
                   per_apply / (n_fac * setup.spec.dim.n ** setup.L) * 1e9)
        _apply_layers(run, setup)
    else:
        run.sample("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        run.sample("run_s", speed.corrected(median(run.samples["wall:run_s"])))
        run.samples["host_speed"] = speed.readings
    return run


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    if name == "apply":
        run = run_apply(seed, seconds, trace, quick)
    else:
        run = run_cli(name, seed, seconds, trace, quick)
    for problem in run.problems:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    for metric, values in run.samples.items():
        if metric in ("run_s", "setup_s", "host_speed") or metric.startswith(("command:", "wall:")):
            print(f"{name}: {metric} samples " + " ".join(f"{v:.4f}" for v in values))
    return run.result(_per_layer_units() if trace else END_TO_END)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass of each workload (or of --workload) with every check")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if not program_present():
        print(f"error: no gradedhs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    pin_cpu()
    import_program()
    names = [args.workload] if args.workload else list(WORKLOADS)
    if not args.quick:
        names = names[:1]
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick)
        if args.quick:
            result = {"workload": name, **result}
            ok &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
