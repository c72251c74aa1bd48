"""The benchmark's traced mode (``perfbench/run.py --trace 1``) wraps
program functions at the names their callers look up, some of which exist
only for it; this checks that every such name is still there and comes
back after the trace."""

import importlib.util
from pathlib import Path

import gradedhs
import gradedhs.cli  # noqa: F401  (binds gradedhs.cli)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_and_restores_every_name():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.instrument_program(tracer, gradedhs)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
