"""Child processes of the benchmark, each started from a fresh interpreter.

    python3 perfbench/child.py cli TRACE GRADEDHS_ARGS...
        Run the gradedhs command line in this process, traced when TRACE
        is 1, and print one JSON line: exit code, seconds inside main()
        and, when traced, the span summary.  The command's own console
        output is discarded.

    python3 perfbench/child.py apply-setup
        Import the package, build H1 for the apply workload and apply it
        once (which builds its factor plans), then exit.  The parent times
        this from spawn to exit as the apply workload's set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from common import import_program, pin_environment


def run_cli(trace: bool, argv: list[str]) -> dict:
    g = import_program()
    import gradedhs.cli  # noqa: F401  (binds g.cli)
    from tracing import Tracer, instrument_program

    tracer = Tracer()
    if trace:
        instrument_program(tracer, g)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = g.cli.main(argv)
            main_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    return {"code": code, "main_s": main_s, "trace": tracer.summary() if trace else None}


def main() -> int:
    pin_environment()
    if sys.argv[1] == "cli":
        print(json.dumps(run_cli(sys.argv[2] == "1", sys.argv[3:])))
        return 0
    if sys.argv[1] == "apply-setup":
        import workloads

        workloads.ApplySetup.build(seed=0)
        return 0
    raise SystemExit(f"unknown child task {sys.argv[1]!r}")


if __name__ == "__main__":
    sys.exit(main())
