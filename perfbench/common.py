"""Paths, child processes and small statistics shared by the benchmark."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")

#: BLAS/OpenMP threads for the benchmark and every child it starts.  One:
#: with two, OpenBLAS's second thread spins through the battery's small
#: products, doubling its CPU time for no gain in wall time, and two busy
#: threads on two shared vCPUs make every timing depend on the scheduler.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def program_present() -> bool:
    return (SRC / "gradedhs" / "__init__.py").is_file()


def pin_environment() -> None:
    """Cap BLAS threads and put the checkout's sources first on the path.

    Must run before numpy is imported.
    """
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_cpu() -> int:
    """Keep this process and every child it starts on one CPU.

    On the shared host each vCPU slows down by itself: the same kernel
    timed back to back on the two vCPUs gives readings that do not
    correlate.  Pinned, a command runs on the CPU the host-speed readings
    are taken on, and the scheduler cannot move it between a fast and a
    slow one.  All the benchmark's work is single-threaded and sequential,
    so one CPU is all it uses.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_program():
    """Import gradedhs from this checkout, refusing any other copy."""
    import gradedhs

    where = Path(gradedhs.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"gradedhs was imported from {where}, not from {SRC}")
    return gradedhs


class ChildResult:
    """Wall time, exit code, peak RSS and captured stdout of one child."""

    def __init__(self, wall_s: float, code: int, maxrss_kb: int, stdout: str):
        self.wall_s = wall_s
        self.code = code
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout

    def last_json(self) -> dict:
        lines = [ln for ln in self.stdout.splitlines() if ln.strip()]
        if not lines:
            raise RuntimeError(f"child printed nothing (exit {self.code})")
        return json.loads(lines[-1])


def run_child(argv: list[str], capture: bool = False, timeout: float = 170.0) -> ChildResult:
    """Run one child to completion, timing it from spawn to reaped exit.

    The child is reaped with ``os.wait4``, which gives its own peak RSS
    (RUSAGE_CHILDREN would be a maximum over every child reaped so far).
    Its stderr passes through; a child still running after ``timeout``
    seconds is killed.
    """
    out = subprocess.PIPE if capture else subprocess.DEVNULL
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, text=capture)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        stdout = proc.stdout.read() if capture else ""
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        if capture:
            proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(wall, proc.returncode, usage.ru_maxrss, stdout)


def median(values) -> float:
    return float(statistics.median(values))
