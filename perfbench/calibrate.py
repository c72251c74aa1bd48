"""Host speed, measured with fixed reference kernels between timed passes.

The benchmark runs on a few vCPUs of a shared host whose speed is not
steady: the same fixed loop takes up to 1.6x longer for seconds to minutes
at a time, with wall and CPU time moving together, so neither longer runs
nor medians remove it.  The benchmark therefore times fixed reference
kernels before the first and after every timed command (or apply), and
divides the run's median wall time by the median of those readings.  A
time so corrected reads in *reference seconds*: what the command would
take with the host as fast as when the nominal kernel times were taken.
Each vCPU slows by itself, so the readings follow the timed work only
when both run on one CPU (``common.pin_cpu``).

The kernels use only numpy and the standard library, never the program,
so a change to the program cannot move them.  Each workload is set
against the kernels that resemble where its time goes:

* ``interp``: small complex numpy products driven from a Python loop,
  as in the identity battery and in interpreter start-up;
* ``stream``: elementwise passes over 1 MiB complex arrays, as in the
  matrix-free apply;
* ``dense``: 256 x 256 complex matrix products, as in dense realization
  (the difference operators' products are of d x d matrices with d at
  most 81, too small for this kernel to speak for them).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: nominal seconds of each kernel, near its fast-host median on the
#: reference machine (see README.md); only the scale of the corrected
#: times depends on these
NOMINAL_S = {"interp": 0.035, "stream": 0.039, "dense": 0.037}

#: kernels each workload is set against
KERNELS = {
    "verify": ("interp",),
    "ops": ("interp", "stream"),
    "chain": ("interp", "dense", "stream"),
    "apply": ("stream",),
    "setup": ("interp",),
    "apply-setup": ("interp", "stream"),
}

_rng = np.random.default_rng(12345)
_SMALL = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) for _ in range(8)]
_DENSE = _rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))
_VEC_A = _rng.standard_normal(1 << 16) + 1j * _rng.standard_normal(1 << 16)
_VEC_B = _VEC_A[::-1].copy()
_VEC_C = np.empty_like(_VEC_A)


def _interp() -> None:
    acc = np.eye(16, dtype=complex)
    for i in range(1200):
        acc = np.kron(_SMALL[i % 8], _SMALL[(i + 3) % 8]) @ acc * 0.1


def _stream() -> None:
    for _ in range(200):
        np.multiply(_VEC_A, _VEC_B, out=_VEC_C)
        np.add(_VEC_C, _VEC_A, out=_VEC_C)


def _dense() -> None:
    for _ in range(13):
        _DENSE @ _DENSE


_BODIES = {"interp": _interp, "stream": _stream, "dense": _dense}


def kernel_seconds(name: str, reps: int = 3) -> float:
    """Median wall time of ``reps`` runs of one kernel."""
    body = _BODIES[name]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        body()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Slowness of the host over a run, read between its timed commands.

    A reading is 1.0 when the kernels run at their nominal speed and 2.0
    when they take twice as long.  A single reading is too short to follow
    the host's swings, so a run divides the median of its wall times by
    the median of all its readings: ``corrected(median_wall)``.
    """

    def __init__(self, kernels: tuple[str, ...]) -> None:
        self.kernels = kernels
        self.readings: list[float] = []
        self.read()

    def read(self) -> None:
        self.readings.append(
            statistics.fmean(kernel_seconds(k) / NOMINAL_S[k] for k in self.kernels)
        )

    def corrected(self, wall_s: float) -> float:
        return wall_s / statistics.median(self.readings)
