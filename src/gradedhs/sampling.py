"""Spectral points of the identity battery.

Points are x + iy with x ~ U(0, 1), y ~ U(0.1, 0.5).  A row's candidates
come in blocks of ``rng.uniform`` draws and are screened as arrays; a
candidate whose derived arguments are not finite or come within
``_LATTICE_MARGIN`` of the integer pole lattice is rejected, at most
``_MAX_RESAMPLES`` times in a row.
"""

from __future__ import annotations

import numpy as np

from .rmatrix import _LATTICE_MARGIN, _dist_to_int

_MAX_RESAMPLES = 100


def _uniform_points(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Points x + iy, x ~ U(0, 1) and y ~ U(0.1, 0.5), in an array of
    ``shape``, filled in C order from one draw: the doubles of as many
    ``complex(rng.uniform(0, 1), rng.uniform(0.1, 0.5))`` in turn."""
    return rng.uniform((0.0, 0.1), (1.0, 0.5), size=(*shape, 2)).view(complex)[..., 0]


def _off_lattice(values):
    """Whether every value is finite and keeps ``_LATTICE_MARGIN`` from the
    integers, elementwise over arrays of values."""
    ok = True
    for v in values:
        ok = ok & (_dist_to_int(v) >= _LATTICE_MARGIN)
    return ok


def _aybe_args_ok(spec, x, y, z1, z2, z3):
    z12, z23, z13 = z1 - z2, z2 - z3, z1 - z3
    hs = [x, y, x - y, y - x]
    args = [z12, z23, z13]
    return _off_lattice(hs + args + [h + z for h in hs for z in args])


def _draw_accepted(
    rng: np.random.Generator, samples: int, n_args: int, accept
) -> tuple[list[np.ndarray], int]:
    """``n_args`` arrays of ``samples`` accepted points, and the number of
    candidates rejected before the last of them.

    The points and the count are those of drawing one candidate after
    another, each point redrawn until ``accept`` takes it, at most
    ``_MAX_RESAMPLES`` times.  Candidates are drawn in blocks and screened
    as arrays (``accept`` takes one array per argument and returns a
    boolean per candidate, or one for all), so the last block may draw past
    the last accepted candidate.
    """
    kept, need = [], samples
    drawn, last = 0, -1  # candidates drawn; stream index of the last accepted
    while need:
        block = _uniform_points(rng, (need + 8, n_args))
        at = drawn + np.flatnonzero(np.broadcast_to(accept(*block.T), len(block)))[:need]
        # rejections before each accepted candidate, and after the last one
        # if the block runs out first
        ends = at if len(at) == need else np.append(at, drawn + len(block))
        if np.any(np.diff(ends, prepend=last) - 1 > _MAX_RESAMPLES):
            raise RuntimeError(f"exceeded {_MAX_RESAMPLES} pole-rejection resamples")
        kept.append(block[at - drawn])
        need -= len(at)
        drawn += len(block)
        last = at[-1] if len(at) else last
    return list(np.concatenate(kept).T.copy()), int(last) + 1 - samples
