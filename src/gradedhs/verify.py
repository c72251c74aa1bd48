"""Identity battery for the graded R-matrix families.

Every check evaluates one operator identity at sampled spectral points and
reports a scale-free residual: the Frobenius norm of the defect divided by
the product of the norms of the operator factors entering the identity
(plus a 1e-300 floor).  Spectral parameters are drawn as x + iy with
x ~ U(0, 1), y ~ U(0.1, 0.5); draws whose derived arguments come within
1e-3 of the integer pole lattice are rejected and redrawn (at most 100
times, counted in the report; see :mod:`gradedhs.sampling`).  Rows and
reports are written by :mod:`gradedhs.report`.

Three-leg identities default to tolerance 1e-10, two-leg and scalar ones
to 1e-12.

Stacked evaluation
------------------
A check takes one point or 1-D arrays of points, and each battery row
works on whole arrays:

- Draws.  A row's candidates come from blocks of ``rng.uniform`` draws,
  which give the doubles of point-by-point draws in the same order, and
  are screened by array predicates.  The first ``samples`` accepted
  candidates are kept, so the points, the resample counts and the
  100-resample error are those of drawing one point after another.
- R-matrices.  A check builds all the R stacks it needs for a chunk of
  points with one vectorised :func:`build_r_stack` call over their
  concatenated (hbar, z) arguments.  A custom ``r_builder`` keeps its
  ``(spec, z) -> LocalOperator`` contract; its outputs are stacked point
  by point.
- Products and norms.  Three-leg factors are placed as realized matrices
  by one cached gather, products are batched ``@``, and the Frobenius
  norms of a stack come from one batched product of its real and
  imaginary views.

Every per-sample number is rounded exactly as a one-point evaluation
rounds it, so reports do not depend on the stacking.

One rule, :func:`_chunk_points`, cuts every row into chunks of points
that build their own R stacks: a row with r R-matrices per point, placed
on ``legs`` legs, takes ``_STACK_AMPS // max(r n^4, n^(2 legs))`` points
at a time, so no stacked array holds more than ``_STACK_AMPS`` = 2^14
amplitudes.  QYBE (r = 3) and the AYBE rows (r = 6, whose defects come
from one producer, :func:`_aybe_defects`) take 4 points at (2|2) and 22
at n = 3; the two-leg rows take 32 or 64 at (2|2).  The bound is set by
memory.  QYBE at 100 points of (2|2) raised peak RSS by 0.1 MB in chunks
of 4 samples, 1.6 MB in chunks of 8, 4.6 MB in chunks of 16 and 36 MB
unchunked, against a battery peak of about 40 MB.  R blocks of 2^15
amplitudes, beside the product chunks, raised the peak of ``gradedhs
verify`` by 0.3 MB and saved 15 ms of its 0.3 s battery.  AYBE R stacks
built per block of points, not per chunk, also raised that peak by
0.3 MB, because the z-independence row holds every defect of a point.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable

import numpy as np

from .gradedcore import (
    GradedDim,
    LocalOperator,
    _embed_realized_stack,
    graded_permutation,
    sigma_mask,
)
# unused here: perfbench/tracing.py wraps these names in this module
from .gradedcore import embed_local, super_multiply  # noqa: F401
from .rmatrix import (
    RFamily,
    RMatrixSpec,
    _cabs,
    _cmul,
    _gauge_phases,
    build_r,
    build_r_stack,
    periodicity_matrix,
    phi,
    residue_at_zero,
    scalar_kernels,
    twist_matrix,
)
from .report import CheckResult, VerificationReport, _result, config_digest
from .sampling import _aybe_args_ok, _draw_accepted, _off_lattice, _uniform_points

_FLOOR = 1e-300

#: largest number of amplitudes in one stacked array: a chunk's R stacks
#: together, or a stack of its placed or multiplied matrices
_STACK_AMPS = 1 << 14

DEFAULT_TOLERANCES = {
    "qybe": 1e-10,
    "aybe": 1e-10,
    "aybe_z_independence": 1e-12,
    "unitarity": 1e-12,
    "normalized_unitarity": 1e-12,
    "skew_symmetry": 1e-12,
    "periodicity": 1e-12,
    "residue": 1e-12,
    "twist": 1e-12,
    "kernel_reconstruction": 1e-12,
    "scalar_a11": 1e-12,
    "scalar_a12": 1e-12,
    "scalar_a13": 1e-12,
    "scalar_a14": 1e-12,
    "gtilde_defect": 1e-12,
}

DEFAULT_DIMS = ((1, 0), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2))

DEFAULT_HBAR = 0.23 + 0.11j


@dataclass(frozen=True)
class IdentityCheck:
    """One row of the battery's plan: an identity sampled for one spec.

    ``residual(spec, *points)`` takes ``n_args`` equal-length arrays of
    points and returns their residuals (or, for a group of relations that
    share draws, a dict of named residual arrays).  ``accept`` screens
    drawn candidates: it takes ``n_args`` arrays and returns a boolean per
    candidate (or one for all).  ``seed`` seeds the check's random stream
    (an int or a sequence of ints).  A row reports its first maximum and
    running mean; with ``last_max`` (the scalar relations) its last maximum
    and numpy's mean.
    """

    name: str
    spec: RMatrixSpec
    samples: int
    seed: int | tuple[int, ...]
    tolerance: float
    residual: Callable | None = None
    n_args: int = 0
    accept: Callable = lambda *args: True
    last_max: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.samples < 1:
            raise ValueError("need at least one sample")


# ---------------------------------------------------------------------------
# stacked evaluation
# ---------------------------------------------------------------------------


def _rel(diff, *operand_norms):
    den = 1.0
    for nrm in operand_norms:
        den = den * nrm
    return diff / (den + _FLOOR)


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, rounded as ``np.linalg.norm``
    rounds it: the dot products of the strided real and imaginary views,
    taken for all matrices by one batched product."""
    flat = stack.reshape(len(stack), -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def _point_arrays(*points) -> list[np.ndarray]:
    return np.broadcast_arrays(*(np.atleast_1d(np.asarray(p, dtype=complex)) for p in points))


def _slices(total: int, step: int):
    for k in range(0, total, step):
        yield slice(k, k + step)


def _chunk_points(spec: RMatrixSpec, r_per_point: int, legs: int) -> int:
    """Points per chunk: their ``r_per_point`` R-matrices per point, taken
    together, and each stack of their ``legs``-leg placed matrices hold at
    most ``_STACK_AMPS`` amplitudes."""
    n = spec.dim.n
    return max(1, _STACK_AMPS // max(r_per_point * n ** 4, n ** (2 * legs)))


def _stacked(r_per_point: int, legs: int = 2):
    """Let a check written for stacks take one point or 1-D arrays of points.

    The check gets the points in chunks of :func:`_chunk_points`; a point
    gives a float back, arrays give an array.
    """

    def wrap(check):
        @functools.wraps(check)
        def run(spec, *points, **kwargs):
            arrays = _point_arrays(*points)
            step = _chunk_points(spec, r_per_point, legs)
            out = np.concatenate([check(spec, *(a[k] for a in arrays), **kwargs)
                                  for k in _slices(len(arrays[0]), step)])
            return out if any(np.ndim(p) for p in points) else float(out[0])

        return run

    return wrap


def _r(builder, spec: RMatrixSpec, zs, hbars=None) -> list[np.ndarray]:
    """Coefficient stacks (S, n^2, n^2) of R at each of the equal-length
    point arrays ``zs``, with deformations ``hbars`` (numbers or arrays,
    default the spec's), all from one :func:`build_r_stack` call."""
    hbars = [spec.hbar] * len(zs) if hbars is None else hbars
    z = np.concatenate(zs)
    hbar = np.concatenate([np.broadcast_to(h, np.shape(x)) for h, x in zip(hbars, zs)])
    if builder is build_r:
        stack = build_r_stack(spec.family, spec.dim, hbar, z)
    else:
        stack = np.stack([
            builder(RMatrixSpec(spec.family, spec.dim, complex(h)), complex(x)).entries
            for x, h in zip(z, hbar)
        ])
    return np.split(stack, len(zs))


def _subtract_on_diagonal(stack: np.ndarray, values, rows=slice(None)) -> np.ndarray:
    """Subtract values (a number or one per sample) from the diagonal
    entries ``rows`` of every matrix of the stack, in place."""
    idx = np.arange(stack.shape[-1])[rows]
    stack[:, idx, idx] -= np.broadcast_to(values, (len(stack),))[:, None]
    return stack


# ---------------------------------------------------------------------------
# individual checks (a point, or 1-D arrays of points)
# ---------------------------------------------------------------------------


@_stacked(r_per_point=3, legs=3)
def check_qybe(spec: RMatrixSpec, u, v, builder=build_r):
    """Residual of R12(u) R13(u+v) R23(v) = R23(v) R13(u+v) R12(u)."""
    r12, r13, r23 = (
        _embed_realized_stack(r, spec.dim, sites, 3)
        for r, sites in zip(_r(builder, spec, [u, u + v, v]), ((1, 2), (1, 3), (2, 3)))
    )
    scales = _norms(r12), _norms(r13), _norms(r23)
    left = r12 @ r13
    defect = left @ r23
    # the second product reuses the buffers of the first and of r23
    np.matmul(r23, r13, out=left)
    defect -= np.matmul(left, r12, out=r23)
    return _rel(_norms(defect), *scales)


def _gtilde_defect(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """pi^2 / (2 cos(pi x/2) cos(pi y/2) cos(pi (x-y)/2)) at arrays of points,
    each rounded as the formula on Python complex numbers rounds it."""
    a, b, c = (np.cos(_cmul(math.pi, t) / 2) for t in (x, y, x - y))
    return math.pi ** 2 / _cmul(_cmul(_cmul(2, a), b), c)


def _aybe_prefactors(spec: RMatrixSpec, x, y):
    """Diagonal rows of the closed-form AYBE defect and its value at each
    point (no rows where it vanishes)."""
    n = spec.dim.n
    if spec.family is not RFamily.UQ_GLNM or n < 3:
        return [], np.zeros(len(x))
    rows = [(a * n + b) * n + c for a, b, c in permutations(range(n), 3)]
    return rows, _gtilde_defect(x, y)


def expected_aybe_defect(spec: RMatrixSpec, x: complex, y: complex) -> LocalOperator:
    """Closed-form associative-YBE defect on three legs.

    Zero for the cyclic-invariant family; for the quantized-superalgebra
    family it is the spectral-parameter-free operator

        pi^2 / (2 cos(pi x/2) cos(pi y/2) cos(pi (x-y)/2))
            * sum_{a != b != c != a} e_aa (x) e_bb (x) e_cc,

    the prefactor being the defect of the constant kernel pi/sin(pi .)
    in the scalar triple relation (see ``gtilde_defect``).
    """
    n = spec.dim.n
    rows, pref = _aybe_prefactors(spec, *_point_arrays(x, y))
    D = np.zeros((n ** 3, n ** 3), dtype=complex)
    D[rows, rows] = pref[0]
    return LocalOperator(spec.dim, 3, D)


#: legs of the six R factors of the AYBE defect, in the order of its products
_AYBE_SITES = ((1, 2), (2, 3), (1, 3), (1, 2), (2, 3), (1, 3))


def _aybe_defects(spec, x, y, z1, z2, z3, builder=build_r):
    """Realized AYBE defects of 1-D arrays of points: per chunk of points,
    its slice, its (S, n^3, n^3) defects and their operand scales |a| |b|.
    Each chunk builds its own six R stacks (see the module notes)."""
    for k in _slices(len(x), _chunk_points(spec, 6, 3)):
        xk, yk = x[k], y[k]
        z12, z23, z13 = z1[k] - z2[k], z2[k] - z3[k], z1[k] - z3[k]
        rs = _r(builder, spec, [z12, z23, z13, z12, z23, z13], [xk, yk, yk, xk - yk, yk - xk, xk])

        def emb(j):
            return _embed_realized_stack(rs[j], spec.dim, _AYBE_SITES[j], 3)

        a, b = emb(0), emb(1)
        scale = _norms(a) * _norms(b)  # |a| |b|, the operand norms in _rel order
        defect = a @ b
        del a, b  # each stacked array is as large as the budget allows
        defect -= emb(2) @ emb(3)
        defect -= emb(4) @ emb(5)
        yield k, defect, scale


def _aybe(spec, x, y, z1, z2, z3, builder=build_r, coefficients=None):
    """AYBE residuals of 1-D arrays of points: the battery's row, which
    keeps no defect.  Given ``coefficients``, each point's signed defect is
    written there before its closed form is subtracted."""
    residual = np.empty(len(x))
    for k, defect, scale in _aybe_defects(spec, x, y, z1, z2, z3, builder):
        if coefficients is not None:
            coefficients[k] = sigma_mask(spec.dim, 3) * defect
        rows, pref = _aybe_prefactors(spec, x[k], y[k])
        residual[k] = _rel(_norms(_subtract_on_diagonal(defect, pref, rows)), scale)
    return residual


def check_aybe(spec: RMatrixSpec, x, y, z1, z2, z3, builder=build_r):
    """Associative Yang-Baxter residual and the raw three-leg defect.

    defect = R^x_12(z12) R^y_23(z23) - R^y_13(z13) R^{x-y}_12(z12)
             - R^{y-x}_23(z23) R^x_13(z13)

    with z12 = z1 - z2 etc.  The residual compares the defect against its
    closed form (zero, or the constant diagonal term).  For one point the
    defect is a LocalOperator, for arrays the (S, d, d) stack of
    coefficient arrays.
    """
    points = _point_arrays(x, y, z1, z2, z3)
    d = spec.dim.n ** 3
    coefficients = np.empty((len(points[0]), d, d), dtype=complex)
    residual = _aybe(spec, *points, builder=builder, coefficients=coefficients)
    if all(np.ndim(p) == 0 for p in (x, y, z1, z2, z3)):
        return float(residual[0]), LocalOperator(spec.dim, 3, coefficients[0])
    return residual, coefficients


def check_aybe_z_independence(
    spec: RMatrixSpec, x, y, rng: np.random.Generator, triples: int = 20, builder=build_r
):
    """Max pairwise defect difference over random (z1, z2, z3) triples.

    Differences are normalized by the operand scale of the samples involved
    (the same convention as the other residuals), since near-pole draws
    inflate the raw defect noise.  A NaN difference counts as infinite.
    Fewer than two accepted triples compare nothing and raise
    ``ValueError``.  For arrays of (x, y), each point draws its own triples
    in turn: one draw holds all their triples, in that order.
    """
    single = np.ndim(x) == 0
    x, y = _point_arrays(x, y)
    spreads = []
    for xx, yy, zs in zip(x, y, _uniform_points(rng, (len(x), triples, 3))):
        zs = zs[_aybe_args_ok(spec, xx, yy, *zs.T)]
        if len(zs) < 2:
            raise ValueError(
                f"{len(zs)} of {triples} random triples accepted: no pair to compare"
            )
        full = [np.full(len(zs), xx), np.full(len(zs), yy)]
        defects, scales = [], []
        for _, defect, scale in _aybe_defects(spec, *full, *zs.T, builder):
            defects.extend(defect)
            scales.extend((scale + 1.0).tolist())
        spreads.append(_spread(defects, scales))
    return spreads[0] if single else np.array(spreads)


def _spread(defects, scales: list[float]) -> float:
    """Largest ||D_i - D_j|| / max(s_i, s_j) over the pairs i < j of the
    defects D with scales s; a NaN difference counts as infinite.  One pair
    at a time, so no temporary is larger than one defect."""
    best = 0.0
    for i, j in combinations(range(len(defects)), 2):
        diff = np.linalg.norm(defects[i] - defects[j]) / max(scales[i], scales[j])
        best = max(best, math.inf if math.isnan(diff) else float(diff))
    return best


@_stacked(r_per_point=2)
def check_unitarity(spec: RMatrixSpec, z, builder=build_r):
    """Residual of R12(z) R21(-z) = (pi^2/sin^2(pi h) - pi^2/sin^2(pi z)) Id."""
    plus, minus = _r(builder, spec, [z, -z])
    r12 = _embed_realized_stack(plus, spec.dim, (1, 2), 2)
    r21 = _embed_realized_stack(minus, spec.dim, (2, 1), 2)
    target = _cmul(phi(spec.hbar, z), phi(spec.hbar, -z))
    return _rel(_norms(_subtract_on_diagonal(r12 @ r21, target)), _norms(r12), _norms(r21))


@_stacked(r_per_point=2)
def check_normalized_unitarity(spec: RMatrixSpec, z, builder=build_r):
    """Residual of Rbar12(z) Rbar21(-z) = Id."""
    h = spec.hbar
    plus, minus = _r(builder, spec, [z, -z])
    rbar12 = plus / phi(h, z)[:, None, None]
    rbar21 = minus / phi(h, -z)[:, None, None]
    r12 = _embed_realized_stack(rbar12, spec.dim, (1, 2), 2)
    r21 = _embed_realized_stack(rbar21, spec.dim, (2, 1), 2)
    return _rel(_norms(_subtract_on_diagonal(r12 @ r21, 1.0)), _norms(r12), _norms(r21))


@_stacked(r_per_point=2)
def check_skew(spec: RMatrixSpec, z, builder=build_r):
    """Residual of R^{-h}_12(-z) = -P R^{h}_12(z) P (skew-symmetry)."""
    minus, plus = _r(builder, spec, [-z, z], [-spec.hbar, spec.hbar])
    lhs = _embed_realized_stack(minus, spec.dim, (1, 2), 2)
    rhs = _embed_realized_stack(plus, spec.dim, (2, 1), 2)
    return _rel(_norms(lhs + rhs), _norms(rhs))


@_stacked(r_per_point=2)
def check_twist(spec_zn: RMatrixSpec, u, v, builder=build_r):
    """Residual of the diagonal twist/gauge relation between the families.

    R_zn(u-v) = G1(u) G2(v) F12 R_uq(u-v) F21^{-1} G1^{-1} G2^{-1}
    """
    if spec_zn.family is not RFamily.ZN_GRADED:
        raise ValueError("the twist check starts from the cyclic-invariant family")
    dim, h = spec_zn.dim, spec_zn.hbar
    n = dim.n
    spec_uq = RMatrixSpec(RFamily.UQ_GLNM, dim, h)
    lhs, ruq = (
        _embed_realized_stack(_r(builder, sp, [u - v])[0], dim, (1, 2), 2)
        for sp in (spec_zn, spec_uq)
    )
    # the diagonal factors are multiplied as matrices, which rounds as the
    # one-point products do
    g1, g2 = np.repeat(_gauge_phases(n, u), n, axis=1), np.tile(_gauge_phases(n, v), n)
    f12 = np.diag(twist_matrix(dim, h).entries)
    f21 = f12.reshape(n, n).T.ravel()
    eye = np.eye(n * n)  # times a row of diagonals: one diagonal matrix per sample
    rhs = eye * g1[:, None, :] @ (eye * g2[:, None, :] @ (np.diag(f12) @ ruq))
    for right in (1.0 / f21, 1.0 / g1, 1.0 / g2):
        rhs = rhs @ (eye * right[..., None, :])
    return _rel(_norms(lhs - rhs), _norms(ruq))


@_stacked(r_per_point=2)
def check_periodicity(spec: RMatrixSpec, z, builder=build_r):
    """Shift z -> z + 1: plain periodicity (uq) or Q-conjugated (zn)."""
    shifted, base = (
        _embed_realized_stack(r, spec.dim, (1, 2), 2) for r in _r(builder, spec, [z + 1, z])
    )
    if spec.family is RFamily.ZN_GRADED:
        n = spec.dim.n
        q = np.diag(periodicity_matrix(spec.dim))
        target = np.diag(np.repeat(q, n)) @ base @ np.diag(np.repeat(1.0 / q, n))
    else:
        target = base
    return _rel(_norms(shifted - target), _norms(base))


def check_residue(spec: RMatrixSpec) -> float:
    """Residual of (analytic residue of R at z = 0) - graded permutation."""
    res = residue_at_zero(spec)
    perm = graded_permutation(spec.dim)
    return float(_rel((res - perm).norm(), perm.norm()))


@_stacked(r_per_point=1)
def check_kernel_reconstruction(spec: RMatrixSpec, z, builder=build_r):
    """Residual of the kernel-assembled R against the direct construction."""
    [direct] = _r(builder, spec, [z])
    rebuilt = scalar_kernels(spec).rebuild(z)
    return _rel(_norms(direct - rebuilt), _norms(direct))


def check_scalar_relations(spec: RMatrixSpec, x, y, z, w) -> dict:
    """Residuals of the scalar kernel relations at sample points.

    a11: f^a(z,x) f^a(w,y) = f^a(z+w,y) f^a(z,x-y) + f^a(w,y-x) f^a(z+w,x)
    a12: g^{ab}(x) g^{bc}(y) = g^{ac}(y) g^{ab}(x-y) + g^{bc}(y-x) g^{ac}(x)
    a13: g^{ac}(x+y) (f^a(z,x) - f^a(z,-y)) = g^{ac}(x) g^{ac}(y)
    a14: g^{ac}(z+w) (f^c(z,x) + f^c(w,-x)) = (-1)^{p_c} g^{ac}(z) g^{ac}(w)

    plus, for the quantized-superalgebra family, the defect of the triple
    relation for the constant kernel gt(x) = pi/sin(pi x):

    gtilde_defect: gt(x) gt(y) - gt(y) gt(x-y) - gt(y-x) gt(x)
                   = pi^2 / (2 cos(pi x/2) cos(pi y/2) cos(pi (x-y)/2))

    Each value is a float for one point, an array for arrays of points.
    """
    single = np.ndim(x) == 0
    x, y, z, w = _point_arrays(x, y, z, w)
    k = scalar_kernels(spec)
    n = spec.dim.n
    p = spec.dim.parities
    out: dict = {}

    def rel3(t1, t2, t3):
        scale = np.maximum(np.maximum(_cabs(t1), _cabs(t2)), _cabs(t3))
        return _cabs(t1 - t2 - t3) / (scale + _FLOOR)

    def rel2(lhs, rhs):
        return _cabs(lhs - rhs) / (np.maximum(_cabs(lhs), _cabs(rhs)) + _FLOOR)

    worst = np.zeros(len(x))
    for a in range(1, n + 1):
        t1 = _cmul(k.f(a, z, x), k.f(a, w, y))
        t2 = _cmul(k.f(a, z + w, y), k.f(a, z, x - y))
        t3 = _cmul(k.f(a, w, y - x), k.f(a, z + w, x))
        worst = np.maximum(worst, rel3(t1, t2, t3))
    out["scalar_a11"] = worst

    if n >= 3:
        worst = np.zeros(len(x))
        for a, b, c in permutations(range(1, n + 1), 3):
            t1 = _cmul(k.g_flip(a, b, x), k.g_flip(b, c, y))
            t2 = _cmul(k.g_flip(a, c, y), k.g_flip(a, b, x - y))
            t3 = _cmul(k.g_flip(b, c, y - x), k.g_flip(a, c, x))
            worst = np.maximum(worst, rel3(t1, t2, t3))
        out["scalar_a12"] = worst

    if n >= 2:
        w13 = np.zeros(len(x))
        w14 = np.zeros(len(x))
        for a in range(1, n + 1):
            for c in range(1, n + 1):
                if a == c:
                    continue
                lhs = _cmul(k.g_flip(a, c, x + y), k.f(a, z, x) - k.f(a, z, -y))
                rhs = _cmul(k.g_flip(a, c, x), k.g_flip(a, c, y))
                w13 = np.maximum(w13, rel2(lhs, rhs))
                lhs = _cmul(k.g_flip(a, c, z + w), k.f(c, z, x) + k.f(c, w, -x))
                rhs = (-1.0) ** p[c - 1] * _cmul(k.g_flip(a, c, z), k.g_flip(a, c, w))
                w14 = np.maximum(w14, rel2(lhs, rhs))
        out["scalar_a13"] = w13
        out["scalar_a14"] = w14

    if spec.family is RFamily.UQ_GLNM:
        gt = k.g_tilde
        lhs = _cmul(gt(x), gt(y)) - _cmul(gt(y), gt(x - y)) - _cmul(gt(y - x), gt(x))
        rhs = _gtilde_defect(x, y)
        out["gtilde_defect"] = _cabs(lhs - rhs) / (_cabs(rhs) + _FLOOR)
    return {key: float(val[0]) for key, val in out.items()} if single else out


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def default_specs(
    hbar: complex = DEFAULT_HBAR,
    dims=DEFAULT_DIMS,
    families=(RFamily.UQ_GLNM, RFamily.ZN_GRADED),
) -> list[RMatrixSpec]:
    return [
        RMatrixSpec(fam, GradedDim(nm[0], nm[1]), hbar) for fam in families for nm in dims
    ]


def _run_check(check: IdentityCheck, tolerances: dict[str, float]) -> list[CheckResult]:
    """Draw every accepted point of one plan row, then evaluate them stacked."""
    points, resamples = _draw_accepted(
        np.random.default_rng(check.seed), check.samples, check.n_args, check.accept
    )
    residuals = check.residual(check.spec, *points)
    if not isinstance(residuals, dict):
        residuals = {check.name: np.atleast_1d(residuals)}
    return [
        _result(check, name, res, points, resamples, tolerances[name])
        for name, res in residuals.items()
    ]


def _battery_plan(
    spec: RMatrixSpec, sidx: int, seed: int, samples: int, tol: dict, r_builder
) -> list[IdentityCheck]:
    """The battery's rows for the ``sidx``-th spec: each check with its
    draws' argument count, predicate and random stream."""

    def with_builder(check):
        return functools.partial(check, builder=r_builder)

    h = spec.hbar
    two_leg_ok = lambda z: _off_lattice([z, z + 1, h, z + h, z + 1 + h, -z, -z + h])
    qybe_ok = lambda u, v: _off_lattice([u, v, u + v, u + h, v + h, u + v + h])
    aybe_ok = lambda x, y, z1, z2, z3: _aybe_args_ok(spec, x, y, z1, z2, z3)
    scalar_ok = lambda x, y, z, w: _off_lattice(
        [x, y, z, w, x - y, y - x, x + y, z + w, x / 2, y / 2, (x - y) / 2]
    )
    # (name, residual, argument count, accept, samples); a row's place in
    # the list keys its random stream
    rows = [
        ("qybe", with_builder(check_qybe), 2, qybe_ok, samples),
        ("aybe", with_builder(_aybe), 5, aybe_ok, samples),
        ("unitarity", with_builder(check_unitarity), 1, two_leg_ok, samples),
        (
            "normalized_unitarity",
            with_builder(check_normalized_unitarity), 1, two_leg_ok, samples,
        ),
        ("skew_symmetry", with_builder(check_skew), 1, two_leg_ok, samples),
        ("periodicity", with_builder(check_periodicity), 1, two_leg_ok, samples),
        (
            "kernel_reconstruction",
            with_builder(check_kernel_reconstruction), 1, two_leg_ok, samples,
        ),
        ("residue", check_residue, 0, lambda: True, 1),
    ]
    if spec.family is RFamily.ZN_GRADED:
        rows.append((
            "twist",
            with_builder(check_twist),
            2,
            lambda u, v: _off_lattice([u - v, u - v + h]),
            samples,
        ))
    if spec.family is RFamily.UQ_GLNM:
        rows.append((
            "aybe_z_independence",
            lambda sp, x, y: check_aybe_z_independence(
                sp, x, y, np.random.default_rng([seed, sidx, 999]), builder=r_builder
            ),
            2,
            lambda x, y: _off_lattice([x, y, x - y, x / 2, y / 2, (x - y) / 2]),
            1,
        ))
    plan = [
        IdentityCheck(name, spec, nsamp, (seed, sidx, cidx), tol[name], fn, n_args, accept)
        for cidx, (name, fn, n_args, accept, nsamp) in enumerate(rows)
    ]
    # the scalar relations produce several named residuals per draw
    plan.append(IdentityCheck(
        "scalar_relations", spec, samples, (seed, sidx, 900), tol["scalar_a11"],
        check_scalar_relations, 4, scalar_ok, last_max=True,
    ))
    return plan


def run_battery(
    specs: list[RMatrixSpec] | None = None,
    seed: int = 7,
    samples: int = 100,
    tolerances: dict[str, float] | None = None,
    r_builder=build_r,
) -> VerificationReport:
    """Run every applicable identity check over the given specs.

    Deterministic for a given seed; per-check failures (including
    unexpected errors) are recorded, never raised.  A ``samples`` count
    below 1, or an empty ``specs`` list, leaves nothing to check and raises
    ``ValueError``.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if specs is None:
        specs = default_specs()
    if not specs:
        raise ValueError("no specs to check")
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})

    start = time.perf_counter()
    results: list[CheckResult] = []
    for sidx, spec in enumerate(specs):
        for check in _battery_plan(spec, sidx, seed, samples, tol, r_builder):
            try:
                results.extend(_run_check(check, tol))
            except Exception as exc:  # battery must not abort
                results.append(
                    CheckResult(
                        check=check.name,
                        family=spec.family.value,
                        n_even=spec.dim.n_even,
                        n_odd=spec.dim.n_odd,
                        samples=0,
                        tolerance=check.tolerance,
                        max_residual=float("inf"),
                        mean_residual=float("inf"),
                        worst_point={},
                        resamples=0,
                        verdict="error",
                        note=f"{type(exc).__name__}: {exc}",
                    )
                )

    names = [str(s) for s in specs]
    from . import __version__

    return VerificationReport(
        seed=seed,
        samples=samples,
        specs=names,
        results=results,
        config_hash=config_digest(
            {"seed": seed, "samples": samples, "specs": names, "tolerances": tol}
        ),
        version=__version__,
        wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# mutation harness
# ---------------------------------------------------------------------------


def mutated_r_builder(row: int, col: int, base=build_r):
    """R-matrix builder with the sign of one entry flipped (if nonzero)."""

    def builder(spec: RMatrixSpec, z: complex) -> LocalOperator:
        op = base(spec, z)
        ent = op.entries.copy()
        ent[row, col] = -ent[row, col]
        return LocalOperator(op.dim, op.legs, ent)

    return builder
