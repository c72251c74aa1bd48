"""Identity battery for the graded R-matrix families.

Every check evaluates one operator identity at sampled spectral points and
reports a scale-free residual: the Frobenius norm of the defect divided by
the product of the norms of the operator factors entering the identity
(plus a 1e-300 floor).  Spectral parameters are drawn as x + iy with
x ~ U(0, 1), y ~ U(0.1, 0.5); draws whose derived arguments come within
1e-3 of the integer pole lattice are rejected and redrawn (at most 100
times, counted in the report).

Three-leg identities default to tolerance 1e-10, two-leg and scalar ones
to 1e-12.

Stacked evaluation
------------------
A check takes one point or 1-D arrays of points.  The battery draws all of
a check's accepted points first, in the order a point-by-point run draws
them, and then evaluates stacks: the R-matrices of all points come from
one vectorised builder (:func:`build_r_stack`), three-leg factors are
placed as realized matrices by one cached gather, and products are
batched ``@``.  Every per-sample number is rounded exactly as a one-point
evaluation rounds it, so reports do not depend on the stacking.  A custom
``r_builder`` keeps its ``(spec, z) -> LocalOperator`` contract; its
outputs are stacked point by point.

Stacks are evaluated in chunks so that no stacked array holds more than
``_STACK_AMPS`` = 2^14 amplitudes (4 samples per chunk at (2|2) on three
legs, all 100 at (1|1)).  The bound is set by memory: QYBE at 100 points
of (2|2) raised peak RSS by 0.1 MB in chunks of 4 samples, 1.6 MB in
chunks of 8, 4.6 MB in chunks of 16 and 36 MB unchunked, against a
battery peak of about 43 MB that may grow by 5 % at most.  Larger chunks
gained no speed measurable on a shared core.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
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
    build_r,
    build_r_stack,
    gauge_matrix,
    periodicity_matrix,
    phi,
    residue_at_zero,
    scalar_kernels,
    twist_matrix,
)

_FLOOR = 1e-300

#: largest number of amplitudes in one stacked array (see the module notes)
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


def report_json(doc) -> str:
    """Every report's serialized form: sorted keys, indent 2, final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def config_digest(cfg) -> str:
    """Every report's config hash: 16 hex digits of SHA-256 of sorted JSON."""
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class IdentityCheck:
    """One row of the battery's plan: an identity sampled for one spec.

    ``residual(spec, *points)`` takes ``n_args`` equal-length arrays of
    points and returns their residuals (or, for a group of relations that
    share draws, a dict of named residual arrays).  ``accept`` screens one
    drawn point; ``seed`` seeds the check's random stream (an int or a
    sequence of ints).  A row reports its first maximum and running mean;
    with ``last_max`` (the scalar relations) its last maximum and numpy's
    mean.
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
    """Frobenius norm of each matrix of a stack, rounded as LocalOperator.norm."""
    return np.array([np.linalg.norm(m) for m in stack])


def _point_arrays(*points) -> list[np.ndarray]:
    return np.broadcast_arrays(*(np.atleast_1d(np.asarray(p, dtype=complex)) for p in points))


def _chunks(spec: RMatrixSpec, legs: int, arrays):
    """Slices of equal-length point arrays whose ``legs``-leg stacks hold at
    most ``_STACK_AMPS`` amplitudes."""
    step = max(1, _STACK_AMPS // spec.dim.n ** (2 * legs))
    for k in range(0, len(arrays[0]), step):
        yield [a[k:k + step] for a in arrays]


def _stacked(legs: int):
    """Let a check written for stacks take one point or 1-D arrays of points.

    Points are evaluated in :func:`_chunks`; a point gives floats back,
    arrays give arrays (elementwise for a check returning a tuple).
    """

    def wrap(check):
        @functools.wraps(check)
        def run(spec, *points, **kwargs):
            arrays = _point_arrays(*points)
            parts = [check(spec, *chunk, **kwargs) for chunk in _chunks(spec, legs, arrays)]
            single = all(np.ndim(p) == 0 for p in points)
            if isinstance(parts[0], tuple):
                out = tuple(np.concatenate(col) for col in zip(*parts))
                return tuple(o[0] for o in out) if single else out
            out = np.concatenate(parts)
            return float(out[0]) if single else out

        return run

    return wrap


def _r(builder, spec: RMatrixSpec, z, hbar=None) -> np.ndarray:
    """Coefficient arrays (S, n^2, n^2) of R at the points z (deformation
    hbar, default the spec's)."""
    hbar = spec.hbar if hbar is None else hbar
    if builder is build_r:
        return build_r_stack(spec.family, spec.dim, hbar, z)
    z, hbar = np.broadcast_arrays(z, hbar)
    return np.stack([
        builder(RMatrixSpec(spec.family, spec.dim, complex(h)), complex(x)).entries
        for x, h in zip(z, hbar)
    ])


def _subtract_on_diagonal(stack: np.ndarray, values, rows=slice(None)) -> np.ndarray:
    """Subtract values (a number or one per sample) from the diagonal
    entries ``rows`` of every matrix of the stack, in place."""
    idx = np.arange(stack.shape[-1])[rows]
    stack[:, idx, idx] -= np.broadcast_to(values, (len(stack),))[:, None]
    return stack


# ---------------------------------------------------------------------------
# individual checks (a point, or 1-D arrays of points)
# ---------------------------------------------------------------------------


@_stacked(legs=3)
def check_qybe(spec: RMatrixSpec, u, v, builder=build_r):
    """Residual of R12(u) R13(u+v) R23(v) = R23(v) R13(u+v) R12(u)."""
    r12 = _embed_realized_stack(_r(builder, spec, u), spec.dim, (1, 2), 3)
    r13 = _embed_realized_stack(_r(builder, spec, u + v), spec.dim, (1, 3), 3)
    r23 = _embed_realized_stack(_r(builder, spec, v), spec.dim, (2, 3), 3)
    defect = r12 @ r13 @ r23
    defect -= r23 @ r13 @ r12
    return _rel(_norms(defect), _norms(r12), _norms(r13), _norms(r23))


def _gtilde_defect(x: complex, y: complex) -> complex:
    """pi^2 / (2 cos(pi x/2) cos(pi y/2) cos(pi (x-y)/2)) at one point."""
    return math.pi ** 2 / (
        2
        * np.cos(math.pi * x / 2)
        * np.cos(math.pi * y / 2)
        * np.cos(math.pi * (x - y) / 2)
    )


def _aybe_prefactors(spec: RMatrixSpec, x, y):
    """Diagonal rows of the closed-form AYBE defect and its value at each
    point (no rows where it vanishes)."""
    n = spec.dim.n
    if spec.family is not RFamily.UQ_GLNM or n < 3:
        return [], np.zeros(len(x))
    rows = [(a * n + b) * n + c for a, b, c in permutations(range(n), 3)]
    return rows, np.array([_gtilde_defect(complex(xx), complex(yy)) for xx, yy in zip(x, y)])


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
    rows, pref = _aybe_prefactors(spec, [x], [y])
    D = np.zeros((n ** 3, n ** 3), dtype=complex)
    D[rows, rows] = pref[0]
    return LocalOperator(spec.dim, 3, D)


def _aybe_defect(spec, x, y, z1, z2, z3, builder):
    """Realized AYBE defects of one chunk of points and the operand scales
    |a| |b| of their first products."""
    z12, z23, z13 = z1 - z2, z2 - z3, z1 - z3

    def emb(h, z, sites):
        return _embed_realized_stack(_r(builder, spec, z, h), spec.dim, sites, 3)

    a = emb(x, z12, (1, 2))
    b = emb(y, z23, (2, 3))
    scale = _norms(a) * _norms(b)  # |a| |b|, the operand norms in _rel order
    defect = a @ b
    del a, b  # each stacked array is as large as the budget allows
    defect -= emb(y, z13, (1, 3)) @ emb(x - y, z12, (1, 2))
    defect -= emb(y - x, z23, (2, 3)) @ emb(x, z13, (1, 3))
    return defect, scale


def _aybe_residual(spec, x, y, defect, scale):
    """Residuals of realized defects against their closed form, which is
    subtracted from the defects in place."""
    rows, pref = _aybe_prefactors(spec, x, y)
    return _rel(_norms(_subtract_on_diagonal(defect, pref, rows)), scale)


@_stacked(legs=3)
def _aybe(spec, x, y, z1, z2, z3, builder=build_r):
    """AYBE residuals alone: the battery's row, which keeps no defect."""
    return _aybe_residual(spec, x, y, *_aybe_defect(spec, x, y, z1, z2, z3, builder))


@_stacked(legs=3)
def _aybe_with_defect(spec, x, y, z1, z2, z3, builder=build_r):
    defect, scale = _aybe_defect(spec, x, y, z1, z2, z3, builder)
    coefficients = sigma_mask(spec.dim, 3) * defect
    return _aybe_residual(spec, x, y, defect, scale), coefficients


def check_aybe(spec: RMatrixSpec, x, y, z1, z2, z3, builder=build_r):
    """Associative Yang-Baxter residual and the raw three-leg defect.

    defect = R^x_12(z12) R^y_23(z23) - R^y_13(z13) R^{x-y}_12(z12)
             - R^{y-x}_23(z23) R^x_13(z13)

    with z12 = z1 - z2 etc.  The residual compares the defect against its
    closed form (zero, or the constant diagonal term).  For one point the
    defect is a LocalOperator, for arrays the (S, d, d) stack of
    coefficient arrays.
    """
    residual, coefficients = _aybe_with_defect(spec, x, y, z1, z2, z3, builder=builder)
    if np.ndim(residual) == 0:
        return float(residual), LocalOperator(spec.dim, 3, coefficients)
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
    in turn.
    """
    if np.ndim(x):
        return np.array([
            check_aybe_z_independence(spec, xx, yy, rng, triples, builder) for xx, yy in zip(x, y)
        ])
    zs = []
    for _ in range(triples):
        z = tuple(_draw_point(rng) for _ in range(3))
        if _aybe_args_ok(spec, x, y, *z):
            zs.append(z)
    if len(zs) < 2:
        raise ValueError(
            f"{len(zs)} of {triples} random triples accepted: no pair to compare"
        )
    points = [np.full(len(zs), x), np.full(len(zs), y), *(np.array(col) for col in zip(*zs))]
    defects, scales = [], []
    for chunk in _chunks(spec, 3, points):
        defect, scale = _aybe_defect(spec, *chunk, builder)
        defects.extend(defect)
        scales.extend((scale + 1.0).tolist())
    best = 0.0
    for i, j in combinations(range(len(zs)), 2):
        diff = np.linalg.norm(defects[i] - defects[j]) / max(scales[i], scales[j])
        best = max(best, math.inf if math.isnan(diff) else float(diff))
    return best


@_stacked(legs=2)
def check_unitarity(spec: RMatrixSpec, z, builder=build_r):
    """Residual of R12(z) R21(-z) = (pi^2/sin^2(pi h) - pi^2/sin^2(pi z)) Id."""
    r12 = _embed_realized_stack(_r(builder, spec, z), spec.dim, (1, 2), 2)
    r21 = _embed_realized_stack(_r(builder, spec, -z), spec.dim, (2, 1), 2)
    target = _cmul(phi(spec.hbar, z), phi(spec.hbar, -z))
    return _rel(_norms(_subtract_on_diagonal(r12 @ r21, target)), _norms(r12), _norms(r21))


@_stacked(legs=2)
def check_normalized_unitarity(spec: RMatrixSpec, z, builder=build_r):
    """Residual of Rbar12(z) Rbar21(-z) = Id."""
    h = spec.hbar
    rbar12 = _r(builder, spec, z) / phi(h, z)[:, None, None]
    rbar21 = _r(builder, spec, -z) / phi(h, -z)[:, None, None]
    r12 = _embed_realized_stack(rbar12, spec.dim, (1, 2), 2)
    r21 = _embed_realized_stack(rbar21, spec.dim, (2, 1), 2)
    return _rel(_norms(_subtract_on_diagonal(r12 @ r21, 1.0)), _norms(r12), _norms(r21))


@_stacked(legs=2)
def check_skew(spec: RMatrixSpec, z, builder=build_r):
    """Residual of R^{-h}_12(-z) = -P R^{h}_12(z) P (skew-symmetry)."""
    lhs = _embed_realized_stack(_r(builder, spec, -z, -spec.hbar), spec.dim, (1, 2), 2)
    rhs = _embed_realized_stack(_r(builder, spec, z), spec.dim, (2, 1), 2)
    return _rel(_norms(lhs + rhs), _norms(rhs))


@_stacked(legs=2)
def check_twist(spec_zn: RMatrixSpec, u, v, builder=build_r):
    """Residual of the diagonal twist/gauge relation between the families.

    R_zn(u-v) = G1(u) G2(v) F12 R_uq(u-v) F21^{-1} G1^{-1} G2^{-1}
    """
    if spec_zn.family is not RFamily.ZN_GRADED:
        raise ValueError("the twist check starts from the cyclic-invariant family")
    dim, h = spec_zn.dim, spec_zn.hbar
    n = dim.n
    spec_uq = RMatrixSpec(RFamily.UQ_GLNM, dim, h)
    lhs = _embed_realized_stack(_r(builder, spec_zn, u - v), dim, (1, 2), 2)
    ruq = _embed_realized_stack(_r(builder, spec_uq, u - v), dim, (1, 2), 2)
    # gauges per sample; the diagonal factors are multiplied as matrices,
    # which rounds as the one-point products do
    gu = np.array([np.diag(gauge_matrix(dim, complex(p))) for p in u])
    gv = np.array([np.diag(gauge_matrix(dim, complex(p))) for p in v])
    g1, g2 = np.repeat(gu, n, axis=1), np.tile(gv, n)
    f12 = np.diag(twist_matrix(dim, h).entries)
    f21 = f12.reshape(n, n).T.ravel()
    eye = np.eye(n * n)  # times a row of diagonals: one diagonal matrix per sample
    rhs = eye * g1[:, None, :] @ (eye * g2[:, None, :] @ (np.diag(f12) @ ruq))
    for right in (1.0 / f21, 1.0 / g1, 1.0 / g2):
        rhs = rhs @ (eye * right[..., None, :])
    return _rel(_norms(lhs - rhs), _norms(ruq))


@_stacked(legs=2)
def check_periodicity(spec: RMatrixSpec, z, builder=build_r):
    """Shift z -> z + 1: plain periodicity (uq) or Q-conjugated (zn)."""
    shifted = _embed_realized_stack(_r(builder, spec, z + 1), spec.dim, (1, 2), 2)
    base = _embed_realized_stack(_r(builder, spec, z), spec.dim, (1, 2), 2)
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


@_stacked(legs=2)
def check_kernel_reconstruction(spec: RMatrixSpec, z, builder=build_r):
    """Residual of the kernel-assembled R against the direct construction."""
    direct = _r(builder, spec, z)
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
        rhs = np.array([_gtilde_defect(complex(xx), complex(yy)) for xx, yy in zip(x, y)])
        out["gtilde_defect"] = _cabs(lhs - rhs) / (_cabs(rhs) + _FLOOR)
    return {key: float(val[0]) for key, val in out.items()} if single else out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

_POLE_MARGIN = 1e-3
_MAX_RESAMPLES = 100


def _draw_point(rng: np.random.Generator) -> complex:
    return complex(rng.uniform(0.0, 1.0), rng.uniform(0.1, 0.5))


def _off_lattice(values) -> bool:
    for v in values:
        if abs(v - round(v.real)) < _POLE_MARGIN:
            return False
    return True


def _aybe_args_ok(spec, x, y, z1, z2, z3) -> bool:
    z12, z23, z13 = z1 - z2, z2 - z3, z1 - z3
    hs = [x, y, x - y, y - x]
    args = [z12, z23, z13]
    return _off_lattice(hs + args + [h + z for h in hs for z in args])


class _Sampler:
    """Rejection sampler with a bounded, counted resample budget."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.resamples = 0

    def draw(self, n_args: int, accept) -> tuple[complex, ...]:
        for _ in range(_MAX_RESAMPLES + 1):
            args = tuple(_draw_point(self.rng) for _ in range(n_args))
            if accept(*args):
                return args
            self.resamples += 1
        raise RuntimeError(f"exceeded {_MAX_RESAMPLES} pole-rejection resamples")


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    check: str
    family: str
    n_even: int
    n_odd: int
    samples: int
    tolerance: float
    max_residual: float
    mean_residual: float
    worst_point: dict
    resamples: int
    verdict: str
    note: str = ""

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["N"], doc["M"] = doc.pop("n_even"), doc.pop("n_odd")
        return doc


@dataclass
class VerificationReport:
    seed: int
    samples: int
    specs: list[str]
    results: list[CheckResult]
    config_hash: str
    version: str
    wall_time: float = field(default=0.0, compare=False)

    def passed(self) -> bool:
        return all(r.verdict == "pass" for r in self.results)

    def to_json(self) -> str:
        # wall time stays out of the serialized form so equal seeds give
        # byte-identical reports
        doc = {
            "seed": self.seed,
            "samples": self.samples,
            "specs": self.specs,
            "config_hash": self.config_hash,
            "version": self.version,
            "results": [r.to_dict() for r in self.results],
        }
        return report_json(doc)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _cpx(v: complex) -> list[float]:
    return [float(np.real(v)), float(np.imag(v))]


def default_specs(
    hbar: complex = DEFAULT_HBAR,
    dims=DEFAULT_DIMS,
    families=(RFamily.UQ_GLNM, RFamily.ZN_GRADED),
) -> list[RMatrixSpec]:
    return [
        RMatrixSpec(fam, GradedDim(nm[0], nm[1]), hbar) for fam in families for nm in dims
    ]


def _result(
    check: IdentityCheck, name: str, residuals, points, resamples: int, tol: float
) -> CheckResult:
    """Report row of one named residual array over the drawn points.

    Any non-finite residual fails the row: it reports infinity as maximum
    and mean, and the first non-finite sample as its worst point.
    """
    res = np.asarray(residuals, dtype=float)
    bad = np.flatnonzero(~np.isfinite(res))
    if bad.size:
        k, worst, mean = int(bad[0]), math.inf, math.inf
    elif check.last_max:
        k = len(res) - 1 - int(np.argmax(res[::-1]))
        worst, mean = float(res[k]), float(np.mean(res))
    else:
        k = int(np.argmax(res))
        worst, mean = float(res[k]), float(np.add.accumulate(res)[-1]) / len(res)
    spec = check.spec
    return CheckResult(
        check=name,
        family=spec.family.value,
        n_even=spec.dim.n_even,
        n_odd=spec.dim.n_odd,
        samples=check.samples,
        tolerance=tol,
        max_residual=worst,
        mean_residual=mean,
        worst_point={f"arg{i}": _cpx(v) for i, v in enumerate(points[k])},
        resamples=resamples,
        verdict="pass" if worst <= tol else "fail",
    )


def _run_check(check: IdentityCheck, tolerances: dict[str, float]) -> list[CheckResult]:
    """Draw every accepted point of one plan row, then evaluate them stacked."""
    sampler = _Sampler(np.random.default_rng(check.seed))
    points = [sampler.draw(check.n_args, check.accept) for _ in range(check.samples)]
    residuals = check.residual(check.spec, *(np.array(col) for col in zip(*points)))
    if not isinstance(residuals, dict):
        residuals = {check.name: np.atleast_1d(residuals)}
    return [
        _result(check, name, res, points, sampler.resamples, tolerances[name])
        for name, res in residuals.items()
    ]


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
    below 1 leaves nothing to check and raises ``ValueError``.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if specs is None:
        specs = default_specs()
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})

    def with_builder(check):
        return functools.partial(check, builder=r_builder)

    start = time.perf_counter()
    results: list[CheckResult] = []
    for sidx, spec in enumerate(specs):
        h = spec.hbar
        two_leg_ok = lambda z: _off_lattice([z, z + 1, h, z + h, z + 1 + h, -z, -z + h])
        qybe_ok = lambda u, v: _off_lattice([u, v, u + v, u + h, v + h, u + v + h])
        aybe_ok = lambda x, y, z1, z2, z3: _aybe_args_ok(spec, x, y, z1, z2, z3)
        scalar_ok = lambda x, y, z, w: _off_lattice(
            [x, y, z, w, x - y, y - x, x + y, z + w, x / 2, y / 2, (x - y) / 2]
        )
        # (name, residual, argument count, accept, samples); a row's place
        # in the list keys its random stream
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

        for check in plan:
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
