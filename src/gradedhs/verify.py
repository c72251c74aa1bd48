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
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .gradedcore import (
    GradedDim,
    LocalOperator,
    embed_local,
    graded_permutation,
    identity_operator,
    super_multiply,
)
from .rmatrix import (
    RFamily,
    RMatrixSpec,
    build_r,
    gauge_matrix,
    periodicity_matrix,
    phi,
    residue_at_zero,
    r_transposed,
    scalar_kernels,
    twist_matrix,
)

_FLOOR = 1e-300

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
    """One named identity to be sampled for one R-matrix spec."""

    name: str
    spec: RMatrixSpec
    samples: int
    seed: int
    tolerance: float

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.samples < 1:
            raise ValueError("need at least one sample")


# ---------------------------------------------------------------------------
# individual checks (explicit sample points)
# ---------------------------------------------------------------------------


def _rel(diff: float, *operand_norms: float) -> float:
    den = 1.0
    for nrm in operand_norms:
        den *= nrm
    return float(diff / (den + _FLOOR))


def check_qybe(spec: RMatrixSpec, u: complex, v: complex, builder=build_r) -> float:
    """Residual of R12(u) R13(u+v) R23(v) = R23(v) R13(u+v) R12(u)."""
    r12 = embed_local(builder(spec, u), (1, 2), 3)
    r13 = embed_local(builder(spec, u + v), (1, 3), 3)
    r23 = embed_local(builder(spec, v), (2, 3), 3)
    lhs = super_multiply(super_multiply(r12, r13), r23)
    rhs = super_multiply(super_multiply(r23, r13), r12)
    return _rel((lhs - rhs).norm(), r12.norm(), r13.norm(), r23.norm())


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
    D = np.zeros((n ** 3, n ** 3), dtype=complex)
    if spec.family is RFamily.UQ_GLNM and n >= 3:
        pref = math.pi ** 2 / (
            2
            * np.cos(math.pi * x / 2)
            * np.cos(math.pi * y / 2)
            * np.cos(math.pi * (x - y) / 2)
        )
        for a, b, c in permutations(range(n), 3):
            row = (a * n + b) * n + c
            D[row, row] = pref
    return LocalOperator(spec.dim, 3, D)


def check_aybe(
    spec: RMatrixSpec,
    x: complex,
    y: complex,
    z1: complex,
    z2: complex,
    z3: complex,
    builder=build_r,
) -> tuple[float, LocalOperator]:
    """Associative Yang-Baxter residual and the raw three-leg defect.

    defect = R^x_12(z12) R^y_23(z23) - R^y_13(z13) R^{x-y}_12(z12)
             - R^{y-x}_23(z23) R^x_13(z13)

    with z12 = z1 - z2 etc.  The residual compares the defect against its
    closed form (zero, or the constant diagonal term).
    """
    z12, z23, z13 = z1 - z2, z2 - z3, z1 - z3

    def emb(h, z, sites):
        sp = RMatrixSpec(spec.family, spec.dim, h)
        return embed_local(builder(sp, z), sites, 3)

    a = emb(x, z12, (1, 2))
    b = emb(y, z23, (2, 3))
    t1 = super_multiply(a, b)
    t2 = super_multiply(emb(y, z13, (1, 3)), emb(x - y, z12, (1, 2)))
    t3 = super_multiply(emb(y - x, z23, (2, 3)), emb(x, z13, (1, 3)))
    defect = t1 - t2 - t3
    residual = _rel((defect - expected_aybe_defect(spec, x, y)).norm(), a.norm(), b.norm())
    return residual, defect


def check_aybe_z_independence(
    spec: RMatrixSpec,
    x: complex,
    y: complex,
    rng: np.random.Generator,
    triples: int = 20,
    builder=build_r,
) -> float:
    """Max pairwise defect difference over random (z1, z2, z3) triples.

    Differences are normalized by the operand scale of the samples involved
    (the same convention as the other residuals), since near-pole draws
    inflate the raw defect noise.
    """
    defects = []
    scales = []
    for _ in range(triples):
        z1, z2, z3 = (_draw_point(rng) for _ in range(3))
        if not _aybe_args_ok(spec, x, y, z1, z2, z3):
            continue
        _, d = check_aybe(spec, x, y, z1, z2, z3, builder=builder)
        defects.append(d.entries)
        a = embed_local(builder(RMatrixSpec(spec.family, spec.dim, x), z1 - z2), (1, 2), 3)
        b = embed_local(builder(RMatrixSpec(spec.family, spec.dim, y), z2 - z3), (2, 3), 3)
        scales.append(a.norm() * b.norm() + 1.0)
    best = 0.0
    for i in range(len(defects)):
        for j in range(i + 1, len(defects)):
            diff = np.linalg.norm(defects[i] - defects[j])
            best = max(best, diff / max(scales[i], scales[j]))
    return float(best)


def check_unitarity(spec: RMatrixSpec, z: complex, builder=build_r) -> float:
    """Residual of R12(z) R21(-z) = (pi^2/sin^2(pi h) - pi^2/sin^2(pi z)) Id."""
    r12 = builder(spec, z)
    r21 = r_transposed(builder(spec, -z))
    prod = super_multiply(r12, r21)
    target = phi(spec.hbar, z) * phi(spec.hbar, -z) * identity_operator(spec.dim, 2)
    return _rel((prod - target).norm(), r12.norm(), r21.norm())


def check_normalized_unitarity(spec: RMatrixSpec, z: complex, builder=build_r) -> float:
    """Residual of Rbar12(z) Rbar21(-z) = Id."""
    r12 = builder(spec, z) / phi(spec.hbar, z)
    r21 = r_transposed(builder(spec, -z) / phi(spec.hbar, -z))
    prod = super_multiply(r12, r21)
    return _rel((prod - identity_operator(spec.dim, 2)).norm(), r12.norm(), r21.norm())


def check_skew(spec: RMatrixSpec, z: complex, builder=build_r) -> float:
    """Residual of R^{-h}_12(-z) = -P R^{h}_12(z) P (skew-symmetry)."""
    flipped = RMatrixSpec(spec.family, spec.dim, -spec.hbar)
    lhs = builder(flipped, -z)
    rhs = r_transposed(builder(spec, z))
    return _rel((lhs + rhs).norm(), rhs.norm())


def check_twist(spec_zn: RMatrixSpec, u: complex, v: complex, builder=build_r) -> float:
    """Residual of the diagonal twist/gauge relation between the families.

    R_zn(u-v) = G1(u) G2(v) F12 R_uq(u-v) F21^{-1} G1^{-1} G2^{-1}
    """
    if spec_zn.family is not RFamily.ZN_GRADED:
        raise ValueError("the twist check starts from the cyclic-invariant family")
    dim, h = spec_zn.dim, spec_zn.hbar
    n = dim.n
    spec_uq = RMatrixSpec(RFamily.UQ_GLNM, dim, h)
    lhs = builder(spec_zn, u - v)
    ruq = builder(spec_uq, u - v)
    g1 = LocalOperator(dim, 2, np.kron(gauge_matrix(dim, u), np.eye(n)))
    g2 = LocalOperator(dim, 2, np.kron(np.eye(n), gauge_matrix(dim, v)))
    f12 = twist_matrix(dim, h)
    f21 = r_transposed(f12)
    inv = lambda op: LocalOperator(dim, 2, np.diag(1.0 / np.diag(op.entries)))
    rhs = ruq
    for left in (f12, g2, g1):
        rhs = super_multiply(left, rhs)
    for right in (inv(f21), inv(g1), inv(g2)):
        rhs = super_multiply(rhs, right)
    return _rel((lhs - rhs).norm(), ruq.norm())


def check_periodicity(spec: RMatrixSpec, z: complex, builder=build_r) -> float:
    """Shift z -> z + 1: plain periodicity (uq) or Q-conjugated (zn)."""
    shifted = builder(spec, z + 1)
    base = builder(spec, z)
    if spec.family is RFamily.ZN_GRADED:
        n = spec.dim.n
        q = periodicity_matrix(spec.dim)
        ql = LocalOperator(spec.dim, 2, np.kron(q, np.eye(n)))
        qinv = LocalOperator(spec.dim, 2, np.kron(np.diag(1.0 / np.diag(q)), np.eye(n)))
        target = super_multiply(super_multiply(ql, base), qinv)
    else:
        target = base
    return _rel((shifted - target).norm(), base.norm())


def check_residue(spec: RMatrixSpec) -> float:
    """Residual of (analytic residue of R at z = 0) - graded permutation."""
    res = residue_at_zero(spec)
    perm = graded_permutation(spec.dim)
    return _rel((res - perm).norm(), perm.norm())


def check_kernel_reconstruction(spec: RMatrixSpec, z: complex, builder=build_r) -> float:
    """Residual of the kernel-assembled R against the direct construction."""
    direct = builder(spec, z)
    rebuilt = scalar_kernels(spec).rebuild(z)
    return _rel((direct - rebuilt).norm(), direct.norm())


def check_scalar_relations(
    spec: RMatrixSpec, x: complex, y: complex, z: complex, w: complex
) -> dict[str, float]:
    """Residuals of the scalar kernel relations at one sample point.

    a11: f^a(z,x) f^a(w,y) = f^a(z+w,y) f^a(z,x-y) + f^a(w,y-x) f^a(z+w,x)
    a12: g^{ab}(x) g^{bc}(y) = g^{ac}(y) g^{ab}(x-y) + g^{bc}(y-x) g^{ac}(x)
    a13: g^{ac}(x+y) (f^a(z,x) - f^a(z,-y)) = g^{ac}(x) g^{ac}(y)
    a14: g^{ac}(z+w) (f^c(z,x) + f^c(w,-x)) = (-1)^{p_c} g^{ac}(z) g^{ac}(w)

    plus, for the quantized-superalgebra family, the defect of the triple
    relation for the constant kernel gt(x) = pi/sin(pi x):

    gtilde_defect: gt(x) gt(y) - gt(y) gt(x-y) - gt(y-x) gt(x)
                   = pi^2 / (2 cos(pi x/2) cos(pi y/2) cos(pi (x-y)/2))
    """
    k = scalar_kernels(spec)
    n = spec.dim.n
    p = spec.dim.parities
    out: dict[str, float] = {}

    worst = 0.0
    for a in range(1, n + 1):
        t1 = k.f(a, z, x) * k.f(a, w, y)
        t2 = k.f(a, z + w, y) * k.f(a, z, x - y)
        t3 = k.f(a, w, y - x) * k.f(a, z + w, x)
        scale = max(abs(t1), abs(t2), abs(t3))
        worst = max(worst, float(abs(t1 - t2 - t3) / (scale + _FLOOR)))
    out["scalar_a11"] = worst

    if n >= 3:
        worst = 0.0
        for a, b, c in permutations(range(1, n + 1), 3):
            t1 = k.g_flip(a, b, x) * k.g_flip(b, c, y)
            t2 = k.g_flip(a, c, y) * k.g_flip(a, b, x - y)
            t3 = k.g_flip(b, c, y - x) * k.g_flip(a, c, x)
            scale = max(abs(t1), abs(t2), abs(t3))
            worst = max(worst, float(abs(t1 - t2 - t3) / (scale + _FLOOR)))
        out["scalar_a12"] = worst

    if n >= 2:
        w13 = 0.0
        w14 = 0.0
        for a in range(1, n + 1):
            for c in range(1, n + 1):
                if a == c:
                    continue
                lhs = k.g_flip(a, c, x + y) * (k.f(a, z, x) - k.f(a, z, -y))
                rhs = k.g_flip(a, c, x) * k.g_flip(a, c, y)
                scale = max(abs(lhs), abs(rhs))
                w13 = max(w13, float(abs(lhs - rhs) / (scale + _FLOOR)))
                lhs = k.g_flip(a, c, z + w) * (k.f(c, z, x) + k.f(c, w, -x))
                rhs = (-1.0) ** p[c - 1] * k.g_flip(a, c, z) * k.g_flip(a, c, w)
                scale = max(abs(lhs), abs(rhs))
                w14 = max(w14, float(abs(lhs - rhs) / (scale + _FLOOR)))
        out["scalar_a13"] = w13
        out["scalar_a14"] = w14

    if spec.family is RFamily.UQ_GLNM:
        lhs = k.g_tilde(x) * k.g_tilde(y) - k.g_tilde(y) * k.g_tilde(x - y) - k.g_tilde(y - x) * k.g_tilde(x)
        rhs = math.pi ** 2 / (
            2
            * np.cos(math.pi * x / 2)
            * np.cos(math.pi * y / 2)
            * np.cos(math.pi * (x - y) / 2)
        )
        out["gtilde_defect"] = float(abs(lhs - rhs) / (abs(rhs) + _FLOOR))
    return out


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
        return {
            "check": self.check,
            "family": self.family,
            "N": self.n_even,
            "M": self.n_odd,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "worst_point": self.worst_point,
            "resamples": self.resamples,
            "verdict": self.verdict,
            "note": self.note,
        }


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
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

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


def _run_sampled(name, spec, runner, n_args, accept, samples, rng, tol):
    sampler = _Sampler(rng)
    worst = (-1.0, ())
    total = 0.0
    for _ in range(samples):
        args = sampler.draw(n_args, accept)
        res = runner(*args)
        total += res
        if res > worst[0]:
            worst = (res, args)
    max_res = worst[0]
    point = {f"arg{i}": _cpx(v) for i, v in enumerate(worst[1])}
    return CheckResult(
        check=name,
        family=spec.family.value,
        n_even=spec.dim.n_even,
        n_odd=spec.dim.n_odd,
        samples=samples,
        tolerance=tol,
        max_residual=max_res,
        mean_residual=total / samples,
        worst_point=point,
        resamples=sampler.resamples,
        verdict="pass" if max_res <= tol else "fail",
    )


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

        plan = [
            ("qybe", lambda u, v: check_qybe(spec, u, v, builder=r_builder), 2, qybe_ok, samples),
            (
                "aybe",
                lambda x, y, z1, z2, z3: check_aybe(spec, x, y, z1, z2, z3, builder=r_builder)[0],
                5,
                aybe_ok,
                samples,
            ),
            ("unitarity", lambda z: check_unitarity(spec, z, builder=r_builder), 1, two_leg_ok, samples),
            (
                "normalized_unitarity",
                lambda z: check_normalized_unitarity(spec, z, builder=r_builder),
                1,
                two_leg_ok,
                samples,
            ),
            ("skew_symmetry", lambda z: check_skew(spec, z, builder=r_builder), 1, two_leg_ok, samples),
            ("periodicity", lambda z: check_periodicity(spec, z, builder=r_builder), 1, two_leg_ok, samples),
            (
                "kernel_reconstruction",
                lambda z: check_kernel_reconstruction(spec, z, builder=r_builder),
                1,
                two_leg_ok,
                samples,
            ),
            ("residue", lambda: check_residue(spec), 0, lambda: True, 1),
        ]
        if spec.family is RFamily.ZN_GRADED:
            plan.append(
                ("twist", lambda u, v: check_twist(spec, u, v, builder=r_builder), 2, lambda u, v: _off_lattice([u - v, u - v + h]), samples)
            )
        if spec.family is RFamily.UQ_GLNM:
            plan.append(
                (
                    "aybe_z_independence",
                    lambda x, y: check_aybe_z_independence(
                        spec, x, y, np.random.default_rng([seed, sidx, 999]), builder=r_builder
                    ),
                    2,
                    lambda x, y: _off_lattice([x, y, x - y, x / 2, y / 2, (x - y) / 2]),
                    1,
                )
            )

        for cidx, (name, runner, n_args, accept, nsamp) in enumerate(plan):
            rng = np.random.default_rng([seed, sidx, cidx])
            try:
                results.append(
                    _run_sampled(name, spec, runner, n_args, accept, nsamp, rng, tol[name])
                )
            except Exception as exc:  # battery must not abort
                results.append(
                    CheckResult(
                        check=name,
                        family=spec.family.value,
                        n_even=spec.dim.n_even,
                        n_odd=spec.dim.n_odd,
                        samples=0,
                        tolerance=tol[name],
                        max_residual=float("inf"),
                        mean_residual=float("inf"),
                        worst_point={},
                        resamples=0,
                        verdict="error",
                        note=f"{type(exc).__name__}: {exc}",
                    )
                )

        # scalar relations produce several named residuals per draw
        rng = np.random.default_rng([seed, sidx, 900])
        sampler = _Sampler(rng)
        agg: dict[str, list[float]] = {}
        pts: dict[str, tuple] = {}
        try:
            for _ in range(samples):
                args = sampler.draw(4, scalar_ok)
                for key, val in check_scalar_relations(spec, *args).items():
                    agg.setdefault(key, []).append(val)
                    if val >= max(agg[key]):
                        pts[key] = args
            for key, vals in agg.items():
                worst = max(vals)
                results.append(
                    CheckResult(
                        check=key,
                        family=spec.family.value,
                        n_even=spec.dim.n_even,
                        n_odd=spec.dim.n_odd,
                        samples=samples,
                        tolerance=tol[key],
                        max_residual=worst,
                        mean_residual=float(np.mean(vals)),
                        worst_point={f"arg{i}": _cpx(v) for i, v in enumerate(pts[key])},
                        resamples=sampler.resamples,
                        verdict="pass" if worst <= tol[key] else "fail",
                    )
                )
        except Exception as exc:
            results.append(
                CheckResult(
                    check="scalar_relations",
                    family=spec.family.value,
                    n_even=spec.dim.n_even,
                    n_odd=spec.dim.n_odd,
                    samples=0,
                    tolerance=tol["scalar_a11"],
                    max_residual=float("inf"),
                    mean_residual=float("inf"),
                    worst_point={},
                    resamples=0,
                    verdict="error",
                    note=f"{type(exc).__name__}: {exc}",
                )
            )

    cfg = {
        "seed": seed,
        "samples": samples,
        "specs": [str(s) for s in specs],
        "tolerances": tol,
    }
    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]
    from . import __version__

    report = VerificationReport(
        seed=seed,
        samples=samples,
        specs=[str(s) for s in specs],
        results=results,
        config_hash=digest,
        version=__version__,
        wall_time=time.perf_counter() - start,
    )
    return report


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
