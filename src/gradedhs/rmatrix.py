"""Two families of graded trigonometric R-matrices and their scalar kernels.

Both families act on C^(N|M) (x) C^(N|M) and depend on a spectral
parameter z and a deformation parameter hbar (q = exp(i pi hbar)).  With
p_a the parity of direction a and n = N + M:

* ``UQ_GLNM`` (quantized-superalgebra family)::

      R(z) = sum_a pi ((-1)^{p_a} cot(pi z) + cot(pi hbar)) e_aa (x) e_aa
           + pi / sin(pi hbar) sum_{a != b} e_aa (x) e_bb
           + pi / sin(pi z) sum_{a < b} ((-1)^{p_b} e_ab (x) e_ba e^{i pi z}
                                       + (-1)^{p_a} e_ba (x) e_ab e^{-i pi z})

* ``ZN_GRADED`` (graded cyclic-invariant family): same diagonal, while the
  a != c blocks carry weights exp(i pi w mu_ac) with
  mu_ac = (2(a-c) - n sign(a-c)) / n, w the respective argument (hbar for
  the e_aa (x) e_cc block, z for the flip block).

Every entry is built from four scalar kernels (phi, f, g_diag, g_flip);
the normalized matrix is R / phi(hbar, z) and satisfies
Rbar_12(z) Rbar_21(-z) = Id.  Entry-wise z-derivatives of the normalized
matrix are available in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gradedcore import (
    GradedDim,
    LocalOperator,
    _swap_legs as r_transposed,  # leg exchange P op P, public here
    super_multiply,
)

#: evaluation closer than this to a pole raises PoleError
POLE_EPS = 1e-12


class PoleError(ValueError):
    """An argument sits on (or numerically too close to) a pole lattice."""


class FactorizationError(RuntimeError):
    """A constant-operator factorization did not hold to tolerance."""


class RFamily(str, Enum):
    UQ_GLNM = "uq"
    ZN_GRADED = "zn"


@dataclass(frozen=True)
class RMatrixSpec:
    """Identity of an R-matrix: family, graded dimension, deformation hbar."""

    family: RFamily
    dim: GradedDim
    hbar: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", RFamily(self.family))
        object.__setattr__(self, "hbar", complex(self.hbar))
        if _dist_to_int(self.hbar) <= POLE_EPS:
            raise PoleError(f"hbar={self.hbar} is congruent to 0 mod 1")

    def __str__(self) -> str:
        return f"{self.family.value}{self.dim}"


def _dist_to_int(z: complex) -> float:
    z = complex(z)
    return abs(z - round(z.real))


def _require_off_lattice(name: str, z: complex, eps: float = POLE_EPS) -> None:
    if _dist_to_int(z) <= eps:
        raise PoleError(f"{name}={z} is within {eps} of an integer")


def cot(z: complex) -> complex:
    return cmath.cos(z) / cmath.sin(z)


def phi(hbar: complex, z: complex) -> complex:
    """Trigonometric Kronecker kernel pi cot(pi hbar) + pi cot(pi z).

    Equals pi sin(pi (hbar + z)) / (sin(pi hbar) sin(pi z)); symmetric in
    its two arguments.
    """
    _require_off_lattice("hbar", hbar)
    _require_off_lattice("z", z)
    return math.pi * (cot(math.pi * hbar) + cot(math.pi * z))


def zn_exponent(a: int, c: int, n: int) -> float:
    """Weight exponent mu_ac = (2(a-c) - n sign(a-c)) / n (1-based a, c)."""
    return (2.0 * (a - c) - n * sign_int(a - c)) / n


def sign_int(k: int) -> int:
    return (k > 0) - (k < 0)


@dataclass(frozen=True)
class ScalarKernel:
    """Evaluable scalar kernels of one R-matrix family.

    ``f`` is the diagonal kernel, ``g_diag``/``g_flip`` the coefficients of
    the e_aa (x) e_cc and e_ac (x) e_ca blocks (the latter without its
    (-1)^{p_c} prefactor), ``g_tilde`` the constant kernel pi / sin(pi x)
    of the quantized-superalgebra family.
    """

    spec: RMatrixSpec

    def phi(self, hbar: complex, z: complex) -> complex:
        return phi(hbar, z)

    def f(self, a: int, z: complex, hbar: complex) -> complex:
        """Diagonal kernel pi ((-1)^{p_a} cot(pi z) + cot(pi hbar))."""
        _require_off_lattice("z", z)
        _require_off_lattice("hbar", hbar)
        sgn = -1.0 if self.spec.dim.parity(a) else 1.0
        return math.pi * (sgn * cot(math.pi * z) + cot(math.pi * hbar))

    def g_tilde(self, x: complex) -> complex:
        _require_off_lattice("x", x)
        return math.pi / cmath.sin(math.pi * x)

    def g_flip(self, a: int, c: int, z: complex) -> complex:
        """Flip-block kernel; has a simple pole (residue 1) at integer z."""
        if a == c:
            raise ValueError("flip kernel needs distinct indices")
        _require_off_lattice("z", z)
        n = self.spec.dim.n
        if self.spec.family is RFamily.ZN_GRADED:
            mu = zn_exponent(a, c, n)
        else:
            mu = float(sign_int(c - a))
        return math.pi * cmath.exp(1j * math.pi * z * mu) / cmath.sin(math.pi * z)

    def g_diag(self, a: int, c: int, hbar: complex) -> complex:
        """Coefficient of e_aa (x) e_cc for a != c."""
        if a == c:
            raise ValueError("off-diagonal kernel needs distinct indices")
        if self.spec.family is RFamily.ZN_GRADED:
            return self.g_flip(a, c, hbar)
        return self.g_tilde(hbar)

    def rebuild(self, z: complex) -> LocalOperator:
        """R-matrix reassembled from the kernels (cross-check route)."""
        spec = self.spec
        n = spec.dim.n
        p = spec.dim.parities
        R = np.zeros((n * n, n * n), dtype=complex)
        for a in range(1, n + 1):
            R[_dd(a, a, n)] = self.f(a, z, spec.hbar)
        for a in range(1, n + 1):
            for c in range(1, n + 1):
                if a == c:
                    continue
                R[_dd(a, c, n)] = self.g_diag(a, c, spec.hbar)
                R[_fl(a, c, n)] = (-1.0) ** p[c - 1] * self.g_flip(a, c, z)
        return LocalOperator(spec.dim, 2, R)


def scalar_kernels(spec: RMatrixSpec) -> ScalarKernel:
    return ScalarKernel(spec)


def _dd(a: int, c: int, n: int) -> tuple[int, int]:
    """Entry position of e_aa (x) e_cc (1-based)."""
    r = (a - 1) * n + (c - 1)
    return r, r


def _fl(a: int, c: int, n: int) -> tuple[int, int]:
    """Entry position of e_ac (x) e_ca (1-based)."""
    return (a - 1) * n + (c - 1), (c - 1) * n + (a - 1)


def _check_r_args(spec: RMatrixSpec, z: complex) -> None:
    _require_off_lattice("z", z)
    _require_off_lattice("hbar", spec.hbar)
    _require_off_lattice("z+hbar", z + spec.hbar)


def build_r(spec: RMatrixSpec, z: complex) -> LocalOperator:
    """Unnormalized R-matrix of the requested family at spectral point z."""
    _check_r_args(spec, z)
    n = spec.dim.n
    p = spec.dim.parities
    h = spec.hbar
    R = np.zeros((n * n, n * n), dtype=complex)
    cot_z = cot(math.pi * z)
    cot_h = cot(math.pi * h)
    inv_sin_z = 1.0 / cmath.sin(math.pi * z)
    inv_sin_h = 1.0 / cmath.sin(math.pi * h)
    for a in range(1, n + 1):
        sgn = -1.0 if p[a - 1] else 1.0
        R[_dd(a, a, n)] = math.pi * (sgn * cot_z + cot_h)
    if spec.family is RFamily.UQ_GLNM:
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a != b:
                    R[_dd(a, b, n)] = math.pi * inv_sin_h
        ez = cmath.exp(1j * math.pi * z)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                R[_fl(a, b, n)] = (-1.0) ** p[b - 1] * math.pi * inv_sin_z * ez
                R[_fl(b, a, n)] = (-1.0) ** p[a - 1] * math.pi * inv_sin_z / ez
    else:
        for a in range(1, n + 1):
            for c in range(1, n + 1):
                if a == c:
                    continue
                mu = zn_exponent(a, c, n)
                R[_dd(a, c, n)] = math.pi * inv_sin_h * cmath.exp(1j * math.pi * h * mu)
                R[_fl(a, c, n)] = (
                    (-1.0) ** p[c - 1] * math.pi * inv_sin_z * cmath.exp(1j * math.pi * z * mu)
                )
    return LocalOperator(spec.dim, 2, R)


def build_r_normalized(spec: RMatrixSpec, z: complex) -> LocalOperator:
    """R divided by phi(hbar, z); satisfies Rbar_12(z) Rbar_21(-z) = Id."""
    _check_r_args(spec, z)
    return build_r(spec, z) / phi(spec.hbar, z)


def normalized_closed_form(spec: RMatrixSpec, z: complex) -> LocalOperator:
    """Normalized R-matrix from per-entry closed forms (cross-check route).

    Diagonal entries are sin(pi(z + (-1)^{p_a} hbar)) / sin(pi(z + hbar));
    the other blocks scale the unnormalized weights by
    sin(pi z) sin(pi hbar) / (pi sin(pi(z + hbar))).
    """
    _check_r_args(spec, z)
    n = spec.dim.n
    p = spec.dim.parities
    h = spec.hbar
    S = cmath.sin(math.pi * (z + h))
    R = np.zeros((n * n, n * n), dtype=complex)
    for a in range(1, n + 1):
        sgn = -1.0 if p[a - 1] else 1.0
        R[_dd(a, a, n)] = cmath.sin(math.pi * (z + sgn * h)) / S
    for a in range(1, n + 1):
        for c in range(1, n + 1):
            if a == c:
                continue
            if spec.family is RFamily.ZN_GRADED:
                mu = zn_exponent(a, c, n)
                wd = cmath.exp(1j * math.pi * h * mu)
                wf = cmath.exp(1j * math.pi * z * mu)
            else:
                wd = 1.0
                wf = cmath.exp(1j * math.pi * z * sign_int(c - a))
            R[_dd(a, c, n)] = wd * cmath.sin(math.pi * z) / S
            R[_fl(a, c, n)] = (-1.0) ** p[c - 1] * wf * cmath.sin(math.pi * h) / S
    return LocalOperator(spec.dim, 2, R)


def build_f_derivative(spec: RMatrixSpec, z: complex) -> LocalOperator:
    """Entry-wise analytic z-derivative of the normalized R-matrix."""
    _check_r_args(spec, z)
    n = spec.dim.n
    p = spec.dim.parities
    h = spec.hbar
    S = cmath.sin(math.pi * (z + h))
    C = cmath.cos(math.pi * (z + h))
    F = np.zeros((n * n, n * n), dtype=complex)
    # d/dz [ sin(pi(z+c1)) / sin(pi(z+c2)) ] = pi sin(pi(c2-c1)) / sin(pi(z+c2))^2
    for a in range(1, n + 1):
        if p[a - 1]:
            F[_dd(a, a, n)] = math.pi * cmath.sin(2 * math.pi * h) / S ** 2
    for a in range(1, n + 1):
        for c in range(1, n + 1):
            if a == c:
                continue
            if spec.family is RFamily.ZN_GRADED:
                mu = zn_exponent(a, c, n)
                wd = cmath.exp(1j * math.pi * h * mu)
            else:
                mu = float(sign_int(c - a))
                wd = 1.0
            F[_dd(a, c, n)] = wd * math.pi * cmath.sin(math.pi * h) / S ** 2
            K = (-1.0) ** p[c - 1] * cmath.sin(math.pi * h)
            F[_fl(a, c, n)] = (
                K
                * cmath.exp(1j * math.pi * z * mu)
                * (1j * math.pi * mu * S - math.pi * C)
                / S ** 2
            )
    return LocalOperator(spec.dim, 2, F)


# ---------------------------------------------------------------------------
# constant two-site factor of the first chain Hamiltonian (n = 2 families)
# ---------------------------------------------------------------------------


def c_prefactor(spec: RMatrixSpec, delta: complex) -> complex:
    """Scalar weight -pi sin(pi h) / (sin pi(h+delta) sin pi(h-delta))."""
    h = spec.hbar
    return (
        -math.pi
        * cmath.sin(math.pi * h)
        / (cmath.sin(math.pi * (h + delta)) * cmath.sin(math.pi * (h - delta)))
    )


def c_matrix(spec: RMatrixSpec, fit_tol: float = 1e-10) -> LocalOperator:
    """Constant operator C with Rbar_12(v-u) Fbar_21(u-v) = prefactor * C.

    Only the quantized-superalgebra family at n = 2 factorizes this way.
    The operator is extracted at five spectral points; if the five results
    disagree beyond ``fit_tol`` a FactorizationError is raised.
    """
    if spec.family is not RFamily.UQ_GLNM:
        raise ValueError("the constant factorization requires the uq family")
    if spec.dim.n != 2:
        raise ValueError("the constant factorization requires n = 2")
    probes = [
        (0.17 + 0.09j + 0.03 * t, 0.43 + 0.21j + 0.05 * t) for t in range(5)
    ]
    samples = []
    for u, v in probes:
        rb = build_r_normalized(spec, v - u)
        fb21 = r_transposed(build_f_derivative(spec, u - v))
        C = super_multiply(rb, fb21) / c_prefactor(spec, u - v)
        samples.append(C.entries)
    mean = np.mean(samples, axis=0)
    dev = max(np.linalg.norm(s - mean) for s in samples) / (np.linalg.norm(mean) + 1e-300)
    if dev > fit_tol:
        raise FactorizationError(
            f"two-site factor is not constant (deviation {dev:.3e} > {fit_tol:.1e})"
        )
    return LocalOperator(spec.dim, 2, mean)


def c_matrix_closed_form(spec: RMatrixSpec) -> LocalOperator:
    """Closed form of the constant two-site factor for n = 2.

    Purely even case:  e^{-i pi h} e11 (x) e22 - e12 (x) e21
                       - e21 (x) e12 + e^{i pi h} e22 (x) e11.
    Mixed-parity case: + sign on e12 (x) e21 and an extra
                       2 cos(pi h) e22 (x) e22.
    """
    if spec.family is not RFamily.UQ_GLNM or spec.dim.n != 2:
        raise ValueError("closed form only covers the uq family at n = 2")
    h = spec.hbar
    n = 2
    C = np.zeros((4, 4), dtype=complex)
    C[_dd(1, 2, n)] = cmath.exp(-1j * math.pi * h)
    C[_dd(2, 1, n)] = cmath.exp(1j * math.pi * h)
    if spec.dim.n_odd == 0:
        C[_fl(1, 2, n)] = -1.0
        C[_fl(2, 1, n)] = -1.0
    else:
        C[_fl(1, 2, n)] = 1.0
        C[_fl(2, 1, n)] = -1.0
        C[_dd(2, 2, n)] = 2.0 * cmath.cos(math.pi * h)
    return LocalOperator(spec.dim, 2, C)


# ---------------------------------------------------------------------------
# twist, gauge, quasi-periodicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistData:
    """Diagonal matrices relating the two families.

    ``gauge`` is the site gauge G(u), ``twist`` the two-leg twist F_12(hbar)
    (trivial for n = 2), ``periodicity`` the root-of-unity matrix Q with
    R(z+1) = (Q (x) 1) R(z) (Q^-1 (x) 1) for the cyclic-invariant family.
    The integer sign entering the twist exponents is :func:`sign_int`.
    """

    gauge: np.ndarray
    twist: LocalOperator
    periodicity: np.ndarray


def gauge_matrix(dim: GradedDim, u: complex) -> np.ndarray:
    n = dim.n
    return np.diag([cmath.exp(2j * math.pi * j * u / n) for j in range(n)])


def twist_matrix(dim: GradedDim, hbar: complex) -> LocalOperator:
    n = dim.n
    F = np.zeros((n * n, n * n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r = (i - 1) * n + (j - 1)
            F[r, r] = cmath.exp(
                1j * math.pi * hbar * (2 * (i - j) - n * sign_int(i - j)) / (2 * n)
            )
    return LocalOperator(dim, 2, F)


def periodicity_matrix(dim: GradedDim) -> np.ndarray:
    n = dim.n
    return np.diag([cmath.exp(2j * math.pi * j / n) for j in range(1, n + 1)])


def twist_data(spec: RMatrixSpec, u: complex) -> TwistData:
    return TwistData(
        gauge=gauge_matrix(spec.dim, u),
        twist=twist_matrix(spec.dim, spec.hbar),
        periodicity=periodicity_matrix(spec.dim),
    )


def residue_at_zero(spec: RMatrixSpec) -> LocalOperator:
    """Analytic residue of R(z) at z = 0.

    pi cot(pi z) and the flip kernels all carry unit residue (the weight
    exponentials evaluate to 1 at z = 0), so the residue assembles the
    graded permutation; it is returned from those per-kernel residues, not
    from graded_permutation, so the two routes stay independent.
    """
    n = spec.dim.n
    p = spec.dim.parities
    R = np.zeros((n * n, n * n), dtype=complex)
    for a in range(1, n + 1):
        R[_dd(a, a, n)] = -1.0 if p[a - 1] else 1.0
    for a in range(1, n + 1):
        for c in range(1, n + 1):
            if a != c:
                # residue of g_flip at z=0: exp(0) * residue(pi / sin(pi z))
                R[_fl(a, c, n)] = (-1.0) ** p[c - 1] * 1.0
    return LocalOperator(spec.dim, 2, R)
