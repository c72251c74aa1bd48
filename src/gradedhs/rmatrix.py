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
from functools import lru_cache

import numpy as np

from .gradedcore import (
    GradedDim,
    LocalOperator,
    _parities,
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
        if not cmath.isfinite(self.hbar):
            raise PoleError(f"hbar={self.hbar} is not finite")
        if _dist_to_int(self.hbar) <= POLE_EPS:
            raise PoleError(f"hbar={self.hbar} is congruent to 0 mod 1")

    def __str__(self) -> str:
        return f"{self.family.value}{self.dim}"


def _dist_to_int(z: complex) -> float:
    z = complex(z)
    return abs(z - round(z.real))


def _require_off_lattice(name: str, z, eps: float = POLE_EPS) -> None:
    """Raise PoleError if z, or any point of an array z, is within eps of an
    integer; for an array the message names the first such point."""
    if isinstance(z, np.ndarray):
        if z.size > 1:
            near = np.hypot(z.real - np.round(z.real), z.imag) <= eps
            if not near.any():
                return
            z = z.ravel()[np.argmax(near.ravel())]
        z = complex(z.item())
    if _dist_to_int(z) <= eps:
        raise PoleError(f"{name}={z} is within {eps} of an integer")


# Complex products, quotients and moduli on arrays, rounded as Python's
# complex type rounds them (numpy's own loops fuse or reorder the terms,
# and its complex abs is not libm's hypot, which moves the last bit).  The
# battery needs that exactness: its residuals are rounding noise (1e-18 to
# 1e-14), so a row's worst point is the largest of that noise.  With
# numpy's own *, / and abs in their place, the seed-7 battery reports
# another worst point in 75 of its 177 rows, and its uq(1|0) aybe maximum
# moves from 5.0e-15 to 2.8e-14.  With these helpers the array builders
# give the entries of the one-point formulas wherever numpy's complex sin,
# cos and exp round as cmath's do, and elsewhere agree to a few units in
# the last place.


def _cmul(a, b):
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return complex(a) * complex(b)
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out[()]


def _cdiv(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    # Smith's scaling by the larger part of b, both branches written as one
    big = np.abs(b.real) >= np.abs(b.imag)
    hi, lo = np.where(big, b.real, b.imag), np.where(big, b.imag, b.real)
    ratio = lo / hi
    denom = hi + lo * ratio
    re = (np.where(big, a.real, a.imag) + np.where(big, a.imag, a.real) * ratio) / denom
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = (np.where(big, a.imag, a.imag * ratio)
                - np.where(big, a.real * ratio, a.real)) / denom
    return out[()]


def _cabs(a):
    return np.hypot(a.real, a.imag)


def cot(z):
    if isinstance(z, np.ndarray):
        return _cdiv(np.cos(z), np.sin(z))
    return cmath.cos(z) / cmath.sin(z)


def _csc(z):
    if isinstance(z, np.ndarray):
        return _cdiv(1.0, np.sin(z))
    return 1.0 / cmath.sin(z)


def phi(hbar, z):
    """Trigonometric Kronecker kernel pi cot(pi hbar) + pi cot(pi z).

    Equals pi sin(pi (hbar + z)) / (sin(pi hbar) sin(pi z)); symmetric in
    its two arguments.  Either argument may be an array.
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
    of the quantized-superalgebra family.  Every kernel takes a point or an
    array of points.
    """

    spec: RMatrixSpec

    def phi(self, hbar, z):
        return phi(hbar, z)

    def f(self, a: int, z, hbar):
        """Diagonal kernel pi ((-1)^{p_a} cot(pi z) + cot(pi hbar))."""
        _require_off_lattice("z", z)
        _require_off_lattice("hbar", hbar)
        sgn = -1.0 if self.spec.dim.parity(a) else 1.0
        return math.pi * (sgn * cot(math.pi * z) + cot(math.pi * hbar))

    def g_tilde(self, x):
        _require_off_lattice("x", x)
        return _cdiv(math.pi, np.sin(math.pi * x))

    def g_flip(self, a: int, c: int, z):
        """Flip-block kernel; has a simple pole (residue 1) at integer z."""
        if a == c:
            raise ValueError("flip kernel needs distinct indices")
        _require_off_lattice("z", z)
        n = self.spec.dim.n
        if self.spec.family is RFamily.ZN_GRADED:
            mu = zn_exponent(a, c, n)
        else:
            mu = float(sign_int(c - a))
        return _cdiv(math.pi * np.exp(1j * math.pi * z * mu), np.sin(math.pi * z))

    def g_diag(self, a: int, c: int, hbar):
        """Coefficient of e_aa (x) e_cc for a != c."""
        if a == c:
            raise ValueError("off-diagonal kernel needs distinct indices")
        if self.spec.family is RFamily.ZN_GRADED:
            return self.g_flip(a, c, hbar)
        return self.g_tilde(hbar)

    def rebuild(self, z):
        """R-matrix reassembled from the kernels (cross-check route).

        For an array of points it returns the stacked entries, shape
        ``z.shape + (n^2, n^2)``.
        """
        spec = self.spec
        n = spec.dim.n
        p = spec.dim.parities
        R = np.zeros(np.shape(z) + (n * n, n * n), dtype=complex)
        for a in range(1, n + 1):
            R[(..., *_dd(a, a, n))] = self.f(a, z, spec.hbar)
        for a in range(1, n + 1):
            for c in range(1, n + 1):
                if a == c:
                    continue
                R[(..., *_dd(a, c, n))] = self.g_diag(a, c, spec.hbar)
                R[(..., *_fl(a, c, n))] = (-1.0) ** p[c - 1] * self.g_flip(a, c, z)
        return R if np.ndim(z) else LocalOperator(spec.dim, 2, R)


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


@lru_cache(maxsize=None)  # one entry per (family, grading)
def _r_layout(family: RFamily, n_even: int, n_odd: int):
    """Flat entry positions of R and the constants each entry carries.

    Returns ``(diag, diag_sign, off, mu_d, flip, flip_sign, mu_f)``: the
    e_aa (x) e_aa positions with (-1)^{p_a}; the e_aa (x) e_cc positions
    (a != c) with their weight exponents; the e_ac (x) e_ca positions with
    (-1)^{p_c} and their exponents.  Positions index the raveled n^2 x n^2
    array.
    """
    n = n_even + n_odd
    p = _parities(n_even, n_odd)
    a = np.arange(n)
    A, C = np.nonzero(~np.eye(n, dtype=bool))  # pairs a != c, row-major
    diag = (a * n + a) * (n * n + 1)
    off = (A * n + C) * (n * n + 1)
    flip = (A * n + C) * n * n + (C * n + A)
    if family is RFamily.ZN_GRADED:
        mu_d = mu_f = (2.0 * (A - C) - n * np.sign(A - C)) / n
    else:
        mu_d, mu_f = np.zeros(A.size), np.sign(C - A).astype(float)
    out = (diag, 1.0 - 2.0 * p, off, mu_d, flip, 1.0 - 2.0 * p[C], mu_f)
    for arr in out:
        arr.flags.writeable = False
    return out


def _r_entries(family: RFamily, dim: GradedDim, hbar, z) -> np.ndarray:
    """Raveled R entries at one point (numbers hbar, z: shape (n^4,)) or at
    (S, 1) arrays of points (shape (S, n^4)).

    Each entry block is one expression over the cached layout of (family,
    dim); every entry rounds as its entry-by-entry formula with Python
    complex arithmetic does (the tests keep that formula as
    ``r_entry_reference``).
    """
    _require_off_lattice("z", z)
    _require_off_lattice("hbar", hbar)
    _require_off_lattice("z+hbar", z + hbar)
    diag, diag_sign, off, mu_d, flip, flip_sign, mu_f = _r_layout(family, dim.n_even, dim.n_odd)
    R = np.zeros(np.shape(z)[:-1] + (dim.n ** 4,), dtype=complex)
    R[..., diag] = math.pi * (diag_sign * cot(math.pi * z) + cot(math.pi * hbar))
    w_off, w_flip = math.pi * _csc(math.pi * hbar), math.pi * _csc(math.pi * z)
    # the flip signs (-1)^{p_c} factor out of the products exactly
    if family is RFamily.UQ_GLNM:
        ez = np.exp(1j * math.pi * z)
        R[..., off] = w_off
        # e^{-i pi z} enters as numpy's quotient by e^{i pi z}, as in the
        # entry formula, whose sign is a numpy float
        R[..., flip] = flip_sign * np.where(mu_f > 0.0, _cmul(w_flip, ez), np.divide(w_flip, ez))
    else:
        R[..., off] = _cmul(w_off, np.exp(1j * math.pi * hbar * mu_d))
        R[..., flip] = flip_sign * _cmul(w_flip, np.exp(1j * math.pi * z * mu_f))
    return R


def build_r_stack(family: RFamily, dim: GradedDim, hbar, z) -> np.ndarray:
    """Unnormalized R-matrices at the points of broadcast 1-D arrays hbar, z.

    Returns the (S, n^2, n^2) stack of coefficient arrays, each equal to
    ``build_r`` at its point.  Raises PoleError if any z, hbar or z + hbar
    is within POLE_EPS of an integer.
    """
    z, hbar = np.broadcast_arrays(
        np.atleast_1d(np.asarray(z, dtype=complex)), np.atleast_1d(np.asarray(hbar, dtype=complex))
    )
    n = dim.n
    return _r_entries(RFamily(family), dim, hbar[:, None], z[:, None]).reshape(-1, n * n, n * n)


def build_r(spec: RMatrixSpec, z: complex) -> LocalOperator:
    """Unnormalized R-matrix of the requested family at spectral point z."""
    n = spec.dim.n
    entries = _r_entries(spec.family, spec.dim, spec.hbar, z)
    return LocalOperator(spec.dim, 2, entries.reshape(n * n, n * n))


def build_r_normalized(spec: RMatrixSpec, z: complex) -> LocalOperator:
    """R divided by phi(hbar, z); satisfies Rbar_12(z) Rbar_21(-z) = Id.
    ``build_r`` makes the pole checks."""
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
