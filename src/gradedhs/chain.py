"""Long-range spin chains frozen at the equidistant equilibrium.

Positions are pinned to x_k = k / L.  The first two Hamiltonians are the
ordered R-matrix products

    H1 = sum_{k<i} Rb_{i-1,i} ... Rb_{k+1,i} Rb_{k,i} Fb_{i,k}
                   Rb_{i,k+1} ... Rb_{i,i-1}

with Rb_{ij} the normalized R-matrix and Fb its spectral derivative, both
evaluated at x_i - x_j, and an analogous three-block expression for H2
carrying the phi-product weights of each site pair.  A general H_k comes
from the first-order expansion of the k-th spin difference operator in
the shift step: apply the operator to constant vectors, so only the right
R-product arguments carry the step, and differentiate each shifted factor
in turn (replace it by the derivative matrix).  For k = 1 that expansion
carries an overall constant, the common phi-product at equilibrium, which
the closed form above drops; :func:`htilde1_constant` reports it.

The shift-parameter-free limit hbar -> 0 of H1 / hbar is extracted by
Richardson extrapolation over a geometric hbar ladder and compared with
closed-form target operators (graded exchange chain, or its anisotropic
variant for the cyclic-invariant family).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .gradedcore import (
    ChainOperator,
    GradedDim,
    LocalOperator,
    PivotLadder,
    ProductTerm,
    graded_permutation,
    identity_operator,
    matrix_units,
)
from .qmrops import DifferenceOperator, _phi_prefactor
from .rmatrix import (
    RFamily,
    RMatrixSpec,
    build_f_derivative,
    build_r_normalized,
    c_matrix,
    c_prefactor,
    gauge_matrix,
    phi,
)

#: default deformation parameter for chain experiments (real, off-resonance)
DEFAULT_HBAR = 0.3

_FLOOR = 1e-300


def equilibrium_points(length: int) -> np.ndarray:
    """Equidistant equilibrium x_k = k / L, k = 1..L."""
    return np.arange(1, length + 1) / float(length)


@dataclass(frozen=True)
class FrozenChain:
    """An R-matrix spec frozen at equilibrium with its Hamiltonian family."""

    spec: RMatrixSpec
    length: int
    x: tuple[float, ...]
    hamiltonians: Mapping[int, ChainOperator]


def frozen_chain(spec: RMatrixSpec, length: int, orders: Sequence[int] = (1, 2)) -> FrozenChain:
    hams = {}
    for k in orders:
        if k == 1:
            hams[k] = hamiltonian_h1(spec, length)
        elif k == 2:
            hams[k] = hamiltonian_h2(spec, length)
        else:
            hams[k] = htilde_k(spec, length, k)
    return FrozenChain(spec, length, tuple(equilibrium_points(length)), hams)


# ---------------------------------------------------------------------------
# phi-sum identities at equilibrium
# ---------------------------------------------------------------------------


def phi_sum_identity(length: int, k: int, l: int, m: int, hbar: complex = DEFAULT_HBAR) -> float:
    """| sum_{|I|=k, l in I} prod phi - sum_{|I|=k, m in I} prod phi | at x.

    Evaluated in extended precision: the pinned sums grow to ~1e5 already at
    L = 6, so the absolute residual of the identity sits below the double
    noise floor (and below the sensitivity to rounding x_k = k/L itself).
    """
    if not (1 <= k <= length and 1 <= l <= length and 1 <= m <= length):
        raise ValueError("indices out of range")
    import mpmath as mp

    with mp.workdps(40):
        h = mp.mpc(complex(hbar))
        cot = lambda w: mp.cos(w) / mp.sin(w)
        cot_h = cot(mp.pi * h)
        x = [mp.mpf(idx) / length for idx in range(1, length + 1)]
        cache = {}

        def phi_mp(idx_j: int, idx_i: int):
            key = (idx_j, idx_i)
            if key not in cache:
                cache[key] = mp.pi * (cot_h + cot(mp.pi * (x[idx_j - 1] - x[idx_i - 1])))
            return cache[key]

        def pinned_sum(pin: int):
            total = mp.mpc(0)
            for subset in combinations(range(1, length + 1), k):
                if pin not in subset:
                    continue
                prod = mp.mpc(1)
                for i in subset:
                    for j in range(1, length + 1):
                        if j not in subset:
                            prod *= phi_mp(j, i)
                total += prod
            return total

        return float(abs(pinned_sum(l) - pinned_sum(m)))


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


class _EquilibriumFactors:
    """Rb_{ij} and Fb_{ij} at the equilibrium differences x_i - x_j, each
    built once per exact argument within one Hamiltonian build.  The key is
    the float x_i - x_j itself, not i - j: (i - j) / L and x_i - x_j round
    differently for different i."""

    def __init__(self, spec: RMatrixSpec, length: int):
        self.spec = spec
        self.x = equilibrium_points(length)
        self._built: dict = {}

    def rb(self, i: int, j: int) -> LocalOperator:
        return self._get("rb", build_r_normalized, i, j)

    def fb(self, i: int, j: int) -> LocalOperator:
        return self._get("fb", build_f_derivative, i, j)

    def _get(self, kind: str, build, i: int, j: int) -> LocalOperator:
        z = self.x[i - 1] - self.x[j - 1]
        key = (kind, z)
        op = self._built.get(key)
        if op is None:
            op = self._built[key] = build(self.spec, z)
        return op


def hamiltonian_h1(spec: RMatrixSpec, length: int) -> ChainOperator:
    """First chain Hamiltonian as a sum over pivots i of P_i^{-1} dP_i,
    P_i = Rb_{i1} ... Rb_{i,i-1}, reduced with Rb_{ki} Rb_{ik} = 1 to

        sum_{k<i} Rb_{i-1,i} ... Rb_{k,i} Fb_{i,k} Rb_{i,k+1} ... Rb_{i,i-1}.

    Each pivot is one :class:`PivotLadder` with steps Rb_{i,i-t}, rungs
    Fb_{i,i-t} and step-backs Rb_{i-t,i}, so applying it (and building its
    dense form) takes 4i - 6 factor applications per pivot; ``terms`` lists
    the expanded products, pair by pair (k ascending within each i).
    """
    fac = _EquilibriumFactors(spec, length)
    ladders = [
        PivotLadder(
            steps=tuple(((i, i - t), fac.rb(i, i - t)) for t in range(1, i - 1)),
            rungs=tuple(((i, i - t), fac.fb(i, i - t)) for t in range(1, i)),
            backs=tuple(((i - t, i), fac.rb(i - t, i)) for t in range(1, i)),
        )
        for i in range(2, length + 1)
    ]
    return ChainOperator(spec.dim, length, ladders=ladders)


def hamiltonian_h2(spec: RMatrixSpec, length: int) -> ChainOperator:
    """Second chain Hamiltonian: three derivative blocks per pair m < l,
    weighted by the pair's phi products over the spectator sites."""
    fac = _EquilibriumFactors(spec, length)
    x = fac.x
    terms = []
    for m in range(1, length + 1):
        for l in range(m + 1, length + 1):
            pref = 1.0 + 0.0j
            for j in range(1, length + 1):
                if j not in (m, l):
                    pref *= phi(spec.hbar, x[j - 1] - x[m - 1]) * phi(
                        spec.hbar, x[j - 1] - x[l - 1]
                    )
            # derivative inside the m-pivot product, i < m
            for i in range(1, m):
                factors = []
                for j in range(m - 1, i - 1, -1):
                    factors.append(((j, m), fac.rb(j, m)))
                factors.append(((m, i), fac.fb(m, i)))
                for j in range(i + 1, m):
                    factors.append(((m, j), fac.rb(m, j)))
                terms.append(ProductTerm(pref, tuple(factors)))
            # derivative inside the l-pivot product, i < m, wrapped by the
            # full m-pivot products
            for i in range(1, m):
                factors = []
                for j in range(m - 1, 0, -1):
                    factors.append(((j, m), fac.rb(j, m)))
                for j in [jj for jj in range(l - 1, m, -1)] + [jj for jj in range(m - 1, i - 1, -1)]:
                    factors.append(((j, l), fac.rb(j, l)))
                factors.append(((l, i), fac.fb(l, i)))
                for j in [jj for jj in range(i + 1, m)] + [jj for jj in range(m + 1, l)]:
                    factors.append(((l, j), fac.rb(l, j)))
                for j in range(1, m):
                    factors.append(((m, j), fac.rb(m, j)))
                terms.append(ProductTerm(pref, tuple(factors)))
            # derivative inside the l-pivot product, m < i < l
            for i in range(m + 1, l):
                factors = []
                for j in range(l - 1, i - 1, -1):
                    if j == m:
                        continue
                    factors.append(((j, l), fac.rb(j, l)))
                factors.append(((l, i), fac.fb(l, i)))
                for j in range(i + 1, l):
                    if j == m:
                        continue
                    factors.append(((l, j), fac.rb(l, j)))
                terms.append(ProductTerm(pref, tuple(factors)))
    return ChainOperator.from_terms(spec.dim, length, terms)


def htilde_k(spec: RMatrixSpec, length: int, k: int) -> ChainOperator:
    """Matrix part of the first-order shift expansion of the k-th spin
    operator at equilibrium (derivative hits each right-block factor)."""
    fac = _EquilibriumFactors(spec, length)
    terms = []
    for term in DifferenceOperator(k, length).subset_terms():
        pref = _phi_prefactor(spec.hbar, fac.x, term.subset)
        left = tuple((sites, fac.rb(*sites)) for sites in term.left_sites)
        for dpos in range(len(term.right_sites)):
            right = tuple((sites, (fac.fb if q == dpos else fac.rb)(*sites))
                          for q, sites in enumerate(term.right_sites))
            terms.append(ProductTerm(pref, left + right))
    return ChainOperator.from_terms(spec.dim, length, terms)


def htilde1_constant(spec: RMatrixSpec, length: int) -> complex:
    """The site-independent phi product dropped from the closed-form H1."""
    x = equilibrium_points(length)
    return complex(np.prod([phi(spec.hbar, x[j] - x[0]) for j in range(1, length)]))


def c_factorized_h1(spec: RMatrixSpec, length: int) -> ChainOperator:
    """H1 rebuilt from the constant two-site factor (n = 2 uq family only):

    H1 = sum_{k<i} w(x_i - x_k) Rb_{i-1,i} ... Rb_{k+1,i} C_{k,i}
                   Rb_{i,k+1} ... Rb_{i,i-1}
    """
    C = c_matrix(spec)
    fac = _EquilibriumFactors(spec, length)
    x = fac.x
    terms = []
    for i in range(2, length + 1):
        for k in range(1, i):
            w = c_prefactor(spec, x[i - 1] - x[k - 1])
            factors = []
            for j in range(i - 1, k, -1):
                factors.append(((j, i), fac.rb(j, i)))
            factors.append(((k, i), C))
            for j in range(k + 1, i):
                factors.append(((i, j), fac.rb(i, j)))
            terms.append(ProductTerm(w, tuple(factors)))
    return ChainOperator.from_terms(spec.dim, length, terms)


# ---------------------------------------------------------------------------
# shift-parameter-free (nonrelativistic) limits
# ---------------------------------------------------------------------------


def nonrelativistic_limit_h1(
    spec: RMatrixSpec,
    length: int,
    hbar_ladder: Sequence[float] = (1e-3, 5e-4, 2.5e-4, 1.25e-4),
) -> ChainOperator:
    """Richardson-extrapolated limit of H1 / hbar as hbar -> 0.

    H1 / hbar is a power series in hbar, so each column of the Neville
    tableau over the ladder (ratio 1/2) removes one more power; the last
    two entries of the final row give the error estimate.
    """
    if len(hbar_ladder) < 2 or any(
        not math.isclose(b / a, 0.5, rel_tol=1e-12) for a, b in zip(hbar_ladder, hbar_ladder[1:])
    ):
        raise ValueError("the hbar ladder must have two or more levels with ratio 1/2")

    def f(h: float) -> np.ndarray:
        sp = RMatrixSpec(spec.family, spec.dim, h)
        return hamiltonian_h1(sp, length).to_dense() / h

    row = [f(hbar_ladder[0])]
    for h in hbar_ladder[1:]:
        new = [f(h)]
        for k, prev in enumerate(row, start=1):
            new.append((2.0 ** k * new[-1] - prev) / (2.0 ** k - 1.0))
        row = new
    limit = row[-1]
    err = np.linalg.norm(limit - row[-2]) / (np.linalg.norm(limit) + _FLOOR)
    if err > 1e-5:
        raise RuntimeError(f"Richardson extrapolation did not settle (estimate {err:.2e})")
    return ChainOperator(spec.dim, length, dense=limit)


def haldane_shastry_target(dim: GradedDim, length: int) -> ChainOperator:
    """pi^2 sum_{k<i} (1 - P_{ki}) / sin^2(pi (x_i - x_k)), graded exchange."""
    x = equilibrium_points(length)
    P = graded_permutation(dim)
    one = identity_operator(dim, 2)
    terms = []
    for i in range(2, length + 1):
        for k in range(1, i):
            w = math.pi ** 2 / math.sin(math.pi * (x[i - 1] - x[k - 1])) ** 2
            terms.append(ProductTerm(w, (((k, i), one - P),)))
    return ChainOperator.from_terms(dim, length, terms)


def anisotropic_target(dim: GradedDim, length: int) -> ChainOperator:
    """Anisotropic limit of the mixed-parity n = 2 cyclic-invariant chain:

    pi^2 sum_{k<i} [ (e11 x e22 + e22 x e11 + 2 e22 x e22)
                     + cos(pi(x_i-x_k)) (e12 x e21 - e21 x e12) ]
                   / sin^2(pi(x_i-x_k)),

    the two-site operator acting on sites (k, i) in that slot order.
    """
    if dim.n != 2 or dim.n_odd != 1:
        raise ValueError("this target is for the mixed-parity two-dimensional case")
    x = equilibrium_points(length)
    diag = (
        matrix_units(dim, [(1, 1), (2, 2)])
        + matrix_units(dim, [(2, 2), (1, 1)])
        + 2.0 * matrix_units(dim, [(2, 2), (2, 2)])
    )
    flip = matrix_units(dim, [(1, 2), (2, 1)]) - matrix_units(dim, [(2, 1), (1, 2)])
    terms = []
    for i in range(2, length + 1):
        for k in range(1, i):
            d = x[i - 1] - x[k - 1]
            s2 = math.sin(math.pi * d) ** 2
            terms.append(ProductTerm(math.pi ** 2 / s2, (((k, i), diag),)))
            terms.append(
                ProductTerm(math.pi ** 2 * math.cos(math.pi * d) / s2, (((k, i), flip),))
            )
    return ChainOperator.from_terms(dim, length, terms)


def limit_target(spec: RMatrixSpec, length: int) -> ChainOperator:
    """Closed-form target for the hbar -> 0 limit of H1 / hbar."""
    if spec.family is RFamily.UQ_GLNM:
        return haldane_shastry_target(spec.dim, length)
    if spec.dim.n == 2 and spec.dim.n_odd == 1:
        return anisotropic_target(spec.dim, length)
    raise ValueError(f"no closed-form limit target for {spec}")


def site_gauge_conjugation(dim: GradedDim, length: int) -> np.ndarray:
    """Diagonal of the site-wise gauge product G(x_1) (x) ... (x) G(x_L)."""
    x = equilibrium_points(length)
    U = np.eye(1, dtype=complex)
    for k in range(length):
        U = np.kron(U, gauge_matrix(dim, x[k]))
    return U


# ---------------------------------------------------------------------------
# spectra and exports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues (sorted by real, then imaginary part) with degeneracy
    clusters at the documented absolute tolerance."""

    eigenvalues: np.ndarray
    clusters: tuple[tuple[complex, int], ...]
    cluster_tol: float

    @property
    def degeneracies(self) -> tuple[int, ...]:
        return tuple(mult for _, mult in self.clusters)


def spectrum(op: ChainOperator, cluster_tol: float = 1e-8) -> SpectrumResult:
    """Full complex spectrum of the realized operator, clustered by
    single linkage at absolute tolerance ``cluster_tol``."""
    vals = np.linalg.eigvals(op.realize())
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    m = len(vals)
    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(m):
        j = i + 1
        while j < m and vals[j].real - vals[i].real <= cluster_tol:
            if abs(vals[j] - vals[i]) <= cluster_tol:
                parent[find(i)] = find(j)
            j += 1
    groups: dict[int, list[complex]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(vals[i])
    clusters = sorted(
        ((complex(np.mean(g)), len(g)) for g in groups.values()),
        key=lambda c: (c[0].real, c[0].imag),
    )
    return SpectrumResult(vals, tuple(clusters), cluster_tol)


def spectrum_to_csv(result: SpectrumResult, path) -> None:
    """One row per degeneracy cluster: re, im, multiplicity."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re,im,multiplicity\n")
        for value, mult in result.clusters:
            fh.write(f"{value.real!r},{value.imag!r},{mult}\n")


_BINARY_MAGIC = b"GHSCHOP1"
_FAMILY_TAGS = {RFamily.UQ_GLNM: 0, RFamily.ZN_GRADED: 1}


def save_operator_binary(op: ChainOperator, spec: RMatrixSpec, path) -> None:
    """Dump the realized matrix: 8-byte magic, uint32 n, L, family tag,
    float64 hbar (re, im), then row-major interleaved re/im float64."""
    mat = op.realize()
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<III", op.dim.n, op.length, _FAMILY_TAGS[spec.family]))
        fh.write(struct.pack("<dd", spec.hbar.real, spec.hbar.imag))
        inter = np.empty(mat.size * 2, dtype="<f8")
        inter[0::2] = mat.real.ravel()
        inter[1::2] = mat.imag.ravel()
        fh.write(inter.tobytes())


def load_operator_binary(path) -> tuple[np.ndarray, dict]:
    """Read a matrix dump; returns (matrix, header dict)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _BINARY_MAGIC:
            raise ValueError(f"not an operator dump (magic {magic!r})")
        n, length, tag = struct.unpack("<III", fh.read(12))
        hre, him = struct.unpack("<dd", fh.read(16))
        d = n ** length
        raw = np.frombuffer(fh.read(16 * d * d), dtype="<f8")
    mat = (raw[0::2] + 1j * raw[1::2]).reshape(d, d)
    header = {"n": n, "length": length, "family_tag": tag, "hbar": complex(hre, him)}
    return mat, header
