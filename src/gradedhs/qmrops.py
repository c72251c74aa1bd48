"""Scalar and graded spin Ruijsenaars-Macdonald difference operators.

The scalar operators act on functions of L complex positions:

    D_k f = sum_{|I|=k} prod_{i in I, j not in I} phi(z_j - z_i)
            f(..., z_i - eta for i in I, ...).

The spin operators insert ordered products of normalized two-site
R-matrices around the shifts.  For the index subset I = (i_1 < ... < i_k)
the ordering conventions are

* left block, slots t = 1..k left to right; slot t is the descending
  product Rbar_{j, i_t}(z_j - z_{i_t}) over j = i_t - 1 .. 1, j not in I;

* right block, slots t = k..1 left to right; slot t is the ascending
  product Rbar_{i_t, j}(z_{i_t} - eta - z_j) over j = 1 .. i_t - 1,
  j not in I (the shift has already hit the first argument).

Each operator is evaluated as a plain function of a point: the value of
D_k f at z calls f, itself a function of a point, at the shifted
positions.  A composition D_k D_l f is D_k applied to the function
z -> (D_l f)(z), so it evaluates the exact shift action on the test
functions and there is no interpolation error anywhere.  Subsets are
enumerated lexicographically and subset sums use a fixed pairwise (tree)
reduction.

The normalized R-factors act on vectors through the factor plans of
``gradedcore`` (one diagonal and one swap pass per factor, O(n^L) work
each), never as embedded n^L x n^L matrices.  The plans live in a
:class:`FactorStore` that the caller creates, one per (spec, site
positions), and passes to :func:`commutator_eval`; it is shared by both
operators of a commutator and every nested evaluation, so each distinct
factor is built once.  The probe functions of one call run together as
the columns of a (n^L, P) block, so each plan pass serves all of them.
A call without a store makes its own.

The commutativity of the spin operators is equivalent to a family of
four-block R-matrix identities in the *unnormalized* matrices; those are
assembled by :func:`f_identity`, each four-block product as the factor
plans applied to the identity columns.  The unnormalized plans sit in the
same store, apart from the normalized ones, so one store per (spec, site
positions) serves every order, every eta and the commutator probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .gradedcore import (GradedDim, LocalOperator, _apply_plans, _check_flip_form, _FactorPlan,
                         sigma_mask)
from .gradedcore import embed_realized  # noqa: F401  (perfbench/tracing.py wraps this name)
from .rmatrix import (_LATTICE_MARGIN, PoleError, RMatrixSpec, _dist_to_int, build_r,
                      build_r_normalized, phi)

_FLOOR = 1e-300


@dataclass(frozen=True)
class SiteConfig:
    """Positions, shift step and deformation parameter for L sites."""

    length: int
    z: tuple[complex, ...]
    eta: complex
    hbar: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", tuple(complex(v) for v in self.z))
        if len(self.z) != self.length:
            raise ValueError("need one position per site")
        self.validate_shifts(1)
        # from two sites on, a value that is not finite fails a difference
        if not np.isfinite(np.array([*self.z, self.eta, self.hbar], dtype=complex)).all():
            raise PoleError("positions, eta and hbar must be finite to stay off the pole "
                            f"lattice: z={self.z}, eta={self.eta}, hbar={self.hbar}")

    def validate_shifts(self, depth: int) -> None:
        """Require all pairwise differences, eta-shifted up to ``depth``
        times and optionally hbar-shifted, to be finite and stay off the
        integer lattice; PoleError names the first three (i, j, m, s)."""
        z = np.array(self.z)
        i, j = np.nonzero(~np.eye(self.length, dtype=bool))  # pairs i != j, row-major
        m, s = np.arange(-depth, depth + 1), np.arange(2)
        with np.errstate(invalid="ignore"):  # inf * 0 reads as a NaN gap
            v = (z[i] - z[j])[:, None, None] + (m * self.eta)[:, None] + s * self.hbar
        bad = [(int(i[p]) + 1, int(j[p]) + 1, int(m[q]), int(s[r]))
               for p, q, r in np.argwhere(~(_dist_to_int(v) > _LATTICE_MARGIN))[:3]]
        if bad:
            raise PoleError(f"site differences too close to the pole lattice: {bad}")


def _shifted(z: np.ndarray, subset: Sequence[int], eta: complex) -> np.ndarray:
    """Positions z with z_i -> z_i - eta for the 1-based sites i in subset."""
    zs = z.copy()
    for i in subset:
        zs[i - 1] -= eta
    return zs


@dataclass(frozen=True)
class TestFunction:
    """Finite sum of (vector- or scalar-valued) exponentials of L positions.

    Each term is (coefficient, frequency vector m in Z^L) and contributes
    coefficient * exp(2 pi i m . z).  Shifting z_i -> z_i - eta multiplies
    the term by exp(-2 pi i m_i eta), so the family is closed under the
    shift operators.
    """

    __test__ = False  # not a pytest case, despite the name

    length: int
    terms: tuple[tuple[np.ndarray | complex, tuple[int, ...]], ...]

    def value(self, z: Sequence[complex]):
        z = np.asarray(z, dtype=complex)
        total = None
        for coeff, freq in self.terms:
            ph = np.exp(2j * np.pi * np.dot(np.array(freq, dtype=float), z))
            contrib = coeff * ph
            total = contrib if total is None else total + contrib
        return total

    def shift(self, site: int, eta: complex) -> "TestFunction":
        """Exact image under z_site -> z_site - eta (site 1-based)."""
        terms = tuple(
            (coeff * np.exp(-2j * np.pi * freq[site - 1] * eta), freq)
            for coeff, freq in self.terms
        )
        return TestFunction(self.length, terms)


def random_test_function(
    length: int,
    rng: np.random.Generator,
    dim: GradedDim | None = None,
    n_terms: int = 3,
    max_freq: int = 2,
) -> TestFunction:
    """Random probe with integer frequencies in [-max_freq, max_freq]."""
    terms = []
    for _ in range(n_terms):
        freq = tuple(int(v) for v in rng.integers(-max_freq, max_freq + 1, size=length))
        if dim is None:
            coeff = complex(rng.standard_normal(), rng.standard_normal())
        else:
            d = dim.n ** length
            coeff = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        terms.append((coeff, freq))
    return TestFunction(length, tuple(terms))


def _tree_sum(items: list):
    """Pairwise reduction in a fixed order (deterministic rounding)."""
    if not items:
        raise ValueError("nothing to sum")
    work = list(items)
    while len(work) > 1:
        nxt = []
        for i in range(0, len(work) - 1, 2):
            nxt.append(work[i] + work[i + 1])
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def _check_spec_cfg(spec: RMatrixSpec, cfg: SiteConfig) -> None:
    if abs(spec.hbar - cfg.hbar) > 1e-14:
        raise ValueError("spec.hbar and cfg.hbar disagree")


def _check_order(k: int, length: int) -> None:
    if not 1 <= k <= length:
        raise ValueError(f"order k={k} out of range 1..{length}")


# ---------------------------------------------------------------------------
# scalar operators
# ---------------------------------------------------------------------------


def _phi_prefactor(hbar: complex, z: np.ndarray, phi_pairs) -> complex:
    """Product of phi(z_j - z_i) over the (outside j, inside i) pairs."""
    pref = 1.0 + 0.0j
    for j, i in phi_pairs:
        pref *= phi(hbar, z[j - 1] - z[i - 1])
    return pref


def _scalar_d_value(k: int, hbar: complex, eta: complex, f, z: np.ndarray):
    vals = []
    for term in DifferenceOperator(k, len(z)).subset_terms():
        vals.append(_phi_prefactor(hbar, z, term.phi_pairs) * f(_shifted(z, term.subset, eta)))
    return _tree_sum(vals)


def scalar_d(k: int, cfg: SiteConfig, f) -> complex:
    """Value of the k-th scalar difference operator applied to f at cfg.z."""
    _check_order(k, cfg.length)
    return _scalar_d_value(k, cfg.hbar, cfg.eta, f.value, np.array(cfg.z, dtype=complex))


# ---------------------------------------------------------------------------
# spin operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetTerm:
    """One index subset of a difference operator with its factor structure.

    ``left_sites`` and ``right_sites`` hold the (row, column) site pairs of
    the R-factors in product order (leftmost factor first); the first site
    of each right factor is the one whose argument carries the shift.
    ``phi_pairs`` are the (outside, inside) site pairs of the coefficient.
    """

    subset: tuple[int, ...]
    phi_pairs: tuple[tuple[int, int], ...]
    left_sites: tuple[tuple[int, int], ...]
    right_sites: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DifferenceOperator:
    """Symbolic structure of the order-k difference operator on L sites.

    Lists, per subset I = (i_1 < ... < i_k), the ordered factor blocks: the
    left block runs slots t = 1..k, each a descending product of
    Rbar_{j, i_t} over j < i_t outside I; the right block is the left one
    read backwards with each factor's sites exchanged: slots t = k..1, each
    an ascending product of Rbar_{i_t, j} over j < i_t outside I, evaluated
    at shifted first arguments.
    """

    order: int
    length: int

    def __post_init__(self) -> None:
        if not 1 <= self.order <= self.length:
            raise ValueError(f"order {self.order} out of range 1..{self.length}")

    @lru_cache(maxsize=None)  # one entry per (order, length)
    def subset_terms(self) -> tuple[SubsetTerm, ...]:
        k, L = self.order, self.length
        terms = []
        for subset in combinations(range(1, L + 1), k):
            inside = set(subset)
            phi_pairs = tuple(
                (j, i) for i in subset for j in range(1, L + 1) if j not in inside
            )
            left = tuple((j, it) for t, it in enumerate(subset)
                         for j in range(it - 1, 0, -1) if j not in subset[:t])
            right = tuple((i, j) for (j, i) in reversed(left))
            terms.append(SubsetTerm(subset, phi_pairs, left, right))
        return tuple(terms)


class FactorStore:
    """Factor plans of one spec at one set of site positions.

    Every two-site factor is held as a ``_FactorPlan`` keyed by (i, j, exact
    argument), with the normalized Rbar of the spin operators and the
    unnormalized R of the four-block identities kept apart.  Each is built
    once however many operators, nested evaluations, probe functions,
    orders and eta values reach it.  Per (order, evaluation point) the store
    also keeps the spin operators' subset recipes at its own eta:
    phi-prefactor, shifted point and the plans in application order.  Only
    the plans' O(n^2) weights are held, never L-leg matrices.  Create one
    per (spec, site positions) and pass it to every evaluation that shares
    them; its lifetime is the caller's.
    """

    def __init__(self, spec: RMatrixSpec, cfg: SiteConfig):
        _check_spec_cfg(spec, cfg)
        self.spec = spec
        self.length = cfg.length
        self.z = cfg.z
        self.eta = cfg.eta
        self._plans: dict = {}
        self._recipes: dict = {}

    def check(self, spec: RMatrixSpec, cfg: SiteConfig, any_eta: bool = False) -> None:
        """Refuse a spec or positions the stored factors do not belong to,
        and, unless ``any_eta``, another eta than the recipes'."""
        _check_spec_cfg(spec, cfg)
        if spec != self.spec or cfg.z != self.z or not (any_eta or cfg.eta == self.eta):
            raise ValueError("factor store was built for another spec or configuration")

    def plan(self, i: int, j: int, arg: complex, normalized: bool = True) -> _FactorPlan:
        key = (normalized, i, j, arg)
        plan = self._plans.get(key)
        if plan is None:
            op = (build_r_normalized if normalized else build_r)(self.spec, arg)
            _check_flip_form(op, (i, j))
            plan = self._plans[key] = _FactorPlan(self.spec.dim, (i, j), op)
        return plan

    def recipe(self, k: int, z: np.ndarray) -> list:
        """(prefactor, shifted point, plans in application order) per subset."""
        key = (k, z.tobytes())
        recipe = self._recipes.get(key)
        if recipe is None:
            eta = self.eta
            recipe = []
            for term in DifferenceOperator(k, self.length).subset_terms():
                # factors act on the vector from the right end of the product string
                plans = [self.plan(i, j, z[i - 1] - eta - z[j - 1])
                         for (i, j) in reversed(term.right_sites)]
                plans += [self.plan(j, i, z[j - 1] - z[i - 1])
                          for (j, i) in reversed(term.left_sites)]
                recipe.append((_phi_prefactor(self.spec.hbar, z, term.phi_pairs),
                               _shifted(z, term.subset, eta), plans))
            self._recipes[key] = recipe
        return recipe


def _store_for(spec: RMatrixSpec, cfg: SiteConfig, store: FactorStore | None,
               any_eta: bool = False) -> FactorStore:
    """A new store for (spec, cfg), or ``store`` once it is checked to hold
    their factors (at any eta, with ``any_eta``)."""
    if store is None:
        return FactorStore(spec, cfg)
    store.check(spec, cfg, any_eta)
    return store


class ProbeBlock:
    """Vector-valued test functions evaluated together as one (d, P) block.

    Column p of :meth:`value` is ``functions[p].value(z)``.  The coefficients
    (P, T, d) and frequencies (P, T, L) are stacked, shorter term lists
    padded with zero terms, so one vectorised expression evaluates all P.
    """

    def __init__(self, functions: Sequence[TestFunction]):
        functions = list(functions)
        if not functions:
            raise ValueError("need at least one probe function")
        length = functions[0].length
        if any(f.length != length for f in functions):
            raise ValueError("probe functions disagree on the number of sites")
        n_terms = max(len(f.terms) for f in functions)
        d = max((np.size(c) for f in functions for c, _ in f.terms), default=1)
        self.coeffs = np.zeros((len(functions), n_terms, d), dtype=complex)
        self.freqs = np.zeros((len(functions), n_terms, length))
        for p, f in enumerate(functions):
            for t, (coeff, freq) in enumerate(f.terms):
                self.coeffs[p, t] = coeff
                self.freqs[p, t] = freq

    def value(self, z: Sequence[complex]) -> np.ndarray:
        ph = np.exp(2j * np.pi * (self.freqs @ np.asarray(z, dtype=complex)))
        return np.ascontiguousarray(np.einsum("ptd,pt->dp", self.coeffs, ph))


def _spin_d_value(store: FactorStore, k: int, f, z: np.ndarray):
    bufs = None
    vals = []
    for pref, zs, plans in store.recipe(k, z):
        vec = np.ascontiguousarray(f(zs), dtype=complex)
        if bufs is None:
            bufs = [np.empty_like(vec) for _ in range(3)]
        vals.append(pref * _apply_plans(plans, vec, bufs))
    return _tree_sum(vals)


def spin_d(spec: RMatrixSpec, k: int, cfg: SiteConfig, f) -> np.ndarray:
    """Value of the k-th spin difference operator applied to f at cfg.z.

    Reduces to :func:`scalar_d` when the graded dimension is 1.
    """
    store = FactorStore(spec, cfg)
    _check_order(k, cfg.length)
    return _spin_d_value(store, k, f.value, np.array(cfg.z, dtype=complex))


def commutator_eval(
    spec: RMatrixSpec, cfg: SiteConfig, k: int, l: int, f, store: FactorStore | None = None
) -> float:
    """Largest normalized norm of ([D_k, D_l] f)(cfg.z) over the probes.

    ``f`` is one test function or a sequence of them; a sequence runs as one
    (d, P) block (:class:`ProbeBlock`) through every plan pass, and each
    column is normalized by its own norms.  Both operators and all nested
    evaluations share ``store``; without one, a store is made for this call.
    """
    probes = ProbeBlock([f] if isinstance(f, TestFunction) else f)
    store = _store_for(spec, cfg, store)
    cfg.validate_shifts(2)
    z0 = np.array(cfg.z, dtype=complex)

    def d(order, g):
        return lambda z: _spin_d_value(store, order, g, z)

    v_kl = d(k, d(l, probes.value))(z0)
    v_lk = d(l, d(k, probes.value))(z0)
    num = np.linalg.norm(v_kl - v_lk, axis=0)
    den = np.linalg.norm(v_kl, axis=0) + np.linalg.norm(v_lk, axis=0) + _FLOOR
    return float(np.max(num / den))


def scalar_commutator_eval(cfg: SiteConfig, k: int, l: int, f) -> float:
    """Normalized |([D_k, D_l] f)(cfg.z)| for the scalar operators."""
    cfg.validate_shifts(2)
    z0 = np.array(cfg.z, dtype=complex)

    def d(order, g):
        return lambda z: _scalar_d_value(order, cfg.hbar, cfg.eta, g, z)

    v_kl = d(k, d(l, f.value))(z0)
    v_lk = d(l, d(k, f.value))(z0)
    return float(abs(v_kl - v_lk) / (abs(v_kl) + abs(v_lk) + _FLOOR))


# ---------------------------------------------------------------------------
# the commutativity identities (four ordered R-product blocks)
# ---------------------------------------------------------------------------


def _four_block_sites(subset: tuple[int, ...], L: int) -> tuple[list, list]:
    """Factors of F+ and F- for one index subset, each as (i, j, shifted)
    for R_ij(z_i - z_j [- eta]) in product order (leftmost first).  F- is
    F+ read backwards with each factor's sites exchanged."""
    k = len(subset)
    inside = set(subset)
    plus: list = []
    # block 1: slots t = k..1; ascending l in (i_t, L], l not in later I
    for t in range(k - 1, -1, -1):
        later = set(subset[t + 1:])
        plus += [(subset[t], l, False) for l in range(subset[t] + 1, L + 1) if l not in later]
    # block 2: slots t = 1..k; descending j over all sites outside I
    for t in range(k):
        plus += [(j, subset[t], True) for j in range(L, 0, -1) if j not in inside]
    # block 3: slots t = k..1; ascending m in [1, i_t), m not in earlier I
    for t in range(k - 1, -1, -1):
        earlier = set(subset[:t])
        plus += [(subset[t], m, False) for m in range(1, subset[t]) if m not in earlier]
    return plus, [(j, i, s) for (i, j, s) in reversed(plus)]


def _f_identity_assembled(
    spec: RMatrixSpec, cfg: SiteConfig, k: int, store: FactorStore | None = None
):
    """The defect sum over subsets of (F- - F+), and the sum of ||F+|| + ||F-||.

    Each product is the store's unnormalized-R plans applied, rightmost
    factor first, to the identity columns.
    """
    store = _store_for(spec, cfg, store, any_eta=True)
    _check_order(k, cfg.length)
    L = cfg.length
    z = np.array(cfg.z, dtype=complex)
    eta = cfg.eta
    d = spec.dim.n ** L
    eye = np.eye(d, dtype=complex)
    tmp = np.empty((d, d), dtype=complex)
    bufs_plus = [np.empty((d, d), dtype=complex) for _ in range(2)] + [tmp]
    bufs_minus = [np.empty((d, d), dtype=complex) for _ in range(2)] + [tmp]

    def plans(sites):
        return [store.plan(i, j, z[i - 1] - z[j - 1] - (eta if shifted else 0.0), normalized=False)
                for (i, j, shifted) in reversed(sites)]

    total = np.zeros((d, d), dtype=complex)
    scale = 0.0
    for subset in combinations(range(1, L + 1), k):
        plus, minus = _four_block_sites(subset, L)
        fp = _apply_plans(plans(plus), eye, bufs_plus)
        fm = _apply_plans(plans(minus), eye, bufs_minus)
        total += fm - fp
        scale += np.linalg.norm(fp) + np.linalg.norm(fm)
    return LocalOperator(spec.dim, L, sigma_mask(spec.dim, L) * total), scale


def f_identity(spec: RMatrixSpec, cfg: SiteConfig, k: int) -> LocalOperator:
    """Assembled commutativity defect (should vanish) as an L-leg operator."""
    op, _ = _f_identity_assembled(spec, cfg, k)
    return op


def f_identity_residual(
    spec: RMatrixSpec, cfg: SiteConfig, k: int, store: FactorStore | None = None
) -> float:
    """Norm of the assembled defect over sum_I (||F+_I|| + ||F-_I||).

    Each product's norm is taken whole, so a defect that survives in any
    subset's product reads O(1), however large or small the single factors.
    ``store`` (any eta, same spec and positions) supplies the factor plans;
    without one, a store is made for this call.
    """
    op, scale = _f_identity_assembled(spec, cfg, k, store)
    return float(op.norm() / (scale + _FLOOR))


def f_identity_eta_spread(
    spec: RMatrixSpec,
    cfg: SiteConfig,
    k: int,
    etas: Sequence[complex],
    store: FactorStore | None = None,
) -> float:
    """Max residual over several eta values (the defect is eta-independent).

    A NaN residual counts as infinite, and an empty ``etas`` raises
    ``ValueError``.  All etas share ``store``, or one store made for this
    call.
    """
    if len(etas) == 0:
        raise ValueError("need at least one eta")
    store = _store_for(spec, cfg, store, any_eta=True)
    worst = 0.0
    for eta in etas:
        res = f_identity_residual(spec, replace(cfg, eta=eta), k, store=store)
        worst = max(worst, math.inf if math.isnan(res) else res)
    return worst
