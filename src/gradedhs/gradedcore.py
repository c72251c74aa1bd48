"""Z2-graded linear algebra on tensor powers of C^(N|M).

Basis conventions
-----------------
The graded space C^(N|M) has n = N + M basis directions; direction i
(1-based) carries parity 0 for i <= N and parity 1 for i > N.  Multi-leg
bases are ordered lexicographically with leg 1 slowest, i.e. the usual
Kronecker layout.

Operators are stored as *coefficient arrays* in the matrix-unit basis:
``entries[(a1..ak), (b1..bk)]`` is the coefficient of the tensor monomial
``e_{a1 b1} (x) ... (x) e_{ak bk}``.  Multiplication of such monomials
follows the Koszul rule

    (A1 (x) ... (x) Ak)(B1 (x) ... (x) Bk)
        = (-1)^{sum_{s<t} |At||Bs|} (A1 B1) (x) ... (x) (Ak Bk)

on homogeneous slots, extended bilinearly.  The coefficient array is
related to the matrix of the operator as a linear map by a fixed +-1 mask
(see :func:`sigma_mask`); the mask turns the Koszul product into a plain
matrix product, which keeps the hot path in BLAS.  When M = 0 every sign
is +1 and all of this reduces to ordinary linear algebra.

Embedding a two-leg operator at legs (i, j) is an index placement in the
coefficient basis: entries only move, and the Koszul sign
(-1)^{|e_ab||e_cd|} appears only when i > j puts its legs in the other
order (see :func:`_placement`).

States live in (C^(N|M))^{(x) L}.  A chain operator is a sum of products
of embedded two-site factors, given as factor terms or as pivot ladders
(:class:`PivotLadder`, the form of H1 and H2).  A ladder holds one
pivot's whole R-string P and its inverse, step by step, with one weight
per rung, and the operator checks once per distinct pair that every
step-back inverts its step.  Every factor has one form: a diagonal block
e_aa (x) e_cc plus a flip block e_ac (x) e_ca, as are R, its
normalization and derivative in both families, the constant factor C and
the limit targets; a factor with any other entry is refused.  Each is
applied matrix-free as a factor plan, one diagonal and one weighted-swap
pass: terms one by one, ladders by one descent and one climb each, which
never applies P's last step.  Up to n^L = DENSE_SITE_CAP the climb reads
the descent states it kept, which needs no unitarity; above the cap it
recomputes them with the step-backs, in constant memory.  Each ladder
climbs in its leg frame, the plain reversal of legs 1..p for p its
largest site, where the factor next to the pivot at distance delta sits
at (1, delta + 1): the ladders share those plans, and the factors applied
most get the longest trailing strides.  The reversal is a plain
transpose: its Koszul sign would depend only on the number of odd labels
on legs 1..p, which a flip-form factor keeps.  Such factors conserve
colour content, and one layer, :class:`_Sector`, holds what a content
sector needs: its states and the index maps over them.  :func:`apply`
runs on the content sectors that hold a state's nonzero amplitudes alone
when they fill at most half the space (a polarized state, a few magnons,
one filling): it gathers the sector's amplitudes and runs the same plans
through the same loops, each plan applied by the sector as
out = diag[dcode] v + swap[scode] v[partner] with the weights gathered
from the plan, and each frame as a permutation of the sector, and gives
the same bits as the strided route over all n^L amplitudes, which serves
every other state.  The dense form is the realized matrix kept as one
block per content sector, over that sector's states; the full matrix is
assembled from the blocks afresh on each call.  The blocks are built on
first use, up to n^L = DENSE_SITE_CAP, by running the strided evaluation
over a probe that holds the k-th state of every content sector in its
column k, so no d x d factor matrix is formed and the probe has only as
many columns as the largest sector has states: H1 and H2 of uq(1|1) at
L = 10 (d = 1024) take about 1.4 s together on one core.  The placement
routines (:func:`embed_local`, :func:`embed_realized`) and
:func:`super_multiply` take any two-leg operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

#: largest n**L for which chain operators are materialized densely
DENSE_SITE_CAP = 4096

#: amplitudes per column block when a dense form is built from factor plans;
#: 1 MiB buffers stay near cache size (2**20 ran 1.5x slower at d = 4096)
_DENSE_BLOCK_AMPS = 1 << 16

_NORM_FLOOR = 1e-300


@dataclass(frozen=True)
class GradedDim:
    """Graded dimension N|M: N even directions followed by M odd ones."""

    n_even: int
    n_odd: int

    def __post_init__(self) -> None:
        if self.n_even < 0 or self.n_odd < 0:
            raise ValueError("graded dimensions must be nonnegative")
        if self.n_even + self.n_odd < 1:
            raise ValueError("total dimension must be at least 1")

    @property
    def n(self) -> int:
        return self.n_even + self.n_odd

    @property
    def parities(self) -> np.ndarray:
        return _parities(self.n_even, self.n_odd)

    def parity(self, index: int) -> int:
        """Parity of basis direction ``index`` (1-based)."""
        if not 1 <= index <= self.n:
            raise ValueError(f"index {index} out of range 1..{self.n}")
        return 0 if index <= self.n_even else 1

    def __str__(self) -> str:
        return f"({self.n_even}|{self.n_odd})"


@lru_cache(maxsize=None)
def _parities(n_even: int, n_odd: int) -> np.ndarray:
    p = np.array([0] * n_even + [1] * n_odd, dtype=np.int64)
    p.flags.writeable = False
    return p


def parity(dim: GradedDim, index: int) -> int:
    """Parity of basis direction ``index`` (1-based) of ``dim``."""
    return dim.parity(index)


@lru_cache(maxsize=None)
def _leg_labels(n: int, legs: int) -> np.ndarray:
    """Array (legs, n**legs): label of each leg for every flat basis index."""
    lab = np.indices((n,) * legs).reshape(legs, n ** legs)
    lab.flags.writeable = False
    return lab


@lru_cache(maxsize=None)
def _sigma_mask_cached(parities: tuple[int, ...], legs: int) -> np.ndarray:
    p = np.array(parities, dtype=np.int64)
    n = len(p)
    lab = _leg_labels(n, legs)
    pa = p[lab]  # (legs, dim) slot parities
    prefix = np.zeros_like(pa)
    if legs > 1:
        prefix[1:] = np.cumsum(pa[:-1], axis=0)
    expo = pa.T @ prefix + np.sum(pa * prefix, axis=0)[None, :]
    mask = np.where(expo % 2 == 0, 1, -1).astype(np.int8)
    mask.flags.writeable = False
    return mask


def sigma_mask(dim: GradedDim, legs: int) -> np.ndarray:
    """Sign mask relating coefficient arrays to linear-map matrices.

    For a coefficient array X the matrix of the operator acting on states
    is ``sigma * X``; the map is an algebra isomorphism, i.e.
    ``mat(X *super* Y) = mat(X) @ mat(Y)``.
    """
    return _sigma_mask_cached(tuple(dim.parities), legs)


@dataclass(frozen=True)
class LocalOperator:
    """Dense operator on ``legs`` graded tensor factors (coefficient array)."""

    dim: GradedDim
    legs: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        d = self.dim.n ** self.legs
        ent = np.asarray(self.entries, dtype=complex)
        if ent.shape != (d, d):
            raise ValueError(f"entries must be {d}x{d}, got {ent.shape}")
        object.__setattr__(self, "entries", ent)

    def realize(self) -> np.ndarray:
        """Matrix of the operator as a linear map on states (a fresh array)."""
        return sigma_mask(self.dim, self.legs) * self.entries

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def homogeneous_part(self, degree: int) -> "LocalOperator":
        """Projection onto monomials of total parity ``degree`` (0 or 1)."""
        mask = _total_parity_mask(tuple(self.dim.parities), self.legs)
        keep = np.where(mask == degree, 1.0, 0.0)
        return LocalOperator(self.dim, self.legs, self.entries * keep)

    def __add__(self, other: "LocalOperator") -> "LocalOperator":
        _check_same_shape(self, other)
        return LocalOperator(self.dim, self.legs, self.entries + other.entries)

    def __sub__(self, other: "LocalOperator") -> "LocalOperator":
        _check_same_shape(self, other)
        return LocalOperator(self.dim, self.legs, self.entries - other.entries)

    def __mul__(self, scalar: complex) -> "LocalOperator":
        return LocalOperator(self.dim, self.legs, self.entries * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "LocalOperator":
        return LocalOperator(self.dim, self.legs, self.entries / scalar)

    def __neg__(self) -> "LocalOperator":
        return LocalOperator(self.dim, self.legs, -self.entries)

    def __matmul__(self, other: "LocalOperator") -> "LocalOperator":
        return super_multiply(self, other)


@lru_cache(maxsize=None)
def _total_parity_mask(parities: tuple[int, ...], legs: int) -> np.ndarray:
    p = np.array(parities, dtype=np.int64)
    lab = _leg_labels(len(p), legs)
    slot = p[lab]  # (legs, dim)
    row = np.sum(slot, axis=0)
    tot = (row[:, None] + row[None, :]) % 2
    tot.flags.writeable = False
    return tot


def _check_same_shape(a: LocalOperator, b: LocalOperator) -> None:
    if a.dim != b.dim or a.legs != b.legs:
        raise ValueError(f"operator mismatch: {a.dim}/{a.legs} legs vs {b.dim}/{b.legs} legs")


def identity_operator(dim: GradedDim, legs: int) -> LocalOperator:
    return LocalOperator(dim, legs, np.eye(dim.n ** legs, dtype=complex))


def matrix_units(dim: GradedDim, pairs: Sequence[tuple[int, int]]) -> LocalOperator:
    """Tensor monomial e_{i1 j1} (x) ... (x) e_{ik jk} (indices 1-based)."""
    n = dim.n
    out = np.ones((1, 1), dtype=complex)
    for (i, j) in pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"matrix-unit index ({i},{j}) out of range 1..{n}")
        unit = np.zeros((n, n), dtype=complex)
        unit[i - 1, j - 1] = 1.0
        out = np.kron(out, unit)
    return LocalOperator(dim, len(pairs), out)


def super_multiply(a: LocalOperator, b: LocalOperator) -> LocalOperator:
    """Product in the graded tensor algebra (Koszul signs on odd slots)."""
    _check_same_shape(a, b)
    s = sigma_mask(a.dim, a.legs)
    return LocalOperator(a.dim, a.legs, s * ((s * a.entries) @ (s * b.entries)))


def graded_permutation(dim: GradedDim) -> LocalOperator:
    """Parity-signed swap on two factors: sum_ij (-1)^{p_j} e_ij (x) e_ji."""
    n = dim.n
    p = dim.parities
    P = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            P[i * n + j, j * n + i] = -1.0 if p[j] else 1.0
    return LocalOperator(dim, 2, P)


# ---------------------------------------------------------------------------
# chain states and operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainState:
    """Vector in (C^(N|M))^{(x) L}."""

    dim: GradedDim
    length: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape != (self.dim.n ** self.length,):
            raise ValueError("amplitude vector has wrong length")
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def random_state(dim: GradedDim, length: int, rng: np.random.Generator) -> ChainState:
    d = dim.n ** length
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return ChainState(dim, length, v / np.linalg.norm(v))


@dataclass(frozen=True)
class ProductTerm:
    """One ordered product of embedded two-site factors, with a scalar weight.

    ``factors[(sites, op), ...]`` multiply left to right as operators, so the
    last factor acts on a state first.
    """

    coeff: complex
    factors: tuple[tuple[tuple[int, int], LocalOperator], ...]


#: largest ||s g - 1|| of a ladder's step pairs that a chain operator accepts
LADDER_UNITARITY_TOL = 1e-6


@dataclass(frozen=True)
class PivotLadder:
    """One pivot's R-string P = g_T ... g_1 and its inverse P^{-1} = s_1 ...
    s_T, with the weighted terms they carry:

        sum_{t=1..T} c_t s_1 s_2 ... s_t F_t g_{t-1} ... g_1

    read as operators (g_1 acts first), with ``steps`` (g_1 .. g_T),
    ``rungs`` (F_1 .. F_T) and step-backs ``backs`` (s_1 .. s_T), each a
    ``(sites, op)`` factor, and one weight c_t per rung (``weights``, all 1
    if not given).  A rung of weight 0 is skipped: it is not a term.  Each
    step-back must act on its step's sites; that it undoes its step,
    s_t g_t = 1, is checked by the :class:`ChainOperator` the ladder goes
    into.  The sum is evaluated as one climb (see :func:`_climb`), in 3T - 1
    factor applications up to ``DENSE_SITE_CAP`` and 4T - 2 above it,
    instead of the T(T + 1) in the expanded products; g_T closes the string
    and is never applied.  The climb runs in the frame that reverses legs
    1..p, p the ladder's largest site (see :func:`_plans_of`).
    """

    steps: tuple[tuple[tuple[int, int], LocalOperator], ...]
    rungs: tuple[tuple[tuple[int, int], LocalOperator], ...]
    backs: tuple[tuple[tuple[int, int], LocalOperator], ...]
    weights: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        depth = len(self.steps)
        if self.weights is None:
            object.__setattr__(self, "weights", (1.0,) * depth)
        if depth < 1 or {len(self.rungs), len(self.backs), len(self.weights)} != {depth}:
            raise ValueError(
                f"a ladder needs T >= 1 steps, rungs and step-backs, got "
                f"{depth}/{len(self.rungs)}/{len(self.backs)}, and one weight per rung, "
                f"got {len(self.weights)}"
            )
        for (gsites, _), (ssites, _) in zip(self.steps, self.backs):
            if gsites not in (ssites, ssites[::-1]):
                raise ValueError(f"step {gsites} and step-back {ssites} act on different sites")

    def terms(self) -> tuple[ProductTerm, ...]:
        """The expanded products of the nonzero rungs, t = T first."""
        return tuple(
            ProductTerm(c, self.backs[:t] + (self.rungs[t - 1],) + self.steps[:t - 1][::-1])
            for t, c in zip(range(len(self.rungs), 0, -1), self.weights[::-1]) if c
        )


def _check_step_pairs(ladders: Sequence[PivotLadder]) -> None:
    """Check s g = 1 for every distinct (step, step-back) pair of the
    ladders, once per pair, and raise ``ValueError`` naming the worst pair
    of the first ladder whose defect ||s g - 1|| exceeds
    ``LADDER_UNITARITY_TOL`` (a NaN defect counts as infinite)."""
    checked: set = set()
    for ladder in ladders:
        worst, pair = 0.0, None
        for (gsites, g), (ssites, s) in zip(ladder.steps, ladder.backs):
            if (key := (gsites, id(g), ssites, id(s))) in checked:  # the ladders keep them alive
                continue
            checked.add(key)
            if gsites != ssites:
                g = _swap_legs(g)
            defect = (super_multiply(s, g) - identity_operator(g.dim, 2)).norm()
            defect = math.inf if math.isnan(defect) else defect
            if defect > worst:
                worst, pair = defect, (ssites, gsites)
        if worst > LADDER_UNITARITY_TOL:
            raise ValueError(
                f"step-back at sites {pair[0]} does not invert the step at {pair[1]}: "
                f"||s g - 1|| = {worst:.2e} > {LADDER_UNITARITY_TOL:g}"
            )


class ChainOperator:
    """Operator on an L-site chain: a sum of products of embedded two-site
    factors, given as factor ``terms`` or as pivot ``ladders``.

    ``terms`` always lists the expanded products; an operator built from
    ladders keeps them and evaluates through the ladders.  It is applied
    matrix-free (see :func:`apply`).  Every factor must be a diagonal block
    e_aa (x) e_cc plus a flip block e_ac (x) e_ca, and every step-back of a
    ladder must invert its step; either fault raises ``ValueError`` here
    (each distinct factor at its sites, and each distinct pair, checked
    once).
    Such factors conserve colour content, so the dense form is the realized
    matrix as ``(indices, block)`` pairs, one per content sector (see
    :meth:`blocks`), built on first use (up to ``DENSE_SITE_CAP``) and kept;
    :meth:`realize` assembles a fresh full matrix from them on each call.
    """

    def __init__(
        self,
        dim: GradedDim,
        length: int,
        terms: Sequence[ProductTerm] | None = None,
        ladders: Sequence[PivotLadder] | None = None,
    ) -> None:
        if ladders is not None:
            if terms is not None:
                raise ValueError("give factor terms or pivot ladders, not both")
            ladders = tuple(ladders)
            _check_step_pairs(ladders)
            terms = [t for ladder in ladders for t in ladder.terms()]
        elif terms is None:
            raise ValueError("need factor terms or pivot ladders")
        self.dim = dim
        self.length = length
        self.ladders = ladders
        self.terms = tuple(terms)
        # the terms keep the factors alive, so their ids are distinct
        for sites, op in {(s, id(f)): (s, f) for t in self.terms for s, f in t.factors}.values():
            _check_factor(op, sites, length)
            if op.dim != dim:
                raise ValueError("factors must act on the chain dim")
            _check_flip_form(op, sites)
        self._plans: tuple | None = None  # see _plans_of
        self._blocks: tuple | None = None

    @property
    def hilbert_dim(self) -> int:
        return self.dim.n ** self.length

    @classmethod
    def from_terms(cls, dim: GradedDim, length: int, terms: Sequence[ProductTerm]) -> "ChainOperator":
        """Build from factor terms; the dense form follows on first use."""
        return cls(dim, length, terms=terms)

    def to_dense(self) -> np.ndarray:
        """Coefficient array of the full chain operator (computed per call)."""
        return sigma_mask(self.dim, self.length) * self.realize()

    def blocks(self) -> tuple:
        """The realized matrix as ``(indices, block)`` per sector: ``block``
        is its restriction to the ascending flat basis ``indices``, and every
        entry between two sectors is zero.  Every factor conserves colour
        content, so there is one sector per content, ordered by content.
        The ``indices`` are the read-only states of the sector's
        :class:`_Sector`, so operators of the same n and L share them while
        the sector cache keeps that sector."""
        if self._blocks is None:
            self._blocks = _realize_blocks(self)
        return self._blocks

    def realize(self) -> np.ndarray:
        """Matrix of the operator as a linear map on chain states, a fresh
        array assembled from the sector blocks."""
        d = self.hilbert_dim
        out = np.zeros((d, d), dtype=complex)
        for idx, block in self.blocks():
            out[np.ix_(idx, idx)] = block
        return out

    def norm(self) -> float:
        return math.hypot(*(float(np.linalg.norm(block)) for _, block in self.blocks()))

    def apply(self, state: ChainState) -> ChainState:
        return apply(self, state)


def _check_factor(op: LocalOperator, sites: tuple[int, int], length: int) -> None:
    """Guard of every placement: a two-leg operator at two distinct sites."""
    if op.legs != 2:
        raise ValueError(f"only two-leg operators can be embedded, got {op.legs} legs")
    i, j = sites
    if not (1 <= i <= length and 1 <= j <= length):
        raise ValueError(f"site pair ({i},{j}) out of range 1..{length}")
    if i == j:
        raise ValueError(f"site pair ({i},{j}) must be distinct")


# -- embedding --------------------------------------------------------------


@lru_cache(maxsize=256)  # keyed by (grading, sites, legs): a few dozen keys in use
def _placement(parities: tuple[int, ...], i: int, j: int, legs: int):
    """Index map that places a two-leg coefficient array at legs (i, j).

    Returns ``(dst, src, sign)`` with ``out.ravel()[dst] = X.ravel()[src] * sign``.
    The monomial e_ab (x) e_cd lands as e_ab at leg i and e_cd at leg j, the
    identity on every other leg.  The identity is even, so the only Koszul
    sign is (-1)^{|e_ab||e_cd|}, paid when i > j puts e_cd first.
    """
    p = np.array(parities, dtype=np.int64)
    n = len(p)
    stride = n ** np.arange(legs - 1, -1, -1)  # flat-index weight of each leg
    spectators = np.delete(stride, [i - 1, j - 1]) @ _leg_labels(n, legs - 2)
    a, c, b, d = np.indices((n,) * 4).reshape(4, -1)  # flat src order [(a, c), (b, d)]
    row = (a * stride[i - 1] + c * stride[j - 1])[:, None] + spectators
    col = (b * stride[i - 1] + d * stride[j - 1])[:, None] + spectators
    dst = (row * n ** legs + col).ravel()
    src = np.repeat(np.arange(n ** 4), spectators.size)
    odd = (p[a] + p[b]) * (p[c] + p[d]) % 2 if i > j else np.zeros_like(a)
    sign = np.repeat(1.0 - 2.0 * odd, spectators.size)
    for arr in (dst, src, sign):
        arr.flags.writeable = False
    return dst, src, sign


@lru_cache(maxsize=64)  # keyed by (grading, sites, legs), as _placement
def _realized_placement(parities: tuple[int, ...], i: int, j: int, legs: int):
    """:func:`_placement` with the sigma mask of the target folded into its
    sign, so the gather yields the realized (linear-map) matrix."""
    dst, src, sign = _placement(parities, i, j, legs)
    sign = sign * _sigma_mask_cached(parities, legs).ravel()[dst]
    sign.flags.writeable = False
    return dst, src, sign


def _embed_realized_stack(
    entries: np.ndarray, dim: GradedDim, sites: tuple[int, int], legs: int
) -> np.ndarray:
    """Realized matrices, shape (S, d, d), of a stack (S, n^2, n^2) of
    two-leg coefficient arrays placed at ``sites`` of ``legs`` legs."""
    dst, src, sign = _realized_placement(tuple(dim.parities), sites[0], sites[1], legs)
    d = dim.n ** legs
    out = np.zeros((len(entries), d * d), dtype=complex)
    out[:, dst] = entries.reshape(len(entries), -1)[:, src] * sign
    return out.reshape(-1, d, d)


def _embed_dense(op: LocalOperator, sites: tuple[int, int], legs: int) -> np.ndarray:
    """Coefficient array of a two-leg operator placed at ``sites``."""
    _check_factor(op, sites, legs)
    dst, src, sign = _placement(tuple(op.dim.parities), sites[0], sites[1], legs)
    d = op.dim.n ** legs
    out = np.zeros(d * d, dtype=complex)
    out[dst] = op.entries.ravel()[src] * sign
    return out.reshape(d, d)


def _swap_legs(op: LocalOperator) -> LocalOperator:
    """Two-leg operator with its legs exchanged: P . op . P under the graded
    product (exported as ``rmatrix.r_transposed``)."""
    return LocalOperator(op.dim, 2, _embed_dense(op, (2, 1), 2))


def embed_local(op: LocalOperator, sites: tuple[int, int], legs: int) -> LocalOperator:
    """Embed a two-leg operator into a ``legs``-leg LocalOperator."""
    return LocalOperator(op.dim, legs, _embed_dense(op, sites, legs))


def embed(op: LocalOperator, sites: tuple[int, int], length: int) -> ChainOperator:
    """Embed a two-leg operator at a site pair of an L-site chain, as a
    one-factor term (its dense form follows on first use)."""
    return ChainOperator(op.dim, length, terms=(ProductTerm(1.0, ((tuple(sites), op),)),))


def embed_realized(op: LocalOperator, sites: tuple[int, int], length: int) -> np.ndarray:
    """Realized (linear-map) matrix of a two-leg operator embedded at sites."""
    _check_factor(op, sites, length)
    return _embed_realized_stack(op.entries[None], op.dim, sites, length)[0]


# -- matrix-free application ------------------------------------------------


@lru_cache(maxsize=None)
def _range_sign(parities: tuple[int, ...], legs: int) -> np.ndarray:
    """Flat (+-1) vector over ``legs`` consecutive legs: product of per-leg
    parity signs (it does not depend on where the legs sit)."""
    p = np.array(parities, dtype=np.float64)
    leg = 1.0 - 2.0 * p
    out = np.ones(1)
    for _ in range(legs):
        out = np.multiply.outer(out, leg).ravel()
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _flip_form_mask(n: int) -> np.ndarray:
    """Entries of a two-leg coefficient array outside e_aa (x) e_cc and
    e_ac (x) e_ca: True off the identity and the swap pattern."""
    a, c = np.indices((n, n)).reshape(2, -1)
    outside = np.ones((n * n, n * n), dtype=bool)
    outside[a * n + c, a * n + c] = outside[a * n + c, c * n + a] = False
    outside.flags.writeable = False
    return outside


def _check_flip_form(op: LocalOperator, sites: tuple[int, int]) -> None:
    """Refuse a chain factor with any entry outside the diagonal block
    e_aa (x) e_cc and the flip block e_ac (x) e_ca, the one form the factor
    plans apply."""
    if np.any(op.entries[_flip_form_mask(op.dim.n)]):
        raise ValueError(
            f"factor at sites {tuple(sites)} has entries outside the "
            f"e_aa (x) e_cc and e_ac (x) e_ca blocks"
        )


class _FactorPlan:
    """Precomputed application recipe for one embedded two-site factor.

    Every chain factor has entries only at e_aa (x) e_cc, a == c included,
    and e_ac (x) e_ca, as :func:`_check_flip_form` checks in the plans'
    builders, :class:`ChainOperator` and ``qmrops.FactorStore``.  The first
    form one diagonal gate ``diag``; the second, a != c, one weighted swap
    of the two site axes, ``swap`` (None at n = 1), where an odd pair's
    weight carries the Koszul sign of the later slot and the parity string
    over the legs in between.  So a factor is two elementwise passes.  A
    plan does not depend on the chain length: the legs after the later
    site, and a batch of states, fold into the trailing axis.
    """

    __slots__ = ("sites", "shape", "diag", "swap")

    def __init__(self, dim: GradedDim, sites: tuple[int, int], op: LocalOperator):
        i, j = sites
        if i > j:
            op = _swap_legs(op)
            i, j = j, i
        n = dim.n
        self.sites = (i, j)
        # the trailing axis holds the legs after j and a batch of states, if any
        self.shape = (n ** (i - 1), n, n ** (j - i - 1), n, -1)
        nmid = self.shape[2]
        X4 = np.ascontiguousarray(op.entries).reshape(n, n, n, n)  # [a, c, b, d]
        # the strided diagonal view, not a contiguous copy: the copy changes
        # numpy's broadcast loop order and slows the multiply
        self.diag = np.einsum("acac->ac", X4).reshape(1, n, 1, n, 1)
        self.swap = None
        if n > 1:
            p = dim.parities
            smid = _range_sign(tuple(p), j - i - 1)
            qtab = (p[:, None] + p[None, :]) % 2  # parity of e_ab at [a, b]
            sgn = 1.0 - 2.0 * p.astype(np.float64)
            # an odd flip's later slot passes the input label at the earlier
            # site and the legs in between
            W = np.einsum("acca->ac", X4) * (1.0 - np.eye(n)) * np.where(qtab, sgn, 1.0)
            Wb = np.empty((n, nmid, n), dtype=complex)
            for a, c in np.ndindex(n, n):
                # one long strided pass per pair and no (n, nmid, n) temporary
                np.multiply(W[a, c], smid if qtab[a, c] else 1.0, out=Wb[a, :, c])
            self.swap = Wb.reshape(1, n, nmid, n, 1)

    def apply_into(self, vec: np.ndarray, out_flat: np.ndarray, tmp_flat: np.ndarray) -> None:
        """Write the factor applied to ``vec`` into ``out_flat``.  The three
        arrays are C-contiguous states or (d, B) blocks of states; a block's
        batch axis folds into the trailing stride."""
        v = vec.reshape(self.shape)
        out = out_flat.reshape(self.shape)
        np.multiply(v, self.diag, out=out)
        if self.swap is not None:
            tmp = tmp_flat.reshape(self.shape)
            np.multiply(np.swapaxes(v, 1, 3), self.swap, out=tmp)
            out += tmp


def _apply_plans(plans: Sequence[_FactorPlan], vec: np.ndarray, bufs: list,
                 apply_into=_FactorPlan.apply_into) -> np.ndarray:
    """The plans applied to ``vec`` in order by ``apply_into(plan, vec, out,
    tmp)``; the result lives in ``bufs[0]`` or ``bufs[1]`` (or is ``vec``
    itself when there are no plans), and ``bufs[2]`` is scratch."""
    for slot, plan in enumerate(plans):
        out = bufs[slot % 2]
        apply_into(plan, vec, out, bufs[2])
        vec = out
    return vec


def _ladder_plans(ladder: PivotLadder, plan) -> tuple | None:
    """The plans ``plan(sites, factor)`` of the steps, rungs and step-backs
    one climb of ``ladder`` applies, with the rung weights (None for a rung
    of weight 0), or None for a ladder without a nonzero rung.  Rungs of
    weight 0 above the last nonzero one drop with their levels, and g_T
    gets no plan."""
    top = max((t for t, c in enumerate(ladder.weights, start=1) if c), default=0)
    if not top:
        return None
    return (tuple(plan(*f) for f in ladder.steps[:top - 1]),
            tuple(plan(*f) if c else None for f, c in zip(ladder.rungs[:top], ladder.weights)),
            tuple(plan(*f) for f in ladder.backs[:top]),
            ladder.weights[:top])


def _plans_of(op: ChainOperator) -> tuple:
    """Factor plans of ``op``, built on first use and kept, one per distinct
    factor at its sites: per term its coefficient and plans in application
    order, or per ladder its frame p and :func:`_ladder_plans` in that frame.

    A ladder runs in the frame that reverses legs 1..p, p its largest site,
    where its factor at sites s sits at p + 1 - s: the partner at distance
    delta of a pivot ladder, or of either kind of H2 ladder, always lands
    at (1, delta + 1).  So the ladders share their plans wherever they share
    a factor, and a factor near the pivot gets a long trailing stride.  The
    plain reversal maps the plan at s to the plan at p + 1 - s bit for bit:
    the graded one's sign (-1)^(m(m-1)/2), m the odd labels on legs 1..p,
    commutes with every flip-form factor, which keeps m.
    """
    if op._plans is None:
        built: dict = {}

        def plan(sites, fac):
            key = (sites, id(fac))  # the operator keeps the factors alive
            if key not in built:
                built[key] = _FactorPlan(op.dim, sites, fac)
            return built[key]

        if op.ladders is None:
            op._plans = tuple((term.coeff, tuple(plan(*f) for f in reversed(term.factors)))
                              for term in op.terms)
        else:
            parts = []
            for ladder in op.ladders:
                p = max(max(sites) for sites, _ in ladder.steps + ladder.rungs + ladder.backs)
                plans = _ladder_plans(ladder, lambda s, fac: plan((p + 1 - s[0], p + 1 - s[1]), fac))
                if plans is not None:
                    parts.append((p, plans))
            op._plans = tuple(parts)
    return op._plans


def _reverse_legs(src: np.ndarray, n: int, p: int, dst: np.ndarray) -> None:
    """Write ``src`` with legs 1..p reversed into ``dst``, both states or
    (d, B) blocks of states, ``dst`` C-contiguous.  The reversal is its own
    inverse and conjugates a flip-form factor at sites s to the same factor
    at p + 1 - s (see :func:`_plans_of`)."""
    shape = (n,) * p + (-1,)
    rev = tuple(range(p - 1, -1, -1)) + (p,)
    np.copyto(dst.reshape(shape), src.reshape(shape).transpose(rev))


def _page_buffer(like: np.ndarray) -> np.ndarray:
    """An empty C-contiguous array shaped as ``like`` that starts on a 4 KiB
    page.  The working states of one evaluation then share one offset
    modulo 4 KiB; heap blocks allocated back to back sit 16 bytes apart
    instead, which made a strided factor at L = 18 cost 7.2 ns per
    amplitude against 5.8 ns on page-aligned buffers."""
    raw = np.empty(like.size + 4096 // like.itemsize, dtype=like.dtype)
    start = (-raw.ctypes.data % 4096) // like.itemsize
    return raw[start:start + like.size].reshape(like.shape)


def _climb(plans: tuple, vec: np.ndarray, stored: bool, pool: list,
           tmp: np.ndarray, apply_into=_FactorPlan.apply_into) -> np.ndarray:
    """One ladder applied to ``vec`` by ``apply_into(plan, vec, out, tmp)``,
    returned in a buffer of ``pool`` that the caller gives back.

    One descent w_t = g_t w_{t-1} from w_0 = vec, then the climb
    acc <- s_t (c_t F_t w_{t-1} + acc) for t = T .. 1, skipping the rung of
    a zero weight.  It gets w_{t-1} back in one of two ways:

    - ``stored``: the descent keeps the states a nonzero rung reads.  That
      is 3T - 1 applications for a full ladder, needs no unitarity, and
      holds up to T - 1 states at once;
    - step-back: w_{t-1} = s_t w_t, leaning on s_t g_t = 1.  That is
      4T - 2 applications with at most three pool buffers live.
    """
    steps, rungs, backs, weights = plans

    def applied(plan: _FactorPlan, src: np.ndarray, release: bool) -> np.ndarray:
        dst = pool.pop() if pool else _page_buffer(vec)
        apply_into(plan, src, dst, tmp)
        if release and src is not vec:
            pool.append(src)
        return dst

    kept, w, acc = [], vec, None
    for g, c in zip(steps, weights):
        if stored and c:
            kept.append(w)
        w = applied(g, w, release=not (stored and c))
    for t in range(len(backs) - 1, -1, -1):
        c = weights[t]
        if t < len(steps) and not stored:
            w = applied(backs[t], w, release=True)
        elif t < len(steps) and c:
            w = kept.pop()
        if not c:
            acc = applied(backs[t], acc, release=True)
            continue
        y = applied(rungs[t], w, release=stored)
        if c != 1.0:
            y *= c
        if acc is not None:
            y += acc
            pool.append(acc)
        acc = applied(backs[t], y, release=True)
    if not stored and w is not vec:
        pool.append(w)
    return acc


def _accumulate(op: ChainOperator, vec: np.ndarray, total: np.ndarray,
                sector: _Sector | None = None) -> None:
    """Add ``op`` applied to ``vec`` (a state or a (d, B) block of states)
    into ``total``, which may be a view such as a column slice: term by
    term, or ladder by ladder if ``op`` has pivot ladders.  A ladder climbs
    in its leg frame (see :func:`_plans_of`): the state enters it by one
    transposed copy and the ladder's image leaves it by another, so the
    result is the same to the bit.  It climbs with stored descent up to
    ``DENSE_SITE_CAP`` states and with step-backs above it (constant memory
    for large states).  The route fixes two things once, the factor
    application and the frame move, and the loop over :func:`_plans_of`'s
    parts is the same for both: strided, :meth:`_FactorPlan.apply_into` and
    :func:`_reverse_legs` over all n^L amplitudes; with a ``sector``,
    ``vec`` and ``total`` hold that content sector's amplitudes only, and
    the sector applies each plan and permutes each frame itself (see
    :meth:`_Sector.application`).  The climb is chosen from n^L on both,
    so both routes give the same bits."""
    if sector is None:
        apply_into = _FactorPlan.apply_into
        move = lambda src, p, dst: _reverse_legs(src, op.dim.n, p, dst)
    else:
        apply_into, move = sector.application(), sector.reverse_legs
    tmp = _page_buffer(vec)
    if op.ladders is None:
        bufs = [_page_buffer(vec), _page_buffer(vec), tmp]
        for coeff, plans in _plans_of(op):
            total += np.multiply(_apply_plans(plans, vec, bufs, apply_into), coeff, out=tmp)
        return
    pool: list = []
    framed = _page_buffer(vec)
    for p, plans in _plans_of(op):
        move(vec, p, framed)
        acc = _climb(plans, framed, op.hilbert_dim <= DENSE_SITE_CAP, pool, tmp, apply_into)
        move(acc, p, tmp)  # tmp is contiguous, total need not be
        total += tmp
        pool.append(acc)


# -- content sectors --------------------------------------------------------

#: largest share of the n^L states that the content sectors holding a
#: state's nonzero amplitudes may fill for :func:`apply` to run sector by
#: sector.  For uq(1|1) H1 at L = 16 on one core, a factor costs 5.7-6.5
#: ns per sector amplitude (three gathers, two products, one sum) against
#: 5.0-5.7 ns per amplitude strided, so the sector route stops paying
#: between 80 and 90 % of the space; half leaves a margin for hosts where
#: gathers cost more.
_SECTOR_SHARE = 0.5

#: content sectors whose index maps are kept (see :func:`_sector`)
_SECTOR_CACHE = 32


@lru_cache(maxsize=8)
def _content_key(n: int, length: int) -> np.ndarray:
    """Small-int content code of every flat basis index: the counts of
    colours 0 .. n-2 as the digits, colour 0 first, of a number in base
    L + 1 (colour n - 1 holds the rest).  Ordering by code is ordering by
    content."""
    radix = length + 1
    key = np.zeros(n ** length, dtype=np.min_scalar_type(radix ** (n - 1) - 1))
    digit = np.array([radix ** (n - 2 - c) for c in range(n - 1)] + [0], dtype=key.dtype)
    for leg in range(length):
        key.reshape(n ** leg, n, -1)[...] += digit[:, None]
    key.flags.writeable = False
    return key


def _sector_size(n: int, length: int, code: int) -> int:
    """Number of states of the content with code ``code``, a multinomial."""
    size, left = math.factorial(length), length
    for _ in range(n - 1):
        code, count = divmod(code, length + 1)
        size //= math.factorial(count)
        left -= count
    return size // math.factorial(left)


def _narrow(index: np.ndarray) -> np.ndarray:
    """``index`` in the smallest unsigned type that holds it: np.take casts
    any index type to intp, so a narrow map is as fast as an int32 one."""
    return index.astype(np.min_scalar_type(index.max()))


class _Sector:
    """One colour-content sector of an L-site chain: its ``states``, the
    ascending flat basis indices (read-only), with the maps that run factor
    plans and leg frames on the amplitudes gathered at those states.  Each
    map is a narrow index array over the states (see :func:`_narrow`),
    built on first use and kept."""

    __slots__ = ("n", "length", "states", "_codes", "_reversals")

    def __init__(self, n: int, length: int, code: int):
        self.n, self.length = n, length
        self.states = np.flatnonzero(_content_key(n, length) == code)
        self.states.flags.writeable = False
        self._codes: dict = {}
        self._reversals: dict = {}

    def codes(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For a plan at sites i < j and each state, with labels a at i, c at
        j and the legs between them m: the flat place of its weights in the
        plan's diag (a, c) and swap (a, m, c), and the place in the sector
        of its partner, the state with a and c exchanged."""
        if (i, j) not in self._codes:
            n, x = self.n, self.states
            si, sj, nmid = n ** (self.length - i), n ** (self.length - j), n ** (j - i - 1)
            a, c, mid = x // si % n, x // sj % n, x // (sj * n) % nmid
            partner = np.searchsorted(x, x + (c - a) * (si - sj))
            self._codes[i, j] = tuple(
                _narrow(arr) for arr in (a * n + c, (a * nmid + mid) * n + c, partner))
        return self._codes[i, j]

    def reverse_legs(self, src: np.ndarray, p: int, dst: np.ndarray) -> None:
        """:func:`_reverse_legs` on sector amplitudes: the reversal of legs
        1..p keeps every content, so it permutes the sector."""
        if p not in self._reversals:
            tail = self.n ** (self.length - p)
            head, rest = np.divmod(self.states, tail)
            rev = np.zeros_like(head)
            for _ in range(p):
                head, digit = np.divmod(head, self.n)
                rev = rev * self.n + digit
            self._reversals[p] = _narrow(np.searchsorted(self.states, rev * tail + rest))
        np.take(src, self._reversals[p], out=dst, mode="clip")

    def application(self):
        """The sector's ``apply_into(plan, vec, out, tmp)`` for one
        evaluation: a :class:`_FactorPlan` applied to sector amplitudes as
        out = diag[dcode] v + swap[scode] v[partner].  The weights are
        gathered from the plan's own arrays, so every Koszul and mid-leg sign
        still comes from the plan, and each amplitude gets the same products
        and sums as on the strided route.  Each plan's maps and flat weights
        are looked up once per evaluation, and all its applications gather
        into one weight buffer."""
        weights = np.empty(len(self.states), dtype=complex)
        resolved: dict = {}

        def apply_into(plan: _FactorPlan, vec: np.ndarray, out: np.ndarray,
                       tmp: np.ndarray) -> None:
            if plan not in resolved:
                swap = None if plan.swap is None else plan.swap.ravel()
                resolved[plan] = (np.ascontiguousarray(plan.diag).ravel(), swap,
                                  *self.codes(*plan.sites))
            diag, swap, dcode, scode, partner = resolved[plan]
            # mode="clip" spares numpy a buffered copy of ``out``; every code is in range
            np.multiply(vec, np.take(diag, dcode, out=weights, mode="clip"), out=out)
            if swap is not None:
                np.take(vec, partner, out=tmp, mode="clip")
                tmp *= np.take(swap, scode, out=weights, mode="clip")
                out += tmp

        return apply_into


@lru_cache(maxsize=_SECTOR_CACHE)
def _sector(n: int, length: int, code: int) -> _Sector:
    return _Sector(n, length, code)


def _occupied_sectors(n: int, length: int, amplitudes: np.ndarray) -> list | None:
    """The content sectors that hold the nonzero ``amplitudes``, or None if
    they fill more than ``_SECTOR_SHARE`` of the n^L states.  One pass over
    the amplitudes; the sizes come from multinomials, so no sector is
    enumerated unless it is occupied."""
    limit = _SECTOR_SHARE * amplitudes.size
    nonzero = amplitudes != 0
    if np.count_nonzero(nonzero) > limit:
        return None
    codes = [int(c) for c in np.flatnonzero(np.bincount(_content_key(n, length)[nonzero]))]
    if sum(_sector_size(n, length, c) for c in codes) > limit:
        return None
    return [_sector(n, length, c) for c in codes]


def _realize_blocks(op: ChainOperator) -> tuple:
    """Realized content-sector blocks of a chain operator, ordered by
    content, each over its :class:`_Sector`'s ``states``.

    Every factor plan conserves colour content, so the operator does not
    mix content sectors.  Column k of the probe is the k-th state of every
    sector at once, so the probe is d x s_max, and in its image the rows of
    sector S at columns k < |S| are that sector's block.  The evaluation
    runs over blocks of probe columns (at most ``_DENSE_BLOCK_AMPS``
    amplitudes each) on the strided route: for H1 and H2 of uq(1|1) at
    L = 7 and uq(2|1) at L = 5, one pass over the probe took a third to a
    fifth of the time of one identity probe per sector on the sector route.
    """
    d = op.hilbert_dim
    if d > DENSE_SITE_CAP:
        raise ValueError(
            f"dense form of a {d}-dimensional chain operator exceeds the cap {DENSE_SITE_CAP}"
        )
    n, length = op.dim.n, op.length
    codes = np.flatnonzero(np.bincount(_content_key(n, length)))
    sectors = [_sector(n, length, int(code)).states for code in codes]
    pos = np.empty(d, dtype=np.int64)  # place of each state within its sector
    for idx in sectors:
        pos[idx] = np.arange(len(idx))
    smax = max(len(idx) for idx in sectors)
    stacked = np.zeros((d, smax), dtype=complex)
    width = max(1, _DENSE_BLOCK_AMPS // d)
    for lo in range(0, smax, width):
        hi = min(smax, lo + width)
        rows = np.flatnonzero((pos >= lo) & (pos < hi))
        probe = np.zeros((d, hi - lo), dtype=complex)
        probe[rows, pos[rows] - lo] = 1.0
        _accumulate(op, probe, stacked[:, lo:hi])
    return tuple((idx, stacked[idx, :len(idx)]) for idx in sectors)


def apply(op: ChainOperator, state: ChainState) -> ChainState:
    """Apply a chain operator to a state matrix-free, one embedded two-site
    factor at a time, ladder by ladder or term by term (see
    :func:`_accumulate`).  If the content sectors that hold the state's
    nonzero amplitudes fill at most ``_SECTOR_SHARE`` of the space, it runs
    on each of them alone, with the same bits as the strided route over
    all n^L amplitudes, which serves every other state."""
    if op.dim != state.dim or op.length != state.length:
        raise ValueError("operator and state dimensions do not match")
    amp = state.amplitudes
    total = np.zeros_like(amp)
    sectors = _occupied_sectors(op.dim.n, op.length, amp)
    if sectors is None:
        _accumulate(op, amp, total)
    else:
        for sector in sectors:
            part = np.zeros(len(sector.states), dtype=complex)
            _accumulate(op, np.take(amp, sector.states), part, sector)
            total[sector.states] = part
    return ChainState(op.dim, op.length, total)


def commutator_norm(a: ChainOperator, b: ChainOperator) -> float:
    """Scale-free commutator residual ||ab - ba|| / (||a|| ||b|| + floor) of
    two chain operators.

    On realized matrices the graded product is the plain matrix product,
    and the masked and realized forms have the same norm.  Every chain
    operator of one (dim, L) has the same content sectors, so the products
    and norms are taken block by block (a Frobenius norm is the root sum of
    squares of its blocks).
    """
    for x in (a, b):
        if not isinstance(x, ChainOperator):
            raise TypeError(f"expected a chain operator, got {type(x)!r}")
    if (a.dim, a.length) != (b.dim, b.length):
        raise ValueError("commutator operands do not match")
    comm = math.hypot(*(float(np.linalg.norm(A @ B - B @ A))
                        for (_, A), (_, B) in zip(a.blocks(), b.blocks())))
    return comm / (a.norm() * b.norm() + _NORM_FLOOR)
