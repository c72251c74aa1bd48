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

States live in (C^(N|M))^{(x) L}.  Chain operators are held as sums of
products of embedded two-site factors, applied matrix-free through factor
plans (a diagonal and a weighted-swap pass per factor), and/or as a dense
realized matrix, their one stored dense form.  Terms are evaluated along
their shared-prefix tree, or, for an operator built from pivot ladders
(:class:`PivotLadder`, the form of H1), one Horner ladder per pivot, which
uses that each step-back factor inverts its step.  The dense form of a
factor-term operator is built on first use, up to n^L = DENSE_SITE_CAP, by
running the same evaluation over blocks of identity columns, so no d x d
factor matrix is formed: H1 and H2 of uq(1|1) at L = 9 (d = 512) take
about 1.5 s together on one core.
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
        """Matrix of the operator as a linear map on states."""
        if self.dim.n_odd == 0:
            return self.entries
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
    if a.dim.n_odd == 0:
        return LocalOperator(a.dim, a.legs, a.entries @ b.entries)
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


#: largest ||s g - 1|| of a ladder's step pairs that the Horner form trusts
LADDER_UNITARITY_TOL = 1e-6


@dataclass(frozen=True)
class PivotLadder:
    """The terms of one pivot that share a descending chain of steps:

        sum_{t=1..T} s_1 s_2 ... s_t F_t g_{t-1} ... g_1

    read as operators (g_1 acts first), with ``steps`` (g_1 .. g_{T-1}),
    ``rungs`` (F_1 .. F_T) and step-backs ``backs`` (s_1 .. s_T), each a
    ``(sites, op)`` factor.  A step-back undoes its step, s_t g_t = 1 for
    t < T, so the sum is evaluated in Horner form: descend w = g_{T-1} ..
    g_1 v once, then for t = T .. 1 climb with w <- s_t w (t < T) and
    acc <- s_t (acc + F_t w).  That is 4T - 2 factor applications instead
    of the T(T + 1) in the expanded products.  Construction checks every
    step pair on its two sites and raises ``ValueError`` naming the worst
    pair if its defect exceeds ``LADDER_UNITARITY_TOL``.
    """

    steps: tuple[tuple[tuple[int, int], LocalOperator], ...]
    rungs: tuple[tuple[tuple[int, int], LocalOperator], ...]
    backs: tuple[tuple[tuple[int, int], LocalOperator], ...]

    def __post_init__(self) -> None:
        depth = len(self.rungs)
        if depth < 1 or len(self.backs) != depth or len(self.steps) != depth - 1:
            raise ValueError(
                f"a ladder needs T >= 1 rungs and step-backs and T - 1 steps, got "
                f"{len(self.steps)}/{len(self.rungs)}/{len(self.backs)}"
            )
        worst, pair = 0.0, None
        for (gsites, g), (ssites, s) in zip(self.steps, self.backs):
            if gsites == ssites[::-1]:
                g = _swap_legs(g)
            elif gsites != ssites:
                raise ValueError(f"step {gsites} and step-back {ssites} act on different sites")
            defect = (super_multiply(s, g) - identity_operator(g.dim, 2)).norm()
            defect = math.inf if math.isnan(defect) else defect
            if defect > worst:
                worst, pair = defect, (ssites, gsites)
        if worst > LADDER_UNITARITY_TOL:
            raise ValueError(
                f"step-back at sites {pair[0]} does not invert the step at {pair[1]}: "
                f"||s g - 1|| = {worst:.2e} > {LADDER_UNITARITY_TOL:g}"
            )

    def terms(self, coeff: complex) -> tuple[ProductTerm, ...]:
        """The expanded products, t = T first, each weighted by ``coeff``."""
        return tuple(
            ProductTerm(coeff, self.backs[:t] + (self.rungs[t - 1],) + self.steps[:t - 1][::-1])
            for t in range(len(self.rungs), 0, -1)
        )


class ChainOperator:
    """Operator on an L-site chain, dense and/or sum-of-factor-products.

    The one stored dense form is the realized matrix.  A ``dense``
    coefficient array is sign-masked into it on entry; a factor-term
    operator builds it on first use (up to ``DENSE_SITE_CAP``) and keeps it.
    An operator given as ``ladder_coeff`` times a sum of pivot ladders keeps
    them, evaluates through them, and lists their expanded ``terms``.
    """

    def __init__(
        self,
        dim: GradedDim,
        length: int,
        dense: np.ndarray | None = None,
        terms: Sequence[ProductTerm] | None = None,
        ladders: Sequence[PivotLadder] | None = None,
        ladder_coeff: complex = 1.0,
    ) -> None:
        if ladders is not None:
            if terms is not None:
                raise ValueError("give factor terms or pivot ladders, not both")
            ladders = tuple(ladders)
            terms = tuple(t for ladder in ladders for t in ladder.terms(ladder_coeff))
        if dense is None and terms is None:
            raise ValueError("need a dense array or a factor-term list")
        self.ladders = ladders
        self.ladder_coeff = ladder_coeff
        self.dim = dim
        self.length = length
        d = dim.n ** length
        self._realized: np.ndarray | None = None
        if dense is not None:
            dense = np.asarray(dense, dtype=complex)
            if dense.shape != (d, d):
                raise ValueError(f"dense array must be {d}x{d}")
            self._realized = sigma_mask(dim, length) * dense if dim.n_odd else dense
        self.terms = tuple(terms) if terms is not None else None
        if self.terms is not None:
            for term in self.terms:
                for sites, op in term.factors:
                    _check_factor(op, sites, length)
                    if op.dim != dim:
                        raise ValueError("factors must act on the chain dim")
        self._plans: _PlanNode | None = None  # prefix tree of the terms
        self._ladder_plans: tuple | None = None

    @property
    def hilbert_dim(self) -> int:
        return self.dim.n ** self.length

    @classmethod
    def from_terms(cls, dim: GradedDim, length: int, terms: Sequence[ProductTerm]) -> "ChainOperator":
        """Build from factor terms; the dense form follows on first use."""
        return cls(dim, length, terms=terms)

    def to_dense(self) -> np.ndarray:
        """Coefficient array of the full chain operator (computed per call)."""
        realized = self.realize()
        return sigma_mask(self.dim, self.length) * realized if self.dim.n_odd else realized

    def realize(self) -> np.ndarray:
        """Matrix of the operator as a linear map on chain states."""
        if self._realized is None:
            self._realized = _realize_terms(self)
        return self._realized

    def norm(self) -> float:
        return float(np.linalg.norm(self.realize()))

    def apply(self, state: ChainState) -> ChainState:
        return apply(self, state)

    def __add__(self, other: "ChainOperator") -> "ChainOperator":
        if self.dim != other.dim or self.length != other.length:
            raise ValueError("chain operator mismatch")
        terms = None
        if self.terms is not None and other.terms is not None:
            terms = self.terms + other.terms
        dense = None
        both_dense = self._realized is not None and other._realized is not None
        if terms is None or both_dense:
            if not both_dense and self.hilbert_dim > DENSE_SITE_CAP:
                raise ValueError(
                    f"cannot add a dense-only and a factor-term operator of dimension "
                    f"{self.hilbert_dim}: factor terms have no dense form above the "
                    f"cap {DENSE_SITE_CAP}"
                )
            dense = self.to_dense() + other.to_dense()
        return ChainOperator(self.dim, self.length, dense=dense, terms=terms)

    def __mul__(self, scalar: complex) -> "ChainOperator":
        dense = None if self._realized is None else self.to_dense() * scalar
        if self.ladders is not None:
            out = ChainOperator(self.dim, self.length, dense=dense, ladders=self.ladders,
                                ladder_coeff=self.ladder_coeff * scalar)
            out._ladder_plans = self._ladder_plans  # they carry no coefficient
            return out
        terms = None
        if self.terms is not None:
            terms = tuple(ProductTerm(t.coeff * scalar, t.factors) for t in self.terms)
        return ChainOperator(self.dim, self.length, dense=dense, terms=terms)

    __rmul__ = __mul__


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
def _range_sign(parities: tuple[int, ...], lo: int, hi: int) -> np.ndarray:
    """Flat (+-1) vector over legs lo..hi: product of per-leg parity signs."""
    p = np.array(parities, dtype=np.float64)
    leg = 1.0 - 2.0 * p
    out = np.ones(1)
    for _ in range(lo, hi + 1):
        out = np.multiply.outer(out, leg).ravel()
    out.flags.writeable = False
    return out


class _FactorPlan:
    """Precomputed application recipe for one embedded two-site factor.

    The coefficient array is split by entry position.  The e_aa (x) e_cc
    entries, a == c included, form one diagonal gate.  The e_ac (x) e_ca
    entries with a != c form one weighted swap of the two site axes; an odd
    pair's weight carries the Koszul sign of the later slot and the parity
    string over the legs in between.  Both R-matrix families, their
    derivatives and the limit targets have no other entries, so each of
    their factors is two elementwise passes.  Any other entries are sorted
    into slot-parity sectors, each a generic two-axis contraction.  A plan
    does not depend on the chain length: the legs after the later site, and
    a batch of states, fold into the trailing axis.
    """

    __slots__ = ("i", "j", "shape", "actions")

    def __init__(self, dim: GradedDim, sites: tuple[int, int], op: LocalOperator):
        i, j = sites
        if i > j:
            op = _swap_legs(op)
            i, j = j, i
        n = dim.n
        self.i, self.j = i, j
        # the trailing axis holds the legs after j and a batch of states, if any
        self.shape = (n ** (i - 1), n, n ** (j - i - 1), n, -1)
        nmid = self.shape[2]
        p = dim.parities
        pkey = tuple(p)
        sgn = 1.0 - 2.0 * p.astype(np.float64)
        smid = _range_sign(pkey, i + 1, j - 1)
        X4 = np.ascontiguousarray(op.entries).reshape(n, n, n, n)  # [a, c, b, d]
        qtab = (p[:, None] + p[None, :]) % 2  # parity of e_ab at [a, b]
        # the strided diagonal view, not a contiguous copy: the copy changes
        # numpy's broadcast loop order and slows the multiply
        actions = [("diag", np.einsum("acac->ac", X4).reshape(1, n, 1, n, 1), None, None)]
        if n > 1:
            # an odd flip's later slot passes the input label at the earlier
            # site and the legs in between
            W = np.einsum("acca->ac", X4) * (1.0 - np.eye(n)) * np.where(qtab, sgn, 1.0)
            Wb = np.empty((n, nmid, n), dtype=complex)
            for a, c in np.ndindex(n, n):
                # one long strided pass per pair and no (n, nmid, n) temporary
                np.multiply(W[a, c], smid if qtab[a, c] else 1.0, out=Wb[a, :, c])
            actions.append(("swap", Wb.reshape(1, n, nmid, n, 1), None, None))
        a, c = np.indices((n, n))
        rest = X4.copy()
        rest[a, c, a, c] = rest[a, c, c, a] = 0.0
        if np.any(rest):
            for q1 in (0, 1):
                for q2 in (0, 1):
                    sector = (qtab[:, None, :, None] == q1) & (qtab[None, :, None, :] == q2)
                    G = np.where(sector, rest, 0.0)
                    if not np.any(G):
                        continue
                    if q2:
                        # Koszul sign of the later slot passing the input
                        # label at the earlier site, absorbed into the gate
                        G = G * sgn[None, None, :, None]
                    slead = _range_sign(pkey, 1, i - 1) if (q1 + q2) % 2 else None
                    actions.append(("gen", G, smid if q2 else None, slead))
        self.actions = tuple(actions)

    def apply_into(self, vec: np.ndarray, out_flat: np.ndarray, tmp_flat: np.ndarray) -> None:
        """Write the factor applied to ``vec`` into ``out_flat``.  The three
        arrays are C-contiguous states or (d, B) blocks of states; a block's
        batch axis folds into the trailing stride."""
        v = vec.reshape(self.shape)
        out = out_flat.reshape(self.shape)
        tmp = tmp_flat.reshape(self.shape)
        first = True
        for kind, W, smid, slead in self.actions:
            tgt = out if first else tmp
            if kind == "diag":
                np.multiply(v, W, out=tgt)
            elif kind == "swap":
                np.multiply(np.swapaxes(v, 1, 3), W, out=tgt)
            else:
                w = v
                if slead is not None:
                    w = w * slead.reshape(-1, 1, 1, 1, 1)
                if smid is not None:
                    w = w * smid.reshape(1, 1, -1, 1, 1)
                r = np.tensordot(W, w, axes=([2, 3], [1, 3]))  # (a, c, x, y, z)
                np.copyto(tgt, np.moveaxis(r, (0, 1), (1, 3)))
            if first:
                first = False
            else:
                out += tmp


class _PlanNode:
    """Node of the prefix tree of a factor-term operator's application
    sequences.  Its state is the input with the factors on its path applied;
    ``coeff`` sums the coefficients of the terms that end here, and each
    child edge applies one more factor plan."""

    __slots__ = ("coeff", "children")

    def __init__(self) -> None:
        self.coeff = 0.0
        self.children: dict | list = {}


def _plan_tree(op: ChainOperator) -> _PlanNode:
    """Factor plans of ``op`` merged on shared application-order prefixes.

    Terms that start (in application order, the last factor of the product
    first) with the same factors share those applications, and a factor that
    recurs across terms gets one plan.  Children are ordered by subtree size,
    largest last, so a node's state is released as soon as its largest
    subtree starts and chains of single children run in two buffers.
    """
    if op._plans is None:
        root = _PlanNode()
        plans: dict = {}
        for term in op.terms:
            node = root
            for sites, fac in reversed(term.factors):
                key = (sites, fac.entries.tobytes())
                plan = plans.get(key)
                if plan is None:
                    plan = plans[key] = _FactorPlan(op.dim, sites, fac)
                edge = node.children.get(key)
                if edge is None:
                    edge = node.children[key] = (plan, _PlanNode())
                node = edge[1]
            node.coeff += term.coeff

        def order(node: _PlanNode) -> int:
            sized = [(order(child), plan, child) for plan, child in node.children.values()]
            sized.sort(key=lambda item: item[0])
            node.children = [(plan, child) for _, plan, child in sized]
            return 1 + sum(size for size, _, _ in sized)

        order(root)
        op._plans = root
    return op._plans


def _apply_tree(node: _PlanNode, state: np.ndarray, owned: bool, pool: list,
                total: np.ndarray, tmp: np.ndarray) -> None:
    """Add the terms below ``node`` applied to ``state`` into ``total``.

    ``owned`` marks a pool buffer, returned to ``pool`` once no child needs
    it; ``tmp`` is scratch shared with the factor plans.
    """
    if node.coeff == 1.0:
        total += state
    elif node.coeff:
        np.multiply(state, node.coeff, out=tmp)
        total += tmp
    last = len(node.children) - 1
    for idx, (plan, child) in enumerate(node.children):
        out = pool.pop() if pool else np.empty_like(state)
        plan.apply_into(state, out, tmp)
        if idx == last and owned:
            pool.append(state)
        _apply_tree(child, out, True, pool, total, tmp)
    if last < 0 and owned:
        pool.append(state)


def _plan_ladders(op: ChainOperator) -> tuple:
    """Factor plans of ``op``'s ladders: (steps, rungs, backs) per ladder."""
    if op._ladder_plans is None:
        op._ladder_plans = tuple(
            tuple(tuple(_FactorPlan(op.dim, sites, fac) for sites, fac in part)
                  for part in (ladder.steps, ladder.rungs, ladder.backs))
            for ladder in op.ladders
        )
    return op._ladder_plans


def _apply_ladder(plans: tuple, vec: np.ndarray, coeff: complex, pool: list,
                  total: np.ndarray, tmp: np.ndarray) -> None:
    """Add ``coeff`` times one ladder applied to ``vec`` into ``total``.

    Descends w = g_{T-1} .. g_1 vec, then climbs t = T .. 1 with
    w <- s_t w (t < T) and acc <- s_t (acc + F_t w): at most three pool
    buffers (w, acc and the rung image) are live, and no prefix state is
    kept.
    """
    steps, rungs, backs = plans

    def applied(plan: _FactorPlan, src: np.ndarray) -> np.ndarray:
        dst = pool.pop() if pool else np.empty_like(vec)
        plan.apply_into(src, dst, tmp)
        return dst

    w = vec
    for g in steps:
        nxt = applied(g, w)
        if w is not vec:
            pool.append(w)
        w = nxt
    y = applied(rungs[-1], w)
    acc = applied(backs[-1], y)
    pool.append(y)
    for t in range(len(rungs) - 2, -1, -1):
        nxt = applied(backs[t], w)
        pool.append(w)
        w = nxt
        y = applied(rungs[t], w)
        y += acc
        pool.append(acc)
        acc = applied(backs[t], y)
        pool.append(y)
    if w is not vec:
        pool.append(w)
    if coeff == 1.0:
        total += acc
    else:
        np.multiply(acc, coeff, out=tmp)
        total += tmp
    pool.append(acc)


def _accumulate(op: ChainOperator, vec: np.ndarray, total: np.ndarray) -> None:
    """Add ``op`` applied to ``vec`` (a state or a (d, B) block of states)
    into ``total``: ladder by ladder if ``op`` has pivot ladders, else
    along the prefix tree of its terms."""
    tmp = np.empty_like(vec)
    if op.ladders is None:
        _apply_tree(_plan_tree(op), vec, False, [], total, tmp)
        return
    pool: list = []
    for plans in _plan_ladders(op):
        _apply_ladder(plans, vec, op.ladder_coeff, pool, total, tmp)


def _realize_terms(op: ChainOperator) -> np.ndarray:
    """Realized matrix of a factor-term operator: its evaluation applied to
    the columns of the identity, a block of columns at a time (at most
    ``_DENSE_BLOCK_AMPS`` amplitudes each)."""
    d = op.hilbert_dim
    if d > DENSE_SITE_CAP:
        raise ValueError(
            f"dense form of a {d}-dimensional chain operator exceeds the cap {DENSE_SITE_CAP}"
        )
    realized = np.zeros((d, d), dtype=complex)
    width = max(1, _DENSE_BLOCK_AMPS // d)
    for lo in range(0, d, width):
        hi = min(d, lo + width)
        block = np.zeros((d, hi - lo), dtype=complex)
        block[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        _accumulate(op, block, realized[:, lo:hi])
    return realized


def apply(op: ChainOperator, state: ChainState) -> ChainState:
    """Apply a chain operator to a state.

    Factor-term operators are applied matrix-free, one embedded two-site
    factor at a time, ladder by ladder or along the prefix tree of their
    terms, with buffers recycled through a pool; dense operators go through
    the realized matrix.
    """
    if op.dim != state.dim or op.length != state.length:
        raise ValueError("operator and state dimensions do not match")
    if op.terms is not None:
        vec = state.amplitudes
        total = np.zeros_like(vec)
        _accumulate(op, vec, total)
        return ChainState(op.dim, op.length, total)
    return ChainState(op.dim, op.length, op.realize() @ state.amplitudes)


def commutator_norm(a, b) -> float:
    """Scale-free commutator residual ||ab - ba|| / (||a|| ||b|| + floor).

    Accepts ChainOperator or LocalOperator arguments.  On realized matrices
    the graded product is the plain matrix product, and the masked and
    realized forms have the same norm.
    """
    shapes = []
    for x in (a, b):
        if isinstance(x, ChainOperator):
            shapes.append((x.dim, x.length))
        elif isinstance(x, LocalOperator):
            shapes.append((x.dim, x.legs))
        else:
            raise TypeError(f"expected a chain or local operator, got {type(x)!r}")
    if shapes[0] != shapes[1]:
        raise ValueError("commutator operands do not match")
    A, B = a.realize(), b.realize()
    comm = float(np.linalg.norm(A @ B - B @ A))
    return comm / (float(np.linalg.norm(A)) * float(np.linalg.norm(B)) + _NORM_FLOOR)
