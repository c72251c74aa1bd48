import itertools

import numpy as np
import pytest

from gradedhs import (
    ChainOperator,
    ChainState,
    GradedDim,
    LocalOperator,
    apply,
    commutator_norm,
    embed,
    embed_local,
    graded_permutation,
    identity_operator,
    matrix_units,
    parity,
    random_state,
    super_multiply,
)
from gradedhs import gradedcore
from gradedhs.chain import (
    anisotropic_target,
    c_factorized_h1,
    hamiltonian_h1,
    hamiltonian_h2,
    haldane_shastry_target,
    htilde_k,
)
from gradedhs.gradedcore import ProductTerm, _FactorPlan, embed_realized, sigma_mask
from gradedhs.rmatrix import (
    RFamily,
    RMatrixSpec,
    build_f_derivative,
    build_r,
    build_r_normalized,
    c_matrix,
    c_matrix_closed_form,
    r_transposed,
)

DIMS = [GradedDim(1, 1), GradedDim(2, 0), GradedDim(2, 1), GradedDim(1, 2), GradedDim(2, 2)]


def koszul_product_oracle(dim, pairs_a, pairs_b):
    """Basis-level product of two tensor monomials with explicit Koszul signs.

    Returns (sign, pairs) or None when a slot product vanishes.  Independent
    of the sign-mask machinery: the sign is accumulated pair by pair as the
    factors of the second monomial pass the factors of the first.
    """
    k = len(pairs_a)
    out = []
    for (i, j), (l, m) in zip(pairs_a, pairs_b):
        if j != l:
            return None
        out.append((i, m))
    sign = 1
    deg = lambda ij: (dim.parity(ij[0]) + dim.parity(ij[1])) % 2
    for s in range(k):
        for t in range(s + 1, k):
            if deg(pairs_a[t]) and deg(pairs_b[s]):
                sign = -sign
    return sign, out


def random_monomial(dim, legs, rng):
    return tuple((int(rng.integers(1, dim.n + 1)), int(rng.integers(1, dim.n + 1))) for _ in range(legs))


# ---------------------------------------------------------------------------
# parity and graded permutation
# ---------------------------------------------------------------------------


def test_parity_values():
    d = GradedDim(1, 1)
    assert parity(d, 1) == 0
    assert parity(d, 2) == 1
    assert parity(GradedDim(2, 0), 2) == 0


def test_parity_out_of_range():
    with pytest.raises(ValueError):
        parity(GradedDim(1, 1), 3)
    with pytest.raises(ValueError):
        parity(GradedDim(1, 1), 0)


def test_graded_dim_validation():
    with pytest.raises(ValueError):
        GradedDim(0, 0)
    with pytest.raises(ValueError):
        GradedDim(-1, 2)


def test_graded_permutation_even_case_is_plain_swap():
    P = graded_permutation(GradedDim(2, 0)).entries
    expected = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            expected[i * 2 + j, j * 2 + i] = 1.0
    assert np.array_equal(P, expected)


def test_graded_permutation_mixed_case():
    d = GradedDim(1, 1)
    expected = (
        matrix_units(d, [(1, 1), (1, 1)])
        - matrix_units(d, [(1, 2), (2, 1)])
        + matrix_units(d, [(2, 1), (1, 2)])
        - matrix_units(d, [(2, 2), (2, 2)])
    )
    assert np.array_equal(graded_permutation(d).entries, expected.entries)


@pytest.mark.parametrize("ne,no", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (5, 0)])
def test_graded_permutation_squares_to_identity(ne, no):
    d = GradedDim(ne, no)
    P = graded_permutation(d)
    assert np.allclose(super_multiply(P, P).entries, np.eye(d.n ** 2), atol=1e-14)


# ---------------------------------------------------------------------------
# super multiplication
# ---------------------------------------------------------------------------


def test_super_multiply_sign_rule_example():
    d = GradedDim(1, 1)
    a = matrix_units(d, [(1, 1), (1, 2)]) + matrix_units(d, [(2, 2), (1, 2)])  # Id (x) e12
    b = matrix_units(d, [(1, 2), (1, 1)]) + matrix_units(d, [(1, 2), (2, 2)])  # e12 (x) Id
    prod = super_multiply(a, b)
    expected = -matrix_units(d, [(1, 2), (1, 2)])
    assert np.array_equal(prod.entries, expected.entries)


def test_super_multiply_even_factors_commute_plainly():
    d = GradedDim(1, 1)
    a = matrix_units(d, [(1, 1), (1, 1)]) + matrix_units(d, [(2, 2), (1, 1)])  # Id (x) e11
    b = matrix_units(d, [(1, 1), (1, 1)]) + matrix_units(d, [(1, 1), (2, 2)])  # e11 (x) Id
    prod = super_multiply(a, b)
    expected = matrix_units(d, [(1, 1), (1, 1)])
    assert np.array_equal(prod.entries, expected.entries)


@pytest.mark.parametrize("dim", DIMS)
def test_super_multiply_matches_koszul_oracle(dim, rng):
    for _ in range(200):
        legs = int(rng.integers(2, 4))
        pa = random_monomial(dim, legs, rng)
        pb = random_monomial(dim, legs, rng)
        prod = super_multiply(matrix_units(dim, pa), matrix_units(dim, pb))
        oracle = koszul_product_oracle(dim, pa, pb)
        if oracle is None:
            assert not np.any(prod.entries)
        else:
            sign, pairs = oracle
            assert np.array_equal(prod.entries, sign * matrix_units(dim, pairs).entries)


@pytest.mark.parametrize("dim", DIMS)
def test_super_multiply_associative(dim, rng):
    n2 = dim.n ** 2
    for _ in range(100):
        ops = []
        for _ in range(3):
            ent = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
            op = LocalOperator(dim, 2, ent)
            if rng.uniform() < 0.5:  # homogeneous half the time
                op = op.homogeneous_part(int(rng.integers(0, 2)))
            ops.append(op)
        a, b, c = ops
        left = super_multiply(super_multiply(a, b), c)
        right = super_multiply(a, super_multiply(b, c))
        scale = a.norm() * b.norm() * c.norm() + 1e-300
        assert (left - right).norm() / scale < 1e-12


def test_homogeneous_parts_sum_to_whole(rng):
    dim = GradedDim(2, 1)
    ent = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    op = LocalOperator(dim, 2, ent)
    total = op.homogeneous_part(0).entries + op.homogeneous_part(1).entries
    assert np.array_equal(total, op.entries)


def test_super_multiply_shape_mismatch():
    a = identity_operator(GradedDim(1, 1), 2)
    b = identity_operator(GradedDim(2, 0), 2)
    with pytest.raises(ValueError):
        super_multiply(a, b)


def test_ungraded_path_is_plain_matmul(rng):
    dim = GradedDim(3, 0)
    x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    y = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    prod = super_multiply(LocalOperator(dim, 2, x), LocalOperator(dim, 2, y))
    assert np.array_equal(prod.entries, x @ y)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def test_embed_adjacent_is_op_itself(rng):
    dim = GradedDim(1, 1)
    x = random_colour_factor(dim, rng)
    emb = embed(x, (1, 2), 2)
    assert np.array_equal(emb.to_dense(), x.entries)


def permutation_action_oracle(dim, perm, labels):
    """Sign of a position permutation acting on a graded basis vector.

    perm maps positions (0-based) to positions; sign is the product of
    (-1)^{p_s p_t} over label pairs whose order is inverted.
    """
    sign = 1
    k = len(labels)
    for s in range(k):
        for t in range(s + 1, k):
            if perm[s] > perm[t] and dim.parity(labels[s]) and dim.parity(labels[t]):
                sign = -sign
    out = [0] * k
    for pos, lab in zip(perm, labels):
        out[pos] = lab
    return sign, tuple(out)


@pytest.mark.parametrize("dim", [GradedDim(1, 1), GradedDim(2, 1), GradedDim(1, 2)])
def test_embedded_permutation_matches_basis_oracle(dim):
    n = dim.n
    emb = embed_local(graded_permutation(dim), (1, 3), 3)
    mat = emb.realize()
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                col = ((a - 1) * n + (b - 1)) * n + (c - 1)
                sign, out = permutation_action_oracle(dim, (2, 1, 0), (a, b, c))
                row = ((out[0] - 1) * n + (out[1] - 1)) * n + (out[2] - 1)
                expected = np.zeros(n ** 3)
                expected[row] = sign
                assert np.allclose(mat[:, col], expected, atol=1e-14)


def test_disjoint_embeddings_commute(rng):
    # disjoint supports commute for even operators (odd ones anticommute
    # pairwise, which is the graded analogue of the same statement)
    dim = GradedDim(1, 1)
    x, y = random_colour_factor(dim, rng), random_colour_factor(dim, rng)
    a = embed(x.homogeneous_part(0), (1, 2), 4)
    b = embed(y.homogeneous_part(0), (3, 4), 4)
    assert commutator_norm(a, b) < 1e-14


def test_disjoint_odd_embeddings_anticommute(rng):
    dim = GradedDim(1, 1)
    x = LocalOperator(dim, 2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    y = LocalOperator(dim, 2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    a = embed_local(x.homogeneous_part(1), (1, 2), 4)
    b = embed_local(y.homogeneous_part(1), (3, 4), 4)
    anti = super_multiply(a, b) + super_multiply(b, a)
    assert anti.norm() / (a.norm() * b.norm() + 1e-300) < 1e-14


def test_embed_respects_composition(rng):
    dim = GradedDim(2, 1)
    x = LocalOperator(dim, 2, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    y = LocalOperator(dim, 2, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    for sites in ((1, 3), (3, 1), (2, 4)):
        ea = embed_local(x, sites, 4)
        eb = embed_local(y, sites, 4)
        lhs = super_multiply(ea, eb)
        rhs = embed_local(super_multiply(x, y), sites, 4)
        assert (lhs - rhs).norm() / (rhs.norm() + 1e-300) < 1e-13


def test_leg_exchange_identity():
    # embedding at (j, i) must equal the P-conjugated embedding at (i, j)
    rng = np.random.default_rng(3)
    for dim in DIMS:
        P = graded_permutation(dim)
        x = random_factor(dim, rng)
        swapped = super_multiply(super_multiply(P, x), P)
        assert np.array_equal(embed_local(x, (2, 1), 2).entries, swapped.entries), dim
        assert np.array_equal(r_transposed(x).entries, swapped.entries), dim


def kronecker_walk_reference(op, sites, legs):
    """Coefficient array of a two-leg operator embedded at ``sites``, built
    apart from the index placement: legs exchanged by P-conjugation when
    i > j, a Kronecker block at legs (i, i+1), then the second leg walked to
    j by conjugation with adjacent graded swaps as realized matrices."""
    dim, (i, j) = op.dim, sites
    if i > j:
        P = graded_permutation(dim)
        op = super_multiply(super_multiply(P, op), P)
        i, j = j, i
    n, sigma = dim.n, sigma_mask(dim, legs)
    P = graded_permutation(dim).entries
    mat = sigma * np.kron(np.kron(np.eye(n ** (i - 1)), op.entries), np.eye(n ** (legs - i - 1)))
    for s in range(i + 1, j):
        swap = sigma * np.kron(np.kron(np.eye(n ** (s - 1)), P), np.eye(n ** (legs - s - 1)))
        mat = swap @ mat @ swap
    return sigma * mat


@pytest.mark.parametrize("dim", DIMS)
def test_placement_matches_kronecker_walk(dim, rng):
    x = random_factor(dim, rng)
    for legs in (2, 3, 4):
        for i in range(1, legs + 1):
            for j in range(1, legs + 1):
                if i != j:
                    ref = kronecker_walk_reference(x, (i, j), legs)
                    assert np.array_equal(embed_local(x, (i, j), legs).entries, ref), (legs, i, j)
                    assert np.array_equal(embed_realized(x, (i, j), legs),
                                          sigma_mask(dim, legs) * ref), (legs, i, j)


def index_placement_reference(dim, i, j, legs, realized):
    """The coefficient-basis index map ``(dst, src, sign)`` built leg by leg
    with the Koszul sign paid in place when i > j, and the target's sigma
    mask multiplied in afterwards if ``realized``: the placement routes the
    single realized map replaced."""
    p, n = dim.parities, dim.n
    stride = n ** np.arange(legs - 1, -1, -1)
    spectators = np.delete(stride, [i - 1, j - 1]) @ gradedcore._leg_labels(n, legs - 2)
    a, c, b, d = np.indices((n,) * 4).reshape(4, -1)
    row = (a * stride[i - 1] + c * stride[j - 1])[:, None] + spectators
    col = (b * stride[i - 1] + d * stride[j - 1])[:, None] + spectators
    dst = (row * n ** legs + col).ravel()
    src = np.repeat(np.arange(n ** 4), spectators.size)
    odd = (p[a] + p[b]) * (p[c] + p[d]) % 2 if i > j else np.zeros_like(a)
    sign = np.repeat(1.0 - 2.0 * odd, spectators.size)
    if realized:
        sign = sign * sigma_mask(dim, legs).ravel()[dst]
    return dst, src, sign


def index_placement_gather(op, sites, legs, realized):
    dst, src, sign = index_placement_reference(op.dim, *sites, legs, realized)
    d = op.dim.n ** legs
    out = np.zeros(d * d, dtype=complex)
    out[dst] = op.entries.ravel()[src] * sign
    return out.reshape(d, d)


def factor_with_exact_zeros(dim, rng):
    """Random two-leg factor in which about half the real and imaginary
    parts are +0.0 or -0.0, so a route's signs of zero show in its bytes."""
    x = random_factor(dim, rng).entries
    re, im = x.real.copy(), x.imag.copy()
    for part in (re, im):
        hit = rng.random(part.shape) < 0.5
        part[hit] = np.where(rng.random(part.shape) < 0.5, 0.0, -0.0)[hit]
    return LocalOperator(dim, 2, re + 1j * im)


@pytest.mark.parametrize("dim", DIMS)
def test_leg_exchange_is_the_index_placement_to_the_bit(dim, rng):
    # the signed transpose gives the bytes of the gathered placement at (2, 1)
    for _ in range(4):
        x = factor_with_exact_zeros(dim, rng)
        ref = index_placement_gather(x, (2, 1), 2, realized=False)
        assert r_transposed(x).entries.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dim", DIMS)
def test_realized_placement_is_the_index_placement_to_the_bit(dim, rng):
    x = factor_with_exact_zeros(dim, rng)
    for legs in (2, 3, 4):
        for i, j in itertools.permutations(range(1, legs + 1), 2):
            ref = index_placement_gather(x, (i, j), legs, realized=True)
            assert embed_realized(x, (i, j), legs).tobytes() == ref.tobytes(), (legs, i, j)


def test_embed_invalid_sites():
    # every entry point into the placement refuses a non-two-leg operator
    # and invalid or equal sites, including the lazy chain embedding
    dim, L = GradedDim(1, 1), 3
    P = graded_permutation(dim)
    three_leg = identity_operator(dim, 3)
    for place in (embed, embed_local, embed_realized):
        with pytest.raises(ValueError, match="two-leg"):
            place(three_leg, (1, 2), L)
        for sites in ((1, 1), (0, 2), (1, L + 1)):
            with pytest.raises(ValueError, match="site pair"):
                place(P, sites, L)


# ---------------------------------------------------------------------------
# chain operators and application
# ---------------------------------------------------------------------------


def product_reference(dim, L, terms, vecs=None):
    """Realized matrix sum_t coeff_t prod_f embed_realized(f), or that
    matrix applied to ``vecs``: each factor placed on its own by the index
    map (checked against the Kronecker walk above) and the products taken
    with d x d matrices, apart from the factor plans that build dense forms
    and apply operators."""
    d = dim.n ** L
    vecs = np.eye(d, dtype=complex) if vecs is None else vecs
    placed = {}
    total = np.zeros(vecs.shape, dtype=complex)
    for term in terms:
        out = vecs
        for sites, op in reversed(term.factors):
            key = (sites, id(op))
            if key not in placed:
                placed[key] = embed_realized(op, sites, L)
            out = placed[key] @ out
        total += term.coeff * out
    return total


def random_factor(dim, rng):
    n2 = dim.n ** 2
    return LocalOperator(dim, 2, rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2)))


def random_colour_factor(dim, rng):
    """Random two-leg factor in the one form chain operators take: random
    entries at e_aa (x) e_cc and e_ac (x) e_ca only, so odd flips, with
    their Koszul signs and parity strings, are included."""
    n = dim.n
    a, c = np.indices((n, n)).reshape(2, -1)
    ent = np.zeros((n * n, n * n), dtype=complex)
    for col in (a * n + c, c * n + a):
        ent[a * n + c, col] = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    return LocalOperator(dim, 2, ent)


def random_terms(dim, L, rng):
    """Terms of random colour-conserving factors on both site orders, with
    sites apart (parity strings) and adjacent, complex weights, one empty
    term and one duplicated term."""
    pool = [(sites, random_colour_factor(dim, rng)) for sites in ((1, 2), (3, 1), (2, L), (L, 2))]
    terms = [ProductTerm(0.5 - 0.25j, ())]
    for _ in range(5):
        picks = rng.integers(0, len(pool), size=int(rng.integers(1, 4)))
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append(ProductTerm(coeff, tuple(pool[int(p)] for p in picks)))
    return terms + [terms[2]]


def rel_max(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("dim", [GradedDim(2, 0), GradedDim(1, 1), GradedDim(2, 1), GradedDim(1, 2)])
def test_dense_and_apply_match_product_reference(dim, rng):
    L = 4
    terms = random_terms(dim, L, rng)
    ref = product_reference(dim, L, terms)
    op = ChainOperator.from_terms(dim, L, terms)
    assert rel_max(op.realize(), ref) < 1e-12
    assert rel_max(op.to_dense(), sigma_mask(dim, L) * ref) < 1e-12
    st = random_state(dim, L, rng)
    expected = ref @ st.amplitudes
    got = ChainOperator(dim, L, terms=terms).apply(st).amplitudes
    assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-12


def test_dense_build_over_several_column_blocks(rng, monkeypatch):
    dim, L = GradedDim(2, 1), 3
    terms = random_terms(dim, L, rng)
    ref = product_reference(dim, L, terms)
    # 27 columns in blocks of 4, the last one partial
    monkeypatch.setattr(gradedcore, "_DENSE_BLOCK_AMPS", 4 * dim.n ** L + 1)
    assert rel_max(ChainOperator.from_terms(dim, L, terms).realize(), ref) < 1e-12
    monkeypatch.setattr(gradedcore, "_DENSE_BLOCK_AMPS", 1)
    assert rel_max(ChainOperator.from_terms(dim, L, terms).realize(), ref) < 1e-12


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("L", [4, 5, 6])
def test_chain_hamiltonians_match_product_reference(fam, L):
    spec = RMatrixSpec(fam, GradedDim(1, 1), 0.3)
    for op in (hamiltonian_h1(spec, L), hamiltonian_h2(spec, L), htilde_k(spec, L, 3)):
        assert rel_max(op.realize(), product_reference(spec.dim, L, op.terms)) < 1e-12


def identity_column_reference(op):
    """Realized matrix of ``op``'s evaluation applied to all d identity
    columns at once: the dense build without sectors."""
    d = op.hilbert_dim
    out = np.zeros((d, d), dtype=complex)
    gradedcore._accumulate(op, np.eye(d, dtype=complex), out)
    return out


def content_keys(dim, L):
    """Colour content of every flat basis index, one tuple each."""
    lab = np.indices((dim.n,) * L).reshape(L, -1)
    return [tuple(np.count_nonzero(lab[:, x] == c) for c in range(dim.n))
            for x in range(dim.n ** L)]


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm", [(1, 1), (2, 0), (2, 1), (1, 2), (0, 2), (2, 2)])
def test_sector_build_is_byte_identical_to_identity_columns(fam, nm):
    dim = GradedDim(*nm)
    # n^L <= 1024; the 56 content sectors of (2|2) are more than the sector
    # cache keeps, so its blocks outlive their sectors
    L = 6 if dim.n == 2 else 5
    spec = RMatrixSpec(fam, dim, 0.3051)
    ops = [hamiltonian_h1(spec, L), hamiltonian_h2(spec, L), haldane_shastry_target(dim, L)]
    if dim.n < 4:  # 2.2 s of identity columns at (2|2)
        ops.append(htilde_k(spec, L, 3))
    if fam is RFamily.UQ_GLNM and dim.n == 2:
        ops.append(c_factorized_h1(spec, L))
    if nm == (1, 1):
        ops.append(anisotropic_target(dim, L))
    keys = content_keys(dim, L)
    off_sector = np.array([[a != b for b in keys] for a in keys])
    for op in ops:
        blocks = op.blocks()
        assert len(blocks) == len(set(keys))
        assert sum(len(idx) for idx, _ in blocks) == dim.n ** L
        for idx, block in blocks:
            assert len({keys[x] for x in idx}) == 1 and np.all(np.diff(idx) > 0)
            assert block.shape == (len(idx), len(idx))
        realized = op.realize()
        assert realized.tobytes() == identity_column_reference(op).tobytes()
        assert np.all(realized[off_sector] == 0.0)
        for idx, block in blocks:
            assert np.array_equal(realized[np.ix_(idx, idx)], block)


def test_sector_build_over_several_probe_blocks(monkeypatch):
    spec = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(2, 1), 0.3)
    L = 4  # 81 states, the largest sector 12
    ref = identity_column_reference(hamiltonian_h2(spec, L))
    for amps in (5 * 81, 81):  # probe columns 5 at a time (the last block 2), then 1
        monkeypatch.setattr(gradedcore, "_DENSE_BLOCK_AMPS", amps)
        assert hamiltonian_h2(spec, L).realize().tobytes() == ref.tobytes()


def test_dense_form_is_lazy_and_shares_the_plans(rng):
    dim, L = GradedDim(1, 1), 3
    op = ChainOperator.from_terms(dim, L, random_terms(dim, L, rng))
    assert op._blocks is None and op._plans is None
    realized = op.realize()
    blocks, kept = op._blocks, realized.copy()
    # the blocks are kept and each call assembles a fresh matrix, so writing
    # into one result leaves the next intact
    realized[:] = 0.0
    again = op.realize()
    assert op._blocks is blocks and np.array_equal(again, kept) and np.any(kept)
    assert np.array_equal(op.to_dense(), sigma_mask(dim, L) * kept)
    # one plan per distinct factor at its sites, kept for the apply
    plans = op._plans
    assert [coeff for coeff, _ in plans] == [term.coeff for term in op.terms]
    distinct = {(sites, id(fac)) for term in op.terms for sites, fac in term.factors}
    assert len({id(plan) for _, term_plans in plans for plan in term_plans}) == len(distinct)
    op.apply(random_state(dim, L, rng))
    assert op._plans is plans


def test_apply_identity_factors_leaves_state(rng):
    dim = GradedDim(1, 1)
    st = random_state(dim, 3, rng)
    ident = identity_operator(dim, 2)
    op = ChainOperator(dim, 3, terms=(ProductTerm(1.0, (((1, 2), ident), ((2, 3), ident))),))
    out = apply(op, st)
    assert np.array_equal(out.amplitudes, st.amplitudes)


@pytest.mark.parametrize("dim", [GradedDim(2, 0), GradedDim(1, 1), GradedDim(2, 1)])
def test_matrix_free_apply_matches_dense(dim, rng):
    L = 4
    terms = []
    for _ in range(3):
        factors = []
        for _ in range(int(rng.integers(1, 4))):
            i, j = rng.choice(np.arange(1, L + 1), size=2, replace=False)
            factors.append(((int(i), int(j)), random_colour_factor(dim, rng)))
        terms.append(ProductTerm(complex(rng.standard_normal(), rng.standard_normal()), tuple(factors)))
    st = random_state(dim, L, rng)
    dense_result = product_reference(dim, L, terms) @ st.amplitudes
    free_result = ChainOperator(dim, L, terms=terms).apply(st).amplitudes
    assert np.linalg.norm(free_result - dense_result) / np.linalg.norm(dense_result) < 1e-12


def test_single_embedded_permutation_apply(rng):
    dim = GradedDim(1, 1)
    st = random_state(dim, 3, rng)
    op = embed(graded_permutation(dim), (1, 3), 3)
    free_result = op.apply(st).amplitudes
    dense_result = embed_realized(graded_permutation(dim), (1, 3), 3) @ st.amplitudes
    assert np.allclose(free_result, dense_result, atol=1e-14)


@pytest.mark.parametrize("dim", [GradedDim(1, 1), GradedDim(2, 1)])
def test_shared_plan_apply_matches_term_by_term(dim, rng):
    # terms drawn from a small factor pool so that whole terms and single
    # factors recur and share their plans; one term is empty.  The operator
    # of all terms is checked against one operator per term and the dense
    # product reference
    L = 4
    pool = [(sites, random_colour_factor(dim, rng)) for sites in ((1, 2), (3, 1), (2, 4), (4, 3))]
    terms = [ProductTerm(0.5 - 0.25j, ())]
    for _ in range(12):
        picks = rng.integers(0, len(pool), size=int(rng.integers(1, 5)))
        factors = tuple(pool[int(p)] for p in picks)
        terms.append(ProductTerm(complex(rng.standard_normal(), rng.standard_normal()), factors))
    terms += [terms[3], ProductTerm(1.0, terms[5].factors)]
    st = random_state(dim, L, rng)
    before = st.amplitudes.copy()
    free_result = ChainOperator(dim, L, terms=terms).apply(st).amplitudes
    assert np.array_equal(st.amplitudes, before)
    ref = sum(ChainOperator(dim, L, terms=(t,)).apply(st).amplitudes for t in terms)
    assert np.linalg.norm(free_result - ref) / np.linalg.norm(ref) < 1e-13
    dense_result = product_reference(dim, L, terms) @ before
    assert np.linalg.norm(free_result - dense_result) / np.linalg.norm(dense_result) < 1e-12


# ---------------------------------------------------------------------------
# pivot ladders (H1)
# ---------------------------------------------------------------------------

LADDER_DIMS = [GradedDim(1, 1), GradedDim(2, 0), GradedDim(2, 1), GradedDim(1, 2), GradedDim(0, 2)]


@pytest.mark.parametrize("dim", LADDER_DIMS)
@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("hbar", [0.3, 0.23 + 0.11j, 1e-4])
def test_h1_ladder_matches_prefix_tree_and_product_reference(dim, fam, hbar, rng):
    # H1's ladder climbs against its expanded terms applied one product at a
    # time (``term_op``; the name's "prefix tree" is this term-by-term
    # evaluation, kept so the test ids stay stable) and the dense product
    # reference
    spec = RMatrixSpec(fam, dim, hbar)
    for L in range(2, 9):
        h1 = hamiltonian_h1(spec, L)
        assert len(h1.ladders) == L - 1
        term_op = ChainOperator.from_terms(dim, L, h1.terms)
        st = random_state(dim, L, rng)
        got, ref = h1.apply(st).amplitudes, term_op.apply(st).amplitudes
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-12
        if dim.n ** L <= 243:
            assert rel_max(h1.realize(), product_reference(dim, L, h1.terms)) < 1e-12


def climb_errors(op, st, monkeypatch):
    """Relative error of ``op`` applied to ``st`` against the product
    reference of its terms, on the stored climb and on the step-back climb
    (forced by a dense cap below n^L)."""
    ref = product_reference(op.dim, op.length, op.terms, st.amplitudes)
    errors = []
    for cap in (gradedcore.DENSE_SITE_CAP, 0):
        monkeypatch.setattr(gradedcore, "DENSE_SITE_CAP", cap)
        errors.append(np.linalg.norm(op.apply(st).amplitudes - ref) / np.linalg.norm(ref))
    return errors


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("L", [5, 8])
def test_h1_ladder_at_the_pole_margin(fam, L, rng, monkeypatch):
    # hbar * L = 2 + 1e-6, the closest to a pole the chain command accepts:
    # the step pairs invert each other only to about 1e-9 there, which the
    # step-back climb leans on and the stored climb does not
    spec = RMatrixSpec(fam, GradedDim(1, 1), (2 + 1e-6) / L)
    stored, stepped = climb_errors(hamiltonian_h1(spec, L), random_state(spec.dim, L, rng),
                                   monkeypatch)
    assert stored <= 1e-8 and stepped <= 1e-8


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("L", [5, 7])
def test_h2_ladder_at_the_pole_margin(fam, L, rng, monkeypatch):
    # H2 sums rungs near a pole of Fbar with tiny phi weights, so double
    # precision keeps only two to three digits there, on every route: the
    # expanded terms evaluated one product at a time with shared prefixes
    # were off by 6e-4 .. 6e-3 against the same reference, the climbs by
    # 8e-4 .. 1.3e-2 (stored) and 2e-3 .. 1.3e-2 (step-back); a wrong term
    # would be off by order 1
    spec = RMatrixSpec(fam, GradedDim(1, 1), (2 + 1e-6) / L)
    stored, stepped = climb_errors(hamiltonian_h2(spec, L), random_state(spec.dim, L, rng),
                                   monkeypatch)
    assert stored <= 5e-2 and stepped <= 5e-2


def longdouble_reference(op, vecs):
    """``op`` applied to ``vecs`` term by term in extended precision: each
    factor plan's diag and swap weights, each coefficient and the states
    cast to np.clongdouble, so only the factors' own double entries are
    shared with the evaluations it judges."""
    plans = {}
    total = np.zeros(vecs.shape, dtype=np.clongdouble)
    for term in op.terms:
        out = vecs.astype(np.clongdouble)
        for sites, fac in reversed(term.factors):
            key = (sites, id(fac))
            if key not in plans:
                plan = plans[key] = _FactorPlan(op.dim, sites, fac)
                plan.diag = plan.diag.astype(np.clongdouble)
                if plan.swap is not None:
                    plan.swap = plan.swap.astype(np.clongdouble)
            image = np.empty_like(out)
            plans[key].apply_into(out, image, np.empty_like(out))
            out = image
        total += np.clongdouble(term.coeff) * out
    return total


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is double here")
@pytest.mark.parametrize("fam, nm, L, hbar, terms1, ladder1, dense1, terms2", [
    # max-entry relative errors on the same 8 states before the ladder
    # climbs: H1's and H2's expanded terms, evaluated one product at a time
    # with shared prefixes (terms1, terms2), H1's ladders stepping back
    # (ladder1) and H1's dense form (dense1)
    (RFamily.UQ_GLNM, (1, 1), 7, 0.3051, 1.88e-15, 5.63e-15, 8.21e-15, 1.99e-13),
    (RFamily.ZN_GRADED, (1, 1), 7, 0.3049, 4.27e-15, 5.40e-15, 7.76e-15, 4.12e-13),
    (RFamily.UQ_GLNM, (2, 1), 5, 0.3077, 5.60e-16, 5.27e-16, 5.44e-16, 8.47e-16),
])
def test_chain_hamiltonians_against_extended_precision(fam, nm, L, hbar, terms1, ladder1,
                                                       dense1, terms2, rng, monkeypatch):
    # each climb within 2x of the expanded terms' error; stepping back is
    # H1's earlier ladder evaluation unchanged, already 3.0x the expanded
    # terms' error at uq(1|1), so it is held to 2x its own; the dense H1 is
    # no worse than before
    spec = RMatrixSpec(fam, GradedDim(*nm), hbar)
    d = spec.dim.n ** L
    vecs = rng.standard_normal((d, 8)) + 1j * rng.standard_normal((d, 8))

    def error(op, ref):
        out = np.zeros_like(vecs)
        gradedcore._accumulate(op, vecs, out)
        return rel_max(out, ref)

    h1, h2 = hamiltonian_h1(spec, L), hamiltonian_h2(spec, L)
    ref1 = longdouble_reference(h1, vecs)
    assert error(h1, ref1) <= 2 * terms1
    assert rel_max(h1.realize(), longdouble_reference(h1, np.eye(d, dtype=complex))) <= dense1
    assert error(h2, longdouble_reference(h2, vecs)) <= 2 * terms2
    monkeypatch.setattr(gradedcore, "DENSE_SITE_CAP", 0)
    assert error(h1, ref1) <= 2 * ladder1


def polarized_odd_energy(L, hbar):
    """uq(1|1) H1 on the all-odd state: each Rbar acts by r(z), each Fbar by
    f(z), and r(z) r(-z) = 1 leaves one r per term."""
    r = lambda z: np.sin(np.pi * (z - hbar)) / np.sin(np.pi * (z + hbar))
    f = lambda z: np.pi * np.sin(2 * np.pi * hbar) / np.sin(np.pi * (z + hbar)) ** 2
    x = np.arange(1, L + 1) / L
    return sum(r(x[k] - x[i]) * f(x[i] - x[k]) for i in range(L) for k in range(i))


def test_h1_ladder_structure_at_ten_sites(rng):
    L, hbar = 10, 0.23  # hbar * L off the integers
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), hbar)
    h1 = hamiltonian_h1(spec, L)
    d = 2 ** L
    even, odd = np.zeros(d, complex), np.zeros(d, complex)
    even[0], odd[-1] = 1.0, 1.0
    assert not np.any(apply(h1, ChainState(spec.dim, L, even)).amplitudes)
    energy = polarized_odd_energy(L, hbar)
    image = apply(h1, ChainState(spec.dim, L, odd)).amplitudes
    assert np.max(np.abs(image - energy * odd)) / abs(energy) <= 1e-12
    # basis index bits are the site directions; H1 conserves the odd count
    content = sum((np.arange(d) >> bit) & 1 for bit in range(L))
    sector = content == L // 2
    v = np.zeros(d, complex)
    v[sector] = rng.standard_normal(sector.sum()) + 1j * rng.standard_normal(sector.sum())
    image = apply(h1, ChainState(spec.dim, L, v)).amplitudes
    assert np.max(np.abs(image[~sector])) == 0.0
    assert np.linalg.norm(image[sector]) > 0


def count_applications(op, monkeypatch, cap=None):
    """Factor applications of one evaluation of ``op`` on one probe block,
    under the dense cap ``cap`` if given."""
    probe = np.eye(op.hilbert_dim, 3, dtype=complex)
    gradedcore._accumulate(op, probe, np.zeros_like(probe))  # builds the plans
    calls = []
    inner = _FactorPlan.apply_into

    def counted(plan, vec, out, tmp):
        calls.append(plan)
        inner(plan, vec, out, tmp)

    with monkeypatch.context() as patch:
        patch.setattr(_FactorPlan, "apply_into", counted)
        if cap is not None:
            patch.setattr(gradedcore, "DENSE_SITE_CAP", cap)
        gradedcore._accumulate(op, probe, np.zeros_like(probe))
    return len(calls)


@pytest.mark.parametrize("L", [2, 3, 6, 9])
def test_h1_ladder_factor_application_count(L, monkeypatch):
    # pivot i's ladder has T = i - 1 levels: 3T - 1 applications on the
    # stored climb, 4T - 2 on the step-back climb; term by term, one per
    # term factor
    spec = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(1, 1), 0.3)
    h1 = hamiltonian_h1(spec, L)
    assert count_applications(h1, monkeypatch) == sum(3 * i - 4 for i in range(2, L + 1))
    assert count_applications(h1, monkeypatch, cap=0) == sum(4 * i - 6 for i in range(2, L + 1))
    factors = sum(i * (i - 1) for i in range(2, L + 1))
    assert sum(len(t.factors) for t in h1.terms) == factors
    assert count_applications(ChainOperator.from_terms(spec.dim, L, h1.terms), monkeypatch) == factors


def test_h2_ladder_factor_application_count(monkeypatch):
    # at L = 6, pivots 2..6 give full ladders (3T - 1 stored, 4T - 2
    # stepped back, T = 1..5) except pivot 6, whose rung at partner 1 weighs
    # 0 and drops with its level (T = 4): 40 - 14 + 11 = 37 and
    # 50 - 18 + 14 = 46.  Pair (m, l) has T = m + l - 3 levels, of which the
    # top m - 1 rungs are nonzero: 3m + 2l - 8 and 4m + 3l - 12 applications,
    # 110 and 150 summed over 2 <= m < l <= 6
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), 0.3)
    h2 = hamiltonian_h2(spec, 6)
    assert len(h2.ladders) == 5 + 10
    assert count_applications(h2, monkeypatch) == 37 + 110
    assert count_applications(h2, monkeypatch, cap=0) == 46 + 150


@pytest.mark.parametrize("dim", [GradedDim(1, 1), GradedDim(2, 1)])
def test_h1_ladder_realize_and_apply_agree_column_by_column(dim, monkeypatch):
    spec = RMatrixSpec(RFamily.UQ_GLNM, dim, 0.23 + 0.11j)
    L = 4
    # several column blocks, the last one partial
    monkeypatch.setattr(gradedcore, "_DENSE_BLOCK_AMPS", 5 * dim.n ** L)
    h1 = hamiltonian_h1(spec, L)
    realized = h1.realize()
    plans, blocks = h1._plans, h1._blocks
    d = dim.n ** L
    for j in range(d):
        col = apply(h1, ChainState(dim, L, np.eye(d)[:, j])).amplitudes
        assert np.max(np.abs(col - realized[:, j])) <= 1e-14 * max(1.0, np.max(np.abs(col)))
    # one set of ladder plans serves both
    assert len(plans) == L - 1 and h1._plans is plans and h1._blocks is blocks


def own_site_reference(op, vecs):
    """``op``'s ladders climbed at their own sites in the chain's layout,
    with no leg frame, their images summed ladder by ladder."""
    built = {}

    def plan(sites, fac):
        if (sites, id(fac)) not in built:
            built[sites, id(fac)] = _FactorPlan(op.dim, sites, fac)
        return built[sites, id(fac)]

    stored = op.hilbert_dim <= gradedcore.DENSE_SITE_CAP
    total, tmp, pool = np.zeros_like(vecs), np.empty_like(vecs), []
    for ladder in op.ladders:
        plans = gradedcore._ladder_plans(ladder, plan)
        if plans is not None:
            acc = gradedcore._climb(plans, vecs, stored, pool, tmp)
            total += acc
            pool.append(acc)
    return total


def assert_frames_change_no_bit(op, rng):
    d = op.hilbert_dim
    state = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    block = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    for vecs in (state, block):
        out = np.zeros_like(vecs)
        gradedcore._accumulate(op, vecs, out)
        assert np.array_equal(out, own_site_reference(op, vecs)), (op.length, vecs.ndim)


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm", [(1, 1), (2, 0), (2, 1), (1, 2), (0, 2)])
def test_leg_frames_change_no_bit(fam, nm, rng):
    # a frame is a plain transpose that maps each plan to its mirror to the
    # bit, so climbing a ladder in it gives the same bits as at its own
    # sites, for H1 and both kinds of H2 ladder; at n = 3, L = 8 is above
    # the dense cap and steps back
    spec = RMatrixSpec(fam, GradedDim(*nm), 0.3051)
    for L in range(2, 9):
        assert_frames_change_no_bit(hamiltonian_h1(spec, L), rng)
        assert_frames_change_no_bit(hamiltonian_h2(spec, L), rng)


def test_leg_frames_change_no_bit_on_the_step_back_climb(rng):
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), 0.3051)
    L = 13
    assert 2 ** L > gradedcore.DENSE_SITE_CAP
    assert_frames_change_no_bit(hamiltonian_h1(spec, L), rng)
    assert_frames_change_no_bit(hamiltonian_h2(spec, L), rng)


@pytest.mark.parametrize("dim", DIMS)
def test_plain_leg_reversal_maps_each_plan_to_its_mirror(dim, rng):
    # a flip-form factor keeps the number of odd labels on legs 1..p, so the
    # frame needs no Koszul sign: reversing, applying the plan at p + 1 - s
    # and reversing back is the plan at s, to the bit, odd flips included
    n = dim.n
    for p in range(2, 6):
        for L in (p, p + 1):
            d = n ** L
            state = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            block = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
            for sites in itertools.permutations(range(1, p + 1), 2):
                fac = random_colour_factor(dim, rng)
                here = _FactorPlan(dim, sites, fac)
                mirror = _FactorPlan(dim, (p + 1 - sites[0], p + 1 - sites[1]), fac)
                for vecs in (state, block):
                    framed, image, back, want = (np.empty_like(vecs) for _ in range(4))
                    gradedcore._reverse_legs(vecs, n, p, framed)
                    mirror.apply_into(framed, image, np.empty_like(vecs))
                    gradedcore._reverse_legs(image, n, p, back)
                    here.apply_into(vecs, want, np.empty_like(vecs))
                    assert np.array_equal(back, want), (p, L, sites, vecs.ndim)


def test_h1_ladders_share_their_plans_across_pivots():
    # in its frame pivot p's partner at distance delta sits at (1, delta +
    # 1) for every p, so the pivots share a plan wherever they share a
    # factor (one per exact x_i - x_j): 44 plans at L = 16, where the
    # chain's own sites needed 345, and 5.2 MB of swap weights, not 10.5
    L = 16
    h1 = hamiltonian_h1(RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), 0.3), L)
    parts = gradedcore._plans_of(h1)
    assert [p for p, _ in parts] == list(range(2, L + 1))
    plans = {id(plan): plan for _, ladder in parts for kind in ladder[:3]
             for plan in kind if plan is not None}
    assert len(plans) <= 3 * (L - 1)
    assert sum(plan.swap.nbytes for plan in plans.values()) <= 5.3e6


@pytest.mark.parametrize("ladders", [True, False])
def test_accumulate_adds_into_a_strided_total(ladders, rng):
    # the dense build adds each probe block into a column slice of one
    # array, and reshaping such a view copies it: a sum added through the
    # copy would be lost
    spec = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(2, 1), 0.3)
    L = 4
    op = hamiltonian_h2(spec, L)
    if not ladders:
        op = ChainOperator.from_terms(spec.dim, L, op.terms)
    d = spec.dim.n ** L
    block = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    state = block[:, 0].copy()
    for vecs, wide, view in ((block, np.zeros((d, 7), complex), np.s_[:, 2:5]),
                             (state, np.zeros(2 * d, complex), np.s_[1::2])):
        ref = np.zeros_like(vecs)
        gradedcore._accumulate(op, vecs, ref)
        assert np.any(ref)
        gradedcore._accumulate(op, vecs, wide[view])
        assert np.array_equal(wide[view], ref)
        wide[view] = 0.0
        assert not np.any(wide)


# ---------------------------------------------------------------------------
# the sector route of apply
# ---------------------------------------------------------------------------


def strided_image(op, amplitudes):
    """``op`` applied on the strided route over all n^L amplitudes."""
    total = np.zeros_like(amplitudes)
    gradedcore._accumulate(op, amplitudes, total)
    return total


def sector_route_states(dim, L, rng):
    """States that ``apply`` takes on the sector route: one random sector
    filled, two random sectors filled, each polarized state, and zero."""
    n, d = dim.n, dim.n ** L
    key = gradedcore._content_key(n, L)
    codes, sizes = np.unique(key, return_counts=True)
    pairs = [(a, b) for a, b in itertools.combinations(range(len(codes)), 2)
             if sizes[a] + sizes[b] <= d / 2]
    states = []
    for chosen in ([rng.integers(len(codes))], pairs[rng.integers(len(pairs))]):
        inside = np.isin(key, codes[list(chosen)])
        v = np.zeros(d, complex)
        v[inside] = rng.standard_normal(inside.sum()) + 1j * rng.standard_normal(inside.sum())
        states.append(v)
    for colour in range(n):
        v = np.zeros(d, complex)
        v[colour * (d - 1) // (n - 1)] = 0.8 - 0.6j  # every leg of one colour
        states.append(v)
    states.append(np.zeros(d, complex))
    for v in states:
        assert gradedcore._occupied_sectors(n, L, v) is not None
    return states


def assert_sector_route_matches_strided(op, states):
    for v in states:
        got = apply(op, ChainState(op.dim, op.length, v)).amplitudes
        assert got.tobytes() == strided_image(op, v).tobytes(), (op.length, np.flatnonzero(v)[:3])
        if not np.any(v):
            assert got.tobytes() == bytes(got.nbytes)  # exact +0.0 everywhere


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm", [(1, 1), (2, 0), (2, 1), (1, 2), (0, 2)])
def test_sector_route_matches_strided_route_to_the_byte(fam, nm, rng, monkeypatch):
    # every amplitude gets the same products and sums on both routes: the
    # ladders of H1 and H2 in their frames, a term-form operator at its own
    # sites (embed with its legs exchanged, a limit target, htilde_k), on
    # the stored climb and, with the cap patched to 0, the step-back climb;
    # at n = 3, L = 8 is above the cap and steps back anyway
    spec = RMatrixSpec(fam, GradedDim(*nm), 0.3051)
    for L in range(2, 9):
        ops = (hamiltonian_h1(spec, L), hamiltonian_h2(spec, L),
               embed(random_colour_factor(spec.dim, rng), (L, 1), L),
               haldane_shastry_target(spec.dim, L), htilde_k(spec, L, 2))
        states = sector_route_states(spec.dim, L, rng)
        for cap in (gradedcore.DENSE_SITE_CAP, 0):
            monkeypatch.setattr(gradedcore, "DENSE_SITE_CAP", cap)
            for op in ops:
                assert_sector_route_matches_strided(op, states)


def test_sector_route_matches_strided_route_on_the_step_back_climb(rng):
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), 0.3051)
    L = 13
    assert 2 ** L > gradedcore.DENSE_SITE_CAP
    two_magnons = np.zeros(2 ** L, complex)
    for i, j in itertools.combinations(range(L), 2):  # odd labels at legs i and j
        two_magnons[(1 << (L - 1 - i)) | (1 << (L - 1 - j))] = complex(*rng.standard_normal(2))
    for op in (hamiltonian_h1(spec, L), hamiltonian_h2(spec, L)):
        assert_sector_route_matches_strided(op, [two_magnons])


def test_full_states_and_dense_builds_take_the_strided_route(rng, monkeypatch):
    spec = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(2, 1), 0.3051)
    L = 5
    h1 = hamiltonian_h1(spec, L)
    d = spec.dim.n ** L
    key = gradedcore._content_key(spec.dim.n, L)
    codes, sizes = np.unique(key, return_counts=True)
    # one amplitude in each of the largest sectors: few nonzeros, but their
    # sectors fill more than half the space
    spread = np.zeros(d, complex)
    filled = 0
    for code, size in sorted(zip(codes, sizes), key=lambda cs: -cs[1]):
        spread[np.flatnonzero(key == code)[0]] = 1.0
        filled += size
        if filled > d / 2:
            break
    assert np.count_nonzero(spread) <= d / 2
    full = random_state(spec.dim, L, rng).amplitudes

    def refuse(*args):
        raise AssertionError("took the sector route")

    monkeypatch.setattr(gradedcore._Sector, "application", refuse)
    for v in (full, spread):
        got = apply(h1, ChainState(spec.dim, L, v)).amplitudes
        assert got.tobytes() == strided_image(h1, v).tobytes()
    assert len(h1.blocks()) == len(codes)
    with pytest.raises(AssertionError, match="sector route"):
        apply(h1, ChainState(spec.dim, L, np.eye(d)[0]))


def test_sector_maps_stay_within_their_cache_bound(rng):
    # (2|1) at L = 8 has 45 content sectors, more than the cache keeps
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(2, 1), 0.3051)
    L = 8
    h1 = hamiltonian_h1(spec, L)
    key = gradedcore._content_key(spec.dim.n, L)
    codes = np.unique(key)
    bound = gradedcore._sector.cache_info().maxsize
    assert bound == gradedcore._SECTOR_CACHE and len(codes) > bound
    gradedcore._sector.cache_clear()
    for code in codes:
        v = np.where(key == code, 1.0 + 0.5j, 0.0)
        apply(h1, ChainState(spec.dim, L, v))
        assert gradedcore._sector.cache_info().currsize <= bound
    assert gradedcore._sector.cache_info().currsize == bound
    # within a sector, one map per frame and one per site pair the frames use
    for code in codes[-bound:]:
        sector = gradedcore._sector(spec.dim.n, L, int(code))
        assert set(sector._reversals) <= set(range(2, L + 1))
        assert set(sector._codes) <= {(1, k) for k in range(2, L + 1)}
    assert gradedcore._content_key.cache_info().maxsize is not None


def test_dense_build_keeps_the_cached_sectors():
    # (2|1) at L = 7 has 36 content sectors, more than the cache keeps
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(2, 1), 0.3051)
    L = 7
    h1 = hamiltonian_h1(spec, L)
    key = gradedcore._content_key(spec.dim.n, L)
    code = int(key[-1])
    apply(h1, ChainState(spec.dim, L, np.where(key == code, 1.0, 0.0)))
    sector = gradedcore._sector(spec.dim.n, L, code)
    assert sector._codes  # the apply built its maps
    assert len(h1.blocks()) == 36 > gradedcore._SECTOR_CACHE
    assert gradedcore._sector(spec.dim.n, L, code) is sector


def test_pivot_ladder_rejects_malformed_ladders():
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), 0.3)
    rb = build_r_normalized(spec, 0.25)
    rb_back = build_r_normalized(spec, -0.25)
    fb = build_f_derivative(spec, 0.25)
    # T steps, rungs and step-backs, T >= 1
    with pytest.raises(ValueError, match="steps, rungs and step-backs, got 0/0/0"):
        gradedcore.PivotLadder(steps=(), rungs=(), backs=())
    with pytest.raises(ValueError, match="got 1/2/2"):
        gradedcore.PivotLadder(steps=(((2, 1), rb),), rungs=(((2, 1), fb),) * 2,
                               backs=(((1, 2), rb_back),) * 2)
    with pytest.raises(ValueError, match="different sites"):
        gradedcore.PivotLadder(steps=(((2, 1), rb), ((3, 1), rb)), rungs=(((2, 1), fb),) * 2,
                               backs=(((1, 2), rb_back),) * 2)
    with pytest.raises(ValueError, match="not both"):
        ChainOperator(spec.dim, 2, terms=(), ladders=())
    with pytest.raises(ValueError, match="need factor terms or pivot ladders"):
        ChainOperator(spec.dim, 2)


def test_pivot_ladder_checks_its_last_pair():
    # the last step g_T is never applied, but it closes the string P that
    # H2 borrows, so its pair is checked like every other
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), 0.3)
    x = [1 / 3, 2 / 3, 1.0]

    def rb(i, j):
        return build_r_normalized(spec, x[i - 1] - x[j - 1])

    steps = (((3, 2), rb(3, 2)), ((3, 1), rb(3, 1)))
    rungs = tuple((sites, build_f_derivative(spec, x[2] - x[sites[1] - 1])) for sites, _ in steps)
    backs = (((2, 3), rb(2, 3)), ((1, 3), rb(1, 3)))
    ladder = gradedcore.PivotLadder(steps=steps, rungs=rungs, backs=backs)
    assert len(ladder.steps) == len(ladder.rungs) == len(ladder.backs) == len(ladder.weights) == 2
    ChainOperator(spec.dim, 3, ladders=[ladder])
    broken = gradedcore.PivotLadder(steps=steps, rungs=rungs,
                                    backs=backs[:1] + (((1, 3), 1.5 * rb(1, 3)),))
    with pytest.raises(ValueError, match=r"sites \(1, 3\) does not invert the step at \(3, 1\)"):
        ChainOperator(spec.dim, 3, ladders=[broken])


@pytest.mark.parametrize("nm", [(2, 0), (1, 1)])
def test_local_realize_returns_a_fresh_array(nm):
    op = build_r_normalized(RMatrixSpec(RFamily.UQ_GLNM, GradedDim(*nm), 0.3), 0.25)
    mat = op.realize()
    assert not np.shares_memory(mat, op.entries)
    assert np.array_equal(mat, sigma_mask(op.dim, 2) * op.entries)


def _plan_apply(plan, vec):
    out, tmp = np.empty_like(vec), np.empty_like(vec)
    plan.apply_into(vec, out, tmp)
    return out


def program_factors(spec):
    """Every two-site factor the program builds for ``spec``: R, Rbar, F,
    the constant C (fitted and closed form), P, 1 - P, the identity, and
    the factors of the hbar -> 0 limit targets."""
    z = 0.27 + 0.19j
    ops = [build(spec, z) for build in (build_r, build_r_normalized, build_f_derivative)]
    ops += [graded_permutation(spec.dim), identity_operator(spec.dim, 2)]
    ops.append(haldane_shastry_target(spec.dim, 2).terms[0].factors[0][1])  # 1 - P
    if spec.family is RFamily.UQ_GLNM and spec.dim.n == 2:
        ops += [c_matrix(spec), c_matrix_closed_form(spec)]
    if spec.dim.n == 2 and spec.dim.n_odd == 1:
        ops += [fac for term in anisotropic_target(spec.dim, 2).terms for _, fac in term.factors]
    return ops


@pytest.mark.parametrize("dim", [GradedDim(1, 0), GradedDim(0, 1)] + DIMS)
@pytest.mark.parametrize("fam", list(RFamily))
def test_r_factor_plans_split_into_diag_and_swap(dim, fam, rng):
    # program factors have only e_aa x e_cc and e_ac x e_ca entries: they
    # pass the form check, and each plan is one diagonal and (n > 1) one
    # swap pass, flips of both parities in the one swap
    L = 4
    spec = RMatrixSpec(fam, dim, 0.3)
    vec = rng.standard_normal(dim.n ** L) + 1j * rng.standard_normal(dim.n ** L)
    for idx, op in enumerate(program_factors(spec)):
        for sites in ((1, 3), (4, 2), (2, 3), (3, 2)):
            gradedcore._check_flip_form(op, sites)
            plan = _FactorPlan(dim, sites, op)
            assert (plan.swap is None) == (dim.n == 1), (idx, sites)
            ref = embed_realized(op, sites, L) @ vec
            err = np.linalg.norm(_plan_apply(plan, vec) - ref) / (np.linalg.norm(ref) + 1e-300)
            assert err < 1e-13, (idx, sites, err)


def test_mixed_parity_r_keeps_one_diag_and_one_swap():
    # at (1|1) the flips are odd, so the even sector is purely diagonal
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), 0.3)
    plan = _FactorPlan(spec.dim, (2, 4), build_r_normalized(spec, 0.31 + 0.2j))
    assert plan.diag.shape == (1, 2, 1, 2, 1) and plan.swap.shape == (1, 2, 2, 2, 1)


@pytest.mark.parametrize("dim", DIMS)
def test_a_factor_outside_the_flip_form_is_refused(dim, rng):
    # one entry off the e_aa x e_cc and e_ac x e_ca pattern, here
    # e_11 x e_12 (an odd entry when direction 2 is odd), is refused at
    # every entry point into the chain engine, naming the sites (a factor
    # plan takes its form from its builder, see
    # test_factor_store_refuses_a_factor_outside_the_flip_form); the
    # placement routines still take it
    n = dim.n
    ent = random_colour_factor(dim, rng).entries
    ent[0, 1] = 0.5
    op = LocalOperator(dim, 2, ent)
    L = 3
    term = ProductTerm(1.0, (((1, 2), identity_operator(dim, 2)), ((3, 1), op)))
    for build in (lambda: ChainOperator(dim, L, terms=[term]),
                  lambda: ChainOperator.from_terms(dim, L, [term]),
                  lambda: embed(op, (3, 1), L)):
        with pytest.raises(ValueError, match=r"sites \(3, 1\)"):
            build()
    assert embed_local(op, (3, 1), L).entries.shape == (n ** L, n ** L)
    assert embed_realized(op, (3, 1), L).shape == (n ** L, n ** L)


def test_chain_operator_construction_guards():
    # each distinct factor is checked once, but a factor object met again at
    # another site pair is checked at that pair too
    dim, L = GradedDim(1, 1), 3
    one = identity_operator(dim, 2)
    cases = [
        ((((1, 2), identity_operator(dim, 3)),), "two-leg"),
        ((((0, 2), one),), r"site pair \(0,2\) out of range"),
        ((((2, 2), one),), "must be distinct"),
        ((((1, 2), identity_operator(GradedDim(2, 0), 2)),), "chain dim"),
        ((((1, 2), one), ((2, 3), one), ((3, 4), one)), r"site pair \(3,4\) out of range"),
    ]
    for factors, msg in cases:
        with pytest.raises(ValueError, match=msg):
            ChainOperator(dim, L, terms=[ProductTerm(1.0, factors[:1]), ProductTerm(1.0, factors)])


def test_dense_cap_enforced():
    dim = GradedDim(1, 1)
    op = ChainOperator(dim, 13, terms=(ProductTerm(1.0, (((1, 2), identity_operator(dim, 2)),)),))
    with pytest.raises(ValueError):
        op.to_dense()


def test_commutator_norm_same_operator_is_zero(rng):
    dim = GradedDim(1, 1)
    a = embed(random_colour_factor(dim, rng), (1, 2), 3)
    assert commutator_norm(a, a) == 0.0


def test_commutator_norm_mixed_arguments_match_the_graded_product(rng):
    # realized matrices give the value of the coefficient-array route: the
    # sign masks only flip signs, so both routes multiply the same matrices
    dim = GradedDim(2, 1)
    x, y = random_colour_factor(dim, rng), random_colour_factor(dim, rng)
    ops = (embed(x, (3, 1), 3), embed(y, (2, 3), 3))
    # (argument, coefficient form)
    pairs = [(op, LocalOperator(dim, 3, op.to_dense())) for op in ops]
    assert np.array_equal(pairs[1][1].entries, embed_local(y, (2, 3), 3).entries)
    for (a, ea), (b, eb) in (pairs, pairs[::-1]):
        comm = super_multiply(ea, eb) - super_multiply(eb, ea)
        assert commutator_norm(a, b) == comm.norm() / (ea.norm() * eb.norm() + 1e-300)


def full_commutator_norm(A, B):
    return np.linalg.norm(A @ B - B @ A) / (np.linalg.norm(A) * np.linalg.norm(B) + 1e-300)


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm", [(1, 1), (2, 1)])
def test_block_commutator_norm_matches_the_full_formula(fam, nm):
    spec = RMatrixSpec(fam, GradedDim(*nm), 0.3)
    L = 5 if nm == (1, 1) else 4
    h1 = hamiltonian_h1(spec, L)
    swap = embed(graded_permutation(spec.dim), (1, 3), L)
    assert len(h1.blocks()) == len(swap.blocks()) > 1
    A, B = h1.realize(), swap.realize()
    want = full_commutator_norm(A, B)
    assert want > 1e-3
    assert abs(commutator_norm(h1, swap) - want) <= 1e-14 * want
    assert h1.norm() == pytest.approx(np.linalg.norm(A), rel=1e-14)


def test_commutator_norm_rejects_mismatched_and_foreign_operands(rng):
    x = random_colour_factor(GradedDim(1, 1), rng)
    ungraded = embed(identity_operator(GradedDim(2, 0), 2), (1, 2), 2)
    with pytest.raises(ValueError):  # same size, other grading
        commutator_norm(embed(x, (1, 2), 2), ungraded)
    with pytest.raises(ValueError):
        commutator_norm(embed(x, (1, 2), 3), embed(x, (1, 2), 2))
    with pytest.raises(TypeError):  # local operators are not chain operators
        commutator_norm(embed(x, (1, 2), 2), x)
    with pytest.raises(TypeError):
        commutator_norm(embed(x, (1, 2), 2), x.entries)
    with pytest.raises(TypeError):
        commutator_norm(3.0, embed(x, (1, 2), 2))


def test_permutation_chain_commutator_disjoint():
    dim = GradedDim(1, 1)
    P = graded_permutation(dim)
    assert commutator_norm(embed(P, (1, 2), 4), embed(P, (3, 4), 4)) < 1e-14


def test_chain_dense_is_ordered_product_of_embeddings(rng):
    # the dense member of a factor-term operator equals the graded product
    # of the individually embedded factors
    dim = GradedDim(1, 1)
    L = 3
    ops = [random_colour_factor(dim, rng) for _ in range(3)]
    sites = [(1, 2), (3, 1), (2, 3)]
    term = ProductTerm(1.0, tuple(zip(sites, ops)))
    chain_dense = ChainOperator.from_terms(dim, L, [term]).to_dense()
    manual = embed_local(ops[0], sites[0], L)
    for s, o in zip(sites[1:], ops[1:]):
        manual = super_multiply(manual, embed_local(o, s, L))
    assert np.linalg.norm(chain_dense - manual.entries) / manual.norm() < 1e-12
