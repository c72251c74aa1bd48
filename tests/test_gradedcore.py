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
    hamiltonian_h1,
    hamiltonian_h2,
    haldane_shastry_target,
    htilde_k,
)
from gradedhs.gradedcore import ProductTerm, _FactorPlan, _plan_tree, embed_realized, sigma_mask
from gradedhs.rmatrix import (
    RFamily,
    RMatrixSpec,
    build_f_derivative,
    build_r,
    build_r_normalized,
    c_matrix,
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
    x = LocalOperator(dim, 2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
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
    x = LocalOperator(dim, 2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    y = LocalOperator(dim, 2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
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


def product_reference(dim, L, terms):
    """Realized matrix sum_t coeff_t prod_f embed_realized(f): each factor
    placed on its own by the index map (checked against the Kronecker walk
    above) and the products taken as d x d matrices, apart from the factor
    plans that build dense forms and apply operators."""
    d = dim.n ** L
    total = np.zeros((d, d), dtype=complex)
    for term in terms:
        mat = np.eye(d, dtype=complex)
        for sites, op in term.factors:
            mat = mat @ embed_realized(op, sites, L)
        total += term.coeff * mat
    return total


def random_factor(dim, rng):
    n2 = dim.n ** 2
    return LocalOperator(dim, 2, rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2)))


def random_terms(dim, L, rng):
    """Terms of random full factors (odd sectors take the generic plan
    path) on both site orders, complex weights, one empty term and one
    duplicated term."""
    pool = [(sites, random_factor(dim, rng)) for sites in ((1, 2), (3, 1), (2, L), (L, 2))]
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
    if dim.n_odd:
        kinds = {kind for sites, fac in terms[1].factors
                 for kind, *_ in _FactorPlan(dim, sites, fac).actions}
        assert "gen" in kinds


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


def test_dense_form_is_lazy_and_shares_the_plans(rng):
    dim, L = GradedDim(1, 1), 3
    op = ChainOperator.from_terms(dim, L, random_terms(dim, L, rng))
    assert op._realized is None
    realized = op.realize()
    assert op.realize() is realized
    assert np.array_equal(op.to_dense(), sigma_mask(dim, L) * realized)
    tree = op._plans
    assert tree is not None
    op.apply(random_state(dim, L, rng))
    assert op._plans is tree


def test_add_terms_only_and_dense_only(rng, monkeypatch):
    dim, L = GradedDim(1, 1), 3
    terms = random_terms(dim, L, rng)
    d = dim.n ** L
    dense = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    expected = ChainOperator.from_terms(dim, L, terms).to_dense() + dense
    for total in (ChainOperator(dim, L, terms=terms) + ChainOperator(dim, L, dense=dense),
                  ChainOperator(dim, L, dense=dense) + ChainOperator(dim, L, terms=terms)):
        assert total.terms is None
        assert np.allclose(total.to_dense(), expected, rtol=0, atol=1e-13)
    both = ChainOperator(dim, L, terms=terms) + ChainOperator(dim, L, terms=terms)
    assert len(both.terms) == 2 * len(terms)
    monkeypatch.setattr(gradedcore, "DENSE_SITE_CAP", d - 1)
    with pytest.raises(ValueError, match="no dense form above the cap"):
        ChainOperator(dim, L, terms=terms) + ChainOperator(dim, L, dense=dense)


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
    n2 = dim.n ** 2
    terms = []
    for _ in range(3):
        factors = []
        for _ in range(int(rng.integers(1, 4))):
            i, j = rng.choice(np.arange(1, L + 1), size=2, replace=False)
            ent = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
            factors.append(((int(i), int(j)), LocalOperator(dim, 2, ent)))
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
def test_prefix_tree_apply_matches_term_by_term(dim, rng):
    # terms drawn from a small factor pool so that application-order
    # prefixes, whole terms and single factors recur; one term is empty
    L = 4
    n2 = dim.n ** 2
    pool = []
    for sites in ((1, 2), (3, 1), (2, 4), (4, 3)):
        ent = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
        pool.append((sites, LocalOperator(dim, 2, ent)))
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


def test_h1_prefix_tree_shares_leading_factors(rng):
    # the terms of pair (i, k) apply Rbar_{i,i-1} .. Rbar_{i,k+1} first, so
    # per i the tree holds i-2 shared leading factors, i-1 F factors and
    # i - k trailing factors below each F: 60 edges at L = 6 instead of 70.
    # H1 itself evaluates through its ladders; the tree is that of its terms.
    L = 6
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), 0.3)
    h1 = hamiltonian_h1(spec, L)
    tree_op = ChainOperator.from_terms(spec.dim, L, h1.terms)

    def edges(node):
        return sum(1 + edges(child) for _, child in node.children)

    assert sum(len(t.factors) for t in h1.terms) == 70
    assert edges(_plan_tree(tree_op)) == sum(2 * i - 3 + i * (i - 1) // 2 for i in range(2, L + 1))
    st = random_state(spec.dim, L, rng)
    ref = product_reference(spec.dim, L, h1.terms) @ st.amplitudes
    err = np.linalg.norm(tree_op.apply(st).amplitudes - ref) / np.linalg.norm(ref)
    assert err < 1e-12


# ---------------------------------------------------------------------------
# pivot ladders (H1)
# ---------------------------------------------------------------------------

LADDER_DIMS = [GradedDim(1, 1), GradedDim(2, 0), GradedDim(2, 1), GradedDim(1, 2), GradedDim(0, 2)]


@pytest.mark.parametrize("dim", LADDER_DIMS)
@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("hbar", [0.3, 0.23 + 0.11j, 1e-4])
def test_h1_ladder_matches_prefix_tree_and_product_reference(dim, fam, hbar, rng):
    spec = RMatrixSpec(fam, dim, hbar)
    for L in range(2, 9):
        h1 = hamiltonian_h1(spec, L)
        assert len(h1.ladders) == L - 1
        tree_op = ChainOperator.from_terms(dim, L, h1.terms)
        st = random_state(dim, L, rng)
        got, ref = h1.apply(st).amplitudes, tree_op.apply(st).amplitudes
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-12
        if dim.n ** L <= 243:
            assert rel_max(h1.realize(), product_reference(dim, L, h1.terms)) < 1e-12


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("L", [5, 8])
def test_h1_ladder_at_the_pole_margin(fam, L, rng):
    # hbar * L = 2 + 1e-6, the closest to a pole the chain command accepts:
    # the step pairs invert each other only to about 1e-9 there
    spec = RMatrixSpec(fam, GradedDim(1, 1), (2 + 1e-6) / L)
    h1 = hamiltonian_h1(spec, L)
    tree_op = ChainOperator.from_terms(spec.dim, L, h1.terms)
    st = random_state(spec.dim, L, rng)
    got, ref = h1.apply(st).amplitudes, tree_op.apply(st).amplitudes
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-8


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


@pytest.mark.parametrize("L", [2, 3, 6, 9])
def test_h1_ladder_factor_application_count(L, rng, monkeypatch):
    spec = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(1, 1), 0.3)
    h1 = hamiltonian_h1(spec, L)
    st = random_state(spec.dim, L, rng)
    h1.apply(st)  # builds the plans
    calls = []
    inner = _FactorPlan.apply_into

    def counted(plan, vec, out, tmp):
        calls.append(plan)
        inner(plan, vec, out, tmp)

    monkeypatch.setattr(_FactorPlan, "apply_into", counted)
    h1.apply(st)
    assert len(calls) == sum(4 * i - 6 for i in range(2, L + 1))
    calls.clear()
    ChainOperator.from_terms(spec.dim, L, h1.terms).apply(st)
    tree_count = sum(2 * i - 3 + i * (i - 1) // 2 for i in range(2, L + 1))
    assert len(calls) == tree_count
    assert sum(len(t.factors) for t in h1.terms) == sum(i * (i - 1) for i in range(2, L + 1))


@pytest.mark.parametrize("dim", [GradedDim(1, 1), GradedDim(2, 1)])
def test_h1_ladder_realize_and_apply_agree_column_by_column(dim, monkeypatch):
    spec = RMatrixSpec(RFamily.UQ_GLNM, dim, 0.23 + 0.11j)
    L = 4
    # several column blocks, the last one partial
    monkeypatch.setattr(gradedcore, "_DENSE_BLOCK_AMPS", 5 * dim.n ** L)
    h1 = hamiltonian_h1(spec, L)
    realized = h1.realize()
    plans = h1._ladder_plans
    d = dim.n ** L
    for j in range(d):
        col = apply(h1, ChainState(dim, L, np.eye(d)[:, j])).amplitudes
        assert np.max(np.abs(col - realized[:, j])) <= 1e-14 * max(1.0, np.max(np.abs(col)))
    # one set of ladder plans serves both, and no prefix tree is built
    assert plans is not None and h1._ladder_plans is plans
    assert h1._plans is None


def test_h1_scalar_multiples_keep_the_ladder_and_sums_take_the_tree(rng):
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(2, 1), 0.3)
    L = 4
    h1 = hamiltonian_h1(spec, L)
    st = random_state(spec.dim, L, rng)
    base = h1.apply(st).amplitudes
    for scaled in (h1 * (0.5 - 2j), (0.5 - 2j) * h1):
        assert scaled.ladders is h1.ladders
        assert [t.coeff for t in scaled.terms] == [0.5 - 2j] * len(h1.terms)
        got = scaled.apply(st).amplitudes
        assert np.linalg.norm(got - (0.5 - 2j) * base) / np.linalg.norm(base) < 1e-13
    total = h1 + hamiltonian_h2(spec, L)
    assert total.ladders is None
    ref = base + hamiltonian_h2(spec, L).apply(st).amplitudes
    assert np.linalg.norm(total.apply(st).amplitudes - ref) / np.linalg.norm(ref) < 1e-12
    # a dense form made before scaling scales with it
    h1.realize()
    assert rel_max((h1 * 3.0).realize(), 3.0 * h1.realize()) < 1e-14


def test_pivot_ladder_rejects_malformed_ladders():
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), 0.3)
    rb = build_r_normalized(spec, 0.25)
    rb_back = build_r_normalized(spec, -0.25)
    fb = build_f_derivative(spec, 0.25)
    with pytest.raises(ValueError, match="rungs"):
        gradedcore.PivotLadder(steps=(), rungs=(((2, 1), fb),) * 2, backs=(((1, 2), rb_back),) * 2)
    with pytest.raises(ValueError, match="different sites"):
        gradedcore.PivotLadder(steps=(((3, 1), rb),), rungs=(((2, 1), fb),) * 2,
                               backs=(((1, 2), rb_back),) * 2)
    with pytest.raises(ValueError, match="not both"):
        ChainOperator(spec.dim, 2, terms=(), ladders=())


def _plan_apply(plan, vec):
    out, tmp = np.empty_like(vec), np.empty_like(vec)
    plan.apply_into(vec, out, tmp)
    return out


def program_factors(spec):
    """Every two-site factor the program builds for ``spec``: R, Rbar, F,
    the constant C, and the factors of the hbar -> 0 limit targets."""
    z = 0.27 + 0.19j
    ops = [build(spec, z) for build in (build_r, build_r_normalized, build_f_derivative)]
    ops.append(haldane_shastry_target(spec.dim, 2).terms[0].factors[0][1])  # 1 - P
    if spec.family is RFamily.UQ_GLNM and spec.dim.n == 2:
        ops.append(c_matrix(spec))
    if spec.dim.n == 2 and spec.dim.n_odd == 1:
        ops += [fac for term in anisotropic_target(spec.dim, 2).terms for _, fac in term.factors]
    return ops


@pytest.mark.parametrize("dim", [GradedDim(1, 0), GradedDim(0, 1)] + DIMS)
@pytest.mark.parametrize("fam", list(RFamily))
def test_r_factor_plans_split_into_diag_and_swap(dim, fam, rng):
    # program factors have only e_aa x e_cc and e_ac x e_ca entries: one
    # diagonal and one swap action, flips of both parities in the one swap
    L = 4
    spec = RMatrixSpec(fam, dim, 0.3)
    vec = rng.standard_normal(dim.n ** L) + 1j * rng.standard_normal(dim.n ** L)
    kinds = ["diag", "swap"] if dim.n > 1 else ["diag"]
    for idx, op in enumerate(program_factors(spec)):
        for sites in ((1, 3), (4, 2), (2, 3), (3, 2)):
            plan = _FactorPlan(dim, sites, op)
            assert [kind for kind, *_ in plan.actions] == kinds, (idx, sites)
            ref = embed_realized(op, sites, L) @ vec
            err = np.linalg.norm(_plan_apply(plan, vec) - ref) / (np.linalg.norm(ref) + 1e-300)
            assert err < 1e-13, (idx, sites, err)


def test_mixed_parity_r_keeps_one_diag_and_one_swap():
    # at (1|1) the flips are odd, so the even sector is purely diagonal
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), 0.3)
    plan = _FactorPlan(spec.dim, (2, 4), build_r_normalized(spec, 0.31 + 0.2j))
    assert [kind for kind, *_ in plan.actions] == ["diag", "swap"]


@pytest.mark.parametrize("dim", DIMS)
def test_full_factor_plan_leaves_only_the_remainder_to_gen(dim, rng):
    L = 4
    n = dim.n
    op = random_factor(dim, rng)
    vec = rng.standard_normal(n ** L) + 1j * rng.standard_normal(n ** L)
    a, c = np.indices((n, n))
    for sites in ((1, 3), (2, 3), (4, 2)):
        X4 = (op if sites[0] < sites[1] else r_transposed(op)).entries.reshape(n, n, n, n)
        rest = X4.copy()
        rest[a, c, a, c] = 0.0
        rest[a, c, c, a] = 0.0
        plan = _FactorPlan(dim, sites, op)
        kinds = [kind for kind, *_ in plan.actions]
        assert kinds[:2] == ["diag", "swap"] and set(kinds[2:]) == {"gen"}
        # the gen sectors are disjoint and carry +-1 signs only
        gen = sum(np.abs(G) for kind, G, *_ in plan.actions if kind == "gen")
        assert np.array_equal(gen, np.abs(rest))
        ref = embed_realized(op, sites, L) @ vec
        err = np.linalg.norm(_plan_apply(plan, vec) - ref) / np.linalg.norm(ref)
        assert err <= 1e-13, (sites, err)


def test_dense_cap_enforced():
    dim = GradedDim(1, 1)
    op = ChainOperator(dim, 13, terms=(ProductTerm(1.0, (((1, 2), identity_operator(dim, 2)),)),))
    with pytest.raises(ValueError):
        op.to_dense()


def test_commutator_norm_same_operator_is_zero(rng):
    dim = GradedDim(1, 1)
    x = LocalOperator(dim, 2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    a = embed(x, (1, 2), 3)
    assert commutator_norm(a, a) == 0.0


def test_commutator_norm_mixed_arguments_match_the_graded_product(rng):
    # realized matrices give the value of the coefficient-array route: the
    # sign masks only flip signs, so both routes multiply the same matrices
    dim = GradedDim(2, 1)
    x, y = random_factor(dim, rng), random_factor(dim, rng)
    chain_op = embed(x, (3, 1), 3)
    chain = (chain_op, LocalOperator(dim, 3, chain_op.to_dense()))  # (argument, coefficient form)
    local = (embed_local(y, (2, 3), 3),) * 2
    for (a, ea), (b, eb) in ((chain, local), (local, chain), (local, (chain[1],) * 2)):
        comm = super_multiply(ea, eb) - super_multiply(eb, ea)
        assert commutator_norm(a, b) == comm.norm() / (ea.norm() * eb.norm() + 1e-300)


def test_commutator_norm_rejects_mismatched_and_foreign_operands(rng):
    x = random_factor(GradedDim(1, 1), rng)
    with pytest.raises(ValueError):  # same size, other grading
        commutator_norm(embed(x, (1, 2), 2), identity_operator(GradedDim(2, 0), 2))
    with pytest.raises(ValueError):
        commutator_norm(embed(x, (1, 2), 3), x)
    with pytest.raises(TypeError):
        commutator_norm(embed(x, (1, 2), 2), x.entries)
    with pytest.raises(TypeError):
        commutator_norm(3.0, x)


def test_permutation_chain_commutator_disjoint():
    dim = GradedDim(1, 1)
    P = graded_permutation(dim)
    assert commutator_norm(embed(P, (1, 2), 4), embed(P, (3, 4), 4)) < 1e-14


def test_chain_dense_is_ordered_product_of_embeddings(rng):
    # the dense member of a factor-term operator equals the graded product
    # of the individually embedded factors
    dim = GradedDim(1, 1)
    L = 3
    ops = []
    for _ in range(3):
        ent = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ops.append(LocalOperator(dim, 2, ent))
    sites = [(1, 2), (3, 1), (2, 3)]
    term = ProductTerm(1.0, tuple(zip(sites, ops)))
    chain_dense = ChainOperator.from_terms(dim, L, [term]).to_dense()
    manual = embed_local(ops[0], sites[0], L)
    for s, o in zip(sites[1:], ops[1:]):
        manual = super_multiply(manual, embed_local(o, s, L))
    assert np.linalg.norm(chain_dense - manual.entries) / manual.norm() < 1e-12
