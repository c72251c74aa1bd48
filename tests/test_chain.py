import itertools
import math
import struct

import numpy as np
import pytest

from gradedhs import (
    GradedDim,
    LocalOperator,
    RFamily,
    RMatrixSpec,
    anisotropic_target,
    build_f_derivative,
    build_r_normalized,
    c_factorized_h1,
    c_matrix,
    commutator_norm,
    embed,
    equilibrium_points,
    frozen_chain,
    haldane_shastry_target,
    hamiltonian_h1,
    hamiltonian_h2,
    htilde1_constant,
    htilde_k,
    identity_operator,
    limit_target,
    load_operator_binary,
    nonrelativistic_limit_h1,
    phi,
    phi_sum_identity,
    r_transposed,
    save_operator_binary,
    sigma_mask,
    site_gauge_conjugation,
    spectrum,
    spectrum_to_csv,
    super_multiply,
)

HBAR = 0.3


def spec_of(fam, nm, hbar=HBAR):
    return RMatrixSpec(fam, GradedDim(*nm), hbar)


# ---------------------------------------------------------------------------
# phi-sum identities
# ---------------------------------------------------------------------------


def test_phi_sum_basic():
    assert phi_sum_identity(3, 1, 1, 2) < 1e-12


def test_phi_sum_full_subset_exact():
    assert phi_sum_identity(4, 4, 1, 3) == 0.0


def test_phi_sum_exhaustive_l5():
    for k in range(1, 6):
        for l in range(1, 6):
            for m in range(1, 6):
                assert phi_sum_identity(5, k, l, m) < 1e-11


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def test_h1_two_sites_single_term():
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    x = equilibrium_points(2)
    expected = super_multiply(
        build_r_normalized(spec, x[0] - x[1]),
        r_transposed(build_f_derivative(spec, x[1] - x[0])),
    )
    h1 = hamiltonian_h1(spec, 2)
    assert np.allclose(h1.to_dense(), expected.entries, atol=1e-13)


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm", [(1, 1), (2, 1)])
def test_h1_terms_are_the_pair_products(fam, nm):
    # the expanded ladder terms: pair (i, k), k ascending within each i, is
    # Rb_{i-1,i} .. Rb_{k,i} Fb_{i,k} Rb_{i,k+1} .. Rb_{i,i-1}, each factor
    # built at its own argument x_i - x_j
    spec = spec_of(fam, nm)
    L = 6
    x = equilibrium_points(L)
    expected = []
    for i in range(2, L + 1):
        for k in range(1, i):
            expected.append(
                [((j, i), build_r_normalized, j, i) for j in range(i - 1, k - 1, -1)]
                + [((i, k), build_f_derivative, i, k)]
                + [((i, j), build_r_normalized, i, j) for j in range(k + 1, i)]
            )
    terms = hamiltonian_h1(spec, L).terms
    assert len(terms) == len(expected)
    for term, factors in zip(terms, expected):
        assert term.coeff == 1.0
        assert [sites for sites, _ in term.factors] == [f[0] for f in factors]
        for (_, op), (_, build, a, b) in zip(term.factors, factors):
            assert op.entries.tobytes() == build(spec, x[a - 1] - x[b - 1]).entries.tobytes()
    assert sum(len(t.factors) for t in hamiltonian_h1(spec, 16).terms) == 1360


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm", [(1, 1), (2, 1)])
def test_h2_terms_are_pivot_products(fam, nm):
    # per pair m < l, weighted by w_ml: pivot m's pair products (kind A),
    # then pivot l's in k ascending, k != m, as they stand for k > m (kind
    # C) and for k < m without Rb_{m,l}, Rb_{l,m} and conjugated by
    # Q_m = Rb_{m,1} .. Rb_{m,m-1} (kind B)
    spec = spec_of(fam, nm)
    L = 5
    x = equilibrium_points(L)

    def pair_product(i, k, skip=None):
        return ([((j, i), build_r_normalized, j, i) for j in range(i - 1, k - 1, -1) if j != skip]
                + [((i, k), build_f_derivative, i, k)]
                + [((i, j), build_r_normalized, i, j) for j in range(k + 1, i) if j != skip])

    expected = []
    for m in range(1, L):
        q_inv = [((j, m), build_r_normalized, j, m) for j in range(m - 1, 0, -1)]
        q = [((m, j), build_r_normalized, m, j) for j in range(1, m)]
        for l in range(m + 1, L + 1):
            w = np.prod([phi(spec.hbar, x[j - 1] - x[m - 1]) * phi(spec.hbar, x[j - 1] - x[l - 1])
                         for j in range(1, L + 1) if j not in (m, l)])
            expected += [(w, pair_product(m, k)) for k in range(1, m)]
            expected += [(w, pair_product(l, k) if k > m else q_inv + pair_product(l, k, m) + q)
                         for k in range(1, l) if k != m]
    # the ladders hold each distinct product once, with the pair weights
    # summed
    summed = {}
    for w, factors in expected:
        key = tuple((sites, build(spec, x[a - 1] - x[b - 1]).entries.tobytes())
                    for sites, build, a, b in factors)
        summed[key] = summed.get(key, 0.0) + w
    terms = hamiltonian_h2(spec, L).terms
    assert len(terms) == len(summed)
    got = {tuple((sites, op.entries.tobytes()) for sites, op in term.factors): term.coeff
           for term in terms}
    assert got.keys() == summed.keys()
    for key, w in summed.items():
        assert got[key] == pytest.approx(w, rel=1e-13)


def test_h2_checks_each_step_pair_once(monkeypatch):
    # one ladder per pivot: the L(L-1)/2 pairs Rb_{k,l} Rb_{l,k}, k < l,
    # each checked once per build; the ladder guard makes the only graded
    # products of an H2 build, one per pair
    from collections import Counter

    from gradedhs import gradedcore

    clean = gradedcore.super_multiply
    checked = []

    def counted(a, b):
        checked.append((a.entries.tobytes(), b.entries.tobytes()))
        return clean(a, b)

    monkeypatch.setattr(gradedcore, "super_multiply", counted)
    L = 6
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    hamiltonian_h2(spec, L)
    assert len(checked) == L * (L - 1) // 2
    x = equilibrium_points(L)

    def rb(i, k):
        return build_r_normalized(spec, x[i - 1] - x[k - 1])

    pairs = Counter((rb(k, i).entries.tobytes(), r_transposed(rb(i, k)).entries.tobytes())
                    for i in range(2, L + 1) for k in range(1, i))
    assert Counter(checked) == pairs


def test_h2_checks_each_distinct_factor_once(monkeypatch):
    from gradedhs import gradedcore

    clean = gradedcore._check_flip_form
    calls = []

    def counted(op, sites):
        calls.append((sites, id(op)))
        clean(op, sites)

    monkeypatch.setattr(gradedcore, "_check_flip_form", counted)
    h2 = hamiltonian_h2(spec_of(RFamily.UQ_GLNM, (1, 1)), 6)
    distinct = {(sites, id(op)) for t in h2.terms for sites, op in t.factors}
    assert len(calls) == len(set(calls)) == len(distinct) == 44
    # 60 factors in the pivot products (pivot 6's at partner 1 weighs 0)
    # and 200 in the conjugated ones
    assert sum(len(t.factors) for t in h2.terms) == 260


@pytest.mark.parametrize("build", [
    hamiltonian_h1,
    hamiltonian_h2,
    lambda spec, L: htilde_k(spec, L, 2),
    c_factorized_h1,
])
def test_hamiltonians_build_each_factor_once_per_argument(build, monkeypatch):
    import gradedhs.chain as chain_mod

    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    L = 6
    calls = {"r": [], "f": []}
    clean_r, clean_f = chain_mod.build_r_normalized, chain_mod.build_f_derivative

    def counted_r(spec, z):
        calls["r"].append(z)
        return clean_r(spec, z)

    def counted_f(spec, z):
        calls["f"].append(z)
        return clean_f(spec, z)

    monkeypatch.setattr(chain_mod, "build_r_normalized", counted_r)
    monkeypatch.setattr(chain_mod, "build_f_derivative", counted_f)
    op = build(spec, L)
    assert calls["r"]
    for args in calls.values():
        assert len(args) == len(set(args))
    # and each factor is one built at its own sites' argument (or the
    # constant C of the factorized form)
    x = equilibrium_points(L)
    constant = c_matrix(spec).entries.tobytes()
    for term in op.terms:
        for (i, j), fac in term.factors:
            z = x[i - 1] - x[j - 1]
            built = {clean(spec, z).entries.tobytes() for clean in (clean_r, clean_f)}
            assert fac.entries.tobytes() in built | {constant}


def test_h1_rejects_a_step_back_that_does_not_invert_its_step(monkeypatch):
    # the ladder form of H1 rests on Rb_{ki} Rb_{ik} = 1; with a broken
    # normalized R it would silently disagree with its own terms
    import gradedhs.chain as chain_mod

    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    clean = chain_mod.build_r_normalized
    monkeypatch.setattr(chain_mod, "build_r_normalized", lambda spec, z: 1.5 * clean(spec, z))
    with pytest.raises(ValueError, match=r"does not invert the step at \(2, 1\)"):
        hamiltonian_h1(spec, 3)
    monkeypatch.setattr(chain_mod, "build_r_normalized",
                        lambda spec, z: clean(spec, z) * (1.0 + 1e-5 * (z > 0.5)))
    with pytest.raises(ValueError, match=r"sites \(1, 5\) .* = 2.00e-05"):
        hamiltonian_h1(spec, 6)
    # a NaN defect counts as infinite
    def nan_rb(spec, z):
        op = clean(spec, z)
        return op * np.nan if z < 0 else op

    monkeypatch.setattr(chain_mod, "build_r_normalized", nan_rb)
    with pytest.raises(ValueError, match=r"= inf > 1e-06"):
        hamiltonian_h1(spec, 3)
    # H2 takes its terms from the same ladders, so it carries the same checks
    # (pivot 2's ladder first)
    with pytest.raises(ValueError, match=r"does not invert the step at \(2, 1\)"):
        hamiltonian_h2(spec, 4)


def test_pivot_ladders_check_the_pair_at_partner_one(monkeypatch):
    # H1's reduction writes Rb_{i,1}^{-1} as Rb_{1,i} and H2's Q_m^{-1} uses
    # Rb_{1,m}, but no step of a ladder ends at partner 1: break only the
    # pairs that touch site 1
    import gradedhs.chain as chain_mod

    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    clean = chain_mod._EquilibriumFactors.rb

    def rb(self, i, j):
        op = clean(self, i, j)
        return 1.5 * op if 1 in (i, j) else op

    monkeypatch.setattr(chain_mod._EquilibriumFactors, "rb", rb)
    for build, length in ((hamiltonian_h1, 2), (hamiltonian_h1, 4), (hamiltonian_h2, 3)):
        with pytest.raises(ValueError, match=r"\(1, 2\) does not invert the step at \(2, 1\)"):
            build(spec, length)


def test_h2_two_sites_vanishes_like_its_expansion():
    # every block range is empty at L = 2, consistent with the direct
    # shift-expansion route
    spec = spec_of(RFamily.ZN_GRADED, (1, 1))
    assert np.linalg.norm(hamiltonian_h2(spec, 2).to_dense()) == 0.0
    assert np.linalg.norm(htilde_k(spec, 2, 2).to_dense()) == 0.0


def test_h2_scalar_case_vanishes():
    spec = spec_of(RFamily.UQ_GLNM, (1, 0))
    assert np.linalg.norm(hamiltonian_h2(spec, 3).to_dense()) < 1e-12


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm", [(2, 0), (1, 1)])
@pytest.mark.parametrize("length", [3, 4])
def test_h1_h2_commute(fam, nm, length):
    spec = spec_of(fam, nm)
    h1 = hamiltonian_h1(spec, length)
    h2 = hamiltonian_h2(spec, length)
    assert commutator_norm(h1, h2) < 1e-10


def test_h1_h2_commute_three_dim():
    spec = spec_of(RFamily.ZN_GRADED, (2, 1))
    assert commutator_norm(hamiltonian_h1(spec, 3), hamiltonian_h2(spec, 3)) < 1e-10


@pytest.mark.parametrize("fam", list(RFamily))
def test_htilde1_equals_h1_after_constant(fam):
    for length in (3, 4):
        spec = spec_of(fam, (1, 1))
        h1 = hamiltonian_h1(spec, length).to_dense()
        ht1 = htilde_k(spec, length, 1).to_dense() / htilde1_constant(spec, length)
        assert np.linalg.norm(ht1 - h1) / np.linalg.norm(h1) < 1e-11


@pytest.mark.parametrize("fam", list(RFamily))
def test_htilde2_equals_h2(fam):
    # the shift expansion is an independent route to the closed form
    for nm, length in [((1, 1), 3), ((1, 1), 4), ((1, 1), 5), ((1, 1), 6),
                       ((2, 1), 4), ((1, 2), 4), ((2, 0), 5)]:
        spec = spec_of(fam, nm)
        h2 = hamiltonian_h2(spec, length).to_dense()
        ht2 = htilde_k(spec, length, 2).to_dense()
        assert np.linalg.norm(ht2 - h2) / np.linalg.norm(h2) < 1e-11, (nm, length)


def test_htilde_top_order_vanishes():
    # k = L has an empty right block, so no derivative terms survive
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    assert np.linalg.norm(htilde_k(spec, 3, 3).to_dense()) == 0.0


def test_htilde3_commutes_with_h1():
    spec = spec_of(RFamily.ZN_GRADED, (1, 1))
    h1 = hamiltonian_h1(spec, 4)
    h3 = htilde_k(spec, 4, 3)
    assert commutator_norm(h1, h3) < 1e-10


def test_frozen_chain_equilibrium_exact():
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    fc = frozen_chain(spec, 4)
    assert fc.x == tuple(np.arange(1, 5) / 4.0)
    assert set(fc.hamiltonians) == {1, 2}


# ---------------------------------------------------------------------------
# constant-factor form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nm", [(2, 0), (1, 1)])
def test_c_factorized_h1_matches(nm):
    spec = spec_of(RFamily.UQ_GLNM, nm)
    for length in (3, 4):
        a = c_factorized_h1(spec, length).to_dense()
        b = hamiltonian_h1(spec, length).to_dense()
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-11


def test_c_factorized_h1_right_string_is_the_mirrored_left_one():
    # the string after C, read off the one before it, is the ascending loop
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    length = 5
    C = c_matrix(spec).entries
    terms = iter(c_factorized_h1(spec, length).terms)
    for i in range(2, length + 1):
        for k in range(1, i):
            want = ([(j, i) for j in range(i - 1, k, -1)] + [(k, i)]
                    + [(i, j) for j in range(k + 1, i)])
            factors = next(terms).factors
            assert [sites for sites, _ in factors] == want
            assert np.array_equal(factors[i - 1 - k][1].entries, C)


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------


def limit_deviation(limit, target):
    """Largest entry of |limit - target|, block by block over shared sectors."""
    pairs = list(zip(limit, target.blocks(), strict=True))
    assert all(np.array_equal(ia, ib) for (ia, _), (ib, _) in pairs)
    return max(float(np.max(np.abs(a - b))) for (_, a), (_, b) in pairs)


def neville_reference(spec, length, hbar_ladder=(1e-3, 5e-4, 2.5e-4, 1.25e-4)):
    """Richardson limit of H1 / hbar on the full coefficient arrays."""
    row = []
    for h in hbar_ladder:
        new = [hamiltonian_h1(RMatrixSpec(spec.family, spec.dim, h), length).to_dense() / h]
        for k, prev in enumerate(row, start=1):
            new.append((2.0 ** k * new[-1] - prev) / (2.0 ** k - 1.0))
        row = new
    return row[-1]


@pytest.mark.parametrize("fam,nm,length", [
    (RFamily.UQ_GLNM, (1, 1), 6), (RFamily.ZN_GRADED, (1, 1), 6), (RFamily.UQ_GLNM, (2, 1), 4),
    (RFamily.UQ_GLNM, (2, 0), 5), (RFamily.UQ_GLNM, (0, 2), 5),
])
def test_block_limit_equals_the_full_matrix_tableau(fam, nm, length):
    spec = spec_of(fam, nm)
    limit = nonrelativistic_limit_h1(spec, length)
    assert len(limit) > 1
    d = spec.dim.n ** length
    full = np.zeros((d, d), dtype=complex)
    for idx, block in limit:
        full[np.ix_(idx, idx)] = block
    # the reference is a coefficient array: mask it into the realized matrix
    assert np.array_equal(full, sigma_mask(spec.dim, length) * neville_reference(spec, length))


@pytest.mark.parametrize("nm", [(1, 1), (2, 0)])
def test_uq_limit_is_graded_exchange_chain(nm):
    spec = spec_of(RFamily.UQ_GLNM, nm)
    limit = nonrelativistic_limit_h1(spec, 4)
    assert limit_deviation(limit, haldane_shastry_target(spec.dim, 4)) < 1e-5


def test_zn_limit_is_anisotropic_chain():
    spec = spec_of(RFamily.ZN_GRADED, (1, 1))
    limit = nonrelativistic_limit_h1(spec, 4)
    assert limit_deviation(limit, anisotropic_target(spec.dim, 4)) < 1e-5


def test_limit_target_dispatch():
    assert limit_target(spec_of(RFamily.UQ_GLNM, (2, 1)), 3) is not None
    with pytest.raises(ValueError, match="no closed-form limit target"):
        limit_target(spec_of(RFamily.ZN_GRADED, (2, 1)), 3)
    with pytest.raises(ValueError, match="no closed-form limit target"):
        limit_target(spec_of(RFamily.ZN_GRADED, (2, 1)), 3, "aniso")
    # a requested target must be the family's
    uq, zn = spec_of(RFamily.UQ_GLNM, (1, 1)), spec_of(RFamily.ZN_GRADED, (1, 1))
    for spec, kind, target in ((uq, "hs", haldane_shastry_target), (zn, "aniso", anisotropic_target)):
        assert np.array_equal(limit_target(spec, 3, kind).realize(), target(spec.dim, 3).realize())
    with pytest.raises(ValueError, match="is 'hs', not 'aniso'"):
        limit_target(uq, 3, "aniso")
    with pytest.raises(ValueError, match="is 'aniso', not 'hs'"):
        limit_target(zn, 3, "hs")


def test_limit_ladder_validation():
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    with pytest.raises(ValueError):
        nonrelativistic_limit_h1(spec, 3, hbar_ladder=(1e-3, 3e-4, 1e-4))
    with pytest.raises(ValueError):
        nonrelativistic_limit_h1(spec, 3, hbar_ladder=(1e-3,))
    with pytest.raises(RuntimeError, match="did not settle"):
        nonrelativistic_limit_h1(spec, 3, hbar_ladder=(0.2, 0.1))


@pytest.mark.parametrize("fam,target", [(RFamily.UQ_GLNM, haldane_shastry_target),
                                        (RFamily.ZN_GRADED, anisotropic_target)])
def test_limit_at_seven_sites(fam, target):
    # the three-level ladder's truncation error reached 1.09e-5 here
    spec = spec_of(fam, (1, 1))
    limit = nonrelativistic_limit_h1(spec, 7)
    assert limit_deviation(limit, target(spec.dim, 7)) <= 1e-6


def test_limit_deeper_ladder_is_closer():
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    target = haldane_shastry_target(spec.dim, 5)
    devs = [
        limit_deviation(nonrelativistic_limit_h1(spec, 5, ladder), target)
        for ladder in ((1e-3, 5e-4, 2.5e-4), (1e-3, 5e-4, 2.5e-4, 1.25e-4))
    ]
    assert devs[1] < devs[0] / 10


def motif_levels(nm, length):
    """Haldane-Shastry motif energies, built from the one-magnon dispersion
    eps(j) = 2 pi^2 j (L - j), j = 1..L-1, and not from any chain operator:
    at (2|0) the sums of eps over subsets of {1..L-1} with no two adjacent
    elements, at (1|1) over all subsets (supersymmetric motifs), at (0|2)
    sum(eps) minus the (2|0) sums.  Repeats are kept."""
    eps = np.array([2 * math.pi ** 2 * j * (length - j) for j in range(1, length)])
    levels = np.array([
        float(np.dot(bits, eps)) for bits in itertools.product((0, 1), repeat=length - 1)
        if nm == (1, 1) or not any(a and b for a, b in zip(bits, bits[1:]))
    ])
    return eps.sum() - levels if nm == (0, 2) else levels


def motif_miss(vals, levels):
    """Largest distance, relative to max |value|, from an eigenvalue to the
    nearest level or from a level to the nearest eigenvalue: below a
    tolerance, the distinct eigenvalues are the distinct levels."""
    dist = np.abs(vals[:, None] - levels[None, :])
    scale = max(np.max(np.abs(vals)), np.max(np.abs(levels)))
    return max(np.max(dist.min(axis=1)), np.max(dist.min(axis=0))) / scale


MOTIF_NMS = [(2, 0), (1, 1), (0, 2)]


@pytest.mark.parametrize("nm", MOTIF_NMS)
@pytest.mark.parametrize("length", [3, 4, 5, 6, 7])
def test_exchange_target_spectrum_is_the_motif_spectrum(nm, length):
    vals = spectrum(haldane_shastry_target(GradedDim(*nm), length)).eigenvalues
    assert motif_miss(vals, motif_levels(nm, length)) <= 1e-8
    # the three gradings have different motif spectra, so the oracle tells
    # them apart
    for other in MOTIF_NMS:
        if other != nm:
            assert motif_miss(vals, motif_levels(other, length)) > 1e-3


@pytest.mark.parametrize("nm", MOTIF_NMS)
@pytest.mark.parametrize("length", [4, 5])
def test_uq_limit_spectrum_is_the_motif_spectrum(nm, length):
    # the Richardson limit of H1 / hbar, block by block, against the motif
    # levels (measured misses at most 1.7e-11)
    limit = nonrelativistic_limit_h1(spec_of(RFamily.UQ_GLNM, nm, 0.305), length)
    vals = np.concatenate([np.linalg.eigvals(block) for _, block in limit])
    assert len(vals) == sum(nm) ** length
    assert motif_miss(vals, motif_levels(nm, length)) <= 1e-8


# ---------------------------------------------------------------------------
# twist non-equivalence of the frozen chains (observed, recorded behavior)
# ---------------------------------------------------------------------------


def test_site_gauge_does_not_conjugate_h1_between_families():
    # the site gauge relates the R-matrices pointwise, but the spectral
    # derivative picks up gauge-derivative commutators, so the frozen
    # Hamiltonians are not conjugate and their spectra differ; the two
    # families limit to different models, so this is expected
    for nm in ((2, 0), (1, 1)):
        dim = GradedDim(*nm)
        hu = hamiltonian_h1(spec_of(RFamily.UQ_GLNM, nm), 3).realize()
        hz = hamiltonian_h1(spec_of(RFamily.ZN_GRADED, nm), 3).realize()
        U = site_gauge_conjugation(dim, 3)
        conj = U @ hu @ np.linalg.inv(U)
        assert np.linalg.norm(conj - hz) / np.linalg.norm(hz) > 0.1
        eu = np.sort_complex(np.linalg.eigvals(hu))
        ez = np.sort_complex(np.linalg.eigvals(hz))
        assert np.max(np.abs(eu - ez)) > 1.0


# ---------------------------------------------------------------------------
# spectra and exports
# ---------------------------------------------------------------------------


def test_spectrum_of_identity():
    dim = GradedDim(1, 1)
    ident = identity_operator(dim, 2)
    op = embed(ident, (1, 2), 2)
    result = spectrum(op)
    assert len(result.eigenvalues) == 4
    assert result.clusters == ((1 + 0j, 4),)


def test_exchange_chain_spectrum_against_permutation_oracle():
    # independent construction from plain permutation matrices (no graded
    # machinery): pi^2 sum (1 - P_swap) / sin^2 on the ungraded chain
    dim = GradedDim(2, 0)
    L = 3
    target = haldane_shastry_target(dim, L)
    x = equilibrium_points(L)
    d = 2 ** L
    oracle = np.zeros((d, d))
    for i in range(L):
        for k in range(i + 1, L):
            swap = np.zeros((d, d))
            for idx in range(d):
                bits = [(idx >> (L - 1 - t)) & 1 for t in range(L)]
                bits[i], bits[k] = bits[k], bits[i]
                jdx = sum(b << (L - 1 - t) for t, b in enumerate(bits))
                swap[jdx, idx] = 1.0
            w = math.pi ** 2 / math.sin(math.pi * (x[k] - x[i])) ** 2
            oracle += w * (np.eye(d) - swap)
    got = np.sort_complex(spectrum(target).eigenvalues)
    want = np.sort_complex(np.linalg.eigvals(oracle))
    assert np.max(np.abs(got - want)) < 1e-8


def same_multiset(got, want, tol):
    """Each value of ``got`` pairs with its own value of ``want`` within ``tol``."""
    free = list(want)
    for v in got:
        k = int(np.argmin(np.abs(np.array(free) - v)))
        if abs(free[k] - v) > tol:
            return False
        free.pop(k)
    return not free


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm,length", [((1, 1), 6), ((2, 0), 6), ((2, 1), 4), ((1, 2), 4)])
def test_block_spectrum_matches_the_full_eigvals(fam, nm, length):
    spec = spec_of(fam, nm, 0.3051)
    for op in (hamiltonian_h1(spec, length), hamiltonian_h2(spec, length)):
        assert len(op.blocks()) > 1
        got = spectrum(op).eigenvalues
        want = np.linalg.eigvals(op.realize())
        assert len(got) == len(want) == spec.dim.n ** length
        assert same_multiset(got, want, 1e-8 * np.max(np.abs(want)))


def test_spectrum_degeneracy_clustering():
    dim = GradedDim(2, 0)
    mat = np.diag([0.0, 0.0, 1.0, 1.0 + 5e-9])
    result = spectrum(embed(LocalOperator(dim, 2, mat), (1, 2), 2))
    assert result.degeneracies == (2, 2)


def test_spectrum_csv_roundtrip(tmp_path):
    dim = GradedDim(2, 0)
    mat = np.diag([0.0, 1.0, 1.0, 2.5])
    result = spectrum(embed(LocalOperator(dim, 2, mat), (1, 2), 2))
    path = tmp_path / "spec.csv"
    spectrum_to_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re,im,multiplicity"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[2]) for r in rows] == [1, 2, 1]
    assert [float(r[0]) for r in rows] == [0.0, 1.0, 2.5]


def test_binary_dump_roundtrip(tmp_path):
    spec = spec_of(RFamily.ZN_GRADED, (1, 1))
    h1 = hamiltonian_h1(spec, 3)
    path = tmp_path / "h1.bin"
    save_operator_binary(h1, spec, path)
    mat, header = load_operator_binary(path)
    assert header == {"n": 2, "length": 3, "family_tag": 1, "hbar": complex(HBAR)}
    assert np.array_equal(mat, h1.realize())
    raw = path.read_bytes()
    assert raw[:8] == b"GHSCHOP1"


def test_binary_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(ValueError):
        load_operator_binary(path)


def test_binary_load_checks_the_size(tmp_path):
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    path = tmp_path / "h1.bin"
    save_operator_binary(hamiltonian_h1(spec, 3), spec, path)
    raw = path.read_bytes()
    assert len(raw) == 36 + 16 * 64
    cases = [(raw[:-24], "payload is 1000 bytes, expected 16 d\\^2 = 1024"),
             (raw[:-16], "payload is 1008 bytes, expected 16 d\\^2 = 1024"),
             (raw + b"\0" * 8, "payload is 1032 bytes, expected 16 d\\^2 = 1024"),
             (raw[:30], "header is 30 bytes, expected 36")]
    for data, message in cases:
        path.write_bytes(data)
        with pytest.raises(ValueError, match=message):
            load_operator_binary(path)



@pytest.mark.parametrize("nm", [(1, 1), (2, 1)])
def test_binary_dump_payload_is_interleaved_re_im_float64(nm, tmp_path):
    spec = spec_of(RFamily.UQ_GLNM, nm)
    h1 = hamiltonian_h1(spec, 3)
    path = tmp_path / "h1.bin"
    save_operator_binary(h1, spec, path)
    mat = h1.realize()
    inter = np.empty(2 * mat.size, dtype="<f8")
    inter[0::2], inter[1::2] = mat.real.ravel(), mat.imag.ravel()
    assert path.read_bytes()[36:] == inter.tobytes()


def test_binary_load_keeps_signed_zeros_in_a_writable_array(tmp_path):
    # re + 1j * im once turned a real part of -0.0 into +0.0
    entries = [(-0.0, 1.0), (0.0, -0.0), (-0.0, -0.0), (1.5, -2.0)]
    path = tmp_path / "zeros.bin"
    path.write_bytes(
        struct.pack("<8sIIIdd", b"GHSCHOP1", 2, 1, 0, 0.3, 0.0)
        + struct.pack("<8d", *itertools.chain.from_iterable(entries))
    )
    mat, _ = load_operator_binary(path)
    assert mat.flags.writeable
    flat = mat.ravel()
    assert np.signbit(flat.real).tolist() == [math.copysign(1, re) < 0 for re, _ in entries]
    assert np.signbit(flat.imag).tolist() == [math.copysign(1, im) < 0 for _, im in entries]


@pytest.mark.parametrize("n, length, tag", [(0, 3, 0), (2, 0, 0), (2, 1, 9)])
def test_binary_load_refuses_headers_the_writer_never_writes(n, length, tag, tmp_path):
    # each once loaded: n = 0 as a (0, 0) matrix, L = 0 as (1, 1), tag 9 as is
    d = n ** length
    path = tmp_path / "bad.bin"
    path.write_bytes(struct.pack("<8sIIIdd", b"GHSCHOP1", n, length, tag, 0.3, 0.0)
                     + b"\0" * (16 * d * d))
    with pytest.raises(ValueError, match="never written"):
        load_operator_binary(path)

def test_frozen_chain_higher_orders():
    spec = spec_of(RFamily.ZN_GRADED, (1, 1))
    fc = frozen_chain(spec, 4, orders=(1, 2, 3))
    assert set(fc.hamiltonians) == {1, 2, 3}
    assert commutator_norm(fc.hamiltonians[2], fc.hamiltonians[3]) < 1e-10


def test_commuting_family_extends_through_order_four():
    # the shift-expansion Hamiltonians keep commuting beyond the two
    # displayed orders
    spec = spec_of(RFamily.ZN_GRADED, (1, 1))
    hams = {
        1: hamiltonian_h1(spec, 5),
        2: hamiltonian_h2(spec, 5),
        3: htilde_k(spec, 5, 3),
        4: htilde_k(spec, 5, 4),
    }
    for a in hams:
        for b in hams:
            if a < b:
                assert commutator_norm(hams[a], hams[b]) < 1e-10
