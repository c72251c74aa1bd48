import math

import numpy as np
import pytest

from gradedhs import (
    ChainOperator,
    GradedDim,
    RFamily,
    RMatrixSpec,
    anisotropic_target,
    build_f_derivative,
    build_r_normalized,
    c_factorized_h1,
    c_matrix,
    commutator_norm,
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
    phi_sum_identity,
    r_transposed,
    save_operator_binary,
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
    with pytest.raises(ValueError, match=r"does not invert the step at \(3, 2\)"):
        hamiltonian_h1(spec, 3)
    monkeypatch.setattr(chain_mod, "build_r_normalized",
                        lambda spec, z: clean(spec, z) * (1.0 + 1e-5 * (z > 0.5)))
    with pytest.raises(ValueError, match=r"sites \(2, 6\) .* = 2.00e-05"):
        hamiltonian_h1(spec, 6)
    # a NaN defect counts as infinite
    def nan_rb(spec, z):
        op = clean(spec, z)
        return op * np.nan if z < 0 else op

    monkeypatch.setattr(chain_mod, "build_r_normalized", nan_rb)
    with pytest.raises(ValueError, match=r"= inf > 1e-06"):
        hamiltonian_h1(spec, 3)
    hamiltonian_h2(spec, 3)  # the tree-evaluated operators make no such check


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
    for length in (3, 4):
        spec = spec_of(fam, (1, 1))
        h2 = hamiltonian_h2(spec, length).to_dense()
        ht2 = htilde_k(spec, length, 2).to_dense()
        assert np.linalg.norm(ht2 - h2) / np.linalg.norm(h2) < 1e-11


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


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nm", [(1, 1), (2, 0)])
def test_uq_limit_is_graded_exchange_chain(nm):
    spec = spec_of(RFamily.UQ_GLNM, nm)
    limit = nonrelativistic_limit_h1(spec, 4).to_dense()
    target = haldane_shastry_target(spec.dim, 4).to_dense()
    assert np.max(np.abs(limit - target)) < 1e-5


def test_zn_limit_is_anisotropic_chain():
    spec = spec_of(RFamily.ZN_GRADED, (1, 1))
    limit = nonrelativistic_limit_h1(spec, 4).to_dense()
    target = anisotropic_target(spec.dim, 4).to_dense()
    assert np.max(np.abs(limit - target)) < 1e-5


def test_limit_target_dispatch():
    assert limit_target(spec_of(RFamily.UQ_GLNM, (2, 1)), 3) is not None
    with pytest.raises(ValueError):
        limit_target(spec_of(RFamily.ZN_GRADED, (2, 1)), 3)


def test_limit_ladder_validation():
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    with pytest.raises(ValueError):
        nonrelativistic_limit_h1(spec, 3, hbar_ladder=(1e-3, 3e-4, 1e-4))
    with pytest.raises(ValueError):
        nonrelativistic_limit_h1(spec, 3, hbar_ladder=(1e-3,))


@pytest.mark.parametrize("fam,target", [(RFamily.UQ_GLNM, haldane_shastry_target),
                                        (RFamily.ZN_GRADED, anisotropic_target)])
def test_limit_at_seven_sites(fam, target):
    # the three-level ladder's truncation error reached 1.09e-5 here
    spec = spec_of(fam, (1, 1))
    limit = nonrelativistic_limit_h1(spec, 7).to_dense()
    assert np.max(np.abs(limit - target(spec.dim, 7).to_dense())) <= 1e-6


def test_limit_deeper_ladder_is_closer():
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    target = haldane_shastry_target(spec.dim, 5).to_dense()
    devs = [
        np.max(np.abs(nonrelativistic_limit_h1(spec, 5, ladder).to_dense() - target))
        for ladder in ((1e-3, 5e-4, 2.5e-4), (1e-3, 5e-4, 2.5e-4, 1.25e-4))
    ]
    assert devs[1] < devs[0] / 10


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
    op = ChainOperator(dim, 2, dense=ident.entries)
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


def test_spectrum_degeneracy_clustering():
    dim = GradedDim(2, 0)
    mat = np.diag([0.0, 0.0, 1.0, 1.0 + 5e-9])
    result = spectrum(ChainOperator(dim, 2, dense=mat))
    assert result.degeneracies == (2, 2)


def test_spectrum_csv_roundtrip(tmp_path):
    dim = GradedDim(2, 0)
    mat = np.diag([0.0, 1.0, 1.0, 2.5])
    result = spectrum(ChainOperator(dim, 2, dense=mat))
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
