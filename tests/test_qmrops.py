import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from gradedhs import (
    FactorStore,
    GradedDim,
    LocalOperator,
    PoleError,
    ProbeBlock,
    RFamily,
    RMatrixSpec,
    SiteConfig,
    TestFunction,
    build_r,
    build_r_normalized,
    commutator_eval,
    embed_local,
    f_identity,
    f_identity_eta_spread,
    f_identity_residual,
    phi,
    random_test_function,
    scalar_commutator_eval,
    scalar_d,
    spin_d,
)
from gradedhs import qmrops
from gradedhs.gradedcore import embed_realized, sigma_mask
from gradedhs.qmrops import DifferenceOperator, _f_identity_assembled
from gradedhs.verify import mutated_r_builder

HBAR = 0.3 + 0.0j
ETA = 0.17 + 0.06j

Z3 = (0.11 + 0.21j, 0.43 + 0.13j, 0.78 + 0.32j)
Z4 = (0.11 + 0.21j, 0.38 + 0.13j, 0.63 + 0.32j, 0.91 + 0.18j)


def cfg_of(z, eta=ETA, hbar=HBAR):
    return SiteConfig(len(z), z, eta, hbar)


def draw_cfg(length, rng, eta=ETA, hbar=HBAR):
    for _ in range(200):
        z = tuple(complex(rng.uniform(0, 1), rng.uniform(0.1, 0.4)) for _ in range(length))
        try:
            return SiteConfig(length, z, eta, hbar)
        except ValueError:
            continue
    raise RuntimeError("no nonsingular configuration found")


# ---------------------------------------------------------------------------
# site configuration and test functions
# ---------------------------------------------------------------------------


def test_site_config_rejects_lattice_collision():
    with pytest.raises(ValueError):
        SiteConfig(2, (0.2 + 0.2j, 0.2 + 0.2j + ETA), ETA, HBAR)


def loop_lattice_collisions(cfg, depth):
    """Every (i, j, m, s) whose shifted difference sits within 1e-3 of an
    integer, tuple by tuple in loop order."""
    bad = []
    for i in range(cfg.length):
        for j in range(cfg.length):
            for m in range(-depth, depth + 1):
                for s in (0, 1):
                    v = cfg.z[i] - cfg.z[j] + m * cfg.eta + s * cfg.hbar
                    if i != j and abs(v - round(v.real)) <= 1e-3:
                        bad.append((i + 1, j + 1, m, s))
    return bad


def unchecked_cfg(z, eta):
    """A SiteConfig whose constructor has not checked it."""
    cfg = object.__new__(SiteConfig)
    for name, value in (("length", len(z)), ("z", tuple(complex(v) for v in z)),
                        ("eta", complex(eta)), ("hbar", HBAR)):
        object.__setattr__(cfg, name, value)
    return cfg


def test_site_config_names_the_first_three_collisions_in_loop_order():
    for z, eta in [
        ((0.2 + 0.2j, 0.2 + 0.2j + ETA, 0.2 + 0.2j, 0.7 + 0.3j), ETA),
        ((0.1 + 0.1j, 0.6 + 0.1j, 1.1 + 0.1j, 0.35 + 0.2j), 0.5),
        ((0.1 + 0.1j, 0.1 + 0.1j + 2 * ETA, 0.5 + 0.3j, 0.8 + 0.2j), ETA),  # at depth 2 only
        (Z4, ETA),  # none
    ]:
        cfg = unchecked_cfg(z, eta)
        for depth in (1, 2):
            want = loop_lattice_collisions(cfg, depth)
            if not want:
                cfg.validate_shifts(depth)
                continue
            with pytest.raises(PoleError) as err:
                cfg.validate_shifts(depth)
            assert str(err.value) == f"site differences too close to the pole lattice: {want[:3]}"


@pytest.mark.parametrize("bad", [complex("inf"), complex("nan"), 0.3 + complex(0, float("inf"))],
                         ids=["inf", "nan", "inf_imag"])
def test_site_config_refuses_non_finite_input(bad):
    for z, eta, hbar in [((Z3[0], bad, Z3[2]), ETA, HBAR), (Z3, bad, HBAR)]:
        with pytest.raises(PoleError, match="pole lattice"):
            SiteConfig(3, z, eta, hbar)
    with pytest.raises(PoleError):
        SiteConfig(3, Z3, ETA, bad)
    # one site has no difference to test
    for z, eta, hbar in [((bad,), ETA, HBAR), (Z3[:1], bad, HBAR), (Z3[:1], ETA, bad)]:
        with pytest.raises(PoleError, match="pole lattice"):
            SiteConfig(1, z, eta, hbar)
    assert SiteConfig(1, Z3[:1], ETA, HBAR).z == Z3[:1]


def test_test_function_shift_closure(rng):
    f = random_test_function(3, rng)
    z = np.array(Z3)
    shifted = f.shift(2, ETA)
    z_shifted = z.copy()
    z_shifted[1] -= ETA
    ref = f.value(z_shifted)
    assert abs(shifted.value(z) - ref) / abs(ref) < 1e-12


def test_vector_test_function_value_shape(rng):
    dim = GradedDim(1, 1)
    f = random_test_function(3, rng, dim=dim)
    val = f.value(np.array(Z3))
    assert val.shape == (8,)


# ---------------------------------------------------------------------------
# scalar operators
# ---------------------------------------------------------------------------


def test_scalar_top_order_is_pure_shift(rng):
    # k = L leaves no spectator sites, so D_L f = f(z - eta)
    f = random_test_function(3, rng)
    cfg = cfg_of(Z3)
    z = np.array(Z3)
    assert abs(scalar_d(3, cfg, f) - f.value(z - ETA)) < 1e-12


def test_scalar_first_order_two_sites(rng):
    f = random_test_function(2, rng)
    z = (0.21 + 0.17j, 0.64 + 0.36j)
    cfg = cfg_of(z)
    expected = phi(HBAR, z[1] - z[0]) * f.value([z[0] - ETA, z[1]]) + phi(
        HBAR, z[0] - z[1]
    ) * f.value([z[0], z[1] - ETA])
    assert abs(scalar_d(1, cfg, f) - expected) / abs(expected) < 1e-13


def test_scalar_commutators_random_configs(rng):
    for _ in range(20):
        cfg = draw_cfg(3, rng)
        f = random_test_function(3, rng)
        assert scalar_commutator_eval(cfg, 1, 2, f) < 1e-10


def test_scalar_commutators_all_pairs_l4(rng):
    cfg = draw_cfg(4, rng)
    f = random_test_function(4, rng)
    for k in range(1, 5):
        for l in range(k + 1, 5):
            assert scalar_commutator_eval(cfg, k, l, f) < 1e-10


# ---------------------------------------------------------------------------
# spin operators
# ---------------------------------------------------------------------------


def test_spin_first_order_two_sites_structure(rng):
    # the i = 1 term has no R factors; the i = 2 term is
    # Rbar_12(z1 - z2) applied after the shifted Rbar_21(z2 - eta - z1)
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), HBAR)
    f = random_test_function(2, rng, dim=spec.dim)
    z = (0.21 + 0.17j, 0.64 + 0.36j)
    cfg = cfg_of(z)
    r12 = embed_local(build_r_normalized(spec, z[0] - z[1]), (1, 2), 2).realize()
    r21 = embed_local(build_r_normalized(spec, z[1] - ETA - z[0]), (2, 1), 2).realize()
    manual = phi(HBAR, z[1] - z[0]) * f.value([z[0] - ETA, z[1]]) + phi(
        HBAR, z[0] - z[1]
    ) * (r12 @ (r21 @ f.value([z[0], z[1] - ETA])))
    got = spin_d(spec, 1, cfg, f)
    assert np.linalg.norm(got - manual) / np.linalg.norm(manual) < 1e-12


def test_spin_reduces_to_scalar_at_dim_one(rng):
    spec = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(1, 0), HBAR)
    fs = random_test_function(3, rng)
    fv = TestFunction(3, tuple((np.array([c]), m) for c, m in fs.terms))
    cfg = cfg_of(Z3)
    for k in (1, 2, 3):
        sv = spin_d(spec, k, cfg, fv)[0]
        sc = scalar_d(k, cfg, fs)
        assert abs(sv - sc) / abs(sc) < 1e-12


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm", [(1, 1), (2, 0), (2, 1)])
def test_spin_commutators(fam, nm, rng):
    spec = RMatrixSpec(fam, GradedDim(*nm), HBAR)
    cfg = cfg_of(Z3)
    for _ in range(3):
        f = random_test_function(3, rng, dim=spec.dim)
        for (k, l) in ((1, 2), (1, 3), (2, 3)):
            assert commutator_eval(spec, cfg, k, l, f) < 1e-9


def test_commutator_same_order_is_zero(rng):
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), HBAR)
    cfg = cfg_of(Z3)
    f = random_test_function(3, rng, dim=spec.dim)
    assert commutator_eval(spec, cfg, 1, 1, f) < 1e-13


def test_commutator_residual_independent_of_probe(rng):
    spec = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(1, 1), HBAR)
    cfg = cfg_of(Z3)
    vals = []
    for _ in range(10):
        f = random_test_function(3, rng, dim=spec.dim)
        vals.append(commutator_eval(spec, cfg, 1, 2, f))
    assert max(vals) < 1e-9


def dense_spin_d(spec, k, cfg, f):
    """Reference route: every factor embedded as a dense n^L x n^L matrix."""
    L = cfg.length
    z = np.array(cfg.z, dtype=complex)
    eta = cfg.eta
    vals = []
    for term in DifferenceOperator(k, L).subset_terms():
        pref = 1.0 + 0.0j
        for (j, i) in term.phi_pairs:
            pref *= phi(spec.hbar, z[j - 1] - z[i - 1])
        zs = z.copy()
        zs[[i - 1 for i in term.subset]] -= eta
        vec = f.value(zs)
        for (i, j) in reversed(term.right_sites):
            arg = z[i - 1] - eta - z[j - 1]
            vec = embed_realized(build_r_normalized(spec, arg), (i, j), L) @ vec
        for (j, i) in reversed(term.left_sites):
            arg = z[j - 1] - z[i - 1]
            vec = embed_realized(build_r_normalized(spec, arg), (j, i), L) @ vec
        vals.append(pref * vec)
    return sum(vals)


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm", [(1, 1), (2, 1), (1, 2)])
@pytest.mark.parametrize("length", [3, 4])
def test_spin_d_matches_dense_reference(fam, nm, length, rng):
    spec = RMatrixSpec(fam, GradedDim(*nm), HBAR)
    cfg = draw_cfg(length, rng)
    f = random_test_function(length, rng, dim=spec.dim)
    for k in range(1, length):
        ref = dense_spin_d(spec, k, cfg, f)
        got = spin_d(spec, k, cfg, f)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-13


def test_factor_store_builds_each_factor_once(rng, monkeypatch):
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(2, 1), HBAR)
    cfg = cfg_of(Z4)
    calls = []

    def counting(spec_, z):
        calls.append(z)
        return build_r_normalized(spec_, z)

    monkeypatch.setattr(qmrops, "build_r_normalized", counting)
    store = FactorStore(spec, cfg)
    probes = [random_test_function(4, rng, dim=spec.dim) for _ in range(3)]
    shared = [commutator_eval(spec, cfg, 1, 3, f, store=store) for f in probes]
    first = len(calls)
    assert first == len(set(calls))  # one build per distinct argument
    assert max(shared) < 1e-9
    commutator_eval(spec, cfg, 1, 3, probes[0], store=store)
    commutator_eval(spec, cfg, 2, 3, probes[1], store=store)
    assert len(calls) == first
    # a call without a store builds its own and gives the same value
    assert commutator_eval(spec, cfg, 1, 3, probes[0]) == shared[0]


def test_factor_store_refuses_other_configuration():
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), HBAR)
    store = FactorStore(spec, cfg_of(Z3))
    f = random_test_function(3, np.random.default_rng(1), dim=spec.dim)
    with pytest.raises(ValueError):
        commutator_eval(spec, cfg_of(Z3, eta=0.21 + 0.06j), 1, 2, f, store=store)
    other = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(1, 1), HBAR)
    with pytest.raises(ValueError):
        commutator_eval(other, cfg_of(Z3), 1, 2, f, store=store)


def test_factor_store_refuses_a_factor_outside_the_flip_form(monkeypatch):
    # the store is the one plan builder besides ChainOperator, and a plan
    # takes its factor's form on trust, so the store checks it
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), HBAR)

    def off_form(spec_, z):
        ent = build_r_normalized(spec_, z).entries.copy()
        ent[0, 1] = 0.5  # e_11 x e_12
        return LocalOperator(spec_.dim, 2, ent)

    monkeypatch.setattr(qmrops, "build_r_normalized", off_form)
    with pytest.raises(ValueError, match=r"sites \(2, 1\)"):
        FactorStore(spec, cfg_of(Z3)).plan(2, 1, Z3[1] - Z3[0])
    f = random_test_function(3, np.random.default_rng(1), dim=spec.dim)
    with pytest.raises(ValueError, match="outside the"):
        commutator_eval(spec, cfg_of(Z3), 1, 2, f)


def test_probe_block_value_matches_stacked_functions(rng):
    dim = GradedDim(2, 1)
    fs = [random_test_function(3, rng, dim=dim) for _ in range(4)]
    fs.append(random_test_function(3, rng, dim=dim, n_terms=5))  # padded to five terms
    block = ProbeBlock(fs)
    for z in (np.array(Z3), np.array(Z3) - ETA):
        got = block.value(z)
        ref = np.stack([f.value(z) for f in fs], axis=1)
        assert got.shape == (27, 5) and got.flags.c_contiguous
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_probe_block_rejects_empty_and_mixed_lengths(rng):
    with pytest.raises(ValueError):
        ProbeBlock([])
    dim = GradedDim(1, 1)
    with pytest.raises(ValueError):
        ProbeBlock([random_test_function(3, rng, dim=dim), random_test_function(4, rng, dim=dim)])


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm,z", [((1, 1), Z4), ((2, 1), Z3)])
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("flipped", [False, True])
def test_batched_commutator_matches_single_probes(fam, nm, z, shared, flipped, rng, monkeypatch):
    # with a flipped entry each probe reads its own residual, so the
    # per-column normalization and the max over columns are compared too;
    # (1, 2) is the e_12 (x) e_21 flip entry at (1|1)
    if flipped:
        monkeypatch.setattr(
            qmrops, "build_r_normalized", mutated_r_builder(1, 2, base=build_r_normalized)
        )
    spec = RMatrixSpec(fam, GradedDim(*nm), HBAR)
    cfg = cfg_of(z)
    store = FactorStore(spec, cfg) if shared else None
    L = len(z)
    probes = [random_test_function(L, rng, dim=spec.dim) for _ in range(5)]
    for k, l in ((1, 2), (1, L - 1), (2, L - 1)):
        single = max(commutator_eval(spec, cfg, k, l, f, store=store) for f in probes)
        batched = commutator_eval(spec, cfg, k, l, probes, store=store)
        assert abs(batched - single) <= 1e-13
        if not flipped:
            assert batched < 1e-9
        elif nm == (1, 1):
            assert batched > 1e-9


def test_batched_commutator_catches_flipped_entry(rng, monkeypatch):
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), HBAR)
    cfg = cfg_of(Z4)
    probes = [random_test_function(4, rng, dim=spec.dim) for _ in range(10)]
    assert commutator_eval(spec, cfg, 1, 2, probes) < 1e-9
    # (1, 2) is the e_12 (x) e_21 flip entry at (1|1)
    monkeypatch.setattr(
        qmrops, "build_r_normalized", mutated_r_builder(1, 2, base=qmrops.build_r_normalized)
    )
    assert commutator_eval(spec, cfg, 1, 2, probes) > 1e-9


def test_spec_cfg_hbar_mismatch_rejected(rng):
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), 0.31)
    cfg = cfg_of(Z3)  # hbar = 0.3
    f = random_test_function(3, rng, dim=spec.dim)
    with pytest.raises(ValueError):
        spin_d(spec, 1, cfg, f)


# ---------------------------------------------------------------------------
# the four-block identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fam", list(RFamily))
def test_f_identity_two_sites(fam):
    spec = RMatrixSpec(fam, GradedDim(1, 1), HBAR)
    cfg = cfg_of((0.21 + 0.17j, 0.64 + 0.36j))
    assert f_identity_residual(spec, cfg, 1) < 1e-10


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm", [(1, 1), (2, 1)])
def test_f_identity_three_sites(fam, nm):
    spec = RMatrixSpec(fam, GradedDim(*nm), HBAR)
    cfg = cfg_of(Z3)
    for k in (1, 2):
        assert f_identity_residual(spec, cfg, k) < 1e-10


def test_f_identity_returns_operator():
    spec = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(1, 1), HBAR)
    cfg = cfg_of(Z3)
    op = f_identity(spec, cfg, 1)
    assert op.legs == 3
    assert op.norm() < 1e-8


def test_f_identity_eta_independence():
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(2, 1), HBAR)
    cfg = cfg_of(Z3)
    etas = [ETA, 0.11 + 0.09j, 0.23 - 0.04j, 0.31 + 0.12j, 0.08 + 0.2j]
    assert f_identity_eta_spread(spec, cfg, 1, etas) < 1e-10


def test_f_identity_eta_spread_counts_nan_as_infinite(monkeypatch):
    # NaN in the raw R at the shifted argument z_1 - z_2 - eta of one spread
    # eta only: that eta's residual is NaN, which must not fold to a pass
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), HBAR)
    cfg = cfg_of(Z3)
    bad_eta = 0.11 + 0.09j
    bad_arg = Z3[0] - Z3[1] - bad_eta
    clean_build = qmrops.build_r

    def nan_at_bad_eta(spec, arg):
        op = clean_build(spec, arg)
        if abs(arg - bad_arg) < 1e-12:
            entries = op.entries.copy()
            entries[0, 0] = np.nan
            op = LocalOperator(op.dim, 2, entries)
        return op

    monkeypatch.setattr(qmrops, "build_r", nan_at_bad_eta)
    assert f_identity_residual(spec, cfg, 1) < 1e-10
    assert math.isnan(f_identity_residual(spec, replace(cfg, eta=bad_eta), 1))
    assert f_identity_eta_spread(spec, cfg, 1, [ETA]) < 1e-10
    assert f_identity_eta_spread(spec, cfg, 1, [ETA, bad_eta]) == math.inf
    assert f_identity_eta_spread(spec, cfg, 1, [bad_eta, ETA]) == math.inf


def test_f_identity_eta_spread_rejects_an_empty_eta_list():
    # an empty list once read as a spread of 0.0, a pass with nothing checked
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), HBAR)
    with pytest.raises(ValueError, match="at least one eta"):
        f_identity_eta_spread(spec, cfg_of(Z3), 1, [])


def test_f_identity_bounded_near_eta_pole():
    # eta circling z_1 - z_2 + m: every evaluation stays numerically zero
    spec = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(1, 1), HBAR)
    z = Z3
    radius = 3e-3
    for m in (0, 1):
        center = z[0] - z[1] + m
        for t in range(8):
            eta = center + radius * np.exp(2j * np.pi * t / 8)
            cfg = SiteConfig(3, z, eta, HBAR)
            assert f_identity_residual(spec, cfg, 1) < 1e-8


def test_f_identity_rejects_bad_order():
    spec = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(1, 1), HBAR)
    cfg = cfg_of(Z3)
    with pytest.raises(ValueError):
        f_identity(spec, cfg, 0)
    for k in (0, 4, 5):
        with pytest.raises(ValueError):
            f_identity_residual(spec, cfg, k)


def dense_f_identity(spec, cfg, k):
    """Reference route: the four-block products as d x d products of
    embedded unnormalized R-matrices, (defect sum, sum of product norms)."""
    L = cfg.length
    z = np.array(cfg.z, dtype=complex)
    d = spec.dim.n ** L

    def R(i, j, shifted=False):
        arg = z[i - 1] - z[j - 1] - (cfg.eta if shifted else 0.0)
        return embed_realized(qmrops.build_r(spec, arg), (i, j), L)

    total = np.zeros((d, d), dtype=complex)
    scale = 0.0
    for subset in combinations(range(1, L + 1), k):
        inside = set(subset)
        fp = np.eye(d, dtype=complex)
        for t in range(k - 1, -1, -1):
            for l in range(subset[t] + 1, L + 1):
                if l not in subset[t + 1:]:
                    fp = fp @ R(subset[t], l)
        for t in range(k):
            for j in range(L, 0, -1):
                if j not in inside:
                    fp = fp @ R(j, subset[t], shifted=True)
        for t in range(k - 1, -1, -1):
            for m in range(1, subset[t]):
                if m not in subset[:t]:
                    fp = fp @ R(subset[t], m)
        fm = np.eye(d, dtype=complex)
        for t in range(k):
            for m in range(subset[t] - 1, 0, -1):
                if m not in subset[:t]:
                    fm = fm @ R(m, subset[t])
        for t in range(k - 1, -1, -1):
            for j in range(1, L + 1):
                if j not in inside:
                    fm = fm @ R(subset[t], j, shifted=True)
        for t in range(k):
            for l in range(L, subset[t], -1):
                if l not in subset[t + 1:]:
                    fm = fm @ R(l, subset[t])
        total += fm - fp
        scale += np.linalg.norm(fp) + np.linalg.norm(fm)
    if spec.dim.n_odd:
        total = sigma_mask(spec.dim, L) * total
    return total, scale


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm", [(1, 1), (2, 1), (1, 2)])
@pytest.mark.parametrize("length", [3, 4])
@pytest.mark.parametrize("flipped", [False, True])
def test_f_identity_matches_dense_reference(fam, nm, length, flipped, rng, monkeypatch):
    # with a flipped entry the defect is O(1), so both routes are compared
    # on a defect that does not vanish as well
    if flipped:
        monkeypatch.setattr(qmrops, "build_r", mutated_r_builder(1, 2, base=build_r))
    spec = RMatrixSpec(fam, GradedDim(*nm), HBAR)
    cfg = draw_cfg(length, rng)
    store = FactorStore(spec, cfg)
    for k in range(1, length):
        ref, ref_scale = dense_f_identity(spec, cfg, k)
        op, scale = _f_identity_assembled(spec, cfg, k, store)
        assert np.max(np.abs(op.entries - ref)) <= 1e-12 * ref_scale
        assert abs(scale - ref_scale) <= 1e-12 * ref_scale


def test_f_identity_store_builds_each_factor_once(monkeypatch):
    spec = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(2, 1), HBAR)
    cfg = cfg_of(Z4)
    calls = []

    def counting(spec_, z):
        calls.append(z)
        return build_r(spec_, z)

    monkeypatch.setattr(qmrops, "build_r", counting)
    store = FactorStore(spec, cfg)
    etas = [ETA, 0.11 + 0.09j, 0.23 - 0.04j]
    fresh = []
    for k in (1, 2, 3):
        fresh.append(f_identity_eta_spread(spec, cfg, k, etas))
    n_fresh = len(calls)
    calls.clear()
    shared = [f_identity_eta_spread(spec, cfg, k, etas, store=store) for k in (1, 2, 3)]
    # every ordered pair unshifted once, and shifted once per eta
    assert len(calls) == 12 * (1 + len(etas)) < n_fresh
    assert shared == fresh
    # the commutator's normalized plans sit apart from the unnormalized ones
    f = random_test_function(4, np.random.default_rng(2), dim=spec.dim)
    assert commutator_eval(spec, cfg, 1, 2, f, store=store) == commutator_eval(spec, cfg, 1, 2, f)
    assert f_identity_residual(spec, cfg, 2, store=store) == f_identity_residual(spec, cfg, 2)


def test_f_identity_store_refuses_other_positions():
    spec = RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), HBAR)
    store = FactorStore(spec, cfg_of(Z3))
    # another eta is fine: the factors are keyed by their exact argument
    f_identity_residual(spec, cfg_of(Z3, eta=0.21 + 0.06j), 1, store=store)
    moved = (Z3[0] + 0.01, Z3[1], Z3[2])
    with pytest.raises(ValueError):
        f_identity_residual(spec, cfg_of(moved), 1, store=store)
    other = RMatrixSpec(RFamily.ZN_GRADED, GradedDim(1, 1), HBAR)
    with pytest.raises(ValueError):
        f_identity_residual(other, cfg_of(Z3), 1, store=store)


@pytest.mark.parametrize("fam", list(RFamily))
def test_f_identity_residual_catches_flipped_entry(fam, rng, monkeypatch):
    # the defect is measured against whole products, sum_I (||F+|| + ||F-||),
    # so a broken R reads O(1) at L = 6 as well
    spec = RMatrixSpec(fam, GradedDim(1, 1), HBAR)
    cfg = draw_cfg(6, rng)
    assert f_identity_residual(spec, cfg, 1) < 1e-10
    # (1, 2) is the e_12 (x) e_21 flip entry at (1|1)
    monkeypatch.setattr(qmrops, "build_r", mutated_r_builder(1, 2, base=qmrops.build_r))
    assert f_identity_residual(spec, cfg, 1) > 1e-2


def test_difference_operator_subset_structure():
    from gradedhs import DifferenceOperator
    from math import comb

    op = DifferenceOperator(2, 4)
    terms = op.subset_terms()
    assert len(terms) == comb(4, 2)
    by_subset = {t.subset: t for t in terms}
    # first-order ordering convention at the displayed example
    op1 = DifferenceOperator(1, 4)
    t3 = {t.subset: t for t in op1.subset_terms()}[(3,)]
    assert t3.left_sites == ((2, 3), (1, 3))
    assert t3.right_sites == ((3, 1), (3, 2))
    # second-order: the later slot skips earlier subset members
    t13 = by_subset[(1, 3)]
    assert t13.left_sites == ((2, 3),)
    assert t13.right_sites == ((3, 2),)
    t23 = by_subset[(2, 3)]
    assert t23.left_sites == ((1, 2), (1, 3))
    assert t23.right_sites == ((3, 1), (2, 1))


def right_block_reference(subset):
    """The right block built slot by slot: t = k..1, each the ascending
    Rbar_{i_t, j} over j < i_t not among the earlier members of I."""
    right = []
    for t in range(len(subset) - 1, -1, -1):
        it = subset[t]
        right += [(it, j) for j in range(1, it) if j not in subset[:t]]
    return tuple(right)


def f_minus_reference(subset, L):
    """F- built block by block, apart from F+."""
    k, inside, minus = len(subset), set(subset), []
    for t in range(k):
        earlier = set(subset[:t])
        minus += [(m, subset[t], False) for m in range(subset[t] - 1, 0, -1) if m not in earlier]
    for t in range(k - 1, -1, -1):
        minus += [(subset[t], j, True) for j in range(1, L + 1) if j not in inside]
    for t in range(k):
        later = set(subset[t + 1:])
        minus += [(l, subset[t], False) for l in range(L, subset[t], -1) if l not in later]
    return minus


@pytest.mark.parametrize("L", range(1, 9))
def test_mirrored_strings_match_their_block_by_block_builds(L):
    # the right block and F- are read off the left block and F+ mirrored
    for k in range(1, L + 1):
        for term in DifferenceOperator(k, L).subset_terms():
            assert term.right_sites == right_block_reference(term.subset)
            _, minus = qmrops._four_block_sites(term.subset, L)
            assert minus == f_minus_reference(term.subset, L)


def test_sign_function_values():
    from gradedhs import sign_int

    assert sign_int(0) == 0
    assert sign_int(3) == 1
    assert sign_int(-2) == -1
