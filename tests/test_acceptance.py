"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import time

import numpy as np

import gradedhs as g
from gradedhs import GradedDim, RFamily, RMatrixSpec

ACCEPT_DIMS = [(1, 0), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)]
HBAR = 0.23 + 0.11j
SEED = 20240917


def spec_of(fam, nm, hbar=HBAR):
    return RMatrixSpec(fam, GradedDim(*nm), hbar)


def all_specs(hbar=HBAR):
    return [spec_of(fam, nm, hbar) for fam in RFamily for nm in ACCEPT_DIMS]


def draw(rng):
    return complex(rng.uniform(0.05, 0.95), rng.uniform(0.1, 0.5))


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_qybe_suite():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for spec in all_specs():
        for _ in range(100):
            worst = max(worst, g.check_qybe(spec, draw(rng), draw(rng)))
    wall = time.perf_counter() - t0
    ok = worst < 1e-10 and wall < 30.0
    report(1, ok, f"QYBE both families x {len(ACCEPT_DIMS)} dims x 100 samples: "
                  f"max residual {worst:.2e} (< 1e-10), wall {wall:.1f}s (< 30s)")


def test_criterion_02_aybe_suite():
    rng = np.random.default_rng(SEED + 1)
    worst_zn = 0.0
    for nm in ACCEPT_DIMS:
        spec = spec_of(RFamily.ZN_GRADED, nm)
        for _ in range(20):
            res, _ = g.check_aybe(spec, draw(rng), draw(rng), draw(rng), draw(rng), draw(rng))
            worst_zn = max(worst_zn, res)
    worst_uq = 0.0
    worst_spread = 0.0
    worst_low = 0.0
    for nm in ACCEPT_DIMS:
        spec = spec_of(RFamily.UQ_GLNM, nm)
        for _ in range(20):
            x, y = draw(rng), draw(rng)
            res, _ = g.check_aybe(spec, x, y, draw(rng), draw(rng), draw(rng))
            worst_uq = max(worst_uq, res)
            if spec.dim.n <= 2:
                # the closed-form defect is zero there, so the residual IS
                # the normalized defect norm
                worst_low = max(worst_low, res)
        worst_spread = max(
            worst_spread,
            g.check_aybe_z_independence(spec, draw(rng), draw(rng), rng, triples=20),
        )
    ok = worst_zn < 1e-10 and worst_uq < 1e-10 and worst_spread < 1e-12 and worst_low < 1e-10
    report(2, ok, f"AYBE: zn exact {worst_zn:.2e}, uq defect vs closed form {worst_uq:.2e}, "
                  f"z-independence {worst_spread:.2e} (< 1e-12), low-dim defect {worst_low:.2e}")


def test_criterion_03_two_leg_suite():
    rng = np.random.default_rng(SEED + 2)
    worst = {"unitarity": 0.0, "normalized_unitarity": 0.0, "skew": 0.0,
             "residue": 0.0, "periodicity": 0.0}
    for spec in all_specs():
        for _ in range(50):
            z = draw(rng)
            worst["unitarity"] = max(worst["unitarity"], g.check_unitarity(spec, z))
            worst["normalized_unitarity"] = max(
                worst["normalized_unitarity"], g.check_normalized_unitarity(spec, z)
            )
            worst["skew"] = max(worst["skew"], g.check_skew(spec, z))
            worst["periodicity"] = max(worst["periodicity"], g.check_periodicity(spec, z))
        worst["residue"] = max(worst["residue"], g.check_residue(spec))
    ok = all(v < 1e-12 for v in worst.values())
    report(3, ok, "two-leg suite (50 samples per family/dim): " +
           ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + " (< 1e-12)")


def test_criterion_04_twist_suite():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for nm in ACCEPT_DIMS:
        spec = spec_of(RFamily.ZN_GRADED, nm)
        for _ in range(20):
            worst = max(worst, g.check_twist(spec, draw(rng), draw(rng) + 0.4j))
    f_trivial = True
    for nm in ((2, 0), (1, 1), (0, 2)):
        td = g.twist_data(spec_of(RFamily.ZN_GRADED, nm), 0.0)
        f_trivial &= bool(np.array_equal(td.twist.entries, np.eye(4)))
    ok = worst < 1e-12 and f_trivial
    report(4, ok, f"twist relation up to n=4: max residual {worst:.2e} (< 1e-12); "
                  f"twist matrix exactly trivial at n=2: {f_trivial}")


def test_criterion_05_scalar_suite():
    rng = np.random.default_rng(SEED + 4)
    worst = {}
    for fam in RFamily:
        for nm in ACCEPT_DIMS:
            spec = spec_of(fam, nm)
            for _ in range(100):
                for name, val in g.check_scalar_relations(
                    spec, draw(rng), draw(rng), draw(rng), draw(rng)
                ).items():
                    worst[name] = max(worst.get(name, 0.0), val)
    ok = all(v < 1e-12 for v in worst.values())
    report(5, ok, "scalar kernel relations (100 samples): " +
           ", ".join(f"{k}={v:.2e}" for k, v in sorted(worst.items())) + " (< 1e-12)")


def _accept_cfg(length, rng, eta, hbar):
    for _ in range(300):
        z = tuple(complex(rng.uniform(0, 1), rng.uniform(0.1, 0.4)) for _ in range(length))
        try:
            return g.SiteConfig(length, z, eta, hbar)
        except ValueError:
            continue
    raise RuntimeError("sampling failed")


def test_criterion_06_f_identity_suite():
    rng = np.random.default_rng(SEED + 5)
    eta = 0.17 + 0.06j
    worst = 0.0
    worst_eta = 0.0
    worst_circle = 0.0
    for fam in RFamily:
        for nm in ((2, 0), (1, 1), (2, 1)):
            spec = spec_of(fam, nm)
            for length in (2, 3, 4):
                cfg = _accept_cfg(length, rng, eta, HBAR)
                for k in range(1, length):
                    worst = max(worst, g.f_identity_residual(spec, cfg, k))
                etas = [eta * (1.0 + 0.18 * t) for t in range(5)]
                worst_eta = max(worst_eta, g.f_identity_eta_spread(spec, cfg, 1, etas))
            # boundedness on a circle around eta = z_1 - z_2 (m = 0)
            cfg = _accept_cfg(3, rng, eta, HBAR)
            center = cfg.z[0] - cfg.z[1]
            for t in range(8):
                eta_c = center + 3e-3 * np.exp(2j * np.pi * t / 8)
                cfg_c = g.SiteConfig(3, cfg.z, eta_c, HBAR)
                worst_circle = max(worst_circle, g.f_identity_residual(spec, cfg_c, 1))
    ok = worst < 1e-10 and worst_eta < 1e-10 and worst_circle < 1e-8
    report(6, ok, f"four-block identities L=2..4, k<=L-1, n<=3: max {worst:.2e} (< 1e-10); "
                  f"eta spread {worst_eta:.2e}; bounded near shifted-difference poles "
                  f"{worst_circle:.2e}")


def test_criterion_07_difference_operator_commutativity():
    rng = np.random.default_rng(SEED + 6)
    eta = 0.17 + 0.06j
    hbar = 0.3 + 0.0j
    worst = 0.0
    for fam in RFamily:
        for nm in ((1, 1), (2, 1)):
            spec = spec_of(fam, nm, hbar)
            cfg = _accept_cfg(3, rng, eta, hbar)
            for _ in range(10):
                f = g.random_test_function(3, rng, dim=spec.dim)
                for (k, l) in ((1, 2), (1, 3), (2, 3)):
                    worst = max(worst, g.commutator_eval(spec, cfg, k, l, f))
    # scalar reduction at dim 1
    spec10 = spec_of(RFamily.UQ_GLNM, (1, 0), hbar)
    cfg = _accept_cfg(3, rng, eta, hbar)
    worst_red = 0.0
    for k in (1, 2, 3):
        fs = g.random_test_function(3, rng)
        fv = g.TestFunction(3, tuple((np.array([c]), m) for c, m in fs.terms))
        sv = g.spin_d(spec10, k, cfg, fv)[0]
        sc = g.scalar_d(k, cfg, fs)
        worst_red = max(worst_red, abs(sv - sc) / abs(sc))
    ok = worst < 1e-9 and worst_red < 1e-12
    report(7, ok, f"spin-operator commutators L=3, all pairs, 10 probes: max {worst:.2e} "
                  f"(< 1e-9); scalar reduction {worst_red:.2e} (< 1e-12)")


def test_criterion_08_freezing_suite():
    worst_phi = 0.0
    for length in range(2, 7):
        for k in range(1, length + 1):
            for l in range(1, length + 1):
                for m in range(1, length + 1):
                    worst_phi = max(worst_phi, g.phi_sum_identity(length, k, l, m))
    worst_comm = 0.0
    for fam in RFamily:
        for nm in ((2, 0), (1, 1), (2, 1)):
            spec = spec_of(fam, nm, 0.3)
            for length in (3, 4, 5):
                h1 = g.hamiltonian_h1(spec, length)
                h2 = g.hamiltonian_h2(spec, length)
                worst_comm = max(worst_comm, g.commutator_norm(h1, h2))
    worst_ht = 0.0
    for fam in RFamily:
        for nm in ((2, 0), (1, 1), (2, 1)):
            spec = spec_of(fam, nm, 0.3)
            for length in (3, 4):
                h1 = g.hamiltonian_h1(spec, length).to_dense()
                ht1 = g.htilde_k(spec, length, 1).to_dense() / g.htilde1_constant(spec, length)
                worst_ht = max(worst_ht, np.linalg.norm(ht1 - h1) / np.linalg.norm(h1))
    ok = worst_phi < 1e-11 and worst_comm < 1e-10 and worst_ht < 1e-11
    report(8, ok, f"freezing: phi sums L<=6 {worst_phi:.2e} (< 1e-11); [H1,H2] L=3..5 "
                  f"{worst_comm:.2e} (< 1e-10); first-order expansion equals H1 "
                  f"{worst_ht:.2e} (< 1e-11)")


def test_criterion_09_limit_suite():
    devs = {}
    for fam, nm in ((RFamily.UQ_GLNM, (1, 1)), (RFamily.UQ_GLNM, (2, 0)),
                    (RFamily.ZN_GRADED, (1, 1))):
        spec = spec_of(fam, nm, 0.3)
        limit = g.nonrelativistic_limit_h1(spec, 4)
        target = g.limit_target(spec, 4).blocks()
        devs[f"{fam.value}{nm}"] = max(float(np.max(np.abs(a - b)))
                                       for (_, a), (_, b) in zip(limit, target, strict=True))
    worst_limit = max(devs.values())
    worst_cfac = 0.0
    for nm in ((2, 0), (1, 1)):
        spec = spec_of(RFamily.UQ_GLNM, nm, 0.3)
        for length in (3, 4):
            a = g.c_factorized_h1(spec, length).to_dense()
            b = g.hamiltonian_h1(spec, length).to_dense()
            worst_cfac = max(worst_cfac, np.linalg.norm(a - b) / np.linalg.norm(b))
    worst_c0 = 0.0
    for nm in ((2, 0), (1, 1)):
        spec = spec_of(RFamily.UQ_GLNM, nm, 1e-6)
        C = g.c_matrix_closed_form(spec).entries
        target = np.eye(4) - g.graded_permutation(spec.dim).entries
        worst_c0 = max(worst_c0, float(np.max(np.abs(C - target))))
    ok = worst_limit < 1e-5 and worst_cfac < 1e-11 and worst_c0 < 1e-5
    report(9, ok, f"limits: extrapolated vs closed form {worst_limit:.2e} (< 1e-5) "
                  f"[{', '.join(f'{k}={v:.1e}' for k, v in devs.items())}]; constant-factor "
                  f"form of H1 {worst_cfac:.2e} (< 1e-11); small-hbar constant -> 1-P "
                  f"{worst_c0:.2e} (< 1e-5)")


def test_criterion_10_oracle_equivalence():
    from test_gradedcore import (
        koszul_product_oracle,
        product_reference,
        random_colour_factor,
        random_monomial,
    )

    rng = np.random.default_rng(SEED + 9)
    exact = True
    for nm in ((1, 1), (2, 1), (2, 2), (3, 1)):
        dim = GradedDim(*nm)
        for _ in range(200):
            legs = int(rng.integers(2, 4))
            pa = random_monomial(dim, legs, rng)
            pb = random_monomial(dim, legs, rng)
            prod = g.super_multiply(g.matrix_units(dim, pa), g.matrix_units(dim, pb))
            oracle = koszul_product_oracle(dim, pa, pb)
            if oracle is None:
                exact &= not np.any(prod.entries)
            else:
                sign, pairs = oracle
                exact &= bool(
                    np.array_equal(prod.entries, sign * g.matrix_units(dim, pairs).entries)
                )
    worst_apply = 0.0
    for nm in ((1, 1), (2, 1)):
        dim = GradedDim(*nm)
        L = 4
        terms = []
        for _ in range(3):
            factors = []
            for _ in range(3):
                i, j = rng.choice(np.arange(1, L + 1), size=2, replace=False)
                # colour-conserving, the one factor form chain operators take
                factors.append(((int(i), int(j)), random_colour_factor(dim, rng)))
            terms.append(g.ProductTerm(1.0 + 0.3j, tuple(factors)))
        st = g.random_state(dim, L, rng)
        # the dense side places each factor by the index map, apart from
        # the factor plans that the matrix-free apply runs
        dense_v = product_reference(dim, L, terms) @ st.amplitudes
        free_v = g.ChainOperator(dim, L, terms=terms).apply(st).amplitudes
        worst_apply = max(worst_apply, np.linalg.norm(free_v - dense_v) / np.linalg.norm(dense_v))
    ok = exact and worst_apply < 1e-12
    report(10, ok, f"Koszul-sign oracle: exact agreement on 200 monomial products x 4 dims: "
                   f"{exact}; matrix-free apply vs index-map product {worst_apply:.2e} (< 1e-12)")


def test_criterion_11_performance():
    spec = spec_of(RFamily.UQ_GLNM, (1, 1), 0.3)
    h1 = g.hamiltonian_h1(spec, 16)
    rng = np.random.default_rng(SEED + 10)
    st = g.random_state(spec.dim, 16, rng)
    h1.apply(st)  # build the application plans
    t0 = time.perf_counter()
    h1.apply(st)
    t_apply = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep = g.run_battery(seed=7, samples=100)
    t_battery = time.perf_counter() - t0
    ok = t_apply < 1.0 and t_battery < 300.0 and rep.passed()
    report(11, ok, f"H1 apply at n=2, L=16 (dim 65536): {t_apply:.2f}s (< 1s); full default "
                   f"battery: {t_battery:.1f}s (< 300s), passed={rep.passed()}")


def test_criterion_12_mutation_sensitivity():
    # five sign flips at entry positions that are nonzero in both families
    # at (1|1): the four diagonal-block slots and one flip slot
    flips = [(0, 0), (1, 1), (1, 2), (2, 1), (3, 3)]
    rng = np.random.default_rng(SEED + 11)
    tripped = 0
    details = []
    for row, col in flips:
        builder = g.mutated_r_builder(row, col)
        caught = False
        for fam in RFamily:
            spec = spec_of(fam, (1, 1))
            u, v = draw(rng), draw(rng)
            checks = [
                g.check_qybe(spec, u, v, builder=builder) > 1e-10,
                g.check_unitarity(spec, u, builder=builder) > 1e-12,
                g.check_skew(spec, u, builder=builder) > 1e-12,
                g.check_periodicity(spec, u, builder=builder) > 1e-12,
                g.check_kernel_reconstruction(spec, u, builder=builder) > 1e-12,
            ]
            caught |= any(checks)
        tripped += caught
        details.append(f"({row},{col}):{'caught' if caught else 'missed'}")
    ok = tripped == len(flips)
    report(12, ok, f"mutation sensitivity: {tripped}/{len(flips)} injected sign flips "
                   f"tripped at least one check [{', '.join(details)}]")
