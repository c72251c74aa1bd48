import json
import math

import numpy as np
import pytest

from gradedhs import (
    GradedDim,
    RFamily,
    RMatrixSpec,
    check_aybe,
    check_aybe_z_independence,
    check_kernel_reconstruction,
    check_normalized_unitarity,
    check_periodicity,
    check_qybe,
    check_residue,
    check_scalar_relations,
    check_skew,
    check_twist,
    check_unitarity,
    default_specs,
    mutated_r_builder,
    run_battery,
    scalar_kernels,
)
from gradedhs.verify import expected_aybe_defect

HBAR = 0.23 + 0.11j


def spec_of(fam, nm, hbar=HBAR):
    return RMatrixSpec(fam, GradedDim(*nm), hbar)


def draw(rng):
    return complex(rng.uniform(0.05, 0.95), rng.uniform(0.1, 0.5))


# ---------------------------------------------------------------------------
# quantum Yang-Baxter
# ---------------------------------------------------------------------------


def test_qybe_scalar_case_trivial():
    spec = spec_of(RFamily.UQ_GLNM, (1, 0))
    assert check_qybe(spec, 0.31 + 0.2j, 0.14 + 0.3j) < 1e-14


@pytest.mark.parametrize("fam", list(RFamily))
@pytest.mark.parametrize("nm", [(2, 0), (1, 1), (2, 1), (1, 2), (0, 2), (2, 2)])
def test_qybe_random_samples(fam, nm, rng):
    spec = spec_of(fam, nm)
    for _ in range(10):
        assert check_qybe(spec, draw(rng), draw(rng)) < 1e-10


# ---------------------------------------------------------------------------
# associative Yang-Baxter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nm", [(2, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_aybe_zn_family_exact(nm, rng):
    spec = spec_of(RFamily.ZN_GRADED, nm)
    for _ in range(5):
        res, _ = check_aybe(spec, draw(rng), draw(rng), draw(rng), draw(rng), draw(rng))
        assert res < 1e-10


@pytest.mark.parametrize("nm", [(1, 0), (2, 0), (1, 1), (0, 2)])
def test_aybe_uq_defect_vanishes_at_low_dim(nm, rng):
    spec = spec_of(RFamily.UQ_GLNM, nm)
    res, defect = check_aybe(spec, draw(rng), draw(rng), draw(rng), draw(rng), draw(rng))
    assert res < 1e-10
    assert np.linalg.norm(defect.entries) / 10.0 < 1e-10


@pytest.mark.parametrize("nm", [(2, 1), (1, 2), (2, 2)])
def test_aybe_uq_defect_matches_constant_diagonal(nm, rng):
    spec = spec_of(RFamily.UQ_GLNM, nm)
    for _ in range(5):
        x, y = draw(rng), draw(rng)
        res, defect = check_aybe(spec, x, y, draw(rng), draw(rng), draw(rng))
        assert res < 1e-10
        expected = expected_aybe_defect(spec, x, y)
        assert (defect - expected).norm() / expected.norm() < 1e-10


def test_aybe_defect_prefactor_value():
    # pin the constant: pi^2 / (2 cos(pi x/2) cos(pi y/2) cos(pi (x-y)/2))
    spec = spec_of(RFamily.UQ_GLNM, (2, 1))
    x, y = 1.0 / 3.0, 1.0 / 6.0
    expected = expected_aybe_defect(spec, x, y)
    pref = math.pi ** 2 / (
        2 * math.cos(math.pi * x / 2) * math.cos(math.pi * y / 2) * math.cos(math.pi * (x - y) / 2)
    )
    row = (0 * 3 + 1) * 3 + 2  # e_11 (x) e_22 (x) e_33 position
    assert abs(expected.entries[row, row] - pref) < 1e-13
    assert expected.entries[0, 0] == 0.0


def test_aybe_defect_z_independent(rng):
    spec = spec_of(RFamily.UQ_GLNM, (2, 1))
    spread = check_aybe_z_independence(spec, 0.31 + 0.22j, 0.52 + 0.14j, rng, triples=20)
    assert spread < 1e-12


# ---------------------------------------------------------------------------
# two-leg properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", default_specs(hbar=HBAR), ids=str)
def test_two_leg_suite(spec, rng):
    for _ in range(10):
        z = draw(rng)
        assert check_unitarity(spec, z) < 1e-12
        assert check_normalized_unitarity(spec, z) < 1e-12
        assert check_skew(spec, z) < 1e-12
        assert check_periodicity(spec, z) < 1e-12
        assert check_kernel_reconstruction(spec, z) < 1e-12
    assert check_residue(spec) < 1e-12


def test_skew_residual_symmetric_in_z(rng):
    spec = spec_of(RFamily.ZN_GRADED, (2, 1))
    z = draw(rng)
    assert abs(check_skew(spec, z) - check_skew(spec, -z)) < 1e-12


def test_unitarity_scalar_reduction():
    # at n = 1 unitarity is the scalar product identity for phi
    spec = spec_of(RFamily.UQ_GLNM, (1, 0))
    assert check_unitarity(spec, 0.4 + 0.2j) < 1e-14


def test_periodicity_trivial_at_n1():
    for fam in RFamily:
        assert check_periodicity(spec_of(fam, (1, 0)), 0.3 + 0.3j) < 1e-13


# ---------------------------------------------------------------------------
# twist
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nm", [(2, 0), (1, 1), (2, 1), (1, 2), (2, 2)])
def test_twist_relation(nm, rng):
    spec = spec_of(RFamily.ZN_GRADED, nm)
    for _ in range(5):
        u, v = draw(rng), draw(rng) + 0.5j
        assert check_twist(spec, u, v) < 1e-12


def test_twist_rejects_uq_start():
    with pytest.raises(ValueError):
        check_twist(spec_of(RFamily.UQ_GLNM, (1, 1)), 0.3 + 0.2j, 0.1 + 0.4j)


# ---------------------------------------------------------------------------
# scalar relations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fam", list(RFamily))
def test_scalar_relations_random(fam, rng):
    spec = spec_of(fam, (2, 1))
    for _ in range(10):
        res = check_scalar_relations(spec, draw(rng), draw(rng), draw(rng), draw(rng))
        for name, val in res.items():
            assert val < 1e-12, name


def test_gtilde_defect_at_rational_point():
    # both closed forms evaluated at (x, y) = (1/3, 1/6)
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    k = scalar_kernels(spec)
    x, y = 1.0 / 3.0, 1.0 / 6.0
    lhs = k.g_tilde(x) * k.g_tilde(y) - k.g_tilde(y) * k.g_tilde(x - y) - k.g_tilde(y - x) * k.g_tilde(x)
    rhs = math.pi ** 2 / (
        2 * math.cos(math.pi * x / 2) * math.cos(math.pi * y / 2) * math.cos(math.pi * (x - y) / 2)
    )
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def small_specs():
    return [
        spec_of(RFamily.UQ_GLNM, (1, 1)),
        spec_of(RFamily.ZN_GRADED, (2, 1)),
    ]


def test_battery_passes_and_is_deterministic(tmp_path):
    rep1 = run_battery(small_specs(), seed=11, samples=4)
    rep2 = run_battery(small_specs(), seed=11, samples=4)
    assert rep1.passed()
    assert rep1.to_json() == rep2.to_json()
    rep3 = run_battery(small_specs(), seed=12, samples=4)
    assert rep3.to_json() != rep1.to_json()
    path = tmp_path / "report.json"
    rep1.save(path)
    doc = json.loads(path.read_text())
    assert doc["seed"] == 11
    assert {"check", "family", "N", "M", "samples", "max_residual", "verdict", "worst_point"} <= set(
        doc["results"][0]
    )


@pytest.mark.parametrize("samples", [0, -1])
def test_battery_rejects_samples_below_one(samples):
    # -1 once reported every sampled check as a pass with max_residual -1
    with pytest.raises(ValueError):
        run_battery([spec_of(RFamily.UQ_GLNM, (1, 1))], seed=5, samples=samples)


def test_battery_implied_qybe_for_zn():
    # whenever the associative equation, unitarity and skew-symmetry pass,
    # the quantum equation must pass as well
    rep = run_battery([spec_of(RFamily.ZN_GRADED, nm) for nm in ((1, 1), (2, 1))], seed=3, samples=4)
    by_check = {}
    for r in rep.results:
        by_check.setdefault((r.family, r.n_even, r.n_odd), {})[r.check] = r.verdict
    for verdicts in by_check.values():
        if all(verdicts.get(c) == "pass" for c in ("aybe", "unitarity", "skew_symmetry")):
            assert verdicts["qybe"] == "pass"


def test_battery_flags_corrupted_r():
    # flipping the sign of one flip-block entry must break at least one check
    builder = mutated_r_builder(1, 2)
    rep = run_battery([spec_of(RFamily.UQ_GLNM, (1, 1))], seed=5, samples=3, r_builder=builder)
    assert not rep.passed()


def test_battery_never_aborts_on_broken_builder():
    def broken(spec, z):
        raise RuntimeError("boom")

    rep = run_battery([spec_of(RFamily.UQ_GLNM, (1, 1))], seed=5, samples=2, r_builder=broken)
    assert not rep.passed()
    assert any(r.verdict == "error" for r in rep.results)


def test_identity_check_validation():
    from gradedhs import IdentityCheck

    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    with pytest.raises(ValueError):
        IdentityCheck("qybe", spec, samples=0, seed=1, tolerance=1e-10)
    with pytest.raises(ValueError):
        IdentityCheck("qybe", spec, samples=5, seed=1, tolerance=0.0)


def test_residuals_stable_under_imaginary_window_rescaling(rng):
    # shrinking or shifting the imaginary offsets of the sampled spectral
    # parameters within the window must keep every residual below tolerance
    spec = spec_of(RFamily.ZN_GRADED, (2, 1))
    for lo, hi in ((0.1, 0.2), (0.25, 0.5), (0.4, 0.5)):
        for _ in range(5):
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(lo, hi))
            u = complex(rng.uniform(0.05, 0.95), rng.uniform(lo, hi))
            assert check_qybe(spec, u, z) < 1e-10
            assert check_unitarity(spec, z) < 1e-12
            assert check_skew(spec, z) < 1e-12
