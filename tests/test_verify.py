import json
import math
from itertools import combinations

import numpy as np
import pytest

from gradedhs import (
    GradedDim,
    IdentityCheck,
    LocalOperator,
    RFamily,
    RMatrixSpec,
    build_r,
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
from gradedhs import verify as verify_module
from gradedhs.gradedcore import sigma_mask
from gradedhs.sampling import (
    _MAX_RESAMPLES,
    _aybe_args_ok,
    _draw_accepted,
    _off_lattice,
    _uniform_points,
)
from gradedhs.verify import (
    _aybe_defects,
    _battery_plan,
    _gtilde_defect,
    _norms,
    _run_check,
    _spread,
    expected_aybe_defect,
)

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


@pytest.mark.parametrize("triples", [0, 1])
def test_aybe_z_independence_without_a_pair_is_an_error(triples, rng):
    # fewer than two accepted triples compare nothing, which is no pass
    spec = spec_of(RFamily.UQ_GLNM, (2, 1))
    with pytest.raises(ValueError, match="no pair to compare"):
        check_aybe_z_independence(spec, 0.31 + 0.22j, 0.52 + 0.14j, rng, triples=triples)


def test_battery_records_a_vacuous_z_independence_as_error(monkeypatch):
    real = verify_module.check_aybe_z_independence

    def one_triple(spec, x, y, rng, triples=20, builder=build_r):
        return real(spec, x, y, rng, 1, builder)

    monkeypatch.setattr(verify_module, "check_aybe_z_independence", one_triple)
    report = run_battery([spec_of(RFamily.UQ_GLNM, (1, 1))], samples=2)
    row = next(r for r in report.results if r.check == "aybe_z_independence")
    assert row.verdict == "error" and "no pair to compare" in row.note
    assert not report.passed()


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


def test_array_gtilde_defect_rounds_as_the_one_point_formula():
    def one_point(x, y):
        return math.pi ** 2 / (
            2 * np.cos(math.pi * x / 2) * np.cos(math.pi * y / 2) * np.cos(math.pi * (x - y) / 2)
        )

    rng = np.random.default_rng(12)
    x, y = (rng.uniform(-3.0, 3.0, 2000) + 1j * rng.uniform(-1.0, 1.0, 2000) for _ in range(2))
    want = np.array([one_point(a, b) for a, b in zip(x.tolist(), y.tolist())])
    assert _gtilde_defect(x, y).tobytes() == want.tobytes()


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


def test_battery_rejects_an_empty_spec_list():
    # an empty list once gave a report of 0 rows whose passed() was True
    with pytest.raises(ValueError, match="no specs"):
        run_battery([], seed=5, samples=2)


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
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            IdentityCheck("qybe", spec, samples=5, seed=1, tolerance=tol)


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


# ---------------------------------------------------------------------------
# stacked evaluation
# ---------------------------------------------------------------------------


def two_leg_ok(spec):
    h = spec.hbar
    return lambda z: _off_lattice([z, z + 1, h, z + h, z + 1 + h, -z, -z + h])


def accepted(rng, n_args, accept, size):
    """Equal-length arrays of accepted points, drawn as the battery draws."""
    return _draw_accepted(rng, size, n_args, accept)[0]


def sampled_checks(spec):
    """(check, argument count, accept) for every check taking points."""
    h = spec.hbar
    rows = [
        (check_qybe, 2, lambda u, v: _off_lattice([u, v, u + v, u + h, v + h, u + v + h])),
        (check_unitarity, 1, two_leg_ok(spec)),
        (check_normalized_unitarity, 1, two_leg_ok(spec)),
        (check_skew, 1, two_leg_ok(spec)),
        (check_periodicity, 1, two_leg_ok(spec)),
        (check_kernel_reconstruction, 1, two_leg_ok(spec)),
    ]
    if spec.family is RFamily.ZN_GRADED:
        rows.append((check_twist, 2, lambda u, v: _off_lattice([u - v, u - v + h])))
    return rows


def aybe_ok(spec):
    return lambda x, y, z1, z2, z3: _aybe_args_ok(spec, x, y, z1, z2, z3)


def assert_stacked_equals_points(spec, rng, size, builder=build_r):
    """Every check on arrays of points against the same check point by point
    (with the default builder); returns the stacked results."""
    out = {}
    for check, n_args, accept in sampled_checks(spec):
        pts = accepted(rng, n_args, accept, size)
        stacked = check(spec, *pts, builder=builder)
        assert stacked.shape == (size,)
        single = [check(spec, *(p[k] for p in pts)) for k in range(size)]
        assert all(isinstance(r, float) for r in single)
        assert np.max(np.abs(stacked - single)) <= 1e-15, check.__name__
        out[check.__name__] = stacked
    pts = accepted(rng, 5, aybe_ok(spec), size)
    res, defects = check_aybe(spec, *pts, builder=builder)
    assert defects.shape == (size, spec.dim.n ** 3, spec.dim.n ** 3)
    for k in range(size):
        r, d = check_aybe(spec, *(p[k] for p in pts))
        assert abs(res[k] - r) <= 1e-15
        assert np.max(np.abs(defects[k] - d.entries)) <= 1e-15 * (1.0 + np.max(np.abs(d.entries)))
    out["check_aybe"] = res
    return out


@pytest.mark.parametrize("spec", default_specs(hbar=HBAR), ids=str)
def test_stacked_checks_match_point_by_point(spec, rng):
    assert_stacked_equals_points(spec, rng, 5)
    pts = accepted(rng, 4, lambda x, y, z, w: _off_lattice(
        [x, y, z, w, x - y, y - x, x + y, z + w, x / 2, y / 2, (x - y) / 2]), 5)
    stacked = check_scalar_relations(spec, *pts)
    for k in range(5):
        for name, val in check_scalar_relations(spec, *(p[k] for p in pts)).items():
            assert abs(stacked[name][k] - val) <= 1e-15, name
    if spec.family is RFamily.UQ_GLNM:
        x, y = accepted(rng, 2, lambda x, y: _off_lattice([x, y, x - y, x / 2, y / 2, (x - y) / 2]), 3)
        stacked = check_aybe_z_independence(spec, x, y, np.random.default_rng(3), triples=6)
        rng2 = np.random.default_rng(3)
        single = [check_aybe_z_independence(spec, a, b, rng2, triples=6) for a, b in zip(x, y)]
        assert np.max(np.abs(stacked - single)) <= 1e-15


@pytest.mark.parametrize("nm", [(1, 1), (2, 1), (2, 2)])
def test_custom_builder_stacks_point_by_point(nm):
    # a builder other than build_r goes through its (spec, z) contract one
    # point at a time; the results equal the vectorised route
    def wrapped(spec, z):
        assert isinstance(z, complex) and isinstance(spec, RMatrixSpec)
        return build_r(spec, z)

    for fam in RFamily:
        spec = spec_of(fam, nm)
        direct = assert_stacked_equals_points(spec, np.random.default_rng(8), 4)
        custom = assert_stacked_equals_points(spec, np.random.default_rng(8), 4, builder=wrapped)
        for name in direct:
            assert np.max(np.abs(direct[name] - custom[name])) <= 1e-15, name


@pytest.mark.parametrize("budget", ["one", "two_three_leg"])
@pytest.mark.parametrize("nm", [(2, 1), (2, 2)])
def test_stacked_checks_across_chunk_boundaries(nm, budget, monkeypatch):
    results = {}
    for label in ("default", budget):
        if label == "one":
            monkeypatch.setattr(verify_module, "_STACK_AMPS", 1)
        elif label == "two_three_leg":
            # two samples per three-leg chunk, 2 n^2 per two-leg chunk
            monkeypatch.setattr(verify_module, "_STACK_AMPS", 2 * GradedDim(*nm).n ** 6)
        for fam in RFamily:
            spec = spec_of(fam, nm)
            results[label, fam] = assert_stacked_equals_points(spec, np.random.default_rng(4), 5)
    for fam in RFamily:
        for name, res in results["default", fam].items():
            assert np.max(np.abs(res - results[budget, fam][name])) <= 1e-15, name


def test_stacked_arrays_stay_within_the_amplitude_budget(monkeypatch):
    sizes, r_sizes = [], []
    place, build = verify_module._embed_realized_stack, verify_module.build_r_stack

    def spy(entries, dim, sites, legs):
        out = place(entries, dim, sites, legs)
        sizes.append(out.size)
        return out

    def build_spy(*args):
        out = build(*args)
        r_sizes.append(out.size)
        return out

    monkeypatch.setattr(verify_module, "_embed_realized_stack", spy)
    monkeypatch.setattr(verify_module, "build_r_stack", build_spy)
    spec = spec_of(RFamily.UQ_GLNM, (2, 2))
    rng = np.random.default_rng(2)
    u, v = (np.array([draw(rng) for _ in range(10)]) for _ in range(2))
    check_qybe(spec, u, v)
    assert max(sizes) == 4 * 64 * 64 <= 2 ** 14  # four samples per chunk at (2|2)
    assert r_sizes == [4 * 3 * 256] * 2 + [2 * 3 * 256]  # and one R build per chunk
    sizes.clear()
    r_sizes.clear()
    check_qybe(spec_of(RFamily.UQ_GLNM, (1, 1)), np.resize(u, 100), np.resize(v, 100))
    assert max(sizes) == 100 * 8 * 8  # all of them at (1|1)
    assert r_sizes == [100 * 3 * 16]
    # 100 points of every check at (2|2): R blocks and embedded stacks of
    # at most 2^14 amplitudes
    for fam in RFamily:
        spec = spec_of(fam, (2, 2))
        for check, n_args, accept in sampled_checks(spec):
            sizes.clear()
            r_sizes.clear()
            check(spec, *accepted(rng, n_args, accept, 100))
            assert max(r_sizes) <= 2 ** 14 and max(sizes, default=0) <= 2 ** 14, check.__name__
        r_sizes.clear()
        check_aybe(spec, *accepted(rng, 5, aybe_ok(spec), 100))
        # four points of six R-matrices of 256 amplitudes per chunk
        assert r_sizes == [4 * 6 * 256] * 25
        assert max(sizes) <= 2 ** 14
    # z-independence at (1|1): six R-matrices of 16 amplitudes per triple,
    # so 400 triples take three R blocks of at most 170 triples
    sizes.clear()
    r_sizes.clear()
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    check_aybe_z_independence(spec, 0.31 + 0.22j, 0.52 + 0.14j, rng, triples=400)
    assert len(r_sizes) == 3 and max(r_sizes) == 170 * 6 * 16 <= 2 ** 14
    assert max(sizes) <= 2 ** 14


def test_report_does_not_depend_on_the_stacking(monkeypatch):
    want = run_battery(seed=5, samples=12).to_json()
    for budget in (1, 2 * 4 ** 6):
        monkeypatch.setattr(verify_module, "_STACK_AMPS", budget)
        assert run_battery(seed=5, samples=12).to_json() == want, budget


def test_default_battery_builds_r_once_per_block(monkeypatch):
    build = verify_module.build_r_stack
    counted = []

    def counting(*args):
        out = build(*args)
        counted.append(out.size)
        return out

    monkeypatch.setattr(verify_module, "build_r_stack", counting)
    assert run_battery(seed=5).passed()
    # one call per row and chunk of points, two for twist (one per family):
    # 8 calls per uq and 9 per zn spec at n <= 2; 16 and 17 at n = 3, with
    # QYBE and AYBE chunks of 22 points; at (2|2), QYBE, AYBE and
    # z-independence chunks of 4 and two-leg chunks of 32 (64 for the
    # kernel row) give 73 and 76
    assert len(counted) == 283 and max(counted) <= 2 ** 14


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("nm", [(2, 1), (2, 2)])
def test_aybe_rows_take_their_defects_from_one_producer(nm, split, monkeypatch):
    n = GradedDim(*nm).n
    if split:
        monkeypatch.setattr(verify_module, "_STACK_AMPS", 3 * n ** 6)  # chunks of 3 points
    per_chunk = verify_module._STACK_AMPS // max(n ** 6, 6 * n ** 4)
    for fam in RFamily:
        spec = spec_of(fam, nm)
        pts = accepted(np.random.default_rng(6), 5, aybe_ok(spec), 25)
        plan = _battery_plan(spec, 0, 7, 25, dict(verify_module.DEFAULT_TOLERANCES), build_r)
        [row] = [check for check in plan if check.name == "aybe"]
        res, coefficients = check_aybe(spec, *pts)
        assert row.residual(spec, *pts).tobytes() == res.tobytes()
        chunks = list(_aybe_defects(spec, *pts))
        assert [k for k, _, _ in chunks] == [
            slice(k, k + per_chunk) for k in range(0, 25, per_chunk)
        ]
        defects = np.concatenate([defect for _, defect, _ in chunks])
        assert (sigma_mask(spec.dim, 3) * defects).tobytes() == coefficients.tobytes()


def test_batched_norms_equal_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(31)
    for scale in (1.0, 1e100, 1e-100):
        for n in range(1, 5):
            for legs in (2, 3):
                d = n ** legs
                for size in (1, 2, 5, 100):
                    shape = (size, d, d)
                    stack = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
                    want = np.array([np.linalg.norm(m) for m in stack])
                    assert _norms(stack).tobytes() == want.tobytes(), (scale, n, legs, size)


# ---------------------------------------------------------------------------
# block sampling against drawing one point at a time
# ---------------------------------------------------------------------------


def draw_point(rng):
    """One spectral point drawn on its own: two scalar uniform draws."""
    return complex(rng.uniform(0.0, 1.0), rng.uniform(0.1, 0.5))


def sequential_draw(rng, samples, n_args, accept):
    """Reference sampler: one candidate after another, each point redrawn
    at most _MAX_RESAMPLES times; the accepted columns and the count of
    rejected candidates."""
    points, resamples = [], 0
    for _ in range(samples):
        for _ in range(_MAX_RESAMPLES + 1):
            args = tuple(draw_point(rng) for _ in range(n_args))
            if accept(*args):
                points.append(args)
                break
            resamples += 1
        else:
            raise RuntimeError(f"exceeded {_MAX_RESAMPLES} pole-rejection resamples")
    return [np.array([p[i] for p in points]) for i in range(n_args)], resamples


def assert_same_draws(seed, samples, n_args, accept):
    want, want_resamples = sequential_draw(np.random.default_rng(seed), samples, n_args, accept)
    got, resamples = _draw_accepted(np.random.default_rng(seed), samples, n_args, accept)
    assert resamples == want_resamples
    assert len(got) == n_args
    for col, ref in zip(got, want):
        assert col.tobytes() == ref.tobytes()
    return resamples


def off_lattice_reference(values):
    """The pole screen as written for one point, in Python arithmetic."""
    return all(not abs(v - round(v.real)) < 1e-3 for v in values)


def test_uniform_points_are_the_scalar_draws():
    rng = np.random.default_rng(17)
    want = np.array([draw_point(rng) for _ in range(3 * 4 * 5)])
    got = _uniform_points(np.random.default_rng(17), (3, 4, 5))
    assert got.shape == (3, 4, 5) and got.ravel().tobytes() == want.tobytes()


def test_array_pole_screen_matches_the_scalar_one():
    # values within a few margins of the lattice, on both sides
    rng = np.random.default_rng(19)
    near = rng.integers(-2, 3, 4000) + rng.uniform(-3e-3, 3e-3, (4000, 2)) @ [1.0, 1j]
    far = near + 0.25
    for pair in ((near, far), (far, near), (near, near)):
        got = _off_lattice(pair)
        assert 0 < np.count_nonzero(got) < len(near)
        assert got.tolist() == [off_lattice_reference(v) for v in zip(*pair)]


@pytest.mark.parametrize("spec", default_specs(hbar=HBAR), ids=str)
def test_block_sampler_draws_each_battery_row_as_point_by_point(spec):
    # every row's predicate, the residue row's zero arguments included
    plan = _battery_plan(spec, 3, 5, 30, dict(verify_module.DEFAULT_TOLERANCES), build_r)
    assert {c.n_args for c in plan} >= {0, 1, 2, 4, 5}
    for check in plan:
        assert_same_draws(check.seed, check.samples, check.n_args, check.accept)
    [residue] = [c for c in plan if c.name == "residue"]
    assert _draw_accepted(np.random.default_rng(1), 1, 0, residue.accept) == ([], 0)


@pytest.mark.parametrize("n_args", [1, 2, 5])
def test_block_sampler_counts_rejections_across_blocks(n_args):
    # rejection rates of about 70 and 40 %: many blocks, many resamples
    assert assert_same_draws(4, 60, n_args, lambda *a: a[0].real < 0.3) > 60
    assert assert_same_draws(4, 60, n_args, lambda *a: a[0].real < a[-1].imag + 0.3) > 20


@pytest.mark.parametrize("n_args", [1, 2, 5])
def test_block_sampler_resample_budget(n_args):
    seed = 23
    rng = np.random.default_rng(seed)
    stream = [tuple(draw_point(rng) for _ in range(n_args)) for _ in range(400)]

    def only(*indices):
        """Accept just the candidates at these places of the stream."""
        firsts = np.array([stream[k][0] for k in indices])
        return lambda *args: np.isin(args[0], firsts)

    # exactly 100 rejections before each of three points passes
    assert assert_same_draws(seed, 3, n_args, only(100, 201, 302)) == 300
    # a 101st rejection in a row, before the first point or after one, fails
    for indices in ((101,), (0, 102)):
        for sampler in (sequential_draw, _draw_accepted):
            with pytest.raises(RuntimeError, match="exceeded 100 pole-rejection resamples"):
                sampler(np.random.default_rng(seed), len(indices), n_args, only(*indices))


@pytest.mark.parametrize("nm", [(2, 1), (2, 2)])  # one chunk of defects, and two
def test_z_independence_draws_each_points_triples_in_turn(nm):
    spec = spec_of(RFamily.UQ_GLNM, nm)
    x = np.array([0.31 + 0.22j, 0.12 + 0.41j, 0.64 + 0.18j])
    y = np.array([0.52 + 0.14j, 0.77 + 0.3j, 0.05 + 0.47j])
    rng = np.random.default_rng(9)
    got = check_aybe_z_independence(spec, x, y, rng, triples=7)
    ref_rng = np.random.default_rng(9)
    want = []
    for xx, yy in zip(x, y):
        # the reference of one point: its triples drawn one by one, its
        # pairs compared one by one
        zs = [tuple(draw_point(ref_rng) for _ in range(3)) for _ in range(7)]
        zs = [z for z in zs if _aybe_args_ok(spec, xx, yy, *z)]
        cols = [np.full(len(zs), xx), np.full(len(zs), yy), *(np.array(c) for c in zip(*zs))]
        chunks = list(_aybe_defects(spec, *cols))
        defects = [d for _, stack, _ in chunks for d in stack]
        scales = (np.concatenate([scale for *_, scale in chunks]) + 1.0).tolist()
        best = 0.0
        for i, j in combinations(range(len(zs)), 2):
            diff = np.linalg.norm(defects[i] - defects[j]) / max(scales[i], scales[j])
            best = max(best, math.inf if math.isnan(diff) else float(diff))
        want.append(best)
    assert got.tobytes() == np.array(want).tobytes()
    assert rng.uniform() == ref_rng.uniform()  # and consumed the same draws
    defects = np.zeros((3, 2, 2), dtype=complex)
    defects[1, 0, 0] = np.nan
    assert _spread(defects, np.ones(3)) == math.inf


def test_tie_rules_on_crafted_residuals():
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    crafted = np.array([1.0, 3.0, 2.0, 3.0, 0.5])
    points = accepted(np.random.default_rng(11), 1, lambda z: True, 5)[0]
    tol = {"qybe": 10.0, "scalar_a11": 10.0}

    first = IdentityCheck("qybe", spec, 5, 11, 10.0, lambda sp, z: crafted, 1)
    [row] = _run_check(first, tol)
    assert row.worst_point == {"arg0": [points[1].real, points[1].imag]}
    assert row.max_residual == 3.0 and row.verdict == "pass"
    assert row.mean_residual == (((((0.0 + 1.0) + 3.0) + 2.0) + 3.0) + 0.5) / 5

    last = IdentityCheck(
        "scalar_relations", spec, 5, 11, 10.0, lambda sp, z: {"scalar_a11": crafted}, 1, last_max=True
    )
    [row] = _run_check(last, tol)
    assert row.check == "scalar_a11"
    assert row.worst_point == {"arg0": [points[3].real, points[3].imag]}
    assert row.max_residual == 3.0
    assert row.mean_residual == float(np.mean(crafted))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_crafted_non_finite_residual_fails_the_row(bad):
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    crafted = np.array([1.0, bad, 5.0, np.nan])
    points = accepted(np.random.default_rng(11), 1, lambda z: True, 4)[0]
    for last_max in (False, True):
        check = IdentityCheck("qybe", spec, 4, 11, 10.0, lambda sp, z: crafted, 1, last_max=last_max)
        [row] = _run_check(check, {"qybe": 10.0})
        assert row.verdict == "fail"
        assert row.max_residual == math.inf and row.mean_residual == math.inf
        assert row.worst_point == {"arg0": [points[1].real, points[1].imag]}


def nan_builder(spec, z):
    op = build_r(spec, z)
    ent = op.entries.copy()
    ent[0, 0] = np.nan
    return LocalOperator(op.dim, op.legs, ent)


def test_non_finite_residual_fails_every_r_dependent_row():
    # a NaN entry once left these rows at max_residual -1.0 (sampled) or
    # 0.0 (z-independence), all passing
    rep = run_battery(default_specs(dims=((1, 1),)), seed=5, samples=3, r_builder=nan_builder)
    doc = json.loads(rep.to_json())
    independent = {"residue", "scalar_a11", "scalar_a13", "scalar_a14", "gtilde_defect"}
    dependent = [r for r in doc["results"] if r["check"] not in independent]
    assert len(dependent) == 16
    for row in dependent:
        assert row["verdict"] == "fail", row["check"]
        assert row["max_residual"] == math.inf and row["mean_residual"] == math.inf
        assert len(row["worst_point"]) in (1, 2, 5)
    assert all(r["verdict"] == "pass" for r in doc["results"] if r["check"] in independent)
    # the worst point is the first sample, the one a clean run draws first
    clean = run_battery(default_specs(dims=((1, 1),)), seed=5, samples=1)
    first = {(r.check, r.family): r.worst_point for r in clean.results}
    for row in dependent:
        assert row["worst_point"] == first[row["check"], row["family"]]


@pytest.mark.parametrize("entry", [(1, 3), (0, 0)], ids=["flip", "diagonal"])
@pytest.mark.parametrize("fam", list(RFamily))
def test_battery_catches_mutated_entry_at_2_1(fam, entry):
    # entry (1, 3) is the flip coefficient of e_12 (x) e_21, (0, 0) that of e_11 (x) e_11
    spec = spec_of(fam, (2, 1))
    rep = run_battery([spec], seed=5, samples=3, r_builder=mutated_r_builder(*entry))
    failed = {r.check for r in rep.results if r.verdict != "pass"}
    assert "kernel_reconstruction" in failed
    assert failed & {"qybe", "aybe", "unitarity", "normalized_unitarity", "skew_symmetry"}
    assert all(r.verdict != "error" for r in rep.results)


def test_same_seed_reports_are_byte_identical():
    specs = default_specs()
    first = run_battery(specs, seed=3, samples=4)
    assert run_battery(specs, seed=3, samples=4).to_json() == first.to_json()
    # a custom r_builder, stacked point by point, gives the same rows; its
    # one-point R-matrices take sin and cos from cmath, not numpy
    per_point = run_battery(specs, seed=3, samples=4, r_builder=lambda spec, z: build_r(spec, z))
    for row, other in zip(first.results, per_point.results):
        assert (row.check, row.family, row.verdict, row.samples, row.resamples) == (
            other.check, other.family, other.verdict, other.samples, other.resamples
        )
        assert abs(row.max_residual - other.max_residual) <= 1e-15, row.check
        assert abs(row.mean_residual - other.mean_residual) <= 1e-15, row.check
