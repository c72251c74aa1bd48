import cmath
import math
import re

import numpy as np
import pytest

from gradedhs import (
    GradedDim,
    PoleError,
    RFamily,
    RMatrixSpec,
    build_f_derivative,
    build_r,
    build_r_normalized,
    build_r_stack,
    c_matrix,
    c_matrix_closed_form,
    c_prefactor,
    graded_permutation,
    matrix_units,
    normalized_closed_form,
    phi,
    residue_at_zero,
    r_transposed,
    scalar_kernels,
    super_multiply,
    twist_data,
)

HBAR = 0.23 + 0.11j

ALL_DIMS = [(1, 0), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)]


def spec_of(fam, nm, hbar=HBAR):
    return RMatrixSpec(fam, GradedDim(*nm), hbar)


def all_specs(hbar=HBAR, dims=ALL_DIMS):
    return [spec_of(fam, nm, hbar) for fam in RFamily for nm in dims]


# ---------------------------------------------------------------------------
# the scalar kernel phi
# ---------------------------------------------------------------------------


def test_phi_zero_at_negated_argument():
    assert abs(phi(HBAR, -HBAR)) < 1e-13


def test_phi_quarter_point():
    assert abs(phi(0.25, 0.25) - 2 * math.pi) < 1e-12


def test_phi_product_identity(rng):
    for _ in range(25):
        h = complex(rng.uniform(0.05, 0.95), rng.uniform(0.1, 0.5))
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.1, 0.5))
        lhs = phi(h, z) * phi(h, -z)
        rhs = math.pi ** 2 / cmath.sin(math.pi * h) ** 2 - math.pi ** 2 / cmath.sin(math.pi * z) ** 2
        assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_phi_pole_raises():
    with pytest.raises(PoleError):
        phi(1.0, 0.3)
    with pytest.raises(PoleError):
        phi(0.3, 2.0)


def test_phi_alternative_form(rng):
    h = 0.31 + 0.21j
    z = 0.44 + 0.17j
    alt = math.pi * cmath.sin(math.pi * (h + z)) / (cmath.sin(math.pi * h) * cmath.sin(math.pi * z))
    assert abs(phi(h, z) - alt) / abs(alt) < 1e-13


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_spec_rejects_integer_hbar():
    with pytest.raises(PoleError):
        RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), 1.0)


@pytest.mark.parametrize("hbar", [float("inf"), float("nan"), complex(0.3, float("inf")),
                                  complex(float("nan"), 0.1)])
def test_spec_rejects_non_finite_hbar(hbar):
    with pytest.raises(PoleError, match="not finite"):
        RMatrixSpec(RFamily.UQ_GLNM, GradedDim(1, 1), hbar)


def test_build_r_scalar_case_is_phi():
    spec = spec_of(RFamily.UQ_GLNM, (1, 0))
    z = 0.37 + 0.21j
    assert np.allclose(build_r(spec, z).entries, [[phi(HBAR, z)]])
    spec_zn = spec_of(RFamily.ZN_GRADED, (1, 0))
    assert np.allclose(build_r(spec_zn, z).entries, [[phi(HBAR, z)]])


def test_build_r_uq_mixed_two_dim_blocks():
    # diagonal cotangents, constant 1/sin(pi h) cross block, and the
    # exp(+-i pi z)-weighted flip block with opposite parity signs
    d = GradedDim(1, 1)
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    z = 0.41 + 0.19j
    h = HBAR
    cot = lambda w: cmath.cos(w) / cmath.sin(w)
    expected = (
        math.pi * (cot(math.pi * z) + cot(math.pi * h)) * matrix_units(d, [(1, 1), (1, 1)])
        + math.pi * (-cot(math.pi * z) + cot(math.pi * h)) * matrix_units(d, [(2, 2), (2, 2)])
        + (math.pi / cmath.sin(math.pi * h))
        * (matrix_units(d, [(1, 1), (2, 2)]) + matrix_units(d, [(2, 2), (1, 1)]))
        + (math.pi / cmath.sin(math.pi * z))
        * (
            -cmath.exp(1j * math.pi * z) * matrix_units(d, [(1, 2), (2, 1)])
            + cmath.exp(-1j * math.pi * z) * matrix_units(d, [(2, 1), (1, 2)])
        )
    )
    assert np.allclose(build_r(spec, z).entries, expected.entries, atol=1e-13)


def test_build_r_zn_even_two_dim_has_unweighted_flips():
    spec = spec_of(RFamily.ZN_GRADED, (2, 0))
    z = 0.41 + 0.19j
    R = build_r(spec, z).entries
    w = math.pi / cmath.sin(math.pi * z)
    assert abs(R[1, 2] - w) < 1e-13
    assert abs(R[2, 1] - w) < 1e-13


def test_families_differ_only_by_flip_weights_at_even_two_dim():
    # ungraded n=2: same diagonal blocks, flip entries carry exp(+-i pi z)
    # in one family and no weight in the other
    z = 0.29 + 0.23j
    Ru = build_r(spec_of(RFamily.UQ_GLNM, (2, 0)), z).entries
    Rz = build_r(spec_of(RFamily.ZN_GRADED, (2, 0)), z).entries
    assert np.allclose(np.diag(Ru), np.diag(Rz), atol=1e-13)
    assert abs(Ru[1, 2] - Rz[1, 2] * cmath.exp(1j * math.pi * z)) < 1e-13
    assert abs(Ru[2, 1] - Rz[2, 1] * cmath.exp(-1j * math.pi * z)) < 1e-13


def test_build_r_pole_guards():
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    with pytest.raises(PoleError):
        build_r(spec, 1.0)
    with pytest.raises(PoleError):
        build_r(spec, -HBAR)  # z + hbar on the lattice
    with pytest.raises(PoleError):
        build_r_normalized(spec, 1.0 - HBAR)


# ---------------------------------------------------------------------------
# normalized matrix and its closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", all_specs(), ids=str)
def test_normalized_matches_closed_form(spec, rng):
    for _ in range(5):
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.1, 0.5))
        a = build_r_normalized(spec, z)
        b = normalized_closed_form(spec, z)
        assert (a - b).norm() / b.norm() < 1e-12


def test_normalized_odd_diagonal_coefficient():
    # the odd-odd diagonal entry of the normalized mixed-parity matrix is
    # sin(pi(z - hbar)) / sin(pi(z + hbar))
    spec = spec_of(RFamily.UQ_GLNM, (1, 1))
    z = 0.37 + 0.14j
    rbar = build_r_normalized(spec, z)
    expected = cmath.sin(math.pi * (z - HBAR)) / cmath.sin(math.pi * (z + HBAR))
    assert abs(rbar.entries[3, 3] - expected) < 1e-13


@pytest.mark.parametrize("spec", all_specs(), ids=str)
def test_normalized_unitarity(spec):
    z = 0.43 + 0.27j
    r12 = build_r_normalized(spec, z)
    r21 = r_transposed(build_r_normalized(spec, -z))
    prod = super_multiply(r12, r21)
    assert np.allclose(prod.entries, np.eye(spec.dim.n ** 2), atol=1e-12)


@pytest.mark.parametrize("nm", [(2, 0), (1, 1), (2, 1)])
def test_normalized_limit_at_zero_is_graded_permutation(nm):
    # phi pole dominates and the residue is the graded permutation, so the
    # normalized matrix tends to P (regularity), not to the identity
    for fam in RFamily:
        spec = spec_of(fam, nm)
        z = 1e-6 * (1 + 1j)
        rbar = build_r_normalized(spec, z)
        P = graded_permutation(spec.dim)
        assert (rbar - P).norm() / P.norm() < 1e-4


# ---------------------------------------------------------------------------
# spectral derivative
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", all_specs(), ids=str)
def test_derivative_matches_finite_differences(spec):
    z = 0.38 + 0.21j
    h = 1e-6
    fd = (build_r_normalized(spec, z + h).entries - build_r_normalized(spec, z - h).entries) / (2 * h)
    an = build_f_derivative(spec, z).entries
    assert np.linalg.norm(an - fd) / max(np.linalg.norm(an), 1.0) < 1e-6


def test_derivative_scalar_case_vanishes():
    spec = spec_of(RFamily.UQ_GLNM, (1, 0))
    assert np.allclose(build_f_derivative(spec, 0.4 + 0.2j).entries, [[0.0]])


# ---------------------------------------------------------------------------
# constant two-site factor
# ---------------------------------------------------------------------------


def test_c_matrix_matches_even_closed_form():
    spec = spec_of(RFamily.UQ_GLNM, (2, 0), 0.3)
    C = c_matrix(spec)
    assert np.allclose(C.entries, c_matrix_closed_form(spec).entries, atol=1e-12)


def test_c_matrix_matches_mixed_closed_form():
    spec = spec_of(RFamily.UQ_GLNM, (1, 1), 0.3)
    C = c_matrix(spec)
    d = GradedDim(1, 1)
    expected = (
        cmath.exp(-1j * math.pi * 0.3) * matrix_units(d, [(1, 1), (2, 2)])
        + matrix_units(d, [(1, 2), (2, 1)])
        - matrix_units(d, [(2, 1), (1, 2)])
        + cmath.exp(1j * math.pi * 0.3) * matrix_units(d, [(2, 2), (1, 1)])
        + 2 * math.cos(math.pi * 0.3) * matrix_units(d, [(2, 2), (2, 2)])
    )
    assert np.allclose(C.entries, expected.entries, atol=1e-12)


def test_c_factorization_relation(rng):
    # Rbar_12(v-u) Fbar_21(u-v) equals the scalar prefactor times C
    spec = spec_of(RFamily.UQ_GLNM, (1, 1), 0.3)
    C = c_matrix(spec)
    for _ in range(5):
        u = complex(rng.uniform(0, 1), rng.uniform(0.05, 0.3))
        v = complex(rng.uniform(0, 1), rng.uniform(0.35, 0.6))
        lhs = super_multiply(
            build_r_normalized(spec, v - u), r_transposed(build_f_derivative(spec, u - v))
        )
        rhs = c_prefactor(spec, u - v) * C
        assert (lhs - rhs).norm() / rhs.norm() < 1e-12


def test_c_matrix_small_hbar_limit_is_one_minus_permutation():
    for nm in ((2, 0), (1, 1)):
        spec = spec_of(RFamily.UQ_GLNM, nm, 1e-6)
        C = c_matrix_closed_form(spec)
        target = np.eye(4) - graded_permutation(spec.dim).entries
        assert np.max(np.abs(C.entries - target)) < 1e-5


def test_c_matrix_rejects_wrong_family_or_dim():
    with pytest.raises(ValueError):
        c_matrix(spec_of(RFamily.ZN_GRADED, (1, 1)))
    with pytest.raises(ValueError):
        c_matrix(spec_of(RFamily.UQ_GLNM, (2, 1)))


# ---------------------------------------------------------------------------
# twist data and residue
# ---------------------------------------------------------------------------


def test_twist_trivial_at_two_dims():
    for nm in ((2, 0), (1, 1)):
        td = twist_data(spec_of(RFamily.ZN_GRADED, nm), 0.3)
        assert np.array_equal(td.twist.entries, np.eye(4))


def test_gauge_matrix_two_dim():
    u = 0.37 + 0.11j
    td = twist_data(spec_of(RFamily.ZN_GRADED, (1, 1)), u)
    assert np.allclose(td.gauge, np.diag([1.0, cmath.exp(1j * math.pi * u)]), atol=1e-14)


@pytest.mark.parametrize("nm", [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2)])
def test_periodicity_matrix_is_root_of_unity(nm):
    td = twist_data(spec_of(RFamily.ZN_GRADED, nm), 0.0)
    q = td.periodicity
    n = GradedDim(*nm).n
    assert np.allclose(np.linalg.matrix_power(q, n), np.eye(n), atol=1e-12)


@pytest.mark.parametrize("spec", all_specs(dims=[(1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]), ids=str)
def test_analytic_residue_equals_graded_permutation(spec):
    assert np.array_equal(residue_at_zero(spec).entries, graded_permutation(spec.dim).entries)


@pytest.mark.parametrize("spec", all_specs(dims=[(1, 1), (2, 1)]), ids=str)
def test_numeric_residue_limit(spec):
    eps = 1e-6 * (1 + 1j)
    approx = eps * build_r(spec, eps).entries
    P = graded_permutation(spec.dim).entries
    assert np.linalg.norm(approx - P) / np.linalg.norm(P) < 1e-4


# ---------------------------------------------------------------------------
# scalar kernels
# ---------------------------------------------------------------------------


def test_kernel_f_even_index_is_phi():
    spec = spec_of(RFamily.ZN_GRADED, (2, 1))
    k = scalar_kernels(spec)
    z, h = 0.42 + 0.2j, 0.3 + 0.1j
    assert abs(k.f(1, z, h) - phi(h, z)) < 1e-13


def test_kernel_flip_pole_structure():
    spec = spec_of(RFamily.ZN_GRADED, (2, 1))
    k = scalar_kernels(spec)
    with pytest.raises(PoleError):
        k.g_flip(1, 2, 1.0)
    near = k.g_flip(1, 2, 1e-5)
    assert abs(near) > 1e4  # simple pole at integer z


@pytest.mark.parametrize("spec", all_specs(), ids=str)
def test_kernel_reconstruction_matches_build_r(spec):
    z = 0.33 + 0.24j
    direct = build_r(spec, z)
    rebuilt = scalar_kernels(spec).rebuild(z)
    assert (direct - rebuilt).norm() / direct.norm() < 1e-13


# ---------------------------------------------------------------------------
# the vectorised builder
# ---------------------------------------------------------------------------


def r_entry_reference(spec, z):
    """R filled entry by entry with Python complex arithmetic, on numpy's
    complex sin, cos and exp: the rounding build_r_stack reproduces."""
    n = spec.dim.n
    p = spec.dim.parities
    h = spec.hbar

    def sin(w):
        return complex(np.sin(w))

    def cos(w):
        return complex(np.cos(w))

    def exp(w):
        return complex(np.exp(w))

    R = np.zeros((n * n, n * n), dtype=complex)
    cot_z = cos(math.pi * z) / sin(math.pi * z)
    cot_h = cos(math.pi * h) / sin(math.pi * h)
    inv_sin_z = 1.0 / sin(math.pi * z)
    inv_sin_h = 1.0 / sin(math.pi * h)
    for a in range(n):
        R[a * n + a, a * n + a] = math.pi * ((-1.0 if p[a] else 1.0) * cot_z + cot_h)
    ez = exp(1j * math.pi * z)
    for a in range(n):
        for c in range(n):
            if a == c:
                continue
            sign = (-1.0) ** p[c]  # a numpy float, as numpy scalars round
            if spec.family is RFamily.UQ_GLNM:
                R[a * n + c, a * n + c] = math.pi * inv_sin_h
                flip = sign * math.pi * inv_sin_z
                R[a * n + c, c * n + a] = flip * ez if c > a else flip / ez
            else:
                mu = (2.0 * (a - c) - n * np.sign(a - c)) / n
                R[a * n + c, a * n + c] = math.pi * inv_sin_h * exp(1j * math.pi * h * mu)
                R[a * n + c, c * n + a] = sign * math.pi * inv_sin_z * exp(1j * math.pi * z * mu)
    return R


def spectral_points(rng, size):
    return rng.uniform(0.05, 0.95, size) + 1j * rng.uniform(-0.5, 0.5, size)


@pytest.mark.parametrize("spec", all_specs(dims=ALL_DIMS + [(3, 2)]), ids=str)
def test_stack_builder_rounds_as_the_entry_reference(spec, rng):
    z = spectral_points(rng, 9)
    stack = build_r_stack(spec.family, spec.dim, spec.hbar, z)
    assert stack.shape == (9, spec.dim.n ** 2, spec.dim.n ** 2)
    for k in range(9):
        assert np.array_equal(stack[k], r_entry_reference(spec, complex(z[k])))
        # a one-point build_r takes sin and cos from cmath
        one = build_r(spec, complex(z[k])).entries
        assert np.max(np.abs(one - stack[k])) <= 1e-15 * np.max(np.abs(one))


@pytest.mark.parametrize("spec", all_specs(), ids=str)
def test_stack_builder_matches_scalar_kernels(spec, rng):
    # every entry against its kernel, evaluated on arrays; hbar varies too
    z = spectral_points(rng, 6)
    hbar = 0.2 + 0.1j + 0.05 * rng.uniform(size=6)
    stack = build_r_stack(spec.family, spec.dim, hbar, z)
    n = spec.dim.n
    for k in range(6):
        kern = scalar_kernels(RMatrixSpec(spec.family, spec.dim, hbar[k]))
        expected = np.zeros((n * n, n * n), dtype=complex)
        for a in range(1, n + 1):
            expected[(a - 1) * (n + 1), (a - 1) * (n + 1)] = kern.f(a, z[k], hbar[k])
            for c in range(1, n + 1):
                if a != c:
                    r = (a - 1) * n + (c - 1)
                    expected[r, r] = kern.g_diag(a, c, hbar[k])
                    sign = -1.0 if spec.dim.parity(c) else 1.0
                    expected[r, (c - 1) * n + (a - 1)] = sign * kern.g_flip(a, c, z[k])
        assert np.max(np.abs(stack[k] - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_kernels_accept_arrays(rng):
    spec = spec_of(RFamily.ZN_GRADED, (2, 1))
    k = scalar_kernels(spec)
    z = spectral_points(rng, 5)
    rebuilt = k.rebuild(z)
    assert rebuilt.shape == (5, 9, 9)
    for i in range(5):
        # on one point, cot takes sin and cos from cmath
        point = k.rebuild(complex(z[i])).entries
        assert np.max(np.abs(rebuilt[i] - point)) <= 1e-15 * np.max(np.abs(point))
        assert k.g_flip(1, 3, z)[i] == k.g_flip(1, 3, complex(z[i]))
        one = phi(HBAR, complex(z[i]))
        assert abs(phi(HBAR, z)[i] - one) <= 1e-15 * abs(one)


@pytest.mark.parametrize("fam", list(RFamily))
def test_stack_builder_pole_guards(fam):
    dim = GradedDim(2, 1)
    ok = 0.31 + 0.2j
    cases = [
        (HBAR, [ok, 2.0 + 1e-14, ok], "z=(2"),
        (HBAR, [ok, ok, 1.0 - HBAR], "z+hbar="),
        ([HBAR, 3.0, HBAR], [ok, ok, ok], "hbar="),
    ]
    for hbar, z, message in cases:
        with pytest.raises(PoleError, match=re.escape(message)):
            build_r_stack(fam, dim, hbar, np.array(z))
    with pytest.raises(PoleError, match=re.escape("z=1.0 ")):
        build_r(spec_of(fam, (2, 1)), 1.0)
    # the first offending point is the one named
    with pytest.raises(PoleError, match=re.escape("z=(-1")):
        build_r_stack(fam, dim, HBAR, np.array([ok, -1.0, 2.0]))
