"""Irregular-point analysis: shearing, formal reduction, shift-operator normal
form, Stokes bases/matrices, the Gram identification, roots of unity, and the
bridge to the zero-parameter isomonodromic system."""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from projqde.cohomology import NumericContext
from projqde.hypergeom import QSolution, scaled_element_asymptotic_ratio
from projqde.ktheory import beilinson_basis, braid_act, braid_constants, dioph_residual, gram_matrix
from projqde.qde import BranchContext
from projqde.ring import LaurentMatrix, LaurentPoly, reduce_root_of_unity, sym_poly, zvars
from projqde.stokes import (
    FormalSolution,
    SectorId,
    _formal_monodromy_char_residual,
    antisymmetric_v_exact,
    dubrovin_bridge,
    e_matrix,
    e_matrix_identities,
    formal_reduce_exact_rank2,
    formal_reduce_numeric,
    gauge_substitution_residual_orders,
    gram_orthonormal_at_unity,
    gram_stokes_check,
    half_turn_is_left_dual,
    qkz_normal_form,
    qkz_normal_form_expected,
    roots_of_unity_suite,
    scalar_collapse_residual,
    shear_coeffs,
    shear_consistency_residual,
    stirling_value_checks,
    stokes_basis,
    stokes_matrices,
    stokes_normalization,
    stokes_trivial_at_unity,
)


# -- shearing ---------------------------------------------------------------------


def test_shear_rank2_b1():
    bs = shear_coeffs(2)
    vs = bs[1].vars
    s1 = sym_poly("elementary", 1, 2, prefix="z")
    assert bs[1][0, 0].is_zero()
    assert bs[1][1, 1] == LaurentPoly.one(vs) + s1 * 2


def test_shear_b0_eigenvalues():
    n = 4
    bs = shear_coeffs(n)
    vals = {f"z{i + 1}": 0.0 for i in range(n)}
    b0 = np.array([[bs[0][i, j].eval(vals) for j in range(n)] for i in range(n)])
    ev = np.sort_complex(np.linalg.eigvals(b0))
    want = np.sort_complex(n * np.exp(2j * np.pi * np.arange(n) / n))
    assert np.allclose(ev, want, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_shear_consistency_symbolic(n):
    r = shear_consistency_residual(n)
    assert all(r[i, j].is_zero() for i in range(n) for j in range(n))


# -- the diagonalizing matrix --------------------------------------------------------


def test_e_matrix_rank2_closed_form():
    _, einv = e_matrix(2)
    want = np.array([[1, -1j], [1, 1j]]) / np.sqrt(2)
    assert np.allclose(einv, want, atol=1e-14)


def test_e_matrix_numeric_inverse():
    for n in (2, 3, 4, 5):
        e, einv = e_matrix(n)
        assert np.max(np.abs(e @ einv - np.eye(n))) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_e_matrix_identities_exact(n):
    ids = e_matrix_identities(n)
    assert all(ids.values()), ids


# -- formal reduction -----------------------------------------------------------------


def test_formal_reduction_rank2_first_coefficient():
    sol = formal_reduce_exact_rank2(4)
    f1 = sol.coeffs[1]
    vs = f1.vars
    s1 = sym_poly("elementary", 1, 2, prefix="z").with_vars(vs)
    s2 = sym_poly("elementary", 2, 2, prefix="z").with_vars(vs)
    d = s1 * 2 + 1
    f11 = s2 - d * d * Fraction(1, 16)
    f12 = LaurentPoly.variable(vs, "W") * d * Fraction(-1, 8)

    def eq(a, b):
        return reduce_root_of_unity(a - b, "W", 4).is_zero()

    assert eq(f1[0, 0], f11)
    assert eq(f1[0, 1], f12)
    assert eq(f1[1, 0], f12)
    assert eq(f1[1, 1], -f11)


def test_gauge_substitution_orders():
    sol = formal_reduce_exact_rank2(4)
    assert gauge_substitution_residual_orders(sol, 4) == [True] * 4


def test_formal_reduction_determinism_and_numeric_agreement():
    a = formal_reduce_exact_rank2(6)
    b = formal_reduce_exact_rank2(6)
    assert all(x == y for x, y in zip(a.coeffs, b.coeffs))
    z = (0.11, -0.23)
    num = formal_reduce_numeric(2, z, 6)
    vals = {"W": 1j, "z1": z[0], "z2": z[1]}
    for k in range(1, 7):
        exact_k = np.array(
            [[a.coeffs[k][i, j].eval(vals) for j in range(2)] for i in range(2)]
        )
        err = np.max(np.abs(exact_k - num.coeffs[k]))
        assert err <= 1e-12 * np.max(np.abs(exact_k)), k


@st.composite
def resonance_free_points(draw):
    """(n, z) with n = 2..4 and complex z whose pairwise differences stay away
    from the integers."""
    n = draw(st.integers(2, 4))
    parts = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    z = [complex(draw(parts), draw(parts)) for _ in range(n)]
    for i in range(n):
        for j in range(i):
            d = z[i] - z[j]
            assume(abs(d.imag) > 1e-3 or abs(d.real - round(d.real)) > 1e-3)
    return n, z


@settings(max_examples=40, deadline=None)
@given(resonance_free_points())
def test_numeric_formal_reduction_solves_gauge_equation(point):
    n, z = point
    sol = formal_reduce_numeric(n, z, 8)
    assert gauge_substitution_residual_orders(sol, 8) == [True] * 8


def test_gauge_residual_rejects_perturbed_coefficients():
    # a diagonal change of F_2 commutes with U: order 2 still holds, the
    # diagonal equation at order 3 and the hat A_2 term at order 4 see it
    for sol in (formal_reduce_exact_rank2(4), formal_reduce_numeric(3, (0.1, 0.37, -0.42), 4)):
        coeffs = list(sol.coeffs)
        coeffs[2] = coeffs[2] + coeffs[0] * Fraction(1, 10)
        bad = FormalSolution(sol.n, sol.level, sol.u, sol.cdiag, coeffs, sol.ahat)
        assert gauge_substitution_residual_orders(bad, 4) == [True, True, False, False]


# -- shift-operator normal form ---------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_qkz_normal_form_exact(n):
    want = qkz_normal_form_expected(n)
    for j in range(1, n + 1):
        assert qkz_normal_form(j, n) == want, (n, j)


def test_qkz_normal_form_matches_normalization_ratio():
    # C(z - e_j) C(z)^{-1} = diag(zeta^{-m}) for the sector normalization
    n = 3
    ctx = NumericContext((0.1, 0.37 + 0.05j, -0.42))
    shifted = ctx.shift(1)
    c0 = stokes_normalization(SectorId("Vprime", 0), ctx)
    c1 = stokes_normalization(SectorId("Vprime", 0), shifted)
    zeta = cmath.exp(2j * cmath.pi / n)
    for m in range(n):
        assert abs(c1[m] / c0[m] - zeta**-m) < 1e-12


# -- Stokes bases and matrices ------------------------------------------------------------


def test_stokes_basis_kinds_and_tags():
    b = stokes_basis(SectorId("Vprime", 0), 3)
    assert sorted(b.eigen_tags) == [0, 1, 2]
    b2 = stokes_basis(SectorId("Vdprime", 1), 4)
    assert sorted(b2.eigen_tags) == [0, 1, 2, 3]


def test_sector_rotation_composition():
    for n in (2, 3, 4, 5):
        for kind in ("Vprime", "Vdprime"):
            s = SectorId(kind, 1)
            full = s.rotate_half(n).rotate_half(n)
            assert full == SectorId(kind, 1 - n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_half_turn_basis_is_half_twist_image(n):
    for kind in ("Vprime", "Vdprime"):
        for k in (-1, 0, 1):
            assert half_turn_is_left_dual(SectorId(kind, k), n), (n, kind, k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stokes_matrices_triangular_and_gram(n):
    for kind in ("Vprime", "Vdprime"):
        for k in (-2, -1, 0, 1, 2):
            rep = gram_stokes_check(SectorId(kind, k), n)
            assert rep["stokes_is_dual_gram"], (n, kind, k)
            assert rep["stokes_is_gram"], (n, kind, k)
            assert rep["dagger_pair"], (n, kind, k)
            assert rep["char_poly"], (n, kind, k)
            assert rep["formal_monodromy"], (n, kind, k)


def _shift_entry(m, i, j, p):
    rows = [list(row) for row in m.entries]
    rows[i][j] = rows[i][j] + p
    return LaurentMatrix(rows)


@pytest.mark.parametrize("n", [3, 4])
def test_char_poly_checks_reject_shifted_entries(n):
    z1 = LaurentPoly.variable(zvars(n), "Z1")
    g = gram_matrix(beilinson_basis(n))
    assert dioph_residual(g, n).is_zero()
    assert not dioph_residual(_shift_entry(g, 0, 1, z1), n).is_zero()
    s1, s2 = stokes_matrices(SectorId("Vprime", 0), n)
    assert _formal_monodromy_char_residual(s1, s2, n).is_zero()
    assert not _formal_monodromy_char_residual(_shift_entry(s1, 0, 1, z1), s2, n).is_zero()


def test_stokes_entries_symmetric_in_parameters():
    # entries are symmetric Laurent polynomials in the exponentiated parameters
    n = 3
    s1, s2 = stokes_matrices(SectorId("Vprime", 0), n)
    perm = {"Z1": "Z2", "Z2": "Z3", "Z3": "Z1"}
    for m in (s1, s2):
        for a in range(n):
            for b in range(n):
                p = m[a, b]
                q = p.rename_vars(perm).with_vars(p.vars)
                assert q == p


def test_stokes_asymptotic_sanity_rank2():
    # each basis element matches its normalized growth prediction at |s| = 20
    n = 2
    ctx = NumericContext((0.0, 0.37))
    sector = SectorId("Vprime", 0)
    basis = stokes_basis(sector, n)
    rays = {0: -0.05, 1: -0.30}
    for element, tag in zip(basis.elements, basis.eigen_tags):
        weights = QSolution(element.to_laurent(), ctx, 10).weights
        ratio = scaled_element_asymptotic_ratio(
            weights, tag, 20.0, BranchContext(rays[tag]), ctx
        )
        assert abs(ratio - 1) <= 5e-2, (tag, ratio)


# -- roots of unity -------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_scalar_collapse_and_stirling(n):
    assert scalar_collapse_residual(n).is_zero()
    assert stirling_value_checks(n)


@pytest.mark.parametrize("n", [2, 3])
def test_stokes_trivial_at_unity(n):
    for kind in ("Vprime", "Vdprime"):
        assert stokes_trivial_at_unity(SectorId(kind, 0), n)


def test_orthonormal_gram_at_unity():
    for n in (2, 3, 4):
        assert gram_orthonormal_at_unity(n)


def test_roots_of_unity_suite():
    for n in (2, 3):
        rep = roots_of_unity_suite(n)
        assert rep["scalar_collapse"] and rep["stirling_values"]
        assert rep["stokes_trivial"] and rep["orthonormal_gram"]
        assert rep["monodromy_order"] and rep["monodromy_order_shifted"]
        assert rep["eigenbasis_deviation"] < 1e-10
        assert rep["partition_deviation"] < 1e-10
        assert rep["nontrivial_generically"]


# -- bridge to the isomonodromic system -------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_v_antisymmetric_exact(n):
    assert antisymmetric_v_exact(n)


@pytest.mark.parametrize("n", [2, 3])
def test_dubrovin_bridge_residual(n):
    rep = dubrovin_bridge(n)
    assert rep["antisymmetry"] < 1e-14
    assert rep["residual"] < 1e-8
