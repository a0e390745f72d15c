"""Irregular-point analysis: shearing, formal reduction, shift-operator normal
form, Stokes bases/matrices, the Gram identification, roots of unity, and the
bridge to the zero-parameter isomonodromic system."""

import cmath
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from projqde import ktheory, stokes
from projqde.cohomology import NumericContext, cohom_vars
from projqde.hypergeom import QSolution
from projqde.ktheory import beilinson_basis, braid_act, braid_constants, dioph_residual, gram_matrix, to_z
from projqde.qde import system_matrices
from projqde.ring import LaurentMatrix, LaurentPoly, evars, reduce_root_of_unity, sym_poly, zvars
from projqde.stokes import (
    W,
    _ahat_exact,
    FormalSolution,
    SectorId,
    _at_unity_roots,
    _conjugate_by_e,
    _evaluate,
    _reduce_w,
    _rk4_linear,
    antisymmetric_v_exact,
    dubrovin_bridge,
    e_matrix,
    e_matrix_exact,
    formal_reduce_exact_rank2,
    formal_reduce_numeric,
    gauge_substitution_residual_orders,
    gram_orthonormal_at_unity,
    gram_stokes_check,
    half_turn_is_left_dual,
    roots_of_unity_suite,
    scalar_collapse_residual,
    shear_coeffs,
    stirling_value_checks,
    stokes_basis,
    stokes_matrices,
    stokes_gram,
    stokes_normalization,
    stokes_trivial_at_unity,
)

from identities import (
    BranchContext,
    cofactor_inverse,
    drop_vars,
    formal_monodromy_char_residual,
    gram_in_window_zero,
    parameter_variables,
    qkz_normal_form,
    qkz_normal_form_expected,
    scaled_element_asymptotic_ratio,
    substitute_monomial,
    twist_by_expand,
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


def shear_consistency_residual(n: int) -> LaurentMatrix:
    """B(s,z) - n s^{n-1} (H^{-1} A(s^n) H - H^{-1} dH/dq), symbolically; zero
    iff the printed coefficients match the shearing transformation."""
    vs = ("s",) + cohom_vars(n)
    s = LaurentPoly.variable(vs, "s")
    coeffs = [m.map(lambda p: p.with_vars(vs)) for m in shear_coeffs(n)]
    lhs = coeffs[0]
    for j in range(1, n + 1):
        lhs = lhs + coeffs[j].map(lambda p: p * s ** (-j))
    a0, a1 = system_matrices(n, parameter_variables(n))
    a0 = a0.map(lambda p: p.with_vars(vs))
    a1 = a1.map(lambda p: p.with_vars(vs) * s ** (-n))
    a = a0 + a1
    # H = diag(s^{-(alpha-1)}): conjugation scales entry (a,b) by s^{a-b};
    # -n s^{n-1} H^{-1} dH/dq = diag(alpha-1)/s.
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(a[i, j] * s ** (i - j) * n * s ** (n - 1))
        rows.append(row)
    rhs = LaurentMatrix(rows)
    diag = LaurentMatrix.identity(n, vs).entries
    diag = [list(r) for r in diag]
    for i in range(n):
        diag[i][i] = LaurentPoly.constant(vs, i) * s**-1
    rhs = rhs + LaurentMatrix(diag)
    return lhs - rhs


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


def e_matrix_identities(n: int) -> dict:
    """Exact checks: E E^{-1} = 1, E B_0 E^{-1} = diag(n zeta^m),
    (E^{-1})^T eta_cl E^{-1} = 1, and diag(E B_1 E^{-1}) = (s_1 + (n-1)/2) 1."""
    vs = (W,) + cohom_vars(n)
    one = LaurentMatrix.identity(n, vs)
    bs = shear_coeffs(n)
    want0 = [[LaurentPoly.zero(vs) for _ in range(n)] for _ in range(n)]
    for m in range(n):
        want0[m][m] = LaurentPoly.variable(vs, W, 2 * m) * n
    eta = [[LaurentPoly.constant(vs, 1 if a + b == n - 1 else 0) for b in range(n)] for a in range(n)]
    _, einv = e_matrix_exact(n, cohom_vars(n))
    conj1 = _conjugate_by_e(bs[1])
    lam = reduce_root_of_unity(
        sym_poly("elementary", 1, n, prefix="z").with_vars(vs) + Fraction(n - 1, 2), W, 2 * n
    )
    return {
        "inverse": _conjugate_by_e(one) == one,
        "diagonalizes": _conjugate_by_e(bs[0]) == _reduce_w(LaurentMatrix(want0), 2 * n),
        "orthonormal": _reduce_w(einv.transpose() * LaurentMatrix(eta) * einv * Fraction(1, n), 2 * n) == one,
        "level": all(conj1[m, m] == lam for m in range(n)),
    }


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


@pytest.mark.parametrize("n", range(2, 7))
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


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_stokes_gram_on_the_twisted_basis_is_the_gram_matrix(n):
    # stokes_gram pairs the basis in its sparsest window; chi is the same on
    # its twist by X^-(k+n-1), paired here as stored, in O(0)..O(n-1)
    for kind in ("Vprime", "Vdprime"):
        for k in range(-n, n + 1) if n <= 5 else range(-2, 3):
            sector = SectorId(kind, k)
            els = [twist_by_expand(e, -(k + n - 1)) for e in stokes_basis(sector, n).elements]
            assert stokes_gram(sector, n) == gram_in_window_zero(els), (n, kind, k)


def _three_bases(sector, n):
    """The Stokes bases of the sector and of its half and full turns, and the
    order of eigenvalue tags the Stokes matrices use."""
    bases = [stokes_basis(sector, n)]
    for _ in range(2):
        sector = sector.rotate_half(n)
        bases.append(stokes_basis(sector, n))
    return bases, list(reversed(bases[0].eigen_tags))


def _by_tag(basis, tag_order):
    pos = {t: i for i, t in enumerate(basis.eigen_tags)}
    return [basis.elements[pos[t]] for t in tag_order]


def _x_power_stokes_matrices(sector, n):
    """Reference: S1 = A0^{-1} A1 and S2 = A1^{-1} A2 with A_i the X-power
    coordinates of the bases over Z1..Zn (`KClass.coeffs`), inverted by the
    test oracle `cofactor_inverse`: `LaurentMatrix.inverse` refuses those
    A_i that lack a unit-monomial pivot, 18 of the 60 at n = 2..4."""
    bases, order = _three_bases(sector, n)
    a0, a1, a2 = (
        LaurentMatrix([[e.coeffs[j] for e in _by_tag(b, order)] for j in range(n)]) for b in bases
    )
    return cofactor_inverse(a0) * a1, cofactor_inverse(a1) * a2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stokes_matrices_match_x_power_reference(n):
    # k = -4, -3 at n = 4 take 1-5 s each on the reference path
    for kind in ("Vprime", "Vdprime"):
        for k in range(-2, 3):
            got = stokes_matrices(SectorId(kind, k), n)
            want = _x_power_stokes_matrices(SectorId(kind, k), n)
            for s, w in zip(got, want):
                assert s.vars == evars(n)
                assert s.map(lambda p: to_z(p, n)) == w, (n, kind, k)


def _separated_torus_point(rng, n):
    """Z_a = exp(i theta_a) with the Z_a and the Z_a^n well apart."""
    perm = rng.permutation(n)
    theta = (2 * np.pi * np.arange(n) + np.pi * (perm + 0.5 + 0.3 * (rng.random(n) - 0.5)) / n) / n
    return np.exp(1j * (theta + rng.uniform(0, 2 * np.pi)))


def _at(p, z):
    """A polynomial over E1..En at e_k(z), or over Z1..Zn at z."""
    e = [(-1) ** k * c for k, c in enumerate(np.poly(z))][1:]
    return p.eval({**{f"Z{i + 1}": w for i, w in enumerate(z)}, **{f"E{k + 1}": v for k, v in enumerate(e)}})


@settings(max_examples=25, deadline=None)
@given(
    st.integers(3, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from(("Vprime", "Vdprime")), st.integers(-n, n))
    ),
    st.integers(0, 2**32 - 1),
)
@example((4, "Vprime", -8), 1)
def test_stokes_matrices_match_numeric_solve(sector, seed):
    # the fixed-point restrictions f(X = Z_a) of the three bases, evaluated in
    # floating point, against the exact S1, S2 at the same point of the torus
    n, kind, k = sector
    sector = SectorId(kind, k)
    s1, s2 = stokes_matrices(sector, n)
    bases, order = _three_bases(sector, n)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        z = _separated_torus_point(rng, n)
        r0, r1, r2 = (
            np.array([[sum(_at(c, z) * z[a] ** -j for j, c in enumerate(e.ocoords)) for e in _by_tag(b, order)] for a in range(n)])
            for b in bases
        )
        n1, n2 = np.linalg.solve(r0, r1), np.linalg.solve(r1, r2)
        for exact, numeric in ((s1, n1), (s2, n2)):
            value = np.array([[_at(p, z) for p in row] for row in exact.entries])
            scale = max(1.0, float(np.max(np.abs(value))))
            assert np.max(np.abs(value - numeric)) <= 1e-8 * scale, (n, kind, k)
        # on the unit torus the dual is the complex conjugate
        eig = np.linalg.eigvals(np.linalg.solve(n1, n1.conj().T))
        want = (-1) ** (n - 1) * z**n / np.prod(z)
        rows, cols = linear_sum_assignment(np.abs(eig[:, None] - want[None, :]))
        assert np.max(np.abs(eig[rows] - want[cols])) <= 1e-7, (n, kind, k)


def _shift_entry(m, i, j, p):
    rows = [list(row) for row in m.entries]
    rows[i][j] = rows[i][j] + p
    return LaurentMatrix(rows)


@pytest.mark.parametrize("n", [3, 4])
def test_char_poly_checks_reject_shifted_entries(n):
    e1 = LaurentPoly.variable(evars(n), "E1")
    g = gram_matrix(beilinson_basis(n))
    assert dioph_residual(g, n).is_zero()
    assert not dioph_residual(_shift_entry(g, 0, 1, e1), n).is_zero()
    s1, s2 = stokes_matrices(SectorId("Vprime", 0), n)
    assert formal_monodromy_char_residual(s1, s2, n).is_zero()
    assert not formal_monodromy_char_residual(_shift_entry(s1, 0, 1, e1), s2, n).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_formal_monodromy_verdict_matches_its_own_pencil(n):
    # gram_stokes_check reads the formal-monodromy identity off Stokes = Gram and
    # the Gram pencil; the oracle runs the formal monodromy's own pencil
    for kind in ("Vprime", "Vdprime"):
        for k in range(-2, 3):
            rep = gram_stokes_check(SectorId(kind, k), n)
            zero = formal_monodromy_char_residual(rep["s1"], rep["s2"], n).is_zero()
            assert rep["formal_monodromy"] and zero, (n, kind, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("which, entry", [(0, (0, 1)), (1, (1, 0))])
def test_formal_monodromy_fails_on_a_shifted_stokes_entry(n, which, entry, monkeypatch):
    # one entry of S1, then of S2, shifted within its triangle: the verdict and
    # the oracle's residual both fail
    e1 = LaurentPoly.variable(evars(n), "E1")
    matrices = stokes.stokes_matrices

    def shifted(sector, n):
        s = list(matrices(sector, n))
        s[which] = _shift_entry(s[which], *entry, e1)
        return tuple(s)

    monkeypatch.setattr(stokes, "stokes_matrices", shifted)
    for kind in ("Vprime", "Vdprime"):
        rep = gram_stokes_check(SectorId(kind, 0), n)
        assert not rep["formal_monodromy"], (n, kind)
        assert not formal_monodromy_char_residual(rep["s1"], rep["s2"], n).is_zero(), (n, kind)


def test_gram_stokes_check_runs_one_pencil(monkeypatch):
    calls = []
    pencil = ktheory.char_poly
    monkeypatch.setattr(ktheory, "char_poly", lambda a, b: calls.append(a) or pencil(a, b))
    assert not hasattr(stokes, "char_poly")
    for n in (2, 3, 4):
        for kind in ("Vprime", "Vdprime"):
            calls.clear()
            assert gram_stokes_check(SectorId(kind, 1), n)["formal_monodromy"]
            assert len(calls) == 1, (n, kind)


def test_stokes_entries_symmetric_in_parameters():
    # entries are symmetric Laurent polynomials in the exponentiated parameters
    n = 3
    s1, s2 = stokes_matrices(SectorId("Vprime", 0), n)
    perm = {"Z1": "Z2", "Z2": "Z3", "Z3": "Z1"}
    for m in (s1, s2):
        for a in range(n):
            for b in range(n):
                p = to_z(m[a, b], n)
                q = LaurentPoly(tuple(perm[v] for v in p.vars), p.terms).with_vars(p.vars)
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


def specialize_to_unity_roots(p, n):
    """Reference: p over Z1..Zn at Z_m -> V^{m-1}, V a formal primitive n-th
    root of unity, reduced modulo Phi_n(V); a polynomial in (V,)."""
    vs = ("V",) + zvars(n)
    q = p.with_vars(vs)
    for m in range(1, n + 1):
        q = substitute_monomial(q, f"Z{m}", 1, (m - 1,) + (0,) * n)
    return reduce_root_of_unity(drop_vars(q, zvars(n)), "V", n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unity_root_values_over_e_match_the_z_expansion(n):
    # e_k(1, V, .., V^{n-1}) is 0 for 0 < k < n and e_n is (-1)^{n-1}; of
    # the e_k only e_n is a unit
    rng = random.Random(n)
    for _ in range(20):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(n - 1)) + (rng.randint(-2, 2),): rng.randint(-3, 3)
            for _ in range(4)
        }
        terms[(0,) * (n - 1) + (rng.choice((-1, 1)),)] = 1
        p = LaurentPoly(evars(n), terms)
        assert specialize_to_unity_roots(to_z(p, n), n) == _at_unity_roots(p, n)


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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dubrovin_bridge_residual(n):
    rep = dubrovin_bridge(n)
    assert rep["antisymmetry"] < 1e-14
    assert rep["residual"] < 1e-8


def _rk4_reference(b0, b1, s0, h, steps):
    """Reference: classical RK4 one step at a time, four right-hand sides per step."""
    ts = [np.eye(len(b0), dtype=complex)]
    t, s = ts[0], s0

    def rhs(s, t):
        return (b0 + b1 / s) @ t

    for _ in range(steps):
        k1 = rhs(s, t)
        k2 = rhs(s + h / 2, t + h / 2 * k1)
        k3 = rhs(s + h / 2, t + h / 2 * k2)
        k4 = rhs(s + h, t + h * k3)
        t = t + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s += h
        ts.append(t)
    return ts


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rk4_step_matrices_match_the_stepwise_loop(n):
    # the ten points the five-point stencil reads at lambda = 1.4 and 2.1
    b0, b1 = (_evaluate(b, dict.fromkeys(cohom_vars(n), 0)) for b in shear_coeffs(n)[:2])
    got = _rk4_linear(b0, b1, 1.0, 1e-3, 1102)
    want = _rk4_reference(b0, b1, 1.0, 1e-3, 1102)
    assert len(got) == len(want) == 1103
    for idx in [*range(398, 403), *range(1098, 1103)]:
        assert np.linalg.norm(got[idx] - want[idx]) <= 1e-12 * np.linalg.norm(want[idx])


def test_dubrovin_bridge_fails_on_a_wrong_e(monkeypatch):
    # negative control: E with two columns swapped no longer carries T to Y
    e, einv = e_matrix(3)
    swap = [1, 0, 2]
    monkeypatch.setattr(stokes, "e_matrix", lambda n: (e[:, swap], einv[swap, :]))
    assert dubrovin_bridge(3)["residual"] > 1e-6


@pytest.mark.parametrize("n", range(2, 8))
def test_numeric_ahat_matches_the_exact_conjugates(n):
    """formal_reduce_numeric forms hat A_j = E B_j E^{-1} from the numeric E;
    the exact hat A_j evaluated at the same point agree."""
    z = [0.1 * k + 0.03j * k * k - 0.2 for k in range(n)]
    sol = formal_reduce_numeric(n, z, 2)
    at = {W: cmath.exp(1j * cmath.pi / n), **dict(zip(cohom_vars(n), z))}
    want = [_evaluate(a, at) for a in _ahat_exact(n)]
    assert len(sol.ahat) == len(want) == n + 1
    for got, a in zip(sol.ahat, want):
        assert np.max(np.abs(got - a)) <= 1e-12 * max(1.0, np.max(np.abs(a)))
