"""Acceptance suite: the package's exit criteria, one test per criterion, each
printing a PASS/FAIL line (run with -s to see them).  Tolerances are pinned
here and nowhere else."""

import cmath
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from sympy import symbols

from projqde.cohomology import NumericContext
from projqde.hypergeom import (
    QSolution,
    SolutionSeries,
    b_theorem_check,
    contour_oracle,
    fundamental_matrix,
    psi_Q,
    solution_ode_residual,
)
from projqde.ktheory import (
    BraidWord,
    KClass,
    beilinson_basis,
    braid_act,
    braid_constants,
    chi_pair,
    dioph_residual,
    dual_basis,
    gram_matrix,
    markov_residuals_rank3,
    serre_twist,
    structured_basis,
)
from projqde.qde import a_series_coefficients, levelt_series, ode_residual, topological_series
from projqde.qkz import qkz_operator
from projqde.ring import LaurentMatrix, LaurentPoly, stirling, sym_poly, zvars
from projqde.stokes import (
    SectorId,
    antisymmetric_v_exact,
    dubrovin_bridge,
    formal_reduce_exact_rank2,
    gauge_substitution_residual_orders,
    gram_stokes_check,
    roots_of_unity_suite,
    scalar_collapse_residual,
    stokes_basis,
    stokes_trivial_at_unity,
)

from identities import (
    BranchContext,
    ScalarSeries,
    qkz_normal_form,
    qkz_normal_form_expected,
    scalar_qde_residual,
    scaled_element_asymptotic_ratio,
    series_coefficient,
    specialize,
    vanishes_identically,
)


def report(name: str, started: float) -> None:
    print(f"PASS  {name}  ({time.perf_counter() - started:.1f}s)")


def random_omega_point(rng: random.Random, n: int) -> tuple[complex, ...]:
    while True:
        z = tuple(
            complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.2, 0.2)) for _ in range(n)
        )
        ok = True
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = z[i] - z[j]
                if abs(d.imag) < 0.05 and abs(d.real - round(d.real)) < 0.15:
                    ok = False
        if ok:
            return z


def mutated_bases(n: int, count: int = 10):
    rng = random.Random(100 + n)
    out = [beilinson_basis(n)]
    for _ in range(count):
        word = BraidWord(
            tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(2))
        )
        out.append(braid_act(word, out[0]))
    return out


def j_matrix(vs: tuple[str, ...]) -> LaurentMatrix:
    """The antidiagonal matrix J over the ring with variables vs."""
    n = len(vs)
    return LaurentMatrix(
        [
            [LaurentPoly.constant(vs, 1 if a + b == n - 1 else 0) for b in range(n)]
            for a in range(n)
        ]
    )


def test_criterion_01_chi_table():
    started = time.perf_counter()
    for n in range(2, 6):
        sn = sym_poly("elementary", n, n)
        for i in range(-n, n + 1):
            fo = KClass.line_bundle(n, i)
            for j in range(-n, n + 1):
                got = chi_pair(fo, KClass.line_bundle(n, j))
                if i <= j:
                    want = sym_poly("complete", j - i, n).dual()
                elif j < i < j + n:
                    want = LaurentPoly.zero(zvars(n))
                else:
                    want = sym_poly("complete", i - j - n, n) * sn
                    if (n - 1) % 2 == 1:
                        want = -want
                assert got == want, (n, i, j)
    assert time.perf_counter() - started < 5.0
    report("criterion 1: Euler-pairing table, n=2..5, exact", started)


def test_criterion_02_braid_algebra():
    started = time.perf_counter()
    for n in range(2, 6):
        beta = braid_constants("beta", n)
        cox = braid_constants("C", n)
        sigma_o = braid_constants("sigma_odd", n)
        sigma_e = braid_constants("sigma_even", n)
        for basis in mutated_bases(n):
            # (br1) and (br2)
            for i in range(1, n):
                assert braid_act(BraidWord((i, -i)), basis) == basis
            for i in range(1, n - 1):
                lhs = braid_act(BraidWord((i, i + 1, i)), basis)
                rhs = braid_act(BraidWord((i + 1, i, i + 1)), basis)
                assert lhs.elements == rhs.elements
            # dual orthogonality
            right = dual_basis("right", basis)
            left = dual_basis("left", basis)
            for h in range(1, n + 1):
                for k in range(1, n + 1):
                    want = LaurentPoly.constant(zvars(n), 1 if h + k == n + 1 else 0)
                    assert chi_pair(basis.elements[h - 1], right.elements[k - 1]) == want
                    assert chi_pair(left.elements[k - 1], basis.elements[h - 1]) == want
            # Gram of the dual
            g = gram_matrix(basis)
            j = j_matrix(g.vars)
            assert gram_matrix(left) == j * g.dagger().inverse() * j
            # Serre: full-twist power = double right dual = canonical twist
            via_braid = braid_act(cox**-n, basis)
            assert via_braid.elements == dual_basis("right", right).elements
            assert via_braid.elements == tuple(serre_twist(e) for e in basis.elements)
            # alternating sorting products act as the half twist
            want = braid_act(beta, basis).elements
            assert braid_act(sigma_o, basis).elements == want
            assert braid_act(sigma_e, basis).elements == want
    assert time.perf_counter() - started < 30.0
    report("criterion 2: braid algebra on Beilinson + 10 mutated bases, n=2..5", started)


def test_criterion_03_diophantine():
    started = time.perf_counter()
    for n in range(2, 6):
        assert dioph_residual(gram_matrix(beilinson_basis(n)), n).is_zero()
    for basis in mutated_bases(3, 5):
        assert dioph_residual(gram_matrix(basis), 3).is_zero()
    n = 3
    vs = zvars(n)
    s1 = sym_poly("elementary", 1, n)
    s2 = sym_poly("elementary", 2, n)
    one, zero = LaurentPoly.one(vs), LaurentPoly.zero(vs)
    g = LaurentMatrix([[one, s1, s2], [zero, one, s1], [zero, zero, one]])
    assert all(r.is_zero() for r in markov_residuals_rank3(g))
    triple = []
    for p in (s1, s2, s1):
        for i in range(1, n + 1):
            p = specialize(p, f"Z{i}", 1)
        triple.append(p)
    assert tuple(triple) == (3, 3, 3)
    a, b, c = triple
    assert a * a + b * b + c * c - a * b * c == 0
    report("criterion 3: canonical characteristic constraints + minimal triple", started)


def test_criterion_04_series_solutions():
    started = time.perf_counter()
    rng = random.Random(7)
    for n in (2, 3):
        z = random_omega_point(rng, n)
        lev = levelt_series(n, z, 30)
        top = topological_series(n, z, 30)
        for q in (0.3, -0.3, 0.3j):
            assert ode_residual(lev, q, n, z) <= 1e-9
            assert ode_residual(top, q, n, z) <= 1e-9
            lhs = top.matrix(q)
            rhs = lev.matrix(q) @ lev.d
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(lhs))
    # scalar equation, symbolically to order 6, and a changed coefficient fails it
    n = 2
    zsym = symbols("z1 z2")
    coeffs = a_series_coefficients(n, zsym, 6, 1)
    for cs, solves in ((coeffs, True), (coeffs[:3] + [2 * coeffs[3]] + coeffs[4:], False)):
        res = scalar_qde_residual(ScalarSeries(zsym[0], cs, 6), n, zsym)
        assert all(vanishes_identically(c) for c in res.coeffs[:-1]) == solves
    assert time.perf_counter() - started < 60.0
    report("criterion 4: regular-point series solve the equation", started)


def test_criterion_05_q_hypergeometric():
    started = time.perf_counter()
    q = 0.2
    for n, zs in ((2, (0.0, 0.37)), (3, (0.1, 0.37 + 0.05j, -0.42))):
        ctx = NumericContext(zs)
        fm = fundamental_matrix(ctx, 40)
        y0 = fm(q, ctx)
        a = np.zeros((n, n), dtype=complex)
        from projqde.qde import coefficient_matrix

        for i in range(1, n + 1):
            shifted = ctx.shift(i)
            lhs = fm(q, shifted)
            rhs = qkz_operator(i, q, ctx.z, basis="x") @ y0
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs), (n, i)
        for m in (0, 1):
            sol = psi_Q(LaurentPoly.variable(("X",) + zvars(n), "X", m), ctx, 40)
            assert solution_ode_residual(sol, q) <= 1e-8
        # leading term, closed form
        for J in range(1, n + 1):
            s = SolutionSeries(J, ctx, 40)
            c0 = series_coefficient(s, 0)
            assert abs(c0[J - 1] - 1) < 1e-13
            assert all(abs(c0[i]) < 1e-13 for i in range(n) if i != J - 1)
            total = sum(ctx.z)
            want = cmath.exp(1j * cmath.pi * total)
            for a_ in range(n):
                if a_ != J - 1:
                    want *= ctx.gamma(1 + ctx.z[a_] - ctx.z[J - 1])
            assert abs(s.prefactor - want) <= 1e-12 * abs(want)
    # contour oracle at rank 2
    ctx = NumericContext((0.0, 0.37))
    Q = LaurentPoly.variable(("X", "Z1", "Z2"), "X")
    got = contour_oracle(Q, 0.1, ctx).to_vector()
    want = psi_Q(Q, ctx, 40).restrictions(0.1)
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))
    assert time.perf_counter() - started < 120.0
    report("criterion 5: residue series solve the joint system", started)


def test_criterion_06_comparison_matrix():
    started = time.perf_counter()
    for n, zs in ((2, (0.0, 0.37)), (3, (0.1, 0.37 + 0.05j, -0.42))):
        ctx = NumericContext(zs)
        for k in (-1, 0, 1):
            rep = b_theorem_check(k, ctx, 40)
            assert rep["deviation"] <= 1e-6, (n, k, rep["deviation"])
    assert time.perf_counter() - started < 60.0
    report("criterion 6: comparison matrix recovered numerically", started)


def test_criterion_07_formal_reduction():
    started = time.perf_counter()
    sol = formal_reduce_exact_rank2(4)
    f1 = sol.coeffs[1]
    vs = f1.vars
    from projqde.ring import reduce_root_of_unity

    s1 = sym_poly("elementary", 1, 2, prefix="z").with_vars(vs)
    s2 = sym_poly("elementary", 2, 2, prefix="z").with_vars(vs)
    d = s1 * 2 + 1
    f11 = s2 - d * d * Fraction(1, 16)
    f12 = LaurentPoly.variable(vs, "W") * d * Fraction(-1, 8)
    for got, want in (
        (f1[0, 0], f11),
        (f1[0, 1], f12),
        (f1[1, 0], f12),
        (f1[1, 1], -f11),
    ):
        assert reduce_root_of_unity(got - want, "W", 4).is_zero()
    assert gauge_substitution_residual_orders(sol, 4) == [True] * 4
    for n in range(2, 6):
        want = qkz_normal_form_expected(n)
        for j in range(1, n + 1):
            assert qkz_normal_form(j, n) == want, (n, j)
    report("criterion 7: formal reduction and diagonal shift normal form", started)


def test_criterion_08_stokes_equals_gram():
    started = time.perf_counter()
    for n in (2, 3, 4):
        for kind in ("Vprime", "Vdprime"):
            for k in range(-2, 3):
                rep = gram_stokes_check(SectorId(kind, k), n)
                assert rep["stokes_is_dual_gram"], (n, kind, k)
                assert rep["stokes_is_gram"], (n, kind, k)
                assert rep["dagger_pair"], (n, kind, k)
                assert rep["char_poly"], (n, kind, k)
    # asymptotic sanity at |s| = 20, rank 2
    n = 2
    ctx = NumericContext((0.0, 0.37))
    basis = stokes_basis(SectorId("Vprime", 0), n)
    rays = {0: -0.05, 1: -0.30}
    for element, tag in zip(basis.elements, basis.eigen_tags):
        weights = QSolution(element.to_laurent(), ctx, 10).weights
        ratio = scaled_element_asymptotic_ratio(
            weights, tag, 20.0, BranchContext(rays[tag]), ctx
        )
        assert abs(ratio - 1) <= 5e-2
    report("criterion 8: Stokes matrices are Gram matrices, n=2..4, |k|<=2", started)


def test_criterion_09_roots_of_unity():
    started = time.perf_counter()
    for n in range(2, 6):
        assert scalar_collapse_residual(n).is_zero()
    for nn in range(9):
        for kk in range(9):
            acc = sum(
                (-1) ** (nn - j) * stirling("second", nn, j) * stirling("first", j, kk)
                for j in range(nn + 1)
            )
            assert acc == (1 if nn == kk else 0)
    for n in (2, 3):
        for kind in ("Vprime", "Vdprime"):
            assert stokes_trivial_at_unity(SectorId(kind, 0), n)
        rep = roots_of_unity_suite(n)
        assert rep["monodromy_order"]
        assert rep["eigenbasis_deviation"] <= 1e-10
    report("criterion 9: degeneration at roots of unity", started)


def test_criterion_10_isomonodromic_bridge():
    started = time.perf_counter()
    for n in range(2, 6):
        assert antisymmetric_v_exact(n)
    for n in (2, 3):
        rep = dubrovin_bridge(n)
        assert rep["residual"] <= 1e-8
    report("criterion 10: bridge to the isomonodromic system", started)
