"""Residue-series solutions: leading terms, differential and difference
residuals, the contour oracle, asymptotics, and the comparison-matrix check."""

import cmath

import numpy as np
import pytest

from projqde.cohomology import NumericContext
from projqde.hypergeom import (
    QSolution,
    SolutionSeries,
    _char_values,
    analytic_comparison_matrix,
    b_theorem_check,
    contour_oracle,
    fundamental_matrix,
    psi_Q,
    psi_power,
    solution_ode_residual,
    solution_qkz_residual,
)
from projqde.ktheory import KClass, exterior_tangent_class, xz_vars
from projqde.qkz import difference_residual
from projqde.qde import topological_series
from projqde.ring import LaurentPoly, sym_poly

from identities import BranchContext, scaled_element_asymptotic_ratio, series_coefficient

CTX2 = NumericContext((0.0, 0.37))
CTX3 = NumericContext((0.1, 0.37 + 0.05j, -0.42))


def test_leading_restrictions():
    n = 2
    for J in (1, 2):
        s = SolutionSeries(J, CTX2, 30)
        c0 = series_coefficient(s, 0)
        # leading coefficient is proportional to the J-th idempotent
        for i in range(n):
            if i == J - 1:
                assert abs(c0[i] - 1) < 1e-14
            else:
                assert abs(c0[i]) < 1e-14
        # closed-form head: e^{i pi sum z} (e^{-i pi n} q)^{z_J} prod Gamma(1 + z_a - z_J)
        total = sum(CTX2.z)
        zj = CTX2.z[J - 1]
        want = cmath.exp(1j * cmath.pi * total)
        for a in range(n):
            if a != J - 1:
                want *= CTX2.gamma(1 + CTX2.z[a] - zj)
        assert abs(s.prefactor - want) < 1e-14 * abs(want)


@pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["n2", "n3"])
def test_ode_and_qkz_residuals(ctx):
    n = ctx.n
    q = 0.2
    for m in (0, 1):
        sol = psi_power(m, ctx, 40)
        assert solution_ode_residual(sol, q) < 1e-8
        Q = LaurentPoly.variable(xz_vars(n), "X", m)
        for i in range(1, n + 1):
            assert solution_qkz_residual(Q, i, q, ctx, 40) < 1e-8


@pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["n2", "n3"])
def test_corrupted_series_coefficient_fails_both_residuals(ctx):
    n, q, order = ctx.n, 0.2, 40
    Q = LaurentPoly.variable(xz_vars(n), "X")

    def solution(at, corrupt):
        sol = QSolution(Q, at, order)
        if corrupt:
            s = sol.series[0]
            s._nums[2] = s._nums[2] * 1.01  # the coefficient of q^(z_1 + 2)
        return sol

    assert solution_ode_residual(solution(ctx, False), q) < 1e-8
    assert solution_ode_residual(solution(ctx, True), q) > 1e-6
    for i in range(1, n + 1):
        good = difference_residual(lambda p, at: solution(at, False).matrix(p), i, q, ctx)
        bad = difference_residual(lambda p, at: solution(at, True).matrix(p), i, q, ctx)
        assert good < 1e-8
        assert bad > 1e-6


def test_fundamental_matrix_invertible():
    f = fundamental_matrix(CTX3, 40)
    y = f(0.2, CTX3)
    assert abs(np.linalg.det(y)) > 1e-12


def test_n_term_relation():
    # sum_i (-1)^{n-i} s_{n-i}(aZ) Psi^{k+i} = 0
    n = 3
    az = [cmath.exp(2j * cmath.pi * w) for w in CTX3.z]
    q = 0.2
    for k in (-1, 0, 1):
        acc = np.zeros(n, dtype=complex)
        scale = 0.0
        for i in range(n + 1):
            vals = {f"Z{a + 1}": az[a] for a in range(n)}
            s = sym_poly("elementary", n - i, n).eval(vals)
            term = (-1) ** (n - i) * s * psi_power(k + i, CTX3, 45).restrictions(q)
            acc += term
            scale = max(scale, float(np.max(np.abs(term))))
        assert float(np.max(np.abs(acc))) < 1e-10 * scale, k


def test_psi_of_tangent_class_matches_combination():
    # the solution attached to an exterior tangent power equals the alternating
    # combination of plain power solutions
    n, q = 3, 0.15
    h, m = 2, 1
    cls = exterior_tangent_class(h, m, n)
    sol = QSolution(cls.to_laurent(), CTX3, 40)
    acc = np.zeros(n, dtype=complex)
    az = [cmath.exp(2j * cmath.pi * w) for w in CTX3.z]
    for j in range(h + 1):
        vals = {f"Z{a + 1}": az[a] for a in range(n)}
        s = sym_poly("elementary", j, n).eval(vals)
        acc += (-1) ** (h - j) * s * psi_power(m - j, CTX3, 40).restrictions(q)
    got = sol.restrictions(q)
    assert np.allclose(got, acc, rtol=1e-12)


def test_contour_oracle_agreement():
    n = 2
    Q = LaurentPoly.variable(xz_vars(n), "X", 1)
    ctx = NumericContext((0.0, 0.37))
    got = contour_oracle(Q, 0.1, ctx).to_vector()
    want = psi_Q(Q, ctx, 40).restrictions(0.1)
    assert np.max(np.abs(got - want)) < 1e-6 * np.max(np.abs(want))


def test_contour_oracle_independent_of_apex():
    n = 2
    Q = LaurentPoly.one(xz_vars(n))
    vals = [
        contour_oracle(Q, 0.1, CTX2, p=p).to_vector() for p in (-1.0, -1.8, -2.5)
    ]
    for v in vals[1:]:
        assert np.allclose(v, vals[0], rtol=1e-8)


def test_contour_oracle_monomial_normalization():
    n = 2
    x = LaurentPoly.variable(xz_vars(n), "X")
    one = LaurentPoly.one(xz_vars(n))
    a = contour_oracle(x, 0.1, CTX2).to_vector()
    b = contour_oracle(x * one, 0.1, CTX2).to_vector()
    assert np.allclose(a, b, rtol=1e-12)


def asymptotic_ratio(m: int, r: float, branch: BranchContext, ctx: NumericContext) -> complex:
    """Ratio of the X^m solution (weights Z_J^m on the residue series) to its
    predicted leading behaviour, the scaled-element ratio with tag m;
    approaches 1 for phi inside (m/n - 1, m/n)."""
    n = ctx.n
    if not (m / n - 1 < branch.phi < m / n):
        raise ValueError("phi outside the admissible window for this exponent")
    return scaled_element_asymptotic_ratio([w**m for w in _char_values(ctx)], m, r, branch, ctx)


def test_asymptotic_ratio_rank2():
    for m in (0, 1):
        br = BranchContext(phi=m / 2 - 0.05)
        ratio = asymptotic_ratio(m, 15, br, CTX2)
        assert abs(ratio - 1) <= 0.05


def _x_power_ratio_reference(m, r, branch, ctx):
    """Reference: the X^m solution over its leading term written as
    e^{i pi sum z} (e^{-i pi} zeta^m s)^{sum z + (n-1)/2} ..., a second form of
    the prediction `scaled_element_asymptotic_ratio` writes with
    e^{-i pi (n-1)/2} (zeta^m s)^{sum z + (n-1)/2}."""
    n = ctx.n
    q, lq = branch.q_value(r, n), branch.log_q(r, n)
    got = psi_power(m, ctx, max(60, int(4 * n * abs(q) ** (1 / n)) + 40)).restrictions(q, lq)[0]
    lam = sum(ctx.z) + (n - 1) / 2
    arg = 2 * cmath.pi * m / n - cmath.pi - 2 * cmath.pi * branch.phi
    predicted = (
        (2 * cmath.pi) ** ((n - 1) / 2)
        / n**0.5
        * cmath.exp(1j * cmath.pi * sum(ctx.z))
        * cmath.exp(lam * (cmath.log(r) + 1j * arg))
        * cmath.exp(n * branch.s_value(r) * cmath.exp(2j * cmath.pi * m / n))
    )
    return got / predicted


@pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["n2", "n3"])
def test_asymptotic_ratio_is_the_scaled_ratio_of_x_powers(ctx):
    n = ctx.n
    for m in range(n):
        br = BranchContext(phi=m / n - 0.05)
        weights = [cmath.exp(2j * cmath.pi * w) ** m for w in ctx.z]
        got = asymptotic_ratio(m, 12.0, br, ctx)
        assert got == scaled_element_asymptotic_ratio(weights, m, 12.0, br, ctx)
        want = _x_power_ratio_reference(m, 12.0, br, ctx)
        assert abs(got - want) <= 1e-10 * abs(want)
        # the weights are those of the solution attached to X^m
        assert np.allclose(psi_power(m, ctx, 10).weights, weights, rtol=1e-14)
        for phi in (m / n, m / n - 1, m / n + 0.2):
            with pytest.raises(ValueError):
                asymptotic_ratio(m, 12.0, BranchContext(phi=phi), ctx)


def test_asymptotic_ratio_window_guard_and_drift():
    with pytest.raises(ValueError):
        asymptotic_ratio(0, 15, BranchContext(phi=0.3), CTX2)
    # a wrong growth tag leaves the ratio far from 1
    weights = [1.0, 1.0]  # crude element, correct tag would be 0 near phi=-0.05
    r_ok = scaled_element_asymptotic_ratio(weights, 0, 15.0, BranchContext(-0.05), CTX2)
    r_bad = scaled_element_asymptotic_ratio(weights, 1, 15.0, BranchContext(-0.05), CTX2)
    assert abs(abs(r_ok) - 1) < 0.2
    assert not abs(r_bad - 1) < 0.5


@pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["n2", "n3"])
def test_b_theorem(ctx):
    for k in (-1, 0, 1):
        rep = b_theorem_check(k, ctx, 40)
        assert rep["deviation"] <= 1e-6, (ctx.n, k, rep["deviation"])
        assert rep["sample_spread"] <= 1e-8


def test_b_theorem_matrix_not_periodic():
    ctx = CTX2
    shifted = NumericContext((ctx.z[0] + 1, ctx.z[1]))
    m0 = b_theorem_check(0, ctx, 40)["matrix"]
    m1 = b_theorem_check(0, shifted, 40)["matrix"]
    assert np.linalg.norm(m0 - m1) > 1e-3


def test_b_theorem_k_shift_relation():
    # the analytic matrices at consecutive k differ by the diagonal character
    # matrix acting through the fixed-point basis
    ctx = CTX3
    n = ctx.n
    az = np.array([cmath.exp(2j * cmath.pi * w) for w in ctx.z])
    from projqde.cohomology import vandermonde

    d, dinv = vandermonde(n, ctx.z)
    m0 = analytic_comparison_matrix(0, ctx)
    m1 = analytic_comparison_matrix(1, ctx)
    assert np.allclose(m1, dinv @ np.diag(az) @ d @ m0, rtol=1e-10)


def _sum_reference(series, q, extra_power):
    """The per-term loop `SolutionSeries._sum` replaced: numpy scalars and a
    row peak taken at every term, the same terms and cut-off; also the
    number of terms summed."""
    out = np.zeros(series.n, dtype=complex)
    v = series._c0
    peak = 0.0
    for r in range(series.order + 1):
        if r > 0:
            v = v * (series._sign * q) / series._divs[r - 1]
        w = v if extra_power == 0 else v * (series.exponent + r)
        out += w * series._nums[r]
        mag = abs(v) * float(np.max(np.abs(series._nums[r])))
        peak = max(peak, mag)
        if r > 8 and mag < 1e-22 * peak:
            break
    return out, r + 1


@pytest.mark.parametrize(
    "z", [(0.1, 0.4), (0.144572, 0.372918, 0.615971), (0.1, 0.37 + 0.05j, -0.42, 0.7)], ids=["n2", "n3", "n4"]
)
def test_series_sum_matches_the_termwise_loop(z):
    ctx = NumericContext(z)
    qs = (0.3, 0.2 + 0.1j, -5.0, 1e3, 1e4 * cmath.exp(0.3j))
    cut = set()
    for J in range(1, len(z) + 1):
        for order in (40, 400):
            series = SolutionSeries(J, ctx, order)
            for q in qs:
                for extra in (0, 1):
                    want, terms = _sum_reference(series, q, extra)
                    got = series._sum(q, extra)
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                    if terms <= order:
                        cut.add(q)
    # the cut-off fires at order 400, at the large |q| too
    assert set(qs) <= cut
