"""Matrix qDE: system matrices, Levelt and topological solutions, residuals,
and the scalar equation."""

import cmath
import random
from fractions import Fraction

import numpy as np
import pytest
from sympy import symbols

from projqde.cohomology import cohom_vars, vandermonde
from projqde.qde import (
    a_series_coefficients,
    coefficient_matrix,
    levelt_coefficients,
    levelt_series,
    ode_residual,
    series_converged,
    system_matrices,
    topological_series,
)
from projqde.ring import LaurentMatrix, LaurentPoly

from identities import ScalarSeries, parameter_variables, scalar_qde_residual, vanishes_identically

Z3 = (0.1, 0.37 + 0.05j, -0.42)
Z2 = (0.0, 0.37)


def test_system_matrices_rank2():
    a0, a1 = system_matrices(2, (0.3, 0.7))
    assert np.allclose(a0, [[0, 1], [0, 0]])
    assert np.allclose(a1, [[0, -0.21], [1, 1.0]])


def test_a1_eigenvalues_and_diagonalization():
    n = 3
    a0, a1 = system_matrices(n, Z3)
    ev = sorted(np.linalg.eigvals(a1), key=lambda w: (w.real, w.imag))
    want = sorted(Z3, key=lambda w: (complex(w).real, complex(w).imag))
    assert np.allclose(ev, want, atol=1e-10)
    d, dinv = vandermonde(n, Z3)
    assert np.allclose(d @ a1 @ dinv, np.diag(np.array(Z3, dtype=complex)), atol=1e-10)


def test_a1_char_poly_symbolic():
    n = 3
    _, a1 = system_matrices(n, parameter_variables(n))
    vs = ("LAM",) + cohom_vars(n)
    lam = LaurentPoly.variable(vs, "LAM")
    lifted = a1.map(lambda p: p.with_vars(vs))
    lam_eye = LaurentMatrix.identity(n, vs).map(lambda p: p * lam)
    char = (lam_eye - lifted).det()
    want = LaurentPoly.one(vs)
    for i in range(1, n + 1):
        want = want * (lam - LaurentPoly.variable(vs, f"z{i}"))
    assert char == want


def test_levelt_recursion_exact_substitution():
    # entrywise recursion check against the defining relation, rank 3, exact z
    n = 3
    z = (Fraction(0), Fraction(1, 3), Fraction(5, 7))
    _, dinv = vandermonde(n, z)
    m = [[dinv[n - 1, j] for j in range(n)] for _ in range(n)]
    gs = levelt_coefficients(n, z, 6)
    for k in range(6):
        gk, gk1 = gs[k], gs[k + 1]
        for i in range(n):
            for j in range(n):
                mg = sum(m[i][l] * gk[l][j] for l in range(n))
                # [Z, G_{k+1}] - (k+1) G_{k+1} + M G_k = 0
                assert (z[i] - z[j]) * gk1[i][j] - (k + 1) * gk1[i][j] + mg == 0


def test_levelt_g0_is_identity():
    sol = levelt_series(2, Z2, 5)
    assert np.allclose(sol.coeffs[0], np.eye(2))


def levelt_monodromy(sol) -> np.ndarray:
    """Matrix of the q = 0 monodromy operator wrt a Levelt solution."""
    return np.diag(np.exp(2j * np.pi * sol.zc))


def test_levelt_monodromy():
    n, order = 3, 40
    sol = levelt_series(n, Z3, order)
    q = 0.2
    lq = cmath.log(q)
    y0 = sol.matrix(q, lq)
    y1 = sol.matrix(q, lq + 2j * cmath.pi)
    assert np.allclose(y1, y0 @ levelt_monodromy(sol), atol=1e-10)


@pytest.mark.parametrize("z,n", [(Z2, 2), (Z3, 3)])
def test_ode_residual_levelt_and_topological(z, n):
    order = 30
    lev = levelt_series(n, z, order)
    top = topological_series(n, z, order)
    for q in (0.3, 0.3j, -0.25):
        assert ode_residual(lev, q, n, z) < 1e-10
        assert ode_residual(top, q, n, z) < 1e-10


def test_topological_equals_levelt_times_vandermonde():
    rng = random.Random(3)
    for n, z in ((2, Z2), (3, Z3)):
        top = topological_series(n, z, 35)
        lev = levelt_series(n, z, 35)
        for _ in range(3):
            q = 0.3 * cmath.exp(2j * cmath.pi * rng.random())
            lhs = top.matrix(q)
            rhs = lev.matrix(q) @ lev.d
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)


def _topological_derivative_loop(top, q, lq):
    """Reference: d/dq of each theta power of the a_j, summed term by term."""
    n = top.n
    out = np.zeros((n, n), dtype=complex)
    ds = np.arange(top.order + 1)
    for j in range(n):
        expo = top.zc[j] + ds
        vals = top.a_coeffs[j] * np.exp(expo * lq) * expo / q
        for h in range(n):
            out[h, j] = np.sum(vals)
            vals = vals * expo
    return top.eta_inv @ (out @ top.dinv.T) @ top.eta


@pytest.mark.parametrize(
    "z", [Z2, Z3, (0.1, 0.37, 0.71, 0.23), (0.0, 0.2, 0.4, 7 / 9)], ids=["n2", "n3", "n4", "n4b"]
)
def test_topological_derivative_matches_termwise_loop(z):
    n = len(z)
    top = topological_series(n, z, 40)
    for q in (0.3, 0.3j, -0.25, 0.1 + 0.2j):
        for lq in (cmath.log(q), cmath.log(q) + 2j * cmath.pi):
            got = top.derivative(q, lq)
            want = _topological_derivative_loop(top, q, lq)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_topological_leading_form():
    # Y_top = Phi(q) q^{A1} with Phi(q) = 1 + q D^{-1} G_1 D + O(q^2)
    n = 3
    top = topological_series(n, Z3, 40)
    q = 1e-4
    d, dinv = vandermonde(n, Z3)
    qa1 = dinv @ np.diag(np.exp(np.array(Z3, dtype=complex) * cmath.log(q))) @ d
    phi = top.matrix(q) @ np.linalg.inv(qa1)
    phi1 = dinv @ levelt_series(n, Z3, 40).coeffs[1] @ d
    assert np.allclose(phi, np.eye(n) + q * phi1, atol=1e-7)


def test_a_series_first_coefficient():
    n = 3
    for j in (1, 2, 3):
        c = a_series_coefficients(n, Z3, 2, j)
        want = 1.0
        for i in range(n):
            want /= Z3[j - 1] - Z3[i] + 1
        assert abs(c[1] - want) < 1e-14


@pytest.mark.parametrize("n", [10, 11])
def test_levelt_residual_at_high_rank(n):
    """verify-all's z, where D^{-1} taken over complex z fails its self-check:
    the exact D^{-1}, rounded once, keeps the residual small."""
    z = tuple(Fraction(2 * m + (1 if m % 2 else 0), 2 * n + 1) for m in range(n))
    sol = levelt_series(n, z, 25)
    assert ode_residual(sol, 0.3, n, [complex(w) for w in z]) < 1e-6


def _agree(got, exact, rel):
    """got within rel of exact, relative to the largest entry of each exact
    coefficient; a coefficient whose exact size is below the normal doubles
    underflows, in the rounding of the exact value as in the float recursion."""
    for g, e in zip(got, exact):
        g, e = np.asarray(g, dtype=complex), np.asarray(e, dtype=complex)
        size = np.max(np.abs(e))
        if size < 1e-290:
            assert np.max(np.abs(g)) < 1e-290
        else:
            assert np.max(np.abs(g - e)) <= rel * size


@pytest.mark.parametrize("n", range(2, 11))
def test_complex_recursions_match_exact(n):
    """The evaluators run the Levelt and a_j recursions over complex z: with
    products and quotients only, they agree with the exact ones, rounded."""
    z = tuple(Fraction(2 * m + (1 if m % 2 else 0), 2 * n + 1) for m in range(n))
    zc = [complex(w) for w in z]
    _agree(levelt_coefficients(n, zc, 40), levelt_coefficients(n, z, 40), 1e-13)
    for j in range(1, n + 1):
        _agree(a_series_coefficients(n, zc, 40, j), a_series_coefficients(n, z, 40, j), 1e-13)
    lev = levelt_series(n, z, 40)
    _agree(lev.coeffs, levelt_coefficients(n, z, 40), 1e-13)


def test_series_convergence_at_the_cutoff():
    # at order 40 the terms of both series still grow at q = 1e3, at n = 2
    n, z = 2, (0.1, 0.4)
    for make in (levelt_series, topological_series):
        assert make(n, z, 40).converged(0.3)
        assert not make(n, z, 40).converged(1e3)
        assert make(n, z, 120).converged(1e3)


def test_series_convergence_passes_over_an_underflowed_tail():
    # sizes from the highest order down: the rule reads the last two nonzero
    assert series_converged(10.0, [0.0, 0.0, 1e-5, 1e-3, 1.0])
    assert not series_converged(10.0, [0.0, 0.0, 1e-3, 1e-3, 1.0])
    assert series_converged(10.0, [0.0, 0.0, 1.0])
    # at n = 10 and q = 1e15 both series underflow to 0 by order 40 while their
    # last nonzero terms still grow; at q = 1e13 they converge
    n = 10
    z = [(2 * m + 1) / 20 for m in range(n)]
    for make in (levelt_series, topological_series):
        sol = make(n, z, 40)
        assert sol.converged(1e13)
        assert not sol.converged(1e15)


def test_corrupted_series_fails_residual():
    n, z, order = 2, Z2, 25
    sol = levelt_series(n, z, order)
    sol.coeffs[3] = sol.coeffs[3] + 0.01
    assert ode_residual(sol, 0.3, n, z) > 1e-6


def _a_series_symbolic(n: int, j: int, order: int) -> ScalarSeries:
    """The scalar series a_j with coefficients rational in the symbols z1..zn."""
    z = symbols(cohom_vars(n))
    return ScalarSeries(z[j - 1], a_series_coefficients(n, z, order, j), order)


def test_scalar_qde_symbolic_rank2():
    n, order = 2, 6
    z = symbols(cohom_vars(n))
    phi = _a_series_symbolic(n, 1, order)
    # the last coefficient is truncation garbage (the q*phi shift), so drop it
    assert all(vanishes_identically(c) for c in scalar_qde_residual(phi, n, z).coeffs[:-1])
    # negative control: one coefficient changed
    bad = ScalarSeries(phi.expo, phi.coeffs[:3] + [2 * phi.coeffs[3]] + phi.coeffs[4:], order)
    assert not all(vanishes_identically(c) for c in scalar_qde_residual(bad, n, z).coeffs[:-1])


def test_scalar_qde_numeric_rank3():
    n, order = 3, 25
    from projqde.qde import a_series_coefficients

    for j in (1, 2, 3):
        coeffs = a_series_coefficients(n, Z3, order, j)
        phi = ScalarSeries(complex(Z3[j - 1]), [complex(c) for c in coeffs], order)
        res = scalar_qde_residual(phi, n, [complex(w) for w in Z3])
        assert all(abs(c) < 1e-12 for c in res.coeffs[:-1])


def test_scalar_qde_zero_parameters_reduce():
    # at z = 0 the operator is theta^n - q: check on the explicit solution
    # sum q^d / (d!)^n
    n, order = 3, 20
    coeffs = [1.0]
    for d in range(1, order + 1):
        coeffs.append(coeffs[-1] / d**n)
    phi = ScalarSeries(0.0, coeffs, order)
    res = scalar_qde_residual(phi, n, [0.0] * n)
    assert all(abs(c) < 1e-14 for c in res.coeffs[:-1])


def test_scalar_qde_negative_control():
    n, order = 2, 6
    phi = ScalarSeries(0.0, [1.0] + [0.0] * order, order)
    res = scalar_qde_residual(phi, n, [complex(w) for w in Z2])
    assert not res.is_zero(tol=1e-10)
