"""R-matrix algebra and qKZ shift operators: Yang-Baxter, inversion, the
closed-form rank-2 shift matrix, and exact compatibility of the joint system."""

from functools import reduce
from operator import matmul

import numpy as np
import pytest

from projqde.cohomology import NumericContext
from projqde.qde import levelt_series, system_matrices
from projqde.qkz import _slot_matrix, difference_residual, qkz_operator, r_matrix
from projqde.ring import LaurentMatrix, LaurentPoly

from identities import qkz_operator_symbolic, qkz_variables, qkz_vars


def shift_poly(p: LaurentPoly, name: str, delta: int) -> LaurentPoly:
    """Substitute name -> name + delta (nonnegative exponents only)."""
    base = LaurentPoly.variable(p.vars, name) + LaurentPoly.constant(p.vars, delta)
    series = p.as_series(name)
    if any(k < 0 for k in series):
        raise ValueError(f"cannot shift negative power of {name}")
    return LaurentPoly.sum_of_products(p.vars, ((c.with_vars(p.vars), base**k) for k, c in series.items()))


def shift_matrix(m: LaurentMatrix, name: str, delta: int) -> LaurentMatrix:
    return m.map(lambda p: shift_poly(p, name, delta))


def formal_derivative(p: LaurentPoly, name: str) -> LaurentPoly:
    i = p.vars.index(name)
    return LaurentPoly(p.vars, ((e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]) for e, c in p.terms.items()))


def qkz_inverse_product_symbolic(i: int, n: int) -> LaurentMatrix:
    """R-matrix product form of the inverse shift operator taken at z_i + 1:
    R_{i+1,i}(z_{i+1}-z_i-1)..R_{n,i}(z_n-z_i-1) q^{E_i} R_{1,i}(z_1-z_i)..R_{i-1,i}(z_{i-1}-z_i)."""
    q, *z = qkz_variables(n)
    factors = [r_matrix(j, i, z[j - 1] - z[i - 1] - 1, n) for j in range(i + 1, n + 1)]
    factors.append(_slot_matrix(i, n, q))
    factors += [r_matrix(j, i, z[j - 1] - z[i - 1], n) for j in range(1, i)]
    return reduce(matmul, factors)


def qde_compat_residual(i: int, n: int) -> LaurentMatrix:
    """d/dq K_i(q,z) - [A(q, z - e_i) K_i(q,z) - K_i(q,z) A(q,z)], symbolically;
    zero iff the shift operator is compatible with the differential equation."""
    q, *z = qkz_variables(n)
    k = qkz_operator(i, q, z, basis="x")
    a0, a1 = system_matrices(n, z)
    a = a0 + a1 * q**-1
    a_shift = shift_matrix(a, f"z{i}", -1)
    dk = k.map(lambda p: formal_derivative(p, "q"))
    return dk - (a_shift * k - k * a)


def qkz_compat_residual(i: int, j: int, n: int) -> LaurentMatrix:
    """K_i(q, z - e_j) K_j(q, z) - K_j(q, z - e_i) K_i(q, z), symbolically."""
    ki = qkz_operator_symbolic(i, n, basis="x")
    kj = qkz_operator_symbolic(j, n, basis="x")
    return shift_matrix(ki, f"z{j}", -1) * kj - shift_matrix(kj, f"z{i}", -1) * ki


def uvars(n):
    return ("u", "v") + qkz_vars(n)


def test_r_matrix_inversion_symbolic():
    n = 3
    vs = uvars(n)
    u = LaurentPoly.variable(vs, "u")
    for a, b in ((1, 2), (1, 3), (2, 3)):
        prod = r_matrix(a, b, u, n) * r_matrix(b, a, -u, n)
        assert prod == LaurentMatrix.identity(n, vs), (a, b)


def test_yang_baxter_symbolic():
    n = 3
    vs = uvars(n)
    u = LaurentPoly.variable(vs, "u")
    v = LaurentPoly.variable(vs, "v")
    a, b, c = 1, 2, 3
    lhs = r_matrix(a, b, u - v, n) * r_matrix(a, c, u, n) * r_matrix(b, c, v, n)
    rhs = r_matrix(b, c, v, n) * r_matrix(a, c, u, n) * r_matrix(a, b, u - v, n)
    assert lhs == rhs


def test_r_matrix_at_zero_swaps():
    n = 3
    m = r_matrix(1, 2, 0.0, n)
    want = np.eye(n)[:, [1, 0, 2]]
    assert np.allclose(m, want)


def test_r_matrix_rejects_equal_slots():
    with pytest.raises(ValueError):
        r_matrix(2, 2, 0.1, 3)


def test_qkz_rank2_closed_form():
    # x-basis shift matrix for i=1:  (1/q) [[-z2, q - z1 z2], [1, z1]]
    z = (0.3, -0.45)
    q = 0.7 + 0.2j
    got = qkz_operator(1, q, z, basis="x")
    want = np.array([[-z[1], q - z[0] * z[1]], [1.0, z[0]]], dtype=complex) / q
    assert np.allclose(got, want, atol=1e-13)

    sym = qkz_operator_symbolic(1, 2, basis="x")
    vals = {"q": q, "z1": z[0], "z2": z[1]}
    got_sym = np.array([[sym[i, j].eval(vals) for j in range(2)] for i in range(2)])
    assert np.allclose(got_sym, want, atol=1e-13)


def test_q_power_slot_in_g_basis():
    n = 3
    sym = qkz_operator_symbolic(2, n, basis="g")
    # the only q-dependence is a single q^{-1} through slot 2
    degs = {sym[i, j].valuation("q") for i in range(n) for j in range(n)} - {None}
    assert degs <= {-1, 0}


def test_inverse_shift_product_form():
    # K_i(q, z_i + 1)^{-1} as an R-matrix product: the composition with
    # K_i(q, z_i + 1) is the identity, symbolically
    for n in (2, 3):
        for i in range(1, n + 1):
            k = qkz_operator_symbolic(i, n, basis="g")
            k_up = shift_matrix(k, f"z{i}", +1)
            prod = k_up * qkz_inverse_product_symbolic(i, n)
            assert prod == LaurentMatrix.identity(n, qkz_vars(n)), (n, i)


@pytest.mark.parametrize("n", [2, 3])
def test_qde_compatibility_exact(n):
    for i in range(1, n + 1):
        res = qde_compat_residual(i, n)
        assert all(
            res[a, b].is_zero() for a in range(n) for b in range(n)
        ), (n, i)


@pytest.mark.parametrize("n", [2, 3])
def test_qkz_compatibility_exact(n):
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            res = qkz_compat_residual(i, j, n)
            assert all(res[a, b].is_zero() for a in range(n) for b in range(n)), (i, j)


def test_levelt_does_not_solve_qkz():
    n = 2
    ctx = NumericContext((0.0, 0.37))

    def lev(q, c):
        return levelt_series(n, c.z, 30).matrix(q)

    res = difference_residual(lev, 1, 0.2, ctx)
    assert res > 1e-3


def test_shift_poly_and_derivative():
    vs = qkz_vars(2)
    z1 = LaurentPoly.variable(vs, "z1")
    q = LaurentPoly.variable(vs, "q")
    p = z1 * z1 + q * z1
    assert shift_poly(p, "z1", -1) == (z1 - 1) * (z1 - 1) + q * (z1 - 1)
    assert formal_derivative(p + q**-1, "q") == z1 - q**-2
