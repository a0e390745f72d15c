"""R-matrix algebra and qKZ shift operators: Yang-Baxter, inversion, the
closed-form rank-2 shift matrix, and exact compatibility of the joint system."""

import numpy as np
import pytest

from projqde.cohomology import NumericContext
from projqde.qde import levelt_series
from projqde.qkz import (
    difference_residual,
    formal_derivative,
    qde_compat_residual,
    qkz_compat_residual,
    qkz_inverse_product_symbolic,
    qkz_operator,
    qkz_operator_symbolic,
    qkz_vars,
    r_matrix,
    shift_matrix,
    shift_poly,
)
from projqde.ring import LaurentMatrix, LaurentPoly


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
