"""R-matrices, the qKZ shift operators in the nested-product (g) basis and the
x-power basis, and residual checks for candidate solutions of the difference
equations that shift the equivariant parameters by -1.

Symbolic matrices live over Laurent polynomials in (q, z1..zn), so the
Yang-Baxter, inversion, and compatibility identities are verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cohomology import NumericContext, cohom_vars, g_basis_matrix, vandermonde
from .ring import LaurentMatrix, LaurentPoly
from .qde import system_matrices


def qkz_vars(n: int) -> tuple[str, ...]:
    return ("q",) + cohom_vars(n)


def _zvar(n: int, i: int) -> LaurentPoly:
    return LaurentPoly.variable(qkz_vars(n), f"z{i}")


def shift_poly(p: LaurentPoly, name: str, delta: int) -> LaurentPoly:
    """Substitute name -> name + delta (nonnegative exponents only)."""
    i = p.vars.index(name)
    out = LaurentPoly.zero(p.vars)
    base = LaurentPoly.variable(p.vars, name) + LaurentPoly.constant(p.vars, delta)
    for k, coeff in p.as_series(name).items():
        if k < 0:
            raise ValueError(f"cannot shift negative power of {name}")
        out = out + coeff.with_vars(p.vars) * base**k
    return out


def shift_matrix(m: LaurentMatrix, name: str, delta: int) -> LaurentMatrix:
    return m.map(lambda p: shift_poly(p, name, delta))


def formal_derivative(p: LaurentPoly, name: str) -> LaurentPoly:
    i = p.vars.index(name)
    terms = {}
    for e, c in p.terms.items():
        k = e[i]
        if k == 0:
            continue
        ne = list(e)
        ne[i] = k - 1
        terms[tuple(ne)] = c * k
    return LaurentPoly(p.vars, terms)


# -- R-matrices -------------------------------------------------------------------------


def r_matrix(a: int, b: int, u, n: int, vars: Sequence[str] | None = None):
    """R_{ab}(u) in the g-basis: identity outside slots a, b; sends g_b to g_a
    and g_a to g_b + u g_a.  Symbolic when u is a LaurentPoly, numeric for
    complex u."""
    if a == b:
        raise ValueError("R-matrix needs distinct slots")
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError("slot out of range")
    if isinstance(u, LaurentPoly):
        vs = u.vars if vars is None else tuple(vars)
        m = [
            [LaurentPoly.one(vs) if i == j else LaurentPoly.zero(vs) for j in range(n)]
            for i in range(n)
        ]
        m[a - 1][a - 1] = u.with_vars(vs)
        m[b - 1][a - 1] = LaurentPoly.one(vs)
        m[a - 1][b - 1] = LaurentPoly.one(vs)
        m[b - 1][b - 1] = LaurentPoly.zero(vs)
        return LaurentMatrix(m)
    m = np.eye(n, dtype=complex)
    m[a - 1, a - 1] = u
    m[b - 1, a - 1] = 1.0
    m[a - 1, b - 1] = 1.0
    m[b - 1, b - 1] = 0.0
    return m


# -- qKZ operators ----------------------------------------------------------------------


def qkz_operator_symbolic(i: int, n: int, basis: str = "g") -> LaurentMatrix:
    """The i-th shift operator as a symbolic matrix over (q, z1..zn).

    In the g-basis this is the R-matrix product with one q^{-1} slot; the
    x-basis version conjugates by the g-to-x base change, with the shifted
    base change on the left because the shift identifies g-coordinates at
    different parameter points."""
    vs = qkz_vars(n)
    if not 1 <= i <= n:
        raise ValueError("operator index out of range")
    acc = LaurentMatrix.identity(n, vs)
    for j in range(i - 1, 0, -1):
        acc = acc * r_matrix(i, j, _zvar(n, i) - _zvar(n, j) - 1, n, vs)
    qinv = LaurentMatrix.identity(n, vs).entries
    qinv = [list(row) for row in qinv]
    qinv[i - 1][i - 1] = LaurentPoly.variable(vs, "q", -1)
    acc = acc * LaurentMatrix(qinv)
    for j in range(n, i, -1):
        acc = acc * r_matrix(i, j, _zvar(n, i) - _zvar(n, j), n, vs)
    if basis == "g":
        return acc
    if basis != "x":
        raise ValueError("basis must be 'g' or 'x'")
    g2x = g_basis_matrix(n).map(lambda p: p.with_vars(vs))
    g2x_shift = shift_matrix(g2x, f"z{i}", -1)
    return g2x_shift * acc * g2x.inverse()


def qkz_inverse_product_symbolic(i: int, n: int) -> LaurentMatrix:
    """R-matrix product form of the inverse shift operator taken at z_i + 1:
    R_{i+1,i}(z_{i+1}-z_i-1)..R_{n,i}(z_n-z_i-1) q^{E_i} R_{1,i}(z_1-z_i)..R_{i-1,i}(z_{i-1}-z_i)."""
    vs = qkz_vars(n)
    acc = LaurentMatrix.identity(n, vs)
    for j in range(i + 1, n + 1):
        acc = acc * r_matrix(j, i, _zvar(n, j) - _zvar(n, i) - 1, n, vs)
    qmat = [list(row) for row in LaurentMatrix.identity(n, vs).entries]
    qmat[i - 1][i - 1] = LaurentPoly.variable(vs, "q")
    acc = acc * LaurentMatrix(qmat)
    for j in range(1, i):
        acc = acc * r_matrix(j, i, _zvar(n, j) - _zvar(n, i), n, vs)
    return acc


@dataclass(frozen=True)
class QkzOperator:
    """A shift operator pinned to a basis; products refuse mixed bases."""

    i: int
    basis: str
    matrix: object

    def __matmul__(self, other: "QkzOperator") -> "QkzOperator":
        if self.basis != other.basis:
            raise ValueError("refusing to multiply operators in different bases")
        return QkzOperator(self.i, self.basis, _matmul(self.matrix, other.matrix))


def _matmul(a, b):
    if isinstance(a, LaurentMatrix):
        return a * b
    return a @ b


def qkz_operator(i: int, q: complex, z: Sequence[complex], basis: str = "x") -> np.ndarray:
    """Numeric shift-operator matrix at (q, z)."""
    n = len(z)
    if not 1 <= i <= n:
        raise ValueError("operator index out of range")
    z = [complex(w) for w in z]
    acc = np.eye(n, dtype=complex)
    for j in range(i - 1, 0, -1):
        acc = acc @ r_matrix(i, j, z[i - 1] - z[j - 1] - 1, n)
    qmat = np.eye(n, dtype=complex)
    qmat[i - 1, i - 1] = 1.0 / q
    acc = acc @ qmat
    for j in range(n, i, -1):
        acc = acc @ r_matrix(i, j, z[i - 1] - z[j - 1], n)
    if basis == "g":
        return acc
    if basis != "x":
        raise ValueError("basis must be 'g' or 'x'")
    g2x = g_basis_matrix(n, z)
    zshift = list(z)
    zshift[i - 1] -= 1
    g2x_shift = g_basis_matrix(n, zshift)
    return g2x_shift @ acc @ np.linalg.inv(g2x)


def difference_residual(
    solution: Callable[[complex, NumericContext], np.ndarray],
    i: int,
    q: complex,
    ctx: NumericContext,
) -> float:
    """Relative residual of Y(q, z - e_i) = K_i(q, z) Y(q, z) in the x-basis
    trivialization; the callable evaluates the candidate at arbitrary z."""
    shifted = ctx.shift(i)
    lhs = solution(q, shifted)
    rhs = qkz_operator(i, q, ctx.z, basis="x") @ solution(q, ctx)
    return float(np.linalg.norm(lhs - rhs, 2) / np.linalg.norm(lhs, 2))


# -- compatibility of the joint system ----------------------------------------------------


def qde_compat_residual(i: int, n: int) -> LaurentMatrix:
    """d/dq K_i(q,z) - [A(q, z - e_i) K_i(q,z) - K_i(q,z) A(q,z)], symbolically;
    zero iff the shift operator is compatible with the differential equation."""
    vs = qkz_vars(n)
    k = qkz_operator_symbolic(i, n, basis="x")
    a0, a1 = system_matrices(n)
    qinv = LaurentPoly.variable(vs, "q", -1)
    a = a0.map(lambda p: p.with_vars(vs)) + a1.map(lambda p: p.with_vars(vs) * qinv)
    a_shift = shift_matrix(a, f"z{i}", -1)
    dk = k.map(lambda p: formal_derivative(p, "q"))
    return dk - (a_shift * k - k * a)


def qkz_compat_residual(i: int, j: int, n: int) -> LaurentMatrix:
    """K_i(q, z - e_j) K_j(q, z) - K_j(q, z - e_i) K_i(q, z), symbolically."""
    ki = qkz_operator_symbolic(i, n, basis="x")
    kj = qkz_operator_symbolic(j, n, basis="x")
    return shift_matrix(ki, f"z{j}", -1) * kj - shift_matrix(kj, f"z{i}", -1) * ki
