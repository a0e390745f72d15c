"""R-matrices, the qKZ shift operators in the nested-product (g) basis and the
x-power basis, and residual checks for candidate solutions of the difference
equations that shift the equivariant parameters by -1.

The R-matrices and shift operators are written once, over the scalar field of
(q, z) (see `cohomology`).  At the variables (q, z1..zn) they are matrices
over Laurent polynomials, where `tests/test_qkz.py` verifies the Yang-Baxter,
inversion and compatibility identities exactly.
"""

from __future__ import annotations

from functools import reduce
from operator import matmul
from typing import Callable, Sequence

import numpy as np

from .cohomology import NumericContext, as_matrix, g_basis_inverse, g_basis_matrix, over_field


# -- R-matrices -------------------------------------------------------------------------


def r_matrix(a: int, b: int, u, n: int):
    """R_{ab}(u) in the g-basis, over the field of u: identity outside slots
    a, b; sends g_b to g_a and g_a to g_b + u g_a."""
    if a == b:
        raise ValueError("R-matrix needs distinct slots")
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError("slot out of range")
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows[a - 1][a - 1] = u
    rows[b - 1][a - 1] = 1
    rows[a - 1][b - 1] = 1
    rows[b - 1][b - 1] = 0
    return as_matrix(rows, u)


def _slot_matrix(i: int, n: int, x):
    """The identity with x in slot (i, i), over the field of x."""
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    rows[i - 1][i - 1] = x
    return as_matrix(rows, x)


# -- qKZ operators ----------------------------------------------------------------------


def qkz_operator(i: int, q, z: Sequence, basis: str = "x"):
    """The i-th shift operator K_i(q, z), over the field of (q, z).

    In the g-basis it is the R-matrix product
    R_{i,i-1}(z_i-z_{i-1}-1)..R_{i,1}(z_i-z_1-1) q^{-E_i} R_{i,n}(z_i-z_n)..R_{i,i+1}(z_i-z_{i+1});
    the x-basis version conjugates by the g-to-x base change, with the base
    change at z - e_i on the left because the shift identifies g-coordinates
    at different parameter points."""
    n = len(z)
    if not 1 <= i <= n:
        raise ValueError("operator index out of range")
    if basis not in ("g", "x"):
        raise ValueError("basis must be 'g' or 'x'")
    q, *z = over_field((q, *z))
    if q == 0:
        raise ValueError("q must be nonzero")
    factors = [r_matrix(i, j, z[i - 1] - z[j - 1] - 1, n) for j in range(i - 1, 0, -1)]
    factors.append(_slot_matrix(i, n, q**-1))
    factors += [r_matrix(i, j, z[i - 1] - z[j - 1], n) for j in range(n, i, -1)]
    k = reduce(matmul, factors)
    if basis == "g":
        return k
    shifted = z[: i - 1] + [z[i - 1] - 1] + z[i:]
    return g_basis_matrix(n, shifted) @ k @ g_basis_inverse(n, z)


def difference_residual(
    solution: Callable[[complex, NumericContext], np.ndarray],
    i: int,
    q: complex,
    ctx: NumericContext,
) -> float:
    """Relative residual of Y(q, z - e_i) = K_i(q, z) Y(q, z) in the x-basis
    trivialization; the callable evaluates the candidate at arbitrary z, a
    fundamental matrix (operator norm) or one solution vector (Euclidean
    norm)."""
    shifted = ctx.shift(i)
    lhs = solution(q, shifted)
    rhs = qkz_operator(i, q, ctx.z, basis="x") @ solution(q, ctx)
    return float(np.linalg.norm(lhs - rhs, 2) / np.linalg.norm(lhs, 2))
