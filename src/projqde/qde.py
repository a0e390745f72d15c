"""The matrix quantum differential equation dY/dq = (A0 + A1(z)/q) Y and its
two distinguished fundamental solutions at the regular singular point q = 0:
the Levelt solution D^{-1}(1 + sum G_k q^k) q^diag(z) and the
topological-enumerative solution built from the scalar series a_j.

The system matrices and the coefficient recursions are written once, over
the scalar field of z (see `cohomology`): Fractions for rational z, complex
numbers for numeric z, or a field the caller brings.  The evaluators feed
the recursions complex z even when z is rational (products and quotients,
with no cancellation); only D and D^{-1} stay over its field.
They never form a power q^k alone, which overflows at large |q| where the
terms of the series are small: the Levelt sums run by Horner's rule, and each
term c_d q^(z_j + d) of a_j is one exponential.  The scalar equation that
each a_j solves is checked in the tests (`tests/identities.py` holds its
residual).

Every solution object (`LeveltSolution`, `TopologicalSolution` here,
`hypergeom.QSolution`) evaluates through the same two methods,
`matrix(q, log_q)` and `derivative(q, log_q)`, in x-coordinates: an n x n
matrix for a fundamental solution, an n-vector for one solution; log_q
selects the branch and defaults to the principal logarithm.  `ode_residual`
here is the one residual of the differential equation and
`qkz.difference_residual` the one residual of the difference equations.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

import numpy as np

from .ring import elementary_symmetric
from .cohomology import as_matrix, eta_gram, parameters, vandermonde


# -- the equation ---------------------------------------------------------------------


def system_matrices(n: int, z: Sequence):
    """A0 (single 1 in the upper-right corner) and the companion-type A1(z)
    whose eigenvalues are z_1..z_n: ones under the diagonal and last column
    (A1)_{i,n} = (-1)^{n-i} e_{n-i+1}(z)."""
    z = parameters(n, z)
    a0 = [[1 if (i, j) == (0, n - 1) else 0 for j in range(n)] for i in range(n)]
    a1 = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        e = elementary_symmetric(z, n - i)
        a1[i][n - 1] = -e if (n - i - 1) % 2 else e
    return as_matrix(a0, z[0]), as_matrix(a1, z[0])


def coefficient_matrix(n: int, z: Sequence[complex], q: complex) -> np.ndarray:
    a0, a1 = system_matrices(n, z)
    return a0 + a1 / q


def levelt_coefficients(n: int, z: Sequence, order: int) -> list:
    """G_0 = 1, G_1..G_order of the Levelt gauge, over the field of z.

    Recursion: (G_k)_{ij} = -(M G_{k-1})_{ij} / (z_i - z_j - k) with
    M = D A0 D^{-1}, whose rows all equal the last row r of D^{-1}; so
    (M G_{k-1})_{ij} = c_j with c = r G_{k-1}.  As r_i = 1/prod_{m != i}
    (z_i - z_m), sum_i r_i / (z_i - t) = -1/prod_m (t - z_m), and
    r G_k = (c_j / prod_m (z_j - z_m + k))_j: products, where the sum over i
    cancels when the z_i are close and r is large."""
    z = parameters(n, z)
    # r G_0 = r, the last row of D^{-1} as `vandermonde` computes it
    c = [1 / math.prod((z[j] - w for m, w in enumerate(z) if m != j), start=z[j] ** 0) for j in range(n)]
    coeffs = [as_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], z[0])]
    for k in range(1, order + 1):
        coeffs.append(as_matrix([[-c[j] / (z[i] - z[j] - k) for j in range(n)] for i in range(n)], z[0]))
        c = [c[j] / math.prod(z[j] - w + k for w in z) for j in range(n)]
    return coeffs


class LeveltSolution:
    """Fundamental solution D^{-1}(1 + sum_k G_k q^k) q^diag(z)."""

    def __init__(self, n: int, z: Sequence, order: int):
        self.n = n
        self.z = tuple(z)
        self.order = order
        # D and D^{-1} over the field of z, then rounded: over complex z the
        # ill-conditioned D of verify-all's z at n >= 10 fails the absolute
        # self-check of `vandermonde`
        self.d, self.dinv = (np.asarray(m, dtype=complex) for m in vandermonde(n, z))
        self.zc = np.array([complex(w) for w in z])
        self.coeffs = levelt_coefficients(n, self.zc.tolist(), order)

    def gauge(self, q: complex) -> np.ndarray:
        """1 + sum_k G_k q^k, by Horner's rule."""
        acc = np.zeros_like(self.coeffs[0])
        for g in reversed(self.coeffs):
            acc = acc * q + g
        return acc

    def matrix(self, q: complex, log_q: complex | None = None) -> np.ndarray:
        lq = cmath.log(q) if log_q is None else log_q
        qz = np.diag(np.exp(self.zc * lq))
        return self.dinv @ self.gauge(q) @ qz

    def derivative(self, q: complex, log_q: complex | None = None) -> np.ndarray:
        lq = cmath.log(q) if log_q is None else log_q
        qz = np.diag(np.exp(self.zc * lq))
        s = self.gauge(q)
        # sum_k k G_k q^(k-1), by Horner's rule as in `gauge`
        ds = np.zeros_like(self.coeffs[0])
        for k in range(self.order, 0, -1):
            ds = ds * q + k * self.coeffs[k]
        return self.dinv @ (ds @ qz + s @ np.diag(self.zc / q) @ qz)

    def converged(self, q: complex) -> bool:
        """`series_converged` on the largest entries of the G_k."""
        return series_converged(q, (np.max(np.abs(g)) for g in reversed(self.coeffs)))


def levelt_series(n: int, z: Sequence, order: int) -> LeveltSolution:
    return LeveltSolution(n, z, order)


def series_converged(q: complex, sizes: Iterable[float]) -> bool:
    """Whether the last nonzero term of a truncated series at q is below half
    the one before it, from the sizes of its coefficients, highest order
    first.  Coefficients that underflowed to 0 are passed over: they end a
    series that was cut short, not one that converged."""
    nonzero = (s for s in sizes if s != 0)
    last, prev = next(nonzero, 0), next(nonzero, 0)
    return bool(prev == 0 or abs(q) * last < 0.5 * prev)


# -- topological-enumerative solution ---------------------------------------------------


def a_series_coefficients(n: int, z: Sequence, order: int, j: int) -> list:
    """Coefficients c_d of the scalar series a_j = q^{z_j}(1 + sum c_d q^d),
    c_d = 1 / prod_i prod_{m<=d} (z_j - z_i + m), over the field of z."""
    z = parameters(n, z)
    c = z[j - 1] ** 0
    coeffs = [c]
    for d in range(1, order + 1):
        for w in z:
            c = c / (z[j - 1] - w + d)
        coeffs.append(c)
    return coeffs


class TopologicalSolution:
    """The solution whose columns are the images of the x-power basis under the
    small-locus restriction of the enumerative morphism; built from the scalar
    series a_j and equal to the Levelt solution times the Vandermonde matrix."""

    def __init__(self, n: int, z: Sequence, order: int):
        self.n = n
        self.z = tuple(z)
        self.order = order
        self.dinv = np.asarray(vandermonde(n, z)[1], dtype=complex)
        zc = [complex(w) for w in z]
        self.zc = np.array(zc)
        self.a_coeffs = [np.array(a_series_coefficients(n, zc, order, j)) for j in range(1, n + 1)]
        with np.errstate(divide="ignore"):  # an underflowed c_d = 0 has log -inf, and term 0
            self.log_a = [np.log(a) for a in self.a_coeffs]
        self.eta = eta_gram(n, zc)
        self.eta_inv = np.linalg.inv(self.eta)

    def _theta_powers(self, lq: complex) -> np.ndarray:
        """hat{Y}[h][j] = (q d/dq)^h a_{j+1}(q) for h = 0..n; each term
        c_d q^(z_j + d) is one exponential exp(log c_d + (z_j + d) log q), as
        q^(z_j + d) alone overflows at large |q| where the term is small."""
        n = self.n
        out = np.zeros((n + 1, n), dtype=complex)
        ds = np.arange(self.order + 1)
        for j in range(n):
            expo = self.zc[j] + ds
            vals = np.exp(self.log_a[j] + expo * lq)
            for h in range(n + 1):
                out[h, j] = np.sum(vals)
                vals = vals * expo
        return out

    def _in_x(self, yhat: np.ndarray) -> np.ndarray:
        return self.eta_inv @ (yhat @ self.dinv.T) @ self.eta

    def matrix(self, q: complex, log_q: complex | None = None) -> np.ndarray:
        lq = cmath.log(q) if log_q is None else log_q
        return self._in_x(self._theta_powers(lq)[: self.n])

    def derivative(self, q: complex, log_q: complex | None = None) -> np.ndarray:
        """d/dq theta^h a_j = theta^{h+1} a_j / q: rows 1..n of the theta powers."""
        lq = cmath.log(q) if log_q is None else log_q
        return self._in_x(self._theta_powers(lq)[1:] / q)

    def converged(self, q: complex) -> bool:
        """`series_converged` on the coefficients of every a_j."""
        return all(series_converged(q, np.abs(a[::-1])) for a in self.a_coeffs)


def topological_series(n: int, z: Sequence, order: int) -> TopologicalSolution:
    return TopologicalSolution(n, z, order)


def ode_residual(solution, q: complex, n: int, z: Sequence) -> float:
    """Relative residual |dY/dq - A(q) Y| / |Y| of a solution object with
    `matrix` and `derivative` methods: the operator norm for a fundamental
    solution, the Euclidean norm for one solution."""
    if q == 0:
        raise ValueError("residual undefined at q = 0")
    y = solution.matrix(q)
    dy = solution.derivative(q)
    a = coefficient_matrix(n, z, q)
    return float(np.linalg.norm(dy - a @ y, 2) / np.linalg.norm(y, 2))
