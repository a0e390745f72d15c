"""The matrix quantum differential equation dY/dq = (A0 + A1(z)/q) Y and its
two distinguished fundamental solutions at the regular singular point q = 0:
the Levelt solution D^{-1}(1 + sum G_k q^k) q^diag(z) and the
topological-enumerative solution built from the scalar series a_j.

The system matrices and the coefficient recursions are written once, over
the scalar field of z (see `cohomology`): Fractions for rational z, complex
numbers for numeric z, rational functions in z1..zn when z is omitted.  The
evaluators feed the recursions complex z even when z is rational (products
and quotients, with no cancellation); only D and D^{-1} stay over its field.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ring import elementary_symmetric
from .cohomology import as_matrix, eta_gram, is_negligible, parameters, vandermonde


@dataclass(frozen=True)
class BranchContext:
    """Bookkeeping for powers q^M = exp(M log q) on the universal cover.

    phi parametrizes the ray through s = r e^{-2 pi i phi}, q = s^n; a full
    counterclockwise turn of q decreases phi by 1/n.
    """

    phi: float = 0.0

    def s_value(self, r: float) -> complex:
        return r * cmath.exp(-2j * cmath.pi * self.phi)

    def log_s(self, r: float) -> complex:
        return math.log(r) - 2j * cmath.pi * self.phi

    def q_value(self, r: float, n: int) -> complex:
        return self.s_value(r) ** n

    def log_q(self, r: float, n: int) -> complex:
        return n * self.log_s(r)


# -- the equation ---------------------------------------------------------------------


def system_matrices(n: int, z: Sequence | None = None):
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


def levelt_coefficients(n: int, z: Sequence | None, order: int) -> list:
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
        ds = sum(k * self.coeffs[k] * q ** (k - 1) for k in range(1, self.order + 1))
        return self.dinv @ (ds @ qz + s @ np.diag(self.zc / q) @ qz)

    def monodromy(self) -> np.ndarray:
        """Matrix of the q = 0 monodromy operator wrt this solution."""
        return np.diag(np.exp(2j * np.pi * self.zc))

    def converged(self, q: complex) -> bool:
        """`series_converged` on the largest entries of the last two G_k."""
        return series_converged(q, *(np.max(np.abs(g)) for g in self.coeffs[-2:]))


def levelt_series(n: int, z: Sequence, order: int) -> LeveltSolution:
    return LeveltSolution(n, z, order)


def series_converged(q: complex, prev: float, last: float) -> bool:
    """Whether the last term of a truncated series at q is below half the one
    before it, from their coefficient sizes; an underflowed last 0 counts."""
    return bool(last == 0 or abs(q) * last < 0.5 * prev)


# -- topological-enumerative solution ---------------------------------------------------


def a_series_coefficients(n: int, z: Sequence | None, order: int, j: int) -> list:
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
        self.eta = eta_gram(n, zc)
        self.eta_inv = np.linalg.inv(self.eta)

    def _theta_powers(self, lq: complex) -> np.ndarray:
        """hat{Y}[h][j] = (q d/dq)^h a_{j+1}(q) for h = 0..n."""
        n = self.n
        out = np.zeros((n + 1, n), dtype=complex)
        ds = np.arange(self.order + 1)
        for j in range(n):
            expo = self.zc[j] + ds
            vals = self.a_coeffs[j] * np.exp(expo * lq)
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
        """`series_converged` on the last two coefficients of every a_j."""
        return all(series_converged(q, *np.abs(a[-2:])) for a in self.a_coeffs)


def topological_series(n: int, z: Sequence, order: int) -> TopologicalSolution:
    return TopologicalSolution(n, z, order)


def ode_residual(solution, q: complex, n: int, z: Sequence, log_q: complex | None = None) -> float:
    """Relative residual |dY/dq - A(q) Y| / |Y| of a solution object with
    `matrix` and `derivative` methods: the operator norm for a fundamental
    solution, the Euclidean norm for one solution."""
    if q == 0:
        raise ValueError("residual undefined at q = 0")
    y = solution.matrix(q, log_q)
    dy = solution.derivative(q, log_q)
    a = coefficient_matrix(n, z, q)
    return float(np.linalg.norm(dy - a @ y, 2) / np.linalg.norm(y, 2))


# -- scalar equation --------------------------------------------------------------------


class ScalarSeries:
    """Truncated series q^{expo} sum_d c_d q^d with field-generic coefficients."""

    def __init__(self, expo, coeffs: Sequence, order: int):
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need order+1 coefficients")
        self.expo = expo
        self.coeffs = coeffs
        self.order = order

    def theta(self) -> "ScalarSeries":
        """Apply q d/dq: multiply c_d by (expo + d)."""
        return ScalarSeries(
            self.expo, [c * (self.expo + d) for d, c in enumerate(self.coeffs)], self.order
        )

    def theta_power(self, k: int) -> "ScalarSeries":
        out = self
        for _ in range(k):
            out = out.theta()
        return out

    def shift_by_q(self) -> "ScalarSeries":
        """Multiply by q (drop the coefficient beyond the truncation order)."""
        return ScalarSeries(self.expo, [0 * self.coeffs[0]] + self.coeffs[:-1], self.order)

    def scale(self, c) -> "ScalarSeries":
        return ScalarSeries(self.expo, [x * c for x in self.coeffs], self.order)

    def __sub__(self, other: "ScalarSeries") -> "ScalarSeries":
        return ScalarSeries(
            self.expo, [a - b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __add__(self, other: "ScalarSeries") -> "ScalarSeries":
        return ScalarSeries(
            self.expo, [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(is_negligible(c, tol) for c in self.coeffs)


def scalar_qde_residual(phi: ScalarSeries, n: int, z: Sequence) -> ScalarSeries:
    """Residual of the scalar equation
    theta^n phi - (q + (-1)^{n-1} s_n(z)) phi - sum_j (-1)^{n-j-1} s_{n-j}(z)
    theta^j phi; zero iff phi solves it to the truncation order."""
    res = phi.theta_power(n)
    res = res - phi.shift_by_q()
    sn = elementary_symmetric(list(z), n)
    res = res - phi.scale(sn if (n - 1) % 2 == 0 else -sn)
    for j in range(1, n):
        s = elementary_symmetric(list(z), n - j)
        sign = 1 if (n - j - 1) % 2 == 0 else -1
        res = res - phi.theta_power(j).scale(sign * s)
    return res
