"""q-hypergeometric solutions of the joint differential/difference system.

Each basis solution is a residue series attached to one equivariant parameter:
the poles of the Gamma-product master function along z_J + r contribute a
series q^{z_J}(Delta_J + O(q)) whose fixed-point restrictions have closed-form
coefficients.  A contour-integral evaluator over a parabola provides an
independent numeric oracle for the normalization.  The asymptotic expansion at
large |s| (q = s^n), against which the tests check the Stokes sectors, lives
in the tests (`tests/identities.py`).

A `QSolution` follows the evaluator protocol of `qde`: `matrix(q, log_q)` and
`derivative(q, log_q)` give its x-coordinates and their q-derivative, an
n-vector each.  Its residuals are the shared ones, `qde.ode_residual` for the
differential equation and `qkz.difference_residual` for the shift equations;
`solution_ode_residual` and `solution_qkz_residual` only call them.
"""

from __future__ import annotations

import cmath

import numpy as np

from .cohomology import CohClass, NumericContext, b_morphism, vandermonde
from .ktheory import KClass, xz_vars
from .qde import ode_residual, series_converged, topological_series
from .qkz import difference_residual
from .ring import LaurentPoly


class SolutionSeries:
    """Residue series for one basis solution: q^{z_J} prefactor times a
    truncated power series of fixed-point restriction vectors.

    restriction I, term r:  pref * q^{z_J + r} * t[r, I], with
    t[r, I] = (-1)^{r(n+1)}/r! * prod_{a != I}(z_a - z_J - r)
                             / prod_{a != J} prod_{l=0..r}(z_a - z_J - l)
    and pref = e^{i pi sum z} e^{-i pi n z_J} prod_{a != J} Gamma(1 + z_a - z_J).
    """

    def __init__(self, J: int, ctx: NumericContext, order: int):
        n = ctx.n
        if not 1 <= J <= n:
            raise ValueError("pole label out of range")
        z = np.array(ctx.z, dtype=complex)
        zj = z[J - 1]
        # numerators prod_{a != I}(z_a - z_J - r): polynomial growth in r
        rs = np.arange(order + 1).reshape(-1, 1)
        factors = z.reshape(1, -1) - zj - rs  # (order+1, n)
        nums = np.empty((order + 1, n), dtype=complex)
        for i in range(n):
            cols = [a for a in range(n) if a != i]
            nums[:, i] = np.prod(factors[:, cols], axis=1)
        # per-step divisors r * prod_{a != J}(z_a - z_J - r), r = 1..order
        cols = [a for a in range(n) if a != J - 1]
        divs = np.arange(1, order + 1) * np.prod(factors[1:, cols], axis=1)
        self.J = J
        self.n = n
        self.z = tuple(ctx.z)
        self.order = order
        self.exponent = complex(zj)
        self._nums = nums
        self._divs = divs
        # per term of `_sum`: the divisor as a Python complex, the row peak
        self._steps = list(zip([0j] + divs.tolist(), np.max(np.abs(nums), axis=1).tolist()))
        self._c0 = 1.0 / complex(np.prod(factors[0, cols]))
        self._sign = float((-1) ** (n + 1))
        gamma_prod = 1.0 + 0j
        for a in range(n):
            if a != J - 1:
                gamma_prod *= ctx.gamma(1 + z[a] - zj)
        self.prefactor = cmath.exp(1j * cmath.pi * complex(np.sum(z))) * gamma_prod

    def _sum(self, q: complex, extra_power: float) -> np.ndarray:
        """sum_r (exponent + r)^extra * term_r(q), term-recursively for
        numerical stability at large |q|."""
        v = self._c0
        sq = self._sign * complex(q)
        peak = 0.0
        ws = []
        for r, (d, top) in enumerate(self._steps):
            if r > 0:
                v = v * sq / d
            ws.append(v if extra_power == 0 else v * (self.exponent + r))
            mag = abs(v) * top
            peak = max(peak, mag)
            if r > 8 and mag < 1e-22 * peak:
                break
        return np.array(ws) @ self._nums[: len(ws)]

    def converged(self, q: complex) -> bool:
        """Whether the last two terms at q have ratio below 1/2: past the cut-off
        the ratio only falls (divisors grow like r^n, numerators like r^(n-1)),
        so the tail of the sum is then at most its last term."""
        last = np.max(np.abs(self._nums[-2:]), axis=1)
        return series_converged(q, (last[1], abs(self._divs[-1]) * last[0]))

    def _head(self, q: complex, log_q: complex | None) -> complex:
        lq = cmath.log(q) if log_q is None else log_q
        return self.prefactor * cmath.exp(self.exponent * (lq - 1j * cmath.pi * self.n))

    def restrictions(self, q: complex, log_q: complex | None = None) -> np.ndarray:
        return self._head(q, log_q) * self._sum(q, 0)

    def restrictions_derivative(self, q: complex, log_q: complex | None = None) -> np.ndarray:
        return self._head(q, log_q) * self._sum(q, 1) / q


def _char_values(ctx: NumericContext) -> list[complex]:
    return [cmath.exp(2j * cmath.pi * w) for w in ctx.z]


class QSolution:
    """Solution attached to a K-class: the Laurent polynomial is evaluated at
    the exponentiated parameters and weights the residue series."""

    def __init__(self, Q: LaurentPoly, ctx: NumericContext, order: int):
        n = ctx.n
        if Q.vars != xz_vars(n):
            Q = Q.with_vars(xz_vars(n))
        az = _char_values(ctx)
        self.series = [SolutionSeries(J, ctx, order) for J in range(1, n + 1)]
        self.weights = []
        for J in range(n):
            vals = {f"Z{a + 1}": az[a] for a in range(n)}
            vals["X"] = az[J]
            self.weights.append(Q.eval(vals))
        self.n = n
        self.ctx = ctx
        _, self.dinv = vandermonde(n, ctx.z)

    def restrictions(self, q: complex, log_q: complex | None = None) -> np.ndarray:
        return sum(
            w * s.restrictions(q, log_q) for w, s in zip(self.weights, self.series)
        )

    def matrix(self, q: complex, log_q: complex | None = None) -> np.ndarray:
        """x-coordinates of the solution."""
        return self.dinv @ self.restrictions(q, log_q)

    x_coords = matrix

    def derivative(self, q: complex, log_q: complex | None = None) -> np.ndarray:
        return self.dinv @ sum(
            w * s.restrictions_derivative(q, log_q) for w, s in zip(self.weights, self.series)
        )


def psi_power(m: int, ctx: NumericContext, order: int) -> QSolution:
    """The solution attached to X^m."""
    n = ctx.n
    return QSolution(LaurentPoly.variable(xz_vars(n), "X", m), ctx, order)


def psi_Q(Q: LaurentPoly, ctx: NumericContext, order: int) -> QSolution:
    return QSolution(Q, ctx, order)


def fundamental_matrix(ctx: NumericContext, order: int):
    """Callable (q, ctx) -> x-basis fundamental matrix with columns the residue
    series solutions; rebuilt per parameter point so difference residuals can
    shift z."""
    cache: dict[tuple, list[SolutionSeries]] = {}

    def matrix(q: complex, at: NumericContext) -> np.ndarray:
        key = tuple(at.z)
        if key not in cache:
            cache[key] = [SolutionSeries(J, at, order) for J in range(1, at.n + 1)]
        _, dinv = vandermonde(at.n, at.z)
        cols = [dinv @ s.restrictions(q) for s in cache[key]]
        return np.column_stack(cols)

    return matrix


# -- residual checks -----------------------------------------------------------------


def solution_ode_residual(sol: QSolution, q: complex) -> float:
    return ode_residual(sol, q, sol.n, sol.ctx.z)


def solution_qkz_residual(
    Q: LaurentPoly, i: int, q: complex, ctx: NumericContext, order: int
) -> float:
    return difference_residual(lambda q, at: QSolution(Q, at, order).matrix(q), i, q, ctx)


# -- contour-integral oracle -----------------------------------------------------------


def _log_gamma_reflected(w: complex, loggamma) -> complex:
    """log Gamma, by `loggamma`, with the reflection formula on the left half
    plane; only the exponential of sums of these is used, so branch constants cancel."""
    if w.real > 0.5:
        return complex(loggamma(w))
    return cmath.log(cmath.pi) - _log_sin_pi(w) - complex(loggamma(1 - w))


def _log_sin_pi(w: complex) -> complex:
    y = w.imag
    if y > 20:
        return -1j * cmath.pi * w + cmath.log(0.5j)
    if y < -20:
        return 1j * cmath.pi * w + cmath.log(-0.5j)
    return cmath.log(cmath.sin(cmath.pi * w))


def contour_oracle(
    Q: LaurentPoly,
    q: complex,
    ctx: NumericContext,
    p: float | None = None,
) -> CohClass:
    """Evaluate the solution attached to Q by quadrature over the parabola
    t = p + u^2 + i u, |u| <= 9, independent of the residue series."""
    from scipy.integrate import quad  # scipy loads only in the numeric commands
    from scipy.special import loggamma

    n = ctx.n
    z = [complex(w) for w in ctx.z]
    if Q.vars != xz_vars(n):
        Q = Q.with_vars(xz_vars(n))
    if p is None:
        p = min(w.real - w.imag**2 for w in z) - 0.75
    for w in z:
        if w.real - (w.imag**2) <= p:
            raise ValueError("parabola apex must leave every z_a inside")
    lq = cmath.log(q)
    az = _char_values(ctx)
    base = lq - 1j * cmath.pi * n
    head = 1j * cmath.pi * sum(z)
    xi = Q.vars.index("X")

    restrictions = []
    for i in range(n):

        def integrand(u: float, i=i):
            t = p + u * u + 1j * u
            total = 0j
            lg = head + sum(_log_gamma_reflected(za - t, loggamma) for za in z)
            for e, c in Q.terms.items():
                m = e[xi]
                expo = lg + t * (base + 2j * cmath.pi * m)
                if expo.real < -700:
                    continue
                zfac = complex(c)
                for a in range(n):
                    zfac *= az[a] ** e[1 + a]
                w = 1.0 + 0j
                for a in range(n):
                    if a != i:
                        w *= z[a] - t
                total += zfac * w * cmath.exp(expo)
            return total * (2 * u + 1j)

        re = quad(lambda u: integrand(u).real, -9.0, 9.0, limit=400)[0]
        im = quad(lambda u: integrand(u).imag, -9.0, 9.0, limit=400)[0]
        restrictions.append((re + 1j * im) / (2j * cmath.pi))
    return CohClass(n, restrictions)


# -- comparison with the enumerative solution -----------------------------------------------


def analytic_comparison_matrix(k: int, ctx: NumericContext) -> np.ndarray:
    """Matrix of the K-theory-to-cohomology comparison morphism on the basis
    O(-k-n+1), ..., O(-k): column m holds the x-coordinates of the image of
    X^{k+n-1-m}."""
    n = ctx.n
    cols = []
    for m in range(n):
        img = b_morphism(KClass.x_power(n, k + n - 1 - m), ctx)
        cols.append(img.x_coords(ctx))
    return np.column_stack(cols)


def b_theorem_check(k: int, ctx: NumericContext, order: int) -> dict:
    """Solve Y_qhyp = Y_top * M numerically at q = 0.1, 0.2, 0.3 and compare
    M to the analytic comparison matrix."""
    n = ctx.n
    top = topological_series(n, ctx.z, order)
    sols = [psi_power(k + n - 1 - m, ctx, order) for m in range(n)]
    ms = []
    for q in (0.1, 0.2, 0.3):
        yq = np.column_stack([s.x_coords(q) for s in sols])
        yt = top.matrix(q)
        ms.append(np.linalg.solve(yt, yq))
    m_avg = sum(ms) / len(ms)
    sample_spread = max(float(np.max(np.abs(m - m_avg))) for m in ms)
    want = analytic_comparison_matrix(k, ctx)
    scale = float(np.max(np.abs(want)))
    deviation = float(np.max(np.abs(m_avg - want))) / scale
    return {
        "k": k,
        "n": n,
        "matrix": m_avg,
        "analytic": want,
        "deviation": deviation,
        "sample_spread": sample_spread / scale,
    }
