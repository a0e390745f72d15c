"""Identities and helpers that several test files share and no program code
calls: substitutions in Laurent polynomials, the adjugate inverse, the general
characteristic polynomial det(lambda A - B) / det A and the formal monodromy's
own, the product of K-classes, their twist, exceptionality and Gram matrix
taken in the window O(0)..O(n-1), the shift operators at the variables
(q, z1..zn) and their normal form at infinity, the scalar quantum differential
equation, and the large-|s| asymptotics of the residue series.

The tests that need the parameters symbolically take z1..zn as Laurent
polynomials where a builder does not divide, and from sympy where it does:
as symbols (expression trees) where the builder tests no equality, and in
sympy's field of rational functions where it does.  sympy serves only as a
test-time oracle; the library has no field of rational functions of its own.

Not a test module (no `test_` prefix); pytest's default import mode puts
`tests/` on sys.path, so the test files import it as `identities`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import add
from typing import Iterable, Sequence

import numpy as np
from sympy import QQ, cancel
from sympy.polys.fields import field

from projqde.cohomology import NumericContext, cohom_vars
from projqde.hypergeom import SolutionSeries
from projqde.ktheory import KClass, _columns, _expand, _one_ring, _pair, _z_times, to_z, unit_c
from projqde.qkz import qkz_operator
from projqde.ring import (
    LAMBDA,
    LaurentMatrix,
    LaurentPoly,
    _norm_coeff,
    _pow_coeff,
    elementary_symmetric,
    unit_pow,
    zvars,
)
from projqde.stokes import W, _conjugate_by_e, _reduce_w

# -- Laurent polynomials --------------------------------------------------------------


def coefficient(p: LaurentPoly, name: str, power: int) -> LaurentPoly:
    """Coefficient of name**power, as a poly in the remaining variables."""
    return p.as_series(name).get(power, LaurentPoly.zero(tuple(v for v in p.vars if v != name)))


def drop_vars(p: LaurentPoly, names: Iterable[str]) -> LaurentPoly:
    """Remove variables that appear with exponent 0 in every term."""
    drop = set(names)
    keep = [i for i, v in enumerate(p.vars) if v not in drop]
    for e in p.terms:
        for i, v in enumerate(p.vars):
            if v in drop and e[i] != 0:
                raise ValueError(f"{v!r} occurs with nonzero exponent; cannot drop")
    return LaurentPoly(
        tuple(p.vars[i] for i in keep),
        {tuple(e[i] for i in keep): c for e, c in p.terms.items()},
    )


def substitute_monomial(p: LaurentPoly, name: str, coeff, exps: Sequence[int]) -> LaurentPoly:
    """Substitute variable `name` by coeff * (monomial in p.vars).

    The monomial's slot for `name` itself must be zero.  Negative powers of
    the substituted variable are fine because a (nonzero) monomial is a unit.
    """
    vs = p.vars
    i = vs.index(name)
    exps = tuple(exps)
    if len(exps) != len(vs) or exps[i] != 0:
        raise ValueError("substitution monomial must live in the same context with 0 in its own slot")
    coeff = _norm_coeff(coeff)
    if coeff == 0:
        raise ValueError("substitution by zero is not a unit")

    def moved(e):
        return tuple(0 if j == i else x + e[i] * y for j, (x, y) in enumerate(zip(e, exps)))

    return LaurentPoly(vs, ((moved(e), c * _pow_coeff(coeff, e[i])) for e, c in p._decoded()))


def specialize(p: LaurentPoly, name: str, value) -> LaurentPoly:
    """Substitute an exact rational value for one variable (exponent 0 result
    slot kept); ZeroDivisionError for a negative power of it at zero."""
    value = _norm_coeff(value)
    i = p.vars.index(name)
    pairs = ((e[:i] + (0,) + e[i + 1 :], c * _pow_coeff(value, e[i])) for e, c in p._decoded())
    return LaurentPoly(p.vars, pairs)


def cofactor_inverse(m: LaurentMatrix) -> LaurentMatrix:
    """Reference inverse over the Laurent ring: the adjugate, each entry by its
    own Laplace determinant, times the inverse of det m (a unit monomial)."""
    n = m.rows
    dinv = unit_pow(m.det(), -1)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            sub = [[m.entries[r][s] for s in range(n) if s != i] for r in range(n) if r != j]
            cof = LaurentMatrix(sub).det() if n > 1 else LaurentPoly.one(m.vars)
            row.append((-cof if (i + j) % 2 else cof) * dinv)
        rows.append(row)
    return LaurentMatrix(rows)


def char_poly(a: LaurentMatrix, b: LaurentMatrix) -> LaurentPoly:
    """Characteristic polynomial det(lambda - A^{-1} B) of A^{-1} B, as a
    Laurent polynomial in (LAM,) + A.vars: the general Laplace pencil
    det(lambda A - B) / det A, so A is never inverted; det A must be a unit
    monomial (ValueError otherwise)."""
    if not a.rows == a.cols == b.rows == b.cols or a.vars != b.vars:
        raise ValueError("char_poly needs square matrices of one shape and context")
    vs = (LAMBDA,) + a.vars
    lam = LaurentPoly.variable(vs, LAMBDA)
    pencil = LaurentMatrix(
        [
            [lam * x.with_vars(vs) - y.with_vars(vs) for x, y in zip(ra, rb)]
            for ra, rb in zip(a.entries, b.entries)
        ]
    )
    return pencil.det() * unit_pow(a.det(), -1).with_vars(vs)


def formal_monodromy_char_residual(s1: LaurentMatrix, s2: LaurentMatrix, n: int) -> LaurentPoly:
    """det(lambda - c (S2 S1)^{-1}) - prod_j (lambda - Z_j^n) over (LAM, Z1..Zn),
    c = (-1)^{n-1} e_n(Z): the formal monodromy's own Laplace pencil, on the sparser
    lambda S1 - c S2^{-1} (det S1 = 1), against its target multiplied out factor by
    factor, not through Newton's identities."""
    char = to_z(char_poly(s1, s2.inverse() * unit_c(n)), n)
    lam = LaurentPoly.variable(char.vars, LAMBDA)
    target = LaurentPoly.one(char.vars)
    for z in zvars(n):
        target = target * (lam - LaurentPoly.variable(char.vars, z, n))
    return char - target


# -- K-classes ------------------------------------------------------------------------


def mul_class(f: KClass, g: KClass) -> KClass:
    """Product in the algebra: O(a) O(b) = O(a+b), characters multiplied."""
    f, g = _one_ring([f, g])
    terms = [(a * b, i + j) for i, a in enumerate(f._co) for j, b in enumerate(g._co)]
    return KClass(_expand(f._co[0].vars, terms), tuple(map(add, f._char, g._char)))


def twist_by_expand(f: KClass, m: int) -> KClass:
    """f X^m with each coordinate read off the far line bundles O(a - m) at once."""
    return KClass(_expand(f._co[0].vars, [(c, a - m) for a, c in enumerate(f._co)]), f._char)


def is_exceptional_in_window_zero(els: Sequence[KClass]) -> bool:
    """chi(e_j, e_j) = 1 and chi(e_j, e_i) = 0 for i < j, each class paired as
    it is stored, in the window O(0)..O(n-1), whatever its size there."""
    els = _one_ring(els)
    for j, ej in enumerate(els):
        cols = _columns(ej)
        if _pair(cols, ej) != 1 or any(not _pair(cols, ei).is_zero() for ei in els[:j]):
            return False
    return True


def gram_in_window_zero(els: Sequence[KClass]) -> LaurentMatrix:
    """chi(e_i, e_j) with the characters Z^{c_j - c_i}, each class paired as it is
    stored, in the window O(0)..O(n-1), over the ring of the basis: Z1..Zn when a
    class has a character."""
    els = _one_ring(els)
    rows = [[_pair(cols, ej) for ej in els] for cols in map(_columns, els)]
    if any(any(e._char) for e in els):
        rows = [[_z_times(p, e._char, f._char) for p, f in zip(r, els)] for r, e in zip(rows, els)]
    return LaurentMatrix(rows)


# -- symbolic parameters ----------------------------------------------------------------


def parameter_variables(n: int) -> list[LaurentPoly]:
    """z1..zn as Laurent polynomials over cohom_vars(n), for the builders that
    do not divide."""
    return [LaurentPoly.variable(cohom_vars(n), v) for v in cohom_vars(n)]


def rational_function_field(names: Sequence[str]) -> list:
    """The generators of Q(names), sympy's field of rational functions, in
    which `==` is the equality of rational functions."""
    return list(field(",".join(names), QQ)[1:])


def vanishes_identically(x) -> bool:
    """Whether a sympy expression (a tree, compared structurally by `==`) is
    0 as a rational function."""
    return cancel(x) == 0


# -- shift operators at the variables (q, z1..zn) ----------------------------------------


def qkz_vars(n: int) -> tuple[str, ...]:
    return ("q",) + cohom_vars(n)


def qkz_variables(n: int) -> list[LaurentPoly]:
    """q, z1..zn as Laurent polynomials over qkz_vars(n)."""
    return [LaurentPoly.variable(qkz_vars(n), v) for v in qkz_vars(n)]


def qkz_operator_symbolic(i: int, n: int, basis: str = "g") -> LaurentMatrix:
    """The i-th shift operator at the variables (q, z1..zn)."""
    q, *z = qkz_variables(n)
    return qkz_operator(i, q, z, basis)


def qkz_normal_form(j: int, n: int) -> LaurentMatrix:
    """Residue at s = 0 of E H(s)^{-1} K_j(s^n, z) H(s) E^{-1}, exactly, as a
    matrix over (W, z1..zn); equals diag(zeta^{-m}) = diag(W^{-2m})."""
    kx = qkz_operator_symbolic(j, n, basis="x")
    svars = ("s",) + cohom_vars(n)
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            p = kx[a, b]
            qi = p.vars.index("q")
            terms = (((e[qi] * n,) + e[1:], c) for e, c in p.terms.items())
            row.append(LaurentPoly(svars, terms) * LaurentPoly.variable(svars, "s", a - b))
        rows.append(row)
    res = [[coefficient(rows[a][b], "s", -1) for b in range(n)] for a in range(n)]
    wz = (W,) + cohom_vars(n)
    return _conjugate_by_e(LaurentMatrix([[p.with_vars(wz) for p in row] for row in res]))


def qkz_normal_form_expected(n: int) -> LaurentMatrix:
    wz = (W,) + cohom_vars(n)
    rows = [[LaurentPoly.zero(wz) for _ in range(n)] for _ in range(n)]
    for m in range(n):
        rows[m][m] = LaurentPoly.variable(wz, W, (-2 * m) % (2 * n))
    return _reduce_w(LaurentMatrix(rows), 2 * n)


# -- the scalar equation --------------------------------------------------------------


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
        """Every coefficient zero over an exact field; at most tol in absolute
        value over the reals or the complex numbers."""
        return all(abs(c) <= tol if isinstance(c, (float, complex)) else c == 0 for c in self.coeffs)


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


# -- the residue series ---------------------------------------------------------------


def series_coefficient(series: SolutionSeries, r: int) -> np.ndarray:
    """Restriction vector of the coefficient of q^{z_J + r} of a residue
    series (without the transcendental prefactor); rational in the parameters."""
    v = series._c0
    for l in range(r):
        v = v * series._sign / series._divs[l]
    return v * series._nums[r]


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


def _adaptive_order(n: int, abs_q: float) -> int:
    return max(60, int(4 * n * abs_q ** (1.0 / n)) + 40)


def scaled_element_asymptotic_ratio(
    weights: Sequence[complex], tag: int, r: float, branch: BranchContext, ctx: NumericContext
) -> complex:
    """Ratio of a rescaled basis element (given by its weights on the residue
    series) to the normalized prediction ((2 pi)^{(n-1)/2}/sqrt n)
    e^{-i pi (n-1)/2} (zeta^tag s)^{sum z + (n-1)/2} e^{n s zeta^tag}, with
    arg(zeta^tag s) = 2 pi tag/n - 2 pi phi (continuous in phi, principal near
    the top edge of the base sector)."""
    n = ctx.n
    q = branch.q_value(r, n)
    lq = branch.log_q(r, n)
    order = _adaptive_order(n, abs(q))
    series = [SolutionSeries(J, ctx, order) for J in range(1, n + 1)]
    got = sum(w * s.restrictions(q, lq)[0] for w, s in zip(weights, series))
    total = sum(ctx.z)
    lam = total + (n - 1) / 2
    zeta = cmath.exp(2j * cmath.pi / n)
    s = branch.s_value(r)
    arg = 2 * cmath.pi * tag / n - 2 * cmath.pi * branch.phi
    predicted = (
        (2 * cmath.pi) ** ((n - 1) / 2)
        / math.sqrt(n)
        * cmath.exp(-1j * cmath.pi * (n - 1) / 2)
        * cmath.exp(lam * (math.log(r) + 1j * arg))
        * cmath.exp(n * s * zeta**tag)
    )
    return got / predicted
