"""Equivariant cohomology of P^{n-1} at the level needed for solution theory.

Classes are stored by their restrictions at the n torus-fixed points (the
idempotent basis), where the cup product is componentwise.  The x-power basis
is reached through the Vandermonde matrix of the equivariant parameters.  On
top: the Poincare pairing, the graded Chern character, the Gamma classes, and
the K-theory-to-cohomology comparison morphism together with its matrix.

Each formula is written once, over the scalar field of the parameters z,
which every builder takes explicitly: Fractions when every z_i is rational,
complex numbers when every z_i is a number, and otherwise the values as
given (Laurent polynomials for the formulas that do not divide, or a field
the caller brings).  `parameters` reads the field off the input and
`as_matrix` picks the container of a result: LaurentMatrix over Laurent
polynomials, a complex ndarray over complex numbers, an object ndarray
otherwise.  The numeric solutions of `qde` feed their recursions complex z
even when z is rational; only their D and D^{-1}, ill-conditioned at high
rank, stay over the field of z and are rounded once.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .ring import (
    LaurentMatrix,
    LaurentPoly,
    complete_symmetric,
    elementary_symmetric,
    evars,
    zvars,
)
from .ktheory import KClass

OMEGA_TOL = 1e-9  # distance from the integers that counts as a resonance
SELF_CHECK_ATOL = 1e-9  # absolute tolerance of built-in checks over complex numbers


def cohom_vars(n: int) -> tuple[str, ...]:
    return zvars(n, prefix="z")


# -- the scalar field of the parameters -----------------------------------------------


def over_field(values: Sequence) -> list:
    """The values over their common scalar field: Fractions when every value
    is rational, complex numbers when every value is a number, and as given
    otherwise (Laurent polynomials, or elements of a field the caller brings)."""
    values = list(values)
    if all(isinstance(w, numbers.Rational) for w in values):
        return [Fraction(w) for w in values]
    if all(isinstance(w, numbers.Number) for w in values):
        return [complex(w) for w in values]
    return values


def parameters(n: int, z: Sequence) -> list:
    """z_1..z_n over their scalar field."""
    if len(z) != n:
        raise ValueError(f"expected {n} parameters, got {len(z)}")
    return over_field(z)


def as_matrix(rows, like):
    """The container of a square array over the field of `like`; integer
    entries are lifted into the field."""
    if isinstance(like, LaurentPoly):
        vs = like.vars
        return LaurentMatrix(
            [[x if isinstance(x, LaurentPoly) else LaurentPoly.constant(vs, x) for x in row] for row in rows]
        )
    return np.array(rows, dtype=complex if isinstance(like, (float, complex)) else object)


def is_negligible(x) -> bool:
    """Zero over an exact field; at most SELF_CHECK_ATOL in absolute value
    over the reals or the complex numbers."""
    if isinstance(x, (float, complex)):
        return abs(x) <= SELF_CHECK_ATOL
    return x == 0


def _signed(k: int, x):
    """(-1)^k x."""
    return -x if k % 2 else x


@dataclass(frozen=True)
class NumericContext:
    """Numeric equivariant parameters with a guard against resonances.

    Pairwise differences z_i - z_j must stay OMEGA_TOL away from the
    integers, else Gamma factors blow up and the Vandermonde degenerates.
    """

    z: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(complex(w) for w in self.z))
        self.require_omega()

    @property
    def n(self) -> int:
        return len(self.z)

    def require_omega(self) -> None:
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    continue
                d = self.z[i] - self.z[j]
                if abs(d.imag) < OMEGA_TOL and abs(d.real - round(d.real)) < OMEGA_TOL:
                    raise ValueError(
                        f"parameters outside the resonance-free domain: z{i + 1}-z{j + 1}={d}"
                    )

    def shift(self, i: int) -> "NumericContext":
        """Context with z_i shifted by -1, the qKZ shift."""
        z = list(self.z)
        z[i - 1] -= 1
        return NumericContext(z)

    def gamma(self, w: complex) -> complex:
        from scipy.special import gamma  # scipy loads only in the numeric commands

        return complex(gamma(complex(w)))


class CohClass:
    """Cohomology class stored by fixed-point restrictions (idempotent basis).

    Restriction entries may be exact (LaurentPoly or Fraction), complex
    numbers, or elements of any field; the product is componentwise.
    """

    __slots__ = ("n", "restrictions")

    def __init__(self, n: int, restrictions):
        restrictions = tuple(restrictions)
        if len(restrictions) != n:
            raise ValueError(f"need {n} fixed-point restrictions")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "restrictions", restrictions)

    def __setattr__(self, name, value):
        raise AttributeError("CohClass is immutable")

    def __add__(self, other: "CohClass") -> "CohClass":
        return CohClass(self.n, [a + b for a, b in zip(self.restrictions, other.restrictions)])

    def __sub__(self, other: "CohClass") -> "CohClass":
        return CohClass(self.n, [a - b for a, b in zip(self.restrictions, other.restrictions)])

    def __mul__(self, other) -> "CohClass":
        if isinstance(other, CohClass):
            return CohClass(
                self.n, [a * b for a, b in zip(self.restrictions, other.restrictions)]
            )
        return CohClass(self.n, [a * other for a in self.restrictions])

    __rmul__ = __mul__

    def to_vector(self) -> np.ndarray:
        return np.array([complex(r) for r in self.restrictions], dtype=complex)

    def x_coords(self, ctx: "NumericContext") -> np.ndarray:
        """Coordinates in the basis 1, x, .., x^{n-1}."""
        _, dinv = vandermonde(self.n, ctx.z)
        return dinv @ self.to_vector()

    def __str__(self) -> str:
        return "(" + ", ".join(str(r) for r in self.restrictions) + ")"

    __repr__ = __str__


# -- bases and the Vandermonde matrix ------------------------------------------------


def vandermonde(n: int, z: Sequence):
    """The base change D (rows: fixed points, columns: x-powers), D_{ja} = z_j^a,
    and its closed-form inverse, over the field of z:

        (D^{-1})_{aj} = (-1)^k e_k(z without z_j) / prod_{m != j}(z_j - z_m),
        k = n-1-a.

    D D^{-1} = 1 is asserted."""
    z = parameters(n, z)
    others = [z[:j] + z[j + 1 :] for j in range(n)]
    # the product starts at the field's 1, so that n = 1 stays in the field
    dens = [math.prod((z[j] - w for w in others[j]), start=z[j] ** 0) for j in range(n)]
    d = [[w**a for a in range(n)] for w in z]
    dinv = [
        [_signed(n - 1 - a, elementary_symmetric(others[j], n - 1 - a)) / dens[j] for j in range(n)]
        for a in range(n)
    ]
    for i in range(n):
        for j in range(n):
            x = sum(d[i][k] * dinv[k][j] for k in range(n)) - (1 if i == j else 0)
            if not is_negligible(x):
                raise ArithmeticError("Vandermonde inverse check failed (parameters too close?)")
    return as_matrix(d, z[0]), as_matrix(dinv, z[0])


def g_basis_matrix(n: int, z: Sequence):
    """Columns express the nested-product basis g_j = prod_{a>j}(x - z_a) in
    x-power coordinates (g_n = 1): the coefficient of x^a in g_j is
    (-1)^{n-j-a} e_{n-j-a}(z_{j+1}, .., z_n)."""
    z = parameters(n, z)
    return as_matrix(
        [
            [_signed(n - 1 - j - a, elementary_symmetric(z[j + 1 :], n - 1 - j - a)) for j in range(n)]
            for a in range(n)
        ],
        z[0],
    )


def g_basis_inverse(n: int, z: Sequence):
    """Inverse of `g_basis_matrix`, by Newton's interpolation identity
    x^a = sum_j h_{a-n+j}(z_j, .., z_n) g_j."""
    z = parameters(n, z)
    return as_matrix(
        [[complete_symmetric(z[j:], a - (n - 1 - j)) for a in range(n)] for j in range(n)], z[0]
    )


# -- Poincare pairing -----------------------------------------------------------------


def eta_gram(n: int, z: Sequence):
    """Gram matrix of the Poincare pairing in the x-power basis:
    eta_{ab} = h_{a+b-n+1}(z), so zero under the antidiagonal, one on it and
    complete symmetric functions above."""
    z = parameters(n, z)
    return as_matrix(
        [[complete_symmetric(z, a + b - n + 1) for b in range(n)] for a in range(n)], z[0]
    )


# -- characteristic classes ------------------------------------------------------------


def chern_character(f: KClass, ctx: NumericContext | None = None) -> CohClass:
    """Graded Chern character by fixed-point restriction (`KClass.restrictions`)
    over Z1..Zn; with a context, its values at Z_a = exp(2 pi i z_a), read off
    the coordinates at E_k = e_k(Z) without expanding them in Z1..Zn."""
    if ctx is None:
        return CohClass(f.n, f.restrictions())
    zs = [cmath.exp(2j * cmath.pi * w) for w in ctx.z]
    at = dict(zip(zvars(f.n) + evars(f.n), zs + [elementary_symmetric(zs, k) for k in range(1, f.n + 1)]))
    cs = [c.eval(at) for c in f.ocoords]
    return CohClass(f.n, [sum(c * w**-j for j, c in enumerate(cs)) for w in zs])


def gamma_class(sign: str, ctx: NumericContext) -> CohClass:
    """Gamma class of the tangent bundle: restriction at the point I is
    prod_{a != I} Gamma(1 +- (z_a - z_I))."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    s = 1 if sign == "+" else -1
    n = ctx.n
    res = []
    for i in range(n):
        acc = 1.0 + 0j
        for a in range(n):
            if a == i:
                continue
            acc *= ctx.gamma(1 + s * (ctx.z[a] - ctx.z[i]))
        res.append(acc)
    return CohClass(n, res)


def first_chern_class(ctx: NumericContext) -> CohClass:
    """Equivariant first Chern class of the tangent bundle: restriction
    sum_i z_i - n z_I."""
    total = sum(ctx.z)
    return CohClass(ctx.n, [total - ctx.n * w for w in ctx.z])


def gamma_exp_c1(ctx: NumericContext) -> CohClass:
    """The Gamma class times exp(pi i c_1): restriction
    exp(pi i(sum z - n z_I)) prod_{a != I} Gamma(1 + z_a - z_I) at the point I."""
    c1 = first_chern_class(ctx)
    expc1 = CohClass(ctx.n, [cmath.exp(1j * cmath.pi * complex(r)) for r in c1.restrictions])
    return gamma_class("+", ctx) * expc1


def b_morphism(f: KClass, ctx: NumericContext) -> CohClass:
    """Comparison morphism from K-theory to cohomology: the Gamma class times
    exp(pi i c_1) times the graded Chern character."""
    return gamma_exp_c1(ctx) * chern_character(f, ctx)


def connection_matrix(ctx: NumericContext) -> np.ndarray:
    """Matrix of the comparison morphism from the idempotent basis to the
    x-power basis: D^{-1} diag(gamma_exp_c1)."""
    _, dinv = vandermonde(ctx.n, ctx.z)
    return dinv @ np.diag(gamma_exp_c1(ctx).to_vector())
