"""Irregular-singularity analysis at q = infinity.

After the shearing transformation and the substitution q = s^n, the joint
differential/difference system acquires a diagonalizable leading term with
eigenvalues n zeta^m.  This module computes the shearing coefficients, the
diagonalizing root-of-unity matrix, the formal gauge reduction with its
recursive coefficients, and the Stokes sectors/bases/matrices.  Stokes
matrices are obtained algebraically from the identification of Stokes bases
with the rescaled sorted bases of the K-theory algebra; the basis on e^{i pi} V
is the left dual (the image under the half-twist beta) of the basis on V.  The
divergent-series asymptotics serve only as a loose numeric sanity check.  The
diagonal normal form of the shift operators at infinity, and the exact checks
of the shearing and of E, are identities the tests verify
(`tests/identities.py`, `tests/test_stokes.py`).

Exact statements at roots of unity are proved by adjoining a formal root of
unity W and reducing modulo its cyclotomic polynomial.

Each formula is written once.  The shearing coefficients B_j, the matrix E
and the conjugates hat A_j = E B_j E^{-1} are exact, over the variables
(W, z1..zn) with W a formal primitive 2n-th root of unity; a conjugation by E
is reduced modulo the cyclotomic polynomial Phi_2n(W) as soon as it is
formed.  Their numeric forms (`e_matrix`, the B_0 and B_1 of
`dubrovin_bridge`) are these matrices evaluated at W = e^{i pi/n} and at z;
`formal_reduce_numeric` forms its hat A_j as products of them, and the bridge
integrates its linear system by RK4 step matrices P_k, T_{k+1} = P_k T_k,
built in batches.  The formal gauge recursion and its order-by-order residual
run over the field of their input: Laurent polynomials in (W, z1, z2),
reduced modulo Phi_4(W) after each step, for the exact rank-2 reduction, and
complex numbers at any rank.  Stokes and Gram matrices and the identities
between them are exact over R(GL_n), in E1..En with Ek = e_k(Z), where the
Stokes bases have their line-bundle coordinates; the CLI expands them in
Z1..Zn only to print them.  Stokes = Gram takes one matrix product per
sector, as conjugating by the antidiagonal J reverses rows and columns, and
one Laplace pencil, that of G^{-1} G^dag; the other identities between S1,
S2 and G follow from these (`gram_stokes_check`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .cohomology import SELF_CHECK_ATOL, NumericContext, as_matrix, cohom_vars
from .ktheory import (
    ExceptionalBasis,
    beilinson_basis,
    braid_act,
    braid_constants,
    dioph_residual,
    gram_matrix,
    structured_basis,
)
from .ring import (
    LaurentMatrix,
    LaurentPoly,
    complete_symmetric,
    elementary_symmetric,
    reduce_root_of_unity,
    stirling,
    sym_poly,
)

W = "W"  # the adjoined root of unity, of order 2n unless stated otherwise


# -- Stokes sectors ------------------------------------------------------------------


@dataclass(frozen=True)
class SectorId:
    """A maximal Stokes sector: kind 'Vprime' is (k/n - 1/2 - 1/2n, k/n) in the
    angular coordinate phi, kind 'Vdprime' the complementary family shifted
    down by 1/2n; each spans n+1 consecutive Stokes rays phi = j/2n.  The upper
    edge is the ray j = 2k - [Vdprime]."""

    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in ("Vprime", "Vdprime"):
            raise ValueError("kind must be 'Vprime' or 'Vdprime'")

    def rotate_half(self, n: int) -> "SectorId":
        """Image under s -> e^{i pi} s: phi decreases by 1/2, so the upper
        edge moves from ray 2k - [Vdprime] to ray j = 2k - [Vdprime] - n."""
        j = 2 * self.k - (self.kind == "Vdprime") - n
        return SectorId("Vdprime" if j % 2 else "Vprime", (j + 1) // 2)

    def basis_kind(self) -> str:
        return "Qpt" if self.kind == "Vprime" else "Qppt"


# -- shearing -----------------------------------------------------------------------


def shear_coeffs(n: int) -> list[LaurentMatrix]:
    """Coefficients B_0..B_n of the sheared system dT/ds = (B_0 + B_1/s + ...)T:
    B_0 cyclic with entries n, B_1 = diag(0..n-2, n-1+n s_1(z)), B_j a single
    entry (-1)^{j+1} n s_j(z) at row n+1-j of the last column."""
    vs = cohom_vars(n)
    zero = LaurentPoly.zero(vs)
    b0 = [[zero] * n for _ in range(n)]
    b0[0][n - 1] = LaurentPoly.constant(vs, n)
    for i in range(1, n):
        b0[i][i - 1] = LaurentPoly.constant(vs, n)
    out = [LaurentMatrix(b0)]
    b1 = [[zero] * n for _ in range(n)]
    for i in range(n):
        b1[i][i] = LaurentPoly.constant(vs, i)
    b1[n - 1][n - 1] = b1[n - 1][n - 1] + sym_poly("elementary", 1, n, prefix="z") * n
    out.append(LaurentMatrix(b1))
    for j in range(2, n + 1):
        bj = [[zero] * n for _ in range(n)]
        s = sym_poly("elementary", j, n, prefix="z") * n
        if (j + 1) % 2 == 1:
            s = -s
        bj[n - j][n - 1] = s
        out.append(LaurentMatrix(bj))
    return out


# -- the diagonalizing matrix -----------------------------------------------------------


def e_matrix_exact(n: int, extra_vars: Sequence[str] = ()):
    """(sqrt n E, sqrt n E^{-1}) as matrices of powers of the order-2n root W,
    E_{i,alpha} = W^{(i-1)(2 alpha - 1)}/sqrt n."""
    vs = (W,) + tuple(extra_vars)
    e = LaurentMatrix(
        [
            [LaurentPoly.variable(vs, W, (i * (2 * a + 1)) % (2 * n)) for a in range(n)]
            for i in range(n)
        ]
    )
    einv = LaurentMatrix(
        [
            [LaurentPoly.variable(vs, W, (i * (-2 * a - 1)) % (2 * n)) for i in range(n)]
            for a in range(n)
        ]
    )
    return e, einv


def _evaluate(m: LaurentMatrix, values) -> np.ndarray:
    """m at the given values of its variables, as a complex array."""
    return np.array([[p.eval(values) for p in row] for row in m.entries], dtype=complex)


def e_matrix(n: int):
    """Numeric (E, E^{-1}): `e_matrix_exact` at W = e^{i pi/n}, over sqrt n."""
    at = {W: cmath.exp(1j * cmath.pi / n)}
    e, einv = (_evaluate(m, at) / math.sqrt(n) for m in e_matrix_exact(n))
    if not np.allclose(e @ einv, np.eye(n), atol=1e-13):
        raise ArithmeticError("root-of-unity matrix inverse check failed")
    return e, einv


def _reduce_w(m: LaurentMatrix, order: int) -> LaurentMatrix:
    return m.map(lambda p: reduce_root_of_unity(p, W, order))


def _conjugate_by_e(m: LaurentMatrix) -> LaurentMatrix:
    """E M E^{-1} = (1/n) (sqrt n E) M (sqrt n E^{-1}) over W and the
    variables of M, reduced modulo Phi_2n(W)."""
    n = m.rows
    e, einv = e_matrix_exact(n, tuple(v for v in m.vars if v != W))
    m = m.map(lambda p: p.with_vars(e.vars) * Fraction(1, n))
    return _reduce_w(e * m * einv, 2 * n)


# -- formal reduction ---------------------------------------------------------------------


@dataclass
class FormalSolution:
    """Formal gauge data at infinity: scalar exponent (s_1(z) + (n-1)/2),
    eigenvalues u_m = n zeta^m, gauge coefficients F_0..F_order, and the
    coefficients hat A_0..hat A_n of the equation they solve."""

    n: int
    level: object
    u: list
    coeffs: list
    ahat: list


@lru_cache(maxsize=None)
def _ahat_exact(n: int) -> tuple[LaurentMatrix, ...]:
    """hat A_j = E B_j E^{-1} for j = 0..n over (W, z1..zn); hat A_0 = diag(u)."""
    return tuple(_conjugate_by_e(b) for b in shear_coeffs(n))


def _gauge_recursion(ahat, u, gap_inv, lam, order: int, reduce) -> list:
    """Gauge coefficients F_0..F_order of F = sum_k F_k s^{-k} solving
    F' + F lam/s + F U = (sum_j hat A_j s^{-j}) F with U = diag(u) = hat A_0,
    over the field of the input; gap_inv[a][b] = 1/(u_b - u_a).

    F_0 = 1, then for k = 0..order-1 the coefficient of s^{-(k+1)},

        F_{k+1} U - U F_{k+1} = sum_{j=1}^{k+1} hat A_j F_{k+1-j} - (lam - k) F_k.

    Its off-diagonal part gives the off-diagonal of F_{k+1}.  Its diagonal
    part gives the diagonal of F_k, k >= 1: there hat A_1 F_k contributes
    lam F_k[a][a] (diag hat A_1 = lam), leaving k F_k[a][a].  The diagonal of
    F_order stays zero; `reduce` normalizes each new entry."""
    n = len(u)
    zero = lam * 0
    f = [[[zero + 1 if a == b else zero for b in range(n)] for a in range(n)]]

    def source(k, a, b):
        """(sum_{j=1}^{min(k, n)} hat A_j F_{k-j})[a][b]."""
        return sum(
            (ahat[j][a, g] * f[k - j][g][b] for j in range(1, min(k, n) + 1) for g in range(n)),
            zero,
        )

    for k in range(order):
        if k:
            # F_k[a][a] is still zero here, so source() omits its own term
            for a in range(n):
                f[k][a][a] = reduce(source(k + 1, a, a) * Fraction(-1, k))
        f.append(
            [
                [
                    zero if a == b else reduce((source(k + 1, a, b) - f[k][a][b] * (lam - k)) * gap_inv[a][b])
                    for b in range(n)
                ]
                for a in range(n)
            ]
        )
    return [as_matrix(fk, lam) for fk in f]


def formal_reduce_exact_rank2(order: int) -> FormalSolution:
    """Exact formal reduction for n = 2 over (W, z1, z2), W of order 4 (W = i),
    u = (2, -2)."""
    n = 2
    ahat = _ahat_exact(n)
    vs = ahat[0].vars
    u = [Fraction(n), Fraction(-n)]
    gap_inv = [[1 / (u[b] - u[a]) if a != b else None for b in range(n)] for a in range(n)]
    lam = sym_poly("elementary", 1, n, prefix="z").with_vars(vs) + Fraction(n - 1, 2)
    coeffs = _gauge_recursion(ahat, u, gap_inv, lam, order, lambda p: reduce_root_of_unity(p, W, 2 * n))
    return FormalSolution(n, lam, u, coeffs, ahat)


def formal_reduce_numeric(n: int, z: Sequence[complex], order: int) -> FormalSolution:
    """Numeric formal reduction for any rank: the same recursion over complex
    numbers, with hat A_j = E B_j E^{-1} from the numeric E and B_j at z."""
    zc = [complex(w) for w in z]
    e, einv = e_matrix(n)
    at = dict(zip(cohom_vars(n), zc))
    ahat = [e @ _evaluate(b, at) @ einv for b in shear_coeffs(n)]
    u = [n * cmath.exp(2j * cmath.pi * m / n) for m in range(n)]
    gap_inv = [[1 / (u[b] - u[a]) if a != b else None for b in range(n)] for a in range(n)]
    lam = sum(zc) + (n - 1) / 2
    coeffs = _gauge_recursion(ahat, u, gap_inv, lam, order, lambda x: x)
    return FormalSolution(n, lam, u, coeffs, ahat)


def gauge_substitution_residual_orders(sol: FormalSolution, order: int) -> list[bool]:
    """Per order k = 1..order, whether the coefficient of s^{-k} of the
    defining equation F' + F lam/s + F U - (sum_j hat A_j s^{-j}) F,

        (lam - (k-1)) F_{k-1} + F_k U - sum_{j=0}^{min(k,n)} hat A_j F_{k-j},

    vanishes: exactly after reduction modulo Phi_2n(W), or over complex
    numbers up to SELF_CHECK_ATOL times the largest entry of F_0..F_order
    (at least 1, as F_0 = 1)."""
    n, f, lam = sol.n, sol.coeffs, sol.level
    umat = as_matrix([[sol.u[a] if a == b else 0 for b in range(n)] for a in range(n)], lam)
    if isinstance(lam, LaurentPoly):

        def vanishes(r):
            return all(reduce_root_of_unity(p, W, 2 * n).is_zero() for row in r.entries for p in row)

    else:
        scale = max(np.max(np.abs(c)) for c in f[: order + 1])

        def vanishes(r):
            return bool(np.max(np.abs(r)) <= SELF_CHECK_ATOL * scale)

    out = []
    for k in range(1, order + 1):
        r = f[k - 1] * (lam - (k - 1)) + f[k] @ umat
        for j in range(min(k, n) + 1):
            r = r - sol.ahat[j] @ f[k - j]
        out.append(vanishes(r))
    return out


# -- Stokes bases and matrices -----------------------------------------------------------


@lru_cache(maxsize=None)
def stokes_basis(sector: SectorId, n: int) -> ExceptionalBasis:
    """The rescaled sorted basis attached to the sector, with eigenvalue tags; cached,
    as the Stokes matrices, the Gram matrix and the half turn all start from it."""
    return structured_basis(sector.basis_kind(), sector.k, n)


def stokes_normalization(sector: SectorId, ctx: NumericContext) -> np.ndarray:
    """Diagonal normalization (indexed by eigenvalue tag m) of the sector's
    Stokes fundamental solution:
    (2 pi)^{(n-1)/2} e^{-i pi(n-1)/2} e^{m pi i/n} (zeta^m)^{s_1(z)+(n-1)/2}."""
    n = ctx.n
    lam = sum(ctx.z) + (n - 1) / 2
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        arg = 2 * math.pi * m / n
        if arg > math.pi:
            arg -= 2 * math.pi
        out[m] = (
            (2 * math.pi) ** ((n - 1) / 2)
            * cmath.exp(-1j * cmath.pi * (n - 1) / 2)
            * cmath.exp(1j * cmath.pi * m / n)
            * cmath.exp(lam * 1j * arg)
        )
    return out


def _columns_by_tag(basis: ExceptionalBasis, tag_order: Sequence[int], twist: int) -> LaurentMatrix:
    """Columns: the line-bundle coordinates of the elements times X^twist."""
    pos = {t: i for i, t in enumerate(basis.eigen_tags)}
    cols = [basis.elements[pos[t]].twist(twist).ocoords for t in tag_order]
    return LaurentMatrix([[c[i] for c in cols] for i in range(basis.n)])


def stokes_matrices(sector: SectorId, n: int) -> tuple[LaurentMatrix, LaurentMatrix]:
    """S1 = A0^{-1} A1 and S2 = A1^{-1} A2 over E1..En, A_i the line-bundle
    coordinates of the sector's basis and its half-turn images.  Other
    coordinates (X-powers, a common twist) are P A_i and P cancels.  A
    sector basis with index k is made of O(-k-n+1)..O(-k) and det
    characters, so each quotient twists both bases by X^{-(k+n-1)} of the one
    it inverts, whose coordinates then are monomials.  Upper/lower
    unitriangularity is asserted."""
    sectors = [sector, sector.rotate_half(n), sector.rotate_half(n).rotate_half(n)]
    bases = [stokes_basis(s, n) for s in sectors]
    tag_order = list(reversed(bases[0].eigen_tags))

    def quotient(i: int) -> LaurentMatrix:
        twist = -(sectors[i].k + n - 1)
        a, b = (_columns_by_tag(bases[j], tag_order, twist) for j in (i, i + 1))
        return a.inverse() * b

    s1, s2 = quotient(0), quotient(1)
    if not s1.is_upper_unitriangular():
        raise ArithmeticError("first Stokes matrix is not upper unitriangular (ordering bug)")
    if not s2.is_lower_unitriangular():
        raise ArithmeticError("second Stokes matrix is not lower unitriangular (ordering bug)")
    return s1, s2


def half_turn_is_left_dual(sector: SectorId, n: int) -> bool:
    """The Stokes basis on e^{i pi} V equals the half-twist image of the basis
    on V, elementwise."""
    eps0 = stokes_basis(sector, n)
    eps1 = stokes_basis(sector.rotate_half(n), n)
    beta = braid_constants("beta", n)
    return braid_act(beta, eps0).elements == eps1.elements


def _flip(m: LaurentMatrix) -> LaurentMatrix:
    """J m J for the antidiagonal permutation J: m with rows and columns reversed."""
    return LaurentMatrix([row[::-1] for row in m.entries[::-1]])


def gram_stokes_check(sector: SectorId, n: int) -> dict:
    """The central identities for the Gram matrix G of the sector's basis
    (`gram_matrix`, paired in its sparsest window): S1 J G^dag J = 1 and
    S2 = J G J, J the antidiagonal permutation, and the Laplace pencil of the
    canonical operator G^{-1} G^dag (`dioph_residual`).  J X J is X with its
    rows and columns reversed, so the first is one product and the second none.

    The other verdicts follow.  (J G^dag J)^dag = J G J, so by the first two
    S2 S1^dag = J G J (J G J)^{-1} = 1.  And S1 = J (G^dag)^{-1} J, S2 = J G J
    give c (S2 S1)^{-1} = J c G^dag G^{-1} J, c = (-1)^{n-1} e_n(Z), conjugate
    to c G^{-1} G^dag as c (S1 S2)^{-1} is to c (S2 S1)^{-1}.  With
    det S1 = det G = 1 the formal monodromy's characteristic polynomial is
    c^n chi(lambda / c), chi that of G^{-1} G^dag, and its target is
    prod_j (lambda - Z_j^n) = c^n prod_j (lambda / c - Z_j^n / c); c is a unit,
    so its residual is c^n times the Diophantine one at lambda / c."""
    s1, s2 = stokes_matrices(sector, n)
    g = gram_matrix(stokes_basis(sector, n))
    ok_s1 = s1 * _flip(g.dagger()) == LaurentMatrix.identity(n, g.vars)
    ok_s2 = s2 == _flip(g)
    ok_char = dioph_residual(g, n).is_zero()
    return {
        "sector": sector,
        "stokes_is_dual_gram": ok_s1,
        "stokes_is_gram": ok_s2,
        "dagger_pair": ok_s1 and ok_s2,
        "char_poly": ok_char,
        "formal_monodromy": ok_s1 and ok_s2 and ok_char,
        "s1": s1,
        "s2": s2,
        "gram": g,
    }


# -- roots of unity --------------------------------------------------------------------------


def root_of_unity_point(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(m, n) for m in range(n))


def scalar_collapse_residual(n: int) -> LaurentPoly:
    """Difference, as a polynomial in a formal eigenvalue variable, between the
    rescaled scalar symbol at the distinguished root-of-unity point and the
    falling factorial: zero iff the scalar equation collapses to
    phi^{(n)} = n^n phi after q = s^n."""
    vs = ("a",)
    a = LaurentPoly.variable(vs, "a")
    zo = root_of_unity_point(n)
    lhs = a**n * Fraction(1, n**n)
    for j in range(1, n):
        s = elementary_symmetric(list(zo), n - j)
        sign = 1 if (n - j) % 2 == 0 else -1
        lhs = lhs + a**j * (Fraction(sign) * s * Fraction(1, n**j))
    sn = elementary_symmetric(list(zo), n)
    sign = 1 if (n - 1) % 2 == 0 else -1
    lhs = lhs - LaurentPoly.constant(vs, Fraction(sign) * sn)
    falling = LaurentPoly.one(vs)
    for i in range(n):
        falling = falling * (a - i)
    return lhs - falling * Fraction(1, n**n)


def stirling_value_checks(n: int) -> bool:
    """s_k(0, 1/n, .., (n-1)/n) = [n, n-k]/n^k and the analogous complete-sum
    identity with second-kind numbers."""
    zo = root_of_unity_point(n)
    for k in range(1, n + 1):
        if elementary_symmetric(list(zo), k) != Fraction(stirling("first", n, n - k), n**k):
            return False
    for k in range(1, 5):
        if complete_symmetric(zo, k) != Fraction(stirling("second", n + k - 1, n - 1), n**k):
            return False
    return True


def _at_unity_roots(p: LaurentPoly, n: int):
    """p over E1..En at Z_m = V^{m-1}, V a primitive n-th root of unity: a
    rational number, as e_k = 0 there for 0 < k < n and e_n = (-1)^{n-1}."""
    return sum(c * (-1) ** ((n - 1) * e[-1] % 2) for e, c in p.terms.items() if not any(e[:-1]))


def _identity_at_unity(m: LaurentMatrix, n: int) -> bool:
    """m specializes to the identity at Z_m = V^{m-1}, exactly."""
    return all(
        _at_unity_roots(m[a, b], n) == (1 if a == b else 0) for a in range(n) for b in range(n)
    )


def stokes_trivial_at_unity(sector: SectorId, n: int) -> bool:
    """Both Stokes matrices specialize to the identity at the distinguished
    root-of-unity parameters, exactly."""
    return all(_identity_at_unity(s, n) for s in stokes_matrices(sector, n))


def gram_orthonormal_at_unity(n: int) -> bool:
    """The Gram matrix of the consecutive line-bundle basis specializes to the
    identity (orthonormality of exceptional bases at the degenerate point)."""
    return _identity_at_unity(gram_matrix(beilinson_basis(n)), n)


def partition_basis_values(n: int, s: complex) -> np.ndarray:
    """g_m(s) = sum_k (n s)^{m+kn}/(m+kn)! for m = 0..n-1, through k = 119."""
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        term = (n * s) ** m / math.factorial(m)
        total = term
        for k in range(1, 120):
            for j in range(m + (k - 1) * n + 1, m + k * n + 1):
                term = term * (n * s) / j
            total += term
        out[m] = total
    return out


def roots_of_unity_suite(n: int) -> dict:
    """The degeneration report: scalar collapse, Stirling identities, exact
    Stokes triviality, orthonormality, monodromy order, eigenbasis property,
    and the partition of the exponential."""
    report = {
        "n": n,
        "scalar_collapse": scalar_collapse_residual(n).is_zero(),
        "stirling_values": stirling_value_checks(n),
    }
    report["stokes_trivial"] = all(
        stokes_trivial_at_unity(SectorId(kind, 0), n) for kind in ("Vprime", "Vdprime")
    )
    report["orthonormal_gram"] = gram_orthonormal_at_unity(n)
    zo = [complex(w) for w in root_of_unity_point(n)]
    m0 = np.diag([cmath.exp(2j * cmath.pi * w) for w in zo])
    report["monodromy_order"] = bool(
        np.allclose(np.linalg.matrix_power(m0, n), np.eye(n), atol=1e-12)
        and not any(
            np.allclose(np.linalg.matrix_power(m0, k), np.eye(n), atol=1e-12)
            for k in range(1, n)
        )
    )
    # shifted lattice point: same exponentials, same monodromy
    zshift = [zo[0] + 1] + zo[1:]
    m1 = np.diag([cmath.exp(2j * cmath.pi * w) for w in zshift])
    report["monodromy_order_shifted"] = bool(np.allclose(m1, m0, atol=1e-12))
    s = 0.83 + 0.21j
    zeta = cmath.exp(2j * cmath.pi / n)
    g0 = partition_basis_values(n, s)
    g1 = partition_basis_values(n, zeta * s)
    dev = max(
        abs(g1[m] - zeta**m * g0[m]) / max(abs(g0[m]), 1e-30) for m in range(n)
    )
    report["eigenbasis_deviation"] = float(dev)
    report["partition_deviation"] = float(abs(np.sum(g0) - cmath.exp(n * s)))
    # away from the degenerate locus at least one off-diagonal entry survives
    s1, _ = stokes_matrices(SectorId("Vprime", 0), n)
    report["nontrivial_generically"] = any(
        not s1[a, b].is_zero() for a in range(n) for b in range(n) if a != b
    )
    return report


# -- bridge to the isomonodromic system at zero parameters -------------------------------------


def antisymmetric_v_exact(n: int) -> bool:
    """V = E mu E^{-1} with mu = diag(0..n-1) - (n-1)/2 satisfies V^T + V = 0,
    exactly over the adjoined root of unity."""
    vs = (W,)
    mu = [
        [LaurentPoly.constant(vs, Fraction(2 * a - (n - 1), 2) if a == b else 0) for b in range(n)]
        for a in range(n)
    ]
    v = _conjugate_by_e(LaurentMatrix(mu))
    return (v + v.transpose()) == LaurentMatrix.zero(n, n, vs)


def _rk4_linear(b0: np.ndarray, b1: np.ndarray, s0: float, h: float, steps: int) -> list[np.ndarray]:
    """T_0 = I, ..., T_steps of dT/ds = A(s) T, A(s) = b0 + b1/s, by classical
    RK4 with step h from s0.  The system is linear, so a step is a matrix,
    T_{k+1} = P_k T_k with P_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A(s_k),
    K2 = A(s_k + h/2)(I + h/2 K1), K3 = A(s_k + h/2)(I + h/2 K2) and
    K4 = A(s_k + h)(I + h K3); the P_k are built by batched products over
    blocks of 128 steps, which bounds the memory."""
    eye = np.eye(len(b0))
    ts = [eye.astype(complex)]
    for lo in range(0, steps, 128):
        s = s0 + h * np.arange(lo, min(lo + 128, steps))[:, None, None]
        k1, mid, end = (b0 + b1 / (s + d) for d in (0, h / 2, h))
        k2 = mid @ (eye + h / 2 * k1)
        k3 = mid @ (eye + h / 2 * k2)
        k4 = end @ (eye + h * k3)
        for p in eye + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4):
            ts.append(p @ ts[-1])
    return ts


def dubrovin_bridge(n: int) -> dict:
    """Integrate dT/ds = (B0 + B1(0)/s) T from T(1) = I by RK4 step matrices
    (h = 1e-3) up to the last point the stencil reads, and verify at lambda =
    1.4 and 2.1 that lambda^{-(n-1)/2} E T(lambda) solves dY/dlambda =
    (U + V/lambda) Y, V antisymmetric; dY by a five-point stencil on the grid."""
    e, einv = e_matrix(n)
    b0, b1 = (_evaluate(b, dict.fromkeys(cohom_vars(n), 0)) for b in shear_coeffs(n)[:2])
    mu = b1 - (n - 1) / 2 * np.eye(n)
    u = np.diag(n * np.exp(2j * np.pi * np.arange(n) / n))
    v = e @ mu @ einv
    antisym = float(np.max(np.abs(v + v.T)))

    h, s0 = 1e-3, 1.0
    idxs = [int(round((lam - s0) / h)) for lam in (1.4, 2.1)]
    ts = _rk4_linear(b0, b1, s0, h, max(idxs) + 2)

    def y_at(idx):
        lam = s0 + idx * h
        return lam ** (-(n - 1) / 2) * (e @ ts[idx])

    worst = 0.0
    for idx in idxs:
        lam = s0 + idx * h
        dy = (-y_at(idx + 2) + 8 * y_at(idx + 1) - 8 * y_at(idx - 1) + y_at(idx - 2)) / (12 * h)
        y = y_at(idx)
        res = dy - (u + v / lam) @ y
        worst = max(worst, float(np.linalg.norm(res) / np.linalg.norm(y)))
    return {"n": n, "antisymmetry": antisym, "residual": worst}
