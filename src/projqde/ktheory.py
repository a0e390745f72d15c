"""Equivariant K-theory algebra of P^{n-1} and its exceptional-basis calculus.

The algebra is C[X^{±1}, Z_1^{±1}..Z_n^{±1}] / (prod_j (X - Z_j)), with X the
class of the tautological line bundle O(-1).  A class is stored by its
coordinates in the line-bundle basis O(0)..O(n-1), where the Euler pairing is
chi(f, g) = (f^*H) g with H the fixed Beilinson Gram matrix, H_ab =
chi(O(a), O(b)) = h_{b-a}(Z^{-1}) for a <= b and 0 otherwise.  H is the same on
any n consecutive line bundles, so an exceptional basis is paired twisted by the
O(s) under which its densest class has the fewest terms: a Serre twist has
hundreds of terms in O(0)..O(n-1), and untwisted as few as its source.  Every chi
of the module is paired in that window by `_columns` and `_pair`: a basis in full
(`_pairing`), `chi_pair` and `mutate` only the entries they read.  A basis keeps
its fresh pairing, without characters, once `is_exceptional` or `gram_matrix` has
made it.  `braid_act` carries the Gram matrix of its slots, from the input's kept
pairing or a full pairing of its classes, through each move's change of basis,
and reads each coefficient and pivot's chi(e, e) = 1 off it; its final check
pairs the returned classes afresh, so what a basis keeps never comes from the
moves.

A class takes one of three storage forms, chosen by the input:

- coordinates in the representation ring R(GL_n) = Z[e_1..e_{n-1}, e_n^{±1}],
  written as Laurent polynomials in E1..En with Ek = e_k(Z).  Line bundles,
  exterior powers of the tangent bundle, det twists and everything built from
  them by mutation live here, with a handful of terms where the expansion in Z
  has hundreds.  Duality acts on it as e_k -> e_{n-k}/e_n.
- those coordinates times a torus character Z^a, for a class scaled by one
  Z-term: chi(Z^a e, Z^b f) = Z^{b-a} chi(e, f) and L_{Z^a e}(Z^b f) = Z^b L_e f,
  so the calculus runs without the character until a value leaves the class.
- the Laurent ring in Z1..Zn, for other torus-only input: a class given by
  arbitrary Laurent coefficients, or a scalar that is not symmetric.

Arithmetic that mixes E and Z, or two characters, expands E in Z.  The
defining relation prod_j (X - Z_j) = sum_k (-1)^k e_k X^{n-k} has its
coefficients in R(GL_n), so every O(i) has coordinates there.  Gram matrices
and the Diophantine checks stay in the ring of the basis; coordinates in the
monomial basis X^0..X^{n-1} (`coeffs`, `to_laurent`) and the values of
`chi_pair` are expanded in Z, and so is what the CLI prints.

On top of the algebra: the sesquilinear Euler pairing chi, Gram matrices,
left/right mutations, the braid-group action on exceptional bases, dual bases,
the canonical (Serre) operator, Diophantine constraints on Gram matrices, and
the named solution bases built from line bundles and exterior powers of the
tangent bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, sub

from .ring import (
    LAMBDA,
    LaurentMatrix,
    LaurentPoly,
    evars,
    sym_poly,
    unit_pow,
    zvars,
)


def xz_vars(n: int) -> tuple[str, ...]:
    return ("X",) + zvars(n)


@lru_cache(maxsize=None)
def _e(n: int, k: int) -> LaurentPoly:
    """e_k(Z) in the representation ring (e_0 = 1)."""
    vs = evars(n)
    return LaurentPoly.one(vs) if k == 0 else LaurentPoly.variable(vs, f"E{k}")


def _en_power(n: int, a: int, c=1) -> LaurentPoly:
    """c e_n^a in the representation ring; e_n = Z1...Zn is a unit."""
    return LaurentPoly.monomial(evars(n), (0,) * (n - 1) + (a,), c)


def unit_c(n: int, a: int = 1) -> LaurentPoly:
    """c^a for the unit c = (-1)^{n-1} e_n: the canonical operator is X^n / c,
    the formal monodromy is c (S1 S2)^{-1}, and the rescaled sorted bases
    carry c^{-floor(m/n)}.  The sign stays an int for any a."""
    return _en_power(n, a, (-1) ** ((n - 1) * a % 2))


@lru_cache(maxsize=None)
def _e_monomial_in_z(n: int, exps: tuple[int, ...], head: tuple[str, ...] = ()) -> LaurentPoly:
    """prod_k e_k(Z)^{exps_k} expanded in head + (Z1..Zn)."""
    if head:
        return _e_monomial_in_z(n, exps).with_vars(head + zvars(n))
    for k in range(n - 1):
        if exps[k] < 0:
            raise ValueError(f"not in R(GL_{n}): E{k + 1} has the negative power {exps[k]}")
        if exps[k]:
            lower = exps[:k] + (exps[k] - 1,) + exps[k + 1 :]
            return _e_monomial_in_z(n, lower) * sym_poly("elementary", k + 1, n)
    return LaurentPoly.monomial(zvars(n), (exps[-1],) * n)


def to_z(p: LaurentPoly, n: int) -> LaurentPoly:
    """Expand a polynomial in (V..., E1..En), for leading variables V such as
    LAM, in (V..., Z1..Zn); one over Z1..Zn is returned as it is."""
    k = len(p.vars) - n
    head, ring = p.vars[:k], p.vars[k:]
    if ring == zvars(n):
        return p
    if ring != evars(n):
        raise ValueError(f"expected a polynomial over E1..En or Z1..Zn, got {p.vars}")
    vs, zero = head + zvars(n), (0,) * n
    pairs = (
        (LaurentPoly.monomial(vs, e[:k] + zero, c), _e_monomial_in_z(n, e[k:], head)) for e, c in p.terms.items()
    )
    return LaurentPoly.sum_of_products(vs, pairs)


def _z_times(p: LaurentPoly, a: tuple[int, ...], b: tuple[int, ...]) -> LaurentPoly:
    """Z^{b-a} p over Z1..Zn, for p over E1..En or Z1..Zn."""
    d, n = tuple(map(sub, b, a)), len(a)
    return to_z(p, n) * LaurentPoly.monomial(zvars(n), d) if any(d) else to_z(p, n)


@lru_cache(maxsize=None)
def _o_power_coords(vs: tuple[str, ...], i: int) -> tuple[LaurentPoly, ...]:
    """Coordinates of the class of O(i) in the basis O(0)..O(n-1), with
    coefficients in the ring with variables vs (E1..En or Z1..Zn).

    Uses the twisted defining relation sum_k (-1)^k e_k [O(m-n+k)] = 0, whose
    coefficients lie in the representation ring.
    """
    n = len(vs)
    if vs == zvars(n):
        return tuple(to_z(c, n) for c in _o_power_coords(evars(n), i))
    if 0 <= i < n:
        return tuple(
            LaurentPoly.one(vs) if j == i else LaurentPoly.zero(vs) for j in range(n)
        )
    if i >= n:
        # [O(i)] = c^{-1} sum_{k=0..n-1} (-1)^k e_k [O(i-n+k)]
        return _expand(vs, [(_e(n, k) * unit_c(n, -1) * (-1) ** k, i - n + k) for k in range(n)])
    # i < 0: [O(i)] = -sum_{k=1..n} (-1)^k e_k [O(i+k)]
    return _expand(vs, [(_e(n, k) * (-1) ** (k + 1), i + k) for k in range(1, n + 1)])


def _expand(vs: tuple[str, ...], terms) -> tuple[LaurentPoly, ...]:
    """Line-bundle coordinates of sum c [O(i)] over (c, i) in terms, for
    coefficients c in the ring with variables vs."""
    parts = [(c, _o_power_coords(vs, i)) for c, i in terms if not c.is_zero()]
    return tuple(LaurentPoly.sum_of_products(vs, ((c, o[a]) for c, o in parts)) for a in range(len(vs)))


def _step(co: tuple[LaurentPoly, ...], d: int) -> tuple[LaurentPoly, ...]:
    """Coordinates of f O(d), d = +-1: each one moves one slot, and the one that leaves
    comes back through those of O(n) or O(-1), n monomials over E1..En."""
    edge = _o_power_coords(co[0].vars, len(co) if d > 0 else -1)
    if d > 0:
        return (co[-1] * edge[0],) + tuple(x.plus_product(co[-1], o) for x, o in zip(co, edge[1:]))
    return tuple(x.plus_product(co[0], o) for x, o in zip(co[1:], edge)) + (co[0] * edge[-1],)


def _walk(co: tuple[LaurentPoly, ...], d: int, s: int = 0) -> tuple[int, int]:
    """(size, s) where f O(s), coordinates co, stops when stepped by d while its term
    count falls.  A step removes at most the leaving coordinate and that many terms of
    each other one: none is taken that cannot shrink f, nor from 2n terms or fewer,
    where the steps and the twist cost more than the pairing saves."""
    sizes = [c.term_count() for c in co]
    edge = sizes.pop(-1 if d > 0 else 0)
    size = edge + sum(sizes)
    if size > 2 * len(co) and edge + sum(abs(x - edge) for x in sizes) < size:
        nxt = _step(co, d)
        if sum(c.term_count() for c in nxt) < size:
            return _walk(nxt, d, s + d)
    return size, s


def _sparsest_window(els: list["KClass"]) -> list["KClass"]:
    """The classes times the common line bundle O(s) under which the densest of
    them has the fewest terms, characters unchanged: chi(f O(s), g O(s)) = chi(f, g)."""
    densest = max((e._co for e in els), key=lambda co: sum(c.term_count() for c in co))
    s = min(_walk(densest, 1), _walk(densest, -1))[1]
    return [e.twist(-s) for e in els] if s else list(els)


@lru_cache(maxsize=None)
def _h_dual(vs: tuple[str, ...], k: int) -> LaurentPoly:
    """h_k(Z^{-1}) = chi(O(a), O(a+k)) in the ring with variables vs."""
    n = len(vs)
    if vs == zvars(n):
        return to_z(_h_dual(evars(n), k), n)
    if k == 0:
        return LaurentPoly.one(vs)
    # h_k = sum_{i=1..min(k,n)} (-1)^{i-1} e_i h_{k-i}, taken at Z^{-1}
    pairs = ((_e(n, i).dual() * (-1) ** (i - 1), _h_dual(vs, k - i)) for i in range(1, min(k, n) + 1))
    return LaurentPoly.sum_of_products(vs, pairs)


class KClass:
    """Element of the equivariant K-theory algebra.

    Stored as Z^_char sum_a _co[a] O(a): coordinates in the basis O(0)..O(n-1)
    over E1..En (the representation ring of GL_n) or Z1..Zn, and a character,
    nonzero only over E1..En and on a nonzero class, with smallest exponent 0.
    The form is unique (Z^d s, s symmetric, is symmetric only for d in Z(1,..,1))
    and mutation keeps it: L_{Z^a e}(Z^b f) = Z^b L_e f.  The constructor takes
    the coordinates and the character and brings them to this form; a Laurent
    polynomial in (X, Z1..Zn) comes in through `kclass_from_laurent`.
    """

    __slots__ = ("n", "_co", "_char")

    def __init__(self, co, char=None):
        """The class Z^char sum_a co_a O(a), in normal form."""
        co = tuple(co)
        char = (0,) * len(co) if char is None or any(char) and all(c.is_zero() for c in co) else char
        if m := min(char):  # e_n^m moves into the coordinates
            co, char = tuple(c * _en_power(len(co), m) for c in co), tuple(a - m for a in char)
        object.__setattr__(self, "n", len(co))
        object.__setattr__(self, "_co", co)
        object.__setattr__(self, "_char", char)

    def __setattr__(self, name, value):
        raise AttributeError("KClass is immutable")

    @classmethod
    def zero(cls, n: int) -> "KClass":
        return cls([LaurentPoly.zero(evars(n))] * n)

    @classmethod
    def x_power(cls, n: int, m: int) -> "KClass":
        """X^m, i.e. the class of O(-m)."""
        return cls(_o_power_coords(evars(n), -m))

    @classmethod
    def line_bundle(cls, n: int, i: int) -> "KClass":
        """Class of O(i) = X^{-i}."""
        return cls.x_power(n, -i)

    @property
    def ring(self) -> tuple[str, ...]:
        """Variables of the ring of `ocoords`: E1..En or Z1..Zn."""
        return zvars(self.n) if any(self._char) else self._co[0].vars

    @property
    def ocoords(self) -> tuple[LaurentPoly, ...]:
        """Coordinates in the line-bundle basis O(0)..O(n-1), over `ring`."""
        return self._in_z()._co if any(self._char) else self._co

    def _in_z(self) -> "KClass":
        """The same class with its coefficients expanded in Z1..Zn."""
        if self._co[0].vars == zvars(self.n):
            return self
        return KClass(_z_times(c, (0,) * self.n, self._char) for c in self._co)

    def _common(self, other: "KClass") -> tuple["KClass", "KClass"]:
        """Both classes over one ring with one character, else both in Z."""
        f, g = _one_ring([self, other])
        if f._char != g._char:
            return f._in_z(), g._in_z()
        return f, g

    def __add__(self, other: "KClass") -> "KClass":
        f, g = self._common(other)
        return KClass((a + b for a, b in zip(f._co, g._co)), f._char)

    def __sub__(self, other: "KClass") -> "KClass":
        f, g = self._common(other)
        return KClass((a - b for a, b in zip(f._co, g._co)), f._char)

    def __neg__(self) -> "KClass":
        return KClass((-a for a in self._co), self._char)

    def scale(self, rho: LaurentPoly) -> "KClass":
        """Multiply by a scalar over the coordinates' ring, by one Z-term c Z^a (added to the
        character of coordinates over E1..En) or by another polynomial in Z1..Zn (expands in Z)."""
        vs = self._co[0].vars
        if rho.vars == vs:
            return KClass((c * rho for c in self._co), self._char)
        if rho.vars == zvars(self.n) != vs and rho.is_unit_monomial():
            ((a, c),) = rho.terms.items()
            return KClass((x * c for x in self._co), tuple(map(add, self._char, a)))
        f, rho = self._in_z(), to_z(rho, self.n)
        return KClass(c * rho for c in f._co)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KClass):
            return NotImplemented
        if self.n != other.n:
            return False
        f, g = _one_ring([self, other])
        return f._char == g._char and f._co == g._co

    __hash__ = None

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._co)

    @property
    def coeffs(self) -> tuple[LaurentPoly, ...]:
        """Coordinates in the monomial basis X^0..X^{n-1}, expanded in Z1..Zn."""
        # X^j = O(-j) is O(n-1-j) twisted by O(1-n)
        return tuple(reversed(self.twist(1 - self.n)._in_z()._co))

    def to_laurent(self) -> LaurentPoly:
        vs = xz_vars(self.n)
        pairs = [(c.with_vars(vs), LaurentPoly.variable(vs, "X", j)) for j, c in enumerate(self.coeffs)]
        return LaurentPoly.sum_of_products(vs, pairs)

    def restrictions(self) -> tuple[LaurentPoly, ...]:
        """Restrictions to the n torus-fixed points, over Z1..Zn: O(j)
        restricts to Z_a^{-j} at the point a."""
        vs = zvars(self.n)
        cs = self._in_z()._co
        return tuple(
            LaurentPoly.sum_of_products(vs, [(c, LaurentPoly.variable(vs, z, -j)) for j, c in enumerate(cs)])
            for z in vs
        )

    def twist(self, m: int) -> "KClass":
        """Multiply by X^m (tensor with O(-m)): O(a) -> O(a-m), by |m| one-slot steps."""
        return KClass(reduce(_step, [-1 if m > 0 else 1] * abs(m), self._co), self._char)

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": [c.to_json() for c in self.coeffs]}

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"

    __repr__ = __str__


def kclass_from_laurent(f: LaurentPoly, n: int) -> KClass:
    """Reduce a Laurent polynomial in (X, Z1..Zn) to a class over Z1..Zn."""
    if f.vars != xz_vars(n):
        f = f.with_vars(xz_vars(n))
    return KClass(_expand(zvars(n), [(c, -m) for m, c in f.as_series("X").items()]))


def serre_twist(e: KClass) -> KClass:
    """Canonical operator on classes: tensor by the canonical sheaf and shift,
    i.e. multiply by X^n / c with c = (-1)^{n-1} prod Z_j."""
    return e.twist(e.n).scale(unit_c(e.n, -1))


# -- Euler pairing -----------------------------------------------------------------


def _columns(f: KClass) -> tuple[LaurentPoly, ...]:
    """The row vector f^*H over the ring of f, without its character, H the
    Beilinson Gram matrix: column b sums f_a^* h_{b-a}(Z^{-1}) over the nonzero
    f_a, a <= b."""
    vs = f._co[0].vars
    fd = [(a, c.dual()) for a, c in enumerate(f._co) if not c.is_zero()]
    return tuple(
        LaurentPoly.sum_of_products(vs, ((d, _h_dual(vs, b - a)) for a, d in fd if a <= b)) for b in range(f.n)
    )


def _pair(cols: tuple[LaurentPoly, ...], g: KClass) -> LaurentPoly:
    """chi(f, g) without characters: (f^*H) g from the columns f^*H of f, g over their ring."""
    return LaurentPoly.sum_of_products(g._co[0].vars, zip(cols, g._co))


def _pairing(els: list[KClass]) -> tuple:
    """The rows chi(e_i, e_j), without characters, of classes over one ring, paired
    in their sparsest window by `_columns` and `_pair`, as every chi here is."""
    els = _sparsest_window(els)
    return tuple(tuple(_pair(cols, ej) for ej in els) for cols in map(_columns, els))


def _one_ring(els) -> list[KClass]:
    """The classes over one ring, each with its character: E1..En when all of them are, else Z1..Zn."""
    if any(e.n != els[0].n for e in els):
        raise ValueError("rank mismatch")
    if any(e._co[0].vars != els[0]._co[0].vars for e in els):
        return [e._in_z() for e in els]
    return list(els)


def chi_pair(f: KClass, g: KClass) -> LaurentPoly:
    """Equivariant Euler pairing chi(f, g) as a Laurent polynomial in Z1..Zn,
    sesquilinear over the Laurent ring (dual on the first slot).  Computed in
    the line-bundle basis, where chi(O(a), O(b)) is h_{b-a}(Z^{-1}) for a <= b
    and zero otherwise, of both classes twisted into their sparsest window."""
    f, g = _sparsest_window(_one_ring([f, g]))
    return _z_times(_pair(_columns(f), g), f._char, g._char)


# -- exceptional bases --------------------------------------------------------------


class ExceptionalBasis:
    """Ordered exceptional basis with object labels and optional eigenvalue tags."""

    __slots__ = ("elements", "labels", "eigen_tags", "_rows")

    def __init__(self, elements, labels=None, eigen_tags=None, verify: bool = True):
        elements = tuple(elements)
        if not elements:
            raise ValueError("an exceptional basis needs at least one element")
        n = elements[0].n
        if len(elements) != n:
            raise ValueError(f"an exceptional basis of rank {n} needs {n} elements")
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(n))
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError("one label per element")
        if eigen_tags is not None:
            eigen_tags = tuple(eigen_tags)
            if sorted(eigen_tags) != list(range(n)):
                raise ValueError("eigen tags must be a permutation of 0..n-1")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "eigen_tags", eigen_tags)
        object.__setattr__(self, "_rows", None)
        if verify and not self.is_exceptional():
            raise ValueError("basis is not exceptional (Gram not unitriangular)")

    def __setattr__(self, name, value):
        raise AttributeError("ExceptionalBasis is immutable")

    @property
    def n(self) -> int:
        return self.elements[0].n

    def _chi_rows(self) -> tuple:
        """chi(e_i, e_j) without characters over the ring of `_one_ring(elements)`, the
        classes paired in their sparsest window on first use and kept: the basis is immutable."""
        if self._rows is None:
            object.__setattr__(self, "_rows", _pairing(_one_ring(self.elements)))
        return self._rows

    def is_exceptional(self) -> bool:
        """chi(e_j, e_j) = 1 and chi(e_j, e_i) = 0 for i < j, read off the basis's kept
        pairing (`_chi_rows`): of the classes themselves, never a carried Gram matrix."""
        return all(r[j] == 1 and all(p.is_zero() for p in r[:j]) for j, r in enumerate(self._chi_rows()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExceptionalBasis):
            return NotImplemented
        return self.elements == other.elements

    __hash__ = None

    def __str__(self) -> str:
        return "(" + ", ".join(self.labels) + ")"

    __repr__ = __str__


def beilinson_basis(n: int) -> ExceptionalBasis:
    """(O(0), O(1), ..., O(n-1))."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    return ExceptionalBasis(
        [KClass.line_bundle(n, i) for i in range(n)],
        [f"O({i})" for i in range(n)],
        verify=False,
    )


def gram_matrix(basis: ExceptionalBasis) -> LaurentMatrix:
    """G_ij = chi(e_i, e_j) over the coefficient ring of the basis (E1..En when every
    element is equivariant, Z1..Zn otherwise), from the pairing of its own classes
    that the basis keeps (`_chi_rows`), never from a carried Gram matrix."""
    rows, chars = basis._chi_rows(), [e._char for e in _one_ring(basis.elements)]
    if any(map(any, chars)):  # Z^{c_j - c_i} times the entries without characters
        rows = [[_z_times(p, a, b) for p, b in zip(r, chars)] for r, a in zip(rows, chars)]
    return LaurentMatrix(rows)


def _mutation(f: KClass, e: KClass, m: LaurentPoly) -> KClass:
    """f + m e over the common ring of f and e, with f's character: mutations keep
    characters out, L_{Z^a e}(Z^b f) = Z^b L_e f and so for R."""
    return KClass((x.plus_product(y, m) for x, y in zip(f._co, e._co)), f._char)


def mutate(side: str, e: KClass, f: KClass) -> KClass:
    """Left mutation f - chi(e,f) e or right mutation f - chi(f,e)^* e: chi(e,e) and
    the one other chi it reads are paired in the sparsest window of e and f."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    e, f = _one_ring([e, f])
    we, wf = _sparsest_window([e, f])
    cols = _columns(we)
    if _pair(cols, we) != 1:
        raise ValueError("mutation pivot is not exceptional (chi(e,e) != 1)")
    return _mutation(f, e, -(_pair(cols, wf) if side == "left" else _pair(_columns(wf), we).dual()))


# -- braid words and the braid action -----------------------------------------------


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid group generators; letter i means tau_i, -i its inverse."""

    letters: tuple[int, ...]

    def __post_init__(self):
        for t in self.letters:
            if t == 0:
                raise ValueError("letter 0 is not a generator")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple(-t for t in reversed(self.letters)))

    def __pow__(self, k: int) -> "BraidWord":
        base = self if k >= 0 else self.inverse()
        return BraidWord(base.letters * abs(k))

    def to_json(self) -> list[int]:
        return list(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "".join(f"t{t}" if t > 0 else f"t{-t}'" for t in self.letters)


def _gram_step(rows: list, a: int, b: int, m: LaurentPoly, md: LaurentPoly) -> None:
    """The slots' Gram matrix after x_a -> x_a + m x_b, md = m^*: column a gains
    column b times m, then row a gains md times row b."""
    for row in rows:
        row[a] = row[a].plus_product(row[b], m)
    rows[a] = [x.plus_product(y, md) for x, y in zip(rows[a], rows[b])]


def _move(els: list, labels: list, rows: list, a: int, b: int, side: str) -> None:
    """x_a -> x_a + m x_b by the pivot x_b, m = -chi(x_a, x_b)^* (side R) or
    -chi(x_b, x_a) (side L) read off the carried Gram matrix, which the move
    updates without pairing a class; then slots a and b swap."""
    if rows[b][b] != 1:
        raise ValueError("mutation pivot is not exceptional (chi(e,e) != 1)")
    x = -rows[a][b] if side == "R" else -rows[b][a]
    m, md = (x.dual(), x) if side == "R" else (x, x.dual())
    els[a], labels[a] = _mutation(els[a], els[b], m), f"{side}({labels[a]}|{labels[b]})"
    _gram_step(rows, a, b, m, md)
    for xs in [els, labels, rows, *rows]:
        xs[a], xs[b] = xs[b], xs[a]


def _move_right(els: list, labels: list, rows: list, i: int) -> None:
    """Collection move at slot i (1-based): (.., e, f, ..) -> (.., f, R_f e, ..)."""
    _move(els, labels, rows, i - 1, i, "R")


def _move_left(els: list, labels: list, rows: list, i: int) -> None:
    """Inverse collection move: (.., e, f, ..) -> (.., L_e f, e, ..)."""
    _move(els, labels, rows, i, i - 1, "L")


def braid_act(word: BraidWord, basis: ExceptionalBasis, verify: bool = True) -> ExceptionalBasis:
    """Left action of a braid word: generator tau_i acts as the slot move at
    n - i, inverse letters as the inverse move.  Letters apply right to left.
    The carried Gram matrix starts as a copy of the input's kept pairing, or else of
    a full `_pairing` of its classes; none is made or kept on the input.  The final
    check pairs the returned classes afresh, the output keeps that pairing, and the
    carried matrix must equal it."""
    n = basis.n
    els, labels = _one_ring(basis.elements), list(basis.labels)
    rows = [list(r) for r in basis._rows or _pairing(els)]
    for t in reversed(word.letters):
        i = n - abs(t)
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {abs(t)} out of range for rank {n}")
        (_move_right if t > 0 else _move_left)(els, labels, rows, i)
    out = ExceptionalBasis(els, labels, verify=False)
    if verify and not out.is_exceptional():
        raise ArithmeticError("braid action produced a non-exceptional basis")
    if verify and tuple(map(tuple, rows)) != out._rows:
        raise ArithmeticError("braid action carried a Gram matrix that differs from the pairing")
    return out


def braid_constants(name: str, n: int) -> BraidWord:
    """The named braid words: Coxeter element, the sorting braids, the
    half-twist, and the alternating odd/even products."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    if name == "C":
        return BraidWord(tuple(range(1, n)))
    if name == "beta":
        letters: list[int] = []
        for r in range(1, n):
            letters.extend(range(r, 0, -1))
        return BraidWord(tuple(letters))
    if name == "gamma":
        return BraidWord(tuple(t for k in range(2 * ((n - 1) // 2), 1, -2) for t in range(k, n)))
    if name == "delta_odd":
        return BraidWord(tuple(range(1, n, 2)))
    if name == "delta_even":
        return BraidWord(tuple(range(2, n, 2)))
    if name in ("sigma_odd", "sigma_even"):
        k = name == "sigma_even"  # sigma_odd starts with delta_odd, sigma_even with delta_even
        halves = [braid_constants(d, n).letters for d in ("delta_odd", "delta_even")]
        return BraidWord(sum((halves[(r + k) % 2] for r in range(n)), ()))
    raise ValueError(f"unknown braid constant {name!r}")


def dual_basis(side: str, basis: ExceptionalBasis) -> ExceptionalBasis:
    """Left dual (half-twist image) or right dual (its inverse image)."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    beta = braid_constants("beta", basis.n)
    return braid_act(beta if side == "left" else beta.inverse(), basis)


# -- canonical operator and Diophantine constraints ----------------------------------


def canonical_char_poly(gram: LaurentMatrix) -> LaurentPoly:
    """det(lambda - G^{-1} G†) as a Laurent polynomial in (LAM,) + the ring of
    the Gram matrix G, computed as det(lambda G - G†) / det G, so G is never
    inverted; det G must be a unit monomial."""
    vs = (LAMBDA,) + gram.vars
    lam = LaurentPoly.variable(vs, LAMBDA)
    pencil = LaurentMatrix(
        [
            [lam * x.with_vars(vs) - y.with_vars(vs) for x, y in zip(ra, rb)]
            for ra, rb in zip(gram.entries, gram.dagger().entries)
        ]
    )
    return pencil.det() * unit_pow(gram.det(), -1).with_vars(vs)


@lru_cache(maxsize=None)
def _power_elementary(n: int) -> tuple[LaurentPoly, ...]:
    """e_j(Z_1^n, ..., Z_n^n) for j = 0..n over E1..En, by Newton's identities:
    the power sums p_m(Z) from the Ek up to m = n floor(n/2), then
    j e_j(Z^n) = sum_{i=1..j} (-1)^{i-1} e_{j-i}(Z^n) p_{in}(Z) for j <= n/2,
    and the upper half by duality, e_j(Z^n) = e_n^n e_{n-j}(Z^n)^*."""
    vs, half, p = evars(n), n // 2, [None]
    for m in range(1, n * half + 1):  # p_m = sum_{i<m} (-1)^{i-1} e_i p_{m-i} + (-1)^{m-1} m e_m
        pairs = ((_e(n, i) * (-1) ** (i - 1), p[m - i] if i < m else LaurentPoly.constant(vs, m))
                 for i in range(1, min(m, n) + 1))
        p.append(LaurentPoly.sum_of_products(vs, pairs))
    out = [LaurentPoly.one(vs)]
    for j in range(1, half + 1):
        pairs = ((out[j - i] * (-1) ** (i - 1), p[i * n]) for i in range(1, j + 1))
        out.append(LaurentPoly.sum_of_products(vs, pairs) * Fraction(1, j))
    return tuple(out + [_en_power(n, n) * out[n - j].dual() for j in range(half + 1, n + 1)])


@lru_cache(maxsize=None)
def canonical_spectrum_poly(n: int) -> LaurentPoly:
    """prod_i (lambda - Z_i^n / c) in (LAM, E1..En), c = (-1)^{n-1} e_n(Z): the
    characteristic polynomial the canonical operator must have, as
    sum_j lambda^{n-j} (-1/c)^j e_j(Z^n).  c^n times it at lambda / c is
    prod_i (lambda - Z_i^n), the target of the formal monodromy c (S1 S2)^{-1},
    so `gram_stokes_check` needs no second target."""
    vs, scale = (LAMBDA,) + evars(n), -unit_c(n, -1)
    pairs = (
        ((scale**j * ej).with_vars(vs), LaurentPoly.variable(vs, LAMBDA, n - j))
        for j, ej in enumerate(_power_elementary(n))
    )
    return LaurentPoly.sum_of_products(vs, pairs)


def dioph_residual(gram: LaurentMatrix, n: int) -> LaurentPoly:
    """Difference between the canonical-operator characteristic polynomial and
    its forced symmetric-function form, over the ring of the Gram matrix;
    identically zero on Gram matrices of bases of the K-theory algebra."""
    if gram.rows != n or gram.cols != n:
        raise ValueError("Gram matrix size does not match rank")
    return _residuals(gram, n, [(canonical_char_poly(gram), canonical_spectrum_poly(n))])[0]


def _residuals(gram: LaurentMatrix, n: int, pairs) -> list[LaurentPoly]:
    """lhs - rhs per pair, over the ring of the Gram matrix: the targets rhs
    lie in E1..En and are expanded in Z only when the Gram matrix is."""
    over_z = gram.vars == zvars(n)
    return [lhs - (to_z(rhs, n) if over_z else rhs) for lhs, rhs in pairs]


def markov_residuals_rank3(gram: LaurentMatrix) -> list[LaurentPoly]:
    """The two constraints on the unitriangular entries (a, b, c) of a rank-3
    Gram matrix, normalized so a solution gives residual zero."""
    if gram.rows != 3 or not gram.is_upper_unitriangular():
        raise ValueError("need a 3x3 unitriangular Gram matrix")
    n = 3
    pe = _power_elementary(n)
    a, b, c = gram[0, 1], gram[0, 2], gram[1, 2]
    ad, bd, cd = a.dual(), b.dual(), c.dual()
    lhs1 = a * ad + b * bd + c * cd - a * bd * c
    lhs2 = a * ad + b * bd + c * cd - ad * b * cd
    return _residuals(
        gram, n, [(lhs1, 3 - pe[1] * _en_power(n, -1)), (lhs2, 3 - pe[2] * _en_power(n, -2))]
    )


def markov_residuals_rank4(gram: LaurentMatrix) -> list[LaurentPoly]:
    """The three constraints on the six unitriangular entries of a rank-4 Gram
    matrix (coefficients of the canonical characteristic polynomial)."""
    if gram.rows != 4 or not gram.is_upper_unitriangular():
        raise ValueError("need a 4x4 unitriangular Gram matrix")
    n = 4
    pe = _power_elementary(n)
    a, b, c = gram[0, 1], gram[0, 2], gram[0, 3]
    d, e, f = gram[1, 2], gram[1, 3], gram[2, 3]
    ad, bd, cd, dd, ed, fd = (p.dual() for p in (a, b, c, d, e, f))
    norm2 = a * ad + b * bd + c * cd + d * dd + e * ed + f * fd

    # e_3(Z^4)/s_n(Z)^3 equals sum_i prod_{j!=i} Z_j / Z_i^3
    lhs1 = norm2 - ad * b * dd - ad * c * ed - bd * c * fd - dd * e * fd + ad * c * dd * fd
    lhs2 = (
        -2 * norm2
        + a * bd * d + ad * b * dd + a * cd * e + ad * c * ed
        + bd * c * fd + b * cd * f + d * ed * f + dd * e * fd
        - a * bd * e * fd - ad * b * ed * f - b * cd * dd * e - bd * c * d * ed
        + a * ad * f * fd + b * bd * e * ed + c * cd * d * dd
    )
    lhs3 = norm2 - a * bd * d - a * cd * e - b * cd * f - d * ed * f + a * cd * d * f
    return _residuals(
        gram,
        n,
        [
            (lhs1, pe[3] * _en_power(n, -3) + 4),
            (lhs2, pe[2] * _en_power(n, -2) - 6),
            (lhs3, pe[1] * _en_power(n, -1) + 4),
        ],
    )


# -- tangent-bundle classes and named solution bases ----------------------------------


def exterior_tangent_class(h: int, twist: int, n: int) -> KClass:
    """Class of (Lambda^h T) tensor O(-twist): sum_j (-1)^{h-j} s_j(Z) X^{twist-j}."""
    if not 0 <= h <= n - 1:
        raise ValueError(f"exterior power {h} out of range 0..{n - 1}")
    # X^{twist-j} is the class of O(j-twist)
    terms = [(_e(n, j) * (-1) ** (h - j), j - twist) for j in range(h + 1)]
    return KClass(_expand(evars(n), terms))


def _structured_slots(kind: str, k: int, n: int) -> list[tuple[int, int]]:
    """(m, ell) per position 1..n: the sort rule of `structured_basis`."""
    if kind == "Q":
        return [(k + u, k + u) for u in reversed(range(n))]
    if kind not in ("Qp", "Qpp"):
        raise ValueError(f"unknown kind {kind!r}")
    N = n if kind == "Qp" else n - 1
    us = sorted(range(n), key=lambda u: (abs(2 * u - N), 2 * u > N))
    return [(k + u, k + min(u, N - u)) for u in us]


def structured_basis(kind: str, k: int, n: int) -> ExceptionalBasis:
    """The named solution bases, as exceptional bases of the K-theory algebra.

    Kinds: 'Q' (consecutive line bundles), 'Qp' and 'Qpp' (the sorted bases of
    line bundles and exterior tangent powers), and 'Qpt'/'Qppt' (the same with
    the determinant-character rescaling that normalizes asymptotics).

    The element of index u = 0..n-1 has m = k + u.  'Q' puts it at position
    n - u, as O(-m).  'Qp' and 'Qpp' take N = n and N = n - 1, sort u by
    (|2u - N|, 2u > N), and take (-1)^h Lambda^h T(-m) with h = max(0, 2u - N),
    which is O(-m) when 2u <= N.  The rescaled kinds multiply each element by
    c^{-floor(m/n)}, c the unit of `unit_c`.  The eigenvalue tag is m mod n.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    tilde = kind in ("Qpt", "Qppt")
    base_kind = {"Qpt": "Qp", "Qppt": "Qpp"}.get(kind, kind)
    elements, labels, tags = [], [], []
    for m, ell in _structured_slots(base_kind, k, n):
        h, a = m - ell, -(m // n) if tilde else 0
        cls = exterior_tangent_class(h, m, n)
        elements.append(cls.scale(unit_c(n, a) * (-1) ** h) if h % 2 or a else cls)
        labels.append((f"Λ^{h} T({-m})[{-h}]" if h else f"O({-m})") + (f" ⊗ det^{a}" if a else ""))
        tags.append(m % n)
    return ExceptionalBasis(elements, labels, tags, verify=False)
