"""Exact arithmetic layer: multivariate Laurent polynomials over the rationals.

Everything downstream that claims an identity "exactly" reduces to arithmetic
in this module: Laurent polynomials with arbitrary-precision rational
coefficients (a ring; nothing here divides by a polynomial), matrices over
the Laurent ring, elementary/complete symmetric functions, Stirling
numbers, and exact evaluation at roots of unity via cyclotomic reduction.

A Laurent polynomial keys each monomial by one integer, sum_i e_i 2^(32 i)
with the exponents e_i in signed 32-bit slots: multiplying monomials adds
keys, the duality Z_j -> Z_j^{-1} negates one.  Each polynomial bounds its
|exponents| (a product by the sum of its factors' bounds, a sum by the larger
one); past the slot limit 2^31 - 1 an operation raises OverflowError rather
than let two monomials share a key.

`_add_product` is the one product loop: `*`, `sum_of_products` and
`plus_product` all add term products through it.  Matrix products and the
Laplace minors of det (and through it char_poly) sum through
`LaurentPoly.sum_of_products`, into one dict per entry or minor; inverse
eliminates on unit-monomial pivots through `plus_product`.

The polynomials of the K-theory calculus have a handful of terms, so the fixed
cost of an operation counts as much as its term products, and the frequent
ones take short paths: `plus_product` (self + y s) copies self's terms and
calls `_add_product` once, without the pair loop of `sum_of_products`;
`_raw` sets the three slots through their own descriptors; and `==` against
a plain int compares the terms with those of the constant, without making it.

Values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence


@lru_cache(maxsize=None)
def zvars(n: int, prefix: str = "Z") -> tuple[str, ...]:
    """Variable context Z1..Zn (or another prefix)."""
    return tuple(f"{prefix}{i}" for i in range(1, n + 1))


@lru_cache(maxsize=None)
def evars(n: int) -> tuple[str, ...]:
    """Variables E1..En of the representation ring R(GL_n), Ek = e_k(Z)."""
    return zvars(n, "E")


def _norm_coeff(c):
    """Exact coefficients are stored as int when possible, Fraction otherwise;
    plain integer arithmetic is an order of magnitude faster."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _pow_coeff(c, k: int):
    if k >= 0:
        return c**k
    return _norm_coeff(Fraction(c) ** k)


_W = 32  # bits per exponent slot of a packed monomial key
_HALF = 1 << (_W - 1)
_MASK = (1 << _W) - 1
_LIMIT = _HALF - 1  # the largest |exponent| a slot holds


def _pack(exps: Sequence[int]) -> int:
    """The key sum_i e_i 2^(_W i) of the exponent vector e."""
    key = 0
    for x in reversed(exps):
        key = (key << _W) + x
    return key


def _unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent vector of length n packed in key."""
    out = []
    for _ in range(n):
        x = ((key + _HALF) & _MASK) - _HALF
        out.append(x)
        key = (key - x) >> _W
    return tuple(out)


def _add_product(tm: dict, t1: dict, t2: dict) -> None:
    """Add the product of the packed terms t1 and t2 into tm, term by term,
    dropping a key when its sum reaches zero."""
    get = tm.get
    terms2 = list(t2.items())
    for k1, c1 in t1.items():
        for k2, c2 in terms2:
            k = k1 + k2  # the product of the two monomials
            s = get(k, 0) + c1 * c2
            if s:
                tm[k] = s
            else:
                del tm[k]


def _refit(p: "LaurentPoly", q: "LaurentPoly") -> int:
    """The bound of p * q past the slot limit, with both bounds read off the keys
    again: along a chain of products the bounds add up, the exponents may not."""
    for f in (p, q):
        n = len(f.vars)
        _set_b(f, max((max(map(abs, _unpack(k, n))) for k in f._t), default=0))
    b = p._b + q._b
    if b > _LIMIT:
        raise OverflowError(f"exponent bound {b} passes the slot limit {_LIMIT}")
    return b


class _Terms(Mapping):
    """Read-only view of packed terms keyed by exponent tuples: its length is
    read off the packed dict, its items are decoded on first use."""

    __slots__ = ("_t", "_n", "_d")

    def __init__(self, t: dict, n: int):
        self._t, self._n, self._d = t, n, None

    def _dict(self) -> dict:
        if self._d is None:
            self._d = {_unpack(k, self._n): c for k, c in self._t.items()}
        return self._d

    def __len__(self) -> int:
        return len(self._t)

    def __iter__(self):
        return iter(self._dict())

    def __getitem__(self, exps):
        return self._dict()[exps]

    def items(self):
        return self._dict().items()


class LaurentPoly:
    """Multivariate Laurent polynomial with exact rational coefficients.

    The terms map integer exponent vectors (one slot per variable, negative
    allowed) to nonzero int or Fraction coefficients, zeros pruned, so
    structural equality is canonical equality.  `_t` keeps them under packed
    keys (module docstring) and `_b` bounds their |exponents|; `terms` is a
    read-only view of `_t` keyed by exponent tuples, made on first use.
    """

    __slots__ = ("vars", "_t", "_b", "_terms")

    def __new__(cls, vars: Sequence[str], terms: Mapping | Iterable[tuple[Sequence[int], Fraction | int]]):
        """terms: a map from exponent vectors to coefficients, or an iterable of
        (exponents, coefficient) pairs; the coefficients of a monomial add."""
        vs = tuple(vars)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs}")
        tm: dict[int, Fraction | int] = {}
        b = 0
        for exps, c in terms.items() if hasattr(terms, "items") else terms:
            e = tuple(exps)
            if len(e) != len(vs):
                raise ValueError(f"exponent vector {e} has wrong length for vars {vs}")
            c = _norm_coeff(c)
            if c != 0:
                k = _pack(e)
                if type(k) is not int:  # a float or fixed-width exponent
                    raise TypeError(f"exponents must be Python integers, got {e}")
                b = max(b, max(e, default=0), -min(e, default=0))
                s = tm.get(k, 0) + c
                if s == 0:
                    tm.pop(k, None)
                else:
                    tm[k] = s
        return cls._raw(vs, tm, b)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def _raw(cls, vars: tuple[str, ...], t: dict, b: int) -> "LaurentPoly":
        """Internal fast path: t must already be normalized (no zeros,
        int/Fraction coefficients, packed keys of exponents at most b)."""
        if b > _LIMIT:
            raise OverflowError(f"exponent bound {b} passes the slot limit {_LIMIT}")
        self = object.__new__(cls)
        _set_vars(self, vars)
        _set_t(self, t)
        _set_b(self, b)
        return self

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction | int]:
        """Read-only map from exponent tuples to coefficients, in the order
        the terms were made (`_terms` is unset until the first call)."""
        try:
            return self._terms
        except AttributeError:
            object.__setattr__(self, "_terms", _Terms(self._t, len(self.vars)))
            return self._terms

    def _decoded(self) -> Iterable[tuple[tuple[int, ...], Fraction | int]]:
        """The terms decoded afresh, for reads that need no view kept."""
        n = len(self.vars)
        return ((_unpack(k, n), c) for k, c in self._t.items())

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "LaurentPoly":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: Sequence[str], c) -> "LaurentPoly":
        return cls(vars, {(0,) * len(tuple(vars)): c})

    @classmethod
    def one(cls, vars: Sequence[str]) -> "LaurentPoly":
        return cls.constant(vars, 1)

    @classmethod
    def variable(cls, vars: Sequence[str], name: str, power: int = 1) -> "LaurentPoly":
        vs = tuple(vars)
        if name not in vs:
            raise ValueError(f"{name!r} not in variable context {vs}")
        e = [0] * len(vs)
        e[vs.index(name)] = power
        return cls(vs, {tuple(e): 1})

    @classmethod
    def monomial(cls, vars: Sequence[str], exps: Sequence[int], c=1) -> "LaurentPoly":
        return cls(vars, {tuple(exps): c})

    # -- helpers -------------------------------------------------------------

    def _check_context(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable-context mismatch: {self.vars} vs {other.vars}")

    def _as_poly(self, other) -> "LaurentPoly":
        """other in this context, a constant lifted into it."""
        if isinstance(other, LaurentPoly):
            self._check_context(other)
            return other
        return LaurentPoly.constant(self.vars, other)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = self._as_poly(other)
        tm = dict(self._t)
        for k, c in other._t.items():
            s = tm.get(k, 0) + c
            if s == 0:
                tm.pop(k, None)
            else:
                tm[k] = s
        return LaurentPoly._raw(self.vars, tm, max(self._b, other._b))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self.vars, {k: -c for k, c in self._t.items()}, self._b)

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._as_poly(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            c = _norm_coeff(other)
            if c == 0:
                return LaurentPoly.zero(self.vars)
            return LaurentPoly._raw(
                self.vars, {k: _norm_coeff(v * c) for k, v in self._t.items()}, self._b
            )
        self._check_context(other)
        b = self._b + other._b
        if b > _LIMIT:
            b = _refit(self, other)
        tm: dict[int, Fraction | int] = {}
        _add_product(tm, self._t, other._t)
        return LaurentPoly._raw(self.vars, tm, b)

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, vars: Sequence[str], pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]):
        """sum a * b over the pairs (a, b) of polynomials in the context vars,
        summed into one dict; its bound is the largest a._b + b._b over the pairs
        whose factors are both nonzero."""
        vs = tuple(vars)
        tm, b = {}, 0
        for p, q in pairs:
            if p.vars != vs or q.vars != vs:
                raise ValueError(f"variable-context mismatch: {p.vars} * {q.vars} in {vs}")
            if p._t and q._t:
                bp = p._b + q._b
                if bp > _LIMIT:
                    bp = _refit(p, q)
                _add_product(tm, p._t, q._t)
                b = max(b, bp)
        return cls._raw(vs, tm, b)

    def plus_product(self, y: "LaurentPoly", s: "LaurentPoly") -> "LaurentPoly":
        """self + y * s: self's terms, then the products, as `sum_of_products` sums
        (self, 1), (y, s), and with its bound; self if y or s is 0."""
        vs = self.vars
        if y.vars != vs or s.vars != vs:
            raise ValueError(f"variable-context mismatch: {y.vars} * {s.vars} in {vs}")
        if not (y._t and s._t):
            return self
        b = y._b + s._b
        if b > _LIMIT:
            b = _refit(y, s)
        tm = dict(self._t)
        _add_product(tm, y._t, s._t)
        return LaurentPoly._raw(vs, tm, max(self._b, b))

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return unit_pow(self, k)
        result = LaurentPoly.one(self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if type(other) is int:  # the constant's terms, {} for 0, as the constructor packs them
            return self._t == ({0: other} if other else {})
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self._t == other._t

    __hash__ = None  # equality only; polynomials are not dict keys

    # -- predicates and views --------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_unit_monomial(self) -> bool:
        return len(self._t) == 1

    def term_count(self) -> int:
        """The number of terms, read off `_t` without making the `terms` view."""
        return len(self._t)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self._decoded())

    # -- structural operations ---------------------------------------------------

    def dual(self) -> "LaurentPoly":
        """The involution Z_j -> Z_j^{-1}: e_k -> e_{n-k}/e_n over E1..En, a
        monomial to a monomial, and v -> v^{-1} on any other variables."""
        vs = self.vars
        if vs and vs[0] == "E1" and vs == evars(len(vs)):
            tm, b, slots, top = {}, self._b, range(len(vs) - 1), _W * (len(vs) - 1)
            for k, c in self._t.items():
                rev = total = 0  # slots 1..n-1 in reverse order, and the sum of all n
                for _ in slots:
                    x = ((k + _HALF) & _MASK) - _HALF
                    k, rev, total = (k - x) >> _W, (rev << _W) + x, total + x
                total += k  # k is now the exponent of e_n; in the dual it is -total
                b = max(b, abs(total))
                tm[rev - (total << top)] = c
            return LaurentPoly._raw(vs, tm, b)
        return LaurentPoly._raw(vs, {-k: c for k, c in self._t.items()}, self._b)

    def with_vars(self, vars: Sequence[str]) -> "LaurentPoly":
        """Embed into a larger variable context (superset of current vars)."""
        vs = tuple(vars)
        if len(set(vs)) != len(vs) or not set(self.vars) <= set(vs):
            raise ValueError(f"target context {vs} must hold {self.vars}, each name once")
        o = vs.index(self.vars[0]) if self.vars else 0
        if vs[o : o + len(self.vars)] == self.vars:  # one run of slots: shift the keys
            return LaurentPoly._raw(vs, {k << (_W * o): c for k, c in self._t.items()}, self._b)
        shifts = [_W * vs.index(v) for v in self.vars]
        tm = {sum(x << s for s, x in zip(shifts, e)): c for e, c in self._decoded()}
        return LaurentPoly._raw(vs, tm, self._b)

    def eval(self, values: Mapping[str, complex]) -> complex:
        """Numeric evaluation; every variable must be assigned a nonzero value
        if it occurs with a negative exponent."""
        vals = [values[v] for v in self.vars]
        total = 0j
        for e, c in self._decoded():
            term = complex(c)
            for v, k in zip(vals, e):
                if k:
                    term *= v**k
            total += term
        return total

    def as_series(self, name: str) -> dict[int, "LaurentPoly"]:
        """View as a Laurent series in one variable: degree -> coefficient poly
        in the remaining variables."""
        i = self.vars.index(name)
        rest = tuple(v for v in self.vars if v != name)
        out: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for e, c in self._decoded():
            k = e[i]
            re = tuple(x for j, x in enumerate(e) if j != i)
            out.setdefault(k, {})[re] = c
        return {k: LaurentPoly(rest, tm) for k, tm in sorted(out.items())}

    def degree(self, name: str) -> int | None:
        i = self.vars.index(name)
        if not self._t:
            return None
        return max(e[i] for e in self.terms)

    def valuation(self, name: str) -> int | None:
        i = self.vars.index(name)
        if not self._t:
            return None
        return min(e[i] for e in self.terms)

    # -- serialization and display --------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {
                    "exp": list(e),
                    "num": str(Fraction(c).numerator),
                    "den": str(Fraction(c).denominator),
                }
                for e, c in self.sorted_terms()
            ],
        }

    def __str__(self) -> str:
        if not self._t:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [f"{v}^{k}" if k != 1 else v for v, k in zip(self.vars, e) if k != 0]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    __repr__ = __str__


# the slots' own setters, for `_raw`: LaurentPoly.__setattr__ refuses every assignment
_set_vars, _set_t, _set_b = (d.__set__ for d in (LaurentPoly.vars, LaurentPoly._t, LaurentPoly._b))


def unit_pow(p: LaurentPoly, k: int) -> LaurentPoly:
    """p**k for negative k, valid only when p is a single-term unit monomial."""
    if len(p._t) != 1:
        raise ValueError(f"not a monomial: {p}")
    ((key, c),) = p._t.items()
    return LaurentPoly._raw(p.vars, {key * k: _norm_coeff(_pow_coeff(c, k))}, p._b * abs(k))


# -- symmetric functions and Stirling numbers ----------------------------------


@lru_cache(maxsize=None)
def sym_poly(kind: str, k: int, n: int, prefix: str = "Z") -> LaurentPoly:
    """Elementary (s_k) or complete (m_k) symmetric function in n variables,
    by `elementary_symmetric` or `complete_symmetric` on the variables.

    s_0 = m_0 = 1; elementary requires k <= n.
    """
    vs = zvars(n, prefix)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if kind == "elementary":
        if k > n:
            raise ValueError(f"elementary symmetric function needs k <= n, got k={k}, n={n}")
        fn = elementary_symmetric
    elif kind == "complete":
        fn = complete_symmetric
    else:
        raise ValueError(f"unknown kind {kind!r} (use 'elementary' or 'complete')")
    return LaurentPoly.zero(vs) + fn([LaurentPoly.variable(vs, v) for v in vs], k)  # an int at k = 0


def elementary_symmetric(vals: Sequence, k: int):
    """e_k of the values, over their ring or field (e_0 = 1, and e_k = 0 for
    k < 0), by e_j(v_1..v_m) = e_j(v_1..v_{m-1}) + v_m e_{j-1}(v_1..v_{m-1})
    with j running downward."""
    if k < 0:
        return 0
    e = [1] + [0] * k
    for v in vals:
        for j in range(k, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e[k]


def complete_symmetric(vals: Sequence, k: int):
    """h_k of the values, over their ring or field (h_0 = 1, and h_k = 0 for
    k < 0), by h_k(v_1..v_m) = h_k(v_1..v_{m-1}) + v_m h_{k-1}(v_1..v_m)."""
    if k < 0:
        return 0
    h = [1] + [0] * k
    for v in vals:
        for j in range(1, k + 1):
            h[j] = h[j] + v * h[j - 1]
    return h[k]


@lru_cache(maxsize=None)
def stirling(kind: str, n: int, k: int) -> int:
    """Stirling numbers by their defining recursions.

    first (unsigned):  [n+1,k] = n[n,k] + [n,k-1]
    second:            {n+1,k} = k{n,k} + {n,k-1}
    with [0,0] = {0,0} = 1 and zero for n=0<k or k=0<n.
    """
    if n < 0 or k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    if kind == "first":
        return (n - 1) * stirling("first", n - 1, k) + stirling("first", n - 1, k - 1)
    if kind == "second":
        return k * stirling("second", n - 1, k) + stirling("second", n - 1, k - 1)
    raise ValueError(f"unknown kind {kind!r} (use 'first' or 'second')")


# -- matrices over the Laurent ring -----------------------------------------------


class LaurentMatrix:
    """Rectangular matrix with LaurentPoly entries over one variable context."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        rows = len(entries)
        if rows == 0:
            raise ValueError("empty matrix")
        cols = len(entries[0])
        ctx = entries[0][0].vars
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for p in row:
                if p.vars != ctx:
                    raise ValueError("matrix entries in mixed variable contexts")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(tuple(row) for row in entries))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMatrix is immutable")

    @property
    def vars(self) -> tuple[str, ...]:
        return self.entries[0][0].vars

    @classmethod
    def identity(cls, n: int, vars: Sequence[str]) -> "LaurentMatrix":
        one = LaurentPoly.one(vars)
        zero = LaurentPoly.zero(vars)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int, vars: Sequence[str]) -> "LaurentMatrix":
        z = LaurentPoly.zero(vars)
        return cls([[z for _ in range(cols)] for _ in range(rows)])

    def __getitem__(self, ij: tuple[int, int]) -> LaurentPoly:
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._shape_check(other)
        return LaurentMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._shape_check(other)
        return LaurentMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "LaurentMatrix":
        return self.map(lambda p: -p)

    def _shape_check(self, other: "LaurentMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")

    def __mul__(self, other):
        if isinstance(other, LaurentMatrix):
            if self.cols != other.rows:
                raise ValueError("matrix shape mismatch in product")
            cols = list(zip(*other.entries))
            sp = LaurentPoly.sum_of_products
            return LaurentMatrix([[sp(self.vars, zip(row, col)) for col in cols] for row in self.entries])
        return self.map(lambda p: p * other)

    def __rmul__(self, other):
        return self.map(lambda p: p * other)

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self * other

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def map(self, fn: Callable[[LaurentPoly], LaurentPoly]) -> "LaurentMatrix":
        return LaurentMatrix([[fn(p) for p in row] for row in self.entries])

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def dagger(self) -> "LaurentMatrix":
        """Transpose composed with the entrywise duality involution."""
        if self.rows != self.cols:
            raise ValueError("dagger needs a square matrix")
        return LaurentMatrix(
            [[self.entries[j][i].dual() for j in range(self.rows)] for i in range(self.cols)]
        )

    def is_upper_unitriangular(self) -> bool:
        return self._unitriangular(lower=False)

    def is_lower_unitriangular(self) -> bool:
        return self._unitriangular(lower=True)

    def _unitriangular(self, lower: bool) -> bool:
        if self.rows != self.cols:
            return False
        one = LaurentPoly.one(self.vars)
        for i in range(self.rows):
            if self.entries[i][i] != one:
                return False
            for j in range(self.cols):
                below = i > j
                if (below != lower) and i != j and not self.entries[i][j].is_zero():
                    return False
        return True

    def _minors(self) -> Callable[[tuple[int, ...]], LaurentPoly]:
        """Laplace minors: minor(cols) is the determinant of the last len(cols)
        rows restricted to the columns cols, summed by `sum_of_products` over
        the pairs (+-a, sub-minor), a running over the nonzero entries of the
        first of those rows.  Column subsets are memoized."""
        vs, rows = self.vars, self.entries
        cache: dict[tuple[int, ...], LaurentPoly] = {(): LaurentPoly.one(vs)}

        def minor(cols: tuple[int, ...]) -> LaurentPoly:
            if cols in cache:
                return cache[cols]
            row = rows[len(rows) - len(cols)]
            pairs = (
                (-row[c] if pos % 2 else row[c], minor(cols[:pos] + cols[pos + 1 :]))
                for pos, c in enumerate(cols)
                if not row[c].is_zero()
            )
            cache[cols] = LaurentPoly.sum_of_products(vs, pairs)
            return cache[cols]

        return minor

    def det(self) -> LaurentPoly:
        """Determinant by Laplace expansion with column-subset memoization."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        return self._minors()(tuple(range(self.rows)))

    def inverse(self) -> "LaurentMatrix":
        """Exact inverse over the Laurent ring, by Gauss-Jordan elimination on
        [A | 1].  The pivot of column j is, among the rows at or below j whose
        entry there is a unit monomial, the one with the fewest nonzero entries
        in columns j..n-1 (the first on a tie); it is swapped up to row j,
        scaled to 1, and column j is cleared in the other rows by `plus_product`.
        ValueError is raised when a column has no such row: so for every matrix
        whose determinant is not a unit, and for some whose determinant is,
        such as [[1 + Z1, -1/2], [1 - Z1, 1/2]].  The matrices the library
        inverts (sector coordinates, Stokes and Gram matrices) have such pivots."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        rows = [list(r) + list(e) for r, e in zip(self.entries, LaurentMatrix.identity(n, self.vars).entries)]
        for j in range(n):
            units = [i for i in range(j, n) if rows[i][j].is_unit_monomial()]
            if not units:
                raise ValueError(f"no unit-monomial pivot in column {j} of the matrix to invert")
            p = min(units, key=lambda i: sum(not x.is_zero() for x in rows[i][j:n]))
            rows[j], rows[p] = rows[p], rows[j]
            s = unit_pow(rows[j][j], -1)
            pivot = rows[j] = [x * s for x in rows[j]]
            for i in range(n):
                if i != j and not rows[i][j].is_zero():
                    f = -rows[i][j]
                    rows[i] = [x.plus_product(f, y) for x, y in zip(rows[i], pivot)]
        return LaurentMatrix([r[n:] for r in rows])

    def __str__(self) -> str:
        return "[" + ",\n ".join("[" + ", ".join(map(str, row)) + "]" for row in self.entries) + "]"

    __repr__ = __str__


LAMBDA = "LAM"  # the eigenvalue variable of characteristic polynomials


def char_poly(a: LaurentMatrix, b: LaurentMatrix) -> LaurentPoly:
    """Characteristic polynomial det(lambda - A^{-1} B) of A^{-1} B, as a
    Laurent polynomial in (LAM,) + A.vars.

    It is computed as det(lambda A - B) / det A, so A is never inverted; det A
    must be a unit monomial (ValueError otherwise)."""
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


# -- cyclotomic reduction (exact arithmetic at roots of unity) ---------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial, exactly."""
    if m < 1:
        raise ValueError("order must be positive")
    # x^m - 1 divided by the product of Phi_d over proper divisors d of m.
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            num = _intpoly_exact_div(num, list(cyclotomic_polynomial(d)))
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return tuple(num)


def _intpoly_exact_div(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        out[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact integer polynomial division")
    return out


@lru_cache(maxsize=None)
def _reduced_powers(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^k modulo the cyclotomic polynomial Phi_order for k = 0..order-1, each
    as its (degree, coefficient) pairs, degrees below deg Phi_order."""
    phi = cyclotomic_polynomial(order)
    cur = [1] + [0] * (len(phi) - 2)
    out = []
    for _ in range(order):
        out.append(tuple((j, c) for j, c in enumerate(cur) if c))
        # times x, with x^deg = -(phi_0 + phi_1 x + ...) as Phi_order is monic
        top = cur[-1]
        cur = [c - top * f for c, f in zip([0] + cur[:-1], phi)]
    return tuple(out)


def reduce_root_of_unity(p: LaurentPoly, name: str, order: int) -> LaurentPoly:
    """Canonical form of p given that variable `name` is a primitive
    `order`-th root of unity: each power of it replaced by its remainder
    modulo the cyclotomic polynomial.  Zero output iff p vanishes at the root."""
    s = _W * p.vars.index(name)
    lift = _HALF * ((1 << (s + _W)) - 1) // _MASK  # makes slots up to this one nonnegative
    powers = _reduced_powers(order)
    out: dict[int, Fraction | int] = {}
    for k, c in p._t.items():
        e = (((k + lift) >> s) & _MASK) - _HALF
        for j, cj in powers[e % order]:
            nk = k + ((j - e) << s)  # slot s/_W set to j
            out[nk] = out.get(nk, 0) + c * cj
    return LaurentPoly._raw(p.vars, {k: _norm_coeff(c) for k, c in out.items() if c}, max(p._b, order))
