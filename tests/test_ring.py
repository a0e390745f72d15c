"""Exact-arithmetic layer: ring axioms, duality, symmetric functions, Stirling
numbers, matrix dagger, det/inverse/characteristic polynomial against a numeric
oracle, cyclotomic reduction."""

import cmath
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projqde.ring import (
    LAMBDA,
    LaurentMatrix,
    LaurentPoly,
    char_poly,
    cyclotomic_polynomial,
    elementary_symmetric,
    evars,
    reduce_root_of_unity,
    stirling,
    sym_poly,
    zvars,
)
from projqde.stokes import SectorId, _columns_by_tag, stokes_basis, stokes_gram, stokes_matrices

from identities import coefficient, cofactor_inverse, specialize, substitute_monomial

V2 = zvars(2)
V3 = zvars(3)


def rand_poly(rng, vars, nterms=4, span=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-span, span) for _ in vars)
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return LaurentPoly(vars, terms)


def test_mul_identity_and_difference_of_squares():
    z1 = LaurentPoly.variable(V2, "Z1")
    z2 = LaurentPoly.variable(V2, "Z2")
    one = LaurentPoly.one(V2)
    assert (z1 + z2) * one == z1 + z2
    assert (z1 - z2) * (z1 + z2) == z1 * z1 - z2 * z2


def test_mul_rejects_context_mismatch():
    with pytest.raises(ValueError):
        LaurentPoly.one(V2) * LaurentPoly.one(V3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_newton_relation(n):
    # sum_i (-1)^i m_i s_{k-i} = 0 for k >= 1
    vs = zvars(n)
    for k in range(1, 7):
        acc = LaurentPoly.zero(vs)
        for i in range(k + 1):
            if k - i > n:
                continue
            term = sym_poly("complete", i, n) * sym_poly("elementary", k - i, n)
            acc = acc + (term if i % 2 == 0 else -term)
        assert acc.is_zero(), (n, k)


def test_sym_poly_basics():
    assert sym_poly("elementary", 2, 2) == LaurentPoly(V2, {(1, 1): 1})
    assert sym_poly("complete", 2, 2) == LaurentPoly(V2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert sym_poly("elementary", 0, 3) == LaurentPoly.one(V3)
    with pytest.raises(ValueError):
        sym_poly("elementary", 3, 2)


def _e_by_subsets(vals, k):
    """Reference e_k: the sum over the k-subsets of the values of their products."""
    return sum((math.prod(subset) for subset in combinations(vals, k)), start=0) if k >= 0 else 0


def test_elementary_symmetric_matches_subset_sums():
    rng = random.Random(13)
    for n in (3, 6):
        polys = [rand_poly(rng, V2, 2, 1) for _ in range(n)]
        fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
        nums = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        for k in range(-1, n + 2):
            assert elementary_symmetric(polys, k) == _e_by_subsets(polys, k), (n, k)
            assert elementary_symmetric(fracs, k) == _e_by_subsets(fracs, k), (n, k)
            # summed in another order: equal up to rounding
            assert cmath.isclose(elementary_symmetric(nums, k), _e_by_subsets(nums, k), rel_tol=1e-12, abs_tol=1e-12)


def test_complete_recursion():
    # m_k(z_1..z_n) = m_k(z_1..z_{n-1}) + z_n m_{k-1}(z_1..z_n)
    for n in range(2, 6):
        vs = zvars(n)
        zn = LaurentPoly.variable(vs, f"Z{n}")
        for k in range(1, 6):
            lhs = sym_poly("complete", k, n)
            rhs = sym_poly("complete", k, n - 1).with_vars(vs) + zn * sym_poly("complete", k - 1, n)
            assert lhs == rhs, (n, k)


def test_dual_is_ring_involution():
    rng = random.Random(7)
    for _ in range(100):
        f = rand_poly(rng, V3)
        g = rand_poly(rng, V3)
        assert f.dual().dual() == f
        assert (f * g).dual() == f.dual() * g.dual()
    assert LaurentPoly.one(V2).dual() == LaurentPoly.one(V2)
    z1 = LaurentPoly.variable(V2, "Z1")
    z2inv = LaurentPoly.variable(V2, "Z2", -1)
    assert (z1 + z2inv).dual() == LaurentPoly.variable(V2, "Z1", -1) + LaurentPoly.variable(V2, "Z2")


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (rand_poly(rng, V2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_pow_and_unit_inverse():
    z1 = LaurentPoly.variable(V2, "Z1")
    p = z1 + 1
    assert p**0 == LaurentPoly.one(V2)
    assert p**3 == p * p * p
    m = LaurentPoly.monomial(V2, (2, -1), Fraction(3, 2))
    assert m**-2 == LaurentPoly.monomial(V2, (-4, 2), Fraction(4, 9))
    with pytest.raises(ValueError):
        (p) ** -1


def test_stirling_values_and_duality():
    assert stirling("first", 0, 0) == 1
    assert stirling("first", 3, 2) == 3
    assert stirling("second", 4, 2) == 7
    for n in range(11):
        for k in range(11):
            acc = sum(
                (-1) ** (n - j) * stirling("second", n, j) * stirling("first", j, k)
                for j in range(n + 1)
            )
            assert acc == (1 if n == k else 0), (n, k)


def test_mat_dagger():
    one = LaurentPoly.one(V2)
    zero = LaurentPoly.zero(V2)
    z1 = LaurentPoly.variable(V2, "Z1")
    ident = LaurentMatrix.identity(2, V2)
    assert ident.dagger() == ident
    a = LaurentMatrix([[one, z1], [zero, one]])
    assert a.dagger() == LaurentMatrix([[one, zero], [z1.dual(), one]])
    rng = random.Random(3)
    for _ in range(10):
        m1 = LaurentMatrix([[rand_poly(rng, V2, 2, 2) for _ in range(3)] for _ in range(3)])
        m2 = LaurentMatrix([[rand_poly(rng, V2, 2, 2) for _ in range(3)] for _ in range(3)])
        assert (m1 * m2).dagger() == m2.dagger() * m1.dagger()
        assert m1.dagger().dagger() == m1


def test_matrix_inverse_paths():
    one = LaurentPoly.one(V2)
    zero = LaurentPoly.zero(V2)
    z1 = LaurentPoly.variable(V2, "Z1")
    z2 = LaurentPoly.variable(V2, "Z2")
    up = LaurentMatrix([[one, z1, z1 * z2], [zero, one, z2 + one], [zero, zero, one]])
    assert up * up.inverse() == LaurentMatrix.identity(3, V2)
    # a non-triangular matrix of unit-monomial determinant
    g = LaurentMatrix([[z1, one], [z1 * z2, z2 + z1 * z2]])
    assert (g * g.inverse()) == LaurentMatrix.identity(2, V2)
    bad = LaurentMatrix([[one + z1, zero], [zero, one]])
    with pytest.raises(ValueError):
        bad.inverse()
    # determinant 1, but no entry of the first column is a unit monomial
    half = Fraction(1, 2)
    no_pivot = LaurentMatrix([[one + z1, -half * one], [one - z1, half * one]])
    assert no_pivot.det() == one
    with pytest.raises(ValueError):
        no_pivot.inverse()


def test_inverse_pivots_on_the_sparsest_unit_row():
    # lower unitriangular with its rows in the order 2, 0, 1: the first unit
    # of column 0 is in the full row, after which column 1 has no unit
    one = LaurentPoly.one(V2)
    zero = LaurentPoly.zero(V2)
    z1 = LaurentPoly.variable(V2, "Z1")
    z2 = LaurentPoly.variable(V2, "Z2")
    m = LaurentMatrix([[one, one + z1, one], [one, zero, zero], [z2, one, zero]])
    assert m.inverse() == cofactor_inverse(m)
    # shuffled lower-triangular matrices with unit-monomial diagonals
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(3, 4)
        low = [
            [rand_poly(rng, V2, rng.randint(1, 2), 1) if i > j else LaurentPoly.zero(V2) for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            low[i][i] = LaurentPoly.monomial(V2, [rng.randint(-1, 1) for _ in V2], rng.choice((1, -1, 2)))
        r, c = rng.sample(range(n), n), rng.sample(range(n), n)
        m = LaurentMatrix([[low[i][j] for j in c] for i in r])
        assert m.inverse() == cofactor_inverse(m)


def _inverted_matrices(sector, n):
    """The matrices the library inverts on a sector: A0 and A1, the
    line-bundle coordinates of its basis and of the half-turn basis, each
    twisted by X^-(k+n-1) of its own sector (not triangular at n > 2); S2;
    and the sector's Gram matrix."""
    order = list(reversed(stokes_basis(sector, n).eigen_tags))
    a = [_columns_by_tag(stokes_basis(s, n), order, -(s.k + n - 1)) for s in (sector, sector.rotate_half(n))]
    return (*a, stokes_matrices(sector, n)[1], stokes_gram(sector, n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_inverse_of_twisted_stokes_coordinates(n):
    for kind in ("Vprime", "Vdprime"):
        for k in range(-2, 3):
            a0, a1, s2, g = _inverted_matrices(SectorId(kind, k), n)
            for a in (a0, a1) if n > 2 else ():
                assert not a.is_upper_unitriangular() and not a.is_lower_unitriangular()
            for a in (a0, a1, s2, g):
                inv = a.inverse()
                assert a * inv == LaurentMatrix.identity(n, a.vars)
                assert inv * a == LaurentMatrix.identity(n, a.vars)
                assert inv == cofactor_inverse(a), (n, kind, k)


def _laurent_polys(vars, max_terms=3, span=2, coeffs=st.integers(-4, 4)):
    exps = st.tuples(*(st.integers(-span, span) for _ in vars))
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: LaurentPoly(vars, terms)
    )


def _unitriangular(draw, n, lower):
    def entry(i, j):
        if i == j:
            return LaurentPoly.one(V3)
        if (i > j) == lower:
            return draw(_laurent_polys(V3))
        return LaurentPoly.zero(V3)

    return LaurentMatrix([[entry(i, j) for j in range(n)] for i in range(n)])


@lru_cache(maxsize=None)
def _stokes_coordinate_matrices():
    """Non-triangular matrices over E1..E3 of determinant +-E3^2: the
    line-bundle coordinates of the rank-3 Stokes bases, columns ordered by
    eigenvalue tag."""
    out = []
    for kind in ("Vprime", "Vdprime"):
        for k in (-1, 0, 1):
            basis = stokes_basis(SectorId(kind, k), 3)
            out.append(_columns_by_tag(basis, list(reversed(basis.eigen_tags)), 0))
    return tuple(out)


def _unit_det_matrix(draw, kind):
    if kind == "stokes":
        return draw(st.sampled_from(_stokes_coordinate_matrices()))
    n = draw(st.integers(1, 4))
    if kind == "upper":
        return _unitriangular(draw, n, lower=False)
    if kind == "lower":
        return _unitriangular(draw, n, lower=True)
    # a diagonal of signed unit monomials
    exps = st.tuples(*(st.integers(-2, 2) for _ in V3))
    rows = [[LaurentPoly.zero(V3)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = LaurentPoly.monomial(V3, draw(exps), draw(st.sampled_from((1, -1, 2))))
    if kind == "permuted":
        # lower triangular on that diagonal, rows and columns shuffled
        monomials = st.builds(LaurentPoly.monomial, st.just(V3), exps, st.sampled_from((1, -1, 2)))
        below = st.one_of(monomials, st.builds(operator.add, monomials, monomials))
        low = [[draw(below) if i > j else rows[i][j] for j in range(n)] for i in range(n)]
        r, c = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
        return LaurentMatrix([[low[i][j] for j in c] for i in r])
    # kind == "lu": lower * upper * the diagonal
    upper, lower = _unitriangular(draw, n, lower=False), _unitriangular(draw, n, lower=True)
    return lower * upper * LaurentMatrix(rows)


KINDS = ("upper", "lower", "lu", "permuted", "stokes")


def _torus_point(draw):
    """Values of Z1..Z3 on the unit torus, and of E1..E3 as e_k(Z)."""
    angles = [draw(st.floats(0, 2 * np.pi)) for _ in V3]
    z = [cmath.exp(1j * t) for t in angles]
    return {**dict(zip(V3, z)), **{v: elementary_symmetric(z, k) for k, v in enumerate(evars(3), 1)}}


def _numeric(m, point):
    return np.array([[p.eval(point) for p in row] for row in m.entries])


def _assert_close(exact, want):
    exact, want = np.asarray(exact), np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(exact, want, rtol=1e-9, atol=1e-9 * scale)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_matrix_product_matches_numeric_oracle(data):
    rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    coeffs = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5))
    entries = st.one_of(st.just(LaurentPoly.zero(V3)), _laurent_polys(V3, coeffs=coeffs))
    a, b = (
        LaurentMatrix([[data.draw(entries) for _ in range(c)] for _ in range(r)])
        for r, c in ((rows, inner), (inner, cols))
    )
    point = _torus_point(data.draw)
    _assert_close(_numeric(a * b, point), _numeric(a, point) @ _numeric(b, point))
    with pytest.raises(ValueError):
        a * LaurentMatrix.zero(inner + 1, cols, V3)
    with pytest.raises(ValueError):
        a * b.map(lambda p: p.with_vars((LAMBDA,) + V3))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_det_matches_numeric_oracle(data):
    n = data.draw(st.integers(1, 4))
    m = LaurentMatrix([[data.draw(_laurent_polys(V3)) for _ in range(n)] for _ in range(n)])
    point = _torus_point(data.draw)
    _assert_close(m.det().eval(point), np.linalg.det(_numeric(m, point)))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(KINDS))
def test_inverse_matches_numeric_oracle(data, kind):
    m = _unit_det_matrix(data.draw, kind)
    inv = m.inverse()
    assert inv == cofactor_inverse(m)
    point = _torus_point(data.draw)
    _assert_close(_numeric(inv, point), np.linalg.inv(_numeric(m, point)))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(KINDS))
def test_char_poly_matches_numeric_oracle(data, kind):
    a = _unit_det_matrix(data.draw, kind)
    n = a.rows
    b = LaurentMatrix([[data.draw(_laurent_polys(a.vars)) for _ in range(n)] for _ in range(n)])
    point = _torus_point(data.draw)
    cp = char_poly(a, b)
    assert cp.vars == (LAMBDA,) + a.vars
    assert set(cp.as_series(LAMBDA)) <= set(range(n + 1))
    exact = [coefficient(cp, LAMBDA, n - k).eval(point) for k in range(n + 1)]
    a_num, b_num = _numeric(a, point), _numeric(b, point)
    _assert_close(exact, np.poly(np.linalg.solve(a_num, b_num)))


def test_det_laplace():
    rng = random.Random(5)
    m = LaurentMatrix([[rand_poly(rng, V2, 2, 1) for _ in range(3)] for _ in range(3)])
    e = m.entries
    brute = (
        e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
        - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
        + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
    )
    assert m.det() == brute


def test_laurent_polynomials_form_a_ring_without_division():
    z1 = LaurentPoly.variable(V2, "Z1")
    z2 = LaurentPoly.variable(V2, "Z2")
    for num, den in ((z1, z1 + z2), (1, z1), (z1, 2)):
        with pytest.raises(TypeError):
            num / den


def test_json_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        p = rand_poly(rng, V3)
        data = p.to_json()
        terms = {tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"])) for t in data["terms"]}
        assert LaurentPoly(tuple(data["vars"]), terms) == p
    data = rand_poly(rng, V2).to_json()
    assert all(isinstance(t["num"], str) and isinstance(t["den"], str) for t in data["terms"])


def test_substitute_monomial_and_specialize():
    vs = ("X",) + V2
    x = LaurentPoly.variable(vs, "X")
    z1 = LaurentPoly.variable(vs, "Z1")
    p = x * x + z1 * x**-1
    # X -> Z1*Z2
    q = substitute_monomial(p, "X", 1, (0, 1, 1))
    assert q == LaurentPoly(vs, {(0, 2, 2): 1, (0, 0, -1): 1})
    r = specialize(z1 + 2, "Z1", Fraction(1, 2))
    assert r == LaurentPoly.constant(vs, Fraction(5, 2))


def test_as_series_and_coefficient():
    vs = ("s",) + V2
    s = LaurentPoly.variable(vs, "s")
    z1 = LaurentPoly.variable(vs, "Z1")
    p = s**2 * z1 + s**-1 * (z1 + 1) + LaurentPoly.one(vs)
    ser = p.as_series("s")
    assert set(ser) == {-1, 0, 2}
    assert ser[-1] == LaurentPoly.variable(V2, "Z1") + 1
    assert coefficient(p, "s", 2) == LaurentPoly.variable(V2, "Z1")


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_reduction():
    vs = ("W", "Z1")
    w = LaurentPoly.variable(vs, "W")
    # 1 + w + w^2 = 0 at a primitive cube root
    assert reduce_root_of_unity(1 + w + w * w, "W", 3).is_zero()
    assert not reduce_root_of_unity(1 + w, "W", 3).is_zero()
    # w^-1 = w^2 at order 3
    assert reduce_root_of_unity(w**-1 - w * w, "W", 3).is_zero()
    # i^2 = -1 at order 4
    assert reduce_root_of_unity(w * w + 1, "W", 4).is_zero()


def test_eval_numeric():
    p = LaurentPoly.variable(V2, "Z1") * 2 + LaurentPoly.variable(V2, "Z2", -1)
    v = p.eval({"Z1": 1 + 1j, "Z2": 2j})
    assert abs(v - (2 * (1 + 1j) + 1 / (2j))) < 1e-14


# -- packed monomial keys against a tuple-keyed reference --------------------------

SLOT_LIMIT = 2**31 - 1  # the largest |exponent| a packed slot holds


def _ref_collect(pairs):
    """Sum (exponents, coefficient) pairs into a dict in insertion order,
    dropping a key when its sum reaches zero: the tuple-keyed arithmetic
    the packed one must reproduce, order included."""
    out = {}
    for e, c in pairs:
        s = out.get(e, 0) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _ref_mul(a, b):
    return _ref_collect(
        (tuple(x + y for x, y in zip(e1, e2)), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items()
    )


def _ref_dual(a, vs):
    if vs[0] == "E1":  # e_k -> e_{n-k} / e_n
        return {e[-2::-1] + (-e[-1] - sum(e[:-1]),): c for e, c in a.items()}
    return {tuple(-x for x in e): c for e, c in a.items()}


@st.composite
def _term_dicts(draw, maps=2):
    """A context of 1..9 variables, (LAM, E1..E8) or (E1..E8), and `maps`
    terms maps on it with up to 50 terms, negative and far exponents included."""
    k = draw(st.integers(1, 9))
    vs = (("LAM",) + evars(8))[:k] if draw(st.booleans()) else evars(min(k, 8))
    exps = st.one_of(st.integers(-6, 6), st.integers(-(2**20), 2**20))
    coeffs = st.one_of(
        st.integers(-9, 9).filter(bool),
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    )
    terms = st.dictionaries(st.tuples(*[exps] * len(vs)), coeffs, max_size=50)
    return (vs, *(draw(terms) for _ in range(maps)))


@settings(max_examples=60, deadline=None)
@given(_term_dicts())
def test_packed_arithmetic_matches_tuple_reference(case):
    vs, ta, tb = case
    a, b = LaurentPoly(vs, ta), LaurentPoly(vs, tb)
    for p, want in (
        (a, ta),
        (a * b, _ref_mul(ta, tb)),
        (a + b, _ref_collect([*ta.items(), *tb.items()])),
        (a - b, _ref_collect([*ta.items(), *((e, -c) for e, c in tb.items())])),
        (-a, {e: -c for e, c in ta.items()}),
        (a * Fraction(-2, 3), {e: c * Fraction(-2, 3) for e, c in ta.items()}),
        (a.dual(), _ref_dual(ta, vs)),
    ):
        # same terms in the same order, so sums over the terms (eval) agree
        assert list(p.terms.items()) == list(want.items())
        assert len(p.terms) == len(want) and p.terms == want
    assert (a == b) == (ta == tb)
    assert a == LaurentPoly(vs, dict(reversed(ta.items())))
    wide = ("Q",) + vs[::-1]
    assert a.with_vars(wide).terms == {(0,) + e[::-1]: c for e, c in ta.items()}
    assert a.with_vars(wide).with_vars(wide) == a.with_vars(wide)
    run = ("Q",) + vs + ("R",)  # vs as one run of slots
    assert a.with_vars(run).terms == {(0,) + e + (0,): c for e, c in ta.items()}


@settings(max_examples=40, deadline=None)
@given(_term_dicts(maps=6))
def test_sum_of_products_matches_products_and_sums(case):
    vs, *maps = case
    polys = [LaurentPoly(vs, t) for t in maps]
    pairs = list(zip(polys[::2], polys[1::2]))
    got = LaurentPoly.sum_of_products(vs, pairs)
    assert got == sum((a * b for a, b in pairs), LaurentPoly.zero(vs))
    # one dict for the whole sum: the order of the flat tuple reference
    flat = [
        (tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
        for ta, tb in zip(maps[::2], maps[1::2])
        for e1, c1 in ta.items()
        for e2, c2 in tb.items()
    ]
    assert list(got.terms.items()) == list(_ref_collect(flat).items())
    a, b = pairs[0]
    assert LaurentPoly.sum_of_products(vs, [(a, b), (-a, b)]).is_zero()
    assert LaurentPoly.sum_of_products(vs, [(a, b), (b, a * -1)]).is_zero()
    assert LaurentPoly.sum_of_products(vs, []) == LaurentPoly.zero(vs)
    assert LaurentPoly.sum_of_products(vs, iter(pairs[1:2])) == pairs[1][0] * pairs[1][1]
    # x + y s: x's terms, then the products, in the order of the sum of x 1 and y s
    x, one = polys[4], LaurentPoly.one(vs)
    got = x.plus_product(a, b)
    assert list(got.terms.items()) == list(LaurentPoly.sum_of_products(vs, [(x, one), (a, b)]).terms.items())
    assert x.plus_product(a, b - b) == x and (-x).plus_product(x, one).is_zero()


def test_sum_of_products_fractions_and_contexts():
    half, third = LaurentPoly.constant(V2, Fraction(1, 2)), LaurentPoly.constant(V2, Fraction(1, 3))
    z1 = LaurentPoly.variable(V2, "Z1")
    got = LaurentPoly.sum_of_products(V2, [(half, z1), (third, z1), (z1, Fraction(1, 6) * z1)])
    assert got == z1 * Fraction(5, 6) + z1 * z1 * Fraction(1, 6)
    assert LaurentPoly.sum_of_products(V2, [(half * 2, z1), (-z1, LaurentPoly.one(V2))]).is_zero()
    with pytest.raises(ValueError):
        LaurentPoly.sum_of_products(V2, [(z1, LaurentPoly.one(V3))])
    with pytest.raises(ValueError):
        LaurentPoly.sum_of_products(V3, [(z1, z1)])
    # the factors of x + y s live in the context too
    assert LaurentPoly.sum_of_products(V2, [(z1, LaurentPoly.one(V2)), (half, z1)]) == z1 * Fraction(3, 2)
    for thunk in (
        lambda: z1.plus_product(LaurentPoly.one(V3), z1),
        lambda: z1.plus_product(z1, LaurentPoly.one(V3)),
        lambda: z1.plus_product(LaurentPoly.zero(V3), z1),
    ):
        with pytest.raises(ValueError):
            thunk()


def _outcome(thunk):
    """A polynomial as its context, terms in order and bound, or the ValueError raised."""
    try:
        p = thunk()
    except ValueError as exc:
        return str(exc)
    return p.vars, list(p._t.items()), p._b


@settings(max_examples=60, deadline=None)
@given(_term_dicts(maps=3), st.sampled_from(["", "y", "s"]), st.sampled_from(["", "y", "s"]))
@example(case=(V2, {(9, 0): 1}, {(1, 0): 2}, {(0, -1): 3}), zero="", elsewhere="")  # self's bound is the larger
def test_plus_product_is_the_one_pair_sum_of_products(case, zero, elsewhere):
    # zero: the factor made 0; elsewhere: the factor put in another context
    vs, tx, ty, ts = case
    x = LaurentPoly(vs, tx)
    f = {name: LaurentPoly(vs, {} if name == zero else t) for name, t in (("y", ty), ("s", ts))}
    if elsewhere:
        f[elsewhere] = f[elsewhere].with_vars(("W",) + vs)
    y, s = f["y"], f["s"]
    got = _outcome(lambda: x.plus_product(y, s))
    assert got == _outcome(lambda: LaurentPoly.sum_of_products(vs, [(x, LaurentPoly.one(vs)), (y, s)]))
    assert isinstance(got, str) == bool(elsewhere)
    if zero and not elsewhere:
        assert x.plus_product(y, s) is x


@pytest.mark.parametrize("vs", [(), V2, evars(3)])
def test_equality_with_a_number_is_equality_with_its_constant(vs):
    polys = [LaurentPoly.constant(vs, c) for c in (0, 1, -3, Fraction(1, 2))]
    if vs:
        polys += [LaurentPoly.variable(vs, vs[0]) + 1, LaurentPoly.variable(vs, vs[-1], -2) * Fraction(1, 2) - 3]
    for p in polys:
        for c in (0, 1, -3, True, Fraction(1), Fraction(1, 2)):
            const = LaurentPoly.constant(vs, c)
            assert (p == c) == (c == p) == (p == const), (p, c)
            assert (p != c) == (c != p) == (p != const), (p, c)
    zero, one = polys[:2]
    assert zero == 0 and zero != 1 and one == 1 and one == True and one != -3 and one == Fraction(1)
    assert polys[2] == -3 and polys[3] == Fraction(1, 2) and polys[3] != 0


def test_operation_results_stay_immutable():
    z1, z2 = LaurentPoly.variable(V2, "Z1"), LaurentPoly.variable(V2, "Z2")
    for p in (z1.plus_product(z1, z2), z1 * z2, z1 + z2, z1.dual(), LaurentPoly.sum_of_products(V2, [(z1, z2)])):
        before = _outcome(lambda: p)
        for name, value in (("vars", V3), ("_t", {}), ("_b", 0), ("_terms", None)):
            with pytest.raises(AttributeError):
                setattr(p, name, value)
        assert _outcome(lambda: p) == before


def test_terms_is_a_read_only_view():
    p = LaurentPoly(V2, {(1, -2): 3, (0, 0): 1})
    with pytest.raises(TypeError):
        p.terms[(1, -2)] = 4
    with pytest.raises(TypeError):
        p.terms[(5, 5)] = 1
    with pytest.raises(AttributeError):
        p.terms = {}
    assert p.terms == {(1, -2): 3, (0, 0): 1} and p == LaurentPoly(V2, {(1, -2): 3, (0, 0): 1})


def test_exponents_past_the_slot_limit_raise():
    vs = ("LAM",) + evars(3)
    top = LaurentPoly.monomial(vs, (SLOT_LIMIT, 0, -SLOT_LIMIT, 0))
    assert top.terms == {(SLOT_LIMIT, 0, -SLOT_LIMIT, 0): 1}
    half = LaurentPoly.monomial(vs, (0, 2**30, 0, 0)) + 1
    # 2^30 + (2^30 - 1) fits in a slot; 2^30 + 2^30 would carry into the next
    below = LaurentPoly.monomial(vs, (0, 2**30 - 1, 0, 0))
    for p in (
        half * below,
        LaurentPoly.sum_of_products(vs, [(half, below), (below, below - below)]),
        LaurentPoly.zero(vs).plus_product(half, below),
    ):
        assert p.terms == {(0, 2**31 - 1, 0, 0): 1, (0, 2**30 - 1, 0, 0): 1}
    # a product with a zero factor adds nothing to the bound of x + y s
    assert top.plus_product(half, half - half) == top
    # a pair with a zero factor adds nothing to the sum's bound
    assert LaurentPoly.sum_of_products(vs, [(top - top, top), (half, half - half)]).is_zero()
    for thunk in (
        lambda: half * half,
        lambda: half**2,
        lambda: LaurentPoly.sum_of_products(vs, [(below, below), (half, half)]),
        lambda: below.plus_product(half, half),
        lambda: top * LaurentPoly.variable(vs, "E2", -1),
        lambda: LaurentPoly.monomial(vs, (0, 0, 0, 2**31)),
        lambda: LaurentPoly.monomial(vs, (0, 2**16, 0, 0)) ** -(2**15),
        lambda: (LaurentPoly.monomial(evars(4), (2**30, 0, 0, 2**30)) + 1).dual(),
        # W^-1 reduces to -1 - W - .. - W^5 at a 7th root of unity, whose
        # exponents reach 5, not 1
        lambda: reduce_root_of_unity(LaurentPoly.variable(("W",), "W", -1), "W", 7)
        * LaurentPoly.variable(("W",), "W", SLOT_LIMIT - 4),
    ):
        with pytest.raises(OverflowError):
            thunk()


@pytest.mark.parametrize("exps", [(1.0, 0), (0, 2.0), (np.int64(1), 0), (0, np.int64(-2))])
def test_exponents_must_be_python_integers(exps):
    # a fixed-width integer would wrap when packed
    with pytest.raises(TypeError):
        LaurentPoly(V2, {exps: 1})


def test_drifted_bounds_are_refit_from_the_keys():
    # the bound of the reduction is its order, 7; its exponents reach 5, so
    # the product tops out at the slot limit itself
    w = reduce_root_of_unity(LaurentPoly.variable(("W",), "W", -1), "W", 7)
    top = LaurentPoly.variable(("W",), "W", SLOT_LIMIT - 5)
    want = {(SLOT_LIMIT - 5 + k,): -1 for k in range(6)}
    assert (w * top).terms == want
    assert LaurentPoly.sum_of_products(("W",), [(w, top)]).terms == want

