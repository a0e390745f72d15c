"""K-theory algebra: normal form, Euler pairing, mutations, braid action,
dual bases, canonical operator, Diophantine constraints, named bases."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from projqde.ktheory import (
    BraidWord,
    ExceptionalBasis,
    KClass,
    beilinson_basis,
    braid_act,
    braid_constants,
    canonical_char_poly,
    chi_pair,
    dioph_residual,
    dual_basis,
    evars,
    exterior_tangent_class,
    gram_matrix,
    kclass_from_laurent,
    markov_residuals_rank3,
    markov_residuals_rank4,
    mutate,
    serre_twist,
    structured_basis,
    to_z,
    xz_vars,
)
from projqde import ktheory
from projqde.ktheory import _h_dual, _o_power_coords, _power_elementary
from projqde.ring import LAMBDA, LaurentMatrix, LaurentPoly, sym_poly, zvars

from identities import (
    char_poly,
    coefficient,
    drop_vars,
    gram_in_window_zero,
    is_exceptional_in_window_zero,
    mul_class,
    specialize,
    substitute_monomial,
    twist_by_expand,
)


def line(n, i):
    return KClass.line_bundle(n, i)


def rand_kclass(rng, n, span=1):
    """A class over Z1..Zn with two random Laurent terms on each power X^0..X^{n-1}."""
    terms = {}
    for j in range(n):
        for _ in range(2):
            e = tuple(rng.randint(-span, span) for _ in range(n))
            terms[(j,) + e] = Fraction(rng.randint(-3, 3))
    return kclass_from_laurent(LaurentPoly(xz_vars(n), terms), n)


# -- normal form -------------------------------------------------------------


def test_normal_form_basics():
    n = 3
    vs = xz_vars(n)
    one = kclass_from_laurent(LaurentPoly.one(vs), n)
    assert one.coeffs[0] == LaurentPoly.one(zvars(n))
    assert all(c.is_zero() for c in one.coeffs[1:])

    # n=2: X^2 = s_1 X - s_2
    x2 = kclass_from_laurent(LaurentPoly.variable(xz_vars(2), "X", 2), 2)
    assert x2.coeffs[1] == sym_poly("elementary", 1, 2)
    assert x2.coeffs[0] == -sym_poly("elementary", 2, 2)


def test_x_is_a_unit_in_the_quotient():
    for n in (2, 3, 4):
        xinv = KClass.x_power(n, -1)
        prod = mul_class(xinv, KClass.x_power(n, 1))
        assert prod == KClass.x_power(n, 0)


def test_defining_relation_dies():
    for n in (2, 3):
        vs = xz_vars(n)
        rel = LaurentPoly.one(vs)
        for j in range(1, n + 1):
            rel = rel * (LaurentPoly.variable(vs, "X") - LaurentPoly.variable(vs, f"Z{j}"))
        assert kclass_from_laurent(rel, n).is_zero()


# -- Euler pairing -----------------------------------------------------------


@lru_cache(maxsize=None)
def localization_denominators(n: int, opposite: bool):
    """The denominators den_a = prod_{j != a} (1 - Z_a/Z_j) of the fixed-point
    sums, or (1 - Z_j/Z_a) when opposite, for a = 1..n, and their partial
    products prod_{b < a} den_b for a = 1..n+1."""
    zv = zvars(n)
    one = LaurentPoly.one(zv)
    z = [LaurentPoly.variable(zv, v) for v in zv]
    zinv = [LaurentPoly.variable(zv, v, -1) for v in zv]
    dens = [
        math.prod((one - (z[j] * zinv[a] if opposite else z[a] * zinv[j]) for j in range(n) if j != a), start=one)
        for a in range(n)
    ]
    partial = [one]
    for d in dens:
        partial.append(partial[-1] * d)
    return dens, partial


def localization_sum(f: KClass, g: KClass, opposite: bool):
    """sum_a f_a^* g_a / den_a over the fixed points a, with f_a, g_a the
    restrictions there and den_a as in `localization_denominators`, as a
    numerator and a denominator: (sum_a f_a^* g_a prod_{b != a} den_b,
    prod_b den_b), summed one fraction at a time."""
    dens, partial = localization_denominators(f.n, opposite)
    num = LaurentPoly.zero(dens[0].vars)
    for fa, ga, d, p in zip(f.restrictions(), g.restrictions(), dens, partial):
        num = LaurentPoly.sum_of_products(num.vars, ((num, d), (fa.dual() * ga, p)))
    return num, partial[-1]


def assert_localizes(fraction, closed):
    """A localization sum (numerator, denominator) equals the closed form,
    num = closed * den, and not the closed form plus Z1 (negative control)."""
    num, den = fraction
    want = closed * den
    assert num == want
    assert num != want + LaurentPoly.variable(closed.vars, "Z1") * den


def chi_via_localization(f, g):
    """The oracle for the pairing, by the fixed-point localization formula
    sum_a f(Z_a^{-1}, Z^{-1}) g(Z_a, Z) / prod_{j != a} (1 - Z_a/Z_j),
    cross-multiplied (`localization_sum`)."""
    return localization_sum(f, g, opposite=False)


def test_chi_line_bundle_values():
    n = 3
    for i in range(-2, 3):
        assert chi_pair(line(n, i), line(n, i)) == LaurentPoly.one(zvars(n))
    assert chi_pair(line(n, 1), line(n, 0)).is_zero()
    assert chi_pair(line(2, 0), line(2, 1)) == sym_poly("complete", 1, 2).dual()


@pytest.mark.parametrize("n", [2, 3])
def test_chi_matches_closed_form_table(n):
    sn = sym_poly("elementary", n, n)
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            got = chi_pair(line(n, i), line(n, j))
            if i <= j:
                want = sym_poly("complete", j - i, n).dual()
            elif j < i < j + n:
                want = LaurentPoly.zero(zvars(n))
            else:
                want = sym_poly("complete", i - j - n, n) * sn
                if (n - 1) % 2 == 1:
                    want = -want
            assert got == want, (i, j)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chi_localization_cross_check(n):
    rng = random.Random(21)
    pairs = [(rand_kclass(rng, n), rand_kclass(rng, n)) for _ in range(4)]
    if n >= 3:
        # classes kept over the representation ring: a mutated basis and a
        # rescaled sorted basis, paired with each other and with a Z-ring class
        mutated = braid_act(BraidWord((1, -(n - 1))), beilinson_basis(n)).elements
        rescaled = structured_basis("Qpt", -1, n).elements
        assert all(e.ring == evars(n) for e in mutated + rescaled)
        pairs += [
            (mutated[0], rescaled[-1]),
            (rescaled[1], mutated[-1]),
            (mutated[1], pairs[0][1]),
        ]
    for f, g in pairs:
        assert_localizes(chi_via_localization(f, g), chi_pair(f, g))


@st.composite
def braid_images(draw):
    """braid_act(w, B) for a random word w of length <= 3 and B the Beilinson
    basis or a rescaled sorted basis Qpt twisted by |k| <= 1, at n = 3, 4."""
    n = draw(st.sampled_from([3, 4]))
    letters = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    word = BraidWord(tuple(draw(st.lists(letters, max_size=3))))
    k = draw(st.sampled_from([None, -1, 0, 1]))
    basis = beilinson_basis(n) if k is None else structured_basis("Qpt", k, n)
    return braid_act(word, basis)


@settings(max_examples=25, deadline=None)
@given(braid_images())
def test_chi_localization_on_braid_orbits(basis):
    for f in basis.elements:
        for g in basis.elements:
            assert_localizes(chi_via_localization(f, g), chi_pair(f, g))


def _chi_reference(f, g):
    """chi(f, g) as a double sum over the common ring, column by column:
    sum_b g_b (sum_{a<=b} f_a^* h_{b-a}(Z^{-1}))."""
    f, g = f._common(g)
    vs = f.ring
    fd = [c.dual() for c in f.ocoords]
    acc = LaurentPoly.zero(vs)
    for b, gb in enumerate(g.ocoords):
        col = LaurentPoly.zero(vs)
        for a in range(b + 1):
            col = col + fd[a] * _h_dual(vs, b - a)
        acc = acc + gb * col
    return acc


def _is_exceptional_reference(els):
    return all(
        _chi_reference(e, e) == 1 and all(_chi_reference(f, e).is_zero() for f in els[i + 1 :])
        for i, e in enumerate(els)
    )


def _scaled(basis, chars):
    """Each element times the torus character Z^a (None: left as it is)."""
    vs = zvars(basis.n)
    els = [e if a is None else e.scale(LaurentPoly.monomial(vs, a)) for e, a in zip(basis.elements, chars)]
    return ExceptionalBasis(els, verify=False)


def _swapped(basis, i, j):
    els = list(basis.elements)
    els[i], els[j] = els[j], els[i]
    return ExceptionalBasis(els, verify=False)


def _pairing_cases():
    """Braid orbits of the Beilinson and Qpt bases at n = 3..6 over E1..En,
    torus-scaled (fully or in part) bases at n = 3, 4 over Z1..Zn, and each
    of them with two elements swapped."""
    rng = random.Random(31)
    out = []
    for n in (3, 4, 5, 6):
        for base in (beilinson_basis(n), structured_basis("Qpt", -1, n)):
            word = BraidWord(tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(3)))
            out.append(braid_act(word, base))
    for n in (3, 4):
        orbit = braid_act(BraidWord((1, -(n - 1))), structured_basis("Qpt", 0, n))
        chars = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        out += [_scaled(orbit, chars), _scaled(orbit, [c if k % 2 else None for k, c in enumerate(chars)])]
    return out + [_swapped(b, 0, b.n - 2) for b in out]


def test_pairing_by_columns_matches_the_double_sum():
    for basis in _pairing_cases():
        els, n = basis.elements, basis.n
        assert all(chi_pair(f, g) == to_z(_chi_reference(f, g), n) for f in els for g in els)
        if len({e.ring for e in els}) > 1:  # a Gram matrix over Z1..Zn
            els = [e._in_z() for e in els]
        assert gram_matrix(basis) == LaurentMatrix([[_chi_reference(f, g) for g in els] for f in els])
        assert basis.is_exceptional() == _is_exceptional_reference(els)
    rng = random.Random(32)
    for n in (2, 3, 4):
        zs = [rand_kclass(rng, n, span=2) for _ in range(3)]
        es = [line(n, -1), exterior_tangent_class(1, 2, n)]
        for f in zs + es:
            for g in zs + es:
                assert chi_pair(f, g) == to_z(_chi_reference(f, g), n)


def _dense_classes(n):
    """Classes with many terms in O(0)..O(n-1), in all three storage forms: O(+-2n),
    Lambda^1 T(-2n), random Z-ring classes twisted by +-2n, and torus-scaled ones."""
    rng = random.Random(33 + n)
    z = LaurentPoly.monomial(zvars(n), [rng.randint(-2, 2) for _ in range(n)])
    es = [line(n, 2 * n), line(n, -2 * n), exterior_tangent_class(1, 2 * n, n)]
    zs = [rand_kclass(rng, n).twist(m) for m in (2 * n, -2 * n)]
    return es + zs + [e.scale(z) for e in es[:2] + zs[:1]]


@pytest.mark.parametrize("n", [2, 3])
def test_mutation_and_chi_pair_match_the_double_sum_on_dense_classes(n, monkeypatch):
    # mutate and chi_pair pair by the same `_columns` and `_pair` as the basis
    # check, so the reference here is the window-0 double sum.  Each pairs
    # only what it reads: chi_pair chi(f, g) from the columns of f; a left
    # mutation chi(e, e) and chi(e, f) from those of e; a right one chi(e, e)
    # and chi(f, e) from those of e and f.
    built, paired = [], []
    columns, pair = ktheory._columns, ktheory._pair
    monkeypatch.setattr(ktheory, "_columns", lambda f: built.append(f) or columns(f))
    monkeypatch.setattr(ktheory, "_pair", lambda cols, g: paired.append(g) or pair(cols, g))
    els = _dense_classes(n)
    pivots = [e for e in els if _chi_reference(e, e) == 1]
    assert len(pivots) >= 4
    for f in els:
        for g in els:
            built.clear()
            paired.clear()
            assert chi_pair(f, g) == to_z(_chi_reference(f, g), n), (n, f, g)
            assert (len(built), len(paired)) == (1, 1)
        for e in pivots:
            for side, reference, counts in (("left", _chi_reference(e, f), (1, 2)),
                                            ("right", _chi_reference(f, e).dual(), (2, 2))):
                built.clear()
                paired.clear()
                assert mutate(side, e, f) == f - e.scale(reference), (n, side, e, f)
                assert (len(built), len(paired)) == counts, (n, side)


def test_verification_checks_the_classes(monkeypatch):
    n = 5
    orbit = braid_act(BraidWord((1, -3, 2)), beilinson_basis(n))
    assert orbit.is_exceptional() and not _swapped(orbit, 1, 3).is_exceptional()
    torus = _scaled(beilinson_basis(4), [(1, 0, -1, 2), (0, 2, 0, 0), (-1, -1, 0, 1), (3, 0, 0, -2)])
    assert torus.is_exceptional() and not _swapped(torus, 0, 2).is_exceptional()
    # a wrong class is caught although the carried Gram matrix stays right:
    # the final check pairs the returned classes.  It adds the pivot e itself
    # (over Z1..Zn when the characters differ), or e moved to the character of
    # the new class, so that the sum keeps R(GL_n) coordinates times one character
    mutation_ok = ktheory._mutation
    for moved in (lambda e, new: e, lambda e, new: e.scale(_character(new, e))):

        def wrong_class(f, e, m, moved=moved):
            new = mutation_ok(f, e, m)
            return new + moved(e, new)

        monkeypatch.setattr(ktheory, "_mutation", wrong_class)
        for basis in (orbit, torus):
            for letter in (2, -1):
                with pytest.raises(ArithmeticError):
                    braid_act(BraidWord((letter,)), basis)
    monkeypatch.setattr(ktheory, "_mutation", mutation_ok)

    # a wrong carried Gram matrix is caught once a later move reads a
    # coefficient from it: the row update takes m in place of its dual md
    def dropped_dual(rows, a, b, m, md):
        for row in rows:
            row[a] = row[a].plus_product(row[b], m)
        rows[a] = [x.plus_product(y, m) for x, y in zip(rows[a], rows[b])]

    monkeypatch.setattr(ktheory, "_gram_step", dropped_dual)
    for basis in (orbit, torus):
        for letters in ((1, 2), (-1, -1)):
            with pytest.raises(ArithmeticError):
                braid_act(BraidWord(letters), basis)


def _character(f, g):
    """Z^{b-a} over Z1..Zn, for classes f, g stored with characters Z^b, Z^a."""
    return LaurentPoly.monomial(zvars(f.n), [b - a for a, b in zip(g._char, f._char)])


# -- pairing in the sparsest window ------------------------------------------------


def _perturbed(basis, i, j):
    """The basis with e_j replaced by e_j + e_i, i < j, e_i moved to the character
    of e_j so that the sum keeps its ring: chi(e_j + Z^a e_i, e_i) = Z^-a."""
    els = list(basis.elements)
    els[j] = els[j] + els[i].scale(_character(els[j], els[i]))
    return ExceptionalBasis(els, verify=False)


@lru_cache(maxsize=None)
def _window_cases(n):
    """The C^-n, beta and beta^-1 images of the Beilinson, Qpt, torus-scaled
    and Z-ring bases at rank n, unverified, each also perturbed by `_perturbed`.
    The Z-ring C^-n image is left out past n = 5: the oracle takes 7.6 s on it."""
    rng = random.Random(40 + n)
    qpt = structured_basis("Qpt", -1, n)
    chars = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
    z_ring = ExceptionalBasis([e._in_z() for e in beilinson_basis(n).elements], verify=False)
    beta = braid_constants("beta", n)
    words = (braid_constants("C", n) ** -n, beta, beta.inverse())
    images = [
        braid_act(w, b, verify=False)
        for b in (beilinson_basis(n), qpt, _scaled(qpt, chars), z_ring)
        for w in words
        if n <= 5 or b is not z_ring or w is not words[0]
    ]
    return images + [_perturbed(b, rng.randrange(n - 1), n - 1) for b in images]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_window_verdict_matches_the_window_zero_oracle(n):
    cases = _window_cases(n)
    verdicts = set()
    for basis in cases:
        want = is_exceptional_in_window_zero(basis.elements)
        assert basis.is_exceptional() == want, (n, basis)
        verdicts.add(want)
    assert verdicts == {True, False}
    for basis in cases[: len(cases) // 2]:  # the images, unperturbed
        els = ktheory._one_ring(basis.elements)
        want = LaurentMatrix([[chi_pair(f, g) for g in els] for f in els])
        assert gram_matrix(basis).map(lambda p: to_z(p, n)) == want


@pytest.mark.parametrize("n", [3, 4, 5])
def test_window_check_rejects_a_perturbed_serre_image(n):
    for base in (beilinson_basis(n), structured_basis("Qpt", -1, n)):
        image = braid_act(braid_constants("C", n) ** -n, base)
        for i, j in ((0, n - 1), (n - 2, n - 1), (0, 1)):
            els = _perturbed(image, i, j).elements
            assert ktheory._sparsest_window(list(els)) != list(els)  # the pairing runs at a nonzero shift
            assert not ExceptionalBasis(els, verify=False).is_exceptional(), (n, base, i, j)


def _three_storage_forms(n):
    rng = random.Random(50 + n)
    e_form = structured_basis("Qpt", 1, n).elements[-1]
    return [e_form, e_form.scale(LaurentPoly.monomial(zvars(n), (1,) + (0,) * (n - 1))), rand_kclass(rng, n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_step_and_its_inverse_give_the_coordinates_back(n):
    for f in _three_storage_forms(n) + [line(n, -n), serre_twist(line(n, 1))]:
        for d in (1, -1):
            assert ktheory._step(ktheory._step(f._co, d), -d) == f._co


@pytest.mark.parametrize("n", [2, 3, 4])
def test_twist_by_steps_matches_the_expansion_oracle(n):
    for f in _three_storage_forms(n):
        for m in range(-2 * n, 2 * n + 1):
            assert f.twist(m) == twist_by_expand(f, m), (n, f, m)


def test_the_serre_image_of_qpt_verifies_at_rank_8():
    # C^-n acts as the Serre twist; the final check pairs the images in their own window
    n = 8
    base = structured_basis("Qpt", -1, n)
    image = braid_act(braid_constants("C", n) ** -n, base)
    assert image.elements == tuple(serre_twist(e) for e in base.elements)


# -- the kept pairing ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _kept_pairing_cases(n):
    """(B, w, braid_act(w, B)) for w = beta, beta^-1, C^-n and sigma_odd on the
    Beilinson, Qpt, torus-scaled and Z-ring bases at rank n, each B built unverified,
    so without a kept pairing.  The Z-ring C^-n image is left out past n = 5: the
    window-0 oracle takes seconds on it."""
    rng = random.Random(60 + n)
    qpt = structured_basis("Qpt", -1, n)
    chars = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
    z_ring = ExceptionalBasis([e._in_z() for e in beilinson_basis(n).elements], verify=False)
    beta = braid_constants("beta", n)
    words = (beta, beta.inverse(), braid_constants("C", n) ** -n, braid_constants("sigma_odd", n))
    return [
        (b, w, braid_act(w, b))
        for b in (beilinson_basis(n), qpt, _scaled(qpt, chars), z_ring)
        for w in words
        if n <= 5 or b is not z_ring or w is not words[2]
    ]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_kept_gram_matrix_is_a_fresh_pairing(n):
    # the image keeps what its final check paired; it equals the window-0 pairing
    for _, w, image in _kept_pairing_cases(n):
        want = gram_in_window_zero(image.elements)
        got = gram_matrix(image)
        assert got.vars == want.vars
        for i in range(n):
            for j in range(n):
                assert got[i, j] == want[i, j], (n, w, image, i, j)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_braid_act_from_a_kept_pairing_matches_braid_act_without_one(n):
    for _, w, image in _kept_pairing_cases(n):
        assert image._rows is not None
        bare = ExceptionalBasis(image.elements, image.labels, verify=False)
        for v in (w, BraidWord((1, -(n - 1), 2))):
            got, want = braid_act(v, image), braid_act(v, bare)
            assert got.elements == want.elements and got.labels == want.labels, (n, w, v)
    # bases dense in O(0)..O(n-1), built unverified: their moves start from a full
    # pairing in the sparsest window, and the images pair as the window-0 oracle does
    for bare in (structured_basis("Qpt", 2 * n, n), structured_basis("Qppt", -2 * n, n)):
        assert bare._rows is None
        kept = ExceptionalBasis(bare.elements, bare.labels, bare.eigen_tags)
        for v in (braid_constants("beta", n), BraidWord((1, -(n - 1), 2))):
            got, want = braid_act(v, kept), braid_act(v, bare)
            assert got.elements == want.elements and got.labels == want.labels, (n, bare, v)
            assert gram_matrix(want) == gram_in_window_zero(want.elements), (n, bare, v)


@pytest.mark.parametrize("n", [3, 4])
def test_braid_act_keeps_no_pairing_on_its_input(n):
    # nor does it replace the one its input keeps: it starts from a copy
    for base, w, image in _kept_pairing_cases(n):
        kept = image._rows
        for verify in (True, False):
            braid_act(w, base, verify=verify)
            braid_act(w.inverse(), image, verify=verify)
            assert base._rows is None and image._rows is kept, (n, w, verify)


def test_the_final_check_compares_the_carried_rows(monkeypatch):
    # one carried entry made wrong after the moves of a one-letter word, so no
    # later move reads it: the classes stay right, and only the comparison of the
    # carried rows with the fresh pairing can see it
    n = 5
    chars = [(1, 0, -1, 2, 0), (0, 2, 0, 0, 1), (-1, -1, 0, 1, 0), (3, 0, 0, -2, 1), (0,) * n]
    torus = _scaled(beilinson_basis(n), chars)
    kept = braid_act(BraidWord((2, -1)), structured_basis("Qpt", -1, n))
    step = ktheory._gram_step

    def corrupted(rows, a, b, m, md):
        step(rows, a, b, m, md)
        rows[a][b] = rows[a][b] + 1

    for basis in (beilinson_basis(n), torus, kept):
        for letter in (1, -1, n - 1, 2 - n):
            word = BraidWord((letter,))
            want = braid_act(word, basis)
            monkeypatch.setattr(ktheory, "_gram_step", corrupted)
            with pytest.raises(ArithmeticError):
                braid_act(word, basis)
            got = braid_act(word, basis, verify=False)
            monkeypatch.setattr(ktheory, "_gram_step", step)
            assert got.elements == want.elements and got.labels == want.labels, (basis, letter)


@st.composite
def _torus_scaled_orbits(draw):
    """(B, chars, w): B the Beilinson basis or Qpt twisted by |k| <= 1 at
    n = 3, 4, a character or None (unscaled) per element, two of them
    differing by a multiple of (1, .., 1), and a word of <= 3 letters."""
    n = draw(st.sampled_from([3, 4]))
    k = draw(st.sampled_from([None, -1, 0, 1]))
    basis = beilinson_basis(n) if k is None else structured_basis("Qpt", k, n)
    char = st.tuples(*[st.integers(-2, 2)] * n)
    chars = draw(st.lists(st.one_of(st.none(), char), min_size=n, max_size=n))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if chars[i] is not None:
        shift = draw(st.integers(-2, 2))
        chars[j] = tuple(a + shift for a in chars[i])
    letters = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    return basis, chars, BraidWord(tuple(draw(st.lists(letters, max_size=3))))


def _slot_origins(word, n):
    """Which element of the basis each slot of braid_act(word, basis) descends
    from: the mutated class keeps the character of the class it mutates, and
    each move swaps the characters of its two slots."""
    perm = list(range(n))
    for t in reversed(word.letters):
        i = n - abs(t)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return perm


@settings(max_examples=30, deadline=None)
@given(_torus_scaled_orbits())
def test_braid_act_carries_torus_characters(case):
    basis, chars, word = case
    n = basis.n
    scaled = _scaled(basis, chars)
    got = braid_act(word, scaled).elements
    want = _scaled(braid_act(word, basis), [chars[p] for p in _slot_origins(word, n)]).elements
    assert [f.coeffs for f in got] == [f.coeffs for f in want]
    # the Gram matrix equals the one of the classes first expanded in Z
    expanded = ExceptionalBasis([f._in_z() for f in got], verify=False)
    gram = gram_matrix(ExceptionalBasis(got, verify=False))
    assert gram.vars == (zvars(n) if any(f.ring == zvars(n) for f in got) else evars(n))
    assert gram.map(lambda p: to_z(p, n)) == gram_matrix(expanded)
    assert all(tuple(to_z(c, n) for c in f.ocoords) == f._in_z().ocoords for f in got)
    for f, g in zip(got, got[1:] + got[:1]):
        assert_localizes(chi_via_localization(f, g), chi_pair(f, g))


@settings(max_examples=30, deadline=None)
@given(_torus_scaled_orbits(), st.tuples(*[st.integers(-2, 2)] * 4), st.integers(-2, 2))
def test_torus_characters_are_units(case, a, m):
    basis, chars, _ = case
    n = basis.n
    vs = zvars(n)
    za, zinv = LaurentPoly.monomial(vs, a[:n]), LaurentPoly.monomial(vs, [-x for x in a[:n]])
    en = LaurentPoly.monomial(evars(n), (0,) * (n - 1) + (m,))
    classes = [KClass.zero(n)]
    for f in _scaled(basis, chars).elements:
        assert f.scale(za).scale(zinv) == f
        assert f.scale(LaurentPoly.monomial(vs, (m,) * n)) == f.scale(en)
        back = kclass_from_laurent(f.to_laurent(), n)
        classes += [f, f.scale(za), f._in_z(), f.scale(en), back, f + f.scale(za), f - f]
    coeffs = [f.coeffs for f in classes]
    for f, cf in zip(classes, coeffs):
        for g, cg in zip(classes, coeffs):
            assert (f == g) == (cf == cg)


def _restrictions_by_substitution(f):
    """Reference: X -> Z_a in the Laurent form of the class."""
    n = f.n
    lf = f.to_laurent()
    out = []
    for a in range(1, n + 1):
        e = [0] * (n + 1)
        e[lf.vars.index(f"Z{a}")] = 1
        out.append(drop_vars(substitute_monomial(lf, "X", 1, tuple(e)), ["X"]))
    return tuple(out)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_restrictions_match_substitution(n):
    rng = random.Random(5)
    vs = zvars(n)
    lines = [line(n, i) for i in (-n - 1, -1, 0, 2, n)]
    tangent = [exterior_tangent_class(h, 1, n) for h in range(n)]
    mutated = list(braid_act(BraidWord((1, -(n - 1))), beilinson_basis(n)).elements)
    rescaled = list(structured_basis("Qpt", -1, n).elements)
    rho = LaurentPoly.variable(vs, "Z1", 2) - LaurentPoly.variable(vs, f"Z{n}", -1)
    torus = [e.scale(rho) for e in mutated[:2] + lines[:1]]
    classes = lines + tangent + mutated + rescaled + torus + [rand_kclass(rng, n) for _ in range(3)]
    assert {f.ring for f in classes} == {evars(n), vs}
    for f in classes:
        assert f.restrictions() == _restrictions_by_substitution(f)


def _markov_reference(gram, n):
    """Reference: the Markov residuals with every Gram entry expanded in
    Z1..Zn before the products."""
    vs = zvars(n)
    gram = gram.map(lambda p: to_z(p, n))
    pe = [to_z(p, n) for p in _power_elementary(n)]

    def inv_sn(k):
        return LaurentPoly.monomial(vs, (-k,) * n)

    if n == 3:
        a, b, c = gram[0, 1], gram[0, 2], gram[1, 2]
        ad, bd, cd = a.dual(), b.dual(), c.dual()
        lhs1 = a * ad + b * bd + c * cd - a * bd * c
        lhs2 = a * ad + b * bd + c * cd - ad * b * cd
        return [lhs1 - (3 - pe[1] * inv_sn(1)), lhs2 - (3 - pe[2] * inv_sn(2))]
    a, b, c = gram[0, 1], gram[0, 2], gram[0, 3]
    d, e, f = gram[1, 2], gram[1, 3], gram[2, 3]
    ad, bd, cd, dd, ed, fd = (p.dual() for p in (a, b, c, d, e, f))
    norm2 = a * ad + b * bd + c * cd + d * dd + e * ed + f * fd
    lhs1 = norm2 - ad * b * dd - ad * c * ed - bd * c * fd - dd * e * fd + ad * c * dd * fd
    lhs2 = (
        -2 * norm2
        + a * bd * d + ad * b * dd + a * cd * e + ad * c * ed
        + bd * c * fd + b * cd * f + d * ed * f + dd * e * fd
        - a * bd * e * fd - ad * b * ed * f - b * cd * dd * e - bd * c * d * ed
        + a * ad * f * fd + b * bd * e * ed + c * cd * d * dd
    )
    lhs3 = norm2 - a * bd * d - a * cd * e - b * cd * f - d * ed * f + a * cd * d * f
    return [
        lhs1 - (4 + pe[3] * inv_sn(3)),
        lhs2 - (-6 + pe[2] * inv_sn(2)),
        lhs3 - (4 + pe[1] * inv_sn(1)),
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_markov_residuals_over_the_gram_ring(n):
    markov = markov_residuals_rank3 if n == 3 else markov_residuals_rank4
    ev = evars(n)
    # braid-orbit Gram matrices over E1..En: residuals zero there
    for basis in (beilinson_basis(n), structured_basis("Qpt", 0, n)):
        for word in ((), (1,), (2, -1), (1, 1, n - 1)):
            g = gram_matrix(braid_act(BraidWord(word), basis))
            assert g.vars == ev
            res = markov(g)
            assert all(r.vars == ev and r.is_zero() for r in res)
            assert [to_z(r, n) for r in res] == _markov_reference(g, n)
    # unitriangular matrices off the orbit: nonzero residuals, over E and over Z
    rng = random.Random(8)

    def entry(i, j):
        if i >= j:
            return LaurentPoly.one(ev) if i == j else LaurentPoly.zero(ev)
        # only e_n is a unit of R(GL_n)
        exps = [tuple(rng.randint(0, 1) for _ in ev[:-1]) + (rng.randint(-1, 1),) for _ in range(2)]
        return LaurentPoly(ev, {e: rng.randint(-2, 2) for e in exps})

    for _ in range(3):
        g = LaurentMatrix([[entry(i, j) for j in range(n)] for i in range(n)])
        want = _markov_reference(g, n)
        assert not all(r.is_zero() for r in want)
        assert [to_z(r, n) for r in markov(g)] == want
        assert markov(g.map(lambda p: to_z(p, n))) == want


def test_chi_sesquilinearity():
    n = 2
    rho = LaurentPoly(zvars(n), {(1, 0): 2, (0, -1): 1})
    f, g = line(n, 0), line(n, 1)
    assert chi_pair(f.scale(rho), g) == rho.dual() * chi_pair(f, g)
    assert chi_pair(f, g.scale(rho)) == rho * chi_pair(f, g)


def a_pair(f: KClass, g: KClass) -> LaurentPoly:
    """The opposite-order pairing A(f, g) = chi(g, f)^*."""
    return chi_pair(g, f).dual()


def a_via_localization(f: KClass, g: KClass):
    """A(f, g) by localization, written for the opposite-order pairing itself:
    sum_a f(Z_a, Z)^* g(Z_a, Z) / prod_{j != a} (1 - Z_j/Z_a), f and g taken
    at the fixed point a, cross-multiplied (`localization_sum`)."""
    return localization_sum(f, g, opposite=True)


def test_a_pair_is_opposite_order_dual():
    rng = random.Random(44)
    for n in (2, 3, 4):
        mutated = braid_act(BraidWord((1, -(n - 1))), beilinson_basis(n)).elements
        torus = line(n, 1).scale(LaurentPoly.monomial(zvars(n), [rng.randint(-1, 1) for _ in range(n)]))
        classes = [line(n, 1), line(n, -1), mutated[-1], torus, rand_kclass(rng, n)]
        for f in classes:
            for g in classes:
                assert_localizes(a_via_localization(f, g), a_pair(f, g))
        # A is not chi: the two differ on a pair of line bundles
        f, g = line(n, 0), line(n, 1)
        assert a_pair(f, g) != chi_pair(f, g)


# -- Gram matrices and mutations ----------------------------------------------


def test_gram_beilinson_rank2():
    g = gram_matrix(beilinson_basis(2))
    assert g.vars == evars(2)
    m1d = sym_poly("complete", 1, 2).dual()
    one = LaurentPoly.one(zvars(2))
    zero = LaurentPoly.zero(zvars(2))
    assert g.map(lambda p: to_z(p, 2)) == LaurentMatrix([[one, m1d], [zero, one]])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_unitriangular_and_unimodular_on_mutations(n):
    rng = random.Random(5 + n)
    basis = beilinson_basis(n)
    for _ in range(5):
        word = BraidWord(tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(2)))
        basis = braid_act(word, basis)
        g = gram_matrix(basis)
        assert g.is_upper_unitriangular()
        assert g.det() == LaurentPoly.one(evars(n))


def test_mutation_identities():
    n = 3
    rng = random.Random(9)
    e = line(n, 1)
    assert mutate("left", e, e).is_zero()
    for _ in range(5):
        f = rand_kclass(rng, n)
        assert chi_pair(e, mutate("left", e, f)).is_zero()
        assert chi_pair(mutate("right", e, f), e).is_zero()
        # expanding both formulas: R_e(L_e f) = f - chi(f,e)^* e, so the
        # mutations are mutually inverse exactly on chi(f,e) = 0
        rl = mutate("right", e, mutate("left", e, f))
        assert rl == f - e.scale(chi_pair(f, e).dual())
        g = mutate("left", e, f)  # has chi(e,g) = 0
        assert mutate("left", e, mutate("right", e, g)) == g


def test_mutations_inverse_on_orthogonal_argument():
    n = 3
    e = line(n, 0)
    f = line(n, 1)  # chi(f, e) = 0 since 0 < 1 < n
    assert chi_pair(f, e).is_zero()
    assert mutate("right", e, mutate("left", e, f)) == f


def test_mutation_requires_exceptional_pivot():
    torus = line(4, 1).scale(LaurentPoly.monomial(zvars(4), (1, 0, -2, 0)))
    for bad, f in (
        (line(2, 0) + line(2, 1), line(2, 0)),
        (exterior_tangent_class(1, 0, 5) + line(5, 3), line(5, 2)),
        (torus + line(4, 1), torus),
    ):
        for side in ("left", "right"):
            with pytest.raises(ValueError):
                mutate(side, bad, f)


# -- braid action ---------------------------------------------------------------


def _fold_of_mutations(word, basis):
    """Elements and labels of the braid action as a fold of public `mutate`
    calls, one per letter, each pairing from the classes' own coordinates."""
    n = basis.n
    els, labs = list(basis.elements), list(basis.labels)
    for t in reversed(word.letters):
        i = n - abs(t)
        e, f = els[i - 1], els[i]
        if t > 0:
            els[i - 1], els[i] = f, mutate("right", f, e)
            labs[i - 1], labs[i] = labs[i], f"R({labs[i - 1]}|{labs[i]})"
        else:
            els[i - 1], els[i] = mutate("left", e, f), e
            labs[i - 1], labs[i] = f"L({labs[i]}|{labs[i - 1]})", labs[i - 1]
    return els, labs


def _outcome(act):
    try:
        return act()
    except ValueError:
        return ValueError


@st.composite
def _bases_and_words(draw):
    """The Beilinson basis, a Qpt basis or a torus-scaled Beilinson basis at
    n = 3..6 (torus: n = 3, 4), possibly with one element e_i replaced by
    e_i + e_j, and a word of up to 6 letters."""
    kind = draw(st.sampled_from(["beilinson", "Qpt", "torus"]))
    n = draw(st.integers(3, 4 if kind == "torus" else 6))
    if kind == "Qpt":
        basis = structured_basis("Qpt", draw(st.integers(-2, 2)), n)
    else:
        basis = beilinson_basis(n)
    if kind == "torus":
        basis = _scaled(basis, draw(st.lists(st.tuples(*[st.integers(-1, 1)] * n), min_size=n, max_size=n)))
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        els = list(basis.elements)
        els[i] = els[i] + els[j]
        basis = ExceptionalBasis(els, basis.labels, verify=False)
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    return basis, BraidWord(tuple(draw(st.lists(letter, max_size=6))))


@settings(max_examples=40, deadline=None)
@given(_bases_and_words())
def test_braid_act_is_the_fold_of_mutations(case):
    basis, word = case
    got = _outcome(lambda: braid_act(word, basis, verify=False))
    want = _outcome(lambda: _fold_of_mutations(word, basis))
    if want is ValueError:
        assert got is ValueError
    else:
        assert got is not ValueError
        assert list(got.elements) == want[0] and list(got.labels) == want[1]


def _long_word_bases(n):
    """The Beilinson basis, Qpt twisted by -1, the Beilinson basis scaled by
    torus characters, and Qpt with e_1 replaced by e_1 + e_n."""
    rng = random.Random(40 + n)
    qpt = structured_basis("Qpt", -1, n)
    chars = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n)]
    els = list(qpt.elements)
    els[0] = els[0] + els[-1]
    return [beilinson_basis(n), qpt, _scaled(beilinson_basis(n), chars), ExceptionalBasis(els, qpt.labels, verify=False)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_long_braid_words_are_the_fold_of_mutations(n):
    # words far longer than the drawn ones, so the carried Gram matrix goes
    # through many moves before its coefficients are read
    cox, beta = braid_constants("C", n), braid_constants("beta", n)
    outcomes = set()
    for basis in _long_word_bases(n):
        for word in (cox**-n, beta**2, beta * cox.inverse()):
            got = _outcome(lambda: braid_act(word, basis, verify=False))
            want = _outcome(lambda: _fold_of_mutations(word, basis))
            outcomes.add(want is ValueError)
            if want is ValueError:
                assert got is ValueError
            else:
                assert got is not ValueError
                assert list(got.elements) == want[0] and list(got.labels) == want[1]
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [3, 5])
def test_braid_act_checks_each_pivot(n):
    lines = beilinson_basis(n).elements
    for bad, other, letters in (
        (0, 1, (-(n - 1),)),  # e_1 pivots a left move
        (1, 0, (n - 1,)),  # e_2 pivots a right move
        # R_{e_2} e_1, made by a right move with the columns it carries,
        # pivots the next, left move
        (0, n - 1, (-(n - 2), n - 1)),
    ):
        els = list(lines)
        els[bad] = lines[bad] + lines[other]  # chi(e, e) != 1
        basis, word = ExceptionalBasis(els, verify=False), BraidWord(letters)
        with pytest.raises(ValueError):
            braid_act(word, basis, verify=False)
        with pytest.raises(ValueError):
            _fold_of_mutations(word, basis)


def test_braid_act_empty_and_inverse():
    basis = beilinson_basis(3)
    assert braid_act(BraidWord(()), basis) == basis
    for t in (1, 2):
        assert braid_act(BraidWord((t, -t)), basis) == basis
        assert braid_act(BraidWord((-t, t)), basis) == basis


@pytest.mark.parametrize("n", [3, 4])
def test_braid_relation(n):
    basis = beilinson_basis(n)
    for i in range(1, n - 1):
        lhs = braid_act(BraidWord((i, i + 1, i)), basis)
        rhs = braid_act(BraidWord((i + 1, i, i + 1)), basis)
        assert lhs.elements == rhs.elements


def test_braid_far_commutation():
    basis = beilinson_basis(4)
    lhs = braid_act(BraidWord((1, 3)), basis)
    rhs = braid_act(BraidWord((3, 1)), basis)
    assert lhs.elements == rhs.elements


# -- dual bases -------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dual_orthogonality(n):
    basis = beilinson_basis(n)
    right = dual_basis("right", basis)
    left = dual_basis("left", basis)
    for h in range(1, n + 1):
        for k in range(1, n + 1):
            want = LaurentPoly.constant(zvars(n), 1 if h + k == n + 1 else 0)
            assert chi_pair(basis.elements[h - 1], right.elements[k - 1]) == want
            assert chi_pair(left.elements[k - 1], basis.elements[h - 1]) == want


@pytest.mark.parametrize("n", [2, 3])
def test_gram_of_dual_is_j_conjugate(n):
    basis = braid_act(BraidWord((1,)), beilinson_basis(n))
    g = gram_matrix(basis)
    j = LaurentMatrix(
        [
            [LaurentPoly.constant(evars(n), 1 if a + b == n - 1 else 0) for b in range(n)]
            for a in range(n)
        ]
    )
    want = j * g.dagger().inverse() * j
    assert gram_matrix(dual_basis("left", basis)) == want
    assert gram_matrix(dual_basis("right", basis)) == want


def test_right_dual_of_left_dual_is_identity():
    basis = beilinson_basis(3)
    assert dual_basis("right", dual_basis("left", basis)).elements == basis.elements


@pytest.mark.parametrize("n", [2, 3])
def test_serre_is_double_dual_and_coxeter_power(n):
    basis = beilinson_basis(n)
    cox = braid_constants("C", n)
    via_braid = braid_act(cox**-n, basis)
    via_duals = dual_basis("right", dual_basis("right", basis))
    assert via_braid.elements == via_duals.elements
    assert via_braid.elements == tuple(serre_twist(e) for e in basis.elements)


# -- canonical operator and Diophantine constraints --------------------------------


def canonical_matrix(gram):
    """Matrix of the canonical (Serre) operator wrt the basis: G^{-1} G†."""
    return gram.inverse() * gram.dagger()


def test_canonical_matrix_identity():
    ident = LaurentMatrix.identity(3, zvars(3))
    assert canonical_matrix(ident) == ident


def test_canonical_matrix_is_serre_on_beilinson():
    for n in (2, 3):
        basis = beilinson_basis(n)
        k = canonical_matrix(gram_matrix(basis))
        for i in range(n):
            img = KClass.zero(n)
            for j in range(n):
                img = img + basis.elements[j].scale(k[j, i])
            assert img == serre_twist(basis.elements[i])


def test_canonical_char_poly_rank2():
    n = 2
    g = gram_matrix(beilinson_basis(n))
    vs = ("LAM",) + zvars(n)
    lam = LaurentPoly.variable(vs, "LAM")
    gg = sym_poly("complete", 1, n).with_vars(vs)
    prod = gg * gg.dual()
    want = lam * lam + (prod - 2) * lam + 1
    cp = canonical_char_poly(g)
    assert cp.vars == ("LAM",) + evars(n)
    assert to_z(cp, n) == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dioph_residual_zero_on_gram_matrices(n):
    basis = beilinson_basis(n)
    assert dioph_residual(gram_matrix(basis), n).is_zero()
    mutated = braid_act(BraidWord((1, -(n - 1))), basis)
    assert dioph_residual(gram_matrix(mutated), n).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_targets_expand_to_the_z_formula(n):
    # e_j(Z^n) over E1..En, from det(lambda - X^n), against e_j(Z) with every
    # exponent times n
    for j, ej in enumerate(_power_elementary(n)):
        want = sym_poly("elementary", j, n).terms
        assert to_z(ej, n) == LaurentPoly(zvars(n), {tuple(x * n for x in e): c for e, c in want.items()})


def _power_elementary_laplace(n):
    """Reference: (-1)^j times the coefficient of lambda^{n-j} in det(lambda - T),
    T the matrix of X^n on O(0)..O(n-1), whose eigenvalues are the Z_i^n."""
    vs = evars(n)
    t = LaurentMatrix([list(row) for row in zip(*(_o_power_coords(vs, b - n) for b in range(n)))])
    cp = char_poly(LaurentMatrix.identity(n, vs), t)
    return tuple(coefficient(cp, LAMBDA, n - j) * (-1) ** j for j in range(n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_power_targets_match_the_laplace_form(n):
    # Newton's identities against the characteristic polynomial of X^n
    got, want = _power_elementary(n), _power_elementary_laplace(n)
    assert [p.vars for p in got] == [evars(n)] * (n + 1)
    assert [p.to_json() for p in got] == [p.to_json() for p in want]


def test_dioph_residual_on_a_torus_gram_matrix():
    # characters that are not symmetric put the Gram matrix over Z1..Zn
    n = 3
    chars = [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]
    basis = ExceptionalBasis(
        [e.scale(LaurentPoly.monomial(zvars(n), a)) for e, a in zip(beilinson_basis(n).elements, chars)]
    )
    g = gram_matrix(basis)
    assert g.vars == zvars(n)
    assert dioph_residual(g, n).is_zero()
    rows = [list(row) for row in g.entries]
    rows[0][1] = rows[0][1] + LaurentPoly.variable(zvars(n), "Z1")
    assert not dioph_residual(LaurentMatrix(rows), n).is_zero()


def test_markov_rank3():
    n = 3
    vs = zvars(n)
    s1 = sym_poly("elementary", 1, n)
    s2 = sym_poly("elementary", 2, n)
    one = LaurentPoly.one(vs)
    zero = LaurentPoly.zero(vs)
    g = LaurentMatrix([[one, s1, s2], [zero, one, s1], [zero, zero, one]])
    assert all(r.is_zero() for r in markov_residuals_rank3(g))
    # the integer specialization of (s_1, s_2, s_1) is the minimal triple (3,3,3)
    triple = []
    for p in (s1, s2, s1):
        for i in range(1, n + 1):
            p = specialize(p, f"Z{i}", 1)
        triple.append(p)
    a, b, c = triple
    assert (a, b, c) == (3, 3, 3)
    assert a * a + b * b + c * c - a * b * c == 0

    gb = gram_matrix(beilinson_basis(3))
    assert all(r.is_zero() for r in markov_residuals_rank3(gb))
    gb = gb.map(lambda p: to_z(p, n))
    bt = []
    for p in (gb[0, 1], gb[0, 2], gb[1, 2]):
        for i in range(1, n + 1):
            p = specialize(p, f"Z{i}", 1)
        bt.append(p)
    a, b, c = bt
    assert (a, b, c) == (3, 6, 3)
    assert a * a + b * b + c * c - a * b * c == 0


def test_markov_rank4():
    basis = beilinson_basis(4)
    assert all(r.is_zero() for r in markov_residuals_rank4(gram_matrix(basis)))
    mutated = braid_act(BraidWord((2,)), basis)
    assert all(r.is_zero() for r in markov_residuals_rank4(gram_matrix(mutated)))


# -- tangent classes and named bases -------------------------------------------------


def test_exterior_tangent_class():
    n = 3
    assert exterior_tangent_class(0, 0, n) == KClass.x_power(n, 0)
    want = KClass.x_power(n, -1).scale(sym_poly("elementary", 1, n)) - KClass.x_power(n, 0)
    assert exterior_tangent_class(1, 0, n) == want
    # Euler-sequence recursion: [Λ^h T] = s_h [O(h)] - [Λ^{h-1} T]
    for h in range(1, n):
        lhs = exterior_tangent_class(h, 0, n)
        rhs = KClass.x_power(n, -h).scale(sym_poly("elementary", h, n)) - exterior_tangent_class(
            h - 1, 0, n
        )
        assert lhs == rhs


def test_structured_basis_examples():
    q03 = structured_basis("Q", 0, 3)
    assert q03.elements == (line(3, -2), line(3, -1), line(3, 0))
    assert q03.labels == ("O(-2)", "O(-1)", "O(0)")

    # rank 5, k=-1: positions of the sorted basis and its rescaled variant
    qp = structured_basis("Qp", -1, 5)
    n = 5

    def psi(m, ell):
        # (-1)^{m-ell} Lambda^{m-ell} T(-m) = X^m - s_1 X^{m-1} + ... + (-1)^{m-ell} s_{m-ell} X^ell
        cls = exterior_tangent_class(m - ell, m, n)
        return -cls if (m - ell) % 2 else cls

    assert qp.elements == (psi(1, 1), psi(2, 1), psi(0, 0), psi(3, 0), psi(-1, -1))
    assert qp.labels == ("O(-1)", "Λ^1 T(-2)[-1]", "O(0)", "Λ^3 T(-3)[-3]", "O(1)")
    assert qp.eigen_tags == (1, 2, 0, 3, 4)
    qppt = structured_basis("Qppt", -1, 5)
    s5 = sym_poly("elementary", 5, 5)
    assert qppt.elements == (
        psi(1, 1),
        psi(0, 0),
        psi(2, 0),
        psi(-1, -1).scale(s5),
        psi(3, -1),
    )
    assert qppt.labels == ("O(-1)", "O(0)", "Λ^2 T(-2)[-2]", "O(1) ⊗ det^1", "Λ^4 T(-3)[-4]")
    assert qppt.eigen_tags == (1, 0, 2, 4, 3)

    # rank 6: the labels and tags the CLI prints, which braid images do not carry
    qpt = structured_basis("Qpt", -2, 6)
    assert qpt.labels == ("O(-1)", "O(0)", "Λ^2 T(-2)[-2]", "O(1) ⊗ det^1", "Λ^4 T(-3)[-4]", "O(2) ⊗ det^1")
    assert qpt.eigen_tags == (1, 0, 2, 5, 3, 4)
    qpp = structured_basis("Qpp", 1, 6)
    assert qpp.labels == ("O(-3)", "Λ^1 T(-4)[-1]", "O(-2)", "Λ^3 T(-5)[-3]", "O(-1)", "Λ^5 T(-6)[-5]")
    assert qpp.eigen_tags == (3, 4, 2, 5, 1, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_structured_bases_are_exceptional_with_tags(n):
    for kind in ("Q", "Qp", "Qpp", "Qpt", "Qppt"):
        b = structured_basis(kind, -1, n)
        assert b.is_exceptional(), (kind, n)
        assert sorted(b.eigen_tags) == list(range(n))


@pytest.mark.parametrize("n", range(2, 9))
def test_structured_bases_match_braid_action(n):
    for k in range(-2, 3):
        q = structured_basis("Q", k, n)
        qp = structured_basis("Qp", k, n)
        qpp = structured_basis("Qpp", k, n)
        assert braid_act(braid_constants("gamma", n), q).elements == qp.elements
        assert braid_act(braid_constants("delta_odd", n), qp).elements == qpp.elements


@pytest.mark.parametrize("n", range(2, 9))
def test_tilde_diagram_commutes(n):
    # delta_even sends the rescaled double-sorted basis at k to the rescaled
    # sorted basis at k-1
    for k in range(-2, 3):
        lhs = braid_act(braid_constants("delta_even", n), structured_basis("Qppt", k, n))
        rhs = structured_basis("Qpt", k - 1, n)
        assert lhs.elements == rhs.elements


@pytest.mark.parametrize("n", [2, 3, 4])
def test_modified_coxeter(n):
    for k in (0, 1):
        qk = structured_basis("Q", k, n)
        cqk = braid_act(braid_constants("C", n), qk)
        scaled = list(cqk.elements)
        factor = sym_poly("elementary", n, n).dual()
        if n % 2 == 0:
            factor = -factor
        scaled[-1] = scaled[-1].scale(factor)
        assert tuple(scaled) == structured_basis("Q", k - 1, n).elements


def test_braid_constants_words():
    assert braid_constants("C", 3).letters == (1, 2)
    assert braid_constants("delta_odd", 5).letters == (1, 3)
    assert braid_constants("delta_even", 5).letters == (2, 4)
    assert braid_constants("delta_odd", 4).letters == (1, 3)
    assert braid_constants("delta_even", 4).letters == (2,)
    assert braid_constants("gamma", 2).letters == ()
    assert braid_constants("gamma", 5).letters == (4, 2, 3, 4)
    assert braid_constants("beta", 3).letters == (1, 2, 1)
    words = {
        2: ((), (1,), ()),
        3: ((2,), (1,), (2,)),
        6: ((4, 5, 2, 3, 4, 5), (1, 3, 5), (2, 4)),
        7: ((6, 4, 5, 6, 2, 3, 4, 5, 6), (1, 3, 5), (2, 4, 6)),
    }
    for n, want in words.items():
        got = tuple(braid_constants(name, n).letters for name in ("gamma", "delta_odd", "delta_even"))
        assert got == want, n


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sorting_braid_intertwines_coxeter(n):
    # delta_even . delta_odd . gamma == gamma . C as actions
    basis = beilinson_basis(n)
    d_e = braid_constants("delta_even", n)
    d_o = braid_constants("delta_odd", n)
    gam = braid_constants("gamma", n)
    cox = braid_constants("C", n)
    lhs = braid_act(d_e * d_o * gam, basis)
    rhs = braid_act(gam * cox, basis)
    assert lhs.elements == rhs.elements


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_alternating_products_act_as_half_twist(n):
    basis = beilinson_basis(n)
    want = braid_act(braid_constants("beta", n), basis).elements
    assert braid_act(braid_constants("sigma_odd", n), basis).elements == want
    assert braid_act(braid_constants("sigma_even", n), basis).elements == want


def test_kclass_json_roundtrip():
    # the printed form of a class (`coeffs`, as `to_json` writes it) read back
    # through its Laurent polynomial in (X, Z1..Zn)
    rng = random.Random(2)
    f = rand_kclass(rng, 3)
    assert kclass_from_laurent(f.to_laurent(), 3) == f
    # a class built over the representation ring is read back over Z and
    # must compare equal to the original, and unequal to a different class
    n = 4
    for g in (line(n, -3), structured_basis("Qppt", 1, n).elements[2]):
        back = kclass_from_laurent(g.to_laurent(), n)
        assert g.ring == evars(n) and back.ring == zvars(n)
        assert back == g and g == back
        assert back != line(n, 0) and line(n, 0) != back
        assert back.to_json() == g.to_json()


def test_laurent_form_reads_back_every_storage_form():
    rng = random.Random(5)
    for n in (2, 3, 4):
        e_form = structured_basis("Qpp", 1, n).elements[-1]
        scaled = e_form.scale(LaurentPoly.monomial(zvars(n), (1,) + (0,) * (n - 1)))
        z_form = rand_kclass(rng, n)
        assert e_form.ring == evars(n) and not any(e_form._char)
        assert scaled._co[0].vars == evars(n) and any(scaled._char)
        assert z_form.ring == zvars(n)
        for f in (e_form, scaled, z_form):
            assert kclass_from_laurent(f.to_laurent(), n) == f, (n, f)


def test_to_z_rejects_negative_powers_below_e_n():
    n = 3
    assert to_z(LaurentPoly.monomial(evars(n), (0, 0, -2)), n) == LaurentPoly.monomial(zvars(n), (-2,) * n)
    for exps in ((-1, 0, 0), (2, -1, 1)):
        with pytest.raises(ValueError, match=r"not in R\(GL_3\)"):
            to_z(LaurentPoly.monomial(evars(n), exps), n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_to_z_is_a_ring_homomorphism(data):
    n = data.draw(st.integers(2, 4))
    head = data.draw(st.sampled_from(((), ("LAM",))))
    vs = head + evars(n)
    # E1..E(n-1) with nonnegative powers: R(GL_n) inside the Laurent ring in E
    exps = st.tuples(*[st.integers(-2, 2)] * len(head), *[st.integers(0, 2)] * (n - 1), st.integers(-2, 2))
    coeffs = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5))
    p, q = (LaurentPoly(vs, data.draw(st.dictionaries(exps, coeffs, max_size=4))) for _ in range(2))
    assert to_z(p * q, n) == to_z(p, n) * to_z(q, n)
    assert to_z(p + q, n) == to_z(p, n) + to_z(q, n)
    assert to_z(p, n).vars == head + zvars(n)


def test_basis_constructor_verifies():
    n = 2
    with pytest.raises(ValueError):
        ExceptionalBasis([line(n, 0), line(n, 0) + line(n, 1)])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_long_braid_words_keep_small_exponents(n):
    """C^{-n} acts on the Beilinson basis as the Serre twist; along C^{-4n}
    the bounds of the products add up past the slot limit while the
    exponents stay small."""
    basis = beilinson_basis(n)
    want = list(basis.elements)
    for _ in range(4):
        want = [serre_twist(e) for e in want]
    assert list(braid_act(braid_constants("C", n) ** (-4 * n), basis).elements) == want
