"""Fixed-point cohomology layer: Vandermonde base change, Poincare pairing,
Chern character, Gamma classes, comparison morphism."""

import cmath
import math

import numpy as np
import pytest

from projqde.cohomology import (
    CohClass,
    NumericContext,
    b_morphism,
    chern_character,
    connection_matrix,
    eta_gram,
    first_chern_class,
    g_basis_matrix,
    gamma_class,
    vandermonde,
)
from projqde.ktheory import KClass
from projqde.ring import LaurentPoly, sym_poly, zvars

from identities import mul_class, parameter_variables, rational_function_field

Z3 = (0.1, 0.37 + 0.05j, -0.42)


def ctx3():
    return NumericContext(Z3)


def eta_pair(u, v, z):
    """Poincare pairing via the fixed-point sum with weights 1/prod(z_i - z_j)."""
    n = u.n
    return sum(
        u.restrictions[i]
        * v.restrictions[i]
        / math.prod(z[i] - z[j] for j in range(n) if j != i)
        for i in range(n)
    )


def test_omega_guard():
    with pytest.raises(ValueError):
        NumericContext((0.0, 1.0, 0.3))
    with pytest.raises(ValueError):
        NumericContext((0.25, 0.25))
    NumericContext((0.0, 0.5))  # fine


def test_vandermonde_numeric():
    d, dinv = vandermonde(2, (0.0, 0.5))
    assert np.allclose(d, [[1, 0], [1, 0.5]])
    assert np.allclose(d @ dinv, np.eye(2), atol=1e-12)


def test_vandermonde_symbolic_inverse():
    # the exact check D D^{-1} = 1 is built into the call; over Q(z1, z2, z3)
    # its `== 0` is the equality of rational functions
    z = rational_function_field(zvars(3, prefix="z"))
    d, dinv = vandermonde(3, z)
    assert d.shape == dinv.shape == (3, 3)
    assert dinv[2, 0] == 1 / ((z[0] - z[1]) * (z[0] - z[2]))


def test_x_power_roundtrip():
    n = 3
    z = Z3
    d, dinv = vandermonde(n, z)
    for alpha in range(n):
        # x^alpha has restrictions z_j^alpha
        restr = np.array([z[j] ** alpha for j in range(n)])
        coords = dinv @ restr
        want = np.zeros(n)
        want[alpha] = 1
        assert np.allclose(coords, want, atol=1e-12)


def test_eta_gram_symbolic():
    n = 3
    eta = eta_gram(n, parameter_variables(n))
    vs = zvars(n, prefix="z")
    assert eta[0, 0].is_zero()
    assert eta[0, 2] == LaurentPoly.one(vs)
    assert eta[1, 2] == sym_poly("complete", 1, n, prefix="z")
    assert eta[2, 2] == sym_poly("complete", 2, n, prefix="z")
    for a in range(n):
        for b in range(n):
            assert eta[a, b] == eta[b, a]


def test_eta_from_fixed_point_weights_symbolic():
    # D^T diag(chi_i) D = eta, exactly, for n = 3, over Q(z1, z2, z3)
    n = 3
    z = rational_function_field(zvars(n, prefix="z"))
    eta = eta_gram(n, z)
    for a in range(n):
        for b in range(n):
            xa = CohClass(n, [z[j] ** a for j in range(n)])
            xb = CohClass(n, [z[j] ** b for j in range(n)])
            assert eta_pair(xa, xb, z) == eta[a, b], (a, b)


def test_eta_frobenius_exact():
    n = 3
    z = rational_function_field(zvars(n, prefix="z"))
    import random

    rng = random.Random(1)

    def rand_class():
        return CohClass(n, [z[0] ** 0 * rng.randint(-4, 4) for _ in range(n)])

    for _ in range(5):
        a, b, c = rand_class(), rand_class(), rand_class()
        assert eta_pair(a * b, c, z) == eta_pair(a, b * c, z)


def test_chern_character_examples():
    n = 3
    ctx = ctx3()
    ch0 = chern_character(KClass.line_bundle(n, 0), ctx)
    assert np.allclose(ch0.to_vector(), np.ones(n))
    for k in (-2, 1, 3):
        ch = chern_character(KClass.line_bundle(n, k), ctx)
        want = np.array([cmath.exp(-2j * cmath.pi * k * z) for z in ctx.z])
        assert np.allclose(ch.to_vector(), want, atol=1e-12)
    # scaling by a character multiplies by its exponential
    z1 = LaurentPoly.variable(zvars(n), "Z1")
    scaled = chern_character(KClass.line_bundle(n, 0).scale(z1), ctx)
    want = cmath.exp(2j * cmath.pi * ctx.z[0]) * np.ones(n)
    assert np.allclose(scaled.to_vector(), want, atol=1e-12)


def test_chern_character_is_ring_map():
    n = 3
    ctx = ctx3()
    f = KClass.line_bundle(n, 1)
    g = KClass.line_bundle(n, -2) + KClass.line_bundle(n, 0)
    lhs = chern_character(mul_class(f, g), ctx).to_vector()
    rhs = (chern_character(f, ctx) * chern_character(g, ctx)).to_vector()
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_chern_character_symbolic_matches_numeric():
    n = 2
    ctx = NumericContext((0.0, 0.37))
    f = KClass.line_bundle(n, 1) + KClass.line_bundle(n, 0).scale(
        LaurentPoly.variable(zvars(n), "Z2", -1)
    )
    sym = chern_character(f)
    az = {f"Z{a + 1}": cmath.exp(2j * cmath.pi * ctx.z[a]) for a in range(n)}
    want = chern_character(f, ctx).to_vector()
    got = np.array([r.eval(az) for r in sym.restrictions])
    assert np.allclose(got, want, atol=1e-12)


def test_gamma_class_values():
    ctx = NumericContext((0.0, 0.5))
    gp = gamma_class("+", ctx)
    # restrictions are Gamma(1 + 1/2) and Gamma(1 - 1/2)
    assert abs(gp.restrictions[0] - math.gamma(1.5)) < 1e-13
    assert abs(gp.restrictions[1] - math.gamma(0.5)) < 1e-13
    assert abs(gp.restrictions[1] - math.sqrt(math.pi)) < 1e-13


def test_gamma_reflection_oracle():
    ctx = ctx3()
    gp = gamma_class("+", ctx)
    gm = gamma_class("-", ctx)
    prod = (gp * gm).to_vector()
    n = ctx.n
    for i in range(n):
        want = 1.0 + 0j
        for a in range(n):
            if a != i:
                d = ctx.z[a] - ctx.z[i]
                want *= cmath.pi * d / cmath.sin(cmath.pi * d)
        assert abs(prod[i] - want) < 1e-12 * abs(want)


def test_gamma_pole_guard():
    with pytest.raises(ValueError):
        NumericContext((0.2, 0.2 + 1.0))


def test_gamma_identities_on_strip():
    # recurrence and reflection to 1e-12 relative at assorted points
    ctx = NumericContext((0.0, 0.5))
    pts = [0.3 + 0.2j, -1.7 + 5j, 2.5 - 9.5j, -2.9 + 0.01j]
    for w in pts:
        g1 = ctx.gamma(w + 1)
        g0 = ctx.gamma(w)
        assert abs(g1 - w * g0) <= 1e-12 * abs(g1)
        refl = ctx.gamma(w) * ctx.gamma(1 - w)
        want = cmath.pi / cmath.sin(cmath.pi * w)
        assert abs(refl - want) <= 1e-12 * abs(want)


def test_b_morphism_structure():
    n = 3
    ctx = ctx3()
    b0 = b_morphism(KClass.line_bundle(n, 0), ctx)
    total = sum(ctx.z)
    for i in range(n):
        want = cmath.exp(1j * cmath.pi * (total - n * ctx.z[i]))
        for a in range(n):
            if a != i:
                want *= ctx.gamma(1 + ctx.z[a] - ctx.z[i])
        assert abs(b0.restrictions[i] - want) < 1e-12 * abs(want)
    # linearity and character scaling
    f = KClass.line_bundle(n, 1)
    g = KClass.line_bundle(n, -1)
    lhs = b_morphism(f + g, ctx).to_vector()
    assert np.allclose(lhs, b_morphism(f, ctx).to_vector() + b_morphism(g, ctx).to_vector())
    z1 = LaurentPoly.variable(zvars(n), "Z1")
    scaled = b_morphism(f.scale(z1), ctx).to_vector()
    assert np.allclose(
        scaled, cmath.exp(2j * cmath.pi * ctx.z[0]) * b_morphism(f, ctx).to_vector()
    )


def test_connection_matrix_is_b_morphism_matrix():
    n = 3
    ctx = ctx3()
    c = connection_matrix(ctx)
    # column j = x-coordinates of the image of the class with restrictions
    # delta_{. j}; the image of O(0) spreads as sum of columns
    b0 = b_morphism(KClass.line_bundle(n, 0), ctx)
    assert np.allclose(c @ np.ones(n), b0.x_coords(ctx), atol=1e-12)
    assert abs(np.linalg.det(c)) > 1e-12


def test_connection_matrix_hand_value_rank2():
    ctx = NumericContext((0.0, 0.5))
    c = connection_matrix(ctx)
    g32, g12 = math.gamma(1.5), math.gamma(0.5)
    diag = np.array(
        [
            cmath.exp(1j * cmath.pi * 0.5) * g32,
            cmath.exp(1j * cmath.pi * (0.5 - 1.0)) * g12,
        ]
    )
    d = np.array([[1, 0], [1, 0.5]], dtype=complex)
    want = np.linalg.inv(d) @ np.diag(diag)
    assert np.allclose(c, want, atol=1e-12)


def test_connection_matrix_not_periodic():
    ctx = ctx3()
    shifted = NumericContext((ctx.z[0] + 1,) + ctx.z[1:])
    c0 = connection_matrix(ctx)
    c1 = connection_matrix(shifted)
    assert np.linalg.norm(c0 - c1) > 1e-3


def test_g_basis_matrix():
    n = 3
    z = Z3
    g = g_basis_matrix(n, z)
    # g_3 = 1, g_2 = x - z_3, g_1 = (x - z_2)(x - z_3)
    assert np.allclose(g[:, 2], [1, 0, 0])
    assert np.allclose(g[:, 1], [-z[2], 1, 0])
    assert np.allclose(g[:, 0], [z[1] * z[2], -(z[1] + z[2]), 1])
    sym = g_basis_matrix(n, parameter_variables(n))
    vals = {f"z{i + 1}": z[i] for i in range(n)}
    got = np.array([[sym[a, j].eval(vals) for j in range(n)] for a in range(n)])
    assert np.allclose(got, g)
