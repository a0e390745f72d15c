"""Each qDE/qKZ/cohomology builder is one formula over the scalar field of its
input.  At resonance-free rational z the Fraction result, converted to
complex, and the symbolic result, evaluated at z, must both match the complex
result; and the complex result must satisfy its defining identity, checked
with numpy independently of the builder.  The symbolic results are sympy
expressions in (q, z1..zn): trees, except for `vandermonde`, whose
self-check needs `== 0` to be the equality of rational functions and so runs
in the field Q(q, z1..zn)."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from sympy import Rational, symbols, sympify
from sympy.polys.fields import FracElement

from projqde.cohomology import (
    NumericContext,
    eta_gram,
    g_basis_inverse,
    g_basis_matrix,
    vandermonde,
)
from projqde.hypergeom import fundamental_matrix
from projqde.qde import a_series_coefficients, levelt_coefficients, system_matrices
from projqde.qkz import qkz_operator

from identities import qkz_vars, rational_function_field

TOL = 1e-12
ORDER = 8
SYMBOLIC_LEVELT_ORDER = {2: 8, 3: 4, 4: 3}  # the expression trees grow with the order


def close(got, want, tol=TOL) -> bool:
    """Entrywise agreement to tol relative to the largest entry (at least 1)."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    return got.shape == want.shape and np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


def evaluate(m, point: dict) -> np.ndarray:
    """A symbolic matrix (rows of sympy expressions or field elements) at a
    rational point, exactly; floating evaluation of the unreduced rational
    functions of the Levelt gauge loses digits to cancellation."""
    at = {symbols(name): Rational(w.numerator, w.denominator) for name, w in point.items()}
    return np.array(
        [[sympify(x.as_expr() if isinstance(x, FracElement) else x).xreplace(at) for x in row] for row in m],
        dtype=complex,
    )


def builders(n: int, z, q, levelt_order: int, z_vandermonde=None) -> dict:
    """Every unified builder at (q, z), keyed by name; `vandermonde` at
    z_vandermonde when given, else at z."""
    d, dinv = vandermonde(n, z if z_vandermonde is None else z_vandermonde)
    a0, a1 = system_matrices(n, z)
    out = {
        "D": d,
        "D^-1": dinv,
        "G": g_basis_matrix(n, z),
        "G^-1": g_basis_inverse(n, z),
        "eta": eta_gram(n, z),
        "A0": a0,
        "A1": a1,
    }
    for i in range(1, n + 1):
        for basis in ("g", "x"):
            out[f"K{i}{basis}"] = qkz_operator(i, q, z, basis)
    for k, g in enumerate(levelt_coefficients(n, z, levelt_order)):
        out[f"G_{k}"] = g
    for j in range(1, n + 1):
        out[f"a_{j}"] = [a_series_coefficients(n, z, ORDER, j)]
    return out


@lru_cache(maxsize=None)
def symbolic(n: int) -> dict:
    """Every builder at the symbols (q, z1..zn), `vandermonde` in the field
    Q(q, z1..zn)."""
    q, *z = symbols(qkz_vars(n))
    return builders(n, z, q, SYMBOLIC_LEVELT_ORDER[n], rational_function_field(qkz_vars(n))[1:])


@st.composite
def resonance_free(draw):
    n = draw(st.integers(2, 4))
    z = draw(
        st.lists(
            st.fractions(min_value=-1, max_value=1, max_denominator=9), min_size=n, max_size=n
        )
    )
    assume(all((a - b).denominator != 1 for i, a in enumerate(z) for b in z[:i]))
    q = draw(st.fractions(min_value=Fraction(1, 9), max_value=1, max_denominator=9))
    return n, tuple(z), q


# z2, z3, z4 within 1/24 of each other: the last row r of D^-1 reaches 2,744,
# and a Levelt step that formed the sum r G_k lost G_4 to 6.5e-12
CLOSE_Z = (4, (Fraction(0), Fraction(6, 7), Fraction(7, 8), Fraction(5, 6)), Fraction(1, 9))


@settings(max_examples=30, deadline=None)
@given(resonance_free())
@example(CLOSE_Z)
def test_fraction_complex_symbolic_agree(point):
    n, z, q = point
    zc = [complex(w) for w in z]
    exact = builders(n, z, q, ORDER)
    numeric = builders(n, zc, complex(q), ORDER)
    point = {"q": q, **{f"z{i + 1}": w for i, w in enumerate(z)}}
    for name, want in numeric.items():
        assert np.asarray(exact[name]).dtype == object, name
        assert all(isinstance(x, (int, Fraction)) for x in np.ravel(exact[name])), name
        assert close(exact[name], want), name
    for name, sym in symbolic(n).items():
        assert close(evaluate(sym, point), numeric[name]), name


@settings(max_examples=30, deadline=None)
@given(resonance_free())
@example(CLOSE_Z)
def test_complex_builders_satisfy_their_identities(point):
    n, z, q = point
    zc = np.array([complex(w) for w in z])
    q = complex(q)
    b = builders(n, list(zc), q, ORDER)
    vand = np.vander(zc, n, increasing=True)
    vinv = np.linalg.inv(vand)
    assert close(b["D"], vand) and close(b["D^-1"], vinv, 1e-9)
    # g_j = prod_{a>j}(x - z_a), coefficients lowest degree first
    for j in range(n):
        col = np.poly(zc[j + 1 :])[::-1] if j < n - 1 else np.ones(1)
        assert close(b["G"][:, j], np.concatenate([col, np.zeros(n - len(col))])), j
    assert close(b["G^-1"] @ b["G"], np.eye(n))
    weights = [np.prod([zc[i] - w for w in np.delete(zc, i)]) for i in range(n)]
    assert close(b["eta"], vand.T @ np.diag(1 / np.array(weights)) @ vand, 1e-9)
    assert close(b["A0"], np.eye(n)[[0]].T @ np.eye(n)[[n - 1]])
    assert close(vand @ b["A1"] @ vinv, np.diag(zc), 1e-9)
    # Levelt: [Z, G_{k+1}] - (k+1) G_{k+1} + M G_k = 0 with M = D A0 D^{-1}
    m = vand @ b["A0"] @ vinv
    assert close(b["G_0"], np.eye(n))
    for k in range(ORDER):
        g, g1 = b[f"G_{k}"], b[f"G_{k + 1}"]
        assert close((zc[:, None] - zc[None, :] - (k + 1)) * g1, -m @ g, 1e-9), k
    for j in range(n):
        c = np.array(b[f"a_{j + 1}"][0])
        ratios = c[1:] / c[:-1] * [np.prod(zc[j] - zc + d) for d in range(1, ORDER + 1)]
        assert close(ratios, np.ones(ORDER)), j
    # K_i carries the residue-series solutions at z to those at z - e_i
    ctx = NumericContext(tuple(zc))
    fund = fundamental_matrix(ctx, 40)
    y = fund(q, ctx)
    for i in range(1, n + 1):
        assert close(b[f"K{i}x"] @ y, fund(q, ctx.shift(i)), 1e-9), i
        shifted = list(zc)
        shifted[i - 1] -= 1
        conj = g_basis_matrix(n, shifted) @ b[f"K{i}g"] @ np.linalg.inv(b["G"])
        assert close(b[f"K{i}x"], conj, 1e-9), i
