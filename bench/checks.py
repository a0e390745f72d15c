"""Output checks computed apart from the exact engine.

Exact outputs (Laurent polynomials, Gram and Stokes matrices, K-classes) are
read as data, their terms evaluated with numpy at seeded points of the unit
torus, and tested against identities that hold numerically; numeric CLI
outputs are parsed from their JSON and tested against values recomputed with
numpy and scipy.  A check raises `CheckFailed` with what it saw.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import gamma as sgamma

# relative tolerance of numeric identities between exact outputs evaluated in
# double precision; observed errors are below 1e-11 (see README)
EXACT_TOL = 1e-7
# tolerance of the CLI identities, the CLI's own defaults
CLI_TOL = {"psi": 1e-6, "b-check": 1e-6, "qkz-check": 1e-8, "solve-qde": 1e-8, "dubrovin": 1e-8}
# relative tolerance of the qKZ matrix acting on the residue-series solutions
QKZ_TOL = 1e-8


class CheckFailed(Exception):
    """An output failed its check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- points and evaluation ---------------------------------------------------------


def torus_point(rng, n: int) -> np.ndarray:
    """A point of the unit torus with well-separated Z_a and Z_a^n:
    theta_a = (2 pi a + psi_a) / n + phi with psi_a in [0, pi) spread apart."""
    perm = list(range(n))
    rng.shuffle(perm)
    phi = rng.uniform(0, 2 * math.pi)
    theta = [
        (2 * math.pi * a + math.pi * (perm[a] + 0.5 + 0.3 * (rng.random() - 0.5)) / n) / n + phi
        for a in range(n)
    ]
    return np.exp(1j * np.array(theta))


def _var_values(vars_: tuple[str, ...], z: np.ndarray) -> np.ndarray:
    """Values of Z1..Zn at z, or of E1..En at z as e_k(z)."""
    n = len(z)
    if vars_ == tuple(f"Z{i}" for i in range(1, n + 1)):
        return z
    if vars_ == tuple(f"E{i}" for i in range(1, n + 1)):
        # np.poly gives prod (x - z_i) = sum_k (-1)^k e_k x^{n-k}
        coeffs = np.poly(z)
        return np.array([(-1) ** k * coeffs[k] for k in range(1, n + 1)])
    raise CheckFailed(f"unexpected variables {vars_}")


def poly_eval(p, z: np.ndarray) -> complex:
    """Value of a Laurent polynomial at z, from its terms."""
    if not p.terms:
        return 0j
    vals = _var_values(p.vars, z)
    exps = np.array(list(p.terms.keys()), dtype=np.int64)
    coeffs = np.array([float(c) for c in p.terms.values()])
    return complex(coeffs @ np.prod(vals[None, :] ** exps, axis=1))


def mat_eval(m, z: np.ndarray) -> np.ndarray:
    return np.array([[poly_eval(m.entries[i][j], z) for j in range(m.cols)] for i in range(m.rows)])


def require_close(a, b, what: str, scale: float = 1.0, tol: float = EXACT_TOL) -> None:
    """Largest entrywise difference, relative to max(1, scale), within tol."""
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(1.0, scale)
    require(err <= tol, f"{what}: relative error {err:.3g} above {tol:g}")


def require_same_spectrum(values, want, what: str, tol: float = EXACT_TOL) -> None:
    values, want = np.asarray(values), np.asarray(want)
    cost = np.abs(values[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    err = float(np.max(cost[rows, cols]))
    require(err <= tol, f"{what}: eigenvalues off by {err:.3g}")


def antidiagonal(n: int) -> np.ndarray:
    return np.fliplr(np.eye(n))


def require_unitriangular(m, what: str, lower: bool = False) -> None:
    """Exact test on the terms: ones on the diagonal, zeros on the other side."""
    zero_exp = (0,) * len(m.vars)
    for i in range(m.rows):
        require(m.entries[i][i].terms == {zero_exp: 1}, f"{what}: diagonal entry {i} is not 1")
        for j in range(m.cols):
            if (i > j) != lower and i != j:
                require(not m.entries[i][j].terms, f"{what}: entry ({i},{j}) is not 0")


# -- Stokes matrices against the Gram matrix -------------------------------------------


def check_stokes(s1, s2, g, n: int, points) -> None:
    """S1 upper unitriangular, S2 = J G J, S1 J G^dag J = 1, and the spectra of
    G^{-1} G^dag and (-1)^{n-1} e_n (S1 S2)^{-1}, at points of the unit torus
    where p^* is the complex conjugate."""
    require_unitriangular(s1, "S1")
    j = antidiagonal(n)
    sign = (-1) ** (n - 1)
    for z in points:
        a1, a2, gz = mat_eval(s1, z), mat_eval(s2, z), mat_eval(g, z)
        scale = float(np.max(np.abs(gz))) ** 2
        gdag = gz.conj().T
        require_close(a2, j @ gz @ j, "S2 = J G J", scale)
        require_close(a1 @ j @ gdag @ j, np.eye(n), "S1 J G^dag J = 1", scale)
        en = np.prod(z)
        require_same_spectrum(
            np.linalg.eigvals(np.linalg.solve(gz, gdag)),
            sign * z**n / en,
            "spectrum of G^-1 G^dag",
        )
        require_same_spectrum(
            np.linalg.eigvals(sign * en * np.linalg.inv(a1 @ a2)),
            z**n,
            "spectrum of (-1)^(n-1) e_n (S1 S2)^-1",
        )


# -- K-classes by localization ------------------------------------------------------------


def restrictions(classes, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point restrictions F[i, a] = f_i(X = Z_a, Z) and those of the dual
    classes, F*[i, a] = f_i(X = Z_a^{-1}, Z^{-1}), from the line-bundle
    coordinates: O(j) = X^{-j} restricts to Z_a^{-j} at the point a."""
    n = len(z)
    f = np.zeros((len(classes), n), dtype=complex)
    fs = np.zeros((len(classes), n), dtype=complex)
    for i, cls in enumerate(classes):
        for j, c in enumerate(cls.ocoords):
            f[i] += poly_eval(c, z) * z ** (-j)
            fs[i] += poly_eval(c, 1 / z) * z**j
    return f, fs


def localization_weights(z: np.ndarray) -> np.ndarray:
    """1 / prod_{b != a} (1 - Z_a / Z_b)."""
    n = len(z)
    return np.array(
        [1 / np.prod([1 - z[a] / z[b] for b in range(n) if b != a]) for a in range(n)]
    )


def chi_matrix(left, right, z: np.ndarray) -> np.ndarray:
    """chi(l_i, r_j) by the fixed-point formula sum_a l_i^*(a) r_j(a) w_a."""
    _, ls = restrictions(left, z)
    r, _ = restrictions(right, z)
    return ls @ np.diag(localization_weights(z)) @ r.T


def check_gram(basis_elements, g, points) -> None:
    """G is unitriangular and equals the localization sum at every point."""
    require_unitriangular(g, "Gram matrix")
    for z in points:
        gz = mat_eval(g, z)
        require_close(
            chi_matrix(basis_elements, basis_elements, z), gz, "Gram vs localization",
            float(np.max(np.abs(gz))),
        )


def check_dual(first, second, points, what: str) -> None:
    """chi(first_h, second_k) = delta_{h+k, n+1}."""
    n = len(first)
    for z in points:
        require_close(chi_matrix(first, second, z), antidiagonal(n), what)


def check_serre(elements, images, points) -> None:
    """The canonical operator multiplies each restriction at the point a by
    (-1)^{n-1} Z_a^n / e_n."""
    n = len(elements)
    for z in points:
        f, _ = restrictions(elements, z)
        s, _ = restrictions(images, z)
        factor = (-1) ** (n - 1) * z**n / np.prod(z)
        require_close(s, f * factor[None, :], "Serre twist", float(np.max(np.abs(f))))


def braid_permutation(letters, n: int) -> list[int]:
    """Which element of the original basis each slot descends from: the
    generator t moves slots n-|t| and n-|t|+1 (1-based), letters right to left."""
    perm = list(range(n))
    for t in reversed(letters):
        i = n - abs(t)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return perm


def check_scaled_gram(g_scaled, g, char_exps, z) -> None:
    """G' = D^* G D with D the diagonal of the characters Z^a of the slots."""
    d = np.array([np.prod(z ** np.array(a)) for a in char_exps])
    gz = mat_eval(g, z)
    require_close(
        mat_eval(g_scaled, z), np.diag(d.conj()) @ gz @ np.diag(d), "G' = D* G D",
        float(np.max(np.abs(gz))),
    )


# -- numeric CLI outputs -------------------------------------------------------------------


def parse_complex(v) -> complex:
    """A number of the CLI's JSON: ["re", "im"], a float string or a number."""
    if isinstance(v, list) and len(v) == 2 and all(isinstance(x, str) for x in v):
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, str):
        return complex(float(v))
    if isinstance(v, (int, float)):
        return complex(v)
    raise CheckFailed(f"not a number: {v!r}")


def parse_array(v) -> np.ndarray:
    """A vector or matrix of the CLI's JSON, whose complex numbers are
    ["re", "im"] pairs of strings."""
    if isinstance(v, list) and v and isinstance(v[0], list) and not isinstance(v[0][0], str):
        return np.array([parse_array(row) for row in v])
    if isinstance(v, list) and (not v or not isinstance(v[0], str)):
        return np.array([parse_complex(x) for x in v])
    return np.array(parse_complex(v))


def parse_report(result) -> dict:
    rc, out, err = result
    require(rc == 0, f"exit code {rc}: {err.strip()[:200]}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc


def vandermonde(z) -> np.ndarray:
    """D[j, a] = z_j^a: fixed points by x-powers."""
    z = np.asarray(z, dtype=complex)
    return z[:, None] ** np.arange(len(z))[None, :]


def comparison_matrix(k: int, z) -> np.ndarray:
    """Gamma^+ exp(pi i c_1) ch on X^{k+n-1-m}, m = 0..n-1, in x-coordinates:
    at the fixed point I, prod_{a != I} Gamma(1 + z_a - z_I) *
    exp(pi i (sum z - n z_I)) * exp(2 pi i z_I)^p."""
    z = np.asarray(z, dtype=complex)
    n = len(z)
    cols = []
    for m in range(n):
        p = k + n - 1 - m
        r = np.array(
            [
                np.prod([sgamma(1 + z[a] - z[i]) for a in range(n) if a != i])
                * cmath.exp(1j * math.pi * (z.sum() - n * z[i]))
                * cmath.exp(2j * math.pi * z[i] * p)
                for i in range(n)
            ]
        )
        cols.append(np.linalg.solve(vandermonde(z), r))
    return np.column_stack(cols)


def check_malformed(result) -> None:
    """A malformed command line returns 2 with a one-line message."""
    rc, out, err = result
    require(rc == 2, f"malformed input returned {rc}")
    require(out == "", "malformed input wrote a report")
    lines = [line for line in err.splitlines() if line.strip()]
    require(len(lines) == 1, f"expected a one-line message, got {len(lines)} lines")
