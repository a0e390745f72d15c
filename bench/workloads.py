"""The benchmark's workloads: seeded inputs, timed operations and their checks.

An operation's `run(state)` is the timed call into `projqde`; its output is
stored in `state` under the operation's name so later operations of the same
pass can use it.  Its `check(output, state)` runs untimed, after the passes,
and raises `checks.CheckFailed` when the output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
from checks import require
from projqde import cli, hypergeom, ktheory, stokes
from projqde.cohomology import NumericContext
from projqde.ktheory import BraidWord
from projqde.ring import LaurentPoly, zvars


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], None]


# -- stokes-gram -----------------------------------------------------------------------

# n = 4 only: one n = 5 sector takes 10-11 s, so a run of the usual length
# would time one pass of two of them and no median could steady it
STOKES_SECTORS = [(4, kind, k) for kind in ("Vprime", "Vdprime") for k in range(-2, 3)]
STOKES_IDENTITIES = ("stokes_is_dual_gram", "stokes_is_gram", "dagger_pair", "char_poly", "formal_monodromy")


def stokes_gram(seed: int) -> list[Op]:
    """One operation per sector: gram_stokes_check, then dioph_residual on the
    sector's Gram matrix.  The sectors are fixed; the seed draws the points of
    the unit torus the checks evaluate at."""
    rng = random.Random(seed)
    ops = []
    for n, kind, k in STOKES_SECTORS:
        sector = stokes.SectorId(kind, k)
        points = [checks.torus_point(rng, n) for _ in range(2)]

        def run(state, sector=sector, n=n):
            rep = stokes.gram_stokes_check(sector, n)
            return rep, ktheory.dioph_residual(rep["gram"], n)

        def check(out, state, n=n, points=points):
            rep, residual = out
            for key in STOKES_IDENTITIES:
                require(rep[key] is True, f"identity {key} reported false")
            require(not residual.terms, "Diophantine residual is not zero")
            checks.check_stokes(rep["s1"], rep["s2"], rep["gram"], n, points)

        ops.append(Op(f"stokes {kind}:{k} n={n}", run, check))
    return ops


# -- braid-orbit and torus-braid ---------------------------------------------------------


def _braid_relation_checks(n: int, rng) -> list[tuple[BraidWord, BraidWord]]:
    """Seeded instances of tau_i tau_i^-1 = 1, (br1) and (br2) as word pairs."""
    i = rng.randint(1, n - 1)
    pairs = [(BraidWord((i, -i)), BraidWord(()))]
    if n >= 3:
        i = rng.randint(1, n - 2)
        pairs.append((BraidWord((i, i + 1, i)), BraidWord((i + 1, i, i + 1))))
    if n >= 4:
        i = rng.randint(1, n - 3)
        j = rng.randint(i + 2, n - 1)
        pairs.append((BraidWord((i, j)), BraidWord((j, i))))
    return pairs


def orbit_ops(tag: str, base, word: BraidWord, rng, unscaled=None, chars=None) -> list[Op]:
    """The calculus on one orbit element B = word . base.  For a scaled base,
    `unscaled` is the base before scaling and `chars` the exponent vectors of
    the characters its elements were scaled by."""
    n = base.n
    z = checks.torus_point(rng, n)
    relations = _braid_relation_checks(n, rng)
    act, gram = f"act {tag}", f"gram {tag}"

    def run_act(state):
        return ktheory.braid_act(word, base)

    def check_act(b, state):
        for lhs, rhs in relations:
            got = ktheory.braid_act(lhs, b, verify=False).elements
            want = ktheory.braid_act(rhs, b, verify=False).elements
            require(got == want, f"braid relation {lhs} = {rhs} fails")

    def run_gram(state):
        return ktheory.gram_matrix(state[act])

    def check_gram(g, state):
        checks.check_gram(state[act].elements, g, [z])
        if unscaled is not None:
            g0 = ktheory.gram_matrix(ktheory.braid_act(word, unscaled, verify=False))
            perm = checks.braid_permutation(word.letters, n)
            checks.check_scaled_gram(g, g0, [chars[p] for p in perm], z)

    def run_left(state):
        return ktheory.dual_basis("left", state[act])

    def check_left(left, state):
        checks.check_dual(left.elements, state[act].elements, [z], "left dual")

    def run_right(state):
        return ktheory.dual_basis("right", state[act])

    def check_right(right, state):
        checks.check_dual(state[act].elements, right.elements, [z], "right dual")

    def run_serre(state):
        b = state[act]
        via_braid = ktheory.braid_act(ktheory.braid_constants("C", n) ** -n, b)
        return via_braid.elements, tuple(ktheory.serre_twist(e) for e in b.elements)

    def check_serre(out, state):
        via_braid, twisted = out
        require(via_braid == twisted, "C^-n differs from the Serre twist")
        checks.check_serre(state[act].elements, twisted, [z])

    def run_sigma(state):
        b = state[act]
        return tuple(
            ktheory.braid_act(ktheory.braid_constants(name, n), b).elements
            for name in ("beta", "sigma_odd", "sigma_even")
        )

    def check_sigma(out, state):
        beta, odd, even = out
        require(odd == beta and even == beta, "sigma_odd / sigma_even differ from beta")
        checks.check_dual(beta, state[act].elements, [z], "half twist")

    return [
        Op(act, run_act, check_act),
        Op(gram, run_gram, check_gram),
        Op(f"left dual {tag}", run_left, check_left),
        Op(f"right dual {tag}", run_right, check_right),
        Op(f"serre {tag}", run_serre, check_serre),
        Op(f"sigma {tag}", run_sigma, check_sigma),
    ]


# (n, base kind, generator signs): the orbit elements are tau_i^s . base for
# i = 1..n-1 and s in the signs.  A fixed set of words keeps the work the same
# for every seed; random words of length 2 made a pass take 15-36% longer or
# shorter from one seed to the next.
BRAID_ORBITS = [(6, "beilinson", (1, -1)), (6, "Qpt", (1,)), (7, "beilinson", (1,))]
TORUS_ORBITS = [(3, "beilinson", (1, -1)), (3, "Qpt", (1, -1)), (4, "beilinson", (1, -1)), (4, "Qpt", (1,))]


def _base(kind: str, n: int):
    """The Beilinson basis or structured_basis(kind, 0, n)."""
    return ktheory.beilinson_basis(n) if kind == "beilinson" else ktheory.structured_basis(kind, 0, n)


def _orbit_words(orbits) -> list[tuple[int, str, BraidWord]]:
    """Every (n, base kind, word) of the orbits."""
    return [
        (n, kind, BraidWord((s * i,)))
        for n, kind, signs in orbits
        for i in range(1, n)
        for s in signs
    ]


def braid_orbit(seed: int) -> list[Op]:
    """Orbit elements of the Beilinson and structured bases, in R(GL_n).  The
    seed draws the check points and braid relations."""
    rng = random.Random(seed)
    ops = []
    for n, kind, word in _orbit_words(BRAID_ORBITS):
        ops += orbit_ops(f"{kind} n={n} {word}", _base(kind, n), word, rng)
    return ops


def scaled_basis(base, chars):
    """Each element times the torus character Z^a; the scaled basis is still
    exceptional, with coefficients in Z1..Zn."""
    n = base.n
    return ktheory.ExceptionalBasis(
        [e.scale(LaurentPoly.monomial(zvars(n), a)) for e, a in zip(base.elements, chars)],
        base.labels,
        verify=False,
    )


def torus_characters(rng, n: int) -> list[tuple[int, ...]]:
    """Z_{s(i)} / Z_{s(i+1 mod n)} for element i, with s a seeded permutation of
    the variables.  The base classes are symmetric in Z1..Zn, so every s gives
    the same amount of work."""
    s = list(range(n))
    rng.shuffle(s)
    chars = []
    for i in range(n):
        a = [0] * n
        a[s[i]] += 1
        a[s[(i + 1) % n]] -= 1
        chars.append(tuple(a))
    return chars


def torus_braid(seed: int) -> list[Op]:
    """The same calculus with every element of the base scaled by a torus
    character, so the classes fall back to Z coefficients.  The seed draws the
    characters, check points and braid relations."""
    rng = random.Random(seed)
    ops = []
    for n, kind, word in _orbit_words(TORUS_ORBITS):
        base = _base(kind, n)
        chars = torus_characters(rng, n)
        scaled = scaled_basis(base, chars)
        ops += orbit_ops(f"{kind} n={n} {word}", scaled, word, rng, unscaled=base, chars=chars)
    return ops


# -- numeric-cli ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def resonance_free_point(rng, n: int) -> list[float]:
    """z_i in (0, 1), consecutive gaps at least 0.7/(n+1), all gaps below 1."""
    return [round((i + 0.5 + 0.3 * (rng.random() - 0.5)) / (n + 1), 6) for i in range(n)]


def _num(report: dict, key: str) -> float:
    return float(checks.parse_complex(report[key]).real)


def _check_psi(n, z, q, cls_text):
    def check(result, state):
        rep = checks.parse_report(result)
        restr = checks.parse_array(rep["restrictions"])
        checks.require_close(
            checks.parse_array(rep["x_coords"]),
            np.linalg.solve(checks.vandermonde(z), restr),
            "x-coordinates",
            float(np.max(np.abs(restr))),
            1e-9,
        )
        if "oracle_restrictions" in rep:
            oracle = checks.parse_array(rep["oracle_restrictions"])
        else:
            ctx = NumericContext(tuple(z))
            oracle = hypergeom.contour_oracle(cli.parse_kclass_expr(cls_text, n), q, ctx).to_vector()
        checks.require_close(
            restr, oracle, "psi vs contour quadrature", float(np.max(np.abs(restr))), checks.CLI_TOL["psi"]
        )

    return check


def _check_b(z, k):
    def check(result, state):
        rep = checks.parse_report(result)
        want = checks.comparison_matrix(k, z)
        scale = float(np.max(np.abs(want)))
        checks.require_close(checks.parse_array(rep["analytic"]), want, "analytic comparison matrix", scale, 1e-9)
        checks.require_close(
            checks.parse_array(rep["matrix"]), want, "comparison matrix", scale, checks.CLI_TOL["b-check"]
        )

    return check


def _check_qkz_residuals(n):
    def check(result, state):
        rep = checks.parse_report(result)
        res = rep["residuals"]
        require(sorted(res) == sorted([f"shift_{i}" for i in range(1, n + 1)] + ["ode"]), "residual keys")
        for key, value in res.items():
            v = float(value)
            require(v <= checks.CLI_TOL["qkz-check"], f"{key} residual {v:.3g}")

    return check


def _check_qkz_matrix(n, z, q, i):
    def check(result, state):
        m = checks.parse_array(checks.parse_report(result)["matrix"])
        require(m.shape == (n, n), f"matrix shape {m.shape}")
        ctx = NumericContext(tuple(z))
        fund = hypergeom.fundamental_matrix(ctx, 40)
        y = fund(q, ctx)
        y_shift = fund(q, ctx.shift(i))
        checks.require_close(
            y_shift, m @ y, "qKZ matrix on the residue-series solutions", float(np.max(np.abs(y_shift))), checks.QKZ_TOL
        )

    return check


def _check_solve_qde(n):
    def check(result, state):
        rep = checks.parse_report(result)
        res = _num(rep, "ode_residual")
        require(res <= checks.CLI_TOL["solve-qde"], f"qDE residual {res:.3g}")
        m = checks.parse_array(rep["matrix"])
        require(m.shape == (n, n) and bool(np.all(np.isfinite(m))), "fundamental matrix")

    return check


def _check_formal(n, order):
    def check(result, state):
        coeffs = [checks.parse_array(c) for c in checks.parse_report(result)["coeffs"]]
        require(len(coeffs) == order + 1, f"{len(coeffs)} gauge coefficients")
        require(all(c.shape == (n, n) and np.all(np.isfinite(c)) for c in coeffs), "gauge coefficients")
        checks.require_close(coeffs[0], np.eye(n), "leading gauge coefficient", tol=0.0)

    return check


def _check_dubrovin(result, state):
    rep = checks.parse_report(result)
    require(rep["antisymmetric_exact"] is True, "V is not antisymmetric")
    require(_num(rep, "antisymmetry") <= 1e-9, "numeric antisymmetry")
    require(_num(rep, "residual") <= checks.CLI_TOL["dubrovin"], "isomonodromic residual")


def _cli_op(name: str, argv: list[str], check) -> Op:
    return Op(name, lambda state: run_cli(argv), check)


FORMAL_ORDER = 4

# command lines that must return 2 with a one-line message
MALFORMED = [
    ["gram", "--n", "0"],
    ["dioph-check", "--n", "0"],
    ["qkz", "--n", "2", "--i", "3", "--q", "0.3", "--z", "0.2,0.6"],
]


def numeric_cli(seed: int) -> list[Op]:
    """CLI commands at seeded resonance-free points, n = 2..4, and three
    malformed command lines."""
    rng = random.Random(seed)
    ops = []
    for n in (2, 3, 4):
        z = resonance_free_point(rng, n)
        zs = ",".join(repr(w) for w in z)
        q = round(rng.uniform(0.15, 0.35), 4)
        cls_text = f"X^{rng.randrange(n)}"
        k = rng.randint(-1, 1)
        i = rng.randint(1, n)
        common = ["--n", str(n), "--z", zs]
        psi = ["psi", *common, "--q", repr(q), "--class", cls_text]
        if n == 2:
            ops.append(_cli_op("psi --oracle contour n=2", psi + ["--oracle", "contour"], _check_psi(n, z, q, cls_text)))
        else:
            ops.append(_cli_op(f"psi n={n}", psi, _check_psi(n, z, q, cls_text)))
        ops += [
            _cli_op(f"b-check n={n}", ["b-check", *common, "--k", str(k)], _check_b(z, k)),
            _cli_op(f"qkz-check n={n}", ["qkz-check", *common, "--q", repr(q), "--class", "X"], _check_qkz_residuals(n)),
            _cli_op(f"qkz n={n}", ["qkz", *common, "--q", repr(q), "--i", str(i)], _check_qkz_matrix(n, z, q, i)),
            _cli_op(f"solve-qde n={n}", ["solve-qde", *common, "--q", repr(q)], _check_solve_qde(n)),
            _cli_op(f"formal-reduce n={n}", ["formal-reduce", *common, "--order", str(FORMAL_ORDER)], _check_formal(n, FORMAL_ORDER)),
            _cli_op(f"dubrovin n={n}", ["dubrovin", "--n", str(n)], _check_dubrovin),
        ]
    for argv in MALFORMED:
        ops.append(_cli_op(" ".join(argv), argv, lambda result, state: checks.check_malformed(result)))
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "stokes-gram": stokes_gram,
    "braid-orbit": braid_orbit,
    "torus-braid": torus_braid,
    "numeric-cli": numeric_cli,
}
