"""Command-line front end: deterministic JSON reports over the workbench.

Exact values serialize as decimal-string rationals, complex numbers as
["re","im"] strings; identical configuration yields byte-identical output.
Exit status: 0 on success, 1 when an asserted identity fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import ast
import cmath
import json
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import cohomology, hypergeom, ktheory, qde, qkz, stokes
from .ring import LaurentMatrix, LaurentPoly, evars
from .ktheory import BraidWord


class MathFailure(Exception):
    """An asserted identity failed beyond tolerance."""


# -- serialization -----------------------------------------------------------------


def _complex_json(w: complex) -> list[str]:
    w = complex(w)
    return [repr(w.real), repr(w.imag)]


def to_jsonable(obj):
    if isinstance(obj, LaurentPoly):
        n = len(obj.vars)
        return (ktheory.to_z(obj, n) if obj.vars == evars(n) else obj).to_json()
    if isinstance(obj, LaurentMatrix):
        return [[to_jsonable(obj[i, j]) for j in range(obj.cols)] for i in range(obj.rows)]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(row) for row in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, stokes.SectorId):
        return {"kind": obj.kind, "k": obj.k}
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, complex):
        return _complex_json(obj)
    return str(obj)


def emit(report: dict, path: str | None) -> None:
    text = json.dumps(to_jsonable(report), sort_keys=True, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# -- argument parsing ---------------------------------------------------------------


def parse_z(text: str, n: int):
    """Comma-separated parameters; exact Fractions when every entry is
    rational, complex numbers otherwise."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} parameters, got {len(parts)}")
    try:
        return tuple(Fraction(p) for p in parts)
    except ValueError:
        z = tuple(complex(p.replace(" ", "")) for p in parts)
    if not all(map(cmath.isfinite, z)):
        raise ValueError(f"z must be finite, got {text!r}")
    return z


def parse_q(text: str) -> complex:
    """The point q of the equations: a finite nonzero complex number."""
    try:
        q = complex(text.replace(" ", ""))
    except ValueError:
        raise ValueError(f"q must be a complex number, got {text!r}") from None
    if q == 0 or not cmath.isfinite(q):
        raise ValueError(f"q must be finite and nonzero, got {text!r}")
    return q


_CLASS_TOKEN = re.compile(r"^[0-9XZy\s\+\-\*/\(\)\^]*$")


def _check_exponent(what: str, k: int, limit: int) -> None:
    """Reduction of O(k) = X^{-k} to the basis O(0)..O(n-1), which the bases
    of a Stokes sector need too, takes time growing fast with |k|: X
    exponents, line-bundle indices and twists must satisfy |k| <= 2n, sector
    indices |k| <= n."""
    if abs(k) > limit:
        raise ValueError(f"{what} out of range: |k| must be at most {limit}")


# (X+Z1+..+Z4)^8 has 495 terms; a product of four took 9.4 s to evaluate
CLASS_TERM_LIMIT = 100_000


def _check_class_expr(tree: ast.AST, limit: int) -> None:
    """Each power p^k of a class expression takes an integer literal k with
    |k| <= limit and a base p that holds no power, as a tower of powers
    raises the degree exponentially.  No value formed may have more than
    CLASS_TERM_LIMIT terms: a sum has at most those of both sides, a product
    their product, and p^k of a t-term p at most C(t + |k| - 1, |k|).
    Bottom-up, without recursion: a sum of thousands of terms nests deep."""
    size: dict[ast.AST, int] = {}
    for node in reversed(list(ast.walk(tree))):
        bound = max((size[c] for c in ast.iter_child_nodes(node)), default=1)
        if isinstance(node, ast.BinOp):
            a, b = size[node.left], size[node.right]
            bound = a + b if isinstance(node.op, (ast.Add, ast.Sub)) else a * b
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            try:
                k = ast.literal_eval(node.right)
            except ValueError:
                k = None
            if type(k) is not int:
                raise ValueError("an exponent must be an integer literal")
            _check_exponent(f"exponent {k}", k, limit)
            if any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow) for sub in ast.walk(node.left)):
                raise ValueError("the base of a power must not hold a power")
            bound = math.comb(a + abs(k) - 1, abs(k))
        size[node] = min(bound, CLASS_TERM_LIMIT + 1)
    if size[tree] > CLASS_TERM_LIMIT:
        raise ValueError(f"it may build more than {CLASS_TERM_LIMIT} terms")


def _checked(convert, ok, what: str):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


# the types of --order and --tol, for the commands that take them
_ORDER = _checked(int, lambda k: k >= 1, "a positive integer")
_TOL = _checked(float, lambda x: 0 <= x < math.inf, "finite and at least 0")


def _line_bundle(text: str, n: int) -> ktheory.KClass | None:
    """The class of O(i), |i| <= 2n, when text reads O(i); None otherwise."""
    if m := re.fullmatch(r"O\((-?\d+)\)", text.strip()):
        i = int(m.group(1))
        _check_exponent(f"line-bundle index O({i})", i, 2 * n)
        return ktheory.KClass.line_bundle(n, i)


def parse_kclass_expr(text: str, n: int) -> LaurentPoly:
    """Tiny expression syntax for Laurent polynomials in X, Z1..Zn
    (also O(i) for line-bundle classes, |i| <= 2n); ^ means power, with an
    integer literal exponent |k| <= 2n and a base without a power.  An
    expression that may build more than CLASS_TERM_LIMIT terms is refused
    before it is evaluated."""
    text = text.strip()
    if (o := _line_bundle(text, n)) is not None:
        return o.to_laurent()
    expr = text.replace("^", "**")
    if not _CLASS_TOKEN.match(expr.replace("**", "^").replace("Z", "y")):
        raise ValueError(f"unsupported characters in class expression {text!r}")
    vs = ktheory.xz_vars(n)
    names = {"X": LaurentPoly.variable(vs, "X")}
    for i in range(1, n + 1):
        names[f"Z{i}"] = LaurentPoly.variable(vs, f"Z{i}")
    try:
        _check_class_expr(ast.parse(expr, mode="eval"), 2 * n)
        value = eval(expr, {"__builtins__": {}}, names)  # noqa: S307 - guarded charset
    except Exception as exc:
        raise ValueError(f"cannot parse class expression {text!r}: {exc}") from exc
    if isinstance(value, int):
        value = LaurentPoly.constant(vs, value)
    if not isinstance(value, LaurentPoly):
        raise ValueError(f"expression {text!r} is not a Laurent polynomial")
    return value


def parse_word(text: str, n: int) -> BraidWord:
    """At most max(4, n(n-1)/2) letters, the length of beta: each is a mutation
    whose classes grow (dioph-check at n = 4: 6.5 s for tau_1^6, > 60 s for tau_1^10)."""
    letters = text.split(",") if text else []
    limit = max(4, n * (n - 1) // 2)
    if len(letters) > limit:
        raise ValueError(f"braid word of {len(letters)} letters; at most {limit} at rank {n}")
    return BraidWord(tuple(int(t) for t in letters))


def parse_sector(text: str) -> stokes.SectorId:
    kind, _, k = text.partition(":")
    mapping = {"vp": "Vprime", "vpp": "Vdprime"}
    if kind not in mapping:
        raise ValueError("sector must be vp:K or vpp:K")
    return stokes.SectorId(mapping[kind], int(k or 0))


def load_config(path: str) -> dict:
    """Flat key = value lines; '#' comments allowed; flags win on conflict."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if not _:
                raise ValueError(f"bad config line: {line!r}")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _named_basis(name: str, k: int, n: int):
    if name == "beilinson":
        return ktheory.beilinson_basis(n)
    if name in ("Q", "Qp", "Qpp", "Qpt", "Qppt"):
        _check_exponent(f"twist k = {k}", k, 2 * n)
        return ktheory.structured_basis(name, k, n)
    raise ValueError(f"unknown basis {name!r}")


def _basis(args):
    """The basis named by --basis and --k, acted on by --word."""
    basis = _named_basis(args.basis, args.k, args.n)
    if args.word:
        basis = ktheory.braid_act(parse_word(args.word, args.n), basis)
    return basis


# -- commands -----------------------------------------------------------------------


def cmd_gram(args) -> dict:
    basis = _basis(args)
    g = ktheory.gram_matrix(basis)
    return {
        "n": args.n,
        "basis": args.basis,
        "labels": list(basis.labels),
        "gram": g,
        "unitriangular": g.is_upper_unitriangular(),
    }


def _mutation_class(text: str, n: int) -> ktheory.KClass:
    if (o := _line_bundle(text, n)) is not None:  # over E1..En, not through Z1..Zn
        return o
    p = parse_kclass_expr(text, n)
    for k in (p.valuation("X"), p.degree("X")):
        if k is not None:
            _check_exponent(f"X exponent {k}", k, 2 * n)
    return ktheory.kclass_from_laurent(p, n)


def cmd_mutate(args) -> dict:
    n = args.n
    e = _mutation_class(args.pivot, n)
    f = _mutation_class(args.target, n)
    out = ktheory.mutate(args.side, e, f)
    return {"n": n, "side": args.side, "result": out.to_json()}


def cmd_braid(args) -> dict:
    n = args.n
    if args.name:
        word = ktheory.braid_constants(args.name, n)
    else:
        word = parse_word(args.word, n)
    basis = _named_basis(args.basis, args.k, n)
    image = ktheory.braid_act(word, basis)  # verified: it raises on a non-exceptional image
    return {
        "n": n,
        "word": word.to_json(),
        "labels": list(image.labels),
        "elements": [e.to_json() for e in image.elements],
        "exceptional": True,
    }


def cmd_dioph_check(args) -> dict:
    n = args.n
    g = ktheory.gram_matrix(_basis(args))
    residual = ktheory.dioph_residual(g, n)
    report = {"n": n, "basis": args.basis, "char_poly_residual_zero": residual.is_zero()}
    markov = {3: ktheory.markov_residuals_rank3, 4: ktheory.markov_residuals_rank4}.get(n)
    if markov:
        report["markov_residuals_zero"] = [r.is_zero() for r in markov(g)]
    if not residual.is_zero():
        raise MathFailure("canonical characteristic polynomial constraint violated")
    return report


def cmd_solve_qde(args) -> dict:
    n = args.n
    z = parse_z(args.z, n)
    cohomology.NumericContext(z)  # resonance guard
    q = parse_q(args.q)
    if args.solution == "levelt":
        sol = qde.levelt_series(n, z, args.order)
    else:
        sol = qde.topological_series(n, z, args.order)
    y = sol.matrix(q)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(sol.derivative(q)))):
        raise OverflowError("qDE solution not finite")
    res = qde.ode_residual(sol, q, n, [complex(w) for w in z])
    if not sol.converged(q):
        raise ValueError(f"qDE series not converged at q = {args.q} by --order {args.order}")
    report = {
        "n": n,
        "solution": args.solution,
        "q": complex(q),
        "order": args.order,
        "matrix": y,
        "ode_residual": res,
    }
    if not res <= args.tol:
        raise MathFailure(f"qDE residual {res} above tolerance {args.tol}")
    return report


def cmd_qkz(args) -> dict:
    n = args.n
    z = [complex(w) for w in parse_z(args.z, n)]
    m = qkz.qkz_operator(args.i, parse_q(args.q), z, basis=args.basis)
    return {"n": n, "i": args.i, "basis": args.basis, "matrix": m}


def cmd_qkz_check(args) -> dict:
    n = args.n
    ctx = cohomology.NumericContext(parse_z(args.z, n))
    q = parse_q(args.q)
    Q = parse_kclass_expr(args.cls, n)
    residuals = {}
    for i in range(1, n + 1):
        residuals[f"shift_{i}"] = hypergeom.solution_qkz_residual(Q, i, q, ctx, args.order)
    sol = hypergeom.psi_Q(Q, ctx, args.order)
    residuals["ode"] = hypergeom.solution_ode_residual(sol, q)
    if not all(s.converged(q) for s in sol.series):
        raise ValueError(f"residue series not converged at q = {args.q} by --order {args.order}")
    bad = [v for v in residuals.values() if not v <= args.tol]
    if bad:
        raise MathFailure(f"difference residual {max(bad)} above tolerance {args.tol}")
    return {"n": n, "q": q, "residuals": residuals}


def cmd_psi(args) -> dict:
    n = args.n
    ctx = cohomology.NumericContext(parse_z(args.z, n))
    q = parse_q(args.q)
    Q = parse_kclass_expr(args.cls, n)
    sol = hypergeom.psi_Q(Q, ctx, args.order)
    restr = sol.restrictions(q)
    if not np.all(np.isfinite(restr)):
        raise OverflowError("residue series not finite")
    if not all(s.converged(q) for s in sol.series):
        raise ValueError(f"residue series not converged at q = {args.q} by --order {args.order}")
    report = {
        "n": n,
        "q": q,
        "restrictions": restr,
        "x_coords": sol.x_coords(q),
    }
    if args.oracle == "contour":
        oracle = hypergeom.contour_oracle(Q, q, ctx).to_vector()
        dev = float(np.max(np.abs(oracle - restr)) / np.max(np.abs(restr)))
        report["oracle_restrictions"] = oracle
        report["oracle_deviation"] = dev
        if not dev <= args.tol:
            raise MathFailure(f"contour oracle deviation {dev} above tolerance {args.tol}")
    return report


def cmd_b_check(args) -> dict:
    n = args.n
    ctx = cohomology.NumericContext(parse_z(args.z, n))
    _check_exponent(f"twist k = {args.k}", args.k, 2 * n)
    rep = hypergeom.b_theorem_check(args.k, ctx, args.order)
    rep = dict(rep)
    if not rep["deviation"] <= args.tol:
        raise MathFailure(
            f"comparison-matrix deviation {rep['deviation']} above tolerance {args.tol}"
        )
    return rep


def cmd_stokes(args) -> dict:
    n = args.n
    sector = parse_sector(args.sector)
    _check_exponent(f"sector index {sector.k}", sector.k, n)
    rep = stokes.gram_stokes_check(sector, n)
    report = {
        "n": n,
        "sector": sector,
        "s1": rep["s1"],
        "s2": rep["s2"],
        "gram": rep["gram"],
        "identities": {key: v for key, v in rep.items() if isinstance(v, bool)},
    }
    if not all(report["identities"].values()):
        raise MathFailure("a Stokes identity failed")
    if args.z:
        ctx = cohomology.NumericContext(parse_z(args.z, n))
        report["normalization"] = stokes.stokes_normalization(sector, ctx)
    return report


# the exact rank-2 coefficients grow with the order: order 20 took 4.5 s and
# printed 4.8 MB, order 45 took 49 s and printed 67 MB
EXACT_REDUCTION_ORDER = 20


def cmd_formal_reduce(args) -> dict:
    n = args.n
    if args.z is None:
        if n != 2:
            raise ValueError("exact formal reduction is implemented for rank 2; pass --z")
        if args.order > EXACT_REDUCTION_ORDER:
            raise ValueError(f"exact formal reduction takes --order at most {EXACT_REDUCTION_ORDER}; pass --z")
        sol = stokes.formal_reduce_exact_rank2(args.order)
        return {
            "n": n,
            "order": args.order,
            "coeffs": [m for m in sol.coeffs],
            "gauge_orders_ok": stokes.gauge_substitution_residual_orders(sol, args.order),
        }
    z = [complex(w) for w in parse_z(args.z, n)]
    sol = stokes.formal_reduce_numeric(n, z, args.order)
    return {"n": n, "order": args.order, "coeffs": [np.asarray(c) for c in sol.coeffs]}


def cmd_roots_of_unity(args) -> dict:
    rep = stokes.roots_of_unity_suite(args.n)
    checks = [v for v in rep.values() if isinstance(v, bool)]
    if not all(checks):
        raise MathFailure("a root-of-unity identity failed")
    return rep


def cmd_dubrovin(args) -> dict:
    rep = dict(stokes.dubrovin_bridge(args.n))
    rep["antisymmetric_exact"] = stokes.antisymmetric_v_exact(args.n)
    if not (rep["residual"] <= args.tol and rep["antisymmetric_exact"]):
        raise MathFailure("isomonodromic bridge check failed")
    return rep


def cmd_verify_all(args) -> dict:
    """Aggregate verification at one rank; nonzero exit iff anything fails."""
    n = args.n
    results = {}
    basis = ktheory.beilinson_basis(n)
    g = ktheory.gram_matrix(basis)
    results["gram_unitriangular"] = g.is_upper_unitriangular()
    results["dioph_zero"] = ktheory.dioph_residual(g, n).is_zero()
    beta = ktheory.braid_constants("beta", n)
    results["sigma_equals_beta"] = (
        ktheory.braid_act(ktheory.braid_constants("sigma_odd", n), basis).elements
        == ktheory.braid_act(beta, basis).elements
    )
    z = tuple(Fraction(2 * m + (1 if m % 2 else 0), 2 * n + 1) for m in range(n))
    ctx = cohomology.NumericContext(z)
    order = 25 if args.fast else 40
    results["ode_residual"] = qde.ode_residual(
        qde.levelt_series(n, z, order), 0.3, n, [complex(w) for w in z]
    )
    if not args.fast:
        rep = hypergeom.b_theorem_check(0, ctx, order)
        results["b_theorem_deviation"] = rep["deviation"]
    sector = stokes.SectorId("Vprime", 0)
    srep = stokes.gram_stokes_check(sector, n)
    results["stokes_gram"] = all(v for v in srep.values() if isinstance(v, bool))
    results["half_turn_left_dual"] = stokes.half_turn_is_left_dual(sector, n)
    failed = [
        k
        for k, v in results.items()
        if (isinstance(v, bool) and not v) or (isinstance(v, float) and not v <= 1e-6)
    ]
    if failed:
        raise MathFailure("verification failed: " + ", ".join(failed))
    return {"n": n, "results": results, "ok": True}


# -- dispatcher ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error exits 2 with one stderr line, without the usage."""
        self.exit(2, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: building the tree takes about 3 ms, many
    times the cost of parsing one command line with it."""
    top = _Parser(
        prog="projqde",
        description="equivariant qDE/qKZ workbench for projective space",
    )
    top.add_argument("--config", help="flat key = value file; flags win")
    top.add_argument("--output", help="write the JSON report to this path")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, help, fn, max_n):
        # max_n: the largest rank measured to finish within about 60 s
        p = sub.add_parser(name, help=help)
        # a braid word -1,2 or parameters -0.1,0.3 are values, not options
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(fn=fn, max_n=max_n)
        return p

    def basis_options(p):
        p.add_argument("--basis", default="beilinson")
        p.add_argument("--k", type=int, default=0)
        p.add_argument("--word", default="")

    def series_options(p, tol):
        p.add_argument("--z", required=True)
        p.add_argument("--order", type=_ORDER, default=40)
        p.add_argument("--tol", type=_TOL, default=tol)

    basis_options(command("gram", "Gram matrix of a named or mutated basis", cmd_gram, max_n=11))

    p = command("mutate", "left/right mutation of one class", cmd_mutate, max_n=9)
    p.add_argument("--side", choices=["left", "right"], required=True)
    p.add_argument("--pivot", required=True)
    p.add_argument("--target", required=True)

    p = command("braid", "act with a braid word on a named basis", cmd_braid, max_n=8)
    basis_options(p)
    p.add_argument("--name", default="")

    basis_options(command("dioph-check", "canonical characteristic constraints", cmd_dioph_check, max_n=10))

    p = command("solve-qde", "fundamental solutions at the regular point", cmd_solve_qde, max_n=65)
    series_options(p, tol=1e-8)
    p.add_argument("--q", required=True)
    p.add_argument("--solution", choices=["levelt", "top"], default="levelt")

    p = command("qkz", "shift-operator matrix", cmd_qkz, max_n=240)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--basis", choices=["g", "x"], default="x")

    p = command("qkz-check", "difference residuals of a solution", cmd_qkz_check, max_n=160)
    p.add_argument("--q", required=True)
    series_options(p, tol=1e-8)
    p.add_argument("--class", dest="cls", default="1")

    p = command("psi", "residue-series solution of a class", cmd_psi, max_n=160)
    series_options(p, tol=1e-6)
    p.add_argument("--q", required=True)
    p.add_argument("--class", dest="cls", default="1")
    p.add_argument("--oracle", choices=["contour", "none"], default="none")

    p = command("b-check", "comparison-matrix verification", cmd_b_check, max_n=160)
    series_options(p, tol=1e-6)
    p.add_argument("--k", type=int, default=0)

    p = command("stokes", "Stokes matrices and Gram identities", cmd_stokes, max_n=10)
    p.add_argument("--sector", required=True, help="vp:K or vpp:K")
    p.add_argument("--z", default="")

    p = command("formal-reduce", "formal gauge coefficients at infinity", cmd_formal_reduce, max_n=21)
    p.add_argument("--order", type=_ORDER, default=4)
    p.add_argument("--z", default=None)

    command("roots-of-unity", "degeneration suite", cmd_roots_of_unity, max_n=20)

    p = command("dubrovin", "bridge to the isomonodromic system", cmd_dubrovin, max_n=21)
    p.add_argument("--tol", type=_TOL, default=1e-8)

    p = command("verify-all", "aggregate verification", cmd_verify_all, max_n=10)
    p.add_argument("--fast", action="store_true")

    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.config:
        try:
            conf = load_config(args.config)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"config error: {exc}\n")
            return 2
        # config entries become flags placed right after the subcommand, so
        # explicitly given flags (parsed later) win on conflict
        extra: list[str] = []
        for key, value in conf.items():
            if key in ("config", "output", "command"):
                continue
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    extra.append(flag)
            else:
                extra.extend([flag, value])
        idx = argv.index(args.command)
        try:
            args = parser.parse_args(argv[: idx + 1] + extra + argv[idx + 1 :])
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        if args.n < 1:
            raise ValueError(f"rank n must be positive, got {args.n}")
        if args.n > args.max_n:
            raise ValueError(f"{args.command} takes --n at most {args.max_n}, got {args.n}")
        # a float overflow shows as a NaN verdict or an OverflowError, not a warning
        with np.errstate(all="ignore"):
            report = args.fn(args)
    except MathFailure as exc:
        sys.stderr.write(f"FAILED: {exc}\n")
        return 1
    except (ValueError, ArithmeticError) as exc:
        message = str(exc)
        if isinstance(exc, OverflowError) and "q" in vars(args):
            message = f"numeric overflow at q = {args.q} ({exc})"
        sys.stderr.write(f"error: {message}\n")
        return 2
    emit(report, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
