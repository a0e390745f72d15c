"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of `projqde` from outside the
program: each wrapped call records a span (name, start, end, parent span) and
its self time, the span's duration minus the part its child spans cover.
A layer is a module; `<layer>.self_s` sums the self time of every span of
that module, and `<layer>.<name>.self_s` the self time of one function.

Polynomial products are the arithmetic the matrix operations are built from:
a product made inside a ring span is counted (calls, term pairs, peak terms)
but not timed on its own, so `ring.det.self_s` includes the products of its
expansion.  Matrix operations nest as spans: the determinants that
`inverse` takes for its adjugate are `ring.det` spans.  Products are too many
to keep one record each; they are aggregated, the other spans are kept as
records and written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from projqde import cli, cohomology, hypergeom, ktheory, qde, qkz, ring, stokes

RING = "ring"

# (owner, attribute, metric name); the layer is the module the owner lives in
FUNCTIONS = [
    (ktheory, "chi_pair", "ktheory.chi_pair"),
    (ktheory, "mutate", "ktheory.mutate"),
    (ktheory, "braid_act", "ktheory.braid_act"),
    (ktheory, "gram_matrix", "ktheory.gram_matrix"),
    (ktheory, "dual_basis", "ktheory.dual_basis"),
    (ktheory, "serre_twist", "ktheory.serre_twist"),
    (ktheory, "braid_constants", "ktheory.braid_constants"),
    (ktheory, "beilinson_basis", "ktheory.beilinson_basis"),
    (ktheory, "structured_basis", "ktheory.structured_basis"),
    (ktheory, "kclass_from_laurent", "ktheory.kclass_from_laurent"),
    (ktheory, "canonical_char_poly", "ktheory.canonical_char_poly"),
    (ktheory, "canonical_spectrum_poly", "ktheory.canonical_spectrum_poly"),
    (ktheory, "dioph_residual", "ktheory.dioph_residual"),
    (ktheory, "markov_residuals_rank3", "ktheory.markov_residuals_rank3"),
    (ktheory, "markov_residuals_rank4", "ktheory.markov_residuals_rank4"),
    (stokes, "gram_stokes_check", "stokes.gram_stokes_check"),
    (stokes, "stokes_matrices", "stokes.stokes_matrices"),
    (stokes, "stokes_basis", "stokes.stokes_basis"),
    (stokes, "formal_reduce_numeric", "stokes.formal_reduce_numeric"),
    (stokes, "dubrovin_bridge", "stokes.dubrovin_bridge"),
    (stokes, "antisymmetric_v_exact", "stokes.antisymmetric_v_exact"),
    (stokes, "shear_coeffs", "stokes.shear_coeffs"),
    (stokes, "e_matrix", "stokes.e_matrix"),
    (stokes, "e_matrix_exact", "stokes.e_matrix_exact"),
    (stokes, "stokes_normalization", "stokes.stokes_normalization"),
    (qde, "levelt_series", "qde.levelt_series"),
    (qde, "topological_series", "qde.topological_series"),
    (qde, "ode_residual", "qde.ode_residual"),
    (qde, "coefficient_matrix", "qde.coefficient_matrix"),
    (qde, "system_matrices", "qde.system_matrices"),
    (qkz, "qkz_operator", "qkz.qkz_operator"),
    (qkz, "r_matrix", "qkz.r_matrix"),
    (hypergeom, "psi_Q", "hypergeom.psi_Q"),
    (hypergeom, "psi_power", "hypergeom.psi_power"),
    (hypergeom, "contour_oracle", "hypergeom.contour_oracle"),
    (hypergeom, "b_theorem_check", "hypergeom.b_theorem_check"),
    (hypergeom, "analytic_comparison_matrix", "hypergeom.analytic_comparison_matrix"),
    (hypergeom, "solution_ode_residual", "hypergeom.solution_ode_residual"),
    (hypergeom, "solution_qkz_residual", "hypergeom.solution_qkz_residual"),
    (cohomology, "b_morphism", "cohomology.b_morphism"),
    (cohomology, "chern_character", "cohomology.chern_character"),
    (cohomology, "gamma_class", "cohomology.gamma_class"),
    (cohomology, "connection_matrix", "cohomology.connection_matrix"),
    (cohomology, "vandermonde", "cohomology.vandermonde"),
    (cohomology, "g_basis_matrix", "cohomology.g_basis_matrix"),
    (cli, "main", "cli.main"),
    (cli, "emit", "cli.emit"),
]

METHODS = [
    (ring.LaurentPoly, "__mul__", "ring.poly_mul"),
    (ring.LaurentPoly, "__rmul__", "ring.poly_mul"),
    (ring.LaurentMatrix, "__mul__", "ring.mat_mul"),
    (ring.LaurentMatrix, "__rmul__", "ring.mat_mul"),
    (ring.LaurentMatrix, "det", "ring.det"),
    (ring.LaurentMatrix, "inverse", "ring.inverse"),
    (ktheory.ExceptionalBasis, "is_exceptional", "ktheory.is_exceptional"),
    (ktheory.KClass, "scale", "ktheory.scale"),
    (ktheory.KClass, "twist", "ktheory.twist"),
    (ktheory.KClass, "to_laurent", "ktheory.to_laurent"),
    (hypergeom.SolutionSeries, "__init__", "hypergeom.series"),
    (hypergeom.QSolution, "restrictions", "hypergeom.restrictions"),
    (hypergeom.QSolution, "x_coords", "hypergeom.x_coords"),
    (cohomology.NumericContext, "gamma", "cohomology.gamma"),
]

PROPERTIES = [
    (ktheory.KClass, "coeffs", "ktheory.coeffs"),
]


class Tracer:
    """Collects spans and counters while installed; `metrics()` reports them
    per traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.term_pairs = 0
        self.peak_terms = 0
        self.emit_bytes = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # frames: [name, layer, child_s, span id]
        self._next_id = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------------

    def _timed(self, name: str, layer: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [name, layer, 0.0, span_id]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            self.self_s[name] += dur - frame[2]
            if parent is not None:
                parent[2] += dur
            if name != "ring.poly_mul":
                self.spans.append((span_id, parent[3] if parent else None, name, start, end))

    def _inside_ring(self) -> bool:
        return bool(self._stack) and self._stack[-1][1] == RING

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        tracer = self

        if name == "ring.poly_mul":

            def poly_mul(a, b):
                tracer.calls[name] += 1
                if tracer._inside_ring():
                    out = fn(a, b)
                else:
                    out = tracer._timed(name, layer, fn, (a, b), {})
                if isinstance(b, ring.LaurentPoly):
                    tracer.term_pairs += len(a.terms) * len(b.terms)
                if len(out.terms) > tracer.peak_terms:
                    tracer.peak_terms = len(out.terms)
                return out

            return poly_mul

        if name == "cli.emit":

            def emit(report, path):
                tracer.calls[name] += 1
                out = sys.stdout  # a StringIO: the benchmark captures the CLI's output
                before = out.tell()
                result = tracer._timed(name, layer, fn, (report, path), {})
                tracer.emit_bytes += out.tell() - before
                return result

            return emit

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return tracer._timed(name, layer, fn, args, kwargs)

        return wrapper

    # -- installing ----------------------------------------------------------------

    def _rebind(self, orig, new) -> None:
        """Point every module attribute bound to `orig` at `new` (modules that
        imported the name keep their own binding, e.g. `stokes.gram_matrix`)."""
        for name, mod in list(sys.modules.items()):
            if name != "projqde" and not name.startswith("projqde."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))

    def install(self) -> None:
        for owner, attr, name in FUNCTIONS:
            orig = getattr(owner, attr)
            self._rebind(orig, self._wrap(name, orig))
        for cls, attr, name in METHODS:
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, orig))
            self._undo.append((cls, attr, orig))
        for cls, attr, name in PROPERTIES:
            orig = cls.__dict__[attr]
            setattr(cls, attr, property(self._wrap(name, orig.fget), doc=orig.__doc__))
            self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reporting -----------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric, per traced pass."""
        out: dict[str, float] = {}
        layer_self: dict[str, float] = defaultdict(float)
        for name, secs in self.self_s.items():
            layer_self[name.split(".", 1)[0]] += secs
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / passes
        for name in TIMED:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) / passes
        for name in COUNTED:
            out[f"{name}.calls"] = self.calls.get(name, 0) / passes
        out["ring.poly_mul.term_pairs"] = self.term_pairs / passes
        out["ring.poly_mul.peak_terms"] = float(self.peak_terms)
        out["cli.emit.bytes"] = self.emit_bytes / passes
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in self.spans
            ],
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "poly_mul": {"term_pairs": self.term_pairs, "peak_terms": self.peak_terms},
        }


LAYERS = ["ring", "ktheory", "stokes", "hypergeom", "qde", "qkz", "cohomology", "cli"]

TIMED = [
    "ring.det",
    "ring.inverse",
    "ring.mat_mul",
    "ring.poly_mul",
    "ktheory.canonical_char_poly",
    "ktheory.dioph_residual",
    "ktheory.chi_pair",
    "ktheory.mutate",
    "ktheory.braid_act",
    "ktheory.is_exceptional",
    "ktheory.gram_matrix",
    "ktheory.coeffs",
    "stokes.stokes_matrices",
    "stokes.gram_stokes_check",
    "hypergeom.contour_oracle",
    "hypergeom.b_theorem_check",
    "qde.levelt_series",
    "qde.topological_series",
    "cohomology.b_morphism",
    "cli.emit",
]

COUNTED = [
    "ring.det",
    "ring.inverse",
    "ring.mat_mul",
    "ring.poly_mul",
    "ktheory.chi_pair",
    "ktheory.mutate",
    "ktheory.braid_act",
    "hypergeom.series",
    "qkz.qkz_operator",
    "cohomology.gamma",
]


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric `Tracer.metrics` reports."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({f"{name}.self_s": "s" for name in TIMED})
    units.update({f"{name}.calls": "count" for name in COUNTED})
    units["ring.poly_mul.term_pairs"] = "count"
    units["ring.poly_mul.peak_terms"] = "count"
    units["cli.emit.bytes"] = "bytes"
    return units
