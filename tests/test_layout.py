"""Layout of the library: every module-level function and class of
`src/projqde` has a caller in the program (the library itself, `bench/` or
`tools/`), so code that only tests call lives in the tests; and the library
imports neither sympy nor mpmath, which serve only as test-time oracles."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_ONLY_PACKAGES = {"sympy", "mpmath"}


def _used_names(node: ast.AST) -> set[str]:
    """Names a piece of code uses: identifiers, attributes, and string
    constants equal to a name (the benchmark's tracer wraps functions by
    their names).  An import alone is not a use."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def without_program_caller() -> list[str]:
    """module.name of each module-level definition of `src/projqde` that no
    code outside itself uses, counting as dead, round by round, the
    definitions that only dead ones use."""
    defs = {}  # (module, name) -> names its definition uses
    outside = set()  # names used by library code outside any definition, bench or tools
    for path in sorted((ROOT / "src" / "projqde").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[(path.stem, stmt.name)] = _used_names(stmt) - {stmt.name}
            else:
                outside |= _used_names(stmt)
    for path in sorted([*(ROOT / "bench").glob("*.py"), *(ROOT / "tools").glob("*.py")]):
        outside |= _used_names(ast.parse(path.read_text()))
    dead: set[tuple[str, str]] = set()
    while True:
        live_uses = outside.union(*(uses for key, uses in defs.items() if key not in dead))
        newly = {key for key in defs if key not in dead and key[1] not in live_uses}
        if not newly:
            return sorted(f"{module}.{name}" for module, name in dead)
        dead |= newly


def test_every_library_definition_has_a_program_caller():
    unused = without_program_caller()
    assert not unused, "no program code calls " + ", ".join(unused)


def oracle_imports(tree: ast.AST) -> list[str]:
    """The modules of TEST_ONLY_PACKAGES that a piece of code imports, at any
    depth (function-local imports included)."""
    out = []
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Import):
            names = [alias.name for alias in sub.names]
        elif isinstance(sub, ast.ImportFrom) and sub.level == 0:
            names = [sub.module]
        else:
            continue
        out += [name for name in names if name.split(".")[0] in TEST_ONLY_PACKAGES]
    return out


def test_the_library_imports_no_test_oracle():
    found = {
        path.name: oracle_imports(ast.parse(path.read_text()))
        for path in sorted((ROOT / "src" / "projqde").glob("*.py"))
    }
    assert not any(found.values()), found
    # the scan sees a dotted import and one inside a function body
    snippet = "import mpmath.libmp\ndef f():\n    from sympy.polys import fields\n"
    assert oracle_imports(ast.parse(snippet)) == ["mpmath.libmp", "sympy.polys"]
