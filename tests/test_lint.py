"""Source hygiene checks that need nothing beyond the standard library."""
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bdspec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bdspec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# The extended-precision entry points; every other quantity has one
# double-precision evaluation path.
MPMATH_USERS = {"eval_pq_mp", "markov_iterates", "dn_taylor_moments"}
# Public names that only tests call; the README says why each stays.
TEST_ONLY_SURFACE = {
    "custom_rates",
    "dn_taylor_moments",
    "eval_pq_mp",
    "log_abs",
    "measure_moment",
    "moment_asymptote",
    "pi_alpha",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_detects_unused_imports():
    src = "import os, sys\nfrom math import pi as p, tau\nimport numpy.linalg\nprint(sys, tau)\n"
    assert unused_imports(src) == ["os (line 1)", "p (line 2)", "numpy (line 3)"]
    assert unused_imports("from __future__ import annotations\nimport math\nx: math.pi\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def importers(source: str, module: str) -> list[str]:
    """Where ``module`` is imported: the enclosing function's name, or
    ``<module>`` for an import outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == module for name in names):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_detects_mpmath_imports():
    src = (
        "import mpmath\n"
        "def f():\n    import mpmath as mp\n"
        "class C:\n    def g(self):\n        from mpmath import mpf\n"
        "def h():\n    def inner():\n        import mpmath.libmp\n"
        "def k():\n    import math\n"
    )
    assert importers(src, "mpmath") == ["<module>", "f", "g", "inner"]


def test_mpmath_only_in_extended_precision_paths():
    found = {
        f"{path.name}:{owner}"
        for path in SRC.glob("*.py")
        for owner in importers(path.read_text(encoding="utf-8"), "mpmath")
        if owner not in MPMATH_USERS
    }
    assert found == set()


def test_detects_module_level_decimal_imports():
    src = (
        "import decimal\n"
        "from decimal import Decimal\n"
        "def f():\n    import decimal\n"
        "if True:\n    import decimal.x as d\n"
        "import decimalx\n"
    )
    assert importers(src, "decimal") == ["<module>", "<module>", "f", "<module>"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_decimal_import(path):
    # decimal loads at the first extended-precision call, not at import.
    assert "<module>" not in importers(path.read_text(encoding="utf-8"), "decimal")


# The scipy names the library may import: two LAPACK routines and one rule.
SCIPY_NAMES = {"scipy.linalg.lapack.ztbtrs", "scipy.linalg.lapack.dsterf", "scipy.special.roots_jacobi"}


def scipy_imports(source: str) -> list[str]:
    """The dotted names under which a source imports from scipy, anywhere in
    it: ``import scipy.linalg`` gives ``scipy.linalg``, ``from scipy.special
    import roots_jacobi as rj`` gives ``scipy.special.roots_jacobi``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "scipy":
            found += [f"{node.module}.{a.name}" for a in node.names]
    return found


def test_detects_scipy_imports():
    src = (
        "import scipy\n"
        "import numpy, scipy.linalg as la\n"
        "from scipy import special\n"
        "from scipy.linalg.lapack import ztbtrs, dgesv as solve\n"
        "def f():\n    from scipy.special import roots_jacobi\n"
        "import scipyx\nfrom .scipy import x\n"
    )
    assert scipy_imports(src) == [
        "scipy", "scipy.linalg", "scipy.special", "scipy.linalg.lapack.ztbtrs",
        "scipy.linalg.lapack.dgesv", "scipy.special.roots_jacobi",
    ]


def test_scipy_enters_as_named_routines_only():
    # LAPACK ztbtrs and dsterf and scipy.special's roots_jacobi are all the
    # library reads of scipy, so a loader of exactly these names can stand in
    # for scipy's package imports.
    found = {name for path in SRC.glob("*.py") for name in scipy_imports(path.read_text(encoding="utf-8"))}
    assert found <= SCIPY_NAMES


def loaded_after(statement: str, modules: list[str]) -> list[str]:
    """The ``modules`` in ``sys.modules`` after running ``statement`` in a
    fresh interpreter that imports bdspec from ``src/``."""
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    code = f"import sys; {statement}; print(' '.join(m for m in {modules!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


def test_import_leaves_mpmath_unloaded():
    # The static check above finds mpmath imports; this one runs the import.
    assert loaded_after("import bdspec", ["mpmath"]) == []


def test_cli_import_leaves_decimal_and_mpmath_unloaded():
    assert loaded_after("import bdspec.cli", ["decimal", "mpmath"]) == []


def uncalled(names, sources) -> list[str]:
    """The ``names`` that no source reads, as a name or as an attribute."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(set(names) - read)


def test_detects_uncalled_names():
    src = "from m import f, g\nimport k\ndef h():\n    return f(1) + k.g\nj = 2\n"
    assert uncalled(["f", "g", "h", "j", "m"], [src]) == ["h", "j", "m"]


def public_definitions(source: str) -> list[str]:
    """Names that start with no underscore and that a source defines at
    module level by ``def`` or ``class``, or as a method of such a class."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names += [n.name for n in node.body
                      if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [n for n in names if not n.startswith("_")]


def test_detects_public_definitions():
    src = (
        "X = 1\n"
        "def f():\n    def inner():\n        pass\n"
        "def _g():\n    pass\n"
        "class C:\n    y = 2\n    def __init__(self):\n        pass\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    def _h(self):\n        pass\n"
        "class _D:\n    def m(self):\n        pass\n"
    )
    assert public_definitions(src) == ["f", "C", "size"]


def test_public_names_have_callers():
    # Every public function, class, method and constant is called from the
    # library or the benchmark (its tests aside), or is listed as test-only
    # surface; submodules are namespaces, not surface.
    names = [n for n in bdspec.__all__ if not inspect.ismodule(getattr(bdspec, n))]
    names += [n for p in MODULES for n in public_definitions(p.read_text(encoding="utf-8"))]
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    sources = [p.read_text(encoding="utf-8") for p in MODULES + bench]
    assert set(uncalled(names, sources)) == TEST_ONLY_SURFACE


def private_definitions(source: str) -> list[str]:
    """Names that a source binds at module level, by ``def``, ``class`` or
    assignment, and that start with one underscore."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_detects_unread_private_names():
    src = (
        "__all__ = ['g']\n"
        "_A = 1\n_B, _C = 2, 3\n_D: int = 4\n"
        "def _entries(s):\n    return s\n"
        "def _assemble(s):\n    return s + _A\n"
        "class _K:\n    pass\n"
        "def g(x):\n    return _assemble(x)\n"
    )
    names = private_definitions(src)
    assert names == ["_A", "_B", "_C", "_D", "_entries", "_assemble", "_K"]
    assert uncalled(names, [src]) == ["_B", "_C", "_D", "_K", "_entries"]


def test_private_names_have_callers():
    # A private function, class or constant that nothing in the library reads
    # is a leftover; the tests do not count as readers.
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert uncalled([n for s in sources for n in private_definitions(s)], sources) == []


DYNAMIC_CODE = {"eval", "exec", "compile", "__import__"}


def dynamic_code_uses(source: str) -> list[str]:
    """Reads of the builtins that run or import code chosen at run time,
    bare or through ``builtins``, as ``name (line N)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "builtins"):
            name = node.attr
        else:
            continue
        if name in DYNAMIC_CODE:
            found.append(f"{name} (line {node.lineno})")
    return found


def test_detects_dynamic_code():
    src = (
        "import builtins, re\n"
        "eval('1')\n"
        "run = exec\n"
        "builtins.compile('1', '', 'eval')\n"
        "re.compile('x')\n"
        "m = __import__('os')\n"
        "def f(node):\n    return node.eval\n"
    )
    assert set(dynamic_code_uses(src)) == {
        "eval (line 2)", "exec (line 3)", "compile (line 4)", "__import__ (line 6)"
    }


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dynamic_code(path):
    # Rate expressions from the command line are evaluated by walking a
    # whitelisted syntax tree; nothing in the library may hand text to the
    # interpreter.
    assert dynamic_code_uses(path.read_text(encoding="utf-8")) == []


def range_constants(source: str) -> list[str]:
    """Numbers in module-level assignments whose magnitude is at least 1e100
    or, nonzero, at most 1e-100: ``value (line N)``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            found += [f"{c.value!r} (line {c.lineno})" for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and type(c.value) in (int, float)
                      and c.value and not 1e-100 < abs(c.value) < 1e100]
    return found


def test_detects_range_constants():
    src = (
        "_A = 1e130\n_B: float = -1e-120\n_C = (0.0, 1e99, 2 ** 400, 10**100)\n"
        "_D = Tolerance(1e-12, 1e-300)\n"
        "def f():\n    return 1e200\n"
    )
    assert range_constants(src) == [
        "1e+130 (line 1)", "1e-120 (line 2)", "1e-300 (line 4)"
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "recurrence.py"],
                         ids=lambda p: p.name)
def test_range_thresholds_live_in_the_kernel(path):
    # The kernel's [1e-150, 1e150] is the one rescale range: a module that
    # guards the double range reads recurrence._RESCALE_HI or _RESCALE_LO.
    assert range_constants(path.read_text(encoding="utf-8")) == []


def hand_written_bounds(source: str) -> list[str]:
    """Calls ``max`` or ``<...>.maximum`` whose first argument reads
    ``<...>.abs_tol`` anywhere inside: ``line N``."""
    return sorted(
        (f"line {n.lineno}" for n in ast.walk(ast.parse(source))
         if isinstance(n, ast.Call) and n.args
         and any(isinstance(a, ast.Attribute) and a.attr == "abs_tol" for a in ast.walk(n.args[0]))
         and (isinstance(n.func, ast.Attribute) and n.func.attr == "maximum"
              or isinstance(n.func, ast.Name) and n.func.id == "max")),
        key=lambda s: int(s.split()[1]),
    )


def test_detects_hand_written_bounds():
    src = (
        "import numpy as np\n"
        "a = np.maximum(tol.abs_tol, tol.rel_tol * np.abs(v))\n"
        "b = max(self.abs_tol, 1.0)\n"
        "c = np.maximum(np.ldexp(t.abs_tol, -e), 1.0)\n"
        "d = np.maximum(x, y) + min(tol.abs_tol, 1.0)\n"
        "def f(tol):\n    return numpy.maximum(tol.abs_tol, 0)\n"
    )
    assert hand_written_bounds(src) == ["line 2", "line 3", "line 4", "line 7"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "numerics.py"],
                         ids=lambda p: p.name)
def test_settle_bounds_read_tolerance_bound(path):
    # Tolerance.bound is the one settle bound, elementwise on arrays.
    assert hand_written_bounds(path.read_text(encoding="utf-8")) == []


VERDICTS = {"DET_H", "DET_S_INDET_H", "INDET_S_INDET_H"}


def determinacy_reads(source: str) -> list[str]:
    """Where a source reads a verdict constant, or ``classify`` outside
    ``cmd_classify``, as a name or an attribute: ``name (line N)``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name in VERDICTS or name == "classify" and owner != "cmd_classify":
                found.append(f"{name} (line {child.lineno})")
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_detects_determinacy_reads():
    src = (
        "from .indet import DET_H, classify\n"
        "from . import indet\n"
        "def cmd_classify(r):\n    return classify(r)\n"
        "def cmd_transform(r):\n    return indet.classify(r).verdict == indet.INDET_S_INDET_H\n"
    )
    assert determinacy_reads(src) == ["classify (line 6)", "INDET_S_INDET_H (line 6)"]


def test_cli_leaves_determinacy_to_the_library():
    # The library's one gate decides every mode conflict; the CLI classifies
    # only to report a classification.
    assert determinacy_reads((SRC / "cli.py").read_text(encoding="utf-8")) == []


def identity_tests(source: str) -> list[str]:
    """Comparisons by ``is`` or ``is not`` of which neither side is ``None``:
    ``line N``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if isinstance(op, (ast.Is, ast.IsNot)) and not any(
                        isinstance(s, ast.Constant) and s.value is None for s in sides[i:i + 2]):
                    found.append(f"line {node.lineno}")
    return found


def test_detects_identity_tests():
    src = (
        "a = x is None\nb = None is not y\n"
        "if scale is not unscaled:\n    pass\n"
        "c = p is q is None\n"
        "d = x == y\ne = x in y\n"
    )
    assert identity_tests(src) == ["line 3", "line 5"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_identity_only_against_none(path):
    # Whether a value is the very object given is no part of any result:
    # a decision reads the values, and ``is`` serves only ``None``.
    assert identity_tests(path.read_text(encoding="utf-8")) == []
