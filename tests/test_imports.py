"""Tooling: every name a module imports at top level is used in it, and
every module-level function or constant of the package is used.

An ast scan of the package modules, the tests and the scripts. Package
``__init__.py`` files are skipped, since their imports are the public
re-exports; a name that only its definition and that re-export mention
is dead. Importing the package and its CLI loads no scipy: the solvers
that need it import it when they first run.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for pattern in ("src/mdelab/*.py", "tests/*.py", "scripts/*.py")
    for path in ROOT.glob(pattern) if path.name != "__init__.py")
PACKAGE = [path for path in SOURCES if path.parent.name == "mdelab"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def referenced_names(source: str) -> set[str]:
    """Names read anywhere in the source, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def module_definitions(source: str) -> list[str]:
    """The functions and assigned constants at a module's top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return names


def unreferenced_definitions(package: dict[str, str],
                             others: list[str]) -> list[str]:
    used = set()
    for source in [*package.values(), *others]:
        used |= referenced_names(source)
    return [f"{module}: {name}" for module, source in package.items()
            for name in module_definitions(source) if name not in used]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_name():
    source = "import math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["line 1: math", "line 2: path"]


def test_no_unreferenced_module_functions_or_constants():
    package = {path.name: path.read_text(encoding="utf-8")
               for path in PACKAGE}
    others = [path.read_text(encoding="utf-8") for path in SOURCES
              if path not in PACKAGE]
    assert unreferenced_definitions(package, others) == []


def test_definition_scan_flags_a_dead_name():
    package = {"a.py": "TOL = 1e-12\nLIMIT = 3\n\ndef f():\n    return 1\n\n"
                       "def g(x):\n    return LIMIT * x\n"}
    others = ["from a import g\nprint(g(2))\n"]
    assert unreferenced_definitions(package, others) == ["a.py: TOL",
                                                         "a.py: f"]


def exact_sums_outside_measure(package: dict[str, str]) -> list[str]:
    """Where a module other than measure.py imports or reads the size
    constants of measure.exact_row_sums, maps math.fsum over rows, takes
    the fsum of an array's .tolist() or of an arithmetic or indexing
    expression (an array in every use so far; generators and named lists
    pass), or sums runs with a ufunc's reduceat (np.add.reduceat, or
    .reduceat( on any name): measure.py alone decides when numpy may
    stand in for fsum, and a whole array's exact sum is exact_row_sums
    of it."""
    found = []
    for module, source in package.items():
        if module == "measure.py":
            continue
        for node in ast.walk(ast.parse(source)):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.ImportFrom) else
                     [node.attr] if isinstance(node, ast.Attribute) else [])
            found += [(module, node.lineno, name) for name in names
                      if name in ("TREE_FIXED", "TREE_PER_LEVEL")]
            if isinstance(node, ast.Attribute) and node.attr == "reduceat":
                found.append((module, node.lineno, "reduceat"))
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "map" and node.args
                    and ast.unparse(node.args[0]) in ("math.fsum", "fsum")):
                found.append((module, node.lineno, "map(fsum)"))
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) in ("math.fsum", "fsum")
                    and node.args and isinstance(node.args[0], ast.Call)
                    and isinstance(node.args[0].func, ast.Attribute)
                    and node.args[0].func.attr == "tolist"):
                found.append((module, node.lineno, "fsum(tolist)"))
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) in ("math.fsum", "fsum")
                    and node.args
                    and isinstance(node.args[0], (ast.BinOp, ast.Subscript))):
                found.append((module, node.lineno, "fsum(array)"))
    return [f"{module}: line {line}: {what}"
            for module, line, what in sorted(found)]


def test_exact_sums_have_one_home():
    sample = {"measure.py": "TREE_FIXED = 1\nsums = map(math.fsum, rows)\n"
                            "total = math.fsum(cols[:, k].tolist())\n"
                            "runs = np.add.reduceat(masses, starts)\n",
              "a.py": "from .measure import TREE_FIXED\n"
                      "sums = list(map(math.fsum, rows))\n"
                      "size = measure.TREE_PER_LEVEL\n"
                      "cost = math.fsum((w * gaps).tolist())\n"
                      "total = fsum(x.tolist()) + math.fsum(x)\n"
                      "cost = math.fsum(weights * base_dist[keep])\n"
                      "part = fsum(x[keep]) + math.fsum(w for w in x)\n"
                      "runs = np.add.reduceat(w, i) + add.reduceat(w, s)\n"}
    assert exact_sums_outside_measure(sample) == [
        "a.py: line 1: TREE_FIXED", "a.py: line 2: map(fsum)",
        "a.py: line 3: TREE_PER_LEVEL", "a.py: line 4: fsum(tolist)",
        "a.py: line 5: fsum(tolist)", "a.py: line 6: fsum(array)",
        "a.py: line 7: fsum(array)", "a.py: line 8: reduceat",
        "a.py: line 8: reduceat"]
    package = {path.name: path.read_text(encoding="utf-8")
               for path in PACKAGE}
    assert exact_sums_outside_measure(package) == []


def test_importing_the_package_and_cli_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ("import sys, mdelab, mdelab.cli\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
