"""Tooling: no module converts a measure field between tuples and arrays.

The fields of DiscreteMeasure, LiftedMeasure and ParticleState are
read-only float64 arrays built once in measure.py. An ast scan of the
package fails on any call of np.array, np.asarray, tuple or _tuples
whose argument is a .positions, .velocities or .masses attribute, and
on any call of _tuples, the lattice's row converter, outside
measure._lattice.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mdelab").glob("*.py"))
CONVERTERS = {"np.array", "np.asarray", "tuple", "_tuples"}
FIELDS = {"positions", "velocities", "masses"}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def field_conversions(source: str, module: str) -> list[str]:
    """The converter calls on measure fields, and the _tuples calls
    outside measure._lattice, as 'line N: call'."""
    found = []

    def scan(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, ast.FunctionDef)
                     else function)
            if isinstance(child, ast.Call):
                name = _callee(child)
                on_field = any(isinstance(arg, ast.Attribute)
                               and arg.attr in FIELDS for arg in child.args)
                if (name in CONVERTERS and on_field or name == "_tuples"
                        and (module, function) != ("measure", "_lattice")):
                    found.append(f"line {child.lineno}: {name}")
            scan(child, inner)

    scan(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_module_converts_measure_fields(path):
    assert field_conversions(path.read_text(encoding="utf-8"),
                             path.stem) == []


def test_scan_flags_field_conversions():
    source = ("import numpy as np\n"
              "def f(mu, rows):\n"
              "    a = np.array(mu.positions)[:, 0]\n"
              "    b = np.asarray(mu.masses, dtype=float)\n"
              "    c = tuple(mu.velocities)\n"
              "    d = np.array(rows) + mu.positions.tolist()[0][0]\n"
              "    return _tuples(rows)\n"
              "def _lattice(rows):\n"
              "    return _tuples(rows)\n")
    assert field_conversions(source, "pvf") == [
        "line 3: np.array", "line 4: np.asarray", "line 5: tuple",
        "line 7: _tuples", "line 9: _tuples"]
    assert field_conversions(source, "measure") == [
        "line 3: np.array", "line 4: np.asarray", "line 5: tuple",
        "line 7: _tuples"]
