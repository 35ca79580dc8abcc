"""Tooling: no module converts a measure field or a plan between tuples
and arrays.

The fields of DiscreteMeasure, LiftedMeasure, LatticeMeasure and
ParticleState are read-only arrays built once in measure.py (a lattice's
coords is a row view over one), and the entries of TransportPlan and
LiftedPlan are a row view over read-only (i, k, w) columns that their
producers fill. An ast scan of the package fails on any call of
np.array, np.asarray or tuple whose argument is a .positions,
.velocities, .masses, .coords or .entries attribute, and on
tuple(zip(...)), the form that builds one tuple per entry of a plan.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mdelab").glob("*.py"))
CONVERTERS = {"np.array", "np.asarray", "tuple"}
FIELDS = {"positions", "velocities", "masses", "coords", "entries"}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def field_conversions(source: str) -> list[str]:
    """The converter calls on measure fields and plan entries, and the
    tuple(zip(...)) calls, as 'line N: call'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = _callee(node)
            on_field = any(isinstance(arg, ast.Attribute)
                           and arg.attr in FIELDS for arg in node.args)
            if name in CONVERTERS and on_field:
                found.append((node.lineno, name))
            elif name == "tuple" and any(
                    isinstance(arg, ast.Call) and _callee(arg) == "zip"
                    for arg in node.args):
                found.append((node.lineno, "tuple(zip)"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_module_converts_measure_fields(path):
    assert field_conversions(path.read_text(encoding="utf-8")) == []


def test_scan_flags_field_conversions():
    source = ("import numpy as np\n"
              "def f(mu, rows):\n"
              "    a = np.array(mu.positions)[:, 0]\n"
              "    b = np.asarray(mu.masses, dtype=float)\n"
              "    c = tuple(mu.velocities)\n"
              "    d = np.array(rows) + mu.positions.tolist()[0][0]\n"
              "    return np.array(step.coords, dtype=np.int64)\n"
              "def g(step):\n"
              "    return tuple(step.coords), step.coords.array\n"
              "def h(plan, rows, cols, deltas):\n"
              "    e = tuple(zip(rows, cols, deltas))\n"
              "    i, k, w = zip(*plan.entries)\n"
              "    return tuple(plan.entries), np.array(plan.entries)\n")
    assert field_conversions(source) == [
        "line 3: np.array", "line 4: np.asarray", "line 5: tuple",
        "line 7: np.array", "line 9: tuple", "line 11: tuple(zip)",
        "line 13: np.array", "line 13: tuple"]
