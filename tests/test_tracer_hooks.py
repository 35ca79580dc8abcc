"""Tooling: the benchmark tracer's method hooks name real methods.

bench/tracing.py wraps the methods listed in its LEAF_METHODS table
through ``cls.__dict__[name]``, so a listed method that is removed or
renamed crashes ``bench/run.py --trace 1`` with a KeyError. The table is
read from the file's source, without importing the benchmark.
"""

import ast
import importlib
import pathlib

import pytest

TRACING = (pathlib.Path(__file__).resolve().parent.parent
           / "bench" / "tracing.py")


def leaf_methods(source: str) -> dict:
    """The literal value assigned to LEAF_METHODS in the source."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["LEAF_METHODS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("LEAF_METHODS not found")


HOOKS = [(layer, cls, meth)
         for layer, classes in leaf_methods(TRACING.read_text()).items()
         for cls, methods in classes.items() for meth in methods]


def test_the_table_lists_hooks():
    assert len(HOOKS) > 0


@pytest.mark.parametrize("layer,cls_name,meth", HOOKS,
                         ids=[f"{c}.{m}" for _, c, m in HOOKS])
def test_every_hooked_method_is_defined_on_its_class(layer, cls_name, meth):
    cls = getattr(importlib.import_module(f"mdelab.{layer}"), cls_name)
    assert meth in vars(cls), f"{layer}.{cls_name} has no {meth}"
