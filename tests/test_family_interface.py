"""Outside the family modules, no code branches on a family type.

What differs between the families is a method of the measure or map type
(quantile.py, gaussian.py).  cli's config parsing and build_p0 still name
the concrete types, and serialize's decode table maps the stored family
name to them; neither calls isinstance on them.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "jkolab")
FAMILY_TYPES = {"QuantileGrid", "GaussianMeasure", "MonotoneMap1D", "AffineMap"}
GUARDED = ("jko", "process", "certify", "functionals", "serialize")


def family_isinstance_lines(source: str) -> list[int]:
    """Lines of the isinstance calls whose class argument names a family type."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        named = {n.attr if isinstance(n, ast.Attribute) else n.id
                 for n in ast.walk(node.args[1]) if isinstance(n, (ast.Attribute, ast.Name))}
        if named & FAMILY_TYPES:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", GUARDED)
def test_no_isinstance_on_a_family_type(module):
    with open(os.path.join(SRC, f"{module}.py")) as f:
        assert family_isinstance_lines(f.read()) == []


def test_the_guard_sees_family_branches():
    source = ("if isinstance(p, (qt.QuantileGrid, int)):\n    pass\n"
              "ok = isinstance(t, AffineMap)\n"
              "other = isinstance(x, float)\n")
    assert family_isinstance_lines(source) == [1, 3]
