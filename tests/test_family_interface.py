"""Outside the family modules, no code branches on a family type.

What differs between the families is a method or class attribute of the
measure or map type (quantile.py, gaussian.py), not an isinstance call or a
table keyed by the type.  cli's config parsing and build_p0 still name the
concrete types, and serialize's decode table maps the stored family name
to them; neither calls isinstance on them.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "jkolab")
FAMILY_TYPES = {"QuantileGrid", "GaussianMeasure", "MonotoneMap1D", "AffineMap"}
GUARDED = ("jko", "process", "certify", "functionals", "serialize")


def names_a_family_type(node) -> bool:
    """Whether the expression `node` names a family type anywhere in it."""
    named = {n.attr if isinstance(n, ast.Attribute) else n.id
             for n in ast.walk(node) if isinstance(n, (ast.Attribute, ast.Name))}
    return bool(named & FAMILY_TYPES)


def family_isinstance_lines(source: str) -> list[int]:
    """Lines of the isinstance calls whose class argument names a family type."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and names_a_family_type(node.args[1])):
            lines.append(node.lineno)
    return lines


def family_keyed_dict_lines(source: str) -> list[int]:
    """Lines of the dict displays with a key that names a family type."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Dict)
            and any(k is not None and names_a_family_type(k) for k in node.keys)]


@pytest.mark.parametrize("module", GUARDED)
def test_no_isinstance_on_a_family_type(module):
    with open(os.path.join(SRC, f"{module}.py")) as f:
        assert family_isinstance_lines(f.read()) == []


def test_the_guard_sees_family_branches():
    source = ("if isinstance(p, (qt.QuantileGrid, int)):\n    pass\n"
              "ok = isinstance(t, AffineMap)\n"
              "other = isinstance(x, float)\n")
    assert family_isinstance_lines(source) == [1, 3]


@pytest.mark.parametrize("module", GUARDED)
def test_no_table_keyed_by_a_family_type(module):
    with open(os.path.join(SRC, f"{module}.py")) as f:
        assert family_keyed_dict_lines(f.read()) == []


def test_the_guard_sees_family_tables():
    source = ("TOL = {ga.GaussianMeasure: 1e-8, qt.QuantileGrid: 1e-3}\n"
              "by_name = {'grid': (qt.QuantileGrid, None)}\n"
              "merged = {**TOL}\n")
    assert family_keyed_dict_lines(source) == [1]
