"""No code branches on a family type, and each family operation has one spelling.

What differs between the families is a method or class attribute of the
measure or map type (quantile.py, gaussian.py), not an isinstance call or a
table keyed by the type.  cli's config parsing and RunConfig.p0 name the
concrete types, and serialize's table maps the family name to the stored
type; none of them calls isinstance on them, and neither do the family
modules.  A family method holds its operation's code itself: it forwards
to a module-level function only when BENCHMARK.json's per-layer metrics
trace that function, since the tracer patches module attributes.
"""

import ast
import os

import pytest
from test_benchmark_layers import traced_functions

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "jkolab")
FAMILY_TYPES = {"QuantileGrid", "GaussianMeasure", "MonotoneMap1D", "AffineMap"}
GUARDED = ("jko", "process", "certify", "functionals", "serialize", "cli", "gaussian", "quantile")
FAMILY_MODULES = ("gaussian", "quantile")


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


def forwarding_methods(source: str) -> dict:
    """Class.method -> f of each method whose body, past a docstring, is `return f(self, ...)`
    with f a public module-level function of `source`."""
    tree = ast.parse(source)
    public = {n.name for n in tree.body
              if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
    out = {}
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for method in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
            body = [s for s in method.body
                    if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in public and call.args
                    and isinstance(call.args[0], ast.Name) and call.args[0].id == "self"):
                out[f"{cls.name}.{method.name}"] = call.func.id
    return out


@pytest.mark.parametrize("module", FAMILY_MODULES)
def test_methods_forward_only_to_traced_functions(module):
    with open(os.path.join(SRC, f"{module}.py")) as f:
        forwarded = forwarding_methods(f.read())
    assert {f"{module}.{f}" for f in forwarded.values()} <= traced_functions()


def test_the_guard_sees_forwarding_methods():
    source = ("def kl_between(p, q):\n    return 0.0\n\n"
              "def _kl(p, q):\n    return 0.0\n\n"
              "class G:\n"
              "    def kl(self, other):\n        'KL(self || other).'\n"
              "        return kl_between(self, other)\n\n"
              "    def private(self, other):\n        return _kl(self, other)\n\n"
              "    def reversed(self, other):\n        return kl_between(other, self)\n\n"
              "    def longer(self, other):\n        x = 1\n        return kl_between(self, x)\n")
    assert forwarding_methods(source) == {"G.kl": "kl_between"}
    assert traced_functions() >= {"gaussian.w2_bw", "gaussian.spd_sqrt"}
    assert "gaussian.kl_between" not in traced_functions()
