"""Entropy and nondegeneracy are invariants of the types, not checks of each operation.

ObjectiveSpec rejects alpha <= 0 when it is made, and GaussianMeasure
rejects a covariance whose smallest eigenvalue is below 1e-10.  So no code
in src/ branches on alpha outside ObjectiveSpec.__post_init__, and no code
names the per-operation checks that the invariants replaced.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "jkolab")
MODULES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))
OWNER = ("ObjectiveSpec", "__post_init__")
REMOVED = {"entropy_weight", "is_nondegenerate", "require_nondegenerate"}


def names_in(node) -> set:
    """The names and attribute names that the expression `node` mentions."""
    return {n.attr if isinstance(n, ast.Attribute) else n.id
            for n in ast.walk(node) if isinstance(n, (ast.Attribute, ast.Name))}


def branch_test(node):
    """The expression that `node` branches on: a comparison itself, an if's or a while's
    test; None for any other node."""
    if isinstance(node, (ast.If, ast.IfExp, ast.While)):
        return node.test
    return node if isinstance(node, ast.Compare) else None


def alpha_branch_lines(source: str) -> list[int]:
    """Lines of the comparisons and of the if/while tests that name alpha,
    outside ObjectiveSpec.__post_init__."""
    lines = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        test = branch_test(node)
        if test is not None and scope[:2] != OWNER and "alpha" in names_in(test):
            lines.add(test.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(lines)


def removed_name_lines(source: str) -> list[int]:
    """Lines that use or define a name of REMOVED."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if (isinstance(node, ast.Name) and node.id in REMOVED)
                   or (isinstance(node, ast.Attribute) and node.attr in REMOVED)
                   or (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and node.name in REMOVED)})


def read(module: str) -> str:
    with open(os.path.join(SRC, f"{module}.py")) as f:
        return f.read()


@pytest.mark.parametrize("module", MODULES)
def test_no_branch_on_alpha(module):
    assert alpha_branch_lines(read(module)) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_per_operation_check(module):
    assert removed_name_lines(read(module)) == []


def test_only_the_owner_is_exempt():
    source = read("functionals").replace("class ObjectiveSpec", "class Renamed")
    assert alpha_branch_lines(source) != []


def test_the_guard_sees_alpha_branches():
    source = ("class ObjectiveSpec:\n"
              "    def __post_init__(self):\n"
              "        if not self.alpha > 0:\n"
              "            raise ValueError\n"
              "def step(spec, alpha):\n"
              "    if spec.alpha:\n"
              "        pass\n"
              "    h = entropy() if alpha > 0 else 0.0\n"
              "    while alpha:\n"
              "        break\n"
              "    return spec.alpha * h, 0 < spec.alpha\n")
    assert alpha_branch_lines(source) == [6, 8, 9, 11]


def test_the_guard_sees_removed_checks():
    source = ("g.require_nondegenerate()\n"
              "ok = g.log_det\n"
              "w = spec.entropy_weight\n"
              "def is_nondegenerate(self):\n"
              "    return True\n")
    assert removed_name_lines(source) == [1, 3, 4]
