"""Every function and method in src/ is named somewhere in src/ outside its own definition.

A helper that only the tests call belongs in the tests (tests/reference.py
or tests/oracles.py), not in the package.  A reference is a name or an
attribute access anywhere in src/jkolab; a definition's own body does not
count, and neither does a string (an `__all__` entry).  Dunder methods are
called by the language, so they are not checked.  tests/test_traffic_gate.py
is the stricter gate: it also lists what src/ names but no CLI run enters.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "jkolab")

# module.qualname -> why it stays without a caller in src/
EXEMPT = {
    "cli._Parser.error": "argparse's override point: argparse calls it",
    "certify.check_smoothing": "ROADMAP item 7 adds it to the atomic configs' checks",
    "process.w2_grid_to_atoms": "ROADMAP item 7 measures the data-to-sample lhs with it",
}


def _definitions(node, prefix=""):
    """(qualname, FunctionDef) of every function and method under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _definitions(child, name + ".")
        else:
            yield from _definitions(child, prefix)


def unreferenced(sources: dict) -> list[str]:
    """module.qualname of each function in `sources` (module -> source text) that no
    name or attribute outside its own definition refers to."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    refs = [(mod, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
            for mod, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for mod, tree in trees.items():
        for qualname, d in _definitions(tree):
            if d.name.startswith("__") and d.name.endswith("__"):
                continue
            if not any(name == d.name and not (m == mod and d.lineno <= line <= d.end_lineno)
                       for m, name, line in refs):
                found.append(f"{mod}.{qualname}")
    return found


def package_sources() -> dict:
    out = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as f:
                out[fname[:-3]] = f.read()
    return out


def test_every_function_has_a_caller_in_src():
    # an exempt function that gains a caller, or is deleted, leaves the list too
    assert sorted(unreferenced(package_sources())) == sorted(EXEMPT)


def test_the_guard_sees_unused_functions():
    sources = {
        "a": ("def used():\n    return 1\n\n"
              "def recursive(n):\n    return recursive(n - 1)\n\n"
              "class C:\n"
              "    def __init__(self):\n        pass\n\n"
              "    def method(self):\n        return used()\n\n"
              "    def called(self):\n        return 0\n\n"
              "__all__ = ['listed']\n\n"
              "def listed():\n    pass\n"),
        "b": "from .a import C\n\nx = C().called()\n",
    }
    assert unreferenced(sources) == ["a.recursive", "a.C.method", "a.listed"]
