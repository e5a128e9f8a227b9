"""Every report name the CLI can emit has a must-fail control, or a backlog entry.

A bound that no doctored run can fail certifies nothing.  MUST_FAIL maps each
report name to the test that makes a run fail it; BACKLOG names the reports
without one yet, each with the ROADMAP item that adds it.  The names the CLI
can emit are read from the source: the check functions that `cli.CHECKS`
calls, and the literal name of each BoundReport they build.  The test fails
when those names and the two tables differ, or when a mapped test does not
exist.
"""

import ast
import os

import pytest

from jkolab import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
CERTIFY = os.path.join(ROOT, "src", "jkolab", "certify.py")

# certify of fixtures/negative_control fails exactly evi, reverse_kl and reverse_tv
_NEGATIVE_CONTROL = ("tests/test_cli.py::TestNegativeControl::"
                     "test_regenerated_fixture_matches_checked_in")

# report name -> the test in which a doctored run fails it
MUST_FAIL = {
    "evi": _NEGATIVE_CONTROL,
    "reverse_kl": _NEGATIVE_CONTROL,
    "reverse_tv": _NEGATIVE_CONTROL,
    "forward_rate": "tests/test_certify.py::TestForwardRate::test_understated_xi_norms_fail",
    "dpi_chain": "tests/test_certify.py::TestDpi::test_moved_transport_fails",
}

# report name -> why no control makes it fail yet
BACKLOG = {
    "forward_terminal_w2": "ROADMAP item 4: understated xi norms remove its rows instead "
                           "of failing them",
    "forward_terminal_gap": "ROADMAP item 4: understated xi norms remove its rows instead "
                            "of failing them, and an n = auto run emits none (a row needs "
                            "threshold <= n and n + 1 <= N = ceil(threshold))",
    "inversion_coupling": "ROADMAP item 3: its worst-case K form holds at 1000x "
                          "understated eps_inv",
    "inversion_mixed": "ROADMAP item 3: as loose as inversion_coupling",
}


def report_names(source: str, functions) -> dict:
    """function -> the names of the BoundReports it builds, from `source`; a name that
    is not a string literal is a ValueError."""
    defs = {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}
    out = {}
    for func in functions:
        names = set()
        for node in ast.walk(defs[func]):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "BoundReport"):
                arg = node.args[0]
                if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                    raise ValueError(f"{func}: a report name that is not a literal")
                names.add(arg.value)
        out[func] = names
    return out


def cli_check_functions() -> list:
    """The certify functions that cli.CHECKS calls (each entry names its `ct.check_*`)."""
    return sorted({name for entry in cli.CHECKS.values() for name in entry.__code__.co_names
                   if name.startswith("check_")})


def test_every_check_calls_a_certify_function():
    calls = [[n for n in entry.__code__.co_names if n.startswith("check_")]
             for entry in cli.CHECKS.values()]
    assert all(len(c) == 1 for c in calls)


def test_every_emitted_name_has_a_control_or_a_backlog_entry():
    with open(CERTIFY) as f:
        per_check = report_names(f.read(), cli_check_functions())
    assert all(per_check.values())  # every check emits a name
    emitted = set().union(*per_check.values())
    assert not set(MUST_FAIL) & set(BACKLOG)
    # a name that gains a control leaves the backlog; a new name needs an entry
    assert emitted == set(MUST_FAIL) | set(BACKLOG)


def test_every_mapped_test_exists():
    for node_id in set(MUST_FAIL.values()):
        path, cls, func = node_id.split("::")
        with open(os.path.join(ROOT, path)) as f:
            tree = ast.parse(f.read())
        classes = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
        assert len(classes) == 1, node_id
        assert any(isinstance(n, ast.FunctionDef) and n.name == func
                   for n in classes[0].body), node_id


def test_the_reader_sees_every_report():
    source = ("def check_a(t):\n"
              "    r = [BoundReport('a1', 0, 1)]\n"
              "    if t:\n        r.append(BoundReport('a2', 0, 1, 0.0, {}))\n"
              "    return r\n\n"
              "def check_b(t):\n    return [BoundReport(name_of(t), 0, 1)]\n")
    assert report_names(source, ["check_a"]) == {"check_a": {"a1", "a2"}}
    with pytest.raises(ValueError, match="not a literal"):
        report_names(source, ["check_b"])
