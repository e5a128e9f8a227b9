"""List the functions of src/jkolab that no CLI run enters.

Runs configs through `jkolab.cli.main` under `sys.settrace` and prints every
function and method defined in src/jkolab whose code no run called:

- the standard suite (scripts/run_standard_suite.py: its two templates swept
  over gamma and eps, then `report`);
- the perfbench workload configs for each seed (`perfbench/workloads.py`'s
  `make_specs`), each through forward, reverse and certify;
- `certify` of the negative control (fixtures/negative_control).

With --config, only the given config files run (forward, reverse, certify),
then one `sweep` of the first config, `report` of the sweep's runs and one
usage error, so that every subcommand and argparse's error exit are entered.
A function that none of them enters is code the CLI does not reach there:
reached only by tests, by inputs outside these sets, or by nothing.
tests/test_traffic_gate.py runs --config on tiny configs and holds the list
to its allowlist.

With --out DIR, the run files are kept in DIR (it must be new or empty): two
checkouts' trees can then be compared with `diff -r`.

  python3 scripts/trace_traffic.py [--seeds 1 7] [--config FILE ...] [--out DIR]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src", "jkolab")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"),
                os.path.join(ROOT, "scripts")]

from jkolab import cli  # noqa: E402


def defined_functions() -> dict:
    """(path, first line of its code object) -> qualified name, for every def in src/jkolab.

    A decorated function's code starts at its first decorator."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as f:
            tree = ast.parse(f.read())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, line)] = f"{name[:-3]}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(tree, "")
    return out


def _run_config(path: str, out: str) -> None:
    for sub in ("forward", "reverse", "certify"):
        cli.main([sub, "--config", path, "--out", out])


def run_configs(paths: list, tmp: str) -> None:
    for i, path in enumerate(paths):
        _run_config(path, os.path.join(tmp, f"config{i}"))
    sweep = os.path.join(tmp, "sweep")
    cli.main(["sweep", "--config", paths[0], "--out", sweep])
    cli.main(["report", "--out", sweep])
    with contextlib.suppress(SystemExit):
        cli.main([])  # no subcommand: a usage error, exit 64


def run_default_sets(seeds: list, tmp: str) -> None:
    import run_standard_suite
    import workloads

    os.environ[cli.OUTPUT_ROOT_ENV] = os.path.join(tmp, "suite")
    run_standard_suite.main()
    del os.environ[cli.OUTPUT_ROOT_ENV]
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for spec in workloads.make_specs(workload, seed):
                out = os.path.join(tmp, f"{workload}_{seed}_{spec.name}")
                os.makedirs(out)
                path = os.path.join(out, "config_in.txt")
                with open(path, "w") as f:
                    f.write(spec.text)
                _run_config(path, out)
    negative = os.path.join(tmp, "negative_control")
    shutil.copytree(os.path.join(ROOT, "fixtures", "negative_control"), negative)
    cli.main(["certify", "--config", os.path.join(negative, "config.txt"), "--out", negative])


def entered_during(run) -> set:
    """(path, first line) of every code object called while run() runs."""
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return {(os.path.realpath(path), line) for path, line in entered}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7],
                        help="perfbench workload seeds (default: 1 7)")
    parser.add_argument("--config", action="append",
                        help="run only this config file (repeatable)")
    parser.add_argument("--out", help="keep the run files in this new or empty directory "
                                      "(default: a temporary one, removed)")
    args = parser.parse_args(argv)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        if os.listdir(args.out):
            parser.error(f"--out {args.out} is not empty")
    functions = defined_functions()
    with contextlib.ExitStack() as stack:
        tmp = args.out or stack.enter_context(tempfile.TemporaryDirectory())
        if args.config:
            run = lambda: run_configs(args.config, tmp)
        else:
            run = lambda: run_default_sets(args.seeds, tmp)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            entered = entered_during(run)
    unentered = sorted((os.path.relpath(path, ROOT), line, name)
                       for (path, line), name in functions.items()
                       if (path, line) not in entered)
    for path, line, name in unentered:
        print(f"{path}:{line}: {name}")
    print(f"{len(unentered)} of {len(functions)} functions in src/jkolab entered by no run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
