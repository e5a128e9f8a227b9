"""Import boundary: the package loads numpy only; scipy waits for the grid family.

Each command of the CLI starts a fresh interpreter, so what `import jkolab`
pulls in is paid on every run.  One child interpreter imports the CLI, runs
a 1-D Gaussian forward/reverse/certify through `cli.main`, then parses a
grid config and runs a grid forward, and reports the scipy modules loaded
after each stage.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

GAUSS = """
objective.variant = kl
objective.lambda_mat = 1
objective.center = 0
family = gaussian
p0.mean = 2
p0.cov = 4
gamma = 1.0
eps = 0.1
eps_inv = 0.001
n = 5
seed = 0
mode = mean_shift
"""

GRID = """
family = grid
family.m = 64
objective.center = 0
p0.mean = 1.5
p0.cov = 2.25
gamma = 1.0
eps = 0.05
n = 2
seed = 0
mode = grid_bump
"""

CHILD = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from jkolab import cli

stages = {"import jkolab.cli": [0, scipy_modules()]}
gauss, grid, runs = sys.argv[1:]
for sub in ("forward", "reverse", "certify"):
    stages[f"gaussian {sub}"] = [cli.main([sub, "--config", gauss, "--out", runs]),
                                 scipy_modules()]
with open(grid) as f:
    cli.parse_config(f.read())
stages["grid parse"] = [0, scipy_modules()]
stages["grid forward"] = [cli.main(["forward", "--config", grid, "--out", runs]),
                          scipy_modules()]
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    configs = []
    for name, text in (("gauss.cfg", GAUSS), ("grid.cfg", GRID)):
        (tmp / name).write_text(text)
        configs.append(str(tmp / name))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHILD, *configs, str(tmp / "runs")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(code == 0 for code, _ in out.values()), out
    return {stage: set(modules) for stage, (_, modules) in out.items()}


def test_cli_import_loads_no_scipy(stages):
    assert stages["import jkolab.cli"] == set()


@pytest.mark.parametrize("sub", ["forward", "reverse", "certify"])
def test_gaussian_command_loads_no_scipy(stages, sub):
    assert stages[f"gaussian {sub}"] == set()


def test_grid_config_parse_loads_no_scipy(stages):
    # a run id (a sweep's, a benchmark set-up's) costs no scipy import: parse_config
    # builds no grid measure, the CLI's config loaders do
    assert stages["grid parse"] == set()


def test_grid_step_loads_scipy_linalg_and_special(stages):
    assert {"scipy.linalg", "scipy.special"} <= stages["grid forward"]


def test_scipy_optimize_never_loads(stages):
    assert not any(m == "scipy.optimize" or m.startswith("scipy.optimize.")
                   for modules in stages.values() for m in modules)
