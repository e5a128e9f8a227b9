"""scripts/trace_traffic.py lists the src/jkolab functions that no run enters."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT = os.path.join(ROOT, "scripts", "trace_traffic.py")

GAUSS = """
family = gaussian
p0.mean = 2
p0.cov = 4
gamma = 1.0
eps = 0.1
eps_inv = 0.001
n = 2
"""

GRID = """
family = grid
family.m = 16
p0.mean = 1.5
p0.cov = 2.25
gamma = 1.0
eps = 0.1
n = 2
mode = grid_bump
"""


def test_two_tiny_configs(tmp_path):
    paths = []
    for name, text in (("gauss.txt", GAUSS), ("grid.txt", GRID)):
        (tmp_path / name).write_text(text)
        paths += ["--config", str(tmp_path / name)]
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, SCRIPT, *paths, "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    unentered = {line.rsplit(": ", 1)[1] for line in lines[:-1]}
    # no atomic p0 and no failure: the OU helpers and the failure report are not entered
    assert {"process.ou_smooth", "process.w2_grid_to_atoms", "cli._failure"} <= unentered
    # both families' steps, the perturbed reverse run and every check run
    for name in ("process.run_forward", "jko.jko_step_gaussian", "jko.jko_step_grid",
                 "jko.perturb_step", "process.run_reverse_perturbed",
                 "certify.check_forward_rate", "cli.cmd_certify"):
        assert name not in unentered
    assert lines[-1].endswith("functions in src/jkolab entered by no run")
    assert lines[-1].startswith(f"{len(unentered)} of ")
    # --out keeps each config's run files, and the sweep's, in DIR
    for config, eps_inv in (("config0", True), ("config1", False)):
        suffixes = {f.name.split("_", 1)[1] for f in (out / config).iterdir()}
        assert suffixes == {"config.txt", "forward.csv", "trajectory.npz", "report.csv",
                            *(["reverse_perturbed.npz", "reverse_perturbed.csv"] * eps_inv)}
    assert (out / "sweep" / "report_summary.csv").is_file()
