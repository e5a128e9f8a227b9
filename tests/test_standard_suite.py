"""The standard suite runs clean: no RuntimeWarning, every bound holds."""

import csv
import os
import subprocess
import sys

SUITE = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_standard_suite.py")


def test_standard_suite_runs_without_runtime_warnings(tmp_path):
    env = {**os.environ, "JKOLAB_OUTPUT_ROOT": str(tmp_path)}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", SUITE],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "Warning" not in proc.stderr
    with open(tmp_path / "report_summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len({row["run_id"] for row in rows}) == 12  # two families x 3 gammas x 2 eps
    assert rows and [row for row in rows if row["holds"] != "1"] == []
