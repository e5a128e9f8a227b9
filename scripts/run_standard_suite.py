"""Run the standard experiment suite through the CLI.

A small cross-product sweep over step size and per-step error for both
measure families, followed by the aggregated report.  Artifacts land under
runs/ (or $JKOLAB_OUTPUT_ROOT).  Exit status is the worst CLI status seen,
so a failed bound fails the suite.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from jkolab import cli  # noqa: E402

GAUSSIAN_TEMPLATE = """\
objective.variant = kl
objective.lambda_mat = 1
objective.center = 0
family = gaussian
p0.mean = 2
p0.cov = 4
gamma = 1.0
eps = 0.1
eps_inv = 0.001
n = auto
seed = 0
mode = mean_shift
"""

GRID_TEMPLATE = """\
family = grid
family.m = 2048
objective.center = 0
p0.mean = 1.5
p0.cov = 2.25
gamma = 1.0
eps = 0.1
eps_inv = 0.001
n = auto
seed = 0
mode = grid_bump
"""


def main() -> int:
    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, template in [("gaussian", GAUSSIAN_TEMPLATE),
                               ("grid", GRID_TEMPLATE)]:
            path = os.path.join(tmp, f"{name}.txt")
            with open(path, "w") as f:
                f.write(template)
            print(f"== sweep: {name} family ==")
            status = cli.main([
                "sweep", "--config", path,
                "--axis", "gamma=0.5,1.0,1.5",
                "--axis", "eps=0.05,0.1",
            ])
            worst = max(worst, status)
    worst = max(worst, cli.main(["report"]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
