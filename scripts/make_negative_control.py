"""Regenerate the negative-control fixture.

Runs a real forward/reverse pipeline with calibrated per-step error 0.5,
then rewrites the stored trajectory to claim ten-fold smaller xi norms than
the run actually had.  Certifying that doctored record must fail: the EVI
right sides shrink with the claimed eps while the measured iterates keep
their true drift.

  python3 scripts/make_negative_control.py [OUT_DIR]

OUT_DIR defaults to fixtures/negative_control.
"""

import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from jkolab import cli  # noqa: E402
from jkolab import serialize as sz  # noqa: E402

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                           "negative_control")

CONFIG = """\
objective.variant = kl
objective.lambda_mat = 1
objective.center = 0
family = gaussian
p0.mean = 2
p0.cov = 4
gamma = 1.0
eps = 0.5
eps_inv = 0
n = 5
seed = 0
mode = mean_shift
"""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = argv[0] if argv else FIXTURE_DIR
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.txt"), "w") as f:
        f.write(CONFIG)
    cfg = cli.parse_config(CONFIG)
    cli.do_forward(cfg, out)
    cli.do_reverse(cfg, out)
    traj_path = os.path.join(out, f"{cfg.run_id()}_trajectory.npz")
    with open(traj_path, "rb") as f:
        traj = sz.trajectory_from_json(f.read())
    traj = dataclasses.replace(traj, xi_norms=[x / 10 for x in traj.xi_norms])
    with open(traj_path, "wb") as f:
        f.write(sz.trajectory_to_json(traj))
    # drop artifacts the fixture does not need
    for suffix in ("forward.csv", "reverse.csv", "report.csv"):
        p = os.path.join(out, f"{cfg.run_id()}_{suffix}")
        if os.path.exists(p):
            os.remove(p)
    print(f"negative-control fixture written to {out} (run id {cfg.run_id()})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
