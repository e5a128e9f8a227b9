import dataclasses
import importlib.util
import os
import shutil

import numpy as np
import pytest

from jkolab import cli
from jkolab import serialize as sz

ROOT = os.path.join(os.path.dirname(__file__), "..")


BASE_GAUSS = """
# 1-D Gaussian fixture
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

BASE_GRID = """
family = grid
family.m = 128
objective.center = 0
p0.mean = 1.5
p0.cov = 2.25
gamma = 1.0
eps = 0.05
eps_inv = 0.001
n = 3
seed = 0
mode = grid_bump
"""

BASE_ATOMS = """
family = grid
family.m = 128
p0.atoms = -1 0.5; 1 0.5
p0.delta = 0.2
gamma = 1.0
eps = 0.05
n = 2
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(args, tmp_path):
    return cli.main(args + ["--out", str(tmp_path / "runs")])


class TestParseConfig:
    def test_round_trip_is_identity(self):
        cfg = cli.parse_config(BASE_GAUSS)
        canon = cfg.canonical()
        cfg2 = cli.parse_config(canon)
        assert cfg2.canonical() == canon
        assert cfg2.run_id() == cfg.run_id()

    def test_run_id_stable_and_sensitive(self):
        a = cli.parse_config(BASE_GAUSS)
        b = cli.parse_config(BASE_GAUSS.replace("eps = 0.1", "eps = 0.2"))
        assert len(a.run_id()) == 12
        assert a.run_id() != b.run_id()
        assert a.run_id() == cli.parse_config(BASE_GAUSS).run_id()

    def test_comments_and_blank_lines_ignored(self):
        cfg = cli.parse_config(BASE_GAUSS + "\n# trailing comment\n\n")
        assert cfg.gamma == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(BASE_GAUSS + "bogus = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("family = gaussian\n")

    def test_bad_gamma(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(BASE_GAUSS.replace("gamma = 1.0", "gamma = 2.5"))

    def test_grid_needs_1d(self):
        text = BASE_GRID.replace("objective.center = 0", "objective.center = 0 0")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(text)

    def test_grid_bump_needs_grid_family(self, tmp_path):
        text = BASE_GAUSS.replace("mode = mean_shift", "mode = grid_bump")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(text)
        cfgp = write(tmp_path, "c.txt", text)
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_CONFIG

    def test_eps_schedule(self):
        cfg = cli.parse_config(BASE_GAUSS.replace("eps = 0.1",
                                                  "eps = 0.1 0.2 0 0 0.05"))
        assert cfg.eps == [0.1, 0.2, 0.0, 0.0, 0.05]

    def test_atoms_parse(self):
        cfg = cli.parse_config(BASE_ATOMS)
        assert cfg.p0_kind == "atoms"
        assert cfg.p0_atoms.n_atoms == 2
        assert cfg.p0_delta == 0.2

    def test_auto_n_requires_positive_eps(self):
        cfg = cli.parse_config(BASE_GAUSS.replace("n = 5", "n = auto")
                               .replace("eps = 0.1", "eps = 0"))
        p0 = cli.build_p0(cfg)
        with pytest.raises(cli.ConfigError):
            cfg.resolve_n(p0, None)

    def test_auto_n_value(self):
        from jkolab import functionals as fn
        from jkolab import process as pr
        cfg = cli.parse_config(BASE_GAUSS.replace("n = 5", "n = auto"))
        p0 = cli.build_p0(cfg)
        q = fn.global_minimizer(cfg.spec)
        # w2(p0, q) = sqrt(5), lam = 1, gamma = 1, eps = 0.1
        assert cfg.resolve_n(p0, q) == pr.steps_needed(np.sqrt(5), 1.0, 1.0, 0.1)


class TestPipeline:
    def test_forward_reverse_certify_exit_codes(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["forward", "--config", cfgp], tmp_path) == 0
        assert run(["reverse", "--config", cfgp], tmp_path) == 0
        assert run(["certify", "--config", cfgp], tmp_path) == 0

    def test_forward_csv_row_count(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        run(["forward", "--config", cfgp], tmp_path)
        rid = cli.parse_config(BASE_GAUSS).run_id()
        csv = (tmp_path / "runs" / f"{rid}_forward.csv").read_text()
        assert len(csv.strip().split("\n")) == 7  # header + n = 0..5

    def test_forward_deterministic_bytes(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GRID)
        rid = cli.parse_config(BASE_GRID).run_id()
        run(["forward", "--config", cfgp], tmp_path)
        first = (tmp_path / "runs" / f"{rid}_forward.csv").read_bytes()
        run(["forward", "--config", cfgp], tmp_path)
        second = (tmp_path / "runs" / f"{rid}_forward.csv").read_bytes()
        assert first == second

    def test_certify_before_forward_is_missing_data(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["certify", "--config", cfgp], tmp_path) == cli.EXIT_MISSING_DATA

    def test_config_error_exit_code(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS + "bogus = 1\n")
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_CONFIG

    def test_atoms_pipeline(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_ATOMS)
        assert run(["forward", "--config", cfgp], tmp_path) == 0
        assert run(["reverse", "--config", cfgp], tmp_path) == 0
        assert run(["certify", "--config", cfgp], tmp_path) == 0

    def test_seed_override_changes_run(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GRID)
        assert run(["forward", "--config", cfgp, "--seed-override", "3"],
                   tmp_path) == 0
        cfg = cli.parse_config(BASE_GRID)
        cfg.seed = 3
        assert (tmp_path / "runs" / f"{cfg.run_id()}_forward.csv").exists()

    def test_checks_subset(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        run(["forward", "--config", cfgp], tmp_path)
        assert run(["certify", "--config", cfgp, "--checks", "evi"], tmp_path) == 0
        rid = cli.parse_config(BASE_GAUSS).run_id()
        report = (tmp_path / "runs" / f"{rid}_report.csv").read_text()
        names = {row.split(",")[0] for row in report.strip().split("\n")[1:]}
        assert names == {"evi"}


class TestSweepAndReport:
    def test_sweep_seeds(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["sweep", "--config", cfgp, "--axis", "seed=0,1,2",
                    "--workers", "2"], tmp_path) == 0
        reports = [f for f in os.listdir(tmp_path / "runs")
                   if f.endswith("_report.csv")]
        assert len(reports) == 3

    def test_sweep_rejects_unknown_axis(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["sweep", "--config", cfgp, "--axis", "p0.mean=1,2"],
                   tmp_path) == cli.EXIT_CONFIG

    def test_report_aggregates(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        run(["sweep", "--config", cfgp, "--axis", "gamma=0.5,1.0"], tmp_path)
        assert run(["report"], tmp_path) == 0
        summary = (tmp_path / "runs" / "report_summary.csv").read_text()
        lines = summary.strip().split("\n")
        assert lines[0] == "run_id,name,holds,lhs,rhs,slack,tol,context"
        assert len(lines) > 2
        assert all(row.split(",")[2] == "1" for row in lines[1:])

    def test_report_empty_dir(self, tmp_path):
        assert run(["report"], tmp_path) == cli.EXIT_MISSING_DATA


class TestExitCodes:
    @pytest.mark.parametrize("edit", [("eps = 0.1", "eps = nan"), ("eps = 0.1", "eps = inf"),
                                      ("p0.cov = 4", "p0.cov = 0")],
                             ids=["eps_nan", "eps_inf", "cov_zero"])
    def test_bad_numbers_are_config_errors(self, tmp_path, edit):
        text = BASE_GAUSS.replace("n = 5", "n = auto").replace(*edit)
        with pytest.raises(cli.ConfigError):
            cli.parse_config(text)
        cfgp = write(tmp_path, "c.txt", text)
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_CONFIG

    def test_zero_steps_with_inversion_check_is_config_error(self, tmp_path):
        text = BASE_GAUSS.replace("n = 5", "n = 0")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(text)
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == cli.EXIT_CONFIG

    def test_unexpected_exception_is_internal_error(self, tmp_path, monkeypatch):
        def boom(cfg, out):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli, "do_forward", boom)
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_INTERNAL == 70

    def test_old_json_run_directory_is_missing_data(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        rid = cli.parse_config(BASE_GAUSS).run_id()
        (tmp_path / "runs").mkdir()
        (tmp_path / "runs" / f"{rid}_trajectory.json").write_text("{}")
        assert run(["certify", "--config", cfgp], tmp_path) == cli.EXIT_MISSING_DATA


class TestSweepRobustness:
    def test_duplicate_combos_run_once(self, tmp_path, monkeypatch):
        calls = []
        forward = cli.do_forward

        def counting(cfg, out):
            calls.append(cfg.run_id())
            return forward(cfg, out)

        monkeypatch.setattr(cli, "do_forward", counting)
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["sweep", "--config", cfgp, "--axis", "gamma=0.5,0.5",
                    "--workers", "2"], tmp_path) == 0
        assert len(calls) == 1

    def test_bad_combo_does_not_stop_the_sweep(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["sweep", "--config", cfgp, "--axis", "eps=0.1,nan"],
                   tmp_path) == cli.EXIT_CONFIG
        rid = cli.parse_config(BASE_GAUSS).run_id()
        assert (tmp_path / "runs" / f"{rid}_report.csv").exists()


def _failing_checks(run_dir: str) -> tuple[str, set]:
    """Certify a copy of a negative-control directory: its run id and failing check names."""
    cfgp = os.path.join(run_dir, "config.txt")
    with open(cfgp) as f:
        rid = cli.parse_config(f.read()).run_id()
    assert cli.main(["certify", "--config", cfgp, "--out", run_dir]) == cli.EXIT_BOUND_FAILED
    with open(os.path.join(run_dir, f"{rid}_report.csv")) as f:
        rows = [r.split(",") for r in f.read().strip().split("\n")[1:]]
    return rid, {r[0] for r in rows if r[1] == "0"}


class TestNegativeControl:
    def test_corrupted_xi_norms_fail_certification(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        run(["forward", "--config", cfgp], tmp_path)
        run(["reverse", "--config", cfgp], tmp_path)
        rid = cli.parse_config(BASE_GAUSS).run_id()
        traj_path = tmp_path / "runs" / f"{rid}_trajectory.npz"
        traj = sz.trajectory_from_json(traj_path.read_bytes())
        # claim ten-fold smaller first-order errors than the run really had
        traj = dataclasses.replace(traj, xi_norms=[x / 10 for x in traj.xi_norms])
        traj_path.write_bytes(sz.trajectory_to_json(traj))
        assert run(["certify", "--config", cfgp], tmp_path) == cli.EXIT_BOUND_FAILED

    def test_regenerated_fixture_matches_checked_in(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "make_negative_control", os.path.join(ROOT, "scripts", "make_negative_control.py"))
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        fresh = str(tmp_path / "fresh")
        assert script.main([fresh]) == 0
        checked_in = str(tmp_path / "checked_in")
        shutil.copytree(os.path.join(ROOT, "fixtures", "negative_control"), checked_in)
        assert _failing_checks(fresh) == _failing_checks(checked_in)
