import dataclasses
import importlib.util
import json
import os
import re
import shutil

import numpy as np
import pytest

from jkolab import cli
from jkolab import gaussian as ga
from jkolab import jko
from jkolab import process as pr
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

# the standard suite's grid config (scripts/run_standard_suite.py) with n = 3
STANDARD_GRID = """
family = grid
family.m = 2048
objective.center = 0
p0.mean = 1.5
p0.cov = 2.25
gamma = 1.0
eps = 0.1
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


def from_minimizer(text, n):
    """`text` with p0 = N(0, 1), the minimizer of its objective, and n steps."""
    text = re.sub(r"(?m)^p0\.mean = .*$", "p0.mean = 0", text)
    text = re.sub(r"(?m)^p0\.cov = .*$", "p0.cov = 1", text)
    return re.sub(r"(?m)^n = .*$", f"n = {n}", text)


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

    def test_certify_computes_each_distance_to_the_minimizer_once(self, tmp_path, monkeypatch):
        text = BASE_GAUSS
        for old, new in (("lambda_mat = 1", "lambda_mat = 1 0.2; 0.2 2"),
                         ("center = 0", "center = 0 1"), ("p0.mean = 2", "p0.mean = 2 -1"),
                         ("p0.cov = 4", "p0.cov = 4 1; 1 3")):
            text = text.replace(old, new)
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        calls = []
        w2_bw = ga.w2_bw
        monkeypatch.setattr(ga, "w2_bw", lambda *a: calls.append(0) or w2_bw(*a))
        assert run(["certify", "--config", cfgp], tmp_path) == 0
        # W2(p_n, pi) for n = 0..N, and the inversion bound's W2(q~_0, q_0)
        assert len(calls) == 5 + 2

    def test_non_finite_archive_fails_at_load(self, tmp_path, capsys):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        path = tmp_path / "runs" / f"{cli.parse_config(BASE_GAUSS).run_id()}_trajectory.npz"
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["cov"][2, 0, 0] = np.nan
        with open(path, "wb") as f:
            np.savez(f, **arrays)
        assert run(["certify", "--config", cfgp], tmp_path) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "mean and covariance must be finite" in err and "non-finite lhs" not in err

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

    def test_reverse_stores_no_derivable_data(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GRID)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        rid = cli.parse_config(BASE_GRID).run_id()
        runs = tmp_path / "runs"
        assert sorted(os.listdir(runs)) == [
            f"{rid}_{s}" for s in ("config.txt", "forward.csv", "reverse.csv",
                                   "reverse_perturbed.csv", "reverse_perturbed.npz",
                                   "trajectory.npz")]
        blob = (runs / f"{rid}_reverse_perturbed.npz").read_bytes()
        with np.load(runs / f"{rid}_reverse_perturbed.npz") as z:
            assert z.files == ["manifest"]
        traj = sz.trajectory_from_json((runs / f"{rid}_trajectory.npz").read_bytes())
        pert = sz.reverse_from_json(blob, traj)
        assert len(pert.transports) == traj.n_steps == 3
        for k, s in enumerate(pert.transports, 1):
            assert np.array_equal(s.x, traj.measures[k].values)

    def test_stale_exact_archive_is_not_read(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GRID)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        status = run(["certify", "--config", cfgp], tmp_path)
        rid = cli.parse_config(BASE_GRID).run_id()
        runs = tmp_path / "runs"
        report = (runs / f"{rid}_report.csv").read_bytes()
        # an exact-reverse archive as earlier versions wrote it, with a doctored q_0
        traj = sz.trajectory_from_json((runs / f"{rid}_trajectory.npz").read_bytes())
        exact = pr.run_reverse_exact(traj)
        values = np.array([q.values for q in exact.measures])
        values[0] += 1.0
        with open(runs / f"{rid}_reverse_exact.npz", "wb") as f:
            np.savez(f, manifest=np.array(json.dumps({"residuals": exact.residuals,
                                                      "exact": True})), values=values)
        (runs / f"{rid}_report.csv").unlink()
        assert run(["certify", "--config", cfgp], tmp_path) == status
        assert (runs / f"{rid}_report.csv").read_bytes() == report

    def test_certify_derives_the_exact_chain_from_the_trajectory(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        rid = cli.parse_config(BASE_GAUSS).run_id()
        report = tmp_path / "runs" / f"{rid}_report.csv"
        checks = ["certify", "--config", cfgp, "--checks", "kl_tv,dpi_chain"]
        assert run(["forward", "--config", cfgp], tmp_path) == 0
        assert run(checks, tmp_path) == 0
        names = [row.split(",")[0] for row in report.read_text().splitlines()[1:]]
        assert names == ["reverse_kl", "reverse_tv", "dpi_chain"]
        alone = report.read_bytes()
        # the inversion check (eps_inv > 0) still needs the perturbed reverse run
        assert run(["certify", "--config", cfgp], tmp_path) == cli.EXIT_MISSING_DATA
        assert run(["reverse", "--config", cfgp], tmp_path) == 0
        assert run(checks, tmp_path) == 0
        assert report.read_bytes() == alone

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
        assert run(["sweep", "--config", cfgp, "--axis", "seed=0,1,2"], tmp_path) == 0
        reports = [f for f in os.listdir(tmp_path / "runs")
                   if f.endswith("_report.csv")]
        assert len(reports) == 3

    def test_sweep_rejects_unknown_axis(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["sweep", "--config", cfgp, "--axis", "p0.mean=1,2"],
                   tmp_path) == cli.EXIT_CONFIG

    def test_every_sweep_key_is_a_config_key(self):
        samples = {"gamma": "0.5", "eps": "0.2", "eps_inv": "0.01", "seed": "4",
                   "family.m": "64"}
        for key in cli.SWEEP_KEYS:
            cfg = cli._sweep_config(BASE_GRID, {key: samples[key]}, None)
            assert f"{key} = {samples[key]}\n" in cfg.canonical()

    def test_objective_dim_is_not_sweepable(self, tmp_path, capsys):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["sweep", "--config", cfgp, "--axis", "objective.dim=1,2"],
                   tmp_path) == cli.EXIT_CONFIG
        assert "not sweepable" in capsys.readouterr().err
        assert os.listdir(tmp_path / "runs") == []

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

    def test_checks_override_is_validated_before_loading(self, tmp_path):
        text = BASE_GAUSS.replace("n = 5", "n = 0") + "checks = evi\n"
        cfgp = write(tmp_path, "c.txt", text)
        assert run(["certify", "--config", cfgp, "--checks", "bogus"],
                   tmp_path) == cli.EXIT_CONFIG
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        assert run(["certify", "--config", cfgp, "--checks", "inversion"],
                   tmp_path) == cli.EXIT_CONFIG

    def test_forward_target_below_unperturbed_norm_is_solver_failure(self, tmp_path, capsys):
        # the exact third step has ||xi|| ~ 2e-7 on the standard-suite grid
        text = STANDARD_GRID.replace("eps = 0.1", "eps = 1e-9")
        cfgp = write(tmp_path, "c.txt", text)
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_SOLVER
        assert "forward step 3: cannot reach 1e-09: the unperturbed norm" in capsys.readouterr().err

    def test_reverse_target_below_roundoff_is_solver_failure(self, tmp_path, capsys,
                                                              monkeypatch):
        # the inversion residual of reverse step 3 stops falling at ~3e-17
        text = STANDARD_GRID.replace("eps_inv = 0.001", "eps_inv = 1e-17")
        cfgp = write(tmp_path, "c.txt", text)
        assert run(["forward", "--config", cfgp], tmp_path) == 0
        evals = []
        calibrate = jko.calibrate_amplitude

        def counting(norm_at, *args, **kwargs):
            evals.append(0)

            def counted(a):
                evals[-1] += 1
                return norm_at(a)

            return calibrate(counted, *args, **kwargs)

        monkeypatch.setattr(jko, "calibrate_amplitude", counting)
        assert run(["reverse", "--config", cfgp], tmp_path) == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert "reverse step 3: cannot reach 1e-17: the norm stays at" in err
        assert "roundoff floor" in err
        assert len(evals) == 1 and evals[0] <= 6

    @pytest.mark.parametrize("base", [BASE_GAUSS, BASE_GRID], ids=["gaussian", "grid"])
    def test_auto_n_from_the_minimizer_is_config_error(self, tmp_path, capsys, base):
        cfgp = write(tmp_path, "c.txt", from_minimizer(base, "auto"))
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: n = auto needs W2(p0, pi) > 0" in err
        assert "Traceback" not in err

    def test_gaussian_run_from_the_minimizer_certifies(self, tmp_path, capsys):
        cfgp = write(tmp_path, "c.txt", from_minimizer(BASE_GAUSS, 1))
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        assert "8/8 bounds hold" in capsys.readouterr().out

    def test_grid_run_from_the_minimizer_certifies(self, tmp_path, capsys):
        # W2(p0, pi) = 0, so the mixed inversion bound does not apply; its rhs is inf
        cfgp = write(tmp_path, "c.txt", from_minimizer(BASE_GRID, 3))
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        assert "16/16 bounds hold" in capsys.readouterr().out
        rid = cli.parse_config(from_minimizer(BASE_GRID, 3)).run_id()
        report = (tmp_path / "runs" / f"{rid}_report.csv").read_text()
        mixed = [row for row in report.splitlines() if row.startswith("inversion_mixed,")]
        assert len(mixed) == 1 and "mixed_form=not_applicable" in mixed[0]

    def test_unexpected_exception_is_internal_error(self, tmp_path, monkeypatch):
        def boom(cfg, rid, out):
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


    @pytest.mark.parametrize("base", [BASE_GAUSS, STANDARD_GRID], ids=["gaussian", "grid"])
    def test_reverse_archive_of_another_layout_is_missing_data(self, tmp_path, capsys, base):
        cfgp = write(tmp_path, "c.txt", base)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        runs = tmp_path / "runs"
        rid = cli.parse_config(base).run_id()
        path = runs / f"{rid}_reverse_perturbed.npz"
        traj = sz.trajectory_from_json((runs / f"{rid}_trajectory.npz").read_bytes())
        pert = sz.reverse_from_json(path.read_bytes(), traj)
        # earlier versions stored every q~_n and every map S_n (on grids its y knots only)
        # and no amplitudes
        old = {f.name: np.array([getattr(q, f.name) for q in pert.measures])
               for f in dataclasses.fields(pert.measures[0])}
        old.update({f.name: np.array([getattr(s, f.name) for s in pert.transports])
                    for f in dataclasses.fields(pert.transports[0]) if f.name != "x"})
        manifest = {"residuals": pert.residuals, "exact": False}
        short = {"residuals": pert.residuals[:-1], "amplitudes": pert.amplitudes[:-1],
                 "mode": pert.mode.value, "seed": pert.seed, "exact": False}
        for doctored in ({"manifest": np.array(json.dumps(manifest)), **old},
                         {"manifest": np.array(json.dumps(short))}):
            with open(path, "wb") as f:
                np.savez(f, **doctored)
            assert run(["certify", "--config", cfgp], tmp_path) == cli.EXIT_MISSING_DATA
            err = capsys.readouterr().err
            assert f"missing run data: {path}: " in err and "re-run `jkolab reverse`" in err
            assert "Traceback" not in err and "KeyError" not in err
        assert run(["reverse", "--config", cfgp], tmp_path) == 0
        assert run(["certify", "--config", cfgp], tmp_path) == 0

    def test_reverse_archive_is_read_only_by_the_inversion_check(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", STANDARD_GRID)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        runs = tmp_path / "runs"
        rid = cli.parse_config(STANDARD_GRID).run_id()
        report = runs / f"{rid}_report.csv"
        checks = ["certify", "--config", cfgp, "--checks", "evi,forward_rate,kl_tv,dpi_chain"]
        assert run(checks, tmp_path) == 0
        good = report.read_bytes()
        (runs / f"{rid}_reverse_perturbed.npz").write_bytes(b"not an archive")
        report.unlink()
        assert run(checks, tmp_path) == 0
        assert report.read_bytes() == good
        assert run(["certify", "--config", cfgp], tmp_path) == cli.EXIT_INTERNAL


# each edit of this config used to fail inside a run as an internal error (exit 70)
CHECKED_AT_PARSE = """
family = grid
objective.center = 0
gamma = 1.0
eps = 0.1
n = 3
"""
P0_GAUSS = "p0.mean = 1.5\np0.cov = 2.25\n"
NO_ENTROPY = ("objective.variant = potential_only\n",
              "objective.variant = weighted\nobjective.alpha = 0\n")


class TestConfigErrorsAtParse:
    @pytest.mark.parametrize("family, extra", [
        ("grid", P0_GAUSS + "family.m = 4\n"),
        ("grid", "p0.atoms = 1 2 0.5; 3 4 0.5\np0.delta = 0.1\n"),
        ("grid", "p0.atoms = 0.5; 0.5\np0.delta = 0.1\n"),
        ("grid", "p0.atoms = 1 2 1\np0.delta = 0.1\n"),
        ("grid", P0_GAUSS + "seed = -1\n"),
        *[(family, P0_GAUSS + obj) for family in ("grid", "gaussian") for obj in NO_ENTROPY],
    ], ids=["grid_size_4", "atoms_2d", "atoms_0d", "single_atom_2d", "negative_seed",
            "grid_potential_only", "grid_weighted_alpha_0",
            "gaussian_potential_only", "gaussian_weighted_alpha_0"])
    def test_rejected_by_parse_config(self, tmp_path, capsys, family, extra):
        text = CHECKED_AT_PARSE.replace("grid", family) + extra
        with pytest.raises(cli.ConfigError):
            cli.parse_config(text)
        cfgp = write(tmp_path, "c.txt", text)
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["forward", "--seed-override", "-1"],
        ["sweep", "--seed-override", "-1"],
        ["sweep", "--axis", "seed=-1,2"],
    ], ids=["forward_override", "sweep_override", "sweep_axis"])
    def test_negative_seed_is_rejected(self, tmp_path, capsys, argv):
        cfgp = write(tmp_path, "c.txt", CHECKED_AT_PARSE + P0_GAUSS)
        assert run(argv + ["--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err


class TestSweepRobustness:
    def test_duplicate_combos_run_once(self, tmp_path, monkeypatch):
        calls = []
        forward = cli.do_forward

        def counting(cfg, rid, out):
            calls.append(rid)
            return forward(cfg, rid, out)

        monkeypatch.setattr(cli, "do_forward", counting)
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["sweep", "--config", cfgp, "--axis", "gamma=0.5,0.5"], tmp_path) == 0
        assert len(calls) == 1

    def test_bad_combo_does_not_stop_the_sweep(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["sweep", "--config", cfgp, "--axis", "eps=0.1,nan"],
                   tmp_path) == cli.EXIT_CONFIG
        rid = cli.parse_config(BASE_GAUSS).run_id()
        assert (tmp_path / "runs" / f"{rid}_report.csv").exists()


def _failing_checks(run_dir: str) -> tuple[str, set]:
    """Certify a copy of a negative-control directory: its run id and failing checks.

    A failing check is its name, with `n=<step>` for the per-step ones.
    """
    cfgp = os.path.join(run_dir, "config.txt")
    with open(cfgp) as f:
        rid = cli.parse_config(f.read()).run_id()
    assert cli.main(["certify", "--config", cfgp, "--out", run_dir]) == cli.EXIT_BOUND_FAILED
    with open(os.path.join(run_dir, f"{rid}_report.csv")) as f:
        rows = [r.split(",") for r in f.read().strip().split("\n")[1:]]
    return rid, {" ".join([r[0]] + re.findall(r"\bn=\d+", r[6])) for r in rows if r[1] == "0"}


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
        assert _failing_checks(fresh) == _failing_checks(checked_in) == (
            "f386adaefbcf", {"evi n=1", "evi n=2", "evi n=3", "evi n=4", "reverse_kl",
                             "reverse_tv"})
        assert sorted(os.listdir(fresh)) == sorted(os.listdir(checked_in))
