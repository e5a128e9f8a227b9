import dataclasses
import importlib.util
import itertools
import json
import os
import re
import shutil

import numpy as np
import pytest
import reference as ref

from jkolab import cli
from jkolab import gaussian as ga
from jkolab import jko
from jkolab import process as pr
from jkolab import quantile as qt
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

# the standard suite's Gaussian template (scripts/run_standard_suite.py)
STANDARD_GAUSS = """
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

BASE_ATOMS = """
family = grid
family.m = 128
p0.atoms = -1 0.5; 1 0.5
p0.delta = 0.2
gamma = 1.0
eps = 0.05
n = 2
"""

# a weighted d = 2 Gaussian config with an eps schedule
WEIGHTED_D2 = """
family = gaussian
objective.variant = weighted
objective.alpha = 0.5
objective.center = 0 1
objective.lambda_mat = 1 0.2; 0.2 2
p0.mean = 1 -1
p0.cov = 2 0.3; 0.3 0.5
gamma = 1.0
eps = 0.1 0.05
eps_inv = 0.001
n = 2
mode = dilation
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
    @pytest.mark.parametrize("text", [BASE_GAUSS, BASE_GRID, BASE_ATOMS, WEIGHTED_D2],
                             ids=["gaussian", "grid", "atoms", "weighted_d2_schedule"])
    def test_round_trip_is_identity(self, text):
        cfg = cli.parse_config(text)
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
        assert not isinstance(cfg.p0_law, ga.GaussianMeasure)
        assert cfg.p0_law.n_atoms == 2
        assert cfg.p0_delta == 0.2

    def test_atom_weights_are_written_as_floats(self):
        # not numpy's scalar repr (np.float64(0.5)), which the parser cannot read back
        assert "p0.atoms = -1.0 0.5; 1.0 0.5\n" in cli.parse_config(BASE_ATOMS).canonical()

    def test_a_gaussian_configs_p0_is_its_law(self):
        cfg = cli.parse_config(BASE_GAUSS)
        assert cfg.p0 is cfg.p0_law
        assert cfg.p0_delta == 0.0
        assert np.array_equal(cfg.p0_law.mean, [2.0]) and np.array_equal(cfg.p0_law.cov, [[4.0]])

    def test_a_grid_configs_p0_is_its_law_at_the_quantile_points(self):
        cfg = cli.parse_config(BASE_GRID)
        law = cfg.p0_law
        assert isinstance(law, ga.GaussianMeasure)
        expected = qt.from_gaussian(float(law.mean[0]), float(np.sqrt(law.cov[0, 0])), cfg.m)
        assert np.array_equal(cfg.p0.values, expected.values)
        assert np.array_equal(cfg.p0.values, qt.from_gaussian(1.5, 1.5, 128).values)

    def test_parsing_a_grid_config_builds_only_the_gaussians_it_keeps(self, monkeypatch):
        built = []
        post_init = ga.GaussianMeasure.__post_init__
        monkeypatch.setattr(ga.GaussianMeasure, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        cfg = cli.parse_config(BASE_GRID)
        # pi, at the objective's keys, then p0's law: none is built and dropped
        assert len(built) == 2
        assert built[0] is cfg.spec.gaussian_minimizer and built[1] is cfg.p0_law

    def test_a_nearly_symmetric_p0_cov_is_canonical_as_its_symmetrization(self):
        rng = np.random.default_rng(35)
        cov = rotated(rng, [0.5, 1.0, 3.0])
        skewed = cov + np.triu(1e-14 * np.abs(cov).max() * rng.uniform(0.5, 1.0, (3, 3)), 1)
        assert not np.array_equal(skewed, skewed.T)
        sym = 0.5 * (skewed + skewed.T)
        a = cli.parse_config(gaussian_config("1", np.zeros(3), skewed))
        b = cli.parse_config(gaussian_config("1", np.zeros(3), sym))
        assert a.canonical() == b.canonical()
        assert a.run_id() == b.run_id()
        assert f"p0.cov = {cli._fmt_matrix(sym)}\n" in a.canonical()

    def test_auto_n_requires_positive_eps(self):
        with pytest.raises(cli.ConfigError, match="single eps > 0"):
            cli.parse_config(BASE_GAUSS.replace("n = 5", "n = auto").replace("eps = 0.1", "eps = 0"))

    def test_auto_n_value(self):
        from jkolab import process as pr
        cfg = cli.parse_config(BASE_GAUSS.replace("n = 5", "n = auto"))
        # w2(p0, pi) = sqrt(5), lam = 1, gamma = 1, eps = 0.1
        assert cfg.resolve_n() == pr.steps_needed(np.sqrt(5), 1.0, 1.0, 0.1)

    @pytest.mark.parametrize("family", ["gaussian", "grid"])
    def test_pi_is_built_once_per_command(self, tmp_path, monkeypatch, family):
        # the standard suite's template at n = auto, whose step count reads pi
        template = STANDARD_GAUSS if family == "gaussian" else STANDARD_GRID.replace(
            "n = 3", "n = auto")
        cfgp = write(tmp_path, "c.txt", template)
        calls = []
        on_grid, gaussian = qt.QuantileGrid.minimizer, ga.GaussianMeasure.minimizer
        monkeypatch.setattr(qt.QuantileGrid, "minimizer",
                            lambda self, spec: calls.append("grid") or on_grid(self, spec))
        monkeypatch.setattr(ga.GaussianMeasure, "minimizer",
                            staticmethod(lambda spec: calls.append("gaussian") or gaussian(spec)))
        for sub in ("forward", "reverse", "certify"):
            calls.clear()
            assert run([sub, "--config", cfgp], tmp_path) == 0
            # Gaussian: the pi that parsing builds is the run's.  Grid: parsing checks
            # that N(center, alpha / lambda) exists (scipy-free), the run builds it at
            # the grid's M quantile points, and no forward_terminal_gap row (none at
            # n = auto) evaluates the continuous pi
            assert calls == (["gaussian"] if family == "gaussian" else ["gaussian", "grid"]), sub

    @pytest.mark.parametrize("n", ["auto", "3"])
    def test_a_grid_command_builds_p0_and_pi_once_each(self, tmp_path, monkeypatch, n):
        text = STANDARD_GRID.replace("n = 3", f"n = {n}")
        cfgp = write(tmp_path, "c.txt", text)
        calls = []
        build = qt.from_gaussian
        monkeypatch.setattr(qt, "from_gaussian",
                            lambda *args: calls.append(args) or build(*args))
        for sub in ("forward", "reverse", "certify"):
            calls.clear()
            assert run([sub, "--config", cfgp], tmp_path) == 0
            # pi = N(0, 1) and p0 = N(1.5, 1.5^2) at the 2048 quantile points, once each
            assert sorted(calls) == [(0.0, 1.0, 2048), (1.5, 1.5, 2048)], sub


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
        chains, pairs, roots = [], [], []
        w2_from, w2_bw, spd_sqrt = ga.GaussianMeasure.w2_from, ga.w2_bw, ga.spd_sqrt
        monkeypatch.setattr(ga.GaussianMeasure, "w2_from",
                            lambda self, ms: chains.append(len(ms)) or w2_from(self, ms))
        monkeypatch.setattr(ga, "w2_bw", lambda *a: pairs.append(0) or w2_bw(*a))
        monkeypatch.setattr(ga, "spd_sqrt", lambda m: roots.append(m.shape) or spd_sqrt(m))
        assert run(["certify", "--config", cfgp], tmp_path) == 0
        # W2(p_n, pi) for n = 0..N in one chain-wide evaluation, and the inversion
        # bound's W2(q~_0, q_0) as one pair
        assert chains == [5 + 1]
        assert len(pairs) == 1
        # pi's square root once, one stacked root of the N + 1 cross terms, then the pair's two
        assert roots == [(2, 2), (5 + 1, 2, 2), (2, 2), (2, 2)]

    def test_certify_decomposes_lambda_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        text = gaussian_config(cli._fmt_matrix(rotated(rng, [0.5, 1.0, 2.0])),
                               rng.standard_normal(3), rotated(rng, [0.3, 1.0, 3.0]))
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        lam = cli.parse_config(text).spec.potential.lambda_mat
        args = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *r, **k: args.append(np.array(a)) or eigvalsh(a, *r, **k))
        assert run(["certify", "--config", cfgp], tmp_path) == 0
        # lambda_min(Lambda) when the config is parsed; the archive holds no objective.
        # The other call is the stacked linear parts of the transports (Lip(T^{-1})).
        assert sum(np.array_equal(a, lam) for a in args) == 1
        assert [a.shape for a in args if not np.array_equal(a, lam)] == [(5, 3, 3)]

    def test_linear_algebra_calls_per_command(self, tmp_path, monkeypatch):
        # d = 3, N = 5 steps: only the forward steps, their calibration and the
        # perturbed reverse pushes work per step; a chain's validation, its inverses
        # and its Lipschitz constants are one stacked call each
        rng = np.random.default_rng(5)
        text = gaussian_config(cli._fmt_matrix(rotated(rng, [0.5, 1.0, 2.0])),
                               rng.standard_normal(3), rotated(rng, [0.3, 1.0, 3.0]))
        cfgp = write(tmp_path, "c.txt", text)
        names = ("eigh", "eigvalsh", "cholesky", "solve", "inv", "svd", "norm")
        counts = dict.fromkeys(names, 0)

        def counting(name, func):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapped

        for name in names:
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        # pi (an inv and a Cholesky) and p0 are built once each, when the config is
        # parsed, and every stage reads them: one inv and one Cholesky fewer per command
        # than when parsing built pi only to check it and the run built it again
        expected = {
            # per step an eigh of p_n and of C (I + gamma Lambda) C, a solve for the
            # mean, a solve per xi evaluation and a Cholesky for the next measure; the
            # rest is parsing and forward.csv's stacked objectives, W2 and Lip(T^{-1})
            "forward": dict(eigh=12, eigvalsh=2, cholesky=8, solve=17, inv=1, svd=0, norm=0),
            # the chain pushed from p0 on load and the exact chain one Cholesky each, one
            # stacked inverse, a Cholesky per perturbed push
            "reverse": dict(eigh=2, eigvalsh=1, cholesky=9, solve=0, inv=2, svd=0, norm=0),
            # at N = 5 forward_rate's terminal gap row does not apply, but it reports the
            # gap: G of the continuous pi is one Cholesky (pi itself is the parsed one)
            "certify": dict(eigh=4, eigvalsh=2, cholesky=12, solve=3, inv=2, svd=0, norm=0),
        }
        for sub, want in expected.items():
            counts.update(dict.fromkeys(names, 0))
            assert run([sub, "--config", cfgp], tmp_path) == 0
            assert counts == want, sub

    @pytest.mark.parametrize("n, some", [("auto", False), ("60", True)])
    def test_terminal_gap_rows_need_an_explicit_n(self, tmp_path, n, some):
        # a gap row for step n applies when n >= threshold and n + 1 <= N; n = auto runs
        # N = ceil(threshold) steps, so no n meets both: its one gap row does not apply
        text = STANDARD_GAUSS.replace("n = auto", f"n = {n}")
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        report = (tmp_path / "runs" / f"{cli.parse_config(text).run_id()}_report.csv").read_text()
        rows = [row.split(",") for row in report.splitlines()[1:]]
        applies = [r[0] for r in rows if not r[7]]
        assert "forward_terminal_w2" in applies
        assert (applies.count("forward_terminal_gap") > 0) == some
        gaps = [r for r in rows if r[0] == "forward_terminal_gap"]
        assert some or [(r[1], r[7]) for r in gaps] == [("1", "step below threshold")]

    @pytest.mark.parametrize("base", [BASE_GAUSS, BASE_GRID], ids=["gaussian", "grid"])
    def test_archives_hold_no_config_key(self, tmp_path, base):
        cfgp = write(tmp_path, "c.txt", base)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        cfg = cli.parse_config(base)
        config_keys = set(cli._raw_pairs(cfg.canonical()))
        for suffix, keys in (("trajectory.npz", {"xi_norms", "solver_iterations"}),
                             ("reverse_perturbed.npz", {"residuals", "amplitudes"})):
            with np.load(tmp_path / "runs" / f"{cfg.run_id()}_{suffix}") as z:
                assert set(json.loads(z["manifest"].item())) == keys
            assert not keys & config_keys

    def test_non_finite_archive_fails_at_load(self, tmp_path, capsys):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        path = tmp_path / "runs" / f"{cli.parse_config(BASE_GAUSS).run_id()}_trajectory.npz"
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["linear"][2, 0, 0] = np.nan  # p_3 = T_3#p_2, derived on load, is not finite
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
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["sweep", "--config", cfgp, "--axis", "seed=3"], tmp_path) == 0
        cfg = dataclasses.replace(cli.parse_config(BASE_GAUSS), seed=3)
        assert cfg.run_id() == cli.parse_config(BASE_GAUSS.replace("seed = 0", "seed = 3")).run_id()
        assert sorted(os.listdir(tmp_path / "runs")) == [
            f"{cfg.run_id()}_{s}" for s in ("config.txt", "forward.csv", "report.csv",
                                             "reverse_perturbed.csv", "reverse_perturbed.npz",
                                             "trajectory.npz")]

    def test_reverse_stores_no_derivable_data(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GRID)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        cfg = cli.parse_config(BASE_GRID)
        rid = cfg.run_id()
        runs = tmp_path / "runs"
        assert sorted(os.listdir(runs)) == [
            f"{rid}_{s}" for s in ("config.txt", "forward.csv", "reverse_perturbed.csv",
                                   "reverse_perturbed.npz", "trajectory.npz")]
        with np.load(runs / f"{rid}_reverse_perturbed.npz") as z:
            assert z.files == ["manifest"]
        traj = cli._load_trajectory(cfg, rid, str(runs))
        pert = cli._load_reverse(cfg, rid, str(runs), traj)
        maps = ref.reverse_maps(pert)
        assert len(maps) == traj.n_steps == 3
        for k, s in enumerate(maps, 1):
            assert np.array_equal(s.x, traj.measures[k].values)

    def test_reverse_at_zero_eps_inv_stores_nothing(self, tmp_path, capsys):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS.replace("eps_inv = 0.001", "eps_inv = 0"))
        # the trajectory is loaded first: reverse before forward is missing run data
        assert run(["reverse", "--config", cfgp], tmp_path) == cli.EXIT_MISSING_DATA
        assert run(["forward", "--config", cfgp], tmp_path) == 0
        runs = tmp_path / "runs"
        before = {p.name: p.stat().st_mtime_ns for p in runs.iterdir()}
        capsys.readouterr()
        assert run(["reverse", "--config", cfgp], tmp_path) == 0
        assert {p.name: p.stat().st_mtime_ns for p in runs.iterdir()} == before
        assert "nothing to store" in capsys.readouterr().out
        assert run(["certify", "--config", cfgp], tmp_path) == 0

    def test_stale_exact_archive_is_not_read(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GRID)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        status = run(["certify", "--config", cfgp], tmp_path)
        cfg = cli.parse_config(BASE_GRID)
        rid = cfg.run_id()
        runs = tmp_path / "runs"
        report = (runs / f"{rid}_report.csv").read_bytes()
        # an exact-reverse archive as earlier versions wrote it, with a doctored q_0
        traj = cli._load_trajectory(cfg, rid, str(runs))
        values = np.array([q.values for q in pr.run_reverse_exact(traj)])
        values[0] += 1.0
        with open(runs / f"{rid}_reverse_exact.npz", "wb") as f:
            np.savez(f, manifest=np.array(json.dumps({"residuals": [0.0] * traj.n_steps,
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

    def test_a_sweep_parses_its_template_once(self, tmp_path, monkeypatch):
        # pi is built once for the template and once per combo (it was built again for
        # the template in every combo: 9 builds for these 4 combos).  At n = 2, far below
        # the step threshold, the reverse rows do not apply (they used to fail every combo)
        calls = []
        gaussian = ga.GaussianMeasure.minimizer
        monkeypatch.setattr(ga.GaussianMeasure, "minimizer",
                            staticmethod(lambda spec: calls.append(spec) or gaussian(spec)))
        for n in ("auto", "2"):
            cfgp = write(tmp_path, f"{n}.txt", STANDARD_GAUSS.replace("n = auto", f"n = {n}"))
            calls.clear()
            argv = ["sweep", "--config", cfgp, "--axis", "gamma=0.5,1.0", "--axis",
                    "eps=0.05,0.1"]
            assert run(argv, tmp_path) == 0, n
            assert len(calls) == 5
        reports = [f for f in os.listdir(tmp_path / "runs") if f.endswith("_report.csv")]
        assert len(reports) == 8

    def test_every_sweep_key_is_a_config_key(self):
        samples = {"gamma": "0.5", "eps": "0.2", "eps_inv": "0.01", "seed": "4",
                   "family.m": "64"}
        for key in cli.SWEEP_KEYS:
            cfg = cli._sweep_config(BASE_GRID, {key: samples[key]})
            assert f"{key} = {samples[key]}\n" in cfg.canonical()

    def test_objective_dim_is_not_sweepable(self, tmp_path, capsys):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["sweep", "--config", cfgp, "--axis", "objective.dim=1,2"],
                   tmp_path) == cli.EXIT_CONFIG
        assert "not sweepable" in capsys.readouterr().err
        assert os.listdir(tmp_path / "runs") == []

    def test_report_aggregates(self, tmp_path, capsys):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        run(["sweep", "--config", cfgp, "--axis", "gamma=0.5,1.0"], tmp_path)
        assert run(["report"], tmp_path) == 0
        summary = (tmp_path / "runs" / "report_summary.csv").read_text()
        lines = summary.strip().split("\n")
        assert lines[0] == "run_id,name,holds,lhs,rhs,slack,tol,context,not_applicable"
        assert len(lines) > 2
        assert all(row.split(",")[2] == "1" for row in lines[1:])
        # N = 5 is below the step threshold (~24.9): per run, the two reverse rows and one
        # row of each terminal bound do not apply
        n_na = sum(1 for row in lines[1:] if row.split(",")[-1])
        assert n_na == 8
        assert capsys.readouterr().out.endswith(
            f"2 runs, {len(lines) - 1} bound reports, 0 failing, 8 not applicable\n")

    def test_report_empty_dir(self, tmp_path):
        assert run(["report"], tmp_path) == cli.EXIT_MISSING_DATA


# The standard suite's two p0s with eps = eps_inv far below its own: a warm-started
# calibration probe often lands within ~1e-12 of such a target (the regression that
# made 11 of these 16 regimes exit 2 at `forward`).
SMALL_EPS_P0 = {"gaussian": "family = gaussian\np0.mean = 2\np0.cov = 4\n",
                "grid": "family = grid\nfamily.m = 2048\np0.mean = 1.5\np0.cov = 2.25\n"}
SMALL_EPS_REGIMES = list(itertools.product(SMALL_EPS_P0, ["mean_shift", "dilation"],
                                           [0.5, 1.5], [1e-4, 1e-5]))


@pytest.mark.parametrize("family, mode, gamma, eps", SMALL_EPS_REGIMES,
                         ids=["-".join(map(str, r)) for r in SMALL_EPS_REGIMES])
def test_small_eps_regimes_exit_0(tmp_path, family, mode, gamma, eps):
    cfgp = write(tmp_path, "c.txt", SMALL_EPS_P0[family] + (
        f"gamma = {gamma}\neps = {eps}\neps_inv = {eps}\nn = auto\nmode = {mode}\n"))
    for command in ("forward", "reverse", "certify"):
        assert run([command, "--config", cfgp], tmp_path) == cli.EXIT_OK, command


def random_spd(rng, d, lo, hi):
    """SPD matrix with eigenvalues lo and hi plus d - 2 log-uniform draws between them
    (the benchmark's random objectives)."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    evals = np.concatenate([[lo, hi], np.exp(rng.uniform(np.log(lo), np.log(hi), d - 2))])
    mat = (q * evals) @ q.T
    return 0.5 * (mat + mat.T)


@pytest.mark.parametrize("seed, eps", list(itertools.product([0, 1], [1e-3, 1e-4])))
def test_d10_dilation_small_eps_exits_0(tmp_path, seed, eps):
    # d = 10 dilation exited 2 at eps = 1e-3 on a false "roundoff floor" (67-85 steps)
    lam = random_spd(np.random.default_rng(seed), 10, 1.0, 4.0)
    cfgp = write(tmp_path, "c.txt", (
        f"family = gaussian\nobjective.lambda_mat = {cli._fmt_matrix(lam)}\n"
        f"objective.center = {cli._fmt_vector(np.zeros(10))}\n"
        f"p0.mean = {cli._fmt_vector(np.ones(10))}\np0.cov = {cli._fmt_matrix(2 * np.eye(10))}\n"
        f"gamma = 1.0\neps = {eps}\neps_inv = {eps}\nn = auto\nseed = {seed}\nmode = dilation\n"))
    for command in ("forward", "reverse", "certify"):
        assert run([command, "--config", cfgp], tmp_path) == cli.EXIT_OK, command


def test_grid_bump_seed_once_said_to_fail_exits_0(tmp_path):
    # perfbench's grid_specs docstring says this seed's bumps stop the grid Newton step
    # (forward exit 2)
    text = (STANDARD_GRID.replace("gamma = 1.0", "gamma = 0.5").replace("eps = 0.1", "eps = 0.05")
            .replace("n = 3", "n = auto").replace("seed = 0", "seed = 1440510676"))
    cfgp = write(tmp_path, "c.txt", text)
    for command in ("forward", "reverse", "certify"):
        assert run([command, "--config", cfgp], tmp_path) == cli.EXIT_OK, command


class TestExitCodes:
    def test_an_explicit_step_count_too_large_for_a_list_is_config_error(self, tmp_path, capsys):
        # the schedule eps * N used to raise OverflowError: an internal error, exit 70
        text = BASE_GAUSS.replace("n = 5", "n = 100000000000000000000")
        with pytest.raises(cli.ConfigError, match="n = 100000000000000000000 steps"):
            cli.parse_config(text)
        cfgp = write(tmp_path, "c.txt", text)
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    def test_an_auto_step_count_too_large_for_a_list_is_config_error(self, tmp_path, capsys):
        # N = 8 / (gamma lambda) (log W2(p0, pi) + log(lambda / eps)), about 2.4e301 here
        text = BASE_GAUSS.replace("n = 5", "n = auto").replace("gamma = 1.0", "gamma = 1e-300")
        cfg = cli.parse_config(text)  # the step count is derived on load
        with pytest.raises(cli.ConfigError, match=r"n = auto derives N = \d{300,} steps"):
            cfg.resolve_n()
        cfgp = write(tmp_path, "c.txt", text)
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: n = auto derives N =" in err and "Traceback" not in err

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

    def test_an_empty_check_list_in_the_config_is_config_error(self, tmp_path, capsys):
        # it would certify nothing: "0/0 bounds hold", a header-only report and exit 0
        text = BASE_GAUSS + "checks =\n"
        with pytest.raises(cli.ConfigError, match="no checks given"):
            cli.parse_config(text)
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        assert "bounds hold" not in capsys.readouterr().out
        assert list((tmp_path / "runs").iterdir()) == []

    def test_an_empty_checks_flag_is_config_error(self, tmp_path, capsys):
        # not the config's list in its place
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        capsys.readouterr()
        assert run(["certify", "--config", cfgp, "--checks", ""], tmp_path) == cli.EXIT_CONFIG
        assert "no checks given" in capsys.readouterr().err
        rid = cli.parse_config(BASE_GAUSS).run_id()
        assert not (tmp_path / "runs" / f"{rid}_report.csv").exists()

    @pytest.mark.parametrize("checks", ["inversion", "evi inversion"])
    def test_inversion_check_at_eps_inv_0_in_the_config_is_config_error(
            self, tmp_path, capsys, checks):
        # there is no perturbed run to bound: it certified nothing, "0/0 bounds hold" with
        # a header-only report and exit 0 for `checks = inversion`
        text = BASE_GAUSS.replace("eps_inv = 0.001", "eps_inv = 0") + f"checks = {checks}\n"
        with pytest.raises(cli.ConfigError, match="the inversion check needs eps_inv > 0"):
            cli.parse_config(text)
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        assert "bounds hold" not in capsys.readouterr().out
        assert list((tmp_path / "runs").iterdir()) == []

    @pytest.mark.parametrize("flag", ["inversion", "evi,inversion"])
    def test_inversion_flag_at_eps_inv_0_is_config_error(self, tmp_path, capsys, flag):
        text = BASE_GAUSS.replace("eps_inv = 0.001", "eps_inv = 0")
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        capsys.readouterr()
        assert run(["certify", "--config", cfgp, "--checks", flag], tmp_path) == cli.EXIT_CONFIG
        assert "the inversion check needs eps_inv > 0" in capsys.readouterr().err
        rid = cli.parse_config(text).run_id()
        assert not (tmp_path / "runs" / f"{rid}_report.csv").exists()

    @pytest.mark.parametrize("checks", ["", "checks = all\n",
                                        "checks = inversion dpi_chain kl_tv forward_rate evi\n"],
                             ids=["default", "all", "every_check"])
    def test_every_check_at_eps_inv_0_marks_inversion_not_applicable(self, tmp_path, checks):
        # `all`, and a list of every check (the canonical config spells `all` that way),
        # run every check at eps_inv = 0; with no perturbed run, both inversion rows are
        # marked not applicable (the check used to be dropped without a row)
        text = BASE_GAUSS.replace("eps_inv = 0.001", "eps_inv = 0") + checks
        cfgp = write(tmp_path, "c.txt", text)
        rid = cli.parse_config(text).run_id()
        canonical = str(tmp_path / "runs" / f"{rid}_config.txt")
        assert run(["forward", "--config", cfgp], tmp_path) == 0
        every = ",".join(cli.ALL_CHECKS)
        for argv in (["--config", cfgp], ["--config", canonical],
                     ["--config", cfgp, "--checks", every]):
            assert run(["certify", *argv], tmp_path) == 0
            rows = [row.split(",") for row in
                    (tmp_path / "runs" / f"{rid}_report.csv").read_text().splitlines()[1:]]
            inversion = [(r[0], r[1], float(r[2]), float(r[3]), r[7]) for r in rows
                         if r[0].startswith("inversion")]
            assert "evi" in {r[0] for r in rows}
            assert inversion == [(name, "1", 0.0, 0.0, "no perturbed run")
                                 for name in ("inversion_coupling", "inversion_mixed")]
        # with no step there is no transport to estimate K from
        zero = write(tmp_path, "zero.txt", text.replace("n = 5", "n = 0"))
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", zero], tmp_path) == 0
        # the negative control (eps_inv = 0, default checks) still fails
        neg = str(tmp_path / "negative_control")
        shutil.copytree(os.path.join(ROOT, "fixtures", "negative_control"), neg)
        assert cli.main(["certify", "--config", os.path.join(neg, "config.txt"), "--out", neg]) \
            == cli.EXIT_BOUND_FAILED

    @pytest.mark.parametrize("argv", [["forward"], ["bogus"],
                                      ["certify", "--config", "x", "--checks"]],
                             ids=["no_config", "unknown_command", "checks_without_value"])
    def test_usage_error_is_config_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_CONFIG
        assert "usage: jkolab" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "-h"])
        assert exc.value.code == 0
        assert "--checks" in capsys.readouterr().out

    def test_parser_is_built_once_and_keeps_no_options(self, tmp_path, monkeypatch):
        assert cli._build_parser() is cli._build_parser()
        seen = []
        monkeypatch.setattr(cli, "do_certify",
                            lambda cfg, rid, out, checks: seen.append((cfg.seed, checks)) or 0)
        seeded = write(tmp_path, "seeded.txt", BASE_GAUSS.replace("seed = 0", "seed = 3"))
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["certify", "--config", seeded, "--checks", "evi,kl_tv"], tmp_path) == 0
        assert run(["certify", "--config", cfgp], tmp_path) == 0
        assert seen == [(3, ["evi", "kl_tv"]), (0, None)]

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

    def test_failed_newton_factorization_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        # LAPACK ?ptsv reports info > 0: a leading minor is not positive definite
        monkeypatch.setattr("scipy.linalg.lapack.dptsv", lambda d, e, b, **kw: (d, e, b, 3))
        cfgp = write(tmp_path, "c.txt", STANDARD_GRID)
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_SOLVER == 2
        err = capsys.readouterr().err
        assert ("solver failure: forward step 1: grid Newton system is not positive definite "
                "(LAPACK ?ptsv info = 3)") in err

    def test_failed_newton_line_search_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        # a Newton step that raises ||xi|| at every t halves t to the 1e-14 floor
        from scipy.linalg import lapack

        solve = lapack.dptsv

        def reversed_step(*args, **kwargs):
            d, e, step, info = solve(*args, **kwargs)
            return d, e, -step, info

        monkeypatch.setattr(lapack, "dptsv", reversed_step)
        cfgp = write(tmp_path, "c.txt", STANDARD_GRID)
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_SOLVER == 2
        err = capsys.readouterr().err
        assert ("solver failure: forward step 1: Newton line search failed on the grid "
                "proximal step") in err

    @pytest.mark.parametrize("base", [BASE_GAUSS, BASE_GRID], ids=["gaussian", "grid"])
    def test_auto_n_from_the_minimizer_runs_one_step(self, tmp_path, capsys, base):
        # W2(p0, pi) = 0, so the step-count threshold is -inf and n = auto is 1;
        # forward used to exit 64 on it, reverse and certify 66
        cfgp = write(tmp_path, "c.txt", from_minimizer(base, "auto"))
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        out = capsys.readouterr().out
        # the mixed inversion bound and the gap (no step n with n + 1 <= N) do not apply
        assert "forward run, 1 steps" in out and "7/7 bounds hold, 2 not applicable" in out

    def test_gaussian_run_from_the_minimizer_certifies(self, tmp_path, capsys):
        cfgp = write(tmp_path, "c.txt", from_minimizer(BASE_GAUSS, 1))
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        assert "7/7 bounds hold, 2 not applicable" in capsys.readouterr().out

    def test_grid_run_from_the_minimizer_certifies(self, tmp_path, capsys):
        # W2(p0, pi) = 0, so the mixed inversion bound does not apply; its rhs is inf
        cfgp = write(tmp_path, "c.txt", from_minimizer(BASE_GRID, 3))
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        assert "15/15 bounds hold, 1 not applicable" in capsys.readouterr().out
        rid = cli.parse_config(from_minimizer(BASE_GRID, 3)).run_id()
        report = (tmp_path / "runs" / f"{rid}_report.csv").read_text()
        mixed = [row for row in report.splitlines() if row.startswith("inversion_mixed,")]
        assert len(mixed) == 1 and mixed[0].endswith(",N above 1 + threshold")

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
    def test_trajectory_archive_of_another_layout_is_missing_data(self, tmp_path, capsys, base):
        cfgp = write(tmp_path, "c.txt", base)
        assert run(["forward", "--config", cfgp], tmp_path) == 0
        cfg = cli.parse_config(base)
        path = tmp_path / "runs" / f"{cfg.run_id()}_trajectory.npz"
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        manifest = json.loads(arrays.pop("manifest").item())
        renamed = {("xi" if k == "xi_norms" else k): v for k, v in manifest.items()}
        # earlier versions also stored the run's inputs, which its config records
        pot = cfg.spec.potential
        inputs = {"spec": {"variant": cfg.spec.variant.value, "lambda_mat": pot.lambda_mat.tolist(),
                           "center": pot.center.tolist(), "alpha": cfg.spec.alpha},
                  "gamma": cfg.gamma, "family": cfg.family}
        member = sorted(arrays)[0]
        for doctored in (arrays,  # no manifest
                         {**arrays, "manifest": np.array(json.dumps(renamed))},
                         {**arrays, "manifest": np.array(json.dumps({**inputs, **manifest}))},
                         {k: v for k, v in arrays.items() if k != member}
                         | {"manifest": np.array(json.dumps(manifest))}):
            with open(path, "wb") as f:
                np.savez(f, **doctored)
            for sub in ("reverse", "certify"):
                assert run([sub, "--config", cfgp], tmp_path) == cli.EXIT_MISSING_DATA
                err = capsys.readouterr().err
                assert f"missing run data: {path}: " in err and "re-run `jkolab forward`" in err
                assert "Traceback" not in err
        assert run(["forward", "--config", cfgp], tmp_path) == 0
        assert run(["reverse", "--config", cfgp], tmp_path) == 0
        assert run(["certify", "--config", cfgp], tmp_path) == 0

    @pytest.mark.parametrize("base", [BASE_GAUSS, STANDARD_GRID], ids=["gaussian", "grid"])
    def test_trajectory_archive_holding_p0_is_missing_data(self, tmp_path, capsys, base):
        # the layout before this one stored p_0..p_N: a grid archive's `values` then has
        # N + 1 rows under the same member name, and a Gaussian one also holds `mean` and
        # `cov` next to `linear` and `offset`; neither may load as a shifted chain
        cfgp = write(tmp_path, "c.txt", base)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        cfg = cli.parse_config(base)
        runs = tmp_path / "runs"
        traj = cli._load_trajectory(cfg, cfg.run_id(), str(runs))
        old = {f.name: np.array([getattr(p, f.name) for p in traj.measures])
               for f in dataclasses.fields(traj.measures[0])}
        if cfg.family == "gaussian":
            old.update(linear=np.array([t.linear for t in traj.transports]),
                       offset=np.array([t.offset for t in traj.transports]))
        manifest = {"xi_norms": traj.xi_norms, "solver_iterations": traj.solver_iterations}
        path = runs / f"{cfg.run_id()}_trajectory.npz"
        with open(path, "wb") as f:
            np.savez(f, manifest=np.array(json.dumps(manifest)), **old)
        for sub in ("reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == cli.EXIT_MISSING_DATA
            err = capsys.readouterr().err
            assert f"missing run data: {path}: " in err and "re-run `jkolab forward`" in err
            assert "Traceback" not in err
            assert (f"{traj.n_steps + 1} stored steps" in err) == (cfg.family == "grid")

    @pytest.mark.parametrize("base", [BASE_GAUSS, STANDARD_GRID], ids=["gaussian", "grid"])
    def test_reverse_archive_of_another_layout_is_missing_data(self, tmp_path, capsys, base):
        cfgp = write(tmp_path, "c.txt", base)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        runs = tmp_path / "runs"
        cfg = cli.parse_config(base)
        rid = cfg.run_id()
        path = runs / f"{rid}_reverse_perturbed.npz"
        traj = cli._load_trajectory(cfg, rid, str(runs))
        pert = cli._load_reverse(cfg, rid, str(runs), traj)
        # earlier versions stored every q~_n and every map S_n (on grids its y knots only)
        # and no amplitudes
        chain, maps = ref.reverse_chain(pert), ref.reverse_maps(pert)
        old = {f.name: np.array([getattr(q, f.name) for q in chain])
               for f in dataclasses.fields(chain[0])}
        old.update({f.name: np.array([getattr(s, f.name) for s in maps])
                    for f in dataclasses.fields(maps[0]) if f.name != "x"})
        manifest = {"residuals": pert.residuals, "exact": False}
        # the layout before this one also stored the run's mode and seed
        inputs = {"residuals": pert.residuals, "amplitudes": pert.amplitudes,
                  "mode": pert.mode.value, "seed": pert.seed, "exact": False}
        short = {"residuals": pert.residuals[:-1], "amplitudes": pert.amplitudes[:-1]}
        for doctored in ({"manifest": np.array(json.dumps(manifest)), **old},
                         {"manifest": np.array(json.dumps(inputs))},
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
        # the inversion check reads it: an unreadable archive is missing run data
        assert run(["certify", "--config", cfgp], tmp_path) == cli.EXIT_MISSING_DATA

    @pytest.mark.parametrize("damage", ["flipped_byte", "truncated"])
    @pytest.mark.parametrize("base, archive, command", [
        (STANDARD_GRID, "trajectory", "forward"), (BASE_GAUSS, "trajectory", "forward"),
        (BASE_GAUSS, "reverse_perturbed", "reverse")],
        ids=["grid_trajectory", "gaussian_trajectory", "reverse_manifest"])
    def test_a_damaged_archive_is_missing_data(self, tmp_path, capsys, base, archive, command,
                                               damage):
        cfgp = write(tmp_path, "c.txt", base)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        path = tmp_path / "runs" / f"{cli.parse_config(base).run_id()}_{archive}.npz"
        data = bytearray(path.read_bytes())
        if damage == "flipped_byte":
            data[len(data) // 3] ^= 0x10  # inside a member: its CRC-32 no longer matches
        else:
            del data[len(data) // 2:]
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert run(["certify", "--config", cfgp], tmp_path) == cli.EXIT_MISSING_DATA
        err = capsys.readouterr().err
        assert f"missing run data: {path}: not a readable archive: " in err
        assert ("Bad CRC-32" if damage == "flipped_byte" else "not a zip file") in err
        assert f"re-run `jkolab {command}`" in err and "Traceback" not in err
        assert run([command, "--config", cfgp], tmp_path) == 0
        assert run(["certify", "--config", cfgp], tmp_path) == 0

    def test_an_exact_run_has_no_mixed_inversion_bound(self, tmp_path):
        # every step is exact (eps = 0): the max xi norm, about 6e-16, is roundoff, and the
        # mixed form used to report rhs ~ eps^(-8K/lambda) = 2.2e53 as holding
        text = """
objective.lambda_mat = 1 0 0; 0 2 0; 0 0 3
objective.center = 0 0 0
family = gaussian
p0.mean = 1 -1 2
p0.cov = 2 0 0; 0 0.5 0; 0 0 1
gamma = 1.0
eps = 0
eps_inv = 0.001
n = 6
"""
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        assert run(["certify", "--config", cfgp, "--checks", "inversion"], tmp_path) == 0
        rid = cli.parse_config(text).run_id()
        rows = (tmp_path / "runs" / f"{rid}_report.csv").read_text().splitlines()[1:]
        coupling, mixed = (row.split(",") for row in rows)
        assert coupling[0] == "inversion_coupling" and float(coupling[3]) < 1
        assert mixed[0] == "inversion_mixed" and mixed[1] == "1" and mixed[3] == "inf"
        ctx = dict(kv.split("=") for kv in mixed[6].split(";"))
        assert mixed[7] == "exact run" and 0 < float(ctx["eps"]) < 1e-14
        # every check: the terminal KL / TV guarantee needs N >= threshold, which the
        # roundoff eps puts far above N = 6 (it used to fail: KL 1.25e-4 > rhs 1.8e-30)
        assert run(["certify", "--config", cfgp], tmp_path) == 0
        rows = (tmp_path / "runs" / f"{rid}_report.csv").read_text().splitlines()[1:]
        marked = {row.split(",")[0] for row in rows if row.split(",")[7]}
        assert marked == {"reverse_kl", "reverse_tv", "forward_terminal_w2",
                          "forward_terminal_gap", "inversion_mixed"}


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

    @pytest.mark.parametrize("eps, n", [("0", "auto"), ("0.1 0.2", "3"), ("0.1 0.2", "auto")],
                             ids=["auto_zero_eps", "schedule_length", "auto_schedule"])
    def test_step_count_is_checked_at_parse(self, tmp_path, capsys, eps, n):
        # each used to parse: forward exited 64, reverse and certify 66 (missing run data)
        text = (CHECKED_AT_PARSE.replace("eps = 0.1", f"eps = {eps}").replace("n = 3", f"n = {n}")
                + P0_GAUSS)
        with pytest.raises(cli.ConfigError):
            cli.parse_config(text)
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    def test_key_given_twice_is_rejected(self, tmp_path, capsys):
        text = CHECKED_AT_PARSE + P0_GAUSS + "seed = 0\n# a comment\nseed = 1\n"
        lines = text.splitlines()
        first, second = (i + 1 for i, line in enumerate(lines) if line.startswith("seed ="))
        with pytest.raises(cli.ConfigError, match=f"'seed' given twice, on lines {first} "
                                                  f"and {second}"):
            cli.parse_config(text)
        cfgp = write(tmp_path, "c.txt", text)
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "given twice" in err and "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["0.5", "-3", "2"])
    def test_alpha_other_than_1_under_kl_is_rejected(self, tmp_path, capsys, alpha):
        # it ran plain KL under the run id of the same config without alpha
        text = CHECKED_AT_PARSE + P0_GAUSS + f"objective.alpha = {alpha}\n"
        with pytest.raises(cli.ConfigError, match="needs the weighted variant"):
            cli.parse_config(text)
        cfgp = write(tmp_path, "c.txt", text)
        assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        # a canonical config writes kl's own alpha
        canonical = cli.parse_config(CHECKED_AT_PARSE + P0_GAUSS).canonical()
        assert "objective.alpha = 1.0\n" in canonical
        assert cli.parse_config(canonical).canonical() == canonical

    def test_grid_size_in_a_gaussian_config_is_rejected(self, tmp_path, capsys):
        # it was ignored under the run id of the same config without it, so a sweep over
        # family.m on a gaussian template ran "1 runs"
        unknown = "unrecognized keys: ['family.m']"
        with pytest.raises(cli.ConfigError, match=re.escape(unknown)):
            cli.parse_config(BASE_GAUSS + "family.m = 64\n")
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["sweep", "--config", cfgp, "--axis", "family.m=64,128"],
                   tmp_path) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.count(unknown) == 2
        assert "sweep: 2 runs, 0 fully passing" in captured.out
        assert os.listdir(tmp_path / "runs") == []

    def test_a_check_named_twice_is_rejected(self, tmp_path, capsys):
        # it ran twice: "6/6 bounds hold" for `checks = evi evi` on a 3-step run
        text = BASE_GAUSS + "checks = evi evi\n"
        with pytest.raises(cli.ConfigError, match="check 'evi' named twice"):
            cli.parse_config(text)
        assert run(["forward", "--config", write(tmp_path, "twice.txt", text)],
                   tmp_path) == cli.EXIT_CONFIG
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        capsys.readouterr()
        assert run(["certify", "--config", cfgp, "--checks", "evi,kl_tv,evi"],
                   tmp_path) == cli.EXIT_CONFIG
        assert "check 'evi' named twice" in capsys.readouterr().err
        rid = cli.parse_config(BASE_GAUSS).run_id()
        assert not (tmp_path / "runs" / f"{rid}_report.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "seed=-1,2"],
    ], ids=["sweep_axis"])
    def test_negative_seed_is_rejected(self, tmp_path, capsys, argv):
        cfgp = write(tmp_path, "c.txt", CHECKED_AT_PARSE + P0_GAUSS)
        assert run(argv + ["--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("base", [BASE_GAUSS, BASE_GRID], ids=["gaussian", "grid"])
    def test_minimizer_below_the_floor_is_config_error(self, tmp_path, capsys, base):
        # pi = N(0, 1e-11) is below the 1e-10 floor: the Gaussian forward used to
        # exit 70 in its first step, the grid forward 2 in its Newton solve
        text = base.replace("objective.lambda_mat = 1\n", "") + "objective.lambda_mat = 1e11\n"
        with pytest.raises(cli.ConfigError, match="the minimizer"):
            cli.parse_config(text)
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: the minimizer N(center, alpha lambda_mat^-1): covariance is not " \
               "positive definite" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("edits, measure", [
        ({"objective.center = 0": "objective.center = 1e12\nobjective.lambda_mat = 1e4"},
         "the minimizer N(center, alpha lambda_mat^-1)"),
        ({"p0.mean = 1.5": "p0.mean = 1e12", "p0.cov = 2.25": "p0.cov = 1e-4"}, "p0"),
    ], ids=["minimizer", "p0"])
    def test_grid_quantiles_that_collapse_are_config_errors(self, tmp_path, capsys, edits,
                                                            measure):
        # at M = 2048 the quantiles near the centre are about 1.2e-3 sd apart, below the
        # float spacing at 1e12 (1.2e-4): forward used to exit 70 building the measure
        text = STANDARD_GRID
        for old, new in edits.items():
            text = text.replace(old, new)
        with pytest.raises(cli.ConfigError, match=re.escape(measure)):
            cli._built_measures(cli.parse_config(text))
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse", "certify", "sweep"):
            assert run([sub, "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {measure}: quantile values must be strictly increasing" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", ["auto", "1"])
    def test_atomic_p0_with_a_minimizer_that_collapses_is_a_config_error(self, tmp_path, capsys,
                                                                         monkeypatch, n):
        # pi collapses as above; with an atomic p0 forward used to exit 70 (n = auto, from
        # W2(p0, pi)) or 2 (n = 1, the grid Newton cap).  pi reads only M, so loading the
        # config smooths no atoms.
        text = (BASE_ATOMS.replace("family.m = 128", "family.m = 2048")
                .replace("p0.delta = 0.2", "p0.delta = 0.03").replace("n = 2", f"n = {n}")
                + "objective.center = 1e12\nobjective.lambda_mat = 1e4\neps_inv = 0.001\n")
        smoothed = []
        monkeypatch.setattr(pr, "ou_smooth", lambda *args: smoothed.append(args))
        with pytest.raises(cli.ConfigError, match=re.escape("the minimizer")):
            cli._built_measures(cli.parse_config(text))
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
        assert smoothed == []
        err = capsys.readouterr().err
        assert err.count("config error: the minimizer N(center, alpha lambda_mat^-1): quantile "
                         "values must be strictly increasing") == 3
        assert "Traceback" not in err


def gaussian_config(lam, mean, cov):
    return BASE_GAUSS.replace("objective.lambda_mat = 1", f"objective.lambda_mat = {lam}").replace(
        "objective.center = 0", "objective.center = " + " ".join(["0"] * len(mean))).replace(
        "p0.mean = 2", f"p0.mean = {cli._fmt_vector(mean)}").replace(
        "p0.cov = 4", f"p0.cov = {cli._fmt_matrix(cov)}")


def rotated(rng, evals):
    q, _ = np.linalg.qr(rng.standard_normal((len(evals), len(evals))))
    cov = (q * evals) @ q.T
    return 0.5 * (cov + cov.T)


class TestP0Check:
    """parse_config tests p0.cov for positive definiteness by Cholesky, not eigh."""

    def test_parse_runs_no_eigh(self, monkeypatch):
        rng = np.random.default_rng(30)
        lam = cli._fmt_matrix(rotated(rng, np.exp(rng.uniform(np.log(0.5), np.log(4.0), 30))))
        cov = rotated(rng, np.exp(rng.uniform(np.log(0.2), np.log(5.0), 30)))
        text = gaussian_config(lam, rng.standard_normal(30), cov)
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            def counting(*args, _name=name, _func=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _func(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        cli.parse_config(text)
        assert counts == {"eigh": 0, "eigvalsh": 1}  # Lambda's lambda_min

    @pytest.mark.parametrize("factor", [1 - 1e-2, 1 + 1e-2], ids=["below", "above"])
    def test_nondegeneracy_boundary_follows_the_eigenvalue_rule(self, tmp_path, capsys, factor):
        cov = rotated(np.random.default_rng(3), [1e-10 * factor, 1.0, 2.0])
        above = np.linalg.eigvalsh(cov)[0] >= 1e-10
        assert above == (factor > 1)
        text = gaussian_config("1", np.zeros(3), cov)
        if above:
            assert np.array_equal(ga.GaussianMeasure(np.zeros(3), cov).cov, cov)
            assert np.array_equal(cli.parse_config(text).p0_law.cov, cov)
        else:
            with pytest.raises(ValueError, match="not positive definite"):
                ga.GaussianMeasure(np.zeros(3), cov)
            cfgp = write(tmp_path, "c.txt", text)
            assert run(["forward", "--config", cfgp], tmp_path) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "config error: p0: covariance is not positive definite" in err
            assert "Traceback" not in err


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

    def test_a_key_on_two_axes_is_config_error(self, tmp_path, capsys):
        # a combo holds one value per key, so the second axis would replace the first
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        assert run(["sweep", "--config", cfgp, "--axis", "gamma=0.5", "--axis", "gamma=1.0"],
                   tmp_path) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error: axis key 'gamma' given twice" in captured.err
        assert "sweep:" not in captured.out
        assert os.listdir(tmp_path / "runs") == []


class TestCheckList:
    """The config key `checks` and `certify --checks` read a check list the same way."""

    @pytest.mark.parametrize("text", ["evi kl_tv", "evi,kl_tv", "evi, kl_tv", " evi ,\tkl_tv "])
    def test_commas_and_whitespace_separate_names(self, text):
        assert cli._check_list(text, 5, 0.001) == ["evi", "kl_tv"]
        assert cli.parse_config(BASE_GAUSS + f"checks = {text}\n").checks == ["evi", "kl_tv"]

    def test_all_is_every_check(self):
        assert cli._check_list("all", 5, 0.001) == cli.ALL_CHECKS
        with pytest.raises(cli.ConfigError, match="unknown check 'all'"):
            cli._check_list("all, evi", 5, 0.001)

    def test_config_spellings_keep_one_canonical_text_and_run_id(self):
        spaced = cli.parse_config(BASE_GAUSS + "checks = evi kl_tv\n")
        assert "checks = evi kl_tv\n" in spaced.canonical()
        for text in ("evi,kl_tv", "evi, kl_tv"):
            cfg = cli.parse_config(BASE_GAUSS + f"checks = {text}\n")
            assert cfg.canonical() == spaced.canonical() and cfg.run_id() == spaced.run_id()
        default = cli.parse_config(BASE_GAUSS)
        assert cli.parse_config(BASE_GAUSS + "checks = all\n").run_id() == default.run_id()

    def test_the_flag_reads_all_and_a_spaced_list(self, tmp_path):
        cfgp = write(tmp_path, "c.txt", BASE_GAUSS)
        for sub in ("forward", "reverse"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        report = tmp_path / "runs" / f"{cli.parse_config(BASE_GAUSS).run_id()}_report.csv"
        reports = {}
        for flag in (None, "all", "evi,kl_tv", "evi, kl_tv", "evi kl_tv"):
            argv = ["certify", "--config", cfgp] + ([] if flag is None else ["--checks", flag])
            assert run(argv, tmp_path) == 0, flag
            reports[flag] = report.read_bytes()
        assert reports["all"] == reports[None]
        assert reports["evi, kl_tv"] == reports["evi kl_tv"] == reports["evi,kl_tv"]
        names = [row.split(b",")[0] for row in reports["evi,kl_tv"].splitlines()[1:]]
        assert set(names) == {b"evi", b"reverse_kl", b"reverse_tv"}


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
        cfg = cli.parse_config(BASE_GAUSS)
        rid = cfg.run_id()
        traj_path = tmp_path / "runs" / f"{rid}_trajectory.npz"
        traj = cli._load_trajectory(cfg, rid, str(tmp_path / "runs"))
        # claim ten-fold smaller first-order errors than the run really had
        traj = dataclasses.replace(traj, xi_norms=[x / 10 for x in traj.xi_norms])
        traj_path.write_bytes(sz.trajectory_to_json(traj))
        assert run(["certify", "--config", cfgp], tmp_path) == cli.EXIT_BOUND_FAILED

    def test_understated_xi_norms_fail_terminal_rows(self, tmp_path):
        # must-fail control of the terminal and reverse bounds: at N = 60, xi norms
        # claimed ten-fold too small move the step threshold from 24.9 to 43.3, still
        # below N, so each of these rows applies (17 W2 and 16 gap rows) and fails
        text = STANDARD_GAUSS.replace("n = auto", "n = 60")
        cfgp = write(tmp_path, "c.txt", text)
        for sub in ("forward", "reverse", "certify"):
            assert run([sub, "--config", cfgp], tmp_path) == 0
        cfg = cli.parse_config(text)
        rid, runs = cfg.run_id(), str(tmp_path / "runs")
        traj = cli._load_trajectory(cfg, rid, runs)
        traj = dataclasses.replace(traj, xi_norms=[x / 10 for x in traj.xi_norms])
        (tmp_path / "runs" / f"{rid}_trajectory.npz").write_bytes(sz.trajectory_to_json(traj))
        assert run(["certify", "--config", cfgp], tmp_path) == cli.EXIT_BOUND_FAILED
        rows = [r.split(",") for r in
                (tmp_path / "runs" / f"{rid}_report.csv").read_text().splitlines()[1:]]
        names = ("forward_terminal_w2", "forward_terminal_gap", "reverse_kl", "reverse_tv")
        counts = {name: [(r[1], r[7]) for r in rows if r[0] == name] for name in names}
        assert {name: (len(c), set(c)) for name, c in counts.items()} == {
            "forward_terminal_w2": (17, {("0", "")}), "forward_terminal_gap": (16, {("0", "")}),
            "reverse_kl": (1, {("0", "")}), "reverse_tv": (1, {("0", "")})}

    def test_regenerated_fixture_matches_checked_in(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "make_negative_control", os.path.join(ROOT, "scripts", "make_negative_control.py"))
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        fresh = str(tmp_path / "fresh")
        assert script.main([fresh]) == 0
        checked_in = str(tmp_path / "checked_in")
        shutil.copytree(os.path.join(ROOT, "fixtures", "negative_control"), checked_in)
        # N = 5 is below the step threshold (~30.4 at the claimed eps): the reverse rows
        # do not apply (the terminal control is test_understated_xi_norms_fail_terminal_rows)
        assert _failing_checks(fresh) == _failing_checks(checked_in) == (
            "f386adaefbcf", {"evi n=1", "evi n=2", "evi n=3", "evi n=4"})
        assert sorted(os.listdir(fresh)) == sorted(os.listdir(checked_in))
