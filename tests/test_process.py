import dataclasses
import math
import os
import warnings

import numpy as np
import pytest
import reference as ref
from hypothesis import given, settings, strategies as st

from jkolab import certify as ct
from jkolab import cli
from jkolab import functionals as fn
from jkolab import gaussian as ga
from jkolab import jko
from jkolab import process as pr
from jkolab import quantile as qt

NEGATIVE_CONTROL = os.path.join(os.path.dirname(__file__), "..", "fixtures", "negative_control")


def kl_spec(lam=1.0, d=1):
    return fn.ObjectiveSpec(fn.QuadraticPotential(lam * np.eye(d), np.zeros(d)))


def gauss_p0(mean=2.0, var=4.0):
    return ga.GaussianMeasure(np.array([mean]), np.array([[var]]))


def gauss_traj_3d(n=3):
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    spec = fn.ObjectiveSpec(fn.QuadraticPotential(a @ a.T + 0.5 * np.eye(3), np.zeros(3)))
    p0 = ga.GaussianMeasure(rng.standard_normal(3), b @ b.T + 0.5 * np.eye(3))
    return ref.forward(p0, spec, 1.0, n, eps=0.05, mode=jko.PerturbMode.DILATION)


def gauss_traj_10d():
    """Six steps in d = 10 from a covariance that does not commute with Lambda."""
    rng = np.random.default_rng(10)
    a, b = rng.standard_normal((10, 10)), rng.standard_normal((10, 10))
    spec = fn.ObjectiveSpec(fn.QuadraticPotential(a @ a.T / 10 + 0.5 * np.eye(10),
                                                  rng.standard_normal(10)))
    p0 = ga.GaussianMeasure(rng.standard_normal(10), b @ b.T / 10 + 0.5 * np.eye(10))
    return ref.forward(p0, spec, 1.0, 6, eps=0.05, mode=jko.PerturbMode.DILATION)


class TestStepsNeeded:
    def test_reference_value(self):
        # 8 * (log 4 + log(1/0.1)) = 8 * (1.386 + 2.303) = 29.51 -> 30
        assert pr.steps_needed(4.0, 1.0, 1.0, 0.1) == 30

    def test_clamps_to_one(self):
        assert pr.steps_needed(0.01, 1.0, 1.0, 10.0) == 1

    def test_halves_with_double_gamma_lambda(self):
        n1 = pr.steps_needed(10.0, 1.0, 0.5, 0.01)
        n2 = pr.steps_needed(10.0, 1.0, 1.0, 0.01)
        assert n1 in (2 * n2 - 1, 2 * n2, 2 * n2 + 1)

    def test_rejects_nonpositive(self):
        for args in [(-1, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]:
            with pytest.raises(ValueError):
                pr.steps_needed(*args)
        # p0 = q: the threshold is -inf, and one step is taken
        assert pr.steps_threshold(0.0, 1.0, 1.0, 0.1) == -np.inf
        assert pr.steps_needed(0.0, 1.0, 1.0, 0.1) == 1


class TestRunForward:
    def test_gaussian_mean_chain(self):
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 4)
        means = [m.mean[0] for m in traj.measures]
        assert np.allclose(means, [2, 1, 0.5, 0.25, 0.125], atol=1e-8)
        assert all(x <= jko.GAUSSIAN_TOL for x in traj.xi_norms)

    def test_zero_steps(self):
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 0)
        assert traj.n_steps == 0 and len(traj.measures) == 1

    def test_scalar_schedule_broadcast(self):
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 3, eps=0.1)
        assert np.allclose(traj.xi_norms, 0.1, rtol=0.01)

    def test_list_schedule(self):
        # one step per entry, measured against the pi it is handed
        pi = ga.GaussianMeasure.minimizer(kl_spec())
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, [0.0, 0.1, 0.0],
                              jko.PerturbMode.MEAN_SHIFT, 0, pi)
        assert traj.n_steps == 3 and traj.minimizer is pi
        assert traj.xi_norms[0] <= jko.GAUSSIAN_TOL
        assert traj.xi_norms[1] == pytest.approx(0.1, rel=0.01)
        assert traj.xi_norms[2] <= jko.GAUSSIAN_TOL

    def test_replace_keeps_the_minimizer(self):
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 2, eps=0.1)
        doctored = dataclasses.replace(traj, xi_norms=[x / 10 for x in traj.xi_norms])
        assert doctored.minimizer is traj.minimizer

    def test_w2_decreases_monotonically(self):
        spec = kl_spec()
        q = ga.GaussianMeasure.minimizer(spec)
        traj = ref.forward(gauss_p0(), spec, 1.0, 6)
        dists = [ga.w2_bw(m, q) for m in traj.measures]
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_exact_run_seed_independent(self):
        t1 = ref.forward(gauss_p0(), kl_spec(), 1.0, 3, seed=0)
        t2 = ref.forward(gauss_p0(), kl_spec(), 1.0, 3, seed=99)
        for a, b in zip(t1.measures, t2.measures):
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)

    def test_grid_bump_run_deterministic_per_seed(self):
        p0 = qt.from_gaussian(1.0, 1.5, 128)
        kw = dict(eps=0.05, mode=jko.PerturbMode.GRID_BUMP)
        t1 = ref.forward(p0, kl_spec(), 1.0, 2, seed=7, **kw)
        t2 = ref.forward(p0, kl_spec(), 1.0, 2, seed=7, **kw)
        t3 = ref.forward(p0, kl_spec(), 1.0, 2, seed=8, **kw)
        assert np.array_equal(t1.measures[-1].values, t2.measures[-1].values)
        assert not np.array_equal(t1.measures[-1].values, t3.measures[-1].values)

    @pytest.mark.parametrize("gamma, n_steps, eps, seed",
                             [(1.5, 2, 0.1, 1426227163), (0.5, 10, 0.05, 1440510676)])
    def test_grid_newton_converges_below_phi_resolution(self, gamma, n_steps, eps, seed):
        # these bump placements leave max|xi| just above GRID_TOL where the
        # Newton decrease is below the roundoff of the discretized objective,
        # which the line search backtracked on before it backtracked on ||xi||
        p0 = qt.from_gaussian(1.5, 1.5, 2048)
        traj = ref.forward(p0, kl_spec(), gamma, n_steps, eps,
                           jko.PerturbMode.GRID_BUMP, seed=seed)
        assert np.allclose(traj.xi_norms, eps, rtol=0.01)

    def test_grid_bump_run_has_no_runtime_warning(self):
        p0 = qt.from_gaussian(3.0, 2.0, 2048)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = ref.forward(p0, kl_spec(), 1.0, 12, 0.1, jko.PerturbMode.GRID_BUMP, 0)
        assert np.allclose(traj.xi_norms, 0.1, rtol=0.01)


class TestReverse:
    def test_exact_reverse_residuals_zero(self):
        # ||T_n o T_n^{-1} - Id|| under q_n is roundoff on both families
        for traj in (ref.forward(gauss_p0(), kl_spec(), 1.0, 4), grid_traj()):
            qs = pr.run_reverse_exact(traj)
            for t, s, q in zip(traj.transports, traj.inverse_fields, qs[1:], strict=True):
                assert t.inversion_residual(s, q) <= 1e-10

    def test_exact_reverse_no_forward_error_recovers_p0(self):
        # with exact forward steps the reverse chain lands back near p0
        # only insofar as q ~ p_N; here we check transport consistency instead:
        # pushing q_n forward through T_n must give q_{n+1}... i.e. S inverts T
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 3)
        qs = pr.run_reverse_exact(traj)
        assert len(qs) == 4 and qs[-1] is traj.minimizer
        for k in range(3):
            fwd = qs[k].push(traj.transports[k])
            assert fwd.w2(qs[k + 1]) <= 1e-9

    def test_perturbed_reverse_residuals_calibrated(self):
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 4)
        rev, measures = pr.run_reverse_perturbed(traj, 1e-3)
        assert np.allclose(rev.residuals, 1e-3, rtol=0.01)
        assert len(measures) == 5 and measures[-1] is traj.minimizer
        assert [f.name for f in dataclasses.fields(rev)] == [
            "traj", "residuals", "amplitudes", "mode", "seed"]

    def test_perturbed_zero_is_rejected(self):
        # the exact chain is derived (run_reverse_exact), never a perturbed run
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 3)
        for eps_inv in (0.0, -1e-3):
            with pytest.raises(ValueError, match="eps_inv must be positive"):
                pr.run_reverse_perturbed(traj, eps_inv)

    def test_mean_shift_residual_algebra(self):
        # shifting S by a makes T(S(x)) - x = L a with L the slope of T,
        # so the calibrated a equals eps_inv / Lip(T) for affine transports
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 1)
        eps_inv = 1e-3
        rev, _ = pr.run_reverse_perturbed(traj, eps_inv)
        s_exact = ref.inverse(traj.transports[0])
        a = ref.reverse_maps(rev)[0].offset[0] - s_exact.offset[0]
        lip = 1 / traj.inverse_lipschitz[0]  # Lip(T) in 1-D
        assert abs(a) == pytest.approx(eps_inv / lip, rel=1e-6)

    def test_grid_reverse(self):
        p0 = qt.from_gaussian(1.5, 1.2, 128)
        traj = ref.forward(p0, kl_spec(), 1.0, 3)
        rev, measures = pr.run_reverse_perturbed(traj, 5e-3, seed=3)
        assert np.allclose(rev.residuals, 5e-3, rtol=0.01)
        assert measures[0].w2(traj.exact_q0) > 0

    @pytest.mark.parametrize("mode", [jko.PerturbMode.MEAN_SHIFT, jko.PerturbMode.DILATION,
                                      jko.PerturbMode.GRID_BUMP], ids=lambda m: m.value)
    def test_grid_residuals_are_measured_at_the_result(self, mode):
        p0 = qt.from_gaussian(1.5, 1.2, 128)
        traj = ref.forward(p0, kl_spec(), 1.0, 3)
        rev, measures = pr.run_reverse_perturbed(traj, 5e-3, mode, seed=3)
        maps = ref.reverse_maps(rev)
        for k in range(1, traj.n_steps + 1):
            assert rev.residuals[k - 1] == traj.transports[k - 1].inversion_residual(
                pr._fields(maps[k - 1]), measures[k])

    @pytest.mark.parametrize("mode", [jko.PerturbMode.MEAN_SHIFT, jko.PerturbMode.DILATION],
                             ids=lambda m: m.value)
    def test_gaussian_residuals_are_measured_at_the_result(self, mode):
        traj = gauss_traj_3d()
        rev, measures = pr.run_reverse_perturbed(traj, 1e-3, mode)
        maps = ref.reverse_maps(rev)
        for k in range(1, traj.n_steps + 1):
            assert rev.residuals[k - 1] == pytest.approx(traj.transports[k - 1].inversion_residual(
                pr._fields(maps[k - 1]), measures[k]), rel=1e-12)

    def test_gaussian_evaluations_build_no_map(self, monkeypatch):
        traj = gauss_traj_3d()
        counts = {"AffineMap": 0, "evaluations": 0}
        post = ga.AffineMap.__post_init__
        residual = ga.AffineMap.inversion_residual

        def counting_post(self):
            counts["AffineMap"] += 1
            post(self)

        def counting_residual(*args):
            counts["evaluations"] += 1
            return residual(*args)

        monkeypatch.setattr(ga.AffineMap, "__post_init__", counting_post)
        monkeypatch.setattr(ga.AffineMap, "inversion_residual", counting_residual)
        pr.run_reverse_perturbed(traj, 1e-3, jko.PerturbMode.DILATION)
        assert counts["evaluations"] > traj.n_steps
        # per step: the accepted perturbed inverse only (the exact one stays arrays)
        assert counts["AffineMap"] == traj.n_steps

    def test_grid_bump_reverse_calibrated(self):
        p0 = qt.from_gaussian(1.5, 1.2, 128)
        traj = ref.forward(p0, kl_spec(), 1.0, 3)
        rev, _ = pr.run_reverse_perturbed(traj, 5e-3, jko.PerturbMode.GRID_BUMP, seed=3)
        assert np.allclose(rev.residuals, 5e-3, rtol=0.01)
        for s in ref.reverse_maps(rev):
            assert np.min(np.diff(s.y) / np.diff(s.x)) >= 1e-3 - 1e-12


def old_minimizer_in_family(spec, family, m=None):
    """The global minimizer of G in a family, N(mu*, alpha Lambda^{-1}) (on a grid, its
    quantiles at M points), written out as the reference for the `minimizer` methods."""
    lam_inv = np.linalg.inv(spec.potential.lambda_mat)
    g = ga.GaussianMeasure(spec.potential.center, spec.alpha * (0.5 * (lam_inv + lam_inv.T)))
    if family == "gaussian":
        return g
    return qt.from_gaussian(float(g.mean[0]), math.sqrt(float(g.cov[0, 0])), m)


def grid_traj():
    return ref.forward(qt.from_gaussian(1.5, 1.2, 128), kl_spec(), 1.0, 3, 0.05,
                       jko.PerturbMode.GRID_BUMP)


def assert_same_fields(a, b):
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name))


class TestMinimizerDistances:
    TRAJECTORIES = [gauss_traj_3d, gauss_traj_10d, grid_traj]
    IDS = ["gaussian", "gaussian_10d", "grid"]

    @pytest.mark.parametrize("make_traj", TRAJECTORIES, ids=IDS)
    def test_equal_to_the_per_check_expressions(self, make_traj):
        traj = make_traj()
        family = traj.measures[0].family
        m = traj.measures[0].m if family == "grid" else None
        q = old_minimizer_in_family(traj.spec, family, m)
        assert_same_fields(traj.minimizer, q)
        w2 = qt.QuantileGrid.w2 if family == "grid" else ga.w2_bw
        assert traj.w2_to_minimizer == [w2(p, q) for p in traj.measures]
        assert traj.minimizer is traj.minimizer
        assert traj.w2_to_minimizer is traj.w2_to_minimizer

    @pytest.mark.parametrize("make_traj", TRAJECTORIES, ids=IDS)
    def test_reverse_csv_distances_equal_the_pairwise_ones(self, make_traj):
        traj = make_traj()
        (pert, measures), exact = pr.run_reverse_perturbed(traj, 1e-3), pr.run_reverse_exact(traj)
        rows = pr.reverse_csv(pert, measures).strip().split("\n")[1:]
        pairwise = [p.w2(q) for p, q in zip(measures, exact, strict=True)]
        assert [row.split(",")[2] for row in rows] == ["%.17g" % w for w in pairwise[::-1]]
        assert any(w > 0 for w in pairwise)


def negative_control_traj():
    with open(os.path.join(NEGATIVE_CONTROL, "config.txt")) as f:
        cfg = cli.parse_config(f.read())
    return cli._load_trajectory(cfg, cfg.run_id(), NEGATIVE_CONTROL)


class TestExactQ0:
    """Trajectory.exact_q0 is run_reverse_exact's q_0, bit for bit, and builds no map."""

    TRAJECTORIES = [grid_traj, gauss_traj_3d, negative_control_traj,
                    lambda: ref.forward(gauss_p0(), kl_spec(), 1.0, 0)]
    IDS = ["grid", "gaussian_3d", "negative_control", "no_steps"]

    @pytest.mark.parametrize("make_traj", TRAJECTORIES, ids=IDS)
    def test_equals_run_reverse_exact(self, make_traj):
        traj = make_traj()
        assert_same_fields(traj.exact_q0, pr.run_reverse_exact(traj)[0])
        assert traj.exact_q0 is traj.exact_q0

    @pytest.mark.parametrize("make_traj", TRAJECTORIES[:2], ids=IDS[:2])
    def test_builds_no_map(self, make_traj, monkeypatch):
        traj = make_traj()
        built = []
        for cls in (qt.MonotoneMap1D, ga.AffineMap):
            post = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, post=post: built.append(self) or post(self))
        traj.exact_q0
        assert built == []

    def test_one_stacked_inversion_per_trajectory(self, monkeypatch):
        traj = gauss_traj_3d()
        traj.minimizer
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
        pr.estimate_K(traj)  # Lip(T^{-1}) from eigenvalues: no inverse
        assert calls == []
        traj.exact_q0
        pr.run_reverse_exact(traj)
        pr.run_reverse_perturbed(traj, 1e-3)[0].q0  # the run, and q~_0 derived from it
        assert calls == [(traj.n_steps, 3, 3)]


def joined_grid_chain(m, n, seed, below, above):
    """A trajectory of N random grid maps T_n = ot_map(p_{n-1}, p_n) on M points (gaps in
    [0.5, 2], so every slope is within [1/4, 4]), whose pi reaches `below` under p_N's
    first quantile and `above` over its last."""
    rng = np.random.default_rng(seed)
    grids = [qt.QuantileGrid(np.cumsum(rng.uniform(0.5, 2.0, m)) + rng.uniform(-5, 5))
             for _ in range(n + 1)]
    q = grids[-1].values
    pi = qt.QuantileGrid(np.linspace(q[0] - below, q[-1] + above, m))
    transports = [qt.ot_map(a, b) for a, b in zip(grids, grids[1:])]
    return pr.Trajectory(kl_spec(), 1.0, grids, transports, [0.0] * n, [0] * n, pi)


def count_calls(monkeypatch, owner, name, static=False) -> list:
    """Wrap owner.name so each call appends to the returned list."""
    calls, original = [], getattr(owner, name)
    wrapped = lambda *a: calls.append(a) or original(*a)  # noqa: E731
    monkeypatch.setattr(owner, name, staticmethod(wrapped) if static else wrapped)
    return calls


class TestOneMapRuns:
    """The push loop takes one map per run of maps that join knot to knot: the exact grid
    chain's q_n is pi pushed once through the quantile map p_N -> p_n, equal to the
    stepwise chain (reference.pushed_back) to roundoff."""

    @staticmethod
    def assert_stepwise(traj, n):
        got = pr.run_reverse_exact(traj)
        want = ref.pushed_back(traj, traj.inverse_fields)
        assert got[-1] is traj.minimizer
        assert_same_fields(traj.exact_q0, got[0])
        # a few ulps per interpolation, through slopes of at most 4 after it
        scale = max(np.abs(g.values).max() for g in [*traj.measures, traj.minimizer])
        tol = 16 * n * np.finfo(float).eps * scale
        for q, (values,) in zip(got, want, strict=True):
            assert np.abs(q.values - values).max() <= tol

    @settings(max_examples=40, deadline=None)
    @given(st.integers(8, 64), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
           st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_equals_the_stepwise_chain(self, m, n, seed, below, above):
        self.assert_stepwise(joined_grid_chain(m, n, seed, below, above), n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(8, 64), st.integers(2, 12), st.integers(0, 2 ** 32 - 1),
           st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.data())
    def test_a_moved_map_splits_the_run(self, m, n, seed, below, above, data):
        traj = joined_grid_chain(m, n, seed, below, above)
        # T_{k+1}'s knot values: T_{k+2}^{-1} no longer ends where T_{k+1}^{-1} starts (moving
        # T_N's would only move the chain's first source)
        k = data.draw(st.integers(0, n - 2))
        transports = list(traj.transports)
        transports[k] = qt.MonotoneMap1D(transports[k].x, transports[k].y + 0.05)
        moved = dataclasses.replace(traj, transports=transports)
        self.assert_stepwise(moved, n)
        runs = pr._pushed(pr._fields(moved.minimizer), moved.transports[::-1],
                          moved.inverse_fields[::-1], every=False)
        assert len(runs) == 3  # pi and the ends of the two runs

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_grid_exact_q0_is_one_interpolation(self, n, monkeypatch):
        traj = ref.forward(qt.from_gaussian(1.5, 1.2, 128), kl_spec(), 1.0, n, 0.05,
                           jko.PerturbMode.GRID_BUMP)
        traj.minimizer, traj.inverse_fields
        calls = count_calls(monkeypatch, qt, "apply_map")
        traj.exact_q0
        assert len(calls) == 1
        # pi through the quantile map p_N -> p_0
        for got, want in zip(calls[0], (traj.measures[n], traj.measures[0], traj.minimizer)):
            assert np.array_equal(got, want.values)
        calls.clear()
        pr.run_reverse_exact(traj)  # q_0..q_{N-1}, each from pi
        assert len(calls) == n and all(c[2] is traj.minimizer.values for c in calls)

    @pytest.mark.parametrize("make_traj", [grid_traj, gauss_traj_3d], ids=["grid", "gaussian"])
    def test_perturbed_and_gaussian_chains_take_n_steps(self, make_traj, monkeypatch):
        traj = make_traj()
        rev, _ = pr.run_reverse_perturbed(traj, 1e-3, jko.PerturbMode.MEAN_SHIFT, seed=5)
        fresh = dataclasses.replace(rev)
        cls = type(traj.transports[0])
        calls = count_calls(monkeypatch, cls, "push_fields", static=True)
        fresh.q0
        assert len(calls) == traj.n_steps
        if cls is ga.AffineMap:
            calls.clear()
            traj.exact_q0
            assert len(calls) == traj.n_steps


# (trajectory, reverse mode, eps_inv) of the perturbed reverse runs rebuilt from their amplitudes
PERTURBED_RUNS = [(grid_traj, jko.PerturbMode.GRID_BUMP, 5e-3),
                  (grid_traj, jko.PerturbMode.MEAN_SHIFT, 5e-3),
                  (grid_traj, jko.PerturbMode.DILATION, 5e-3),
                  (gauss_traj_3d, jko.PerturbMode.MEAN_SHIFT, 1e-3),
                  (gauss_traj_3d, jko.PerturbMode.DILATION, 1e-3)]
PERTURBED_IDS = ["grid_bump", "grid_mean_shift", "grid_dilation", "gaussian_3d_mean_shift",
                 "gaussian_3d_dilation"]


def fresh_perturbed_run(make_traj, mode, eps_inv):
    """A perturbed reverse run, the chain q~_0..q~_N it built, and the same record
    rebuilt from its fields alone."""
    rev, measures = pr.run_reverse_perturbed(make_traj(), eps_inv, mode, seed=5)
    return rev, measures, dataclasses.replace(rev)


class TestDerivedReverse:
    """A perturbed ReverseRun derives q~_0 from its amplitudes, bit for bit the run's."""

    @pytest.mark.parametrize("make_traj, mode, eps_inv", PERTURBED_RUNS, ids=PERTURBED_IDS)
    def test_equals_the_run_bit_for_bit(self, make_traj, mode, eps_inv):
        rev, measures, fresh = fresh_perturbed_run(make_traj, mode, eps_inv)
        assert fresh.amplitudes == rev.amplitudes and "q0" not in vars(fresh)
        assert all(a > 0 for a in rev.amplitudes)
        assert_same_fields(fresh.q0, measures[0])
        # each recorded residual, recomputed from the derived S_n at the run's q~_n
        maps = ref.reverse_maps(fresh)
        for k, (t, s) in enumerate(zip(fresh.traj.transports, maps, strict=True), 1):
            assert rev.residuals[k - 1] == t.inversion_residual(pr._fields(s), measures[k])
        for a, b in zip(ref.reverse_chain(fresh), measures, strict=True):
            assert_same_fields(a, b)

    @pytest.mark.parametrize("make_traj, mode, eps_inv", PERTURBED_RUNS[::4],
                             ids=PERTURBED_IDS[::4])
    def test_q0_builds_no_map_no_intermediate_measure_and_runs_no_eigh(
            self, make_traj, mode, eps_inv, monkeypatch):
        _, measures, fresh = fresh_perturbed_run(make_traj, mode, eps_inv)
        fresh.traj.minimizer
        built = []
        for cls in (qt.MonotoneMap1D, ga.AffineMap, qt.QuantileGrid, ga.GaussianMeasure):
            post = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, post=post: built.append(type(self)) or post(self))
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a, **k: built.append("eigh") or eigh(*a, **k))
        fresh.q0
        assert built == [type(measures[0])]


# (method, module, the traced module function it calls, its arguments)
FAMILY_METHODS = [
    ("push", qt, "pushforward", ("p", "t")),
    ("w2", ga, "w2_bw", ("p", "q")),
]


class TestFamilyMethods:
    """A family method that forwards to a traced module function equals it, bit for bit."""

    @staticmethod
    def operands(module):
        traj = grid_traj() if module is qt else gauss_traj_3d()
        return {"p": traj.measures[1], "q": traj.measures[2], "t": traj.transports[2]}

    @pytest.mark.parametrize("method, module, func, args", FAMILY_METHODS,
                             ids=[f"{m.__name__.rsplit('.', 1)[-1]}.{f}"
                                  for _, m, f, _ in FAMILY_METHODS])
    def test_method_equals_module_function(self, method, module, func, args, monkeypatch):
        ops = self.operands(module)
        receiver, *rest = [ops[a] for a in args]
        original = getattr(module, func)
        expected = original(receiver, *rest)
        calls = []

        def counting(*a):
            calls.append(a)
            return original(*a)

        # a tracer patches the module attribute; the method must call through it
        monkeypatch.setattr(module, func, counting)
        got = getattr(receiver, method)(*rest)
        assert len(calls) == 1
        if isinstance(expected, float):
            assert got == expected
        else:
            assert_same_fields(got, expected)

    @pytest.mark.parametrize("make_traj", [gauss_traj_3d, grid_traj], ids=["gaussian", "grid"])
    def test_minimizer_equals_the_old_minimizer_expression(self, make_traj):
        traj = make_traj()
        family = traj.measures[0].family
        m = traj.measures[0].m if family == "grid" else None
        expected = old_minimizer_in_family(traj.spec, family, m)
        for p in traj.measures:
            assert_same_fields(p.minimizer(traj.spec), expected)
        assert_same_fields(traj.minimizer, expected)

    def test_grid_minimizer_needs_a_1d_objective(self):
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(np.eye(2), np.zeros(2)))
        with pytest.raises(ValueError, match="1-D objective"):
            qt.from_gaussian(0.0, 1.0, 16).minimizer(spec)

    def test_minimizer_sd_keeps_its_last_bits(self):
        # The sd is sqrt(alpha * (1 / lambda)), as before the family method; for these
        # seeded pairs sqrt(alpha / lambda) differs from it in the last bit.
        rng = np.random.default_rng(2594)
        pairs = []
        while len(pairs) < 20:
            alpha, lam = np.exp(rng.uniform(-3.0, 3.0, 2))
            if math.sqrt(alpha / lam) != math.sqrt(alpha * (1 / lam)):
                pairs.append((float(alpha), float(lam)))
        grid = qt.from_gaussian(0.0, 1.0, 16)
        for alpha, lam in pairs:
            spec = fn.ObjectiveSpec(fn.QuadraticPotential(np.array([[lam]]), np.array([0.25])),
                                    fn.Variant.WEIGHTED, alpha)
            sd = math.sqrt(alpha * (1 / lam))
            assert math.sqrt(float(ga.GaussianMeasure.minimizer(spec).cov[0, 0])) == sd
            assert_same_fields(grid.minimizer(spec), qt.from_gaussian(0.25, sd, 16))
            assert_same_fields(grid.minimizer(spec), old_minimizer_in_family(spec, "grid", 16))


class TestOuSmooth:
    def test_single_atom_exact_gaussian(self):
        # N(e^{-delta} x0, 1 - e^{-2 delta}) at the grid's quantile points, bit for bit, whether
        # its mean and sd are computed as floats or read off that GaussianMeasure
        p = pr.AtomicMeasure(np.array([[2.0]]), np.array([1.0]))
        g = pr.ou_smooth(p, 0.5, m=512)
        assert_same_fields(g, qt.from_gaussian(2.0 * math.exp(-0.5),
                                               math.sqrt(1 - math.exp(-1.0)), 512))
        old = ga.GaussianMeasure(math.exp(-0.5) * p.locations[0], (1 - math.exp(-1.0)) * np.eye(1))
        assert_same_fields(g, qt.from_gaussian(float(old.mean[0]),
                                               math.sqrt(float(old.cov[0, 0])), 512))

    def test_multidim_atoms_rejected(self):
        p = pr.AtomicMeasure(np.array([[2.0, -1.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="1-D only"):
            pr.ou_smooth(p, 0.5)

    def test_multi_atom_returns_grid(self):
        p = pr.AtomicMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        g = pr.ou_smooth(p, 0.1, m=512)
        assert isinstance(g, qt.QuantileGrid)
        # symmetric mixture: median at 0, antisymmetric quantiles
        assert np.allclose(g.values, -g.values[::-1], atol=1e-8)

    def test_large_delta_approaches_standard_normal(self):
        p = pr.AtomicMeasure(np.array([[-1.0], [2.0]]), np.array([0.3, 0.7]))
        g = pr.ou_smooth(p, 10.0, m=1024)
        ref = qt.from_gaussian(0, 1, 1024)
        assert g.w2(ref) <= 1e-3

    def test_multi_atom_multidim_rejected(self):
        p = pr.AtomicMeasure(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            pr.ou_smooth(p, 0.1)

    def test_smoothing_distance_bound(self):
        # W2(rho_delta, P)^2 <= delta^2 M2(P) + 2 delta d
        rng = np.random.default_rng(5)
        for _ in range(5):
            k = rng.integers(2, 6)
            locs = rng.uniform(-2, 2, (k, 1))
            w = rng.uniform(0.2, 1, k)
            p = pr.AtomicMeasure(locs, w / w.sum())
            for delta in (1e-3, 1e-2, 0.1, 1.0):
                lhs = pr.w2_sq_smoothed_to_atoms(p, delta)
                rhs = delta ** 2 * p.second_moment() + 2 * delta * 1
                assert lhs <= rhs + 1e-12

    def test_smoothed_distance_matches_grid_estimate(self):
        p = pr.AtomicMeasure(np.array([[-1.0], [1.5]]), np.array([0.4, 0.6]))
        delta = 0.05
        exact = math.sqrt(pr.w2_sq_smoothed_to_atoms(p, delta))
        grid = pr.ou_smooth(p, delta, m=8192)
        est = pr.w2_grid_to_atoms(grid, p)
        assert est == pytest.approx(exact, rel=2e-3)


class TestW2GridToAtoms:
    def test_point_mass(self):
        g = qt.from_gaussian(0, 1, 1024)
        p = pr.AtomicMeasure(np.array([[0.0]]), np.array([1.0]))
        # W2(N(0,1), delta_0)^2 = 1
        assert pr.w2_grid_to_atoms(g, p) == pytest.approx(1.0, abs=5e-3)

    def test_matching_two_atom_staircase(self):
        # grid that equals the atomic quantile function almost everywhere
        vals = np.concatenate([np.full(32, -1.0) + 1e-9 * np.arange(32),
                               np.full(32, 1.0) + 1e-9 * np.arange(32)])
        g = qt.QuantileGrid(np.sort(vals))
        p = pr.AtomicMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        assert pr.w2_grid_to_atoms(g, p) <= 0.2


class TestEstimateK:
    def test_equal_variance_chain_has_zero_K(self):
        # transports are pure translations (slope 1) when variances match
        p0 = ga.GaussianMeasure(np.array([3.0]), np.eye(1))
        traj = ref.forward(p0, kl_spec(), 1.0, 3)
        assert pr.estimate_K(traj) <= 1e-9

    def test_log2_fixture(self):
        # lam=2, gamma=1, p0=N(2,4): first transport has slope 1/2, so the
        # inverse slope is 2 and K = log 2; later slopes are closer to 1
        traj = ref.forward(gauss_p0(), kl_spec(lam=2.0), 1.0, 4)
        assert pr.estimate_K(traj) == pytest.approx(math.log(2), abs=1e-7)

    def test_empty_trajectory_rejected(self):
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 0)
        with pytest.raises(ValueError):
            pr.estimate_K(traj)


class TestInverseLipschitz:
    """Lip(T^{-1}) read off T equals the Lipschitz constant of the built inverse, bit for bit."""

    def test_gaussian(self):
        traj = gauss_traj_3d()
        assert traj.inverse_lipschitz == [1 / np.linalg.eigvalsh(t.linear)[0]
                                          for t in traj.transports]
        # the spectral norm of the built inverse, up to roundoff
        assert traj.inverse_lipschitz == pytest.approx(
            [np.linalg.norm(ref.inverse(t).linear, 2) for t in traj.transports], rel=1e-13)

    def test_grid(self):
        p0 = qt.from_gaussian(1.5, 1.2, 128)
        traj = ref.forward(p0, kl_spec(), 1.0, 3, eps=0.05,
                           mode=jko.PerturbMode.GRID_BUMP, seed=2)
        invs = [ref.inverse(t) for t in traj.transports]
        assert traj.inverse_lipschitz == [float(np.max(np.diff(inv.y) / np.diff(inv.x)))
                                          for inv in invs]


def random_gauss_traj(d, seed, n=5):
    """n perturbed steps from a random p0 whose covariance does not commute with Lambda,
    under a weighted objective with a random centre."""
    rng = np.random.default_rng([seed, d])
    a, b = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    spec = fn.ObjectiveSpec(fn.QuadraticPotential(a @ a.T / d + 0.5 * np.eye(d),
                                                  rng.standard_normal(d)),
                            fn.Variant.WEIGHTED, rng.uniform(0.5, 2.0))
    p0 = ga.GaussianMeasure(rng.standard_normal(d), b @ b.T / d + 0.5 * np.eye(d))
    mode = (jko.PerturbMode.DILATION, jko.PerturbMode.MEAN_SHIFT)[seed % 2]
    return ref.forward(p0, spec, rng.uniform(0.5, 1.5), n, eps=0.05, mode=mode)


class TestChainWideValues:
    """The trajectory's chain-wide objective values and inverse-Lipschitz constants equal
    the per-item ones bit for bit (==, not approx)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2, 10, 30])
    def test_gaussian(self, d, seed):
        traj = random_gauss_traj(d, seed)
        assert traj.objective_values == [fn.evaluate(traj.spec, m) for m in traj.measures]
        assert traj.objective_values == [ref.gaussian_objective(m, traj.spec)
                                          for m in traj.measures]
        assert traj.inverse_lipschitz == [1 / np.linalg.eigvalsh(t.linear)[0]
                                          for t in traj.transports]
        assert traj.inverse_lipschitz == pytest.approx(
            [np.linalg.norm(np.linalg.inv(t.linear), 2) for t in traj.transports], rel=1e-13)

    def test_grid(self):
        traj = grid_traj()
        assert traj.objective_values == [fn.evaluate(traj.spec, m) for m in traj.measures]
        assert traj.inverse_lipschitz == [float(np.max(np.diff(t.x) / np.diff(t.y)))
                                          for t in traj.transports]

    def test_computed_once(self, monkeypatch):
        traj = random_gauss_traj(10, 0)
        calls = []
        objectives = fn.objectives
        monkeypatch.setattr(fn, "objectives",
                            lambda spec, ms: calls.append(len(ms)) or objectives(spec, ms))
        ct.check_evi(traj)
        ct.check_forward_rate(traj)
        pr.forward_csv(traj)
        # one chain-wide evaluation; the others are single measures (the minimizer's G)
        assert calls.count(len(traj.measures)) == 1 and set(calls) == {1, len(traj.measures)}
        assert traj.inverse_lipschitz is traj.inverse_lipschitz

    def test_no_steps(self):
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 0)
        assert traj.inverse_lipschitz == []
        assert traj.objective_values == [fn.evaluate(traj.spec, traj.measures[0])]


class TestCsv:
    def test_forward_csv_shape(self):
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 3)
        lines = pr.forward_csv(traj).strip().split("\n")
        assert lines[0] == "n,w2_to_q,G_value,xi_norm,lipschitz_Tinv,solver_iterations"
        assert len(lines) == 5
        row0 = lines[1].split(",")
        assert row0[0] == "0" and row0[3] == "" and row0[4] == "" and row0[5] == ""
        row1 = lines[2].split(",")
        assert float(row1[1]) < float(row0[1])  # W2 shrinks after one step

    def test_forward_csv_deterministic(self):
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 2)
        assert pr.forward_csv(traj) == pr.forward_csv(traj)

    def test_reverse_csv_shape(self):
        traj = ref.forward(gauss_p0(), kl_spec(), 1.0, 3)
        lines = pr.reverse_csv(*pr.run_reverse_perturbed(traj, 1e-3)).strip().split("\n")
        assert lines[0] == "n,residual,w2_qtilde_to_q_exact"
        assert len(lines) == 5
        assert lines[1].split(",")[0] == "3"  # rows run N..0
        assert lines[-1].split(",")[0] == "0"
        assert lines[-1].split(",")[1] == ""  # no residual on the n=0 row
        assert float(lines[1].split(",")[2]) == 0.0  # q~_N = q exactly
