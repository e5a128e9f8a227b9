import dataclasses
import math
import os
import warnings

import numpy as np
import pytest

from jkolab import functionals as fn
from jkolab import gaussian as ga
from jkolab import jko
from jkolab import process as pr
from jkolab import quantile as qt
from jkolab import serialize as sz

NEGATIVE_CONTROL = os.path.join(os.path.dirname(__file__), "..", "fixtures", "negative_control",
                                "f386adaefbcf_trajectory.npz")


def kl_spec(lam=1.0, d=1):
    return fn.ObjectiveSpec(fn.QuadraticPotential(lam * np.eye(d), np.zeros(d)))


def gauss_p0(mean=2.0, var=4.0):
    return ga.GaussianMeasure(np.array([mean]), np.array([[var]]))


def gauss_traj_3d(n=3):
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    spec = fn.ObjectiveSpec(fn.QuadraticPotential(a @ a.T + 0.5 * np.eye(3), np.zeros(3)))
    p0 = ga.GaussianMeasure(rng.standard_normal(3), b @ b.T + 0.5 * np.eye(3))
    return pr.run_forward(p0, spec, 1.0, n, eps_schedule=0.05, mode=jko.PerturbMode.DILATION)


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
        for args in [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]:
            with pytest.raises(ValueError):
                pr.steps_needed(*args)


class TestRunForward:
    def test_gaussian_mean_chain(self):
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 4)
        means = [m.mean[0] for m in traj.measures]
        assert np.allclose(means, [2, 1, 0.5, 0.25, 0.125], atol=1e-8)
        assert all(x <= jko.GAUSSIAN_TOL for x in traj.xi_norms)

    def test_zero_steps(self):
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 0)
        assert traj.n_steps == 0 and len(traj.measures) == 1

    def test_scalar_schedule_broadcast(self):
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 3, eps_schedule=0.1)
        assert np.allclose(traj.xi_norms, 0.1, rtol=0.01)

    def test_list_schedule(self):
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 3,
                              eps_schedule=[0.0, 0.1, 0.0])
        assert traj.xi_norms[0] <= jko.GAUSSIAN_TOL
        assert traj.xi_norms[1] == pytest.approx(0.1, rel=0.01)
        assert traj.xi_norms[2] <= jko.GAUSSIAN_TOL

    def test_schedule_length_mismatch(self):
        with pytest.raises(ValueError):
            pr.run_forward(gauss_p0(), kl_spec(), 1.0, 3, eps_schedule=[0.1, 0.1])

    def test_w2_decreases_monotonically(self):
        spec = kl_spec()
        q = fn.global_minimizer(spec)
        traj = pr.run_forward(gauss_p0(), spec, 1.0, 6)
        dists = [ga.w2_bw(m, q) for m in traj.measures]
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_exact_run_seed_independent(self):
        t1 = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 3, seed=0)
        t2 = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 3, seed=99)
        for a, b in zip(t1.measures, t2.measures):
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)

    def test_grid_bump_run_deterministic_per_seed(self):
        p0 = qt.from_gaussian(1.0, 1.5, 128)
        kw = dict(eps_schedule=0.05, mode=jko.PerturbMode.GRID_BUMP)
        t1 = pr.run_forward(p0, kl_spec(), 1.0, 2, seed=7, **kw)
        t2 = pr.run_forward(p0, kl_spec(), 1.0, 2, seed=7, **kw)
        t3 = pr.run_forward(p0, kl_spec(), 1.0, 2, seed=8, **kw)
        assert np.array_equal(t1.measures[-1].values, t2.measures[-1].values)
        assert not np.array_equal(t1.measures[-1].values, t3.measures[-1].values)

    @pytest.mark.parametrize("gamma, n_steps, eps, seed",
                             [(1.5, 2, 0.1, 1426227163), (0.5, 10, 0.05, 1440510676)])
    def test_grid_newton_converges_below_phi_resolution(self, gamma, n_steps, eps, seed):
        # these bump placements leave max|xi| just above GRID_TOL where the
        # Newton decrease is below the roundoff of the discretized objective
        p0 = qt.from_gaussian(1.5, 1.5, 2048)
        traj = pr.run_forward(p0, kl_spec(), gamma, n_steps, eps,
                              jko.PerturbMode.GRID_BUMP, seed=seed)
        assert np.allclose(traj.xi_norms, eps, rtol=0.01)

    def test_grid_bump_run_has_no_runtime_warning(self):
        p0 = qt.from_gaussian(3.0, 2.0, 2048)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = pr.run_forward(p0, kl_spec(), 1.0, 12, 0.1, jko.PerturbMode.GRID_BUMP, 0)
        assert np.allclose(traj.xi_norms, 0.1, rtol=0.01)


class TestReverse:
    def test_exact_reverse_residuals_zero(self):
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 4)
        rev = pr.run_reverse_exact(traj)
        assert rev.exact
        assert np.max(rev.residuals) <= 1e-10

    def test_exact_reverse_no_forward_error_recovers_p0(self):
        # with exact forward steps the reverse chain lands back near p0
        # only insofar as q ~ p_N; here we check transport consistency instead:
        # pushing q_n forward through T_n must give q_{n+1}... i.e. S inverts T
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 3)
        rev = pr.run_reverse_exact(traj)
        for k in range(3):
            fwd = rev.measures[k].push(traj.transports[k])
            assert fwd.w2(rev.measures[k + 1]) <= 1e-9

    def test_perturbed_reverse_residuals_calibrated(self):
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 4)
        rev = pr.run_reverse_perturbed(traj, 1e-3)
        assert not rev.exact
        assert np.allclose(rev.residuals, 1e-3, rtol=0.01)

    def test_perturbed_zero_is_exact(self):
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 3)
        rev = pr.run_reverse_perturbed(traj, 0.0)
        assert rev.exact

    def test_mean_shift_residual_algebra(self):
        # shifting S by a makes T(S(x)) - x = L a with L the slope of T,
        # so the calibrated a equals eps_inv / Lip(T) for affine transports
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 1)
        eps_inv = 1e-3
        rev = pr.run_reverse_perturbed(traj, eps_inv)
        s_exact = traj.transports[0].inverse()
        a = rev.transports[0].offset[0] - s_exact.offset[0]
        lip = 1 / traj.transports[0].inverse_lipschitz()  # Lip(T) in 1-D
        assert abs(a) == pytest.approx(eps_inv / lip, rel=1e-6)

    def test_grid_reverse(self):
        p0 = qt.from_gaussian(1.5, 1.2, 128)
        traj = pr.run_forward(p0, kl_spec(), 1.0, 3)
        rev = pr.run_reverse_perturbed(traj, 5e-3, seed=3)
        assert np.allclose(rev.residuals, 5e-3, rtol=0.01)
        exact = pr.run_reverse_exact(traj)
        assert rev.measures[0].w2(exact.measures[0]) > 0

    @pytest.mark.parametrize("mode", [jko.PerturbMode.MEAN_SHIFT, jko.PerturbMode.DILATION,
                                      jko.PerturbMode.GRID_BUMP], ids=lambda m: m.value)
    def test_grid_residuals_are_measured_at_the_result(self, mode):
        p0 = qt.from_gaussian(1.5, 1.2, 128)
        traj = pr.run_forward(p0, kl_spec(), 1.0, 3)
        rev = pr.run_reverse_perturbed(traj, 5e-3, mode, seed=3)
        for k in range(1, traj.n_steps + 1):
            assert rev.residuals[k - 1] == pr._inversion_residual(
                traj.transports[k - 1], pr._fields(rev.transports[k - 1]), rev.measures[k])

    @pytest.mark.parametrize("mode", [jko.PerturbMode.MEAN_SHIFT, jko.PerturbMode.DILATION],
                             ids=lambda m: m.value)
    def test_gaussian_residuals_are_measured_at_the_result(self, mode):
        traj = gauss_traj_3d()
        rev = pr.run_reverse_perturbed(traj, 1e-3, mode)
        for k in range(1, traj.n_steps + 1):
            assert rev.residuals[k - 1] == pytest.approx(pr._inversion_residual(
                traj.transports[k - 1], pr._fields(rev.transports[k - 1]), rev.measures[k]),
                rel=1e-12)

    def test_gaussian_evaluations_build_no_map(self, monkeypatch):
        traj = gauss_traj_3d()
        counts = {"AffineMap": 0, "evaluations": 0}
        post = ga.AffineMap.__post_init__
        residual = pr._gaussian_inversion_residual

        def counting_post(self):
            counts["AffineMap"] += 1
            post(self)

        def counting_residual(*args):
            counts["evaluations"] += 1
            return residual(*args)

        monkeypatch.setattr(ga.AffineMap, "__post_init__", counting_post)
        monkeypatch.setattr(pr, "_gaussian_inversion_residual", counting_residual)
        pr.run_reverse_perturbed(traj, 1e-3, jko.PerturbMode.DILATION)
        assert counts["evaluations"] > traj.n_steps
        # per step: the accepted perturbed inverse only (the exact one stays arrays)
        assert counts["AffineMap"] == traj.n_steps

    def test_grid_bump_reverse_calibrated(self):
        p0 = qt.from_gaussian(1.5, 1.2, 128)
        traj = pr.run_forward(p0, kl_spec(), 1.0, 3)
        rev = pr.run_reverse_perturbed(traj, 5e-3, jko.PerturbMode.GRID_BUMP, seed=3)
        assert np.allclose(rev.residuals, 5e-3, rtol=0.01)
        for s in rev.transports:
            assert np.min(np.diff(s.y) / np.diff(s.x)) >= 1e-3 - 1e-12


def old_minimizer_in_family(spec, family, m=None):
    """The global minimizer of G in a family, written out as the reference for `render`."""
    g = fn.global_minimizer(spec)
    if family == "gaussian":
        return g
    return qt.from_gaussian(float(g.mean[0]), math.sqrt(float(g.cov[0, 0])), m)


def grid_traj():
    return pr.run_forward(qt.from_gaussian(1.5, 1.2, 128), kl_spec(), 1.0, 3, 0.05,
                          jko.PerturbMode.GRID_BUMP)


def assert_same_fields(a, b):
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name))


class TestMinimizerDistances:
    @pytest.mark.parametrize("make_traj", [gauss_traj_3d, grid_traj], ids=["gaussian", "grid"])
    def test_equal_to_the_per_check_expressions(self, make_traj):
        traj = make_traj()
        m = traj.measures[0].m if traj.family == "grid" else None
        q = old_minimizer_in_family(traj.spec, traj.family, m)
        assert_same_fields(traj.minimizer, q)
        w2 = qt.w2 if traj.family == "grid" else ga.w2_bw
        assert traj.w2_to_minimizer == [w2(p, q) for p in traj.measures]
        assert traj.minimizer is traj.minimizer
        assert traj.w2_to_minimizer is traj.w2_to_minimizer


def negative_control_traj():
    with open(NEGATIVE_CONTROL, "rb") as f:
        return sz.trajectory_from_json(f.read())


class TestExactQ0:
    """Trajectory.exact_q0 is run_reverse_exact's q_0, bit for bit, and builds no map."""

    TRAJECTORIES = [grid_traj, gauss_traj_3d, negative_control_traj,
                    lambda: pr.run_forward(gauss_p0(), kl_spec(), 1.0, 0)]
    IDS = ["grid", "gaussian_3d", "negative_control", "no_steps"]

    @pytest.mark.parametrize("make_traj", TRAJECTORIES, ids=IDS)
    def test_equals_run_reverse_exact(self, make_traj):
        traj = make_traj()
        assert_same_fields(traj.exact_q0, pr.run_reverse_exact(traj).measures[0])
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

    def test_one_inversion_per_gaussian_map(self, monkeypatch):
        traj = gauss_traj_3d()
        traj.minimizer
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(0) or inv(a))
        pr.estimate_K(traj)
        traj.exact_q0
        pr.run_reverse_exact(traj)
        pr.run_reverse_perturbed(traj, 1e-3)
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
    """A perturbed reverse run and the same record rebuilt from its fields alone."""
    rev = pr.run_reverse_perturbed(make_traj(), eps_inv, mode, seed=5)
    return rev, dataclasses.replace(rev)


class TestDerivedReverse:
    """A perturbed ReverseRun rebuilds its maps, measures and q~_0 from its amplitudes."""

    @pytest.mark.parametrize("make_traj, mode, eps_inv", PERTURBED_RUNS, ids=PERTURBED_IDS)
    def test_equals_the_run_bit_for_bit(self, make_traj, mode, eps_inv):
        rev, fresh = fresh_perturbed_run(make_traj, mode, eps_inv)
        assert fresh.amplitudes == rev.amplitudes and "q0" not in vars(fresh)
        assert all(a > 0 for a in rev.amplitudes)
        assert_same_fields(fresh.q0, rev.measures[0])
        for a, b in zip(fresh.transports, rev.transports, strict=True):
            assert_same_fields(a, b)
        for a, b in zip(fresh.measures, rev.measures, strict=True):
            assert_same_fields(a, b)

    @pytest.mark.parametrize("make_traj, mode, eps_inv", PERTURBED_RUNS[::4],
                             ids=PERTURBED_IDS[::4])
    def test_q0_builds_no_map_no_intermediate_measure_and_runs_no_eigh(
            self, make_traj, mode, eps_inv, monkeypatch):
        rev, fresh = fresh_perturbed_run(make_traj, mode, eps_inv)
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
        assert built == [type(rev.measures[0])]


# (method, module, the module function it calls, its arguments) in both families
FAMILY_METHODS = [
    ("w2", qt, "w2", ("p", "q")),
    ("kl", qt, "grid_kl", ("p", "q")),
    ("push", qt, "pushforward", ("p", "t")),
    ("inverse", qt, "invert_map", ("t",)),
    ("w2", ga, "w2_bw", ("p", "q")),
    ("kl", ga, "kl_between", ("p", "q")),
    ("push", ga, "pushforward_affine", ("p", "t")),
    ("inverse", ga, "invert_affine", ("t",)),
]


class TestFamilyMethods:
    """Each family method equals the module function it calls, bit for bit, in both families."""

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
    def test_render_equals_the_old_minimizer_expression(self, make_traj):
        traj = make_traj()
        m = traj.measures[0].m if traj.family == "grid" else None
        for p in traj.measures:
            assert_same_fields(p.render(fn.global_minimizer(traj.spec)),
                               old_minimizer_in_family(traj.spec, traj.family, m))

    def test_grid_render_needs_a_1d_gaussian(self):
        g = ga.GaussianMeasure(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="1-D objective"):
            qt.from_gaussian(0.0, 1.0, 16).render(g)


class TestOuSmooth:
    def test_single_atom_exact_gaussian(self):
        p = pr.AtomicMeasure(np.array([[2.0, -1.0]]), np.array([1.0]))
        g = pr.ou_smooth(p, 0.5)
        e = math.exp(-0.5)
        assert np.allclose(g.mean, [2 * e, -e], atol=1e-14)
        assert np.allclose(g.cov, (1 - math.exp(-1.0)) * np.eye(2), atol=1e-14)

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
        assert qt.w2(g, ref) <= 1e-3

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
        traj = pr.run_forward(p0, kl_spec(), 1.0, 3)
        assert pr.estimate_K(traj) <= 1e-9

    def test_log2_fixture(self):
        # lam=2, gamma=1, p0=N(2,4): first transport has slope 1/2, so the
        # inverse slope is 2 and K = log 2; later slopes are closer to 1
        traj = pr.run_forward(gauss_p0(), kl_spec(lam=2.0), 1.0, 4)
        assert pr.estimate_K(traj) == pytest.approx(math.log(2), abs=1e-7)

    def test_empty_trajectory_rejected(self):
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 0)
        with pytest.raises(ValueError):
            pr.estimate_K(traj)


class TestInverseLipschitz:
    """Lip(T^{-1}) read off T equals the Lipschitz constant of the built inverse, bit for bit."""

    def test_gaussian(self):
        for t in gauss_traj_3d().transports:
            assert t.inverse_lipschitz() == float(
                np.linalg.norm(ga.invert_affine(t).linear, 2))

    def test_grid(self):
        p0 = qt.from_gaussian(1.5, 1.2, 128)
        traj = pr.run_forward(p0, kl_spec(), 1.0, 3, eps_schedule=0.05,
                              mode=jko.PerturbMode.GRID_BUMP, seed=2)
        for t in traj.transports:
            inv = qt.invert_map(t)
            assert t.inverse_lipschitz() == float(np.max(np.diff(inv.y) / np.diff(inv.x)))


class TestCsv:
    def test_forward_csv_shape(self):
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 3)
        lines = pr.forward_csv(traj).strip().split("\n")
        assert lines[0] == "n,w2_to_q,G_value,xi_norm,lipschitz_Tinv,solver_iterations"
        assert len(lines) == 5
        row0 = lines[1].split(",")
        assert row0[0] == "0" and row0[3] == "" and row0[4] == "" and row0[5] == ""
        row1 = lines[2].split(",")
        assert float(row1[1]) < float(row0[1])  # W2 shrinks after one step

    def test_forward_csv_deterministic(self):
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 2)
        assert pr.forward_csv(traj) == pr.forward_csv(traj)

    def test_reverse_csv_shape(self):
        traj = pr.run_forward(gauss_p0(), kl_spec(), 1.0, 3)
        rev = pr.run_reverse_perturbed(traj, 1e-3)
        exact = pr.run_reverse_exact(traj)
        lines = pr.reverse_csv(rev, exact).strip().split("\n")
        assert lines[0] == "n,residual,w2_qtilde_to_q_exact"
        assert len(lines) == 5
        assert lines[1].split(",")[0] == "3"  # rows run N..0
        assert lines[-1].split(",")[0] == "0"
        assert lines[-1].split(",")[1] == ""  # no residual on the n=0 row
        assert float(lines[1].split(",")[2]) == 0.0  # q~_N = q exactly
