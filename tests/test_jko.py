import numpy as np
import pytest

from jkolab import cli
from jkolab import functionals as fn
from jkolab import gaussian as ga
from jkolab import jko
from jkolab import process as pr
from jkolab import quantile as qt

import oracles as orc
import reference as ref


# the standard suite's grid config (scripts/run_standard_suite.py)
STANDARD_GRID = """
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


def kl_spec(lam=1.0, center=0.0, d=1):
    return fn.ObjectiveSpec(fn.QuadraticPotential(lam * np.eye(d), center * np.ones(d)))


def proximal_objective(p_n, measure, spec, gamma):
    """F(measure) = G(measure) + W2^2(p_n, measure) / (2 gamma), Gaussian family."""
    return fn.evaluate(spec, measure) + ga.w2_bw(p_n, measure) ** 2 / (2.0 * gamma)


def closed_form_next_variance(s_n, gamma, lam=1.0, alpha=1.0):
    # stationarity for the 1-D step: lam + (1 - sqrt(s_n/s))/gamma = alpha/s
    from scipy.optimize import brentq
    f = lambda s: lam + (1 - np.sqrt(s_n / s)) / gamma - alpha / s
    return brentq(f, 1e-8, 100.0, xtol=1e-15)


class TestGaussianStep:
    def test_mean_contracts_exactly(self):
        # m_{n+1} = m_n / (1 + gamma) for lam=1, center=0
        p = ga.GaussianMeasure(np.array([2.0]), np.eye(1))
        res = jko.jko_step_gaussian(p, kl_spec(), 1.0)
        assert res.next_measure.mean[0] == pytest.approx(1.0, abs=1e-9)

    def test_fixed_point_at_target(self):
        spec = kl_spec()
        q = ga.GaussianMeasure.minimizer(spec)
        res = jko.jko_step_gaussian(q, spec, 0.7)
        assert ga.w2_bw(res.next_measure, q) <= 1e-8
        assert res.xi_norm <= jko.GAUSSIAN_TOL

    def test_variance_matches_scalar_stationarity(self):
        for s_n, gamma in [(4.0, 1.0), (0.25, 0.5), (2.0, 1.5)]:
            p = ga.GaussianMeasure(np.zeros(1), np.array([[s_n]]))
            res = jko.jko_step_gaussian(p, kl_spec(), gamma)
            expected = closed_form_next_variance(s_n, gamma)
            assert res.next_measure.cov[0, 0] == pytest.approx(expected, abs=1e-8)

    def test_unit_step_from_var4_gives_var1(self):
        # lam=2: 1/s = 2 + 1 - 2/sqrt(s) has the exact root s = 1 when s_n = 4
        p = ga.GaussianMeasure(np.array([2.0]), np.array([[4.0]]))
        res = jko.jko_step_gaussian(p, kl_spec(lam=2.0), 1.0)
        assert res.next_measure.cov[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert res.next_measure.mean[0] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_two_dim_matches_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 2))
        p = ga.GaussianMeasure(rng.uniform(-1, 1, 2), a @ a.T + 0.5 * np.eye(2))
        # the second Lambda commutes with neither Sigma_n nor the iterate
        noncommuting = np.array([[2.0, 0.7], [0.7, 1.0]])
        assert not np.allclose(noncommuting @ p.cov, p.cov @ noncommuting)
        for spec in (kl_spec(d=2),
                     fn.ObjectiveSpec(fn.QuadraticPotential(noncommuting, np.array([0.3, -0.2])))):
            res = jko.jko_step_gaussian(p, spec, 0.8)
            ref = orc.brute_jko(p, spec, 0.8, orc.OracleConfig(budget=40_000))
            assert ga.w2_bw(res.next_measure, ref) <= 2e-4
            # oracle objective can only be >= the solver's up to its own tolerance
            ref_obj = proximal_objective(p, ref, spec, 0.8)
            assert proximal_objective(p, res.next_measure, spec, 0.8) <= ref_obj + 1e-7

    def test_weighted_variance_matches_scalar_stationarity(self):
        lam_mat = 1.5 * np.eye(1)
        for alpha, s_n, gamma in [(0.4, 3.0, 1.0), (2.5, 0.5, 0.6)]:
            spec = fn.ObjectiveSpec(fn.QuadraticPotential(lam_mat, np.zeros(1)),
                                    fn.Variant.WEIGHTED, alpha)
            p = ga.GaussianMeasure(np.ones(1), np.array([[s_n]]))
            res = jko.jko_step_gaussian(p, spec, gamma)
            expected = closed_form_next_variance(s_n, gamma, lam=1.5, alpha=alpha)
            assert res.next_measure.cov[0, 0] == pytest.approx(expected, abs=1e-8)
            assert res.xi_norm <= jko.GAUSSIAN_TOL
            assert res.solver_iterations == 0

    def test_stationarity_check_raises_below_roundoff(self, monkeypatch):
        p = ga.GaussianMeasure(np.array([1.0, -1.0]), np.array([[2.0, 0.3], [0.3, 0.5]]))
        monkeypatch.setattr(jko, "GAUSSIAN_TOL", 1e-30)
        with pytest.raises(jko.SolverError):
            jko.jko_step_gaussian(p, kl_spec(d=2), 1.0)

    def test_descends_objective(self):
        p = ga.GaussianMeasure(np.array([3.0, -1.0]), np.diag([0.3, 5.0]))
        spec = kl_spec(d=2)
        res = jko.jko_step_gaussian(p, spec, 1.2)
        assert fn.evaluate(spec, res.next_measure) < fn.evaluate(spec, p)
        assert proximal_objective(p, res.next_measure, spec, 1.2) <= fn.evaluate(spec, p) + 1e-12

    def test_rejects_bad_gamma(self):
        p = ga.GaussianMeasure(np.zeros(1), np.eye(1))
        for g in (0.0, 2.0, -1.0):
            with pytest.raises(ValueError):
                jko.jko_step_gaussian(p, kl_spec(), g)


# two atoms at -1 and 1, smoothed for delta = 0.03: gaps near the atoms are tiny
ATOMS = """
family = grid
family.m = {m}
p0.atoms = -1 0.5; 1 0.5
p0.delta = 0.03
gamma = 1.0
eps = 0.01
n = 2
"""


def grid_problem(text):
    """(p0, spec, gamma) of a grid config."""
    cfg = cli.parse_config(text)
    return cfg.p0, cfg.spec, cfg.gamma


def field_at(p_n, q, spec, gamma):
    return qt.xi_field(q, np.diff(q), p_n.values, spec, gamma)[0]


def traced_step(monkeypatch, p_n, spec, gamma, factor=1.0):
    """jko_step_grid with LAPACK's Newton step scaled by `factor`, and its iterations:
    per iteration, the quantiles of each xi_field call it made (the first iteration's
    is the start, every later one's the trials of the line search before it)."""
    from scipy.linalg import lapack

    calls = [[]]
    solve, measure = lapack.dptsv, qt.xi_field

    def scaled(*args, **kwargs):
        d, e, step, info = solve(*args, **kwargs)
        calls.append([])
        return d, e, factor * step, info

    def recorded(q, *args):
        calls[-1].append(q)
        return measure(q, *args)

    with monkeypatch.context() as patch:
        patch.setattr(lapack, "dptsv", scaled)
        patch.setattr(qt, "xi_field", recorded)
        return jko.jko_step_grid(p_n, spec, gamma), calls


class TestGridStep:
    def test_matches_gaussian_closed_form(self):
        p = qt.from_gaussian(2.0, 2.0, 512)
        res = jko.jko_step_grid(p, kl_spec(), 1.0)
        # continuum answer: mean halves, variance solves the scalar stationarity
        s = closed_form_next_variance(4.0, 1.0)
        ref = qt.from_gaussian(1.0, np.sqrt(s), 512)
        assert res.next_measure.w2(ref) <= 2e-3
        assert res.xi_norm <= jko.GRID_TOL

    def test_matches_oracle_on_internal_objective(self):
        p = qt.from_gaussian(0.5, 1.5, 128)
        spec = kl_spec()
        res = jko.jko_step_grid(p, spec, 0.9)
        brute = orc.brute_jko(p, spec, 0.9, orc.OracleConfig(budget=30_000, restarts=3))
        q_solver, q_oracle = res.next_measure.values, brute.values
        phi_solver = ref._grid_phi(q_solver, p.values, spec, 0.9, np.diff(q_solver))
        phi_oracle = ref._grid_phi(q_oracle, p.values, spec, 0.9, np.diff(q_oracle))
        assert phi_solver <= phi_oracle + 1e-9
        assert res.next_measure.w2(brute) <= 1e-5

    def test_fixed_point_near_target(self):
        spec = kl_spec()
        p = qt.from_gaussian(0, 1, 256)
        res = jko.jko_step_grid(p, spec, 1.0)
        # the discrete optimum is within discretization error of the start
        assert res.next_measure.w2(p) <= 5e-3

    def test_transport_consistency(self):
        p = qt.from_gaussian(1, 2, 128)
        res = jko.jko_step_grid(p, kl_spec(), 0.6)
        pushed = ref.push(p, res.transport)
        assert np.allclose(pushed.values, res.next_measure.values, atol=1e-10)

    @pytest.mark.parametrize("m", [2048, 128])
    def test_every_step_of_a_bumped_chain_matches_the_reference(self, m):
        # forward's chain of the standard grid config at M quantiles: every step
        # after the first starts from a grid bent by a calibrated bump
        cfg = cli.parse_config(STANDARD_GRID.replace("family.m = 2048", f"family.m = {m}"))
        p0 = cfg.p0
        n = cfg.resolve_n()
        traj = pr.run_forward(p0, cfg.spec, cfg.gamma, cfg.eps * n, cfg.mode, cfg.seed,
                              cfg.minimizer)
        assert n > 10
        for p_n in traj.measures[:-1]:
            res = jko.jko_step_grid(p_n, cfg.spec, cfg.gamma)
            q, xi_norm, iters = ref.grid_step(p_n, cfg.spec, cfg.gamma)
            assert np.array_equal(res.next_measure.values, q)
            assert res.xi_norm == xi_norm
            assert res.solver_iterations == iters

    @pytest.mark.parametrize("m", [128, 2048])
    def test_first_step_from_smoothed_atoms(self, m):
        # a step on which the residual rule and reference.grid_step's objective rule
        # accept different trials: both converge, the residual rule in no more iterations
        p_n, spec, gamma = grid_problem(ATOMS.format(m=m))
        res = jko.jko_step_grid(p_n, spec, gamma)
        q, _, iters = ref.grid_step(p_n, spec, gamma)
        q_res = res.next_measure.values
        assert np.abs(field_at(p_n, q_res, spec, gamma)).max() <= jko.GRID_TOL
        assert res.solver_iterations <= iters
        assert np.abs(q_res - q).max() <= 1e-9

    @pytest.mark.parametrize("text", [STANDARD_GRID, ATOMS.format(m=128)],
                             ids=["gaussian", "atoms"])
    def test_one_field_per_iteration_and_per_rejected_trial(self, monkeypatch, text):
        p_n, spec, gamma = grid_problem(text)
        res, calls = traced_step(monkeypatch, p_n, spec, gamma)
        assert len(calls) == res.solver_iterations
        norm = np.sqrt(np.mean(field_at(p_n, calls[0][0], spec, gamma) ** 2))
        rejected = 0
        for *trials, accepted in calls[1:]:
            # t <= 1, so a rejected trial failed ||xi|| <= (1 - 1e-4) ||xi(q)|| too
            for q in trials:
                assert np.sqrt(np.mean(field_at(p_n, q, spec, gamma) ** 2)) > (1 - 1e-4) * norm
            rejected += len(trials)
            norm_next = np.sqrt(np.mean(field_at(p_n, accepted, spec, gamma) ** 2))
            assert norm_next < norm
            norm = norm_next
        assert sum(map(len, calls)) == res.solver_iterations + rejected
        # from a Gaussian every full step is taken; the atoms' tiny gaps cut t
        assert (rejected == 0) == (text == STANDARD_GRID)

    def test_doubled_newton_step_backtracks_to_half(self, monkeypatch):
        p_n, spec, gamma = grid_problem(STANDARD_GRID)
        plain, plain_calls = traced_step(monkeypatch, p_n, spec, gamma)
        doubled, calls = traced_step(monkeypatch, p_n, spec, gamma, factor=2.0)
        # the first iteration rejects q + 2s and accepts t = 1/2, q + s bit for bit; later
        # ones may accept the overshoot, so the iterates are not the plain ones after that
        assert len(calls[1]) == 2
        assert np.array_equal(calls[1][1], plain_calls[1][0])
        q, q_plain = doubled.next_measure.values, plain.next_measure.values
        xi, xi_plain = field_at(p_n, q, spec, gamma), field_at(p_n, q_plain, spec, gamma)
        assert np.abs(xi).max() <= jko.GRID_TOL
        # xi is (lambda + 1/gamma)-strongly monotone in q
        lam = float(spec.potential.lambda_mat[0, 0])
        assert np.linalg.norm(q - q_plain) <= np.linalg.norm(xi - xi_plain) / (lam + 1 / gamma)

    def test_reversed_newton_step_fails_the_line_search(self, monkeypatch):
        # -s raises ||xi|| at every t, so the halving reaches the 1e-14 floor
        p_n, spec, gamma = grid_problem(STANDARD_GRID)
        with pytest.raises(jko.SolverError, match="Newton line search failed"):
            traced_step(monkeypatch, p_n, spec, gamma, factor=-1.0)


class TestMeasureXi:
    def test_zero_at_exact_step(self):
        p = ga.GaussianMeasure(np.array([1.0, 2.0]), np.diag([2.0, 0.5]))
        spec = kl_spec(d=2)
        res = jko.jko_step_gaussian(p, spec, 1.0)
        _, norm = ref.gaussian_xi_at(p, res.next_measure, spec, 1.0)
        norm_t = jko.measure_xi(p, (res.transport.linear, res.transport.offset), spec, 1.0)
        assert max(norm, norm_t) <= jko.GAUSSIAN_TOL

    def test_mean_shift_norm_formula(self):
        # shifting the exact next measure by a adds (1 + 1/gamma) a to xi
        spec = kl_spec()
        gamma = 0.8
        p = ga.GaussianMeasure(np.array([1.0]), np.eye(1))
        res = jko.jko_step_gaussian(p, spec, gamma)
        tr = res.transport
        a = 0.05
        norm = jko.measure_xi(p, (tr.linear, tr.offset + a), spec, gamma)
        assert norm == pytest.approx((1 + 1 / gamma) * a, abs=1e-8)

    def test_grid_gaussian_agreement(self):
        spec = kl_spec()
        gamma = 1.0
        pg = ga.GaussianMeasure(np.array([2.0]), np.array([[4.0]]))
        ng = ga.GaussianMeasure(np.array([1.2]), np.array([[1.5]]))
        _, norm_g = ref.gaussian_xi_at(pg, ng, spec, gamma)
        m = 4096
        p = qt.from_gaussian(2, 2, m)
        norm_q = jko.measure_xi(p, (p.values, qt.from_gaussian(1.2, np.sqrt(1.5), m).values),
                                spec, gamma)
        assert norm_q == pytest.approx(norm_g, rel=5e-3)

    def test_fd_validates_gaussian_field(self):
        # <xi, v> matches the central difference of the proximal objective
        rng = np.random.default_rng(13)
        spec = kl_spec(d=2)
        gamma = 0.9
        p = ga.GaussianMeasure(rng.uniform(-1, 1, 2), random_cov(rng, 2))
        rho = ga.GaussianMeasure(rng.uniform(-1, 1, 2), random_cov(rng, 2))
        (j, c), _ = ref.gaussian_xi_at(p, rho, spec, gamma)
        v = ga.AffineMap(0.2 * rng.standard_normal((2, 2)), 0.2 * rng.standard_normal(2))
        inner = float((j @ rho.mean + c) @ (v.linear @ rho.mean + v.offset)
                      + np.trace(j @ rho.cov @ v.linear.T))
        t = 1e-5
        eye = np.eye(2)
        vals = []
        for sgn in (1, -1):
            tr = ga.AffineMap(eye + sgn * t * v.linear, sgn * t * v.offset)
            vals.append(proximal_objective(p, rho.image(tr), spec, gamma))
        fd = (vals[0] - vals[1]) / (2 * t)
        assert fd == pytest.approx(inner, abs=1e-6, rel=1e-4)


def random_cov(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.4 * np.eye(d)


class TestPerturbStep:
    def test_eps_zero_raises(self):
        # an exact step is the step itself, never a perturbation of it
        p = ga.GaussianMeasure(np.array([1.0]), np.eye(1))
        res = jko.jko_step_gaussian(p, kl_spec(), 1.0)
        with pytest.raises(ValueError, match="eps must be positive"):
            jko.perturb_step(res, kl_spec(), 1.0, 0.0, jko.PerturbMode.MEAN_SHIFT,
                             np.random.default_rng(0))

    def test_mean_shift_amplitude(self):
        # xi of the a-shifted step is (1 + 1/gamma) a, so eps=0.1, gamma=1 -> a=0.05
        spec = kl_spec()
        p = ga.GaussianMeasure(np.array([2.0]), np.array([[4.0]]))
        res = jko.jko_step_gaussian(p, spec, 1.0)
        pert = jko.perturb_step(res, spec, 1.0, 0.1, jko.PerturbMode.MEAN_SHIFT,
                                np.random.default_rng(0))
        assert pert.xi_norm == pytest.approx(0.1, rel=1e-6)
        shift = pert.next_measure.mean[0] - res.next_measure.mean[0]
        assert shift == pytest.approx(0.05, abs=1e-6)

    def test_dilation_gaussian(self):
        spec = kl_spec()
        p = ga.GaussianMeasure(np.array([1.0]), np.array([[2.0]]))
        res = jko.jko_step_gaussian(p, spec, 1.0)
        pert = jko.perturb_step(res, spec, 1.0, 0.05, jko.PerturbMode.DILATION,
                                np.random.default_rng(0))
        assert pert.xi_norm == pytest.approx(0.05, rel=0.01)
        # dilation about the mean leaves the mean fixed
        assert pert.next_measure.mean[0] == pytest.approx(res.next_measure.mean[0],
                                                          abs=1e-8)

    def test_grid_bump_calibration_and_monotonicity(self):
        spec = kl_spec()
        p = qt.from_gaussian(1.0, 1.5, 256)
        res = jko.jko_step_grid(p, spec, 1.0)
        pert = jko.perturb_step(res, spec, 1.0, 0.05, jko.PerturbMode.GRID_BUMP,
                                np.random.default_rng(0))
        assert pert.xi_norm == pytest.approx(0.05, rel=0.01)
        slopes = np.diff(pert.transport.y) / np.diff(pert.transport.x)
        assert np.min(slopes) >= 1e-3 - 1e-12

    def test_grid_mean_shift(self):
        spec = kl_spec()
        p = qt.from_gaussian(0.5, 1.0, 128)
        res = jko.jko_step_grid(p, spec, 0.7)
        pert = jko.perturb_step(res, spec, 0.7, 0.2, jko.PerturbMode.MEAN_SHIFT,
                                np.random.default_rng(0))
        assert pert.xi_norm == pytest.approx(0.2, rel=0.01)

    def test_unreachable_eps_raises(self):
        spec = kl_spec()
        p = qt.from_gaussian(0, 1, 64)
        res = jko.jko_step_grid(p, spec, 1.0)
        with pytest.raises(jko.CalibrationError):
            jko.perturb_step(res, spec, 1.0, 1e4, jko.PerturbMode.GRID_BUMP,
                             np.random.default_rng(0))

    def test_negative_eps_rejected(self):
        p = ga.GaussianMeasure(np.zeros(1), np.eye(1))
        res = jko.jko_step_gaussian(p, kl_spec(), 1.0)
        with pytest.raises(ValueError):
            jko.perturb_step(res, kl_spec(), 1.0, -0.1, jko.PerturbMode.MEAN_SHIFT,
                             np.random.default_rng(0))

    def test_grid_bump_rejected_for_gaussian(self):
        p = ga.GaussianMeasure(np.zeros(1), np.eye(1))
        res = jko.jko_step_gaussian(p, kl_spec(), 1.0)
        tr = res.transport
        with pytest.raises(ValueError, match="1-D only"):
            ga.AffineMap.perturbed_fields(tr.linear, tr.offset, jko.PerturbMode.GRID_BUMP,
                                          None, None)


GAUSS_MODES = [jko.PerturbMode.MEAN_SHIFT, jko.PerturbMode.DILATION]


class TestGaussianTransportPath:
    """measure_xi of a Gaussian step taken through its transport, with no eigendecomposition."""

    @staticmethod
    def problem(d, seed):
        rng = np.random.default_rng(seed)
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(random_cov(rng, d),
                                                      rng.standard_normal(d)))
        p = ga.GaussianMeasure(rng.standard_normal(d), random_cov(rng, d))
        return spec, p, jko.jko_step_gaussian(p, spec, 0.8)

    @staticmethod
    def assert_matches_the_pushforward(spec, p, exact, mode):
        tr = exact.transport
        perturbed, _ = ga.AffineMap.perturbed_fields(tr.linear, tr.offset, mode,
                                                     exact.next_measure.mean, None)
        for a in (0.0, 1e-3, 0.05, 0.4):
            t = perturbed(a)
            norm_t = jko.measure_xi(p, t, spec, 0.8)
            _, norm_m = ref.gaussian_xi_at(p, p.image(ga.AffineMap(*t)), spec, 0.8)
            if a == 0.0:
                assert norm_t <= jko.GAUSSIAN_TOL and norm_m <= jko.GAUSSIAN_TOL
                continue
            assert norm_t == pytest.approx(norm_m, rel=1e-10)

    @pytest.mark.parametrize("mode", GAUSS_MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("d", [1, 3, 10, 30])
    def test_matches_the_measurement_at_the_pushforward(self, d, mode):
        self.assert_matches_the_pushforward(*self.problem(d, 40 + d), mode)

    @pytest.mark.parametrize("mode", GAUSS_MODES, ids=lambda m: m.value)
    def test_matches_on_an_ill_conditioned_covariance(self, mode):
        # p_n's covariance has eigenvalues from 1e-8 to 1e2, so Sigma^{-1/2} reaches 1e4.
        # Both are diagonal: a rotated covariance holds roundoff of its largest entry,
        # which leaves its smallest eigenvalues known to ~1e-6 only, and with a
        # non-commuting Lambda the reference's eigh of the image covariance is itself
        # off by up to ~1e-8 relative.
        rng = np.random.default_rng(9)
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(np.diag(np.linspace(0.5, 3.0, 10)),
                                                      rng.standard_normal(10)))
        p = ga.GaussianMeasure(rng.standard_normal(10), np.diag(np.logspace(-8, 2, 10)))
        self.assert_matches_the_pushforward(spec, p, jko.jko_step_gaussian(p, spec, 0.8), mode)

    def test_non_symmetric_linear_part_rejected(self):
        spec, p, exact = self.problem(3, 7)
        lin = exact.transport.linear.copy()
        lin[0, 1] += 1e-12
        with pytest.raises(ValueError, match="not symmetric"):
            jko.measure_xi(p, (lin, exact.transport.offset), spec, 0.8)

    @pytest.mark.parametrize("mode", GAUSS_MODES, ids=lambda m: m.value)
    def test_perturbed_linear_part_stays_exactly_symmetric(self, mode):
        spec, p, exact = self.problem(10, 8)
        pert = jko.perturb_step(exact, spec, 0.8, 0.05, mode, np.random.default_rng(0))
        assert np.array_equal(pert.transport.linear, pert.transport.linear.T)
        assert pert.xi_norm == pytest.approx(0.05, rel=1e-12)

    @pytest.mark.parametrize("mode", GAUSS_MODES, ids=lambda m: m.value)
    def test_evaluations_build_no_affine_map(self, mode, monkeypatch):
        spec, p, exact = self.problem(10, 8)
        counts = {"AffineMap": 0, "measure_xi": 0}
        post, measure = ga.AffineMap.__post_init__, jko.measure_xi

        def counting_post(self):
            counts["AffineMap"] += 1
            post(self)

        def counting_measure(*args):
            counts["measure_xi"] += 1
            return measure(*args)

        monkeypatch.setattr(ga.AffineMap, "__post_init__", counting_post)
        monkeypatch.setattr(jko, "measure_xi", counting_measure)
        jko.perturb_step(exact, spec, 0.8, 0.05, mode, np.random.default_rng(0))
        assert counts["measure_xi"] >= 2
        # the accepted transport only: evaluations pass and return arrays
        assert counts["AffineMap"] == 1


GRID_MODES = [jko.PerturbMode.MEAN_SHIFT, jko.PerturbMode.DILATION, jko.PerturbMode.GRID_BUMP]


class TestGridArrayPaths:
    """Grid solves and calibrations work on arrays; validated objects are built for results."""

    @pytest.mark.parametrize("mode", GRID_MODES, ids=lambda m: m.value)
    def test_perturb_step_norm_is_measured_at_the_result(self, mode):
        spec = kl_spec()
        p = qt.from_gaussian(1.0, 1.5, 256)
        res = jko.jko_step_grid(p, spec, 1.0)
        pert = jko.perturb_step(res, spec, 1.0, 0.05, mode, np.random.default_rng(0))
        t = pert.transport
        assert pert.xi_norm == jko.measure_xi(p, (t.x, t.y), spec, 1.0)
        assert np.array_equal(pert.next_measure.values,
                              ref.push(p, pert.transport).values)

    def test_measure_xi_needs_the_transport_from_p_n(self):
        spec = kl_spec()
        p = qt.from_gaussian(1.0, 1.5, 256)
        res = jko.jko_step_grid(qt.from_gaussian(1.0, 1.4, 256), spec, 1.0)
        with pytest.raises(ValueError, match="must start at p_n's quantiles"):
            jko.measure_xi(p, jko._fields(res.transport), spec, 1.0)

    def test_validated_objects_and_bump_built_once(self, monkeypatch):
        spec = kl_spec()
        p = qt.from_gaussian(1.0, 1.5, 256)
        counts = dict.fromkeys(("QuantileGrid", "MonotoneMap1D", "bump_profile",
                                "measure_xi"), 0)

        def counting(key, func):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return func(*args, **kwargs)
            return wrapped

        for cls in (qt.QuantileGrid, qt.MonotoneMap1D):
            monkeypatch.setattr(cls, "__post_init__",
                                counting(cls.__name__, cls.__post_init__))
        monkeypatch.setattr(jko, "bump_profile", counting("bump_profile", jko.bump_profile))
        res = jko.jko_step_grid(p, spec, 1.0)
        assert res.solver_iterations >= 3
        # the transport; its image is built on first read
        assert counts["QuantileGrid"] == 0 and counts["MonotoneMap1D"] == 1
        assert res.next_measure is res.next_measure and counts["QuantileGrid"] == 1

        counts.update(dict.fromkeys(counts, 0))
        monkeypatch.setattr(jko, "measure_xi", counting("measure_xi", jko.measure_xi))
        pert = jko.perturb_step(jko.jko_step_grid(p, spec, 1.0), spec, 1.0, 0.05,
                                jko.PerturbMode.GRID_BUMP, np.random.default_rng(0))
        assert counts["measure_xi"] >= 3
        assert counts["MonotoneMap1D"] == 2 and counts["bump_profile"] == 1
        # each evaluation validates its knot values; the exact next grid is never built
        assert counts["QuantileGrid"] == counts["measure_xi"]
        pert.next_measure
        assert counts["QuantileGrid"] == counts["measure_xi"] + 1


class TestCalibrateAmplitude:
    @staticmethod
    def counted(norm_at):
        calls = []

        def f(a):
            calls.append(a)
            return norm_at(a)

        return f, calls

    def test_finds_root_of_linear_norm(self):
        norm_at, calls = self.counted(lambda a: 3.0 * a)
        a, norm = jko.calibrate_amplitude(norm_at, 0.3)
        assert a == pytest.approx(0.1, rel=1e-12)
        assert norm == pytest.approx(0.3, rel=1e-12)
        assert len(calls) <= 2

    def test_cap_below_root_raises(self):
        for cap in (0.05, 0.0):
            with pytest.raises(jko.CalibrationError):
                jko.calibrate_amplitude(lambda a: 3.0 * a, 0.3, a_cap=cap)

    def test_convex_norm_converges(self):
        norm_at = lambda a: 0.5 * a + 4.0 * a * a + a ** 4
        a, norm = jko.calibrate_amplitude(norm_at, 7.0)
        assert abs(norm - 7.0) <= 1e-12 * 7.0
        assert norm == norm_at(a)

    def test_noisy_norm_returns_within_the_cap(self):
        rng = np.random.default_rng(3)
        a, norm = jko.calibrate_amplitude(
            lambda a: 2.0 * a * (1.0 + 0.3 * a) * (1.0 + 1e-15 * rng.standard_normal()), 0.05)
        assert abs(norm - 0.05) <= 1e-12 * 0.05

    def test_target_unreachable_below_max_amplitude_raises(self):
        for norm_at in (lambda a: 1e-9 * a, lambda a: 1.0 - np.exp(-a)):
            with pytest.raises(jko.CalibrationError, match="amplitude cap"):
                jko.calibrate_amplitude(norm_at, 2.0)

    def test_target_at_or_below_the_unperturbed_norm_raises(self):
        norm_at, calls = self.counted(lambda a: 0.5 + 3.0 * a)
        for target in (0.3, 0.5):
            with pytest.raises(jko.CalibrationError, match="unperturbed norm"):
                jko.calibrate_amplitude(norm_at, target, norm_at_zero=0.5)
        assert calls == []

    def test_target_below_the_roundoff_floor_raises_fast(self):
        norm_at, calls = self.counted(lambda a: max(3.0 * a, 1e-3))
        with pytest.raises(jko.CalibrationError, match="roundoff floor"):
            jko.calibrate_amplitude(norm_at, 5e-4)
        assert len(calls) <= 4

    def test_flat_norm_just_above_the_target_is_accepted(self):
        # a warm-started first probe whose norm lands just outside the 1e-12 stop: the
        # secant's next amplitude measures the same norm, which is within 1%, not a floor
        target = 1e-4
        flat = target * (1 + 2e-12)
        norm_at, calls = self.counted(lambda a: flat)
        a, norm = jko.calibrate_amplitude(norm_at, target, first=3.3e-5)
        assert norm == flat and a == calls[-1] and len(calls) == 2

    def test_gaussian_mean_shift_step_measures_xi_at_most_three_times(self, monkeypatch):
        spec = kl_spec()
        p = ga.GaussianMeasure(np.array([2.0]), np.array([[4.0]]))
        res = jko.jko_step_gaussian(p, spec, 1.0)
        calls = []
        measure = jko.measure_xi

        def counting(*args):
            calls.append(args)
            return measure(*args)

        monkeypatch.setattr(jko, "measure_xi", counting)
        pert = jko.perturb_step(res, spec, 1.0, 0.1, jko.PerturbMode.MEAN_SHIFT,
                                np.random.default_rng(0))
        assert len(calls) <= 3
        assert abs(pert.xi_norm - 0.1) <= 1e-12 * 0.1


class TestWarmStart:
    """calibrate_amplitude's first probe is the amplitude the chain's previous step accepted."""

    def test_linear_norm_started_at_its_root_takes_one_evaluation(self):
        norm_at, calls = TestCalibrateAmplitude.counted(lambda a: 3.0 * a)
        a, norm = jko.calibrate_amplitude(norm_at, 0.3, first=0.1)
        assert calls == [0.1] and (a, norm) == (0.1, norm_at(0.1))

    def test_first_probe_above_the_cap_is_clipped(self):
        norm_at, calls = TestCalibrateAmplitude.counted(lambda a: 3.0 * a)
        a, norm = jko.calibrate_amplitude(norm_at, 0.3, a_cap=0.5, first=2.0)
        assert calls[0] == 0.5
        assert a == pytest.approx(0.1, rel=1e-12) and norm == pytest.approx(0.3, rel=1e-12)
        norm_at, calls = TestCalibrateAmplitude.counted(lambda a: 3.0 * a)
        with pytest.raises(jko.CalibrationError, match="amplitude cap"):
            jko.calibrate_amplitude(norm_at, 3.0, a_cap=0.5, first=2.0)
        assert calls == [0.5]

    def test_mean_shift_chain_measures_xi_at_most_twice_per_later_step(self, monkeypatch):
        rng = np.random.default_rng(11)
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(random_cov(rng, 10),
                                                      rng.standard_normal(10)))
        p0 = ga.GaussianMeasure(rng.standard_normal(10), random_cov(rng, 10))
        calls = []
        step, measure = jko.jko_step_gaussian, jko.measure_xi

        def counting_step(*args):
            calls.append(0)
            return step(*args)

        def counting_measure(*args):
            calls[-1] += 1
            return measure(*args)

        monkeypatch.setattr(jko, "jko_step_gaussian", counting_step)
        monkeypatch.setattr(jko, "measure_xi", counting_measure)
        traj = ref.forward(p0, spec, 0.8, 12, 0.05, jko.PerturbMode.MEAN_SHIFT)
        assert len(calls) == 12 and calls[0] >= 3
        # the exact step's measurement and one evaluation at the previous amplitude
        assert max(calls[1:]) <= 2
        assert all(abs(x - 0.05) <= 1e-12 * 0.05 for x in traj.xi_norms)


DECOMPOSITIONS = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "cholesky", "slogdet", "det",
                  "inv", "solve")


class TestDecompositionCount:
    """A Gaussian covariance is validated by one Cholesky and factored once, on first read."""

    def test_gaussian_step_decompositions(self, monkeypatch):
        rng = np.random.default_rng(5)
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(random_cov(rng, 3), np.zeros(3)))
        p = ga.GaussianMeasure(rng.standard_normal(3), random_cov(rng, 3))
        counts = {"eigh": 0, "cholesky": 0, "solve": 0, "other": 0, "measure_xi": 0}

        def counting(key, func):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return func(*args, **kwargs)
            return wrapped

        for name in DECOMPOSITIONS:
            key = ("eigh" if name in ("eigh", "eigvalsh")
                   else name if name in ("cholesky", "solve") else "other")
            monkeypatch.setattr(np.linalg, name, counting(key, getattr(np.linalg, name)))
        exact = jko.jko_step_gaussian(p, spec, 1.0)
        # p_n's factors (first read here) and C (I + gamma Lambda) C; one solve
        # for the mean and one for xi's L^{-1} Sigma^{-1/2}; the next measure is
        # not built yet
        assert counts == {"eigh": 2, "cholesky": 0, "solve": 2, "other": 0, "measure_xi": 0}
        exact.next_measure  # validated (p_n was validated when it was made)
        assert counts["cholesky"] == 1
        counts.update(dict.fromkeys(counts, 0))
        monkeypatch.setattr(jko, "measure_xi", counting("measure_xi", jko.measure_xi))
        pert = jko.perturb_step(exact, spec, 1.0, 0.1, jko.PerturbMode.DILATION,
                                np.random.default_rng(0))
        assert counts["measure_xi"] >= 2
        # evaluations go through the transport, one solve each; the accepted
        # measure is not built yet
        assert counts["eigh"] == 0 and counts["cholesky"] == 0 and counts["other"] == 0
        assert counts["solve"] == counts["measure_xi"]
        pert.next_measure  # validated, not factored
        assert counts["eigh"] == 0 and counts["cholesky"] == 1

    def test_stack_validates_with_one_cholesky(self, monkeypatch):
        rng = np.random.default_rng(6)
        covs = np.array([random_cov(rng, 3) for _ in range(7)])
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
        ga.GaussianMeasure.stack(rng.standard_normal((7, 3)), covs)
        assert calls == [(7, 3, 3)]


class TestStepAccuracy:
    """The closed-form step meets GAUSSIAN_TOL on ill-conditioned covariances that do not
    commute with Lambda, down to eigenvalue spread 1e5 (README: known limits)."""

    @pytest.mark.parametrize("seed", range(30))
    def test_spread_1e5_in_d10(self, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        cov = (q * np.logspace(-3, 2, 10)) @ q.T
        a = rng.standard_normal((10, 10))
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(a @ a.T + 0.3 * np.eye(10),
                                                      rng.standard_normal(10)))
        p = ga.GaussianMeasure(rng.standard_normal(10), 0.5 * (cov + cov.T))
        assert jko.jko_step_gaussian(p, spec, 1.0).xi_norm <= jko.GAUSSIAN_TOL


class TestContraction:
    def test_proximal_map_contracts(self):
        # nonexpansiveness of the proximal map under strong convexity
        spec = kl_spec()
        gamma = 1.0
        rng = np.random.default_rng(21)
        for _ in range(20):
            p1 = ga.GaussianMeasure(rng.uniform(-2, 2, 1),
                                    np.array([[rng.uniform(0.3, 3)]]))
            p2 = ga.GaussianMeasure(rng.uniform(-2, 2, 1),
                                    np.array([[rng.uniform(0.3, 3)]]))
            n1 = jko.jko_step_gaussian(p1, spec, gamma).next_measure
            n2 = jko.jko_step_gaussian(p2, spec, gamma).next_measure
            assert ga.w2_bw(n1, n2) <= ga.w2_bw(p1, p2) + 1e-8


class TestExactGaussianChain:
    """An exact Gaussian step's next measure is p_n pushed through its transport, as in
    every other step; the closed-form mean only sets the transport's offset."""

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_every_step_is_the_image_of_its_transport(self, d):
        rng = np.random.default_rng(40 + d)
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(random_cov(rng, d),
                                                      rng.standard_normal(d)))
        gamma = 0.7
        p0 = ga.GaussianMeasure(rng.standard_normal(d) + 3.0, random_cov(rng, d))
        traj = ref.forward(p0, spec, gamma, 6)
        lam, center = spec.potential.lambda_mat, spec.potential.center
        for n, (p, t, xi) in enumerate(zip(traj.measures, traj.transports, traj.xi_norms)):
            nxt = traj.measures[n + 1]
            pushed = p.image(t)
            assert np.array_equal(nxt.mean, pushed.mean) and np.array_equal(nxt.cov, pushed.cov)
            assert xi <= jko.GAUSSIAN_TOL
            mean = np.linalg.solve(np.eye(d) + gamma * lam, p.mean + gamma * lam @ center)
            assert np.linalg.norm(nxt.mean - mean) <= 1e-13 * np.linalg.norm(mean)
