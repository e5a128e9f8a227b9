import numpy as np
import pytest

from jkolab import functionals as fn
from jkolab import gaussian as ga
from jkolab import jko
from jkolab import quantile as qt

import oracles as orc
import reference as ref


def kl_spec(lam=1.0, d=1):
    return fn.ObjectiveSpec(fn.QuadraticPotential(lam * np.eye(d), np.zeros(d)))


class TestOracleConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            orc.OracleConfig(budget=0)
        with pytest.raises(ValueError):
            orc.OracleConfig(seed=-1)


class TestBruteJkoGaussian:
    def test_matches_closed_form_means(self):
        p = ga.GaussianMeasure(np.array([2.0]), np.eye(1))
        ref = orc.brute_jko(p, kl_spec(), 1.0, orc.OracleConfig(budget=20_000))
        assert ref.mean[0] == pytest.approx(1.0, abs=1e-5)

    def test_stays_at_target(self):
        spec = kl_spec()
        q = ga.GaussianMeasure.minimizer(spec)
        ref = orc.brute_jko(q, spec, 1.0, orc.OracleConfig(budget=20_000))
        assert ga.w2_bw(ref, q) <= 1e-4

    def test_exact_unit_variance_root(self):
        # lam=2, gamma=1, s_n=4 has the exact stationary variance s=1
        p = ga.GaussianMeasure(np.array([2.0]), np.array([[4.0]]))
        ref = orc.brute_jko(p, kl_spec(lam=2.0), 1.0, orc.OracleConfig(budget=30_000))
        assert ref.cov[0, 0] == pytest.approx(1.0, abs=1e-4)


class TestBruteJkoGrid:
    def test_matches_newton_solver(self):
        p = qt.from_gaussian(1.0, 1.5, 64)
        spec = kl_spec()
        brute = orc.brute_jko(p, spec, 1.0, orc.OracleConfig(budget=30_000, restarts=3))
        res = jko.jko_step_grid(p, spec, 1.0)
        assert brute.w2(res.next_measure) <= 1e-5
        q_ref, q_newton = brute.values, res.next_measure.values
        phi_ref = ref._grid_phi(q_ref, p.values, spec, 1.0, np.diff(q_ref))
        phi_newton = ref._grid_phi(q_newton, p.values, spec, 1.0, np.diff(q_newton))
        assert abs(phi_ref - phi_newton) <= 1e-9

    def test_deterministic(self):
        p = qt.from_gaussian(0.0, 1.0, 32)
        cfg = orc.OracleConfig(budget=10_000, restarts=2)
        a = orc.brute_jko(p, kl_spec(), 0.8, cfg)
        b = orc.brute_jko(p, kl_spec(), 0.8, cfg)
        assert np.array_equal(a.values, b.values)


class TestEmpiricalW2:
    def test_shifted_gaussians(self):
        p = qt.from_gaussian(0, 1, 512)
        q = qt.from_gaussian(2, 1, 512)
        assert orc.empirical_w2_1d(p, q, n_samples=50_000) == pytest.approx(2.0, rel=0.02)

    def test_agrees_with_grid_w2(self):
        p = qt.from_gaussian(0.5, 1.3, 512)
        q = qt.from_gaussian(-0.2, 0.9, 512)
        assert orc.empirical_w2_1d(p, q) == pytest.approx(p.w2(q), rel=0.02)


class TestAssignmentW2:
    def test_identical_clouds(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 2))
        assert orc.assignment_w2(x, x) == 0.0

    def test_translation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 2))
        shifted = x + np.array([3.0, 4.0])
        assert orc.assignment_w2(x, shifted) == pytest.approx(5.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            orc.assignment_w2(np.zeros((5, 2)), np.zeros((6, 2)))

    def test_cap_enforced(self):
        big = np.zeros((2001, 1))
        with pytest.raises(ValueError):
            orc.assignment_w2(big, big)


class TestQuadratureKl:
    def test_matches_closed_form(self):
        spec = kl_spec()
        p = qt.from_gaussian(1.0, 1.2, 2048)
        expected = 0.5 * (1.44 + 1.0 - 1 - 2 * np.log(1.2))
        assert orc.quadrature_kl(p, spec) == pytest.approx(expected, abs=5e-3)

    def test_zero_at_target(self):
        assert orc.quadrature_kl(qt.from_gaussian(0, 1, 2048), kl_spec()) == \
            pytest.approx(0, abs=5e-3)


class TestFdDirectional:
    def test_grid_matches_score_pairing(self):
        # d/dt G((Id + t v)#rho) = E[(grad V + alpha * score) v] at t = 0
        spec = kl_spec()
        rng = np.random.default_rng(2)
        p = qt.from_gaussian(0.3, 1.1, 1024)
        v = np.cumsum(rng.uniform(0.1, 1, 1024))
        v = v / np.max(np.abs(v))
        eta = ref.grad_v(spec.potential, p.values[:, None])[:, 0] + qt.gap_score(np.diff(p.values))
        fd = orc.fd_directional(spec, p, v, 1e-6)
        assert fd == pytest.approx(float(np.mean(eta * v)), abs=2e-3)

    def test_gaussian_constant_direction(self):
        # shifting N(m, s) changes KL by <Lambda(m - mu*), u>
        spec = kl_spec()
        g = ga.GaussianMeasure(np.array([0.7]), np.array([[1.3]]))
        v = ga.AffineMap(np.zeros((1, 1)), np.array([1.0]))
        fd = orc.fd_directional(spec, g, v, 1e-6)
        assert fd == pytest.approx(0.7, abs=1e-6)
