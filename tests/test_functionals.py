import numpy as np
import pytest

from jkolab import functionals as fn
from jkolab import gaussian as ga
from jkolab import quantile as qt

import reference as ref


def spec_for(lam_mat, center=None, variant=fn.Variant.KL, alpha=1.0):
    lam_mat = np.atleast_2d(np.asarray(lam_mat, dtype=float))
    if center is None:
        center = np.zeros(lam_mat.shape[0])
    return fn.ObjectiveSpec(fn.QuadraticPotential(lam_mat, center), variant, alpha)


class TestQuadraticPotential:
    def test_log_z_standard_normal(self):
        pot = fn.QuadraticPotential(np.eye(1), np.zeros(1))
        assert pot.log_z == pytest.approx(0.5 * np.log(2 * np.pi), abs=1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            fn.QuadraticPotential(np.diag([1.0, -1.0]), np.zeros(2))

    def test_grad_matches_v(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        pot = fn.QuadraticPotential(a @ a.T + np.eye(3), rng.uniform(-1, 1, 3))
        x = rng.uniform(-2, 2, (5, 3))
        h = 1e-6
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = h
            fd = (ref.potential_v(pot, x + dx) - ref.potential_v(pot, x - dx)) / (2 * h)
            assert np.allclose(fd, ref.grad_v(pot, x)[:, j], atol=1e-6)


class TestLambda:
    def test_identity(self):
        assert spec_for(np.eye(2)).lam == pytest.approx(1.0)

    def test_diag(self):
        assert spec_for(np.diag([4.0, 0.25])).lam == pytest.approx(0.25)

    def test_rayleigh_lower_bound(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        lam_mat = a @ a.T + 0.1 * np.eye(4)
        spec = spec_for(lam_mat, np.zeros(4))
        lam = spec.lam
        for _ in range(100):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            assert lam <= u @ lam_mat @ u + 1e-12


class TestEvaluate:
    def test_kl_at_target_zero(self):
        spec = spec_for(np.diag([2.0, 0.5]))
        assert fn.evaluate(spec, ga.GaussianMeasure.minimizer(spec)) == pytest.approx(0, abs=1e-12)

    def test_weighted_alpha_one_equals_kl(self):
        rng = np.random.default_rng(3)
        kl_spec = spec_for(np.diag([1.5]), np.array([0.3]))
        w_spec = spec_for(np.diag([1.5]), np.array([0.3]), fn.Variant.WEIGHTED, 1.0)
        for _ in range(10):
            g = ga.GaussianMeasure(rng.uniform(-1, 1, 1), np.array([[rng.uniform(0.5, 2)]]))
            assert fn.evaluate(w_spec, g) == pytest.approx(fn.evaluate(kl_spec, g), abs=1e-10)
        grid = qt.from_gaussian(0.5, 1.2, 64)
        assert fn.evaluate(w_spec, grid) == pytest.approx(fn.evaluate(kl_spec, grid), abs=1e-10)

    def test_grid_gaussian_dispatch_agreement(self):
        spec = spec_for(np.array([[0.8]]), np.array([0.4]))
        g = ga.GaussianMeasure(np.array([-0.3]), np.array([[1.5]]))
        grid = qt.from_gaussian(-0.3, np.sqrt(1.5), 4096)
        assert abs(fn.evaluate(spec, g) - fn.evaluate(spec, grid)) <= 3e-3

    def test_variant_forces_alpha(self):
        # kl is alpha = 1: another alpha is rejected, not replaced by 1 (a config with
        # objective.alpha = 0.5 under kl ran plain KL)
        pot = fn.QuadraticPotential(np.eye(1), np.zeros(1))
        assert fn.ObjectiveSpec(pot, fn.Variant.KL).alpha == 1.0
        assert fn.ObjectiveSpec(pot, fn.Variant.KL, alpha=1.0).alpha == 1.0
        for alpha in (7.0, 0.5, 1.0 + 1e-15, 0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="needs the weighted variant"):
                fn.ObjectiveSpec(pot, fn.Variant.KL, alpha)
        for alpha in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="alpha must be positive"):
                fn.ObjectiveSpec(pot, fn.Variant.WEIGHTED, alpha)


class TestGlobalMinimizer:
    def test_kl_case(self):
        spec = spec_for(np.eye(2))
        g = ga.GaussianMeasure.minimizer(spec)
        assert np.allclose(g.mean, 0) and np.allclose(g.cov, np.eye(2))

    def test_weighted_alpha_two(self):
        spec = spec_for(np.eye(2), variant=fn.Variant.WEIGHTED, alpha=2.0)
        g = ga.GaussianMeasure.minimizer(spec)
        assert np.allclose(g.cov, 2 * np.eye(2))
        fld = ref.subgradient_field(g, spec)
        assert ref.field_l2_norm(fld, g) <= 1e-12

    def test_stationarity_of_minimizer(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.standard_normal((2, 2))
            spec = spec_for(a @ a.T + 0.2 * np.eye(2), rng.uniform(-1, 1, 2))
            g = ga.GaussianMeasure.minimizer(spec)
            assert ref.field_l2_norm(ref.subgradient_field(g, spec), g) <= 1e-12

    def test_minimum_value(self):
        # G at the minimizer: 0 for the KL variant
        spec = spec_for(np.diag([2.0]))
        assert fn.evaluate(spec, ga.GaussianMeasure.minimizer(spec)) == pytest.approx(0, abs=1e-12)
