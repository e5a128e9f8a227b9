import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jkolab import functionals as fn
from jkolab import gaussian as ga

import reference as ref


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + 0.3 * np.eye(d))


@st.composite
def gaussians(draw, d=2):
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    return ga.GaussianMeasure(rng.uniform(-2, 2, d), random_spd(rng, d))


def std_spec(d=1):
    return fn.ObjectiveSpec(fn.QuadraticPotential(np.eye(d), np.zeros(d)))


class TestGaussianMeasure:
    def test_symmetrizes(self):
        g = ga.GaussianMeasure(np.zeros(2), np.array([[1.0, 0.1 + 1e-14], [0.1, 1.0]]))
        assert np.array_equal(g.cov, g.cov.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ga.GaussianMeasure(np.zeros(2), np.array([[1.0, 0.5], [-0.5, 1.0]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            ga.GaussianMeasure(np.zeros(2), np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("mean, cov", [
        (np.zeros(2), np.diag([np.nan, 1.0])),
        (np.zeros(2), np.diag([np.inf, 1.0])),
        (np.array([np.nan, 0.0]), np.eye(2)),
    ], ids=["cov_nan", "cov_inf", "mean_nan"])
    def test_rejects_non_finite(self, mean, cov):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                ga.GaussianMeasure(mean, cov)

    @pytest.mark.parametrize("kind", ["spd", "singular_psd", "slightly_negative", "indefinite"])
    def test_accept_reject_matches_the_eigenvalue_rule(self, kind):
        # the rule: accept iff the smallest eigenvalue of the symmetrized
        # covariance is at least 1e-10
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        evals = {"spd": [0.5, 1.0, 2.0, 30.0], "singular_psd": [0.0, 0.0, 2.0, 30.0],
                 "slightly_negative": [-1e-12 * 30, 1.0, 2.0, 30.0],
                 "indefinite": [-0.5, 1.0, 2.0, 30.0]}[kind]
        cov = (q * evals) @ q.T
        cov = 0.5 * (cov + cov.T)
        accepted = np.linalg.eigh(cov)[0][0] >= 1e-10
        assert accepted == (kind == "spd")
        if accepted:
            assert np.array_equal(ga.GaussianMeasure(np.zeros(4), cov).cov, cov)
        else:
            with pytest.raises(ValueError, match="not positive definite"):
                ga.GaussianMeasure(np.zeros(4), cov)


def _stored_or_raised(build, mean, cov):
    """("ok", mean, cov) stored for these inputs, or (exception type, message)."""
    try:
        m, c = build(mean, cov)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return "ok", m, c


def _measure_fields(mean, cov):
    g = ga.GaussianMeasure(mean, cov)
    return g.mean, g.cov


def _asymmetric(scale, asym):
    """A 2 x 2 covariance with diagonal `scale` whose asymmetry is exactly `asym`."""
    return np.array([[scale, asym], [0.0, scale]])


_TOL = 1e-12 * 100  # the asymmetry tolerance at scale 1
VALIDATION_INPUTS = {
    "mean_nan": (np.array([np.nan, 0.0]), np.eye(2)),
    "mean_inf": (np.array([0.0, np.inf]), np.eye(2)),
    "mean_minus_inf": (np.array([-np.inf, 0.0]), np.eye(2)),
    "cov_nan": (np.zeros(2), np.diag([np.nan, 1.0])),
    "cov_inf": (np.zeros(2), np.diag([1.0, np.inf])),
    "cov_minus_inf_off_diagonal": (np.zeros(2), np.array([[1.0, -np.inf], [-np.inf, 1.0]])),
    "mean_sum_overflows": (np.full(3, 1e308), np.eye(3)),
    "mean_sum_overflows_with_nan": (np.array([1e308, 1e308, np.nan]), np.eye(3)),
    "cov_sum_overflows": (np.zeros(3), np.diag([1e308, 1e308, 1.0])),
    "cov_symmetrization_overflows": (np.zeros(2), np.diag([1.5e308, 1.0])),
    "cov_difference_overflows": (np.zeros(2), np.array([[1e308, 1e308], [-1e308, 1e308]])),
    "asym_below_tol": (np.zeros(2), _asymmetric(1.0, 0.99 * _TOL)),
    "asym_at_tol": (np.zeros(2), _asymmetric(1.0, _TOL)),
    "asym_above_tol": (np.zeros(2), _asymmetric(1.0, 1.01 * _TOL)),
    "asym_below_scaled_tol": (np.zeros(2), _asymmetric(1e3, 0.99e3 * _TOL)),
    "asym_above_scaled_tol": (np.zeros(2), _asymmetric(1e3, 1.01e3 * _TOL)),
    "asym_below_tol_small_scale": (np.zeros(2), _asymmetric(1e-3, 0.99 * _TOL)),
    "asym_above_tol_small_scale": (np.zeros(2), _asymmetric(1e-3, 1.01 * _TOL)),
    "lambda_min_just_below": (np.zeros(2), np.diag([1e-10 * (1 - 1e-6), 1.0])),
    "lambda_min_just_above": (np.zeros(2), np.diag([1e-10 * (1 + 1e-6), 1.0])),
    "lambda_min_exactly": (np.zeros(2), np.diag([1e-10, 1.0])),
    "lambda_min_just_below_last": (np.zeros(3), np.diag([1.0, 2.0, 1e-10 * (1 - 1e-6)])),
    "lambda_min_just_above_last": (np.zeros(3), np.diag([1.0, 2.0, 1e-10 * (1 + 1e-6)])),
    "cov_shape_too_large": (np.zeros(2), np.eye(3)),
    "cov_vector": (np.zeros(2), np.ones(2)),
    "cov_not_square": (np.zeros(2), np.ones((2, 3))),
    "mean_matrix": (np.zeros((2, 2)), np.eye(4)),
    "empty": (np.zeros(0), np.zeros((0, 0))),
    "scalars": (1.5, 4.0),
    "scalar_zero_variance": (0.0, 0.0),
    "scalar_negative_variance": (0.0, -1.0),
    "scalar_nan": (np.nan, 1.0),
    "lists": ([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]]),
    "integers": (np.arange(2), 3 * np.eye(2, dtype=int)),
}


class TestValidationMatchesReference:
    """Construction raises what the plain checks (tests/reference.py) raise, or stores
    the same arrays."""

    @pytest.mark.parametrize("name", list(VALIDATION_INPUTS))
    def test_same_outcome(self, name):
        mean, cov = VALIDATION_INPUTS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing inputs
            expected = _stored_or_raised(ref.gaussian_fields, mean, cov)
            got = _stored_or_raised(_measure_fields, mean, cov)
        assert got[0] == expected[0]
        if expected[0] == "ok":
            for a, b in zip(got[1:], expected[1:]):
                assert a.shape == b.shape and np.array_equal(a, b)
        else:
            assert got[1] == expected[1]

    @pytest.mark.parametrize("name, message", [
        ("mean_matrix", "mean must be a vector"),
        ("cov_symmetrization_overflows", "mean and covariance must be finite"),
    ])
    def test_rejected_on_both_sides(self, name, message):
        # each used to be accepted: a (2, 2) mean with dim 4, an infinite stored covariance
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # cov + cov.T overflows
            for build in (ref.gaussian_fields, ga.GaussianMeasure):
                with pytest.raises(ValueError, match=message):
                    build(*VALIDATION_INPUTS[name])

    def test_inputs_reach_every_outcome(self):
        # the table exercises acceptance and each of the checks' messages
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for mean, cov in VALIDATION_INPUTS.values():
                out = _stored_or_raised(ref.gaussian_fields, mean, cov)
                outcomes.add(out[0] if out[0] == "ok" else out[1].split(":")[0])
        assert {"ok", "mean must be a vector", "covariance shape does not match mean dimension",
                "mean and covariance must be finite", "covariance is not symmetric",
                "covariance is not positive definite"} <= outcomes


class TestFactorization:
    """The covariance is factored once; every derived matrix is cached read-only."""

    @pytest.mark.parametrize("d", [1, 3, 10, 30])
    def test_cached_factors_match_direct_computation(self, d):
        rng = np.random.default_rng(d)
        cov = random_spd(rng, d)
        if d > 1:
            diag = np.diag(np.arange(1.0, d + 1))
            assert not np.allclose(cov @ diag, diag @ cov)
        g = ga.GaussianMeasure(rng.standard_normal(d), cov)

        def close(x, ref):
            return np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

        sqrt = ga.spd_sqrt(g.cov)
        assert close(g.sqrt, sqrt)
        assert close(g.inv_sqrt, np.linalg.inv(sqrt))
        sign, logdet = np.linalg.slogdet(g.cov)
        assert sign == 1 and abs(g.log_det - logdet) <= 1e-12 * max(abs(logdet), 1.0)
        assert g.sqrt is g.sqrt and g.inv_sqrt is g.inv_sqrt

    def test_validated_by_cholesky_and_factored_on_first_read(self, monkeypatch):
        rng = np.random.default_rng(4)
        mean, cov = rng.standard_normal(5), random_spd(rng, 5)
        counts = {"eigh": 0, "cholesky": 0}
        for name in counts:
            def counting(*args, _name=name, _func=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _func(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        g = ga.GaussianMeasure(mean, cov)
        assert counts == {"eigh": 0, "cholesky": 1}
        sqrt = g.sqrt
        assert g.evals is g.evals and g.evecs is g.evecs and g.sqrt is sqrt
        assert counts == {"eigh": 1, "cholesky": 1}
        evals, evecs = np.linalg.eigh(0.5 * (cov + cov.T))
        assert np.array_equal(g.evals, evals) and np.array_equal(g.evecs, evecs)

    def test_objective_runs_no_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(6)
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(random_spd(rng, 10), np.zeros(10)))
        g = ga.GaussianMeasure(rng.standard_normal(10), random_spd(rng, 10))
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counting(*args, _func=getattr(np.linalg, name), **kwargs):
                calls.append(_func)
                return _func(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        fn.evaluate(spec, g)
        assert calls == []

    def test_cholesky_factor_is_kept_and_not_a_field(self):
        g = ga.GaussianMeasure(np.zeros(2), np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert np.array_equal(g.chol, np.linalg.cholesky(g.cov))
        assert [f.name for f in dataclasses.fields(g)] == ["mean", "cov"]

    def test_cached_arrays_are_read_only(self):
        g = ga.GaussianMeasure(np.zeros(2), np.array([[2.0, 0.3], [0.3, 1.0]]))
        for arr in (g.mean, g.cov, g.chol, g.evals, g.evecs, g.sqrt, g.inv_sqrt):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestW2Bw:
    def test_self_zero(self):
        g = ga.GaussianMeasure(np.ones(3), np.eye(3))
        assert ga.w2_bw(g, g) == pytest.approx(0, abs=1e-12)

    def test_translation(self):
        g1 = ga.GaussianMeasure(np.array([0.0, 0.0]), np.eye(2))
        g2 = ga.GaussianMeasure(np.array([3.0, 4.0]), np.eye(2))
        assert ga.w2_bw(g1, g2) == pytest.approx(5.0, abs=1e-12)

    def test_one_dim_scale(self):
        g1 = ga.GaussianMeasure(np.zeros(1), np.array([[1.0]]))
        g2 = ga.GaussianMeasure(np.zeros(1), np.array([[4.0]]))
        assert ga.w2_bw(g1, g2) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_covariance_vs_assignment_oracle(self):
        import oracles as orc
        th = np.pi / 4
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        g1 = ga.GaussianMeasure(np.zeros(2), np.diag([1.0, 4.0]))
        g2 = ga.GaussianMeasure(np.zeros(2), rot @ np.diag([1.0, 4.0]) @ rot.T)
        # common random numbers keep the sampling noise correlated
        rng = np.random.default_rng(0)
        z = rng.standard_normal((2000, 2))
        s1 = z @ np.linalg.cholesky(g1.cov).T
        s2 = z @ np.linalg.cholesky(g2.cov).T
        emp = orc.assignment_w2(s1, s2)
        assert emp == pytest.approx(ga.w2_bw(g1, g2), rel=0.02)

    @settings(max_examples=25, deadline=None)
    @given(gaussians(), gaussians(), gaussians())
    def test_triangle_inequality(self, a, b, c):
        assert ga.w2_bw(a, c) <= ga.w2_bw(a, b) + ga.w2_bw(b, c) + 1e-9


def noncommuting_chain(d, n=12, seed=0):
    """n Gaussians in dimension d whose random covariances commute with none of the others."""
    rng = np.random.default_rng([seed, d])
    return [ga.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d, 1.0 / d))
            for _ in range(n)]


class TestStackedW2:
    """The chain-wide W2 evaluations equal the pairwise w2_bw bit for bit (==, not approx)."""

    @pytest.mark.parametrize("d", [10, 30])
    @pytest.mark.parametrize("variant, alpha", [(fn.Variant.KL, 1.0), (fn.Variant.WEIGHTED, 0.5)],
                             ids=["kl", "weighted"])
    def test_chain_to_minimizer(self, d, variant, alpha):
        rng = np.random.default_rng(d)
        pot = fn.QuadraticPotential(random_spd(rng, d, 1.0 / d), rng.standard_normal(d))
        pi = ga.GaussianMeasure.minimizer(fn.ObjectiveSpec(pot, variant, alpha))
        chain = noncommuting_chain(d)
        assert pi.w2_from(chain) == [ga.w2_bw(p, pi) for p in chain]

    @pytest.mark.parametrize("d", [10, 30])
    def test_chain_to_chain(self, d):
        ps, qs = noncommuting_chain(d, seed=1), noncommuting_chain(d, seed=2)
        assert ga.GaussianMeasure.w2_pairs(ps, qs) == [ga.w2_bw(p, q) for p, q in zip(ps, qs)]

    @pytest.mark.parametrize("d", [10, 30])
    def test_stacked_square_root(self, d):
        v = np.random.default_rng(d).standard_normal((d, 2))
        mats = np.array([g.cov for g in noncommuting_chain(d)] + [np.zeros((d, d)), v @ v.T])
        roots = ga.spd_sqrt(mats)
        assert roots.shape == mats.shape
        for root, mat in zip(roots, mats):
            assert np.array_equal(root, ga.spd_sqrt(mat))

    def test_two_square_roots_per_chain(self, monkeypatch):
        chain = noncommuting_chain(10)
        pi = chain.pop()
        shapes = []
        spd_sqrt = ga.spd_sqrt
        monkeypatch.setattr(ga, "spd_sqrt", lambda m: shapes.append(m.shape) or spd_sqrt(m))
        pi.w2_from(chain)
        assert shapes == [(10, 10), (11, 10, 10)]
        shapes.clear()
        ga.GaussianMeasure.w2_pairs(chain, chain[::-1])
        assert shapes == [(11, 10, 10), (11, 10, 10)]

    def test_mismatches_raise(self):
        chain = noncommuting_chain(3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            ga.GaussianMeasure(np.zeros(2), np.eye(2)).w2_from(chain)
        with pytest.raises(ValueError, match="12 measures against 11"):
            ga.GaussianMeasure.w2_pairs(chain, chain[1:])


class TestOtMapBw:
    def test_identity(self):
        g = ga.GaussianMeasure(np.ones(2), np.diag([1.0, 2.0]))
        t = ga.ot_map_bw(g, g)
        assert np.allclose(t.linear, np.eye(2), atol=1e-12)
        assert np.allclose(t.offset, 0, atol=1e-12)

    def test_scalar_case(self):
        g1 = ga.GaussianMeasure(np.zeros(1), np.array([[4.0]]))
        g2 = ga.GaussianMeasure(np.zeros(1), np.array([[9.0]]))
        assert ga.ot_map_bw(g1, g2).linear[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_pushforward_reaches_target(self):
        rng = np.random.default_rng(3)
        g1 = ga.GaussianMeasure(rng.uniform(-1, 1, 3), random_spd(rng, 3))
        g2 = ga.GaussianMeasure(rng.uniform(-1, 1, 3), random_spd(rng, 3))
        pushed = g1.push(ga.ot_map_bw(g1, g2))
        assert np.allclose(pushed.mean, g2.mean, atol=1e-10)
        assert np.allclose(pushed.cov, g2.cov, atol=1e-10)

    def test_inverse_composition(self):
        rng = np.random.default_rng(4)
        g1 = ga.GaussianMeasure(rng.uniform(-1, 1, 2), random_spd(rng, 2))
        g2 = ga.GaussianMeasure(rng.uniform(-1, 1, 2), random_spd(rng, 2))
        back, fwd = ga.ot_map_bw(g2, g1), ga.ot_map_bw(g1, g2)
        assert np.allclose(back.linear @ fwd.linear, np.eye(2), atol=1e-10)
        assert np.allclose(back.linear @ fwd.offset + back.offset, 0, atol=1e-10)

    def test_transport_cost_identity(self):
        # E||x - T(x)||^2 under g1 equals W2^2, closed form
        rng = np.random.default_rng(5)
        g1 = ga.GaussianMeasure(rng.uniform(-1, 1, 3), random_spd(rng, 3))
        g2 = ga.GaussianMeasure(rng.uniform(-1, 1, 3), random_spd(rng, 3))
        t = ga.ot_map_bw(g1, g2)
        a_minus_i = t.linear - np.eye(3)
        disp = t.offset + a_minus_i @ g1.mean
        cost = disp @ disp + np.trace(a_minus_i @ g1.cov @ a_minus_i.T)
        assert cost == pytest.approx(ga.w2_bw(g1, g2) ** 2, abs=1e-10)


class TestKl:
    def test_at_minimizer_zero(self):
        spec = std_spec(2)
        g = ga.GaussianMeasure.minimizer(spec)
        assert g.kl(ga.GaussianMeasure.minimizer(spec)) == pytest.approx(0, abs=1e-12)

    def test_one_dim_mean_shift(self):
        g = ga.GaussianMeasure(np.array([1.0]), np.eye(1))
        pi = ga.GaussianMeasure.minimizer(std_spec(1))
        assert g.kl(pi) == pytest.approx(0.5, abs=1e-12)

    def test_two_dim_closed_form(self):
        g = ga.GaussianMeasure(np.zeros(2), np.diag([4.0, 1.0]))
        expected = 0.5 * (5 - 2 - np.log(4))
        pi = ga.GaussianMeasure.minimizer(std_spec(2))
        assert g.kl(pi) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 10, 30])
    def test_matches_the_precision_formula(self, d):
        # X = L2^{-1} [L1 | dm] gives the trace and quadratic terms to roundoff
        chain = noncommuting_chain(d, n=8, seed=d)
        for g1, g2 in zip(chain, chain[::-1]):
            assert g1.kl(g2) == pytest.approx(ref.gaussian_kl(g1, g2), rel=1e-10, abs=1e-13)

    def test_no_eigendecomposition(self, monkeypatch):
        g1, g2 = noncommuting_chain(10, n=2)
        monkeypatch.setattr(np.linalg, "eigh", None)
        g1.kl(g2)
        assert "inv_sqrt" not in vars(g2) and "_factors" not in vars(g2)

    def test_kl_between_general(self):
        g1 = ga.GaussianMeasure(np.array([1.0]), np.array([[2.0]]))
        g2 = ga.GaussianMeasure(np.array([0.0]), np.array([[1.0]]))
        expected = 0.5 * (2 + 1 - 1 - np.log(2))
        assert g1.kl(g2) == pytest.approx(expected, abs=1e-12)


def gauss_1d(mean, var):
    return ga.GaussianMeasure(np.array([mean]), np.array([[var]]))


class TestTv:
    def test_matches_the_trapezoid(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g1, g2 = (gauss_1d(rng.uniform(-3, 3), rng.uniform(0.1, 9)) for _ in range(2))
            assert g1.tv(g2) == pytest.approx(ref.gaussian_tv_1d(g1, g2), abs=1e-6)

    @pytest.mark.parametrize("dm, var", [(0.0, 1.0), (0.5, 2.0), (-3.0, 0.25), (12.0, 9.0)])
    def test_equal_variances(self, dm, var):
        g1, g2 = gauss_1d(0.7, var), gauss_1d(0.7 + dm, var)
        dm = float(g2.mean[0] - g1.mean[0])
        expected = math.erf(abs(dm) / (2 * math.sqrt(2) * math.sqrt(var)))
        assert g1.tv(g2) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("rel", [3e-16, 1e-12, 1e-9])
    def test_two_crossings_tend_to_one(self, rel):
        g = gauss_1d(0.3, 2.0)
        assert g.tv(gauss_1d(0.8, 2.0 * (1 + rel))) == pytest.approx(
            g.tv(gauss_1d(0.8, 2.0)), abs=10 * rel + 1e-15)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            g1, g2 = (gauss_1d(rng.uniform(-30, 30), rng.uniform(1e-4, 1e4)) for _ in range(2))
            assert g1.tv(g2) == pytest.approx(g2.tv(g1), abs=1e-14)
            assert 0.0 <= g1.tv(g2) <= 1.0
        assert gauss_1d(0, 1).tv(gauss_1d(0, 1)) == 0.0
        assert gauss_1d(-50, 1).tv(gauss_1d(50, 4)) == 1.0

    def test_none_above_one_dimension(self):
        g = ga.GaussianMeasure(np.zeros(2), np.eye(2))
        assert g.tv(g) is None


class TestSubgradientField:
    def test_zero_at_minimizer(self):
        spec = std_spec(3)
        fld = ref.subgradient_field(ga.GaussianMeasure.minimizer(spec), spec)
        g = ga.GaussianMeasure.minimizer(spec)
        assert ref.field_l2_norm(fld, g) <= 1e-12

    def test_constant_field_for_mean_shift(self):
        g = ga.GaussianMeasure(np.array([1.0]), np.eye(1))
        fld = ref.subgradient_field(g, std_spec(1))
        assert np.allclose(fld.linear, 0, atol=1e-12)
        assert fld.offset[0] == pytest.approx(1.0, abs=1e-12)

    def test_finite_difference_agreement(self):
        import oracles as orc
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = rng.integers(1, 4)
            spec = fn.ObjectiveSpec(
                fn.QuadraticPotential(random_spd(rng, d), rng.uniform(-1, 1, d)))
            g = ga.GaussianMeasure(rng.uniform(-1, 1, d), random_spd(rng, d))
            v = ga.AffineMap(0.3 * rng.standard_normal((d, d)),
                             0.3 * rng.standard_normal(d))
            fld = ref.subgradient_field(g, spec)
            inner = float(
                (fld.linear @ g.mean + fld.offset) @ (v.linear @ g.mean + v.offset)
                + np.trace(fld.linear @ g.cov @ v.linear.T))
            fd = orc.fd_directional(spec, g, v, 1e-5)
            assert fd == pytest.approx(inner, abs=1e-7, rel=1e-6)


class TestFieldNorm:
    def test_zero_field(self):
        g = ga.GaussianMeasure(np.ones(2), np.eye(2))
        assert ref.field_l2_norm(ga.AffineMap(np.zeros((2, 2)), np.zeros(2)), g) == 0

    def test_constant_field(self):
        g = ga.GaussianMeasure(np.array([5.0, -1.0]), 3 * np.eye(2))
        c = np.array([3.0, 4.0])
        assert ref.field_l2_norm(ga.AffineMap(np.zeros((2, 2)), c), g) == pytest.approx(5.0)

    def test_identity_field_on_standard_normal(self):
        for d in (1, 2, 3, 8):
            g = ga.GaussianMeasure(np.zeros(d), np.eye(d))
            fld = ga.AffineMap(np.eye(d), np.zeros(d))
            assert ref.field_l2_norm(fld, g) == pytest.approx(np.sqrt(d), abs=1e-12)


class TestPushforwardAffine:
    @settings(max_examples=25, deadline=None)
    @given(gaussians())
    def test_mean_cov_exact(self, g):
        rng = np.random.default_rng(0)
        t = ga.AffineMap(rng.standard_normal((2, 2)), rng.standard_normal(2))
        pushed = g.push(t)
        assert np.allclose(pushed.mean, t.linear @ g.mean + t.offset, atol=1e-12)
        assert np.allclose(pushed.cov, t.linear @ g.cov @ t.linear.T, atol=1e-12)


def _stack_outcome(kind, *stacked):
    """("ok", the items' fields) of kind.stack, or (exception type, message)."""
    try:
        items = kind.stack(*stacked)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return "ok", [[getattr(x, f.name) for f in dataclasses.fields(x)] for x in items]


# the validation inputs that are one measure of dimension >= 1 as a mean vector and a
# square covariance, so a stack can hold them next to a valid measure
STACKABLE = [name for name, (mean, cov) in VALIDATION_INPUTS.items()
             if isinstance(mean, np.ndarray) and mean.ndim == 1 and mean.size
             and isinstance(cov, np.ndarray) and cov.shape == (mean.size, mean.size)]


class TestStack:
    """GaussianMeasure.stack and AffineMap.stack build what per-item construction builds,
    after one validation of the whole stack, and raise its messages."""

    @pytest.mark.parametrize("d", [1, 2, 10, 30])
    def test_equals_single_construction(self, d):
        rng = np.random.default_rng(d)
        means = rng.standard_normal((6, d))
        # asymmetric within the tolerance, so the symmetrization's bits are compared too
        covs = np.array([random_spd(rng, d) + 1e-14 * np.triu(rng.standard_normal((d, d)))
                         for _ in range(6)])
        stacked = ga.GaussianMeasure.stack(means, covs)
        assert len(stacked) == 6
        for g, m, c in zip(stacked, means, covs):
            single = ga.GaussianMeasure(m, c)
            for a, b in ((g.mean, single.mean), (g.cov, single.cov), (g.chol, single.chol)):
                assert a.shape == b.shape and np.array_equal(a, b) and not a.flags.writeable
        maps = ga.AffineMap.stack(covs, means)
        for t, m, c in zip(maps, means, covs):
            assert np.array_equal(t.linear, c) and np.array_equal(t.offset, m)
            assert not (t.linear.flags.writeable or t.offset.flags.writeable)

    @pytest.mark.parametrize("name", STACKABLE)
    def test_same_outcome_as_single_construction(self, name):
        mean, cov = VALIDATION_INPUTS[name]
        d = mean.size
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing inputs
            single = _stored_or_raised(_measure_fields, mean, cov)
            got = _stack_outcome(ga.GaussianMeasure, np.array([np.zeros(d), mean]),
                                 np.array([np.eye(d), cov]))
        assert got[0] == single[0]
        if single[0] == "ok":
            for a, b in zip(got[1][1], single[1:]):
                assert np.array_equal(a, b)
        else:
            assert got[1] == single[1]

    def test_stackable_inputs_reach_every_rejection(self):
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for name in STACKABLE:
                out = _stored_or_raised(_measure_fields, *VALIDATION_INPUTS[name])
                outcomes.add(out[0] if out[0] == "ok" else out[1].split(":")[0])
        assert outcomes == {"ok", "mean and covariance must be finite",
                            "covariance is not symmetric", "covariance is not positive definite"}

    @pytest.mark.parametrize("means, covs, message", [
        (np.zeros(2), np.eye(2)[None], "mean must be a vector"),
        (np.zeros((2, 2)), np.ones((2, 2, 3)), "covariance shape does not match mean dimension"),
        (np.zeros((2, 2)), np.ones((3, 2, 2)), "covariance shape does not match mean dimension"),
    ], ids=["unstacked_mean", "not_square", "count_mismatch"])
    def test_rejects_shapes(self, means, covs, message):
        with pytest.raises(ValueError, match=message):
            ga.GaussianMeasure.stack(means, covs)

    @pytest.mark.parametrize("linear, offset", [
        (np.ones((3, 3)), np.ones(2)),
        (np.eye(4), np.zeros((2, 2))),  # was accepted alone: dim 4 and a (2, 2) offset
    ], ids=["dimension", "matrix_offset"])
    def test_affine_rejects_shapes(self, linear, offset):
        for build in (ga.AffineMap, lambda a, b: ga.AffineMap.stack(a[None], b[None])):
            with pytest.raises(ValueError, match="linear part shape does not match"):
                build(linear, offset)
        with pytest.raises(ValueError, match="linear part shape does not match"):
            ga.AffineMap.stack(np.ones((2, 2)), np.ones(2))  # not a stack


def affine_maps(d, n=5, seed=0):
    """n maps x -> L x + b with random symmetric positive definite L."""
    rng = np.random.default_rng([seed, d])
    return [ga.AffineMap(random_spd(rng, d), rng.standard_normal(d)) for _ in range(n)]


class TestInverseMaps:
    """T^{-1}'s arrays and Lip(T^{-1}) of a chain of affine maps, each one stacked evaluation."""

    @pytest.mark.parametrize("d", [1, 2, 10, 30])
    def test_inverse_fields_of_equals_per_map_inverses(self, d):
        maps = affine_maps(d)
        got = ga.AffineMap.inverse_fields_of(maps)
        assert len(got) == len(maps)
        for (a, b), t in zip(got, maps):
            inv = np.linalg.inv(t.linear)
            assert np.array_equal(a, inv) and np.array_equal(b, -inv @ t.offset)

    @pytest.mark.parametrize("d", [1, 2, 10, 30])
    def test_inverse_lipschitz_of_is_one_over_lambda_min(self, d):
        maps = affine_maps(d)
        got = ga.AffineMap.inverse_lipschitz_of(maps)
        assert got == [1 / np.linalg.eigvalsh(t.linear)[0] for t in maps]
        assert got == pytest.approx([np.linalg.norm(np.linalg.inv(t.linear), 2) for t in maps],
                                    rel=1e-13)

    def test_inverse_lipschitz_of_rejects_a_non_symmetric_linear_part(self):
        maps = affine_maps(3)
        linear = maps[2].linear.copy()
        linear[0, 1] = np.nextafter(linear[0, 1], np.inf)  # one ulp off symmetric
        maps[2] = ga.AffineMap(linear, maps[2].offset)
        with pytest.raises(ValueError, match="not symmetric"):
            ga.AffineMap.inverse_lipschitz_of(maps)

    @pytest.mark.parametrize("lowest", [-0.5, 0.0], ids=["indefinite", "singular"])
    def test_inverse_lipschitz_of_rejects_a_linear_part_not_positive_definite(self, lowest):
        maps = affine_maps(3)
        maps[1] = ga.AffineMap(np.diag([lowest, 1.0, 2.0]), np.zeros(3))
        with pytest.raises(ValueError, match="not positive definite"):
            ga.AffineMap.inverse_lipschitz_of(maps)
