import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from jkolab import functionals as fn
from jkolab import quantile as qt

import reference as ref


def gaussian_grid(mean=0.0, sd=1.0, m=256):
    return qt.from_gaussian(mean, sd, m)


def kl(p: qt.QuantileGrid, spec) -> float:
    """KL(p || q) for the Gaussian target of `spec`: H(p) + E_p[V] + log Z.

    Small negative values are pure discretization error (KL >= 0) and are
    clamped to zero.
    """
    return max(ref.grid_objective(spec, p), 0.0)


def lipschitz(t: qt.MonotoneMap1D) -> float:
    """Largest segment slope (extrapolation uses boundary slopes, so this is global)."""
    return float(np.max(np.diff(t.y) / np.diff(t.x)))


@st.composite
def grids(draw, m=64):
    mean = draw(st.floats(-3, 3))
    sd = draw(st.floats(0.2, 3))
    return qt.from_gaussian(mean, sd, m)


class TestQuantileGrid:
    def test_rejects_small_grids(self):
        with pytest.raises(ValueError):
            qt.QuantileGrid(np.arange(4, dtype=float))

    def test_rejects_non_monotone(self):
        vals = np.arange(16, dtype=float)
        vals[5] = vals[6]
        with pytest.raises(ValueError):
            qt.QuantileGrid(vals)

    def test_rejects_non_finite(self):
        vals = np.arange(16, dtype=float)
        vals[-1] = np.inf
        with pytest.raises(ValueError):
            qt.QuantileGrid(vals)

    def test_u_midpoints(self):
        g = gaussian_grid(m=8)
        assert np.allclose(qt.midpoints(g.m), (np.arange(8) + 0.5) / 8)


def _with(index, value, m=16):
    vals = np.arange(m, dtype=float)
    vals[index] = value
    return vals


# one grid's quantile values each; a stack holds them after a valid row of the same length
GRID_INPUTS = {
    "valid": np.linspace(-1.0, 1.0, 16),
    "too_small": np.arange(4, dtype=float),
    "tie": _with(5, 6.0),
    "decreasing_end": _with(-1, 13.5),
    "nan_middle": _with(7, np.nan),
    "inf_end": _with(-1, np.inf),
    "minus_inf_start": _with(0, -np.inf),
}


def _grid_outcome(build):
    try:
        return "ok", build()
    except ValueError as exc:
        return ValueError, str(exc)


class TestStack:
    """QuantileGrid.stack builds what per-grid construction builds, after one validation
    of the whole stack, and raises its messages."""

    @pytest.mark.parametrize("name", list(GRID_INPUTS))
    def test_same_outcome_as_single_construction(self, name):
        vals = GRID_INPUTS[name]
        single = _grid_outcome(lambda: [qt.QuantileGrid(vals).values])
        got = _grid_outcome(lambda: [g.values for g in qt.QuantileGrid.stack(
            np.array([np.arange(vals.size, dtype=float), vals]))][1:])
        assert got[0] == single[0]
        if single[0] == "ok":
            assert np.array_equal(got[1][0], single[1][0]) and not got[1][0].flags.writeable
        else:
            assert got[1] == single[1]

    def test_inputs_reach_every_outcome(self):
        outcomes = set()
        for vals in GRID_INPUTS.values():
            out = _grid_outcome(lambda: qt.QuantileGrid(vals))
            outcomes.add("ok" if out[0] == "ok" else out[1])
        assert outcomes == {"ok", "need at least 8 quantile values, got 4",
                            "quantile values must be finite",
                            "quantile values must be strictly increasing"}

    def test_equals_single_construction(self):
        rng = np.random.default_rng(4)
        values = np.sort(rng.standard_normal((5, 64)), axis=1)
        grids = qt.QuantileGrid.stack(values)
        assert len(grids) == 5
        for g, row in zip(grids, values):
            assert np.array_equal(g.values, qt.QuantileGrid(row).values)

    def test_rejects_an_unstacked_grid(self):
        with pytest.raises(ValueError, match="need at least 8 quantile values"):
            qt.QuantileGrid.stack(np.arange(16, dtype=float))


class TestFromGaussian:
    def test_matches_inverse_normal_cdf(self):
        g = qt.from_gaussian(0, 1, 8)
        expected = ndtri((np.arange(8) + 0.5) / 8)
        assert np.allclose(g.values, expected, atol=1e-14)

    def test_negation_symmetry(self):
        g = qt.from_gaussian(1.3, 0.7, 32)
        flipped = qt.from_gaussian(-1.3, 0.7, 32)
        assert np.allclose(-g.values[::-1], flipped.values, atol=1e-12)

    def test_antisymmetric_at_zero_mean(self):
        g = qt.from_gaussian(0, 1, 64)
        assert np.allclose(g.values, -g.values[::-1], atol=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            qt.from_gaussian(0, 0, 64)
        with pytest.raises(ValueError):
            qt.from_gaussian(0, 1, 4)


class TestW2:
    def test_self_distance_zero(self):
        g = gaussian_grid()
        assert g.w2(g) == 0.0

    def test_constant_shift_exact(self):
        assert gaussian_grid(0).w2(gaussian_grid(2)) == pytest.approx(2.0, abs=1e-14)

    def test_scale_difference(self):
        # same-mean 1-D Gaussians: W2 = |sigma1 - sigma2|
        val = gaussian_grid(0, 1, 2048).w2(gaussian_grid(0, 2, 2048))
        assert val == pytest.approx(1.0, abs=5e-3)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            gaussian_grid(m=64).w2(gaussian_grid(m=128))

    @settings(max_examples=25, deadline=None)
    @given(grids(), grids(), grids())
    def test_metric_axioms(self, p, q, r):
        assert p.w2(q) >= 0
        assert p.w2(q) == pytest.approx(q.w2(p), abs=1e-14)
        assert p.w2(r) <= p.w2(q) + q.w2(r) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(8, 2048), st.integers(1, 60), st.integers(0, 2 ** 32 - 1))
    def test_stacked_chains_equal_each_pair_bit_for_bit(self, m, n, seed):
        # one array function for w2, w2_from and w2_pairs, each entry its pair's
        rng = np.random.default_rng(seed)
        ps, qs = ([qt.QuantileGrid(np.cumsum(rng.uniform(1e-3, 1.0, m)) - rng.uniform(0, m))
                   for _ in range(n)] for _ in range(2))

        def pairwise(a, b):  # the per-pair spelling w2 had
            d = a.values - b.values
            return float(np.sqrt(np.mean(d * d)))

        assert [p.w2(qs[0]) for p in ps] == [pairwise(p, qs[0]) for p in ps]
        assert qs[0].w2_from(ps) == [pairwise(p, qs[0]) for p in ps]
        assert qt.QuantileGrid.w2_pairs(ps, qs) == [pairwise(p, q) for p, q in zip(ps, qs)]

    def test_pairs_of_unequal_chains_rejected(self):
        chain = [gaussian_grid(mean) for mean in range(3)]
        with pytest.raises(ValueError):
            qt.QuantileGrid.w2_pairs(chain, chain[1:])
        with pytest.raises(ValueError):
            qt.QuantileGrid.w2_pairs(chain[:1], chain)


class TestOtMap:
    def test_identity(self):
        g = gaussian_grid()
        t = qt.ot_map(g, g)
        assert np.array_equal(t.x, t.y)

    def test_gaussian_map_is_affine(self):
        p = gaussian_grid(1, 1, 2048)
        q = gaussian_grid(-0.5, 2, 2048)
        t = qt.ot_map(p, q)
        slopes = np.diff(t.y) / np.diff(t.x)
        assert np.allclose(slopes, 2.0, atol=1e-6)
        assert abs(float(qt.apply_map(t.x, t.y, np.array([1.0]))[0]) - (-0.5)) <= 1e-6

    def test_inverse_composes_to_identity(self):
        p, q = gaussian_grid(0, 1), gaussian_grid(1, 2)
        t = qt.ot_map(p, q)
        back = ref.inverse(t)
        assert np.allclose(qt.apply_map(back.x, back.y, qt.apply_map(t.x, t.y, p.values)),
                           p.values, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(grids(), grids())
    def test_transport_cost_equals_w2(self, p, q):
        # 1-D OT is quantile matching, so the map cost is exactly W2^2
        t = qt.ot_map(p, q)
        cost = np.mean((p.values - qt.apply_map(t.x, t.y, p.values)) ** 2)
        assert cost == pytest.approx(p.w2(q) ** 2, rel=1e-12, abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(grids(), grids())
    def test_pushforward_reaches_target(self, p, q):
        assert np.allclose(ref.push(p, qt.ot_map(p, q)).values, q.values, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(grids(), grids())
    def test_is_the_validated_map(self, p, q):
        # the grids are validated, so ot_map checks only the slopes
        t, full = qt.ot_map(p, q), qt.MonotoneMap1D(p.values, q.values)
        assert type(t) is qt.MonotoneMap1D
        assert t.x is p.values and t.y is q.values
        assert np.array_equal(t.x, full.x) and np.array_equal(t.y, full.y)
        assert not (t.x.flags.writeable or t.y.flags.writeable)

    def test_overflowing_slope_raises_the_maps_message(self):
        p = qt.QuantileGrid(np.arange(8) * 5e-324)  # gaps of the smallest subnormal
        q = qt.QuantileGrid(np.arange(8.0))
        with np.errstate(over="ignore"):
            for build in (qt.MonotoneMap1D, lambda x, y: qt.ot_map(p, q)):
                with pytest.raises(ValueError, match="^segment slopes must be finite$"):
                    build(p.values, q.values)

    def test_sizes_must_match(self):
        with pytest.raises(ValueError, match="grid sizes differ: 16 vs 8"):
            qt.ot_map(gaussian_grid(m=16), gaussian_grid(m=8))


def where_apply_map(x, y, t):
    """apply_map's former formula, two full-length np.where passes: the reference."""
    t = np.asarray(t, dtype=float)
    out = np.interp(t, x, y)
    s0 = (y[1] - y[0]) / (x[1] - x[0])
    out = np.where(t < x[0], y[0] + s0 * (t - x[0]), out)
    s1 = (y[-1] - y[-2]) / (x[-1] - x[-2])
    return np.where(t > x[-1], y[-1] + s1 * (t - x[-1]), out)


class TestApplyMap:
    @pytest.mark.parametrize("lo, hi", [(-1.5, 1.5), (-6.0, 1.5), (-1.5, 6.0), (-6.0, 6.0)],
                             ids=["inside", "below", "above", "both_sides"])
    @pytest.mark.parametrize("order", ["sorted", "unsorted"])
    def test_bit_identical_to_where_formula(self, lo, hi, order):
        rng = np.random.default_rng(5)
        x = gaussian_grid(0, 1, 64).values
        y = np.cumsum(rng.uniform(0.1, 2.0, x.size))
        t = np.linspace(lo, hi, 301)
        if order == "unsorted":
            t = rng.permutation(t)
        out = qt.apply_map(x, y, t)
        assert np.array_equal(out, where_apply_map(x, y, t))
        assert (np.any(t < x[0]), np.any(t > x[-1])) == (lo < -3, hi > 3)

    def test_scalar(self):
        x, y = np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 3.0])
        for t in (-1.0, 0.5, 5.0):
            assert qt.apply_map(x, y, t) == where_apply_map(x, y, t)


class TestPushforward:
    def test_identity(self):
        g = gaussian_grid()
        identity = qt.MonotoneMap1D(g.values, g.values.copy())
        assert np.allclose(ref.push(g, identity).values, g.values)

    def test_affine_map_of_gaussian(self):
        g = gaussian_grid(0, 1, 256)
        t = qt.MonotoneMap1D(np.array([-10.0, 10.0]), np.array([-19.0, 21.0]))
        pushed = ref.push(g, t)  # x -> 2x + 1
        assert np.allclose(pushed.values, gaussian_grid(1, 2, 256).values, atol=1e-12)

    def test_round_trip(self):
        g = gaussian_grid(0.5, 1.5, 128)
        t = qt.ot_map(g, gaussian_grid(-1, 0.6, 128))
        back = ref.push(ref.push(g, t), ref.inverse(t))
        assert np.allclose(back.values, g.values, atol=1e-12)

    def test_decreasing_map_rejected(self):
        g = gaussian_grid()
        with pytest.raises(ValueError):
            qt.MonotoneMap1D(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


@st.composite
def rough_grids(draw):
    """Grids of 8..600 points whose gaps span up to six decades, anywhere on the line."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(qt.MIN_GRID_SIZE, 600))
    gaps = rng.exponential(size=m) * 10.0 ** rng.uniform(-3, 3, size=m)
    return qt.QuantileGrid(draw(st.floats(-1e3, 1e3)) + np.cumsum(gaps))


class TestObjectives:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(rough_grids(), min_size=1, max_size=3), st.floats(1e-3, 1e3),
           st.floats(-100, 100), st.sampled_from(list(fn.Variant)), st.floats(1e-2, 10))
    def test_one_pass_is_the_plain_spelling_bit_for_bit(self, measures, lam, center, variant,
                                                        alpha):
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(np.array([[lam]]), np.array([center])),
                                variant, alpha if variant is fn.Variant.WEIGHTED else 1.0)
        assert qt.QuantileGrid.objectives(spec, measures) == [
            ref.grid_objective(spec, g) for g in measures]

    def test_rejects_a_multivariate_objective(self):
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(np.eye(2), np.zeros(2)))
        with pytest.raises(ValueError, match="1-D objective"):
            qt.QuantileGrid.objectives(spec, [gaussian_grid()])


class TestEntropy:
    def test_standard_normal(self):
        h = ref.grid_entropy(gaussian_grid(0, 1, 4096))
        assert h == pytest.approx(-0.5 * np.log(2 * np.pi * np.e), abs=2e-3)

    def test_uniform_zero(self):
        g = qt.QuantileGrid((np.arange(64) + 0.5) / 64)
        assert ref.grid_entropy(g) == pytest.approx(0.0, abs=1e-12)

    def test_scaling_rule_exact(self):
        g = gaussian_grid(0, 1, 512)
        a = 2.5
        scaled = qt.QuantileGrid(a * g.values)
        assert ref.grid_entropy(scaled) == pytest.approx(ref.grid_entropy(g) - np.log(a), abs=1e-12)


class TestKlAndTv:
    @pytest.fixture
    def std_spec(self):
        from jkolab import functionals as fn
        return fn.ObjectiveSpec(fn.QuadraticPotential(np.eye(1), np.zeros(1)))

    def test_kl_to_self(self, std_spec):
        assert kl(gaussian_grid(0, 1, 4096), std_spec) == pytest.approx(0, abs=2e-3)

    def test_kl_mean_shift(self, std_spec):
        assert kl(gaussian_grid(1, 1, 4096), std_spec) == pytest.approx(0.5, abs=2e-3)

    def test_kl_variance(self, std_spec):
        val = kl(gaussian_grid(0, 2, 4096), std_spec)
        assert val == pytest.approx((4 - 1 - 2 * np.log(2)) / 2, abs=2e-3)

    def test_tv_self_zero(self):
        g = gaussian_grid()
        assert g.tv(g) == 0.0

    def test_tv_mean_shift_closed_form(self):
        val = gaussian_grid(0, 1, 2048).tv(gaussian_grid(1, 1, 2048))
        assert val == pytest.approx(2 * norm.cdf(0.5) - 1, abs=5e-3)

    def test_pinsker(self, std_spec):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m, s = rng.uniform(-1, 1), rng.uniform(0.5, 2)
            p = gaussian_grid(m, s, 1024)
            q = gaussian_grid(0, 1, 1024)
            kl_exact = 0.5 * (s * s + m * m - 1 - 2 * np.log(s))
            assert p.tv(q) <= np.sqrt(kl_exact / 2) + 5e-3


class TestScore:
    def test_gaussian_score(self):
        g = gaussian_grid(0.5, 1.3, 4096)
        s = qt.gap_score(np.diff(g.values))
        analytic = -(g.values - 0.5) / 1.3**2
        interior = slice(int(0.05 * 4096), int(0.95 * 4096))
        assert np.max(np.abs(s[interior] - analytic[interior])) <= 1e-2

    def test_uniform_interior_zero(self):
        g = qt.QuantileGrid(2.0 * (np.arange(64) + 0.5) / 64)
        assert np.allclose(qt.gap_score(np.diff(g.values))[1:-1], 0.0, atol=1e-9)

    def test_scaling(self):
        g = gaussian_grid(0, 1, 512)
        a = 3.0
        scaled = qt.QuantileGrid(a * g.values)
        assert np.allclose(qt.gap_score(np.diff(scaled.values)),
                           qt.gap_score(np.diff(g.values)) / a, atol=1e-12)

    def test_integration_by_parts(self):
        # (1/M) sum score_k phi(Q_k) ~ -(1/M) sum phi'(Q_k) for smooth phi
        g = gaussian_grid(0, 1, 4096)
        x = g.values
        phi = np.exp(-x * x)  # smooth, decays fast
        dphi = -2 * x * np.exp(-x * x)
        lhs = np.mean(qt.gap_score(np.diff(x)) * phi)
        rhs = -np.mean(dphi)
        assert abs(lhs - rhs) <= 1e-2


class TestSmallOps:
    def test_second_moment(self):
        assert qt.second_moment(gaussian_grid(0, 1, 4096)) == pytest.approx(1, abs=2e-3)

    def test_lipschitz_affine(self):
        t = qt.MonotoneMap1D(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 5.0]))
        assert lipschitz(t) == pytest.approx(2.0)

    def test_invert_twice(self):
        t = qt.ot_map(gaussian_grid(0, 1), gaussian_grid(1, 2))
        t2 = ref.inverse(ref.inverse(t))
        assert np.array_equal(t.x, t2.x) and np.array_equal(t.y, t2.y)
