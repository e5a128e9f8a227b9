import dataclasses
import math

import numpy as np
import pytest

from jkolab import certify as ct
from jkolab import functionals as fn
from jkolab import gaussian as ga
from jkolab import process as pr
from jkolab import quantile as qt

import reference as ref


def kl_spec(lam=1.0, d=1):
    return fn.ObjectiveSpec(fn.QuadraticPotential(lam * np.eye(d), np.zeros(d)))


def gauss_traj(n=4, eps=0.0, lam=1.0, mean=2.0, var=4.0):
    p0 = ga.GaussianMeasure(np.array([mean]), np.array([[var]]))
    return ref.forward(p0, kl_spec(lam=lam), 1.0, n, eps=eps)


@pytest.fixture(scope="module")
def mean_shift_runs():
    """N = 40 steps at eps = 0.1 (mean shift): a d = 2 Gaussian and an M = 2048 grid."""
    pot2 = fn.QuadraticPotential(np.array([[1.0, 0.2], [0.2, 2.0]]), np.array([0.0, 1.0]))
    p0 = ga.GaussianMeasure(np.array([2.0, -1.0]), np.array([[4.0, 1.0], [1.0, 3.0]]))
    return {"gaussian": ref.forward(p0, fn.ObjectiveSpec(pot2), 1.0, 40, 0.1),
            "grid": ref.forward(qt.from_gaussian(1.5, 1.5, 2048), kl_spec(), 1.0, 40, 0.1)}


# a stored transport with its offset moved by 0.05 (on a grid, its knot values y)
MOVED = {"gaussian": lambda t: ga.AffineMap(t.linear, t.offset + 0.05),
         "grid": lambda t: qt.MonotoneMap1D(t.x, t.y + 0.05)}


def check_dpi(p, q, t) -> ct.BoundReport:
    """|KL(p || q) - KL(T#p || T#q)| within family tolerance."""
    before = p.kl(q)
    after = ref.push(p, t).kl(ref.push(q, t))
    return ct.BoundReport("dpi", abs(before - after), p.dpi_tol, 0.0,
                          {"kl_before": before, "kl_after": after})


class TestBoundReport:
    def test_slack_and_holds(self):
        r = ct.BoundReport("x", 1.0, 2.0)
        assert r.slack == 1.0 and r.holds

    def test_fails_when_lhs_exceeds(self):
        assert not ct.BoundReport("x", 2.0, 1.0).holds

    def test_tolerance_rescues_tiny_violation(self):
        assert ct.BoundReport("x", 1.0 + 1e-10, 1.0, numerical_tol=1e-8).holds
        assert not ct.BoundReport("x", 1.0 + 1e-6, 1.0, numerical_tol=1e-8).holds

    def test_infinite_rhs_allowed(self):
        assert ct.BoundReport("x", 5.0, math.inf).holds

    def test_non_finite_lhs_rejected(self):
        with pytest.raises(ValueError):
            ct.BoundReport("x", math.nan, 1.0)

    def test_report_lines_format(self):
        out = ct.report_lines([ct.BoundReport("a", 1.0, 2.0, 0.0, {"n": 3}),
                               ct.BoundReport("b", 3.0, 2.0, 0.0, {}, "why not")])
        lines = out.strip().split("\n")
        assert lines[0] == "name,holds,lhs,rhs,slack,tol,context,not_applicable"
        cells = lines[1].split(",")
        assert cells[0] == "a" and cells[1] == "1" and cells[6] == "n=3" and cells[7] == ""
        assert lines[2].split(",")[1::6] == ["1", "why not"]  # lhs > rhs, but it never fails


class TestMonotonicity:
    def test_gaussian_triples(self):
        rng = np.random.default_rng(0)
        spec = kl_spec()
        for _ in range(50):
            ms = rng.uniform(-2, 2, 3)
            vs = rng.uniform(0.3, 3, 3)
            p, rho, pi = (ga.GaussianMeasure(np.array([m]), np.array([[v]]))
                          for m, v in zip(ms, vs))
            assert ref.check_monotonicity(p, rho, pi, spec).holds

    def test_equality_at_rho_equals_pi(self):
        spec = kl_spec()
        p = ga.GaussianMeasure(np.array([0.0]), np.eye(1))
        rho = ga.GaussianMeasure(np.array([1.0]), np.array([[2.0]]))
        r = ref.check_monotonicity(p, rho, rho, spec)
        assert abs(r.slack) <= 1e-10

    def test_grid_triples(self):
        rng = np.random.default_rng(1)
        spec = kl_spec()
        for _ in range(10):
            p, rho, pi = (qt.from_gaussian(rng.uniform(-1, 1), rng.uniform(0.5, 2), 256)
                          for _ in range(3))
            assert ref.check_monotonicity(p, rho, pi, spec, tol=1e-4).holds


class TestEvi:
    def test_exact_gaussian_chain(self):
        traj = gauss_traj(5)
        reports = ct.check_evi(traj)
        assert len(reports) == 5
        assert all(r.holds for r in reports)
        # closed-form first-step slack: rhs = W2^2(p0,q) = 5, lhs from the
        # exact next iterate N(1, s) with s solving 2 - 2/sqrt(s) = 1/s
        from scipy.optimize import brentq
        s = brentq(lambda s: 2 - 2 / math.sqrt(s) - 1 / s, 0.5, 4.0, xtol=1e-14)
        w1_sq = 1.0 + (math.sqrt(s) - 1) ** 2
        g1 = 0.5 * (s + 1 - 1 - math.log(s))
        expected_slack = 5.0 - (1.5 * w1_sq + 2 * g1)
        assert reports[0].slack == pytest.approx(expected_slack, abs=1e-6)

    def test_perturbed_chain(self):
        traj = gauss_traj(4, eps=0.1)
        reports = ct.check_evi(traj)
        assert all(r.holds for r in reports)

    def test_fails_on_corrupted_measure(self):
        traj = gauss_traj(3)
        bad = list(traj.measures)
        bad[1] = ga.GaussianMeasure(np.array([5.0]), np.array([[4.0]]))
        corrupted = dataclasses.replace(traj, measures=bad)
        reports = ct.check_evi(corrupted)
        assert not all(r.holds for r in reports)

    def test_grid_chain(self):
        p0 = qt.from_gaussian(1.5, 1.3, 512)
        traj = ref.forward(p0, kl_spec(), 1.0, 3)
        assert all(r.holds for r in ct.check_evi(traj))


class TestForwardRate:
    def test_exact_chain(self):
        traj = gauss_traj(6)
        reports = ct.check_forward_rate(traj)
        # eps = 0: the terminal threshold is +inf, so each terminal bound is one row
        # that does not apply
        assert [r.name for r in reports if r.not_applicable] == [
            "forward_terminal_w2", "forward_terminal_gap"]
        assert len(reports) == 8
        assert all(r.holds for r in reports)

    def test_perturbed_chain_has_terminal_reports(self):
        # threshold = 8 (log sqrt(5) + log(1/0.5)) ~ 12, so run past it
        traj = gauss_traj(14, eps=0.5)
        reports = ct.check_forward_rate(traj)
        names = {r.name for r in reports}
        assert "forward_terminal_w2" in names and "forward_terminal_gap" in names
        assert all(r.holds for r in reports)

    def test_terminal_w2_value(self):
        traj = gauss_traj(14, eps=0.5)
        for r in ct.check_forward_rate(traj):
            if r.name == "forward_terminal_w2":
                assert r.rhs == pytest.approx(math.sqrt(5) * 0.5)

    @pytest.mark.parametrize("family", ["gaussian", "grid"])
    def test_understated_xi_norms_fail(self, family, mean_shift_runs):
        # must-fail control: the recorded ||xi|| divided by 10 claim a tenfold smaller eps
        traj = mean_shift_runs[family]
        assert all(r.holds for r in ct.check_forward_rate(traj))
        doctored = dataclasses.replace(traj, xi_norms=[x / 10 for x in traj.xi_norms])
        rates = [r for r in ct.check_forward_rate(doctored) if r.name == "forward_rate"]
        assert len(rates) == 40
        assert sum(not r.holds for r in rates) >= 20  # 23 (Gaussian) and 27 (grid) fail


class TestKlTv:
    def test_zero_eps_short_chain_does_not_apply(self):
        # with eps = 0 both right sides are 0, but a finite chain has not converged, so
        # KL(p0 || q0) > 0: the terminal guarantee needs N >= threshold, +inf at eps = 0.
        # The rows keep their numbers, marked not applicable
        traj = gauss_traj(4)
        reports = ct.check_kl_tv_guarantee(traj)
        assert [r.not_applicable for r in reports] == ["step below threshold"] * 2
        assert all(r.holds for r in reports)
        assert reports[0].lhs > 1e-4 and reports[0].rhs < 1e-12 and reports[0].slack < 0

    def test_holds_after_enough_calibrated_steps(self):
        eps = 0.1
        n = pr.steps_needed(math.sqrt(5), 1.0, 1.0, eps)
        traj = gauss_traj(n, eps=eps)
        assert all(r.holds and not r.not_applicable for r in ct.check_kl_tv_guarantee(traj))
        # one step short of the threshold the guarantee does not apply yet
        assert [r.not_applicable for r in ct.check_kl_tv_guarantee(gauss_traj(n - 1, eps=eps))] \
            == ["step below threshold"] * 2

    def test_perturbed_chain(self):
        traj = gauss_traj(6, eps=0.1)
        reports = ct.check_kl_tv_guarantee(traj)
        assert [r.name for r in reports] == ["reverse_kl", "reverse_tv"]
        assert all(r.holds for r in reports)
        assert reports[0].rhs == pytest.approx(4.5 * 0.01)
        assert reports[1].rhs == pytest.approx(1.5 * 0.1)

    def test_pinsker_flag_in_higher_dim(self):
        p0 = ga.GaussianMeasure(np.array([1.0, -1.0]), 2 * np.eye(2))
        traj = ref.forward(p0, kl_spec(d=2), 1.0, 5, eps=0.1)
        reports = ct.check_kl_tv_guarantee(traj)
        assert reports[1].context["tv_method"] == "pinsker_upper_bound"
        assert all(r.holds for r in reports)


class TestInversion:
    def test_zero_k_limit(self):
        # equal-variance chain: all transports are translations, K = 0
        p0 = ga.GaussianMeasure(np.array([3.0]), np.eye(1))
        traj = ref.forward(p0, kl_spec(), 1.0, 5)
        pert, _ = pr.run_reverse_perturbed(traj, 1e-3)
        reports = ct.check_inversion_bound(traj, pert, 1e-3)
        coupling, mixed = reports
        assert coupling.context["prop_form"] == "k_zero_limit"
        assert coupling.rhs == pytest.approx(6e-3)
        assert coupling.holds and not coupling.not_applicable
        assert mixed.rhs == math.inf and mixed.holds and mixed.not_applicable == "K or eps is 0"

    def test_positive_k(self):
        traj = gauss_traj(5, eps=0.01, lam=2.0)  # K = log 2 fixture
        pert, _ = pr.run_reverse_perturbed(traj, 1e-4)
        reports = ct.check_inversion_bound(traj, pert, 1e-4)
        coupling, mixed = reports
        k = coupling.context["K"]
        assert k == pytest.approx(math.log(2), abs=1e-6)
        assert coupling.rhs == pytest.approx(1e-4 / k * math.exp(k * 6), rel=1e-5)
        assert coupling.holds
        assert math.isfinite(mixed.rhs) and mixed.holds
        assert not mixed.not_applicable

    def test_mixed_bound_not_applicable_beyond_its_step_count(self):
        # the mixed bound replaces N by 1 + (8/(gamma lam)) log(W2(p0, pi) lam / eps),
        # here about 25.7; beyond that it is below the coupling bound and bounds nothing
        traj = gauss_traj(30, eps=0.01, lam=2.0)
        pert, _ = pr.run_reverse_perturbed(traj, 1e-4)
        coupling, mixed = ct.check_inversion_bound(traj, pert, 1e-4)
        assert coupling.holds and math.isfinite(coupling.rhs)
        assert mixed.rhs == math.inf and mixed.holds
        assert mixed.not_applicable == "N above 1 + threshold"

    def test_mixed_bound_not_applicable_to_an_exact_run(self):
        # every step exact: the xi norms are roundoff, which the mixed form would take as
        # its eps and raise to the power -8K/lambda
        p0 = ga.GaussianMeasure(np.array([1.0, -1.0, 2.0]), np.diag([2.0, 0.5, 1.0]))
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(np.diag([1.0, 2.0, 3.0]), np.zeros(3)))
        traj = ref.forward(p0, spec, 1.0, 6)
        pert, _ = pr.run_reverse_perturbed(traj, 1e-3)
        assert 0 < max(traj.xi_norms) < 1e-14
        as_if_perturbed = ct.check_inversion_bound(traj, pert, 1e-3)
        coupling, mixed = ct.check_inversion_bound(traj, pert, 1e-3, exact=True)
        assert as_if_perturbed[1].rhs > 1e50 and not as_if_perturbed[1].not_applicable
        assert (coupling.lhs, coupling.rhs) == (as_if_perturbed[0].lhs, as_if_perturbed[0].rhs)
        assert mixed.rhs == math.inf and mixed.holds
        assert mixed.not_applicable == "exact run"


class TestDpi:
    def test_gaussian_affine_exact(self):
        p = ga.GaussianMeasure(np.array([1.0]), np.array([[2.0]]))
        q = ga.GaussianMeasure(np.array([0.0]), np.eye(1))
        t = ga.AffineMap(np.array([[3.0]]), np.array([-1.0]))
        r = check_dpi(p, q, t)
        assert r.holds and r.lhs <= 1e-12

    def test_grid_monotone_map(self):
        p = qt.from_gaussian(0.5, 1.2, 512)
        q = qt.from_gaussian(0.0, 1.0, 512)
        t = qt.ot_map(p, qt.from_gaussian(-1.0, 0.8, 512))
        r = check_dpi(p, q, t)
        assert r.holds

    def test_chain_identity(self):
        traj = gauss_traj(4, eps=0.05)
        (r,) = ct.check_dpi_chain(traj)
        assert r.holds and r.lhs <= ga.GaussianMeasure.dpi_tol

    def test_chain_identity_grid(self):
        p0 = qt.from_gaussian(1.0, 1.4, 512)
        traj = ref.forward(p0, kl_spec(), 1.0, 3)
        assert ct.check_dpi_chain(traj)[0].holds

    @pytest.mark.parametrize("family", ["gaussian", "grid"])
    def test_moved_transport_fails(self, family, mean_shift_runs):
        # must-fail control: the exact reverse chain runs through one moved map
        traj = mean_shift_runs[family]
        assert ct.check_dpi_chain(traj)[0].holds
        transports = list(traj.transports)
        transports[20] = MOVED[family](transports[20])
        (r,) = ct.check_dpi_chain(dataclasses.replace(traj, transports=transports))
        assert not r.holds and r.lhs > 10 * r.rhs  # lhs 9.7e-3 (Gaussian), 6.2e-3 (grid)


class TestSmoothing:
    def test_single_atom(self):
        p = pr.AtomicMeasure(np.array([[1.0, 2.0]]), np.array([1.0]))
        for delta in (1e-3, 0.1, 1.0):
            r = ct.check_smoothing(p, delta)
            assert r.context["method"] == "single_atom_closed_form"
            assert r.holds

    def test_multi_atom(self):
        p = pr.AtomicMeasure(np.array([[-1.0], [0.5], [2.0]]),
                             np.array([0.2, 0.5, 0.3]))
        for delta in (1e-3, 1e-2, 0.1, 1.0):
            r = ct.check_smoothing(p, delta)
            assert r.context["method"] == "mixture_partial_moments"
            assert r.holds

    def test_rejects_nonpositive_delta(self):
        p = pr.AtomicMeasure(np.array([[0.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            ct.check_smoothing(p, 0.0)
