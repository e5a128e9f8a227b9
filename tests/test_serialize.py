import dataclasses
import io

import numpy as np
import pytest

from jkolab import certify as ct
from jkolab import functionals as fn
from jkolab import gaussian as ga
from jkolab import jko
from jkolab import process as pr
from jkolab import quantile as qt
from jkolab import serialize as sz


def kl_spec(lam=1.0, d=1):
    return fn.ObjectiveSpec(fn.QuadraticPotential(lam * np.eye(d), np.zeros(d)))


def gauss_traj(n=3, eps=0.1):
    p0 = ga.GaussianMeasure(np.array([2.0]), np.array([[4.0]]))
    return pr.run_forward(p0, kl_spec(), 1.0, n, eps_schedule=eps)


def grid_traj(n=2):
    p0 = qt.from_gaussian(1.0, 1.5, 64)
    return pr.run_forward(p0, kl_spec(), 1.0, n)


EPS_INV = 1e-3


def grid_bump_run():
    """A grid_bump forward run with its perturbed reverse run."""
    p0 = qt.from_gaussian(1.5, 1.5, 128)
    traj = pr.run_forward(p0, kl_spec(), 1.0, 3, 0.05, jko.PerturbMode.GRID_BUMP)
    return traj, pr.run_reverse_perturbed(traj, EPS_INV, jko.PerturbMode.GRID_BUMP)


def round_trip(traj, *reverse_runs):
    back = sz.trajectory_from_json(sz.trajectory_to_json(traj))
    return back, *(sz.reverse_from_json(sz.reverse_to_json(r), back) for r in reverse_runs)


def assert_maps_equal(maps_a, maps_b):
    assert len(maps_a) == len(maps_b)
    for a, b in zip(maps_a, maps_b):
        if isinstance(a, qt.MonotoneMap1D):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        else:
            assert np.array_equal(a.linear, b.linear)
            assert np.array_equal(a.offset, b.offset)


def all_checks(traj, pert):
    return (ct.check_evi(traj) + ct.check_forward_rate(traj)
            + ct.check_kl_tv_guarantee(traj) + [ct.check_dpi_chain(traj)]
            + ct.check_inversion_bound(traj, pert, EPS_INV))


class TestSpecRoundTrip:
    def test_identity(self):
        spec = fn.ObjectiveSpec(
            fn.QuadraticPotential(np.array([[2.0, 0.3], [0.3, 1.0]]),
                                  np.array([0.5, -1.0])),
            fn.Variant.WEIGHTED, 1.5)
        back = sz.spec_from_dict(sz.spec_to_dict(spec))
        assert back.variant == spec.variant
        assert back.alpha == spec.alpha
        assert np.array_equal(back.potential.lambda_mat, spec.potential.lambda_mat)
        assert np.array_equal(back.potential.center, spec.potential.center)


class TestTrajectoryRoundTrip:
    def test_gaussian_bit_exact(self):
        traj = gauss_traj()
        back = sz.trajectory_from_json(sz.trajectory_to_json(traj))
        assert back.gamma == traj.gamma and back.family == traj.family
        assert back.xi_norms == traj.xi_norms
        assert back.solver_iterations == traj.solver_iterations
        for a, b in zip(traj.measures, back.measures):
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
        for a, b in zip(traj.transports, back.transports):
            assert np.array_equal(a.linear, b.linear)
            assert np.array_equal(a.offset, b.offset)

    def test_grid_bit_exact(self):
        traj = grid_traj()
        back = sz.trajectory_from_json(sz.trajectory_to_json(traj))
        for a, b in zip(traj.measures, back.measures):
            assert np.array_equal(a.values, b.values)
        for a, b in zip(traj.transports, back.transports):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_grid_forward_transports_derived_bit_exact(self):
        traj = grid_bump_run()[0]
        back = sz.trajectory_from_json(sz.trajectory_to_json(traj))
        assert_maps_equal(traj.transports, back.transports)

    def test_grid_checks_reproduce_after_round_trip(self):
        run = grid_bump_run()
        mem, loaded = all_checks(*run), all_checks(*round_trip(*run))
        assert {r.name for r in mem} == {"evi", "forward_rate", "reverse_kl", "reverse_tv",
                                         "dpi_chain", "inversion_coupling",
                                         "inversion_mixed"}
        assert len(mem) == len(loaded)
        for a, b in zip(mem, loaded):
            assert a.name == b.name
            assert a.lhs == b.lhs and a.rhs == b.rhs and a.holds == b.holds

    def test_object_array_rejected(self):
        buf = io.BytesIO()
        np.savez(buf, manifest=np.array("{}"), values=np.array([object()], dtype=object))
        with pytest.raises(ValueError, match="allow_pickle=False"):
            sz.trajectory_from_json(buf.getvalue())

    def test_checks_reproduce_after_round_trip(self):
        traj = gauss_traj()
        back = sz.trajectory_from_json(sz.trajectory_to_json(traj))
        r1 = ct.check_evi(traj)
        r2 = ct.check_evi(back)
        for a, b in zip(r1, r2):
            assert a.lhs == b.lhs and a.rhs == b.rhs and a.holds == b.holds


class TestReverseRoundTrip:
    def test_load_runs_no_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(a @ a.T + 0.5 * np.eye(5), np.zeros(5)))
        p0 = ga.GaussianMeasure(rng.standard_normal(5), b @ b.T + 0.5 * np.eye(5))
        traj = pr.run_forward(p0, spec, 1.0, 4, 0.05)
        blob = sz.reverse_to_json(pr.run_reverse_perturbed(traj, EPS_INV))
        traj = sz.trajectory_from_json(sz.trajectory_to_json(traj))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(0) or eigh(*a, **k))
        assert sz.reverse_from_json(blob, traj).exact is False
        assert traj.exact_q0.dim == 5
        assert calls == []

    def test_bit_exact(self):
        traj = gauss_traj()
        rev = pr.run_reverse_perturbed(traj, 1e-3)
        back = sz.reverse_from_json(sz.reverse_to_json(rev), traj)
        assert back.exact == rev.exact
        assert back.residuals == rev.residuals
        assert (back.amplitudes, back.mode, back.seed) == (rev.amplitudes, rev.mode, rev.seed)
        for a, b in zip(rev.measures, back.measures):
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
        assert_maps_equal(rev.transports, back.transports)

    def test_grid_bump_perturbed_bit_exact(self):
        traj, pert = grid_bump_run()
        blob = sz.reverse_to_json(pert)
        with np.load(io.BytesIO(blob)) as z:
            assert z.files == ["manifest"]
        back = sz.reverse_from_json(blob, traj)
        assert back.exact is False and pert.exact is False
        assert back.residuals == pert.residuals
        for a, b in zip(pert.measures, back.measures):
            assert np.array_equal(a.values, b.values)
        assert_maps_equal(pert.transports, back.transports)
        for p, s in zip(traj.measures[1:], back.transports, strict=True):
            assert np.array_equal(s.x, p.values)

    @pytest.mark.parametrize("make_traj", [gauss_traj, lambda: grid_bump_run()[0]],
                             ids=["gaussian", "grid"])
    def test_exact_transports_derived_bit_exact(self, make_traj):
        # the exact reverse run is not stored: certify derives its q_0 from the trajectory
        traj = make_traj()
        exact = pr.run_reverse_exact(traj)
        with pytest.raises(ValueError, match="derived"):
            sz.reverse_to_json(exact)
        (back,) = round_trip(traj)
        for f in dataclasses.fields(exact.measures[0]):
            assert np.array_equal(getattr(exact.measures[0], f.name),
                                  getattr(back.exact_q0, f.name))
