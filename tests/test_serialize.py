import dataclasses
import io
import json

import numpy as np
import pytest
import reference as ref

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
    """A grid_bump forward run, its perturbed reverse run and the chain that run built."""
    p0 = qt.from_gaussian(1.5, 1.5, 128)
    traj = pr.run_forward(p0, kl_spec(), 1.0, 3, 0.05, jko.PerturbMode.GRID_BUMP)
    return traj, *pr.run_reverse_perturbed(traj, EPS_INV, jko.PerturbMode.GRID_BUMP)


def reload(traj):
    """`traj` stored and loaded again, given the inputs that its config records."""
    return sz.trajectory_from_json(sz.trajectory_to_json(traj), traj.spec, traj.gamma,
                                   traj.measures[0].family)


def round_trip(traj, *reverse_runs):
    back = reload(traj)
    return back, *(sz.reverse_from_json(sz.reverse_to_json(r), back, r.mode, r.seed)
                   for r in reverse_runs)


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
            + ct.check_kl_tv_guarantee(traj) + ct.check_dpi_chain(traj)
            + ct.check_inversion_bound(traj, pert, EPS_INV))


class TestTrajectoryRoundTrip:
    def test_gaussian_bit_exact(self):
        traj = gauss_traj()
        back = reload(traj)
        assert back.gamma == traj.gamma
        assert back.xi_norms == traj.xi_norms
        assert back.solver_iterations == traj.solver_iterations
        for a, b in zip(traj.measures, back.measures):
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
        for a, b in zip(traj.transports, back.transports):
            assert np.array_equal(a.linear, b.linear)
            assert np.array_equal(a.offset, b.offset)

    def test_grid_bit_exact(self):
        traj = grid_traj()
        back = reload(traj)
        for a, b in zip(traj.measures, back.measures):
            assert np.array_equal(a.values, b.values)
        for a, b in zip(traj.transports, back.transports):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_grid_forward_transports_derived_bit_exact(self):
        traj = grid_bump_run()[0]
        back = reload(traj)
        assert_maps_equal(traj.transports, back.transports)

    def test_grid_checks_reproduce_after_round_trip(self):
        run = grid_bump_run()[:2]
        mem, loaded = all_checks(*run), all_checks(*round_trip(*run))
        assert {r.name for r in mem} == {"evi", "forward_rate", "reverse_kl", "reverse_tv",
                                         "dpi_chain", "inversion_coupling",
                                         "inversion_mixed"}
        assert len(mem) == len(loaded)
        for a, b in zip(mem, loaded):
            assert a.name == b.name
            assert a.lhs == b.lhs and a.rhs == b.rhs and a.holds == b.holds

    @pytest.mark.parametrize("p0", [ga.GaussianMeasure(np.array([2.0]), np.array([[4.0]])),
                                    qt.from_gaussian(1.0, 1.5, 64)], ids=["gaussian", "grid"])
    def test_no_steps(self, p0):
        traj = pr.run_forward(p0, kl_spec(), 1.0, 0)
        back = reload(traj)
        assert back.transports == [] and back.inverse_fields == [] and back.n_steps == 0
        assert len(back.measures) == 1
        for a, b in zip(dataclasses.astuple(traj.measures[0]), dataclasses.astuple(back.measures[0])):
            assert np.array_equal(a, b)

    def test_gaussian_load_validates_each_stack_once(self, monkeypatch):
        traj = pr.run_forward(ga.GaussianMeasure(np.zeros(3), np.diag([1.0, 2.0, 3.0])),
                              kl_spec(d=3), 1.0, 4, 0.05)
        data = sz.trajectory_to_json(traj)
        calls, built = [], []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
        for cls in (ga.GaussianMeasure, ga.AffineMap):
            monkeypatch.setattr(cls, "__post_init__", built.append)
        back = sz.trajectory_from_json(data, traj.spec, traj.gamma, "gaussian")
        # one Cholesky of the 5 stacked covariances; no measure or map checked alone
        assert calls == [(5, 3, 3)] and built == []
        assert len(back.measures) == 5 and len(back.transports) == 4

    def test_object_array_rejected(self):
        buf = io.BytesIO()
        np.savez(buf, manifest=np.array("{}"), values=np.array([object()], dtype=object))
        with pytest.raises(ValueError, match="allow_pickle=False"):
            sz.trajectory_from_json(buf.getvalue(), kl_spec(), 1.0, "grid")

    def test_checks_reproduce_after_round_trip(self):
        traj = gauss_traj()
        back = reload(traj)
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
        blob = sz.reverse_to_json(pr.run_reverse_perturbed(traj, EPS_INV)[0])
        traj = reload(traj)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(0) or eigh(*a, **k))
        mode = jko.PerturbMode.MEAN_SHIFT
        assert len(sz.reverse_from_json(blob, traj, mode, 0).amplitudes) == 4
        assert traj.exact_q0.dim == 5
        assert calls == []

    def test_bit_exact(self):
        traj = gauss_traj()
        rev, measures = pr.run_reverse_perturbed(traj, 1e-3)
        back = sz.reverse_from_json(sz.reverse_to_json(rev), traj, rev.mode, rev.seed)
        assert back.residuals == rev.residuals
        assert (back.amplitudes, back.mode, back.seed) == (rev.amplitudes, rev.mode, rev.seed)
        for a, b in zip(measures, ref.reverse_chain(back), strict=True):
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
        assert_maps_equal(ref.reverse_maps(rev), ref.reverse_maps(back))

    def test_grid_bump_perturbed_bit_exact(self):
        traj, pert, measures = grid_bump_run()
        blob = sz.reverse_to_json(pert)
        with np.load(io.BytesIO(blob)) as z:
            assert z.files == ["manifest"]
            assert set(json.loads(z["manifest"].item())) == {"residuals", "amplitudes"}
        back = sz.reverse_from_json(blob, traj, pert.mode, pert.seed)
        assert back.residuals == pert.residuals
        for a, b in zip(measures, ref.reverse_chain(back), strict=True):
            assert np.array_equal(a.values, b.values)
        assert_maps_equal(ref.reverse_maps(pert), ref.reverse_maps(back))
        for p, s in zip(traj.measures[1:], ref.reverse_maps(back), strict=True):
            assert np.array_equal(s.x, p.values)

    @pytest.mark.parametrize("make_traj", [gauss_traj, lambda: grid_bump_run()[0]],
                             ids=["gaussian", "grid"])
    def test_exact_transports_derived_bit_exact(self, make_traj):
        # the exact reverse run is not stored: certify derives its q_0 from the trajectory
        traj = make_traj()
        q0 = pr.run_reverse_exact(traj)[0]
        (back,) = round_trip(traj)
        for f in dataclasses.fields(q0):
            assert np.array_equal(getattr(q0, f.name), getattr(back.exact_q0, f.name))
