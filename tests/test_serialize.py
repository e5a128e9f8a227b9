import dataclasses
import io
import json
import zipfile

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
    return ref.forward(p0, kl_spec(), 1.0, n, eps=eps)


def grid_traj(n=2):
    p0 = qt.from_gaussian(1.0, 1.5, 64)
    return ref.forward(p0, kl_spec(), 1.0, n)


EPS_INV = 1e-3


def grid_bump_run():
    """A grid_bump forward run, its perturbed reverse run and the chain that run built."""
    p0 = qt.from_gaussian(1.5, 1.5, 128)
    traj = ref.forward(p0, kl_spec(), 1.0, 3, 0.05, jko.PerturbMode.GRID_BUMP)
    return traj, *pr.run_reverse_perturbed(traj, EPS_INV, jko.PerturbMode.GRID_BUMP)


def reload(traj):
    """`traj` stored and loaded again, given the inputs that its config records."""
    return sz.trajectory_from_json(sz.trajectory_to_json(traj), traj.spec, traj.gamma,
                                   traj.measures[0], traj.minimizer)


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
        assert {r.name for r in mem} == {"evi", "forward_rate", "forward_terminal_w2",
                                         "forward_terminal_gap", "reverse_kl", "reverse_tv",
                                         "dpi_chain", "inversion_coupling",
                                         "inversion_mixed"}
        assert len(mem) == len(loaded)
        for a, b in zip(mem, loaded):
            assert a.name == b.name and a.not_applicable == b.not_applicable
            assert a.lhs == b.lhs and a.rhs == b.rhs and a.holds == b.holds

    @pytest.mark.parametrize("p0", [ga.GaussianMeasure(np.array([2.0]), np.array([[4.0]])),
                                    qt.from_gaussian(1.0, 1.5, 64)], ids=["gaussian", "grid"])
    def test_no_steps(self, p0):
        traj = ref.forward(p0, kl_spec(), 1.0, 0)
        back = reload(traj)
        assert back.transports == [] and back.inverse_fields == [] and back.n_steps == 0
        assert len(back.measures) == 1
        for a, b in zip(dataclasses.astuple(traj.measures[0]), dataclasses.astuple(back.measures[0])):
            assert np.array_equal(a, b)

    def test_gaussian_load_validates_each_stack_once(self, monkeypatch):
        traj = ref.forward(ga.GaussianMeasure(np.zeros(3), np.diag([1.0, 2.0, 3.0])),
                           kl_spec(d=3), 1.0, 4, 0.05)
        data = sz.trajectory_to_json(traj)
        calls, built = [], []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
        for cls in (ga.GaussianMeasure, ga.AffineMap):
            monkeypatch.setattr(cls, "__post_init__", built.append)
        back = sz.trajectory_from_json(data, traj.spec, traj.gamma, traj.measures[0],
                                       traj.minimizer)
        # one Cholesky of the covariances of p_1..p_4, pushed from p_0 (the config's, not
        # stored) on arrays; no measure or map checked alone
        assert calls == [(4, 3, 3)] and built == []
        assert len(back.measures) == 5 and len(back.transports) == 4

    def test_object_array_rejected(self):
        buf = io.BytesIO()
        np.savez(buf, manifest=np.array("{}"), values=np.array([object()], dtype=object))
        with pytest.raises(ValueError, match="allow_pickle=False"):
            pi = qt.from_gaussian(0.0, 1.0, 8)
            sz.trajectory_from_json(buf.getvalue(), kl_spec(), 1.0, pi, pi)

    def test_checks_reproduce_after_round_trip(self):
        traj = gauss_traj()
        back = reload(traj)
        r1 = ct.check_evi(traj)
        r2 = ct.check_evi(back)
        for a, b in zip(r1, r2):
            assert a.lhs == b.lhs and a.rhs == b.rhs and a.holds == b.holds


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.4 * np.eye(d)


def gauss_d_traj(d, n=4):
    """A d-dimensional Gaussian run whose exact and perturbed steps alternate."""
    rng = np.random.default_rng(20 + d)
    spec = fn.ObjectiveSpec(fn.QuadraticPotential(random_spd(rng, d), rng.standard_normal(d)))
    p0 = ga.GaussianMeasure(rng.standard_normal(d) + 2.0, random_spd(rng, d))
    return ref.forward(p0, spec, 0.8, n, [0.0, 0.05] * (n // 2))


def atoms_traj():
    p0 = pr.ou_smooth(pr.AtomicMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5])),
                      0.03, 256)
    return ref.forward(p0, kl_spec(), 1.0, 3, 0.05, jko.PerturbMode.GRID_BUMP)


RUNS = {
    "grid": lambda: grid_bump_run()[0],
    "gaussian_d1": lambda: gauss_d_traj(1),
    "gaussian_d3": lambda: gauss_d_traj(3),
    "gaussian_d10": lambda: gauss_d_traj(10),
    "atoms": atoms_traj,
    "grid_n0": lambda: grid_traj(0),
    "gaussian_n0": lambda: gauss_traj(0),
}


class TestOneStoredChain:
    """A trajectory archive stores one chain of steps 1..N and no p_0; the loaded
    trajectory, derived from the config's p_0, is the forward run's bit for bit."""

    @pytest.mark.parametrize("name", RUNS)
    def test_loaded_is_the_forward_run(self, name):
        traj = RUNS[name]()
        back = reload(traj)
        assert back.xi_norms == traj.xi_norms
        assert back.solver_iterations == traj.solver_iterations
        assert len(back.measures) == len(traj.measures) == back.n_steps + 1
        assert len(back.transports) == len(traj.transports)
        for a, b in zip(traj.measures + traj.transports, back.measures + back.transports):
            assert type(a) is type(b)
            for f in dataclasses.fields(a):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name))

    @pytest.mark.parametrize("name", RUNS)
    def test_archive_members(self, name):
        traj = RUNS[name]()
        with np.load(io.BytesIO(sz.trajectory_to_json(traj))) as z:
            members = {k: z[k] for k in z.files}
        if traj.measures[0].family == "gaussian":
            assert set(members) == {"manifest", "linear", "offset"}
            assert len(members["linear"]) == len(members["offset"]) == traj.n_steps
        else:
            assert set(members) == {"manifest", "values"}
            assert len(members["values"]) == traj.n_steps
            for row, p in zip(members["values"], traj.measures[1:], strict=True):
                assert np.array_equal(row, p.values)

    @pytest.mark.parametrize("name", ["grid", "gaussian_d3"])
    def test_chain_of_another_length_is_stale(self, name):
        traj = RUNS[name]()
        d, arrays = sz._unpack(sz.trajectory_to_json(traj))
        for doctored in ({**d, "xi_norms": d["xi_norms"][:-1]},
                         {**d, "solver_iterations": d["solver_iterations"] + [0]}):
            with pytest.raises(sz.StaleArchiveError, match="stored steps"):
                sz.trajectory_from_json(sz._pack(doctored, arrays), traj.spec, traj.gamma,
                                        traj.measures[0], traj.minimizer)


class TestReverseRoundTrip:
    def test_load_runs_no_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(a @ a.T + 0.5 * np.eye(5), np.zeros(5)))
        p0 = ga.GaussianMeasure(rng.standard_normal(5), b @ b.T + 0.5 * np.eye(5))
        traj = ref.forward(p0, spec, 1.0, 4, 0.05)
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


# Every kind of archive the CLI writes: grid (and atomic-p0 grid) and Gaussian
# trajectories, with and without steps, and perturbed reverse manifests.
ARCHIVES = {
    **{name: (lambda make=make: sz.trajectory_to_json(make())) for name, make in RUNS.items()},
    "reverse_grid": lambda: sz.reverse_to_json(grid_bump_run()[1]),
    "reverse_gaussian": lambda: sz.reverse_to_json(
        pr.run_reverse_perturbed(gauss_traj(), EPS_INV)[0]),
}


class TestReader:
    """_unpack reads each member once, checks its CRC-32, and views its array in place."""

    @pytest.mark.parametrize("name", ARCHIVES)
    def test_equals_np_load(self, name):
        data = ARCHIVES[name]()
        manifest, arrays = sz._unpack(data)
        with np.load(io.BytesIO(data), allow_pickle=False) as z:
            expected = {k: z[k] for k in z.files}
        assert manifest == json.loads(expected.pop("manifest").item())
        assert arrays.keys() == expected.keys()
        for k, want in expected.items():
            got = arrays[k]
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable and got.flags.aligned
        if name.endswith("_n0"):
            assert {a.shape for a in arrays.values()} == {(0,)}

    def test_fortran_order_and_unaligned_members(self):
        values = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        buf = io.BytesIO()
        np.savez(buf, manifest=np.array("{}"), values=values)
        got = sz._unpack(buf.getvalue())[1]["values"]
        assert np.array_equal(got, values) and got.flags.f_contiguous
        # a member one byte into its buffer: its doubles are copied, and frozen too
        unaligned = sz._array(memoryview(b"x" + _npy_bytes(np.arange(5.0)))[1:])
        assert np.array_equal(unaligned, np.arange(5.0))
        assert unaligned.flags.aligned and not unaligned.flags.writeable

    @pytest.mark.parametrize("name", ["grid", "gaussian_d3", "reverse_grid"])
    @pytest.mark.parametrize("damage", ["flipped_byte", "truncated"])
    def test_damaged_archive_is_stale(self, name, damage):
        data = bytearray(ARCHIVES[name]())
        if damage == "flipped_byte":
            data[len(data) // 3] ^= 0x10
            match = "Bad CRC-32"
        else:
            del data[len(data) // 2:]
            match = "not a zip file"
        with pytest.raises(sz.StaleArchiveError, match=f"not a readable archive: .*{match}"):
            sz._unpack(bytes(data))

    def test_npy_member_of_another_format_or_size_is_stale(self):
        good = _npy_bytes(np.arange(4.0))
        for raw, match in [(b"\x93NUMPX" + good[6:], "malformed .npy header"),
                           (good[:6] + b"\x03\x00" + good[8:], "malformed .npy header"),
                           (good[:-8], "24 data bytes for a float64 array of shape"),
                           (good + b"\0" * 8, "40 data bytes")]:
            with pytest.raises(sz.StaleArchiveError, match=match):
                sz._array(raw)
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as z:
            z.writestr("manifest.npy", _npy_bytes(np.array("{}")))
            z.writestr("notes.txt", b"")
        with pytest.raises(sz.StaleArchiveError, match="not all .npy arrays"):
            sz._unpack(buf.getvalue())

    def test_every_single_byte_flip_loads_the_same_run_or_is_stale(self):
        # a small grid run and its reverse manifest, every byte flipped three ways: the
        # CRC, the zip structure or the layout checks catch each flip that changes data
        spec = kl_spec()
        traj = ref.forward(qt.from_gaussian(1.0, 1.5, 8), spec, 1.0, 2, 0.05)
        rev = pr.run_reverse_perturbed(traj, EPS_INV)[0]
        loads = [(sz.trajectory_to_json(traj),
                  lambda b: sz.trajectory_from_json(b, spec, 1.0, traj.measures[0],
                                                    traj.minimizer),
                  lambda t: [p.values.tobytes() for p in t.measures] + [t.xi_norms]),
                 (sz.reverse_to_json(rev),
                  lambda b: sz.reverse_from_json(b, traj, rev.mode, rev.seed),
                  lambda r: [r.residuals, r.amplitudes])]
        for data, load, key in loads:
            want = key(load(data))
            stale = 0
            for i in range(len(data)):
                for mask in (0x01, 0x80, 0xFF):
                    flipped = bytearray(data)
                    flipped[i] ^= mask
                    try:
                        got = load(bytes(flipped))
                    except sz.StaleArchiveError:
                        stale += 1
                        continue
                    assert key(got) == want, (i, mask)
            assert stale > 2 * len(data)


def _npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, allow_pickle=False)
    return buf.getvalue()


class TestLoadedGridMaps:
    """A loaded grid chain's maps are qt.ot_map(p_{n-1}, p_n): only their slopes are checked."""

    def test_equal_to_the_validated_maps(self):
        traj = reload(grid_bump_run()[0])
        for p, q, t in zip(traj.measures[:-1], traj.measures[1:], traj.transports, strict=True):
            full = qt.MonotoneMap1D(p.values, q.values)
            for f in dataclasses.fields(full):
                assert np.array_equal(getattr(t, f.name), getattr(full, f.name))
            assert t.x is p.values and t.y is q.values

    def test_an_overflowing_slope_raises_the_maps_message(self):
        p0 = qt.QuantileGrid(np.arange(8) * 5e-324)  # gaps of the smallest subnormal
        data = sz._pack({"xi_norms": [0.0], "solver_iterations": [1]},
                        {"values": np.arange(8.0)[None]})
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^segment slopes must be finite$"):
                qt.MonotoneMap1D(p0.values, np.arange(8.0))
            with pytest.raises(ValueError, match="^segment slopes must be finite$"):
                sz.trajectory_from_json(data, kl_spec(), 1.0, p0, p0.minimizer(kl_spec()))
