"""Binary run store: one uncompressed npz archive per record.

An archive keeps only what its run computed.  The run's inputs (the
objective, gamma, p_0, the perturbation mode and seed) are recorded once, in
its config, whose hash is the run id; the loaders take them from the parsed
config.  Each p_n is T_n#p_{n-1}, so a trajectory archive holds one chain of
steps 1..N, stacked per array field, and the other is derived on load from
p_0: grid measures p_1..p_N (values (N, M)), whose maps are rebuilt as
qt.ot_map(p_{n-1}, p_n), or Gaussian transports T_1..T_N (linear (N, d, d),
offset (N, d); the Bures-Wasserstein OT map from p_{n-1} to p_n would not
reproduce the closed-form linear part bit-for-bit), through which p_0 is
pushed on arrays.  A JSON manifest holds
the per-step xi norms and solver iteration counts.  Loading validates each
chain once (the types' `stack`).  Doubles are stored raw and manifest floats
with repr, so a check re-run on loaded data reproduces its verdict
bit-for-bit.  Manifest keys are the record fields' names.  An archive with
other manifest keys or members, or a stored chain not one entry per xi norm
and iteration count (older layouts, which stored p_0, Gaussian measures or
the run's inputs), raises StaleArchiveError.

The reader reads each member once (zipfile checks its CRC-32), parses its
.npy header with numpy's public readers and views the array in place,
read-only; an unaligned payload is copied.  It never unpickles: an object
array raises ValueError.  An archive it cannot read (not a zip file,
truncated, a CRC mismatch, a member that is not .npy, a malformed header, a
payload of the wrong size) raises StaleArchiveError too, which the CLI
reports as missing run data (exit 66).  A grid chain's maps join two
validated grids, so qt.ot_map checks only their slopes.

The exact reverse chain is neither stored nor a record: it is derived from
the trajectory (pr.run_reverse_exact(traj)), and certify reads only its
output, traj.exact_q0.  A perturbed reverse run is a manifest alone: its
residuals and its calibrated amplitudes.  Each map S_n is T_n^{-1} perturbed
by amplitude a_n, so the loaded pr.ReverseRun derives the one measure that
certify reads, q~_0, from the trajectory (hence the trajectory argument of
reverse_from_json) when it is first read: pi pushed through the rebuilt maps
on arrays.  Both reverse chains read the inverses' arrays from
Trajectory.inverse_fields, one stacked inversion of the linear parts per
Gaussian trajectory.  A Gaussian map's Lip(T^{-1}) is 1 / lambda_min(L) from
one stacked eigvalsh, which rejects a stored linear part that is not exactly
symmetric or not positive definite.

The public record functions keep their *_json names and their bytes-in /
bytes-out contract, the bytes first: perfbench/tracer.py times and sizes
this layer by them.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import zipfile

import numpy as np

from . import functionals as fn
from . import gaussian as ga
from . import jko
from . import process as pr
from . import quantile as qt
from .jko import _fields

__all__ = [
    "trajectory_to_json",
    "trajectory_from_json",
    "reverse_to_json",
    "reverse_from_json",
    "StaleArchiveError",
]

# The manifest keys of a trajectory archive.
_TRAJECTORY_KEYS = {"xi_norms", "solver_iterations"}
# The manifest of a perturbed reverse archive, its only member.
_REVERSE_KEYS = {"residuals", "amplitudes"}


def _grid_chains(p0, grids: list) -> tuple[list, list]:
    """p_0..p_N and T_1..T_N from p_1..p_N: T_n = qt.ot_map(p_{n-1}, p_n)."""
    return [p0, *grids], [qt.ot_map(a, b) for a, b in zip([p0, *grids], grids)]


def _gaussian_chains(p0, maps: list) -> tuple[list, list]:
    """p_0..p_N and T_1..T_N from T_1..T_N: p_n = T_n#p_{n-1} on arrays, one stack validated."""
    pushed = pr._pushed(_fields(p0), maps, map(_fields, maps))[1:]
    return [p0, *(type(p0).stack(*map(np.array, zip(*pushed))) if maps else [])], maps


# Family name (the measure type's `family`) -> the type of the objects its trajectory
# archive stores for steps 1..N, which of the trajectory's chains they are, and the
# chains p_0..p_N and T_1..T_N that p_0 and they make.
_FAMILIES = {"grid": (qt.QuantileGrid, lambda traj: traj.measures[1:], _grid_chains),
             "gaussian": (ga.AffineMap, lambda traj: traj.transports, _gaussian_chains)}


# The npy header reader of each format version that np.savez writes.
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


class StaleArchiveError(ValueError):
    """An archive that cannot be read, in a layout this version does not write, or not of
    the given trajectory."""


def _pack(manifest: dict, arrays: dict) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, manifest=np.array(json.dumps(manifest)), **arrays)
    return buf.getvalue()


def _array(raw: bytes) -> np.ndarray:
    """The array of one .npy member, a read-only view of `raw` (a copy only if unaligned)."""
    buf = io.BytesIO(raw)
    try:
        version = np.lib.format.read_magic(buf)
        read_header = _NPY_HEADERS.get(version)
        if read_header is None:
            raise ValueError(f"npy format version {version} is not one savez writes")
        shape, fortran, dtype = read_header(buf)
    except ValueError as exc:
        raise StaleArchiveError(f"a malformed .npy header: {exc}") from exc
    if dtype.hasobject:
        raise ValueError("Object arrays cannot be loaded when allow_pickle=False")
    offset, count = buf.tell(), math.prod(shape)
    if len(raw) - offset != count * dtype.itemsize:
        raise StaleArchiveError(f"{len(raw) - offset} data bytes for a {dtype} "
                                f"array of shape {shape}")
    arr = np.frombuffer(raw, dtype, count, offset)
    arr = arr.reshape(shape[::-1]).T if fortran else arr.reshape(shape)
    if not arr.flags.aligned:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _unpack(data: bytes) -> tuple[dict, dict]:
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as z:
            members = {name: z.read(name) for name in z.namelist()}
    # a damaged local header can also read as encrypted (RuntimeError), compressed by an
    # unknown method (NotImplementedError) or at a negative offset (ValueError)
    except (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError, ValueError) as exc:
        raise StaleArchiveError(f"not a readable archive: {exc}") from exc
    if not all(name.endswith(".npy") for name in members):
        raise StaleArchiveError(f"members {sorted(members)} are not all .npy arrays")
    arrays = {name[:-4]: _array(raw) for name, raw in members.items()}
    if "manifest" not in arrays:
        raise StaleArchiveError("the archive has no manifest")
    return json.loads(arrays.pop("manifest").item()), arrays


def trajectory_to_json(traj: pr.Trajectory) -> bytes:
    kind, stored, _ = _FAMILIES[traj.measures[0].family]
    arrays = {f.name: np.array([getattr(o, f.name) for o in stored(traj)])
              for f in dataclasses.fields(kind)}
    return _pack({"xi_norms": list(traj.xi_norms),
                  "solver_iterations": list(traj.solver_iterations)}, arrays)


def trajectory_from_json(data: bytes, spec: fn.ObjectiveSpec, gamma: float, p0,
                         pi) -> pr.Trajectory:
    """Load the trajectory from `p0` of a run of `spec` with step `gamma`, whose minimizer
    is `pi`.

    StaleArchiveError: not the layout trajectory_to_json writes for p0's family,
    or a stored chain whose length is not the manifest's step count.
    """
    d, arrays = _unpack(data)
    kind, _, chains = _FAMILIES[p0.family]
    names = [f.name for f in dataclasses.fields(kind)]
    if set(d) != _TRAJECTORY_KEYS or set(arrays) != set(names):
        raise StaleArchiveError(f"not a {p0.family} trajectory archive (members "
                                f"{['manifest', *arrays]}, manifest keys {sorted(d)})")
    n, iters = len(d["xi_norms"]), len(d["solver_iterations"])
    if {iters, *map(len, arrays.values())} != {n}:
        raise StaleArchiveError(f"{len(arrays[names[0]])} stored steps and {iters} solver "
                                f"iteration counts for {n} xi norms")
    measures, transports = chains(p0, kind.stack(*(arrays[k] for k in names)) if n else [])
    return pr.Trajectory(spec=spec, gamma=gamma, measures=measures, transports=transports,
                         minimizer=pi, **d)


def reverse_to_json(run: pr.ReverseRun) -> bytes:
    """Store a perturbed reverse run as a manifest."""
    return _pack({"residuals": list(run.residuals), "amplitudes": list(run.amplitudes)}, {})


def reverse_from_json(data: bytes, traj: pr.Trajectory, mode: jko.PerturbMode,
                      seed: int) -> pr.ReverseRun:
    """Load the perturbed reverse run of `traj` made with `mode` and `seed`; its
    q~_0 is derived when read.

    StaleArchiveError: the archive holds arrays or other manifest keys (the
    layouts of older versions, which stored the maps and measures, or the
    mode and seed), or its amplitude count is not the trajectory's step count.
    """
    d, arrays = _unpack(data)
    if arrays or set(d) != _REVERSE_KEYS:
        raise StaleArchiveError(
            f"not a perturbed reverse manifest (members {['manifest', *arrays]}, "
            f"manifest keys {sorted(d)}); older versions stored the maps and measures, "
            f"or the mode and seed")
    if not len(d["amplitudes"]) == len(d["residuals"]) == traj.n_steps:
        raise StaleArchiveError(
            f"{len(d['amplitudes'])} amplitudes for a trajectory of {traj.n_steps} steps")
    return pr.ReverseRun(traj=traj, mode=mode, seed=seed, **d)
