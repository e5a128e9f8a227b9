"""Binary run store: one uncompressed npz archive per record.

An archive keeps only what its run computed.  The run's inputs (the
objective, gamma, the family, the perturbation mode and seed) are recorded
once, in its config, whose hash is the run id; the loaders take them from
the parsed config.  A trajectory archive holds its measures stacked per
array field (grid values (N+1, M); Gaussian means (N+1, d), covariances
(N+1, d, d)), the transport arrays that cannot be rebuilt, and a JSON
manifest string with the per-step xi norms and solver iteration counts.
Loading validates each stack once (the measure and map types' `stack`),
not item by item.  Doubles are stored raw and manifest floats with repr, so
a check re-run on loaded data reproduces its verdict bit-for-bit.  The
manifest keys are the record fields' names.  Loading never unpickles: an
archive holding an object array raises ValueError.  An archive with other
manifest keys or members (an older layout, which also stored the run's
inputs) raises StaleArchiveError.

Nothing derivable from the trajectory is stored.  Grid forward maps are
rebuilt on load as qt.ot_map(p_{n-1}, p_n).  The exact reverse chain is
neither stored nor a record: it is derived from the trajectory
(pr.run_reverse_exact(traj)), and certify reads only its output,
traj.exact_q0.  A perturbed reverse run is a manifest alone: its residuals
and its calibrated amplitudes.  Each map S_n is T_n^{-1} perturbed by
amplitude a_n, so the loaded pr.ReverseRun derives the one measure that
certify reads, q~_0, from the trajectory (hence the trajectory argument of
reverse_from_json) when it is first read: pi pushed through the rebuilt
maps on arrays.  Both reverse chains read the inverses' arrays from
Trajectory.inverse_fields, one stacked inversion of the linear parts per
Gaussian trajectory.  Gaussian forward maps (ot_map_bw does not reproduce
the closed-form linear part bit-for-bit) are stored; their Lip(T^{-1}) is
1 / lambda_min(L) from one stacked eigvalsh, which rejects a stored linear
part that is not exactly symmetric or not positive definite.

The public record functions keep their *_json names and their bytes-in /
bytes-out contract: perfbench/tracer.py times and sizes this layer by them.
"""

from __future__ import annotations

import dataclasses
import io
import json

import numpy as np

from . import functionals as fn
from . import gaussian as ga
from . import jko
from . import process as pr
from . import quantile as qt

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

# Family name (the config's `family`, the measure type's `family`) -> the
# measure type and the map type of its stored transports (None: not stored,
# as grid maps are rebuilt as qt.ot_map(p_{n-1}, p_n)).
_FAMILIES = {"grid": (qt.QuantileGrid, None), "gaussian": (ga.GaussianMeasure, ga.AffineMap)}


class StaleArchiveError(ValueError):
    """An archive in a layout this version does not write, or not of the given trajectory."""


def _pack(manifest: dict, arrays: dict) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, manifest=np.array(json.dumps(manifest)), **arrays)
    return buf.getvalue()


def _unpack(data: bytes) -> tuple[dict, dict]:
    with np.load(io.BytesIO(data), allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    if "manifest" not in arrays:
        raise StaleArchiveError("the archive has no manifest")
    return json.loads(arrays.pop("manifest").item()), arrays


def _stack(objs, cls) -> dict:
    """Each array field of dataclass `cls`, stacked over the objects."""
    return {f.name: np.array([getattr(o, f.name) for o in objs])
            for f in dataclasses.fields(cls)}


def _unstack(arrays: dict, cls) -> list:
    stacked = [arrays[f.name] for f in dataclasses.fields(cls)]
    return cls.stack(*stacked) if len(stacked[0]) else []  # an n = 0 trajectory has no maps


def trajectory_to_json(traj: pr.Trajectory) -> bytes:
    kind, map_kind = _FAMILIES[traj.measures[0].family]
    arrays = _stack(traj.measures, kind)
    if map_kind is not None:
        arrays.update(_stack(traj.transports, map_kind))
    return _pack({"xi_norms": list(traj.xi_norms),
                  "solver_iterations": list(traj.solver_iterations)}, arrays)


def trajectory_from_json(data: bytes, spec: fn.ObjectiveSpec, gamma: float,
                         family: str) -> pr.Trajectory:
    """Load the trajectory of a run of `spec` with step `gamma` in `family`.

    StaleArchiveError: not the layout trajectory_to_json writes for `family`.
    """
    d, arrays = _unpack(data)
    kind, map_kind = _FAMILIES[family]
    members = {f.name for cls in (kind, map_kind) if cls for f in dataclasses.fields(cls)}
    if set(d) != _TRAJECTORY_KEYS or set(arrays) != members:
        raise StaleArchiveError(f"not a {family} trajectory archive (members "
                                f"{['manifest', *arrays]}, manifest keys {sorted(d)})")
    measures = _unstack(arrays, kind)
    if map_kind is None:
        transports = [qt.ot_map(a, b) for a, b in zip(measures, measures[1:])]
    else:
        transports = _unstack(arrays, map_kind)
    return pr.Trajectory(spec=spec, gamma=gamma, measures=measures, transports=transports, **d)


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
