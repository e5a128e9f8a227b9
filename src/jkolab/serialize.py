"""Binary run store: one uncompressed npz archive per record.

An archive holds the record's measures stacked per array field (grid values
(N+1, M); Gaussian means (N+1, d), covariances (N+1, d, d)), the transports
that cannot be rebuilt, and a JSON manifest string with the scalars.  Doubles
are stored raw and manifest floats with repr, so a check re-run on loaded
data reproduces its verdict bit-for-bit.  The manifest keys are the record
fields' names.  Loading never unpickles: an archive holding an object array
raises ValueError.

Loading rebuilds the derivable transports with the calls that made them:
grid forward maps are qt.ot_map(p_{n-1}, p_n), and exact-reverse maps are
T_n.inverse() as in pr.run_reverse_exact (hence the trajectory argument of
reverse_from_json).  Gaussian forward maps (ot_map_bw does not
reproduce the closed-form linear part bit-for-bit) and perturbed-reverse
maps are stored.

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
from . import process as pr
from . import quantile as qt

__all__ = [
    "spec_to_dict",
    "spec_from_dict",
    "trajectory_to_json",
    "trajectory_from_json",
    "reverse_to_json",
    "reverse_from_json",
]

_MAP_OF = {qt.QuantileGrid: qt.MonotoneMap1D, ga.GaussianMeasure: ga.AffineMap}


def spec_to_dict(spec: fn.ObjectiveSpec) -> dict:
    return {
        "variant": spec.variant.value,
        "lambda_mat": spec.potential.lambda_mat.tolist(),
        "center": spec.potential.center.tolist(),
        "alpha": spec.alpha,
    }


def spec_from_dict(d: dict) -> fn.ObjectiveSpec:
    pot = fn.QuadraticPotential(np.array(d["lambda_mat"]), np.array(d["center"]))
    return fn.ObjectiveSpec(pot, fn.Variant(d["variant"]), d["alpha"])


def _pack(manifest: dict, arrays: dict) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, manifest=np.array(json.dumps(manifest)), **arrays)
    return buf.getvalue()


def _unpack(data: bytes) -> tuple[dict, dict]:
    with np.load(io.BytesIO(data), allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    return json.loads(arrays.pop("manifest").item()), arrays


def _stack(objs, cls) -> dict:
    """Each array field of dataclass `cls`, stacked over the objects."""
    return {f.name: np.array([getattr(o, f.name) for o in objs])
            for f in dataclasses.fields(cls)}


def _unstack(arrays: dict, cls) -> list:
    return [cls(*row) for row in zip(*(arrays[f.name] for f in dataclasses.fields(cls)))]


def trajectory_to_json(traj: pr.Trajectory) -> bytes:
    kind = type(traj.measures[0])
    arrays = _stack(traj.measures, kind)
    if traj.family != "grid":
        arrays.update(_stack(traj.transports, _MAP_OF[kind]))
    return _pack({"spec": spec_to_dict(traj.spec), "gamma": traj.gamma, "family": traj.family,
                  "xi_norms": list(traj.xi_norms),
                  "solver_iterations": list(traj.solver_iterations)}, arrays)


def trajectory_from_json(data: bytes) -> pr.Trajectory:
    d, arrays = _unpack(data)
    if d["family"] == "grid":
        measures = _unstack(arrays, qt.QuantileGrid)
        transports = [qt.ot_map(a, b) for a, b in zip(measures, measures[1:])]
    else:
        measures = _unstack(arrays, ga.GaussianMeasure)
        transports = _unstack(arrays, ga.AffineMap)
    d["spec"] = spec_from_dict(d["spec"])
    return pr.Trajectory(measures=measures, transports=transports, **d)


def reverse_to_json(run: pr.ReverseRun) -> bytes:
    kind = type(run.measures[0])
    arrays = _stack(run.measures, kind)
    if not run.exact:
        arrays.update(_stack(run.transports, _MAP_OF[kind]))
    return _pack({"residuals": list(run.residuals), "exact": run.exact}, arrays)


def reverse_from_json(data: bytes, traj: pr.Trajectory) -> pr.ReverseRun:
    """Load a reverse run of `traj`; an exact run's transports invert traj's."""
    d, arrays = _unpack(data)
    kind = type(traj.measures[0])
    if d["exact"]:
        transports = [t.inverse() for t in traj.transports]
    else:
        transports = _unstack(arrays, _MAP_OF[kind])
    return pr.ReverseRun(measures=_unstack(arrays, kind), transports=transports, **d)
