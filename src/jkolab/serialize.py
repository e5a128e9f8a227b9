"""Binary run store: one uncompressed npz archive per record.

An archive holds the record's measures stacked per array field (grid values
(N+1, M); Gaussian means (N+1, d), covariances (N+1, d, d)), the transport
arrays that cannot be rebuilt, and a JSON manifest string with the scalars.
Doubles are stored raw and manifest floats with repr, so a check re-run on
loaded data reproduces its verdict bit-for-bit.  The manifest keys are the
record fields' names.  Loading never unpickles: an archive holding an object
array raises ValueError.

Nothing derivable from the trajectory is stored.  Grid forward maps are
rebuilt on load as qt.ot_map(p_{n-1}, p_n).  The exact reverse run is not a
record at all: it is pr.run_reverse_exact(traj), and certify reads only its
output, traj.exact_q0.  A perturbed reverse map S_n is stored except, on
grids, its x knots, which are the forward iterate p_n (hence the trajectory
argument of reverse_from_json).  Gaussian forward maps (ot_map_bw does not
reproduce the closed-form linear part bit-for-bit) are stored.

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
        arrays.update(_stack(traj.transports, ga.AffineMap))
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
    """Store a perturbed reverse run; an exact one is derived from its trajectory."""
    if run.exact:
        raise ValueError("the exact reverse run is derived from the trajectory, not stored")
    kind = type(run.measures[0])
    arrays = _stack(run.measures, kind)
    if kind is qt.QuantileGrid:
        arrays["y"] = np.array([s.y for s in run.transports])
    else:
        arrays.update(_stack(run.transports, ga.AffineMap))
    return _pack({"residuals": list(run.residuals), "exact": run.exact}, arrays)


def reverse_from_json(data: bytes, traj: pr.Trajectory) -> pr.ReverseRun:
    """Load a perturbed reverse run of `traj`; grid map S_n takes its x knots from p_n."""
    d, arrays = _unpack(data)
    kind = type(traj.measures[0])
    if kind is qt.QuantileGrid:
        transports = [qt.MonotoneMap1D(p.values, y)
                      for p, y in zip(traj.measures[1:], arrays["y"], strict=True)]
    else:
        transports = _unstack(arrays, ga.AffineMap)
    return pr.ReverseRun(measures=_unstack(arrays, kind), transports=transports, **d)
