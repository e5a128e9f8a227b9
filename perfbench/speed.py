"""Machine-speed probe for rescaling times measured on a shared host.

On a host shared with other tenants the same work can take up to twice as
long in some minutes as in others, which swamps the run-to-run spread the
bounds in BENCHMARK.json allow.  The probe is a fixed mix of interpreter,
JSON, LAPACK and NumPy vector work like jkolab's; it takes REF_S seconds on the reference machine
(Intel Xeon at 2.0 GHz, 2 vCPUs) when that machine is otherwise idle.  The
probes run between ops, in the workload's process, taking SHARE of the
measured time.  An op time t is reported as t * REF_S / p in reference
seconds, where p is the median of the WINDOW probes nearest to that op, so
the rescaling follows the host's speed through the run; the raw values are
printed alongside.  Set-up time, measured before any probe runs, is
rescaled by the median factor of the run.  The probe is jkolab-free code,
so a change to jkolab cannot move it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

REF_S = 0.020
# Share of measured time spent probing, spread through the run.
SHARE = 0.1
WINDOW = 11

_FLOATS = [((i * 7919) % 10007) / 10007.0 for i in range(5000)]
_MAT = np.eye(30) + np.outer(np.arange(30.0), np.arange(30.0)) / 900.0
_VEC = np.linspace(-1.0, 1.0, 2048)


def probe() -> float:
    """Seconds taken by the fixed reference work, in four parts of similar cost."""
    t0 = time.perf_counter()
    sum(i * i for i in range(70000))
    json.loads(json.dumps(_FLOATS))
    for _ in range(60):
        np.linalg.eigh(_MAT)
    x = _VEC
    for _ in range(300):
        x = np.sqrt(np.abs(x * 1.0001 + 0.5))
    return time.perf_counter() - t0


def factor(probes: list, at: int) -> float:
    """Multiply a time measured when len(probes) was `at` by this to get reference seconds."""
    lo = max(0, min(at - WINDOW // 2, len(probes) - WINDOW))
    return REF_S / statistics.median(probes[lo:lo + WINDOW])
