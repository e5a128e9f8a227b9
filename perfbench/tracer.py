"""Outside-in tracing of jkolab's public functions.

Every public module-level function of the traced modules is replaced, on
the module object, by a wrapper that records a span: name, start, end,
parent span and op id, plus an optional count taken from the call (bytes
serialized, solver iterations, ...).  jkolab calls across modules through
module attributes and within a module through module globals, so patching
the attribute catches every call.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("serialize", "jko", "process", "certify", "gaussian", "quantile",
          "functionals", "cli")

# Span name -> count taken from (args, result) at that boundary.
COUNTERS = {
    "serialize.trajectory_to_json": lambda args, out: len(out),
    "serialize.reverse_to_json": lambda args, out: len(out),
    "serialize.trajectory_from_json": lambda args, out: len(args[0]),
    "serialize.reverse_from_json": lambda args, out: len(args[0]),
    "jko.jko_step_gaussian": lambda args, out: out.solver_iterations,
    "jko.jko_step_grid": lambda args, out: out.solver_iterations,
    "process.run_forward": lambda args, out: out.n_steps,
    **{f"certify.{name}": (lambda args, out: len(out) if isinstance(out, list) else 1)
       for name in ("check_evi", "check_forward_rate", "check_kl_tv_guarantee",
                    "check_dpi_chain", "check_inversion_bound")},
}

# Span fields.
NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    """Span recorder that can be installed on and removed from jkolab modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(args, out)
            return out

        return traced

    def install(self, modules) -> None:
        """Wrap every public function defined in each module."""
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).copy().items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(f"{layer}.{attr}", obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "count"],
                       "spans": self.spans}, f, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, edge = 0.0, s[START]
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            lo, hi = max(spans[c][START], edge), min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append((s[END] - s[START]) - covered)
    return out


def aggregate(spans) -> dict:
    """Per function name: calls, inclusive seconds, self seconds, count sum.

    Inclusive seconds count only the outermost span of a name, so a function
    that reaches itself again is not counted twice.  `under_perturb` counts
    calls made anywhere beneath a jko.perturb_step span (calibration
    evaluations).
    """
    selfs = self_times(spans)
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0,
                                 "under_perturb": 0})
    under = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            under[i] = under[p] or spans[p][NAME] == "jko.perturb_step"
        st = stats[s[NAME]]
        st["calls"] += 1
        st["self_s"] += selfs[i]
        if s[COUNT] is not None:
            st["count"] += s[COUNT]
        if under[i]:
            st["under_perturb"] += 1
        if not _has_ancestor_named(spans, i, s[NAME]):
            st["s"] += s[END] - s[START]
    return dict(stats)


def _has_ancestor_named(spans, i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, n_ops: int, traced_wall: float) -> dict:
    """Per-layer metrics per traced op, in the names BENCHMARK.json lists.

    A layer's share is the self time of its functions over the traced wall
    time; its inclusive share also counts the callees in other layers.
    """
    st = aggregate(spans)

    def get(name, key):
        return st[name][key] if name in st else 0

    per = 1.0 / max(n_ops, 1)
    m: dict[str, float] = {}
    for name, s in st.items():
        m[f"{name}.calls"] = s["calls"] * per
        m[f"{name}.s"] = s["s"] * per
        m[f"{name}.self_s"] = s["self_s"] * per
    m["serialize.dump_bytes"] = per * (get("serialize.trajectory_to_json", "count")
                                       + get("serialize.reverse_to_json", "count"))
    m["serialize.load_bytes"] = per * (get("serialize.trajectory_from_json", "count")
                                       + get("serialize.reverse_from_json", "count"))
    m["jko.solver_iterations"] = per * (get("jko.jko_step_gaussian", "count")
                                        + get("jko.jko_step_grid", "count"))
    calib = get("jko.measure_xi", "under_perturb")
    m["jko.calib_evals"] = calib * per
    perturbs = get("jko.perturb_step", "calls")
    m["jko.calib_evals_per_perturb"] = calib / perturbs if perturbs else 0.0
    m["process.steps"] = get("process.run_forward", "count") * per
    m["certify.reports"] = per * sum(s["count"] for name, s in st.items()
                                     if name.startswith("certify.check_"))
    inclusive = layer_inclusive(spans)
    for layer in LAYERS:
        own = sum(s["self_s"] for name, s in st.items() if name.startswith(layer + "."))
        if layer == "cli":
            m["cli.self_s"] = own * per
        m[f"layer.{layer}.share"] = own / traced_wall
        m[f"layer.{layer}.incl_share"] = inclusive.get(layer, 0.0) / traced_wall
    return m


def layer_inclusive(spans) -> dict:
    """Per layer, the time spent under any of its spans, including callees."""
    layer = [s[NAME].split(".", 1)[0] for s in spans]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        p = s[PARENT]
        while p >= 0 and layer[p] != layer[i]:
            p = spans[p][PARENT]
        if p < 0:
            out[layer[i]] += s[END] - s[START]
    return dict(out)
