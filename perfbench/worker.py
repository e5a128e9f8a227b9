"""One workload in one fresh Python process.

Started by run.py.  The worker imports jkolab from the checkout's src/,
sets up its workload, prints a ready line and waits on stdin.  On "exit" it
stops (run.py times several set-ups this way); on "run" it measures passes
of ops for the requested time and prints one result line.

  python3 perfbench/worker.py --workload NAME --seed N --seconds S \
      --trace 0|1 --src DIR --out DIR --trace-file FILE
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field

import speed
import workloads as wl

READY = "perfbench-ready"
RESULT = "perfbench-result "

SUBCOMMANDS = ("forward", "reverse", "certify")


@dataclass
class Op:
    """One op: the CLI calls, what each must return, and what the gate checks."""

    name: str
    calls: list  # [(argv, expected exit status)]
    out: str  # directory holding the op's run data
    run_id: str
    eps: float | None  # xi target checked in forward.csv; None skips the check
    eps_inv: float
    n_steps: int | None = None  # known step count, else read from forward.csv


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    runtime_warnings: int = 0
    failures: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    probed_at: list = field(default_factory=list)  # len(probes) when each op started


def _snapshot(root: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            st = os.stat(os.path.join(dirpath, f))
            out[os.path.join(dirpath, f)] = (st.st_mtime_ns, st.st_size)
    return out


def _written(before: dict, after: dict) -> int:
    return sum(size for path, (mtime, size) in after.items() if before.get(path) != (mtime, size))


class Workload:
    """The ops of one workload and the CLI calls that run them."""

    def __init__(self, out: str):
        from jkolab import cli  # imported after main() put src/ on the path

        self.cli = cli
        self.out = out
        self.runs = os.path.join(out, "runs")
        os.makedirs(self.runs, exist_ok=True)
        self.sink = open(os.devnull, "w")
        self.tracer = None
        self.ops: list[Op] = []

    def close(self) -> None:
        self.sink.close()

    def setup(self, name: str, seed: int, fixtures: str) -> None:
        """Write the configs; recertify also stores run data and copies the negative control."""
        for spec in wl.make_specs(name, seed):
            path = os.path.join(self.out, f"{spec.name}.txt")
            with open(path, "w") as f:
                f.write(spec.text)
            if name == "recertify":
                self._store(path)
                subs = ("certify",)
            else:
                subs = SUBCOMMANDS
            self.ops.append(Op(spec.name, [(self._argv(sub, path), 0) for sub in subs],
                               self.runs, self._run_id(path), spec.eps, spec.eps_inv))
        if name == "recertify":
            self.ops.append(self.negative_control(fixtures, expected=1))

    def negative_control(self, fixtures: str, expected: int) -> Op:
        """certify on a copy of the fixture: it writes report.csv next to its data."""
        neg = os.path.join(self.out, "negative_control")
        shutil.copytree(os.path.join(fixtures, "negative_control"), neg)
        cfg = os.path.join(neg, "config.txt")
        return Op("negative_control", [(["certify", "--config", cfg, "--out", neg], expected)],
                  neg, self._run_id(cfg), None, 0.0, _config_steps(cfg))

    def _argv(self, sub: str, config: str) -> list:
        return [sub, "--config", config, "--out", self.runs]

    def _call(self, argv: list) -> int:
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            return self.cli.main(argv)

    def _store(self, config: str) -> None:
        for sub in ("forward", "reverse"):
            status = self._call(self._argv(sub, config))
            if status != 0:
                raise RuntimeError(f"set-up {sub} of {config} exited {status}")

    def _run_id(self, config: str) -> str:
        with open(config) as f:
            return self.cli.parse_config(f.read()).run_id()

    def _gate(self, op: Op, statuses: list) -> str | None:
        for (argv, want), got in zip(op.calls, statuses):
            if got != want:
                return f"{argv[0]} exited {got}, expected {want}"
        fwd = os.path.join(op.out, f"{op.run_id}_forward.csv")
        if op.eps is not None:
            why = wl.check_forward(fwd, op.eps)
            if why:
                return why
        n_steps = op.n_steps if op.n_steps is not None else wl.forward_steps(fwd)
        return wl.check_report(os.path.join(op.out, f"{op.run_id}_report.csv"),
                               n_steps, op.eps_inv)

    def run_op(self, op: Op, tally: Tally) -> float:
        """Run one op, gate it and return its latency (seconds)."""
        while sum(tally.probes) <= speed.SHARE * sum(tally.latencies):
            tally.probes.append(speed.probe())
        tally.probed_at.append(len(tally.probes))
        before = _snapshot(self.out)
        statuses = []
        if self.tracer is not None:
            self.tracer.op_id += 1
        t0 = time.perf_counter()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                for argv, _ in op.calls:
                    statuses.append(self._call(argv))
        except Exception:  # a crash is a failed op, not the end of the run
            traceback.print_exc(file=sys.stderr)
            statuses.append("exception")
        elapsed = time.perf_counter() - t0
        tally.runtime_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        tally.bytes_written += _written(before, _snapshot(self.out))
        tally.attempted += 1
        try:
            why = "raised" if "exception" in statuses else self._gate(op, statuses)
        except (OSError, ValueError, KeyError) as exc:
            why = f"unreadable output: {exc!r}"
        if why:
            tally.failed += 1
            tally.failures.append(f"{op.name}: {why}")
        tally.latencies.append(elapsed)
        return elapsed

    def run_pass(self, tally: Tally) -> float:
        """Every op once, then one report; returns the pass's timed seconds."""
        total = sum(self.run_op(op, tally) for op in self.ops)
        before = _snapshot(self.out)
        t0 = time.perf_counter()
        status = self._call(["report", "--out", self.runs])
        total += time.perf_counter() - t0
        tally.bytes_written += _written(before, _snapshot(self.out))
        if status != 0:
            tally.attempted += 1
            tally.failed += 1
            tally.failures.append(f"report exited {status}")
        return total


def _config_steps(config: str) -> int:
    with open(config) as f:
        for line in f:
            key, _, value = line.partition("=")
            if key.strip() == "n":
                return int(value)
    raise ValueError(f"{config} has no integer n")


def _rescale(tally: Tally, walls: list, n_ops: int) -> tuple[list, list, list]:
    """Each op's speed factor, op times and pass walls in reference seconds.

    A pass is its ops plus one report; the report is rescaled like the
    pass's last op.  See speed.py.
    """
    k = [speed.factor(tally.probes, at) for at in tally.probed_at]
    scaled = [t * f for t, f in zip(tally.latencies, k)]
    scaled_walls = []
    for start, wall in zip(range(0, len(scaled), n_ops), walls):
        ops = slice(start, start + n_ops)
        report = wall - sum(tally.latencies[ops])
        scaled_walls.append(sum(scaled[ops]) + report * k[ops.stop - 1])
    return k, scaled, scaled_walls


def measure(work: Workload, seconds: float) -> dict:
    """Whole passes for about `seconds`, so every run times the same mix of ops.

    Throughput is the median over passes, latency the median over ops of
    each op's median, so a single slow pass or op pulls less.  Every op time
    is first rescaled to reference seconds by the probes around it.
    """
    tally = Tally()
    walls = [work.run_pass(tally)]
    for _ in range(max(1, round(seconds / walls[0])) - 1):
        walls.append(work.run_pass(tally))
    n_ops = len(work.ops)
    k, scaled, scaled_walls = _rescale(tally, walls, n_ops)

    def p50(lat):
        return statistics.median(statistics.median(lat[i::n_ops]) for i in range(n_ops))

    return {
        "passes": len(walls),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:10],
        "op_samples": len(tally.latencies),
        "probes": len(tally.probes),
        "speed_factor": statistics.median(k),
        "raw_ops_per_s": statistics.median(n_ops / w for w in walls),
        "raw_op_s_p50": p50(tally.latencies),
        "ops_per_s": statistics.median(n_ops / w for w in scaled_walls),
        "op_s_p50": p50(scaled),
        "artifact_mb_per_op": tally.bytes_written / 1e6 / len(tally.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runtime_warnings": tally.runtime_warnings,
    }


def measure_traced(work: Workload, seconds: float, trace_path: str) -> dict:
    """Alternate untraced and traced passes (ABBA order) on the same configs."""
    import tracer
    from jkolab import certify, cli, functionals, gaussian, jko, process, quantile, serialize

    modules = (serialize, jko, process, certify, gaussian, quantile, functionals, cli)
    tr = tracer.Tracer()
    plain, traced = Tally(), Tally()
    walls = {False: [], True: []}

    def one(trace_on: bool) -> float:
        if trace_on:
            tr.install(modules)
            work.tracer = tr
        try:
            t = work.run_pass(traced if trace_on else plain)
        finally:
            tr.uninstall()
            work.tracer = None
        walls[trace_on].append(t)
        return t

    pair = one(False) + one(True)
    for k in range(max(1, round(seconds / pair)) - 1):
        order = (True, False) if k % 2 == 0 else (False, True)
        for trace_on in order:
            one(trace_on)
    n_ops = len(traced.latencies)
    metrics = tracer.layer_metrics(tr.spans, n_ops, sum(walls[True]))
    # both sides in reference seconds, so a change in host speed between
    # the traced and the untraced passes does not read as overhead
    per_pass = len(work.ops)
    metrics["trace.overhead_frac"] = (sum(_rescale(traced, walls[True], per_pass)[2])
                                      / sum(_rescale(plain, walls[False], per_pass)[2]) - 1.0)
    metrics["warnings.runtime"] = (plain.runtime_warnings + traced.runtime_warnings) / (
        len(plain.latencies) + n_ops)
    tr.dump(trace_path)
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "failures": (plain.failures + traced.failures)[:10],
        "op_samples": n_ops,
        "per_layer": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-file", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    work = Workload(args.out)
    try:
        work.setup(args.workload, args.seed, os.path.join(os.path.dirname(args.src), "fixtures"))
        print(READY, flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        if args.trace:
            result = measure_traced(work, args.seconds, args.trace_file)
        else:
            result = measure(work, args.seconds)
    finally:
        work.close()
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
