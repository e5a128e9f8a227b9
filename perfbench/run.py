"""The jkolab benchmark: certified runs driven through the public CLI.

  python3 perfbench/run.py --workload grid_suite|gauss_d10|recertify \
      --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload seed generates the configs;
jkolab receives only config text.  The workload runs in a fresh Python
process (perfbench/worker.py), so set-up includes importing jkolab and the
peak RSS is that workload's alone.  Set-up is timed in SETUP_REPS fresh
processes and setup_s is their median; the last one then measures.  Times
are rescaled to reference seconds by the machine-speed probe (speed.py),
op times by the probes around each op and setup_s by the run's median
factor; the summary lines give the raw values too.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  Earlier
lines give the environment and a readable summary.  Artifacts are written
under .perfbench_out/ in the checkout and removed at the end; the spans of a
traced run are kept there as spans_<workload>_<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads as wl
from tracer import LAYERS
from worker import READY, RESULT

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPS = 3
DEADLINE_S = 170


class Stopped(Exception):
    pass


def _on_signal(signum, frame):
    raise Stopped(f"stopped by signal {signum} (the deadline is {DEADLINE_S} s)")


def _command_output(argv: list) -> str | None:
    # git must not find a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        res = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(seed: int, out_dir: str) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _command_output(["git", "rev-parse", "HEAD"]),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "artifact_fs": _command_output(["stat", "-f", "-c", "%T", out_dir]),
    }


def _start(args, out: str, trace_file: str) -> subprocess.Popen:
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--src", SRC, "--out", out, "--trace-file", trace_file]
    return subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)


def _read_until(proc: subprocess.Popen, prefix: str) -> str:
    for line in proc.stdout:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise RuntimeError(f"worker exited with status {proc.wait()} before {prefix.strip()!r}")


def _stop(proc: subprocess.Popen, message: str = "") -> None:
    """Send a last message, close stdin and wait for a clean exit."""
    with proc.stdin:
        proc.stdin.write(message)
    for _ in proc.stdout:
        pass
    if proc.wait() != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")


def run(args, base: str) -> tuple[list, dict]:
    """Time SETUP_REPS set-ups in fresh workers; the last one measures."""
    setups, procs = [], []
    trace_file = os.path.join(OUT_ROOT, f"spans_{args.workload}_{args.seed}.json")
    try:
        for rep in range(SETUP_REPS):
            out = os.path.join(base, f"setup{rep}")
            os.makedirs(out)
            t0 = time.perf_counter()
            proc = _start(args, out, trace_file)
            procs.append(proc)
            _read_until(proc, READY)
            setups.append(time.perf_counter() - t0)
            if rep < SETUP_REPS - 1:
                _stop(proc, "exit\n")
                shutil.rmtree(out)
        proc.stdin.write("run\n")
        proc.stdin.flush()
        result = json.loads(_read_until(proc, RESULT))
        _stop(proc)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return setups, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "jkolab", "__init__.py")):
        print(f"perfbench: no jkolab sources under {SRC}", file=sys.stderr)
        return 2

    base = os.path.join(OUT_ROOT, f"{args.workload}_{args.seed}_{os.getpid()}")
    os.makedirs(base)
    # raise instead of dying, so that the worker is killed and the output removed
    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.alarm(DEADLINE_S)
    try:
        env = environment(args.seed, base)
        setups, res = run(args, base)
    finally:
        signal.alarm(0)
        shutil.rmtree(base, ignore_errors=True)

    print("env " + json.dumps(env))
    failed, attempted = res["failed"], res["attempted"]
    for why in res["failures"]:
        print(f"failed op: {why}")
    if args.trace:
        metrics = _listed("per_layer", res["per_layer"])
        shares = ", ".join(f"{layer} {res['per_layer'][f'layer.{layer}.share']:.3f} / "
                           f"{res['per_layer'][f'layer.{layer}.incl_share']:.3f}"
                           for layer in LAYERS)
        print(f"{args.workload}: traced {res['op_samples']} ops; layer share of traced time, "
              f"self / inclusive: {shares}")
    else:
        values = {
            "setup_s": statistics.median(setups) * res["speed_factor"],
            "ops_per_s": res["ops_per_s"],
            "op_s_p50": res["op_s_p50"],
            "artifact_mb_per_op": res["artifact_mb_per_op"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ops_ok_frac": 1.0 - failed / attempted,
        }
        metrics = _listed("end_to_end", values)
        print(f"{args.workload}: {res['passes']} passes, {res['op_samples']} op samples, "
              f"{res['probes']} probes; median speed factor {res['speed_factor']:.4g}; "
              f"setup_s samples {[round(s, 3) for s in setups]}; "
              f"raw ops_per_s {res['raw_ops_per_s']:.4g}, "
              f"raw op_s_p50 {res['raw_op_s_p50']:.4g}")
        for k, m in metrics.items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}")
        print(f"  ops_failed_frac = {failed / attempted:.6g} frac")
        print(f"  runtime_warnings = {res['runtime_warnings']} count")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _listed(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, with their units.

    A function the workload never calls has no spans, so its metrics are 0.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)[kind]
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}


if __name__ == "__main__":
    sys.exit(main())
