"""Run the benchmark on several seeds and summarise each metric.

  python3 perfbench/spread.py --workload NAME --seeds 1,2,3 [--trace 1] [--json FILE]

For every metric prints the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median, with
the bound from BENCHMARK.json.  With --json the per-run values and the
summary are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs, values = [], {}
    for seed in [int(s) for s in args.seeds.split(",")]:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        runs.append({"seed": seed, "log": lines[:-1], **res})
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}; " + next(l for l in lines if l.startswith(args.workload)),
              flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    summary = {name: summarise(v) for name, v in values.items()}
    for name, s in summary.items():
        print(f"{args.workload} {name:40s} median={s['median']:.6g} spread={s['spread']:.4f} "
              f"bound={bounds.get(name)}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace, "runs": runs,
                       "summary": summary}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
