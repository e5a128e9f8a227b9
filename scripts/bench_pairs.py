"""Benchmark a change against its parent in alternating pairs of perfbench runs.

  python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds 1 7 \
      --pairs K --out BENCH_x.json [--what TEXT] [--traced-seed S]

PARENT_DIR and CHANGE_DIR are two checkouts.  For each seed, K pairs of
`perfbench/run.py --trace 0` runs are made, one in each checkout: odd pairs
run the parent first, even pairs the change first, so a drift of the
machine's speed does not favour one side.  With --traced-seed one traced
run per side follows, for the per-layer metrics.

The results are merged into --out, which keeps the runs of earlier calls
(other workloads or seeds): what, parent (the parent's git sha), command,
environment, summary, traced and runs.  The summary gives, for every
end-to-end metric of every workload/seed, the median and quartiles of
each side (statistics.quantiles, as perfbench/spread.py) and the number of
pairs in which the change was better, in the direction BENCHMARK.json
gives.

perfbench reports `setup_s` as the median set-up time times the run phase's
median speed factor, so a change to the run phase can move it.  Each run
record therefore also keeps the unscaled set-up samples and the speed
factor from perfbench's summary line, and the summary adds `raw_setup_s`,
the median of those samples (lower is better).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
COMMAND = ("python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0, "
           "parent and change alternating (odd pairs parent first, even pairs change "
           "first); traced: --trace 1, one run per side")
RAW_SETUP = "raw_setup_s"
SUMMARY_LINE = re.compile(
    r"median speed factor (?P<factor>[^;]+); setup_s samples \[(?P<samples>[^\]]*)\]")


def quartiles(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3}


def summarise(runs: list, better: dict) -> dict:
    """{workload/seedS: {metric: {parent, change, change_wins, pairs}}} over end-to-end runs.

    `better` maps each metric to "higher" or "lower"; a pair counts as a win
    only when the change is strictly better.  Where every run of a group
    keeps its set-up samples, the group also gets RAW_SETUP.
    """
    groups: dict = {}
    for r in runs:
        key = f"{r['workload']}/seed{r['seed']}"
        metrics = dict(r["metrics"])
        if "setup_s_samples" in r:
            metrics[RAW_SETUP] = statistics.median(r["setup_s_samples"])
        groups.setdefault(key, {}).setdefault(r["pair"], {})[r["side"]] = metrics
    out = {}
    for key, pairs in sorted(groups.items()):
        complete = [p for _, p in sorted(pairs.items()) if all(s in p for s in SIDES)]
        out[key] = {}
        names = dict(better)
        if all(RAW_SETUP in p[s] for p in complete for s in SIDES):
            names[RAW_SETUP] = "lower"
        for name, direction in names.items():
            vals = {s: [p[s][name] for p in complete] for s in SIDES}
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
            out[key][name] = {**{s: quartiles(vals[s]) for s in SIDES},
                              "change_wins": wins, "pairs": len(complete)}
    return out


def parse_summary(stdout: str) -> dict:
    """The speed factor and unscaled set-up samples from perfbench's summary line."""
    m = SUMMARY_LINE.search(stdout)
    if m is None:
        raise ValueError("perfbench printed no 'median speed factor ...; setup_s samples [...]'")
    return {"speed_factor": float(m["factor"]),
            "setup_s_samples": [float(s) for s in m["samples"].split(",") if s.strip()]}


def run_bench(checkout: str, workload: str, seed: int, seconds: int,
              trace: int) -> tuple[dict, str]:
    """perfbench's result record and its whole stdout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=checkout, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def git_sha(checkout: str) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(os.path.abspath(checkout))}
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          cwd=checkout, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--what", default=None, help="what the change is (kept from --out if absent)")
    ap.add_argument("--traced-seed", type=int, default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    doc = {"what": None, "parent": None, "command": None, "environment": None,
           "summary": {}, "traced": {}, "runs": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc.update(json.load(f))
    doc.update(what=args.what or doc["what"], parent=git_sha(args.parent_dir),
               command=COMMAND.format(seconds=seconds), environment=environment())
    dirs = {"parent": args.parent_dir, "change": args.change_dir}

    for seed in args.seeds:
        doc["runs"] = [r for r in doc["runs"]
                       if (r["workload"], r["seed"]) != (args.workload, seed)]
        for pair in range(1, args.pairs + 1):
            for side in (SIDES if pair % 2 else SIDES[::-1]):
                res, stdout = run_bench(dirs[side], args.workload, seed, seconds, 0)
                doc["runs"].append({
                    "workload": args.workload, "seed": seed, "pair": pair, "side": side,
                    "correct": res["correct"], "attempted": res["attempted"],
                    "failed": res["failed"],
                    "metrics": {k: m["value"] for k, m in res["metrics"].items()},
                    **parse_summary(stdout)})
                print(f"{args.workload} seed {seed} pair {pair} {side}: ops_per_s "
                      f"{res['metrics']['ops_per_s']['value']:.4g}", flush=True)
    if args.traced_seed is not None:
        doc["traced"][f"{args.workload}/seed{args.traced_seed}"] = {
            side: {k: m["value"] for k, m in
                   run_bench(dirs[side], args.workload, args.traced_seed, seconds,
                             1)[0]["metrics"].items()}
            for side in SIDES}
    doc["summary"] = summarise(doc["runs"], better)

    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for key, metrics in doc["summary"].items():
        for name, s in metrics.items():
            print(f"{key} {name}: parent {s['parent']['median']:.6g} "
                  f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}] -> change "
                  f"{s['change']['median']:.6g} [{s['change']['q1']:.6g}, "
                  f"{s['change']['q3']:.6g}]; change better in {s['change_wins']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
