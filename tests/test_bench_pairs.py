import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "op_s_p50": "lower", "ops_ok_frac": "higher"}


def run(pair, side, ops, p50, ok=1.0, workload="gauss_d10", seed=1):
    return {"workload": workload, "seed": seed, "pair": pair, "side": side,
            "metrics": {"ops_per_s": ops, "op_s_p50": p50, "ops_ok_frac": ok}}


def synthetic():
    parent = [6.0, 6.5, 7.0, 6.2, 6.8]
    change = [8.0, 6.4, 8.5, 8.1, 8.3]
    runs = []
    for i, (p, c) in enumerate(zip(parent, change), start=1):
        runs += [run(i, "parent", p, 1 / p), run(i, "change", c, 1 / c)]
    return runs


class TestSummarise:
    def test_quartiles_and_wins(self):
        s = bench_pairs.summarise(synthetic(), BETTER)["gauss_d10/seed1"]
        ops = s["ops_per_s"]
        assert ops["pairs"] == 5
        assert ops["change_wins"] == 4  # pair 2 is a loss
        assert ops["parent"]["median"] == 6.5
        assert ops["change"]["median"] == 8.1
        assert (ops["parent"]["q1"], ops["parent"]["q3"]) == pytest.approx((6.1, 6.9))

    def test_lower_is_better_direction(self):
        s = bench_pairs.summarise(synthetic(), BETTER)["gauss_d10/seed1"]
        assert s["op_s_p50"]["change_wins"] == 4

    def test_ties_are_not_wins(self):
        s = bench_pairs.summarise(synthetic(), BETTER)["gauss_d10/seed1"]
        assert s["ops_ok_frac"]["change_wins"] == 0
        assert s["ops_ok_frac"]["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}

    def test_groups_by_workload_and_seed_and_skips_incomplete_pairs(self):
        runs = synthetic() + [run(1, "parent", 5.0, 0.2, seed=7),
                              run(1, "change", 7.0, 0.1, seed=7),
                              run(2, "parent", 5.0, 0.2, seed=7)]
        s = bench_pairs.summarise(runs, BETTER)
        assert sorted(s) == ["gauss_d10/seed1", "gauss_d10/seed7"]
        held_out = s["gauss_d10/seed7"]["ops_per_s"]
        assert held_out["pairs"] == 1 and held_out["change_wins"] == 1
        assert held_out["parent"] == {"median": 5.0, "q1": 5.0, "q3": 5.0}


# perfbench/run.py's summary line for an untraced run
SUMMARY = ("gauss_d10: 3 passes, 120 op samples, 9 probes; median speed factor 1.083; "
           "setup_s samples [0.691, 0.742, 0.705]; raw ops_per_s 9.12, raw op_s_p50 0.1034")


class TestRawSetup:
    def test_parses_the_summary_line(self):
        stdout = "env {}\n" + SUMMARY + "\n  setup_s = 0.763515 s\n{}\n"
        assert bench_pairs.parse_summary(stdout) == {
            "speed_factor": 1.083, "setup_s_samples": [0.691, 0.742, 0.705]}

    def test_rejects_output_without_a_summary_line(self):
        with pytest.raises(ValueError):
            bench_pairs.parse_summary("gauss_d10: traced 40 ops; layer share ...\n{}\n")

    def test_summary_adds_the_median_raw_setup(self):
        runs = synthetic()
        for r in runs:
            r["setup_s_samples"] = [0.7, 0.75, 0.8] if r["side"] == "parent" else [0.2, 0.3]
        s = bench_pairs.summarise(runs, BETTER)["gauss_d10/seed1"][bench_pairs.RAW_SETUP]
        assert s["parent"]["median"] == 0.75
        assert s["change"]["median"] == 0.25
        assert s["change_wins"] == s["pairs"] == 5

    def test_summary_omits_raw_setup_when_runs_lack_samples(self):
        s = bench_pairs.summarise(synthetic(), BETTER)["gauss_d10/seed1"]
        assert bench_pairs.RAW_SETUP not in s
