"""Tests of the benchmark harness itself.

  python3 -m pytest perfbench/tests
"""

import os

import numpy as np
import pytest

import tracer
import workloads as wl
from jkolab import cli

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FIXTURES = os.path.join(ROOT, "fixtures")


# ---------------------------------------------------------------------------
# Seeded generator


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_configs(workload):
    a = wl.make_specs(workload, 7)
    assert a == wl.make_specs(workload, 7)
    if workload != "grid_suite":
        assert [s.text for s in a] != [s.text for s in wl.make_specs(workload, 8)]


@pytest.mark.parametrize("d", [10, 30])
def test_gaussian_problem_is_spd_and_non_commuting(d):
    for seed in range(5):
        prob = wl.gaussian_problem(np.random.default_rng(seed), d)
        lam, cov = prob["lam"], prob["cov"]
        for mat, (lo, hi) in ((lam, wl.LAMBDA_EIGS), (cov, wl.COV_EIGS)):
            assert np.array_equal(mat, mat.T)
            evals = np.linalg.eigvalsh(mat)
            assert evals[0] == pytest.approx(lo) and evals[-1] == pytest.approx(hi)
            assert np.all(evals >= lo * (1 - 1e-12)) and np.all(evals <= hi * (1 + 1e-12))
        assert np.linalg.norm(lam @ cov - cov @ lam) > 1e-2 * np.linalg.norm(lam @ cov)
        assert np.linalg.norm(prob["mean"] - prob["center"]) == pytest.approx(wl.MEAN_OFFSET)


def test_generated_configs_parse_back():
    for spec in wl.make_specs("gauss_d10", 3):
        cfg = cli.parse_config(spec.text)
        assert cfg.family == "gaussian" and cfg.spec.dim == 10
        assert cfg.spec.lam == pytest.approx(wl.LAMBDA_EIGS[0])
    grid = wl.make_specs("grid_suite", 3)
    assert {(cli.parse_config(s.text).gamma, s.eps) for s in grid} == {
        (g, e) for g in wl.GRID_GAMMAS for e in wl.GRID_EPSES}


def test_speed_factor_uses_the_probes_nearest_the_op():
    import speed

    probes = [speed.REF_S] * speed.WINDOW + [2 * speed.REF_S] * speed.WINDOW
    assert speed.factor(probes, 3) == pytest.approx(1.0)
    assert speed.factor(probes, len(probes) - 2) == pytest.approx(0.5)
    assert speed.factor(probes[:4], 2) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Spans and self time


def span(name, start, end, parent, count=None):
    return [name, start, end, parent, 0, count]


SPANS = [
    span("cli.main", 0.0, 10.0, -1),            # 0
    span("jko.perturb_step", 1.0, 4.0, 0),      # 1
    span("jko.measure_xi", 2.0, 3.0, 1),        # 2
    span("gaussian.spd_sqrt", 2.2, 2.6, 2),     # 3
    span("jko.measure_xi", 5.0, 6.0, 0),        # 4
    span("serialize.trajectory_to_json", 6.5, 9.0, 0, 100),  # 5
]


def test_self_time_subtracts_children():
    assert tracer.self_times(SPANS) == pytest.approx([3.5, 2.0, 0.6, 0.4, 1.0, 2.5])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0, -1), span("b", 1.0, 5.0, 0), span("c", 4.0, 12.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_aggregate_and_layer_metrics():
    st = tracer.aggregate(SPANS)
    assert st["jko.measure_xi"]["calls"] == 2
    assert st["jko.measure_xi"]["under_perturb"] == 1
    assert st["jko.measure_xi"]["s"] == pytest.approx(2.0)
    m = tracer.layer_metrics(SPANS, n_ops=2, traced_wall=10.0)
    assert m["jko.calib_evals"] == pytest.approx(0.5)
    assert m["jko.calib_evals_per_perturb"] == pytest.approx(1.0)
    assert m["serialize.dump_bytes"] == pytest.approx(50.0)
    assert m["layer.jko.share"] == pytest.approx((2.0 + 0.6 + 1.0) / 10.0)
    assert m["layer.jko.incl_share"] == pytest.approx((3.0 + 1.0) / 10.0)
    assert m["layer.cli.incl_share"] == pytest.approx(1.0)
    assert sum(m[f"layer.{l}.share"] for l in tracer.LAYERS) == pytest.approx(1.0)


def test_tracer_wraps_and_restores_module_functions():
    from jkolab import gaussian

    original = gaussian.spd_sqrt
    tr = tracer.Tracer()
    tr.install([gaussian])
    try:
        g = gaussian.GaussianMeasure(np.zeros(2), np.diag([1.0, 4.0]))
        gaussian.w2_bw(g, g)
    finally:
        tr.uninstall()
    assert gaussian.spd_sqrt is original
    names = [s[tracer.NAME] for s in tr.spans]
    assert names == ["gaussian.w2_bw", "gaussian.spd_sqrt", "gaussian.spd_sqrt"]
    assert [s[tracer.PARENT] for s in tr.spans] == [-1, 0, 0]


# ---------------------------------------------------------------------------
# Correctness gate


def write(path, text):
    with open(path, "w") as f:
        f.write(text)
    return str(path)


def test_forward_gate_flags_xi_that_misses_eps(tmp_path):
    head = "n,w2_to_q,G_value,xi_norm,lipschitz_Tinv,solver_iterations\n0,1,1,,,\n"
    ok = write(tmp_path / "ok.csv", head + "1,1,1,0.0502,1,3\n2,1,1,0.0499,1,3\n")
    bad = write(tmp_path / "bad.csv", head + "1,1,1,0.0502,1,3\n2,1,1,0.0490,1,3\n")
    assert wl.check_forward(ok, 0.05) is None
    assert "misses" in wl.check_forward(bad, 0.05)
    assert wl.forward_steps(ok) == 2


def test_report_gate_needs_rows_per_step_and_reverse_rows(tmp_path):
    head = "name,holds,lhs,rhs,slack,tol,context\n"
    rows = ["evi", "evi", "forward_rate", "forward_rate", "reverse_kl", "reverse_tv",
            "dpi_chain", "inversion_coupling", "inversion_mixed"]
    full = write(tmp_path / "full.csv", head + "".join(f"{r},1,0,1,1,0,\n" for r in rows))
    assert wl.check_report(full, 2, 0.001) is None
    assert "evi" in wl.check_report(full, 3, 0.001)
    short = write(tmp_path / "short.csv",
                  head + "".join(f"{r},1,0,1,1,0,\n" for r in rows if r != "inversion_mixed"))
    assert "inversion_mixed" in wl.check_report(short, 2, 0.001)
    assert wl.check_report(short, 2, 0.0) is None


class ExitsZero:
    """A doctored CLI under which the negative control passes certification."""

    def __init__(self, real):
        self.parse_config = real.parse_config

    @staticmethod
    def main(argv):
        return 0


@pytest.mark.parametrize("doctored, failed", [(False, 0), (True, 1)])
def test_negative_control_must_exit_1(tmp_path, doctored, failed):
    import worker

    work = worker.Workload(str(tmp_path))
    try:
        op = work.negative_control(FIXTURES, expected=1)
        if doctored:
            work.cli = ExitsZero(work.cli)
        tally = worker.Tally()
        work.run_op(op, tally)
    finally:
        work.close()
    assert (tally.attempted, tally.failed) == (1, failed)
    assert not any(f.endswith("_report.csv")
                   for f in os.listdir(os.path.join(FIXTURES, "negative_control")))
