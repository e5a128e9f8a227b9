"""End-to-end certification suite.

Each test exercises one headline guarantee at its stated tolerance and
prints a single PASS/FAIL verdict line.  Run with `pytest -s` to see the
verdict lines as they happen.
"""

import math
import os
import shutil

import numpy as np
import pytest
from scipy.optimize import brentq

from jkolab import certify as ct
from jkolab import cli
from jkolab import functionals as fn
from jkolab import gaussian as ga
from jkolab import jko
from jkolab import process as pr
from jkolab import quantile as qt

import oracles as orc
import reference as ref

GRID_M = 2048


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({label}) failed{tail}"


def kl_spec(lam=1.0, d=1):
    return fn.ObjectiveSpec(fn.QuadraticPotential(lam * np.eye(d), np.zeros(d)))


def _random_gaussian_p0(rng, d):
    mean = rng.uniform(-2, 2, d)
    if np.linalg.norm(mean) < 0.3:
        mean = mean + 0.5
    a = rng.standard_normal((d, d))
    cov = a @ a.T + 0.5 * np.eye(d)
    cov *= 1.5 / np.max(np.linalg.eigvalsh(cov))  # keep eigenvalues moderate
    return ga.GaussianMeasure(mean, cov + 0.3 * np.eye(d))


def _random_grid_p0(rng, m=GRID_M):
    mean = rng.uniform(-2, 2)
    if abs(mean) < 0.3:
        mean += 0.5
    return qt.from_gaussian(mean, rng.uniform(0.7, 1.8), m)


EPS_CYCLE = [0.0, 0.01, 0.05, 0.1]


@pytest.fixture(scope="module")
def evi_runs():
    """100 seeded runs: 25 per family in {gaussian d=1,2,3; grid M=2048}.

    eps cycles through {0, 0.01, 0.05, 0.1}; runs with eps > 0 take
    steps_needed + 1 steps so the objective gap one step past the threshold
    is available; exact runs take 8 steps.
    """
    runs = []
    for family_idx, family in enumerate(["gaussian1", "gaussian2", "gaussian3", "grid"]):
        for i in range(25):
            rng = np.random.default_rng(1000 * family_idx + i)
            eps = EPS_CYCLE[i % 4]
            if family == "grid":
                spec = kl_spec()
                p0 = _random_grid_p0(rng)
                q = p0.minimizer(spec)
            else:
                d = int(family[-1])
                spec = kl_spec(d=d)
                p0 = _random_gaussian_p0(rng, d)
                q = ga.GaussianMeasure.minimizer(spec)
            w0 = p0.w2(q)
            n = pr.steps_needed(w0, 1.0, 1.0, eps) + 1 if eps > 0 else 8
            traj = ref.forward(p0, spec, 1.0, n,
                               eps=eps, seed=i)
            runs.append({"traj": traj, "q": q, "eps": eps,
                         "n_threshold": n - 1 if eps > 0 else None})
    return runs


class TestAcceptance:
    def test_criterion_01_closed_form_contraction(self):
        # d=1, gamma=1, lam=1, p0=N(2,1): each step is exactly N(m/2, 1)
        spec = kl_spec()
        cur = ga.GaussianMeasure(np.array([2.0]), np.eye(1))
        m = 2.0
        worst_state = worst_ratio = 0.0
        ok = True
        for _ in range(20):
            prev_w2_sq = float(cur.mean[0]) ** 2 + (1 - 1) ** 2
            res = jko.jko_step_gaussian(cur, spec, 1.0)
            m /= 2.0
            worst_state = max(worst_state,
                              abs(res.next_measure.mean[0] - m),
                              abs(res.next_measure.cov[0, 0] - 1.0))
            w2_sq = float(res.next_measure.mean[0]) ** 2
            ratio = w2_sq / prev_w2_sq
            worst_ratio = max(worst_ratio, ratio)
            ok &= ratio <= 2.0 / 3.0  # rate bound, slack positive
            cur = res.next_measure
        ok &= worst_state <= 1e-10
        _verdict(1, "closed-form Gaussian contraction", ok,
                 f"max state error {worst_state:.2e}, max ratio {worst_ratio:.3f}")

    def test_criterion_02_solver_cross_validation(self):
        spec = kl_spec()
        worst_cross = 0.0
        for gamma in (0.1, 0.5, 1.0, 1.9):
            m, s = 2.0, 4.0
            grid = qt.from_gaussian(m, math.sqrt(s), GRID_M)
            for _ in range(10):
                grid = jko.jko_step_grid(grid, spec, gamma).next_measure
                m = m / (1 + gamma)
                s = brentq(lambda x, s=s, g=gamma:
                           1 + (1 - math.sqrt(s / x)) / g - 1 / x,
                           1e-6, 50.0, xtol=1e-15)
                exact = qt.from_gaussian(m, math.sqrt(s), GRID_M)
                worst_cross = max(worst_cross, grid.w2(exact))
        ok = worst_cross <= 5e-3

        rng = np.random.default_rng(0)
        worst_obj = worst_w2 = 0.0
        for i in range(10):
            g = qt.from_gaussian(rng.uniform(-1, 1), rng.uniform(0.6, 1.5), 128)
            a, b = rng.uniform(0.05, 0.25), rng.uniform(-0.3, 0.3)
            p = qt.QuantileGrid(g.values + a * g.values ** 3
                                + b * np.tanh(g.values))
            gamma = rng.uniform(0.3, 1.5)
            res = jko.jko_step_grid(p, spec, gamma)
            brute = orc.brute_jko(p, spec, gamma,
                                  orc.OracleConfig(budget=30_000, restarts=3, seed=i))
            q_s, q_o = res.next_measure.values, brute.values
            phi_s = ref._grid_phi(q_s, p.values, spec, gamma, np.diff(q_s))
            phi_o = ref._grid_phi(q_o, p.values, spec, gamma, np.diff(q_o))
            worst_obj = max(worst_obj, abs(phi_s - phi_o))
            worst_w2 = max(worst_w2, res.next_measure.w2(brute))
        ok &= worst_obj <= 1e-6 and worst_w2 <= 1e-3
        _verdict(2, "grid solver cross-validation", ok,
                 f"closed-form W2 {worst_cross:.2e}, oracle obj {worst_obj:.2e}, "
                 f"oracle W2 {worst_w2:.2e}")

    def test_criterion_03_evi_suite(self, evi_runs):
        n_reports = 0
        n_fail = 0
        for run in evi_runs:
            reports = ct.check_evi(run["traj"])
            n_reports += len(reports)
            n_fail += sum(1 for r in reports if not r.holds)
        _verdict(3, "per-step EVI across 100 seeded runs", n_fail == 0,
                 f"{n_reports} reports, {n_fail} failing")

    def test_criterion_04_terminal_bounds(self, evi_runs):
        n_checked = n_fail = 0
        for run in evi_runs:
            eps = run["eps"]
            if eps <= 0:
                continue
            n_checked += 1
            traj, q, n_thr = run["traj"], run["q"], run["n_threshold"]
            w = traj.measures[n_thr].w2(q)
            gap = fn.evaluate(traj.spec, traj.measures[n_thr + 1]) \
                - fn.evaluate(traj.spec, ga.GaussianMeasure.minimizer(traj.spec))
            if not (w <= math.sqrt(5) * eps and gap <= 4.5 * eps ** 2):
                n_fail += 1
        _verdict(4, "terminal W2 and objective-gap bounds", n_fail == 0,
                 f"{n_checked} runs with eps > 0, {n_fail} failing")

    def test_criterion_05_data_processing_equality(self):
        worst_g = worst_q = 0.0
        rng = np.random.default_rng(2)
        for i in range(6):
            d = i % 3 + 1
            traj = ref.forward(_random_gaussian_p0(rng, d), kl_spec(d=d), 1.0, 5,
                               eps=EPS_CYCLE[i % 4], seed=i)
            worst_g = max(worst_g, ct.check_dpi_chain(traj)[0].lhs)
        for i in range(4):
            p0 = _random_grid_p0(rng, m=4096)
            traj = ref.forward(p0, kl_spec(), 1.0, 3,
                               eps=EPS_CYCLE[i % 4], seed=i)
            worst_q = max(worst_q, ct.check_dpi_chain(traj)[0].lhs)
        ok = worst_g <= 1e-10 and worst_q <= 1e-4
        _verdict(5, "full-chain data-processing equality", ok,
                 f"gaussian {worst_g:.2e} <= 1e-10, grid {worst_q:.2e} <= 1e-4")

    def test_criterion_06_reverse_guarantee(self):
        eps, worst_kl, worst_tv, n_fail = 0.1, 0.0, 0.0, 0
        spec = kl_spec()
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            p0 = _random_grid_p0(rng)
            q = p0.minimizer(spec)
            n = pr.steps_needed(p0.w2(q), 1.0, 1.0, eps)
            traj = ref.forward(p0, spec, 1.0, n, eps=eps, seed=seed)
            q0 = pr.run_reverse_exact(traj)[0]
            kl = traj.measures[0].kl(q0)
            tv = traj.measures[0].tv(q0)
            worst_kl, worst_tv = max(worst_kl, kl), max(worst_tv, tv)
            if not (kl <= 0.045 and tv <= 0.15):
                n_fail += 1
        _verdict(6, "reverse-process KL/TV guarantee", n_fail == 0,
                 f"worst KL {worst_kl:.4f} <= 0.045, worst TV {worst_tv:.4f} <= 0.15")

    def test_criterion_07_inversion_bound(self):
        # lam=2, gamma=1, p0=N(2,4): the first transport has slope 1/2, so
        # every inverse slope is <= 2 and K = log 2 exactly
        spec = kl_spec(lam=2.0)
        p0 = ga.GaussianMeasure(np.array([2.0]), np.array([[4.0]]))
        traj = ref.forward(p0, spec, 1.0, 5, eps=0.01)
        k = pr.estimate_K(traj)
        ok = abs(k - math.log(2)) <= 1e-9
        details = [f"K={k:.6f}"]
        for eps_inv in (1e-4, 1e-3, 1e-2):
            pert, _ = pr.run_reverse_perturbed(traj, eps_inv)
            coupling, mixed = ct.check_inversion_bound(traj, pert, eps_inv)
            ok &= coupling.holds and mixed.holds and math.isfinite(mixed.rhs)
            expected_rhs = eps_inv / k * math.exp(k * 6)
            ok &= abs(coupling.rhs - expected_rhs) <= 1e-9 * expected_rhs
            details.append(f"eps_inv={eps_inv:g}: lhs={coupling.lhs:.2e} "
                           f"rhs={coupling.rhs:.2e}")
        _verdict(7, "reverse inversion-error bounds", ok, "; ".join(details))

    def test_criterion_08_monotonicity_suite(self):
        rng = np.random.default_rng(8)
        n_fail = 0
        for i in range(1000):
            d = i % 3 + 1
            spec = kl_spec(d=d)
            p, rho, pi = (_random_gaussian_p0(rng, d) for _ in range(3))
            if not ref.check_monotonicity(p, rho, pi, spec).holds:
                n_fail += 1
        # equality triple: equal covariances make both sides match exactly
        spec = kl_spec(d=2)
        p = ga.GaussianMeasure(np.zeros(2), np.eye(2))
        rho = ga.GaussianMeasure(np.array([1.0, 0.0]), np.eye(2))
        pi = ga.GaussianMeasure(np.array([-1.0, 0.0]), np.eye(2))
        eq_slack = ref.check_monotonicity(p, rho, pi, spec).slack
        ok = n_fail == 0 and abs(eq_slack) <= 1e-10
        _verdict(8, "strong-convexity monotonicity", ok,
                 f"1000 triples, {n_fail} failing; equality slack {eq_slack:.2e}")

    def test_criterion_09_smoothing_bound(self):
        rng = np.random.default_rng(9)
        n_fail = 0
        for _ in range(5):
            k = int(rng.integers(2, 9))
            locs = rng.uniform(-3, 3, (k, 1))
            w = rng.uniform(0.2, 1.0, k)
            p = pr.AtomicMeasure(locs, w / w.sum())
            for delta in (1e-4, 1e-3, 1e-2, 0.1, 1.0):
                if not ct.check_smoothing(p, delta).holds:
                    n_fail += 1
        _verdict(9, "OU smoothing drift bound", n_fail == 0,
                 f"25 (measure, delta) pairs, {n_fail} failing")

    def test_criterion_10_subgradient_validation(self):
        rng = np.random.default_rng(10)
        ts = (1e-2, 1e-3, 1e-4)
        n_fail = 0
        for _ in range(70):  # Gaussian pairs, closed-form pairing
            d = int(rng.integers(1, 4))
            spec = kl_spec(d=d)
            g = _random_gaussian_p0(rng, d)
            fld = ref.subgradient_field(g, spec)
            v = ga.AffineMap(0.3 * rng.standard_normal((d, d)),
                             0.3 * rng.standard_normal(d))
            inner = float((fld.linear @ g.mean + fld.offset)
                          @ (v.linear @ g.mean + v.offset)
                          + np.trace(fld.linear @ g.cov @ v.linear.T))
            scale = max(1.0, abs(inner))
            for t in ts:
                if abs(orc.fd_directional(spec, g, v, t) - inner) > 10 * t * scale:
                    n_fail += 1
        spec = kl_spec()
        for _ in range(30):  # grid pairs against the discretized objective
            p = _random_grid_p0(rng, m=512)
            q0 = p.values
            c1, c2 = rng.uniform(0.3, 1.0), rng.uniform(-0.5, 0.5)
            v = np.tanh(c1 * q0 + c2)

            def g_disc(q):
                return float(np.mean(ref.potential_v(spec.potential, q[:, None]))
                             + spec.potential.log_z
                             - np.mean(np.log(q.size * np.diff(q))) * (q.size - 1) / q.size)

            eta = ref.grad_v(spec.potential, q0[:, None])[:, 0] + qt.score(p)
            inner = float(np.mean(eta * v))
            scale = max(1.0, abs(inner))
            for t in ts:
                fd = (g_disc(q0 + t * v) - g_disc(q0 - t * v)) / (2 * t)
                if abs(fd - inner) > 10 * t * scale:
                    n_fail += 1
        _verdict(10, "subgradient finite-difference validation", n_fail == 0,
                 f"100 pairs x 3 step sizes, {n_fail} failing")

    def test_criterion_11_negative_control(self, tmp_path):
        fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                               "negative_control")
        work = str(tmp_path / "neg")
        shutil.copytree(fixture, work)
        code = cli.main(["certify", "--config", os.path.join(work, "config.txt"),
                         "--out", work])
        with open(os.path.join(work, "config.txt")) as f:
            rid = cli.parse_config(f.read()).run_id()
        with open(os.path.join(work, f"{rid}_report.csv")) as f:
            rows = f.read().strip().split("\n")[1:]
        failing = sorted({r.split(",")[0] for r in rows if r.split(",")[1] == "0"})
        ok = code == cli.EXIT_BOUND_FAILED and len(failing) > 0
        _verdict(11, "negative control fails certification", ok,
                 f"exit {code}, failing checks: {', '.join(failing)}")
