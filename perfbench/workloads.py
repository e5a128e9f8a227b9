"""Seeded workload inputs and the correctness gate.

Every workload is a list of jkolab config texts generated from one workload
seed; jkolab itself only ever sees the config text.  The gate decides, from
the exit status and the files a CLI call leaves behind, whether an op
produced a correct result.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("grid_suite", "gauss_d10", "recertify")

# The six grid configs of the standard suite (scripts/run_standard_suite.py).
GRID_TEMPLATE = """\
family = grid
family.m = 2048
objective.center = 0
p0.mean = 1.5
p0.cov = 2.25
gamma = {gamma!r}
eps = {eps!r}
eps_inv = 0.001
n = auto
seed = 0
mode = grid_bump
"""
GRID_GAMMAS = (0.5, 1.0, 1.5)
GRID_EPSES = (0.05, 0.1)

GAUSS_TEMPLATE = """\
family = gaussian
objective.variant = kl
objective.lambda_mat = {lam}
objective.center = {center}
p0.mean = {mean}
p0.cov = {cov}
gamma = {gamma!r}
eps = {eps!r}
eps_inv = 0.001
n = auto
seed = {seed}
mode = {mode}
"""
GAUSS_MODES = ("mean_shift", "dilation")
GAUSS_GAMMAS = (0.5, 1.0)
GAUSS_EPS = 0.05

LAMBDA_EIGS = (1.0, 4.0)
COV_EIGS = (0.25, 4.0)
# Distance between p0.mean and the objective's center.  Fixing it, and
# pinning the extreme eigenvalues, keeps the step count n = auto (which
# depends on lambda_min and W2(p0, q)) nearly the same for every seed, so
# that runs with different seeds do the same amount of work.
MEAN_OFFSET = 3.0

XI_RTOL = 0.01


@dataclass(frozen=True)
class RunSpec:
    """One config as the benchmark hands it to jkolab."""

    name: str
    text: str
    eps: float
    eps_inv: float


def _fmt_vec(v) -> str:
    return " ".join(repr(float(x)) for x in v)


def _fmt_mat(m) -> str:
    return "; ".join(_fmt_vec(row) for row in m)


def _random_spd(rng: np.random.Generator, d: int, lo: float, hi: float) -> np.ndarray:
    """SPD matrix with eigenvalues lo and hi plus d - 2 log-uniform draws between them."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    inner = np.exp(rng.uniform(np.log(lo), np.log(hi), d - 2))
    evals = np.concatenate([[lo, hi], inner])
    mat = (q * evals) @ q.T
    return 0.5 * (mat + mat.T)


def gaussian_problem(rng: np.random.Generator, d: int) -> dict:
    """Random non-commuting objective and starting measure in dimension d."""
    lam = _random_spd(rng, d, *LAMBDA_EIGS)
    cov = _random_spd(rng, d, *COV_EIGS)
    center = rng.standard_normal(d)
    u = rng.standard_normal(d)
    mean = center + MEAN_OFFSET * u / np.linalg.norm(u)
    return {"lam": lam, "cov": cov, "center": center, "mean": mean}


def gauss_specs(rng: np.random.Generator, d: int, modes, gammas, tag: str) -> list[RunSpec]:
    prob = gaussian_problem(rng, d)
    seed = int(rng.integers(0, 2**31))
    out = []
    for mode in modes:
        for gamma in gammas:
            text = GAUSS_TEMPLATE.format(
                lam=_fmt_mat(prob["lam"]), center=_fmt_vec(prob["center"]),
                mean=_fmt_vec(prob["mean"]), cov=_fmt_mat(prob["cov"]),
                gamma=gamma, eps=GAUSS_EPS, seed=seed, mode=mode)
            out.append(RunSpec(f"{tag}_{mode}_g{gamma}", text, GAUSS_EPS, 0.001))
    return out


def grid_specs(combos) -> list[RunSpec]:
    """Standard-suite grid configs, with the suite's own config seed 0.

    The config seed only places the grid_bump perturbations.  It is not
    drawn from the workload seed: for some seeds jkolab's grid Newton step
    does not converge after a bump (forward exits 2; for example gamma 0.5,
    eps 0.05, seed 1440510676), and every op the benchmark times must
    succeed.
    """
    return [RunSpec(f"grid_g{gamma}_e{eps}",
                    GRID_TEMPLATE.format(gamma=gamma, eps=eps), eps, 0.001)
            for gamma, eps in combos]


def make_specs(workload: str, seed: int) -> list[RunSpec]:
    """The configs of one workload; the same seed gives the same texts."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "grid_suite":
        return grid_specs([(g, e) for g in GRID_GAMMAS for e in GRID_EPSES])
    if workload == "gauss_d10":
        return gauss_specs(rng, 10, GAUSS_MODES, GAUSS_GAMMAS, "d10")
    if workload == "recertify":
        return (grid_specs([(1.0, 0.05), (1.5, 0.1)])
                + gauss_specs(rng, 30, GAUSS_MODES, (1.0,), "d30"))
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Correctness gate


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_forward(path: str, eps: float) -> str | None:
    """Every step's recorded ||xi|| is within 1% of eps; returns a reason or None."""
    if not os.path.exists(path):
        return f"missing {os.path.basename(path)}"
    steps = [r for r in _rows(path) if r["xi_norm"]]
    if not steps:
        return "forward.csv has no steps"
    worst = max(abs(float(r["xi_norm"]) - eps) for r in steps)
    if worst > XI_RTOL * eps:
        return f"xi_norm misses eps={eps} by {worst:.3g}"
    return None


def check_report(path: str, n_steps: int, eps_inv: float) -> str | None:
    """report.csv holds one evi and forward_rate row per step plus the reverse rows."""
    if not os.path.exists(path):
        return f"missing {os.path.basename(path)}"
    names = [r["name"] for r in _rows(path)]
    for name in ("evi", "forward_rate"):
        if names.count(name) != n_steps:
            return f"{names.count(name)} {name} rows for {n_steps} steps"
    needed = ["reverse_kl", "reverse_tv", "dpi_chain"]
    if eps_inv > 0:
        needed += ["inversion_coupling", "inversion_mixed"]
    missing = [n for n in needed if n not in names]
    return f"report lacks {missing}" if missing else None


def forward_steps(path: str) -> int:
    return sum(1 for r in _rows(path) if r["xi_norm"])
