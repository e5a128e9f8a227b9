"""Executable inequality checks.

Every convergence bound becomes a BoundReport: a measured left side, a
formula right side, and a pass verdict with an explicit numerical
tolerance.  Left sides are always measured from run data; right sides are
always evaluated from the bound formula, so a check can genuinely fail.
A bound whose hypotheses fail is reported too, marked `not_applicable`: it never fails.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

from . import functionals as fn
from . import process as pr

__all__ = [
    "BoundReport",
    "check_evi",
    "check_forward_rate",
    "check_kl_tv_guarantee",
    "check_inversion_bound",
    "check_dpi_chain",
    "check_smoothing",
    "report_lines",
]

# Family-independent tolerances; the EVI and DPI ones are the measure type's evi_tol, dpi_tol.
INVERSION_TOL = 1e-9
SMOOTHING_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float
    numerical_tol: float = 0.0
    context: dict = field(default_factory=dict)
    not_applicable: str = ""  # why the bound's hypotheses fail; "" when it applies

    def __post_init__(self):
        if not (math.isfinite(self.lhs) and (math.isfinite(self.rhs) or self.rhs == math.inf)):
            raise ValueError(f"{self.name}: non-finite lhs")

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return bool(self.not_applicable) or self.slack >= -self.numerical_tol


def report_lines(reports) -> str:
    buf = io.StringIO()
    buf.write("name,holds,lhs,rhs,slack,tol,context,not_applicable\n")
    for r in reports:
        ctx = ";".join(f"{k}={v}" for k, v in sorted(r.context.items()))
        buf.write("%s,%s,%.17g,%.17g,%.17g,%.17g,%s,%s\n" % (
            r.name, int(r.holds), r.lhs, r.rhs, r.slack, r.numerical_tol, ctx, r.not_applicable))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Per-step EVI


def check_evi(traj: pr.Trajectory) -> list[BoundReport]:
    """(1 + gl/2) W2^2(p_{n+1}, pi) + 2g (G(p_{n+1}) - G(pi)) <= W2^2(p_n, pi) + (2g/l) eps^2.

    pi is the trajectory's minimizer, `traj.minimizer`; eps is the max of the measured xi norms.
    """
    spec, gamma, lam = traj.spec, traj.gamma, traj.spec.lam
    eps = max(traj.xi_norms, default=0.0)
    tol = traj.measures[0].evi_tol
    g_pi = fn.evaluate(spec, traj.minimizer)
    w, g = traj.w2_to_minimizer, traj.objective_values
    reports = []
    for n in range(traj.n_steps):
        lhs = (1 + gamma * lam / 2) * w[n + 1] ** 2 + 2 * gamma * (g[n + 1] - g_pi)
        rhs = w[n] ** 2 + (2 * gamma / lam) * eps ** 2
        reports.append(BoundReport("evi", lhs, rhs, tol,
                                   {"n": n, "gamma": gamma, "lambda": lam, "eps": eps}))
    return reports


# ---------------------------------------------------------------------------
# Forward convergence rate and terminal bounds


def _threshold(traj: pr.Trajectory, eps: float) -> float:
    """The step from which the terminal bounds hold: pr.steps_threshold, +inf at eps = 0."""
    w0 = traj.w2_to_minimizer[0]
    return pr.steps_threshold(w0, traj.spec.lam, traj.gamma, eps) if eps else math.inf


def _below(n: int, threshold: float) -> str:
    """Why a terminal bound does not apply at step n, "" from max(threshold, 1) on."""
    return "" if n >= max(threshold, 1) else "step below threshold"


def check_forward_rate(traj: pr.Trajectory) -> list[BoundReport]:
    """Geometric W2 decay plus the terminal W2 / objective-gap bounds.

    eps is the max of the measured xi norms; the terminal reports appear at
    every step index from `_threshold` on (-inf when p_0 is the minimizer).  A gap
    row also needs step n + 1 <= N.  A terminal bound with no such step (no gap
    step at `n = auto`, N = ceil(threshold)) is one row at N, not applicable.
    """
    spec, gamma, lam = traj.spec, traj.gamma, traj.spec.lam
    eps = max(traj.xi_norms, default=0.0)
    tol = traj.measures[0].evi_tol
    w, g = traj.w2_to_minimizer, traj.objective_values
    decay = 1.0 / (1.0 + gamma * lam / 2.0)
    reports = []
    for n in range(1, traj.n_steps + 1):
        rhs = decay ** n * w[0] ** 2 + 4 * eps ** 2 / lam ** 2
        reports.append(BoundReport("forward_rate", w[n] ** 2, rhs, tol,
                                   {"n": n, "gamma": gamma, "lambda": lam, "eps": eps}))
    threshold = _threshold(traj, eps)
    g_min = fn.evaluate(spec, spec.gaussian_minimizer)  # the continuous pi's, until ROADMAP item 1
    steps = [n for n in range(1, traj.n_steps + 1) if n >= threshold] or [traj.n_steps]
    for n in steps:
        ctx = {"n": n, "eps": eps, "threshold": threshold, "vacuous_threshold": threshold <= 0}
        reports.append(BoundReport("forward_terminal_w2", w[n], math.sqrt(5.0) * eps / lam,
                                   tol, ctx, _below(n, threshold)))
        if n < traj.n_steps or n == steps[0]:  # with no gap step, the gap of p_N at n = N - 1
            m = min(n, traj.n_steps - 1)
            reports.append(BoundReport("forward_terminal_gap", g[m + 1] - g_min,
                                       (9.0 / (2 * gamma)) * (eps / lam) ** 2, tol,
                                       {**ctx, "n": m}, _below(m, threshold)))
    return reports


# ---------------------------------------------------------------------------
# Reverse-process KL / TV guarantee


def check_kl_tv_guarantee(traj: pr.Trajectory) -> list[BoundReport]:
    """KL(p || q_0) <= (9/2g)(eps/l)^2 and TV(p, q_0) <= (3/(2 sqrt g))(eps/l).

    q_0 is the exact reverse chain's output, `traj.exact_q0`; both apply from `_threshold` on.
    """
    spec, gamma, lam = traj.spec, traj.gamma, traj.spec.lam
    eps = max(traj.xi_norms, default=0.0)
    p0, q0 = traj.measures[0], traj.exact_q0
    tol = p0.evi_tol
    why = _below(traj.n_steps, _threshold(traj, eps))
    kl_val = p0.kl(q0)
    rhs_kl = (9.0 / (2 * gamma)) * (eps / lam) ** 2
    ctx = {"gamma": gamma, "lambda": lam, "eps": eps}
    reports = [BoundReport("reverse_kl", kl_val, rhs_kl, tol, ctx, why)]
    tv_val, tv_method = p0.tv(q0), "direct"
    if tv_val is None:  # no direct TV in this family and dimension
        tv_val, tv_method = math.sqrt(kl_val / 2.0), "pinsker_upper_bound"
    rhs_tv = (3.0 / (2 * math.sqrt(gamma))) * eps / lam
    reports.append(BoundReport("reverse_tv", tv_val, rhs_tv, tol,
                               {**ctx, "tv_method": tv_method}, why))
    return reports


# ---------------------------------------------------------------------------
# Inversion-error W2 bounds


def check_inversion_bound(traj: pr.Trajectory, pert_rev: pr.ReverseRun | None,
                          eps_inv: float, exact: bool = False) -> list[BoundReport]:
    """Coupling and mixed bounds on W2(q~_0, q_0), q~_0 = `pert_rev.q0`, q_0 = `traj.exact_q0`.

    At K = 0 the coupling formula is 0/0; the geometric-sum limit
    eps_inv * (N + 1) is used instead (flagged in context).  The mixed
    bound is the coupling bound with N replaced by its `n = auto` value,
    so it bounds W2 only when it is at least the coupling bound, that is
    when N <= 1 + pr.steps_threshold(W2(p0, pi), lambda, gamma, eps).  Outside
    that range (always when W2(p0, pi) = 0), and at K = 0 or eps = 0, it does
    not apply and its right side is inf.  `exact` says that every forward step
    was exact (the run's eps is 0): the measured xi norms are then roundoff, not
    an eps, and the mixed form does not apply either.  Neither applies at
    eps_inv = 0: there is no perturbed run (`pert_rev` None, q~_0 = q_0).
    """
    n = traj.n_steps
    gamma = traj.gamma
    k = pr.estimate_K(traj) if traj.transports else 0.0  # N = 0 only at eps_inv = 0
    lhs = pert_rev.q0.w2(traj.exact_q0) if pert_rev else 0.0
    idle = "" if pert_rev else "no perturbed run"
    if k > 1e-12:
        rhs_prop = eps_inv / (gamma * k) * math.exp(gamma * k * (n + 1))
        k_note = "exact"
    else:
        rhs_prop = eps_inv * (n + 1)
        k_note = "k_zero_limit"
    ctx = {"N": n, "gamma": gamma, "K": k, "eps_inv": eps_inv, "prop_form": k_note}
    reports = [BoundReport("inversion_coupling", lhs, rhs_prop, INVERSION_TOL, ctx, idle)]

    eps = max(traj.xi_norms, default=0.0)
    lam = traj.spec.lam
    w0 = traj.w2_to_minimizer[0]
    why = ("exact run" if exact else "K or eps is 0" if k <= 1e-12 or eps == 0
           else "N above 1 + threshold" if n > 1 + _threshold(traj, eps) else "")
    rhs_cor = math.inf
    if not why:
        rhs_cor = (math.exp(2 * gamma * k) / (gamma * k)
                   * (w0 * lam) ** (8 * k / lam) * eps_inv / eps ** (8 * k / lam))
        if not math.isfinite(rhs_cor):
            rhs_cor = math.inf
    reports.append(BoundReport("inversion_mixed", lhs, rhs_cor, INVERSION_TOL,
                               {**ctx, "eps": eps, "w2_p0_q": w0}, idle or why))
    return reports


# ---------------------------------------------------------------------------
# Data processing


def check_dpi_chain(traj: pr.Trajectory) -> list[BoundReport]:
    """|KL(p_0 || q_0) - KL(p_N || q_N)| over the exact reverse chain: the full-chain
    data-processing identity, with q_0 = `traj.exact_q0` and q_N = pi = `traj.minimizer`."""
    n = traj.n_steps
    start = traj.measures[0].kl(traj.exact_q0)
    end = traj.measures[n].kl(traj.minimizer)
    return [BoundReport("dpi_chain", abs(start - end), traj.measures[0].dpi_tol, 0.0,
                        {"kl_start": start, "kl_end": end, "N": n})]


# ---------------------------------------------------------------------------
# OU smoothing bound


def check_smoothing(p: pr.AtomicMeasure, delta: float) -> BoundReport:
    """W2(rho_delta, P)^2 <= delta^2 M2(P) + 2 delta d."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if p.n_atoms == 1:
        x0 = p.locations[0]
        shrink = math.exp(-delta)
        lhs = (1 - shrink) ** 2 * float(x0 @ x0) + (1 - math.exp(-2 * delta)) * p.dim
        method = "single_atom_closed_form"
    else:
        lhs = pr.w2_sq_smoothed_to_atoms(p, delta)
        method = "mixture_partial_moments"
    rhs = delta ** 2 * p.second_moment() + 2 * delta * p.dim
    return BoundReport("smoothing", lhs, rhs, SMOOTHING_TOL,
                       {"delta": delta, "d": p.dim, "method": method})
