"""Independent brute-force references.

These reimplement the quantities the main solvers compute, by deliberately
different means (generic minimization, sampling, assignment LPs, dense
quadrature, finite differences), and never call into the jko module.  They
favor simplicity over speed; instances are desk-scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize

from jkolab import functionals as fn
from jkolab import gaussian as ga
from jkolab import quantile as qt

__all__ = [
    "OracleConfig",
    "brute_jko",
    "empirical_w2_1d",
    "assignment_w2",
    "quadrature_kl",
    "fd_directional",
]

_ASSIGNMENT_CAP = 2000


@dataclass(frozen=True)
class OracleConfig:
    budget: int = 100_000
    restarts: int = 10
    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if min(self.budget, self.restarts, self.n_samples) <= 0 or self.seed < 0:
            raise ValueError("oracle configuration entries must be positive")


class BudgetExhausted(RuntimeError):
    """The oracle ran out of budget before converging; result inconclusive."""


# ---------------------------------------------------------------------------
# Brute-force proximal step


def _potential(pot, x: np.ndarray) -> np.ndarray:
    """V at rows of x: (1/2)(x - center)^T lambda_mat (x - center), one row at a time."""
    dx = np.atleast_2d(x) - pot.center
    return 0.5 * np.sum((dx @ pot.lambda_mat) * dx, axis=1)


def _potential_grad(pot, x: np.ndarray) -> np.ndarray:
    """grad V at rows of x: (x - center) lambda_mat^T."""
    return (np.atleast_2d(x) - pot.center) @ pot.lambda_mat.T


def _grid_objective(q: np.ndarray, q_n: np.ndarray, spec, gamma: float) -> float:
    m = q.size
    return float(np.mean(_potential(spec.potential, q[:, None])) + np.mean((q - q_n) ** 2) / (2 * gamma)
                 - spec.alpha / m * float(np.sum(np.log(m * np.diff(q)))))


def _grid_objective_grad(q: np.ndarray, q_n: np.ndarray, spec, gamma: float) -> np.ndarray:
    m = q.size
    g = (_potential_grad(spec.potential, q[:, None])[:, 0] + (q - q_n) / gamma) / m
    gaps = np.diff(q)
    a = spec.alpha / m
    g[:-1] += a / gaps
    g[1:] -= a / gaps
    return g


def _isotonic_repair(q: np.ndarray, min_gap: float) -> np.ndarray:
    # subtracting a strictly increasing ramp turns "gaps >= min_gap" into
    # plain monotonicity, which one cumulative max enforces
    ramp = min_gap * np.arange(q.size)
    return np.maximum.accumulate(q - ramp) + ramp


def _brute_jko_grid(p_n: qt.QuantileGrid, spec, gamma: float,
                    cfg: OracleConfig) -> qt.QuantileGrid:
    q_n = p_n.values
    min_gap = 1e-4 * float(np.min(np.diff(q_n)))
    budget_per_restart = max(cfg.budget // cfg.restarts, 1000)
    rng = np.random.default_rng(cfg.seed)

    def fun(q):
        if np.any(np.diff(q) <= 0):
            return 1e12
        return _grid_objective(q, q_n, spec, gamma)

    def jac(q):
        if np.any(np.diff(q) <= 0):
            return np.zeros_like(q)
        return _grid_objective_grad(q, q_n, spec, gamma)

    best, best_val = None, np.inf
    for restart in range(cfg.restarts):
        jitter = 0.0 if restart == 0 else 0.02 * restart / cfg.restarts
        q0 = _isotonic_repair(q_n + jitter * rng.standard_normal(q_n.size), min_gap)
        res = minimize(fun, q0, jac=jac, method="L-BFGS-B",
                       options={"maxfun": budget_per_restart, "maxiter": budget_per_restart,
                                "ftol": 1e-17, "gtol": 1e-14, "maxcor": 30})
        if np.all(np.diff(res.x) > 0) and res.fun < best_val:
            best, best_val = res.x, float(res.fun)
    if best is None:
        raise BudgetExhausted("grid proximal oracle found no monotone minimizer")
    return qt.QuantileGrid(best)


def _brute_jko_gaussian(p_n: ga.GaussianMeasure, spec, gamma: float,
                        cfg: OracleConfig) -> ga.GaussianMeasure:
    d = p_n.dim
    tril = np.tril_indices(d)

    def unpack(theta):
        mean = theta[:d]
        chol = np.zeros((d, d))
        chol[tril] = theta[d:]
        cov = chol @ chol.T + 1e-12 * np.eye(d)
        return ga.GaussianMeasure(mean, cov)

    def objective(theta):
        try:  # a trial covariance below the nondegeneracy floor is no measure
            g = unpack(theta)
        except ValueError:
            return 1e12
        val = fn.evaluate(spec, g)
        dist = ga.w2_bw(p_n, g)
        return val + dist * dist / (2 * gamma)

    chol0 = np.linalg.cholesky(p_n.cov + 1e-12 * np.eye(d))
    theta0 = np.concatenate([p_n.mean, chol0[tril]])
    res = minimize(objective, theta0, method="Powell",
                   options={"maxfev": cfg.budget, "xtol": 1e-12, "ftol": 1e-14})
    if not res.success and res.nfev >= cfg.budget:
        raise BudgetExhausted("Gaussian proximal oracle exhausted its budget")
    return unpack(res.x)


def brute_jko(p_n, spec, gamma: float, cfg: OracleConfig | None = None):
    """Generic minimizer of G(rho) + W2^2(p_n, rho)/(2 gamma).

    Grid family: library quasi-Newton minimization over the quantile values
    (non-monotone points rejected with a large objective value) from
    jittered random restarts, with isotonic repair on the starts.  Gaussian
    family: derivative-free minimization over (mean, Cholesky factor) with
    closed-form W2 and KL.  Neither path shares any code with the main
    solvers.
    """
    cfg = cfg or OracleConfig()
    if isinstance(p_n, qt.QuantileGrid):
        return _brute_jko_grid(p_n, spec, gamma, cfg)
    return _brute_jko_gaussian(p_n, spec, gamma, cfg)


# ---------------------------------------------------------------------------
# W2 oracles


def _sample_quantile(grid: qt.QuantileGrid, u: np.ndarray) -> np.ndarray:
    return np.interp(u, qt.midpoints(grid.m), grid.values)


def empirical_w2_1d(p: qt.QuantileGrid, q: qt.QuantileGrid,
                    n_samples: int = 100_000, seed: int = 0) -> float:
    """Sample-based 1-D W2: sort paired inverse-CDF samples of each measure."""
    rng = np.random.default_rng(seed)
    x = np.sort(_sample_quantile(p, rng.uniform(size=n_samples)))
    y = np.sort(_sample_quantile(q, rng.uniform(size=n_samples)))
    return float(np.sqrt(np.mean((x - y) ** 2)))


def assignment_w2(samples1: np.ndarray, samples2: np.ndarray) -> float:
    """Exact empirical W2 on equal-size point clouds via linear assignment."""
    a = np.atleast_2d(np.asarray(samples1, dtype=float))
    b = np.atleast_2d(np.asarray(samples2, dtype=float))
    if a.shape != b.shape:
        raise ValueError("sample sets must have equal shape")
    if a.shape[0] > _ASSIGNMENT_CAP:
        raise ValueError(f"assignment oracle is capped at {_ASSIGNMENT_CAP} points")
    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


# ---------------------------------------------------------------------------
# KL quadrature and finite-difference directional derivatives


def quadrature_kl(p: qt.QuantileGrid, spec) -> float:
    """KL against the Gaussian target by dense x-quadrature of rho log(rho/q)."""
    pot = spec.potential
    dqdu = np.gradient(p.values, qt.midpoints(p.m))
    dens = 1.0 / dqdu
    xs = np.linspace(p.values[0], p.values[-1], 16 * p.m)
    rho = np.interp(xs, p.values, dens)
    log_q = -_potential(pot, xs[:, None]) - pot.log_z
    integrand = np.where(rho > 0, rho * (np.log(np.clip(rho, 1e-300, None)) - log_q), 0.0)
    return float(np.trapezoid(integrand, xs))


def fd_directional(spec, measure, v, t: float) -> float:
    """Central difference (G((Id + t v)#rho) - G((Id - t v)#rho)) / (2 t).

    `v` is an AffineMap field in the Gaussian family and a length-M array of
    values at the quantile points on grids.
    """
    if isinstance(measure, qt.QuantileGrid):
        plus = qt.QuantileGrid(measure.values + t * v)
        minus = qt.QuantileGrid(measure.values - t * v)
    else:
        d = measure.dim
        eye = np.eye(d)
        plus = measure.image(ga.AffineMap(eye + t * v.linear, t * v.offset))
        minus = measure.image(ga.AffineMap(eye - t * v.linear, -t * v.offset))
    return (fn.evaluate(spec, plus) - fn.evaluate(spec, minus)) / (2 * t)
