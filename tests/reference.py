"""Closed-form quantities and reference computations that only the tests use.

The objective's W2 gradient on Gaussians and an affine field's L2 norm, the
potential's gradient grad V (no run reads it), xi measured at a Gaussian next
measure (rather than through the step's transport, as jko.measure_xi
does), the strong-convexity monotonicity inequality as a BoundReport, a
transport's inverse built as a map, a perturbed reverse run's maps and
chain built as maps and measures, the discretized grid proximal objective
and a grid Newton step that backtracks on it (jko_step_grid, which
backtracks on ||xi||, must match its iterates bit for bit from Gaussian and
bumped grids), the 1-D Gaussian TV distance by quadrature, and the Gaussian
measure's construction checks, objective value and KL divergence in their
plain per-measure spelling (the package's versions must match them), and
the potential V, the grid entropy and the grid objective value in the plain
spelling that QuantileGrid.objectives replaced.  `forward` is process.run_forward
with the tests' conveniences, `pushed_back` the stepwise reverse push, `push` a
pushforward through a map that need not start at the measure, and `ot_map_bw` the
Bures-Wasserstein OT map between two Gaussians.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solveh_banded

from jkolab import certify as ct
from jkolab import functionals as fn
from jkolab import gaussian as ga
from jkolab import jko
from jkolab import process as pr
from jkolab import quantile as qt

MONO_TOL = 1e-8


def potential_v(pot: fn.QuadraticPotential, x: np.ndarray) -> np.ndarray:
    """V at rows of x, shape (n, d) -> (n,): (1/2)(x - center)^T lambda_mat (x - center)."""
    dx = np.atleast_2d(x) - pot.center
    return 0.5 * np.einsum("ij,jk,ik->i", dx, pot.lambda_mat, dx)


def grad_v(pot: fn.QuadraticPotential, x: np.ndarray) -> np.ndarray:
    """grad V at rows of x, shape (n, d) -> (n, d): (x - center) lambda_mat^T."""
    return (np.atleast_2d(x) - pot.center) @ pot.lambda_mat.T


def grid_entropy(p: qt.QuantileGrid) -> float:
    """Differential entropy integral H = int rho log rho = -(1/M) sum log dQ/du."""
    return float(-np.mean(np.log(qt._dq_du_centered(p))))


def grid_objective(spec: fn.ObjectiveSpec, g: qt.QuantileGrid) -> float:
    """G(g) = alpha * H + E[V] + log Z of one grid, in the spelling that
    QuantileGrid.objectives must match bit for bit."""
    pot = spec.potential
    return (spec.alpha * grid_entropy(g) + float(np.mean(potential_v(pot, g.values[:, None])))
            + pot.log_z)


def _grid_phi(q, q_n, spec, gamma, gaps):
    """The grid step's discretized proximal objective at q (gaps = diff(q)):
    mean V(q) + mean (q - q_n)^2 / (2 gamma) - (alpha/M) sum log(M gaps)."""
    pot = spec.potential
    m = q.size
    d = q - pot.center[0]
    val = np.mean(0.5 * (d * pot.lambda_mat[0, 0] * d)) + np.mean((q - q_n) ** 2) / (2 * gamma)
    return float(val - spec.alpha / m * np.sum(np.log(m * gaps)))


def grid_step(p_n: qt.QuantileGrid, spec, gamma: float) -> tuple[np.ndarray, float, int]:
    """A damped Newton grid step, as (next quantiles, ||xi||, iterations).

    jko.jko_step_grid's loop as it was when its line search backtracked on
    the objective _grid_phi (accepting a rise of 8 ulps of the magnitude of
    its terms) instead of on ||xi||, kept as the oracle of the residual
    rule: from Gaussian and bumped grids both rules accept the same trials,
    so the iterates agree bit for bit; from smoothed atoms the first step's
    can differ.  Written in the plain spelling: the Hessian as a (2, M)
    band for scipy's solveh_banded, gaps by np.diff, means by np.mean.
    """
    pot = spec.potential
    alpha = spec.alpha
    lam_scalar = float(pot.lambda_mat[0, 0])
    q_n = p_n.values
    m = p_n.m
    q = q_n.copy()
    gaps = np.diff(q)
    phi = _grid_phi(q, q_n, spec, gamma, gaps)
    for iters in range(1, jko._MAX_NEWTON_ITERS + 1):
        xi = (lam_scalar * (q - pot.center[0]) + alpha * qt.gap_score(gaps) + (q - q_n) / gamma)
        xi_norm = float(np.sqrt(np.mean(xi * xi)))
        if np.max(np.abs(xi)) <= jko.GRID_TOL:
            break
        barrier = alpha * (1.0 / (gaps * gaps))
        ab = np.zeros((2, m))
        ab[0, 1:] = -barrier
        ab[1, :] = lam_scalar + 1.0 / gamma
        ab[1, :-1] += barrier
        ab[1, 1:] += barrier
        step = solveh_banded(ab, -xi)
        t = 1.0
        dgaps = np.diff(step)
        shrink = dgaps < 0
        if np.any(shrink):
            t = min(1.0, float(np.min(-0.99 * gaps[shrink] / dgaps[shrink])))
        terms = abs(phi) + alpha * float(np.mean(np.abs(np.log(m * gaps))))
        phi_max = phi + 8 * np.finfo(float).eps * terms
        while t > 1e-14:
            q_try = q + t * step
            gaps_try = np.diff(q_try)
            if np.all(gaps_try > 0):
                phi_try = _grid_phi(q_try, q_n, spec, gamma, gaps_try)
                if phi_try <= phi_max:
                    break
            t *= 0.5
        else:
            raise jko.SolverError("Newton line search failed on the grid proximal step")
        q, gaps, phi = q_try, gaps_try, phi_try
    else:
        raise jko.SolverError("grid Newton did not converge within the iteration cap")
    return q, xi_norm, iters


def gaussian_tv_1d(g1: ga.GaussianMeasure, g2: ga.GaussianMeasure) -> float:
    """TV distance of two 1-D Gaussians by the trapezoid rule on 40001 points over
    the union of mean +- 10 sd."""
    m1, s1 = float(g1.mean[0]), math.sqrt(float(g1.cov[0, 0]))
    m2, s2 = float(g2.mean[0]), math.sqrt(float(g2.cov[0, 0]))
    lo = min(m1 - 10 * s1, m2 - 10 * s2)
    hi = max(m1 + 10 * s1, m2 + 10 * s2)
    xs = np.linspace(lo, hi, 40001)
    d1 = np.exp(-0.5 * ((xs - m1) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
    d2 = np.exp(-0.5 * ((xs - m2) / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))
    return float(0.5 * np.trapezoid(np.abs(d1 - d2), xs))


def forward(p0, spec, gamma: float, n_steps: int, eps=0.0,
            mode: jko.PerturbMode = jko.PerturbMode.MEAN_SHIFT, seed: int = 0):
    """pr.run_forward of n_steps steps from p0, each of the one eps given or of the
    length-n_steps schedule `eps`, measured against p0's family's minimizer."""
    schedule = [float(eps)] * n_steps if np.isscalar(eps) else [float(e) for e in eps]
    assert len(schedule) == n_steps
    return pr.run_forward(p0, spec, gamma, schedule, mode, seed, p0.minimizer(spec))


def inverse(t):
    """T^{-1} as a map of T's type, from its arrays (`inverse_fields_of`): for an affine
    T: x -> L x + b it is (L^{-1}, -L^{-1} b), for a grid map its swapped knots."""
    return type(t)(*type(t).inverse_fields_of([t])[0])


def pushed_back(traj, maps) -> list:
    """The constructor arrays of q_0..q_N: pi = q_N pushed back through S_N, ..., S_1 given
    by `maps` (arrays of each transport's type), one push_fields per map; the loop
    process._pushed_back ran before it pushed each run of joined maps as one map."""
    arrays = [jko._fields(traj.minimizer)]
    for t, s in zip(traj.transports[::-1], maps[::-1], strict=True):
        arrays.append(type(t).push_fields(*s, *arrays[-1]))
    return arrays[::-1]


def reverse_maps(run) -> list:
    """S_1..S_N of a perturbed reverse run, each built as a map of T_n's type from
    the run's map arrays (the ones ReverseRun.q0 pushes pi through)."""
    return [type(t)(*s) for t, s in zip(run.traj.transports, run._map_fields(), strict=True)]


def push(p, t):
    """t#p as a measure, for a map t of p's family that need not start at p: the map type's
    `push_fields` on the two objects' arrays (the package pushes on arrays only)."""
    return type(p)(*type(t).push_fields(*jko._fields(t), *jko._fields(p)))


def reverse_chain(run) -> list:
    """q~_0..q~_N of a perturbed reverse run: pi = q~_N pushed through S_N, ..., S_1
    (reverse_maps) one measure at a time, as run_reverse_perturbed builds them."""
    measures = [run.traj.minimizer]
    for s in reversed(reverse_maps(run)):
        measures.append(push(measures[-1], s))
    return measures[::-1]


def precision(g: ga.GaussianMeasure) -> np.ndarray:
    """Sigma^{-1} = V diag(1 / evals) V^T from g's eigendecomposition."""
    v = g.evecs
    return (v / g.evals) @ v.T


def subgradient_field(g: ga.GaussianMeasure, spec) -> ga.AffineMap:
    """The W2 gradient of the objective at g: grad V + alpha * grad log rho.

    For Gaussian rho this is the affine field
    x -> Lambda (x - mu*) - alpha Sigma^{-1} (x - m).
    """
    pot = spec.potential
    alpha = spec.alpha
    prec = precision(g)
    j = pot.lambda_mat - alpha * prec
    c = -pot.lambda_mat @ pot.center + alpha * prec @ g.mean
    return ga.AffineMap(j, c)


def field_l2_norm(fld: ga.AffineMap, g: ga.GaussianMeasure) -> float:
    """L2(g) norm of an affine field; see ga.affine_field_norm."""
    if fld.offset.size != g.dim:
        raise ValueError("field and measure dimensions differ")
    return ga.affine_field_norm(fld.linear, fld.offset, g.mean, g.cov)


def gaussian_xi_at(p_n: ga.GaussianMeasure, p_next: ga.GaussianMeasure, spec, gamma: float):
    """xi of the proximal objective at the measure p_next: ((J, c), norm).

    The subgradient field at p_next minus (B - Id)/gamma, with B the OT map
    from p_next back to p_n (ot_map_bw, which factors p_next).
    """
    fld = subgradient_field(p_next, spec)
    back = ot_map_bw(p_next, p_n)
    j = fld.linear - (back.linear - np.eye(p_n.dim)) / gamma
    c = fld.offset - back.offset / gamma
    return (j, c), ga.affine_field_norm(j, c, p_next.mean, p_next.cov)


def ot_map_bw(g1: ga.GaussianMeasure, g2: ga.GaussianMeasure) -> ga.AffineMap:
    """OT map from g1 to g2: x -> A(x - m1) + m2 with SPD A."""
    if g1.dim != g2.dim:
        raise ValueError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    s_half, s_half_inv = g1.sqrt, g1.inv_sqrt
    a = s_half_inv @ ga.spd_sqrt(s_half @ g2.cov @ s_half) @ s_half_inv
    return ga.AffineMap(a, g2.mean - a @ g1.mean)


def _inner_product_base(p, eta, t_rho, t_pi):
    """<eta o T_p^rho, T_p^pi - T_p^rho>_p in closed form for Gaussian p and affine maps."""
    j, c = eta.linear, eta.offset
    a1, b1 = t_rho.linear, t_rho.offset
    a2, b2 = t_pi.linear, t_pi.offset
    m, sig = p.mean, p.cov
    mean_term = (j @ (a1 @ m + b1) + c) @ ((a2 - a1) @ m + (b2 - b1))
    cov_term = np.trace((j @ a1) @ sig @ (a2 - a1).T)
    return float(mean_term + cov_term)


def check_monotonicity(p, rho, pi, spec: fn.ObjectiveSpec,
                       tol: float = MONO_TOL) -> ct.BoundReport:
    """G(pi) - G(rho) >= <eta o T_p^rho, T_p^pi - T_p^rho>_p + (lam/2) W2^2(pi, rho)."""
    lam = spec.lam
    if isinstance(p, qt.QuantileGrid):
        eta_vals = (grad_v(spec.potential, rho.values[:, None])[:, 0]
                    + spec.alpha * qt.gap_score(np.diff(rho.values)))
        t_rho = qt.ot_map(p, rho)
        t_pi = qt.ot_map(p, pi)
        diff = qt.apply_map(t_pi.x, t_pi.y, p.values) - qt.apply_map(t_rho.x, t_rho.y, p.values)
        inner = float(np.mean(eta_vals * diff))
    else:
        eta = subgradient_field(rho, spec)
        t_rho = ot_map_bw(p, rho)
        t_pi = ot_map_bw(p, pi)
        inner = _inner_product_base(p, eta, t_rho, t_pi)
    w2 = pi.w2(rho)
    lhs = inner + 0.5 * lam * w2 * w2
    rhs = fn.evaluate(spec, pi) - fn.evaluate(spec, rho)
    return ct.BoundReport("monotonicity", lhs, rhs, tol, {"lambda": lam})


def gaussian_fields(mean, cov) -> tuple[np.ndarray, np.ndarray]:
    """The (mean, cov) that GaussianMeasure(mean, cov) stores, or the ValueError it raises,
    by its checks in their plain spelling: np.all(np.isfinite(.)), np.max(np.abs(.)) and a
    Cholesky factorization of cov - 1e-10 * np.eye(d)."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if mean.ndim != 1:
        raise ValueError("mean must be a vector")
    if cov.shape != (mean.size, mean.size):
        raise ValueError("covariance shape does not match mean dimension")
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise ValueError("mean and covariance must be finite")
    asym = np.max(np.abs(cov - cov.T))
    scale = max(np.max(np.abs(cov)), 1.0)
    if asym > 1e-12 * scale * 100:
        raise ValueError("covariance is not symmetric")
    cov = 0.5 * (cov + cov.T)
    if not np.all(np.isfinite(cov)):  # an entry above half the largest float overflowed
        raise ValueError("mean and covariance must be finite")
    try:
        np.linalg.cholesky(cov - 1e-10 * np.eye(mean.size))
    except np.linalg.LinAlgError:
        raise ValueError("covariance is not positive definite: its smallest eigenvalue "
                         "is below 1e-10") from None
    return mean, cov


def gaussian_objective(g: ga.GaussianMeasure, spec) -> float:
    """G(g) = alpha * entropy + E[V] + log Z of one Gaussian, in closed form."""
    pot = spec.potential
    h = -0.5 * g.dim * math.log(2 * math.pi * math.e) - 0.5 * g.log_det
    dm = g.mean - pot.center
    e_v = 0.5 * (np.trace(pot.lambda_mat @ g.cov) + dm @ pot.lambda_mat @ dm)
    return float(spec.alpha * h + e_v + pot.log_z)


def gaussian_kl(g1: ga.GaussianMeasure, g2: ga.GaussianMeasure) -> float:
    """KL(g1 || g2) from g2's precision: (tr(P2 S1) + dm P2 dm - d + log det S2 - log det S1) / 2."""
    prec2 = precision(g2)
    dm = g1.mean - g2.mean
    val = 0.5 * (np.trace(prec2 @ g1.cov) + dm @ prec2 @ dm - g1.dim + g2.log_det - g1.log_det)
    return max(float(val), 0.0)
