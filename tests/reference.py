"""Closed-form quantities that only the tests use.

The objective's W2 gradient on Gaussians, xi measured at a Gaussian next
measure (rather than through the step's transport, as jko.measure_xi
does), the strong-convexity monotonicity inequality as a BoundReport, a
transport's inverse built as a map, and a perturbed reverse run's maps and
chain built as maps and measures.
"""

from __future__ import annotations

import numpy as np

from jkolab import certify as ct
from jkolab import functionals as fn
from jkolab import gaussian as ga
from jkolab import quantile as qt

MONO_TOL = 1e-8


def inverse(t):
    """T^{-1} as a map of T's type, from its arrays `inverse_fields`: for an affine
    T: x -> L x + b it is (L^{-1}, -L^{-1} b), for a grid map its swapped knots."""
    return type(t)(*t.inverse_fields())


def reverse_maps(run) -> list:
    """S_1..S_N of a perturbed reverse run, each built as a map of T_n's type from
    the run's map arrays (the ones ReverseRun.q0 pushes pi through)."""
    return [type(t)(*s) for t, s in zip(run.traj.transports, run._map_fields(), strict=True)]


def reverse_chain(run) -> list:
    """q~_0..q~_N of a perturbed reverse run: pi = q~_N pushed through S_N, ..., S_1
    (reverse_maps) one measure at a time, as run_reverse_perturbed builds them."""
    measures = [run.traj.minimizer]
    for s in reversed(reverse_maps(run)):
        measures.append(measures[-1].push(s))
    return measures[::-1]


def subgradient_field(g: ga.GaussianMeasure, spec) -> ga.AffineMap:
    """The W2 gradient of the objective at g: grad V + alpha * grad log rho.

    For Gaussian rho this is the affine field
    x -> Lambda (x - mu*) - alpha Sigma^{-1} (x - m).
    """
    pot = spec.potential
    alpha = spec.alpha
    prec = g.precision
    j = pot.lambda_mat - alpha * prec
    c = -pot.lambda_mat @ pot.center + alpha * prec @ g.mean
    return ga.AffineMap(j, c)


def gaussian_xi_at(p_n: ga.GaussianMeasure, p_next: ga.GaussianMeasure, spec, gamma: float):
    """xi of the proximal objective at the measure p_next: ((J, c), norm).

    The subgradient field at p_next minus (B - Id)/gamma, with B the OT map
    from p_next back to p_n (ot_map_bw, which factors p_next).
    """
    fld = subgradient_field(p_next, spec)
    back = ga.ot_map_bw(p_next, p_n)
    j = fld.linear - (back.linear - np.eye(p_n.dim)) / gamma
    c = fld.offset - back.offset / gamma
    return (j, c), ga.affine_field_norm(j, c, p_next.mean, p_next.cov)


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
        eta_vals = (spec.potential.grad_v(rho.values[:, None])[:, 0]
                    + spec.alpha * qt.score(rho))
        t_rho = qt.ot_map(p, rho)
        t_pi = qt.ot_map(p, pi)
        diff = t_pi(p.values) - t_rho(p.values)
        inner = float(np.mean(eta_vals * diff))
    else:
        eta = subgradient_field(rho, spec)
        t_rho = ga.ot_map_bw(p, rho)
        t_pi = ga.ot_map_bw(p, pi)
        inner = _inner_product_base(p, eta, t_rho, t_pi)
    w2 = pi.w2(rho)
    lhs = inner + 0.5 * lam * w2 * w2
    rhs = fn.evaluate(spec, pi) - fn.evaluate(spec, rho)
    return ct.BoundReport("monotonicity", lhs, rhs, tol, {"lambda": lam})
