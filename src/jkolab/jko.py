"""The W2 proximal step (JKO step) and its first-order error machinery.

Each step minimizes  G(rho) + W2^2(p_n, rho) / (2 gamma)  exactly in one of
the two tractable families (in closed form for Gaussians, by damped Newton
on quantile grids), measures the residual gradient field xi of that
objective at the computed iterate, and can compose a calibrated perturbation
onto the exact transport so the measured ||xi|| hits a requested epsilon.
The map types' perturbations and the same amplitude calibrator serve the
reverse process, where the calibrated quantity is the inversion residual.
Nothing here branches on the measure family: the family types' methods carry
what differs (the step solver, the xi formula, how a map's arrays are
perturbed and the amplitude capped).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import functionals as fn
from . import gaussian as ga
from . import quantile as qt

__all__ = [
    "StepResult",
    "PerturbMode",
    "SolverError",
    "CalibrationError",
    "jko_step_gaussian",
    "jko_step_grid",
    "measure_xi",
    "bump_profile",
    "calibrate_amplitude",
    "perturb_step",
]

GAUSSIAN_TOL = 1e-9
GRID_TOL = 1e-6
_MAX_NEWTON_ITERS = 200
_MAX_AMPLITUDE = 1e6
_FIRST_PROBE = 1e-3
_MAX_GROWTH = 100.0
_CALIB_RTOL = 1e-12
_STEP_RTOL = 1e-13
_MAX_CALIB_EVALS = 64


class SolverError(RuntimeError):
    """Proximal-step solver failed to converge."""


class CalibrationError(RuntimeError):
    """Perturbation amplitude cannot reach the requested epsilon."""


class PerturbMode(enum.Enum):
    MEAN_SHIFT = "mean_shift"
    DILATION = "dilation"
    GRID_BUMP = "grid_bump"


@dataclass(frozen=True)
class StepResult:
    """A proximal step from `start`; next_measure = start.image(transport) is built on first
    read, so a perturbed step never builds the exact one it replaces.  amplitude: 0 if exact."""

    start: object = field(repr=False)
    transport: object
    xi_norm: float
    solver_iterations: int
    amplitude: float = 0.0
    next_measure = cached_property(lambda self: self.start.image(self.transport))


def _check_gamma(gamma: float):
    if not (0 < gamma < 2):
        raise ValueError("step size gamma must be in (0, 2)")


def _fields(obj) -> list:
    """The array fields of a measure or map, in constructor order."""
    return [getattr(obj, f.name) for f in fields(obj)]


# ---------------------------------------------------------------------------
# xi measurement


def measure_xi(p_n, transport, spec: fn.ObjectiveSpec, gamma: float):
    """First-order residual of the proximal objective at p_next = S#p_n.

    xi = grad V + alpha * score - (S^{-1} - Id)/gamma, for the step's
    transport S given by its constructor arrays: a grid map's knots, which
    start at p_n's quantiles, or an affine map's exactly symmetric positive
    definite linear part and offset (the OT map from p_n to S#p_n).
    Returns its L2(p_next) norm, which p_n's `xi` method measures
    (ValueError: a grid map that does not start at p_n's quantiles, or a
    linear part that is not exactly symmetric).
    """
    _check_gamma(gamma)
    return p_n.xi(*transport, spec, gamma)


# ---------------------------------------------------------------------------
# Gaussian family: closed-form Bures-Wasserstein proximal step


def jko_step_gaussian(
    p_n: ga.GaussianMeasure,
    spec: fn.ObjectiveSpec,
    gamma: float,
) -> StepResult:
    """Exact proximal step in the Gaussian family, in closed form.

    Mean: m = (I + gamma Lambda)^{-1} (m_n + gamma Lambda mu*).  Covariance:
    with A the SPD transport linear part from Sigma_n to Sigma and B = A^{-1},
    stationarity  alpha Sigma^{-1} = Lambda + (I - B)/gamma  reads
    alpha gamma B Sigma_n^{-1} B + B = I + gamma Lambda.  For
    C = (alpha gamma Sigma_n^{-1})^{1/2} the matrix Y = C B C solves
    Y^2 + Y = C (I + gamma Lambda) C, so  Y = -I/2 + (I/4 + C(I + gamma Lambda)C)^{1/2},
    A = C Y^{-1} C;  m sets the offset b = m - A m_n, and p_n's image is the next
    measure.  A is symmetrized exactly, so ||xi||, measured through the
    transport (see measure_xi), must not exceed GAUSSIAN_TOL.
    """
    _check_gamma(gamma)
    pot = spec.potential
    eye = np.eye(p_n.dim)
    lam = pot.lambda_mat

    mean = np.linalg.solve(eye + gamma * lam, p_n.mean + gamma * lam @ pot.center)

    s, v = p_n.evals, p_n.evecs
    c = (v * np.sqrt(spec.alpha * gamma / s)) @ v.T
    mu, w = np.linalg.eigh(c @ (eye + gamma * lam) @ c)
    # eigenvalues of Y^{-1}: 1 / (sqrt(1/4 + mu) - 1/2), without the cancellation
    a = c @ ((w * ((0.5 + np.sqrt(0.25 + mu)) / mu)) @ w.T) @ c
    a = 0.5 * (a + a.T)

    transport = ga.AffineMap(a, mean - a @ p_n.mean)
    xi_norm = measure_xi(p_n, _fields(transport), spec, gamma)
    if xi_norm > GAUSSIAN_TOL:
        raise SolverError(f"closed-form covariance step misses stationarity: "
                          f"||xi|| = {xi_norm:.3g} > {GAUSSIAN_TOL:.3g}")
    return StepResult(p_n, transport, xi_norm, solver_iterations=0)


# ---------------------------------------------------------------------------
# Grid family: damped Newton with the log-gap barrier


def jko_step_grid(
    p_n: qt.QuantileGrid,
    spec: fn.ObjectiveSpec,
    gamma: float,
) -> StepResult:
    """Exact proximal step on a quantile grid by damped Newton.

    The discretized objective is smooth and strictly convex on the monotone
    cone; its Hessian is tridiagonal (quadratic terms plus the log-gap
    barrier), and LAPACK ?ptsv solves it exactly from its two diagonals per
    iteration (SolverError if the factorization fails).  The xi field is
    M times the objective's gradient, so the Newton step s for xi = 0 is a
    descent direction for the RMS norm ||xi||.  A fraction-to-boundary
    rule keeps every gap at >= 1% of its current value, and the line search
    halves t until the trial has strictly increasing quantiles and
    ||xi(q + t s)|| <= (1 - 1e-4 t) ||xi(q)||; the accepted trial's field is
    the next iteration's, so each iteration measures one field.  Iterates
    stay strictly monotone, and only the image of the result's transport is
    built as a QuantileGrid, on first read.  Convergence is
    max|xi| <= GRID_TOL.
    """
    from scipy.linalg import lapack  # loaded here, so only grid runs pay for scipy.linalg

    _check_gamma(gamma)
    pot = spec.potential
    if pot.dim != 1:
        raise ValueError("grid JKO step requires a 1-D objective")
    alpha = spec.alpha
    diag_quadratic = float(pot.lambda_mat[0, 0]) + 1.0 / gamma
    q_n = p_n.values
    m = p_n.m
    q = q_n.copy()
    gaps = q[1:] - q[:-1]
    xi, xi_norm = qt.xi_field(q, gaps, q_n, spec, gamma)

    for iters in range(1, _MAX_NEWTON_ITERS + 1):
        if np.abs(xi).max() <= GRID_TOL:
            break
        # the Hessian's two diagonals, each gap's barrier added to both of its ends
        barrier = alpha * (1.0 / (gaps * gaps))
        diag = np.full(m, diag_quadratic)
        diag[:-1] += barrier
        diag[1:] += barrier
        _, _, step, info = lapack.dptsv(diag, -barrier, -xi,
                                        overwrite_d=1, overwrite_e=1, overwrite_b=1)
        if info != 0:
            raise SolverError(f"grid Newton system is not positive definite "
                              f"(LAPACK ?ptsv info = {info})")

        # fraction-to-boundary: keep every gap at >= 1% of its current value
        t = 1.0
        dgaps = step[1:] - step[:-1]
        shrink = dgaps < 0
        if shrink.any():
            t = min(1.0, float((-0.99 * gaps[shrink] / dgaps[shrink]).min()))
        while t > 1e-14:
            q_try = q + t * step
            gaps_try = q_try[1:] - q_try[:-1]
            if gaps_try.min() > 0:
                xi_try, norm_try = qt.xi_field(q_try, gaps_try, q_n, spec, gamma)
                if norm_try <= (1.0 - 1e-4 * t) * xi_norm:
                    break
            t *= 0.5
        else:
            raise SolverError("Newton line search failed on the grid proximal step")
        q, gaps, xi, xi_norm = q_try, gaps_try, xi_try, norm_try
    else:
        raise SolverError("grid Newton did not converge within the iteration cap")

    transport = qt.MonotoneMap1D(q_n, q)
    return StepResult(p_n, transport, xi_norm, solver_iterations=iters)


# ---------------------------------------------------------------------------
# Calibrated perturbation of the exact transport


def bump_profile(x: np.ndarray, bump_center: float, bump_width: float) -> np.ndarray:
    """Smooth bump at x, 1 at bump_center, 0 where |x - bump_center| >= bump_width."""
    t = (x - bump_center) / bump_width
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def calibrate_amplitude(norm_at, target: float, a_cap: float = np.inf, norm_at_zero: float = 0.0,
                        first: float = _FIRST_PROBE) -> tuple[float, float]:
    """Amplitude a in (0, a_cap] at which norm_at(a) equals target, and that norm.

    A safeguarded secant on the norm from its known value norm_at_zero at
    a = 0 (never evaluated) and a first probe at `first` (a chain's previous
    amplitude) clipped to the ceiling, so a norm affine in a is solved by
    the first step.  Before the target is bracketed, a step extrapolates
    to at most 100 times the last amplitude and min(a_cap, _MAX_AMPLITUDE);
    inside the bracket, a step that leaves it falls back to regula falsi
    (Illinois: an end kept twice has its weight halved), then to bisection.
    The search stops when the norm is within 1e-12 of the target, the
    step within 1e-13 of the amplitude (the roundoff floor of a noisy
    norm), or, before any norm below the target is seen, two upper ends
    measure the same norm within 1% of the target; it returns the last
    amplitude and the norm measured there.  CalibrationError: a target at
    or below norm_at_zero, the ceiling hit below the target, a target below
    the norm's roundoff floor (that same norm, more than 1% above it), no
    stop within _MAX_CALIB_EVALS evaluations, or a final norm more than 1%
    off.
    """
    if target <= norm_at_zero:
        raise CalibrationError(
            f"cannot reach {target:g}: the unperturbed norm {norm_at_zero:g} is not below it")
    if a_cap <= 0:
        raise CalibrationError("amplitude cap is non-positive")
    ceiling = min(a_cap, _MAX_AMPLITUDE)
    lo, f_lo, hi, f_hi = 0.0, norm_at_zero - target, None, None
    prev, f_prev = lo, f_lo
    a = min(first, ceiling)
    for _ in range(_MAX_CALIB_EVALS):
        norm = norm_at(a)
        f = norm - target
        if abs(f) <= _CALIB_RTOL * target:
            break
        if f < 0:
            if hi is not None and f_prev < 0:
                f_hi *= 0.5
            lo, f_lo = a, f
        else:
            if lo == 0.0 and f == f_prev:
                if f <= 0.01 * target:  # already within the final acceptance
                    break
                raise CalibrationError(
                    f"cannot reach {target:g}: the norm stays at {norm:g} as the amplitude "
                    f"falls from {prev:g} to {a:g}, so the target is below its roundoff floor")
            if f_prev >= 0:
                f_lo *= 0.5
            hi, f_hi = a, f
        slope = (f - f_prev) / (a - prev)
        nxt = a - f / slope if slope > 0 else math.inf
        if hi is None:
            if lo >= ceiling:
                raise CalibrationError(f"cannot reach {target:g}: amplitude cap {lo:g} hit")
            nxt = min(nxt, _MAX_GROWTH * lo, ceiling)
        elif not lo < nxt < hi:
            nxt = lo - f_lo * (hi - lo) / (f_hi - f_lo)
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
        if abs(nxt - a) <= _STEP_RTOL * a:
            break
        prev, f_prev, a = a, f, nxt
    else:
        raise CalibrationError(
            f"cannot reach {target:g} within {_MAX_CALIB_EVALS} evaluations: "
            f"the last norm measured is {norm:g}, at amplitude {a:g}")
    if abs(norm - target) > 0.01 * target:
        raise CalibrationError(
            f"cannot reach {target:g}: the last norm measured, {norm:g} "
            f"at amplitude {a:g}, misses it by more than 1%")
    return a, norm


def perturb_step(
    p_n,
    exact: StepResult,
    spec: fn.ObjectiveSpec,
    gamma: float,
    eps: float,
    mode: PerturbMode = PerturbMode.MEAN_SHIFT,
    *,
    bump_center: float | None = None, first: float = _FIRST_PROBE,
) -> StepResult:
    """Compose a perturbation onto the exact transport so ||xi|| equals eps.

    calibrate_amplitude finds the amplitude by a secant on the re-measured
    xi norm, from the exact step's norm at amplitude 0 and a first probe at
    `first`, and the norm it returns is the one measured there, so the
    calibration target (1e-12 relative, 1% enforced) is verified by
    construction.  Dilations are about the mean of the exact next measure,
    which is not built; a grid bump (mode GRID_BUMP needs bump_center) has
    the standard deviation of p_n as its width.  eps = 0 returns the exact
    result unchanged.  An evaluation hands measure_xi the perturbed
    transport's arrays, so no map is built (a grid builds the QuantileGrid
    that validates the knot values; a Gaussian runs no eigendecomposition);
    the accepted amplitude gets one transport and its image of p_n.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0:
        return exact

    tr = exact.transport
    center = p_n.image_mean(tr) if mode is PerturbMode.DILATION else None
    bump = None
    if mode is PerturbMode.GRID_BUMP:
        if bump_center is None:
            raise ValueError("mode grid_bump needs a bump_center")
        width = math.sqrt(max(qt.second_moment(p_n) - p_n.mean ** 2, 1e-12))
        bump = bump_profile(tr.x, bump_center, width)
    kind = type(tr)
    perturbed, cap = kind.perturbed_fields(*_fields(tr), mode, center, bump)
    a, norm = calibrate_amplitude(lambda a: measure_xi(p_n, perturbed(a), spec, gamma), eps,
                                  cap(), norm_at_zero=exact.xi_norm, first=first)
    transport = kind(*perturbed(a))
    return StepResult(p_n, transport, norm, exact.solver_iterations, amplitude=a)
