"""The W2 proximal step (JKO step) and its first-order error machinery.

Each step minimizes  G(rho) + W2^2(p_n, rho) / (2 gamma)  exactly in one of
the two tractable families (in closed form for Gaussians, by damped Newton
on quantile grids), measures the residual gradient field xi of that
objective at the computed iterate, and can compose a calibrated perturbation
onto the exact transport so the measured ||xi|| hits a requested epsilon.
The same perturbation builder and amplitude calibrator serve the reverse
process, where the calibrated quantity is the inversion residual.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

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
    "jko_step",
    "measure_xi",
    "bump_profile",
    "perturbed_knots",
    "perturbed_affine",
    "perturbed_map",
    "amplitude_cap",
    "calibrate_amplitude",
    "perturb_step",
]

GAUSSIAN_TOL = 1e-9
GRID_TOL = 1e-6
_MAX_NEWTON_ITERS = 200
_PHI_ULPS = 8
_MAX_AMPLITUDE = 1e6
_FIRST_PROBE = 1e-3
_MAX_GROWTH = 100.0
_CALIB_RTOL = 1e-12
_STEP_RTOL = 1e-13
_MAX_CALIB_EVALS = 64
_MIN_BUMP_SLOPE = 1e-3


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
    next_measure: object
    transport: object
    xi_norm: float
    solver_iterations: int


def _check_gamma(gamma: float):
    if not (0 < gamma < 2):
        raise ValueError("step size gamma must be in (0, 2)")


# ---------------------------------------------------------------------------
# xi measurement


def measure_xi(p_n, p_next, spec: fn.ObjectiveSpec, gamma: float):
    """First-order residual of the proximal objective at p_next.

    xi = grad V + alpha * score - (T - Id)/gamma with T the OT map from
    p_next back to p_n.  Returns (field, L2(p_next) norm); the field is an
    AffineMap in the Gaussian family and a length-M sample array on grids.

    In the Gaussian family p_next may also be given as the step's transport
    S: x -> L x + o with L symmetric positive definite, which is the OT map
    from p_n to S#p_n.  The back-map is then S^{-1} = (L^{-1}, -L^{-1} o) and
    the precision of S#p_n is L^{-T} Sigma_n^{-1} L^{-1}, from p_n's cached
    precision, so the measurement runs no eigendecomposition and builds no
    GaussianMeasure.  ValueError: L is not exactly symmetric (positive
    definiteness is the caller's to ensure).
    """
    _check_gamma(gamma)
    if isinstance(p_next, qt.QuantileGrid):
        q = p_next.values
        return _grid_xi(q, np.diff(q), p_n.values, spec, gamma)
    if isinstance(p_next, ga.GaussianMeasure):
        back = ga.ot_map_bw(p_next, p_n)
        j, c, norm = _gaussian_xi(p_next.mean, p_next.cov, p_next.precision,
                                  back.linear, back.offset, spec, gamma)
    elif isinstance(p_next, ga.AffineMap):
        lin = p_next.linear
        if not np.array_equal(lin, lin.T):
            raise ValueError("the transport's linear part is not symmetric")
        inv = np.linalg.inv(lin)
        j, c, norm = _gaussian_xi(lin @ p_n.mean + p_next.offset, lin @ p_n.cov @ lin.T,
                                  inv.T @ p_n.precision @ inv, inv, -inv @ p_next.offset,
                                  spec, gamma)
    else:
        raise TypeError(f"unsupported measure type {type(p_next)!r}")
    return ga.AffineMap(j, c), norm


def _gaussian_xi(mean, cov, precision, back_linear, back_offset, spec,
                 gamma: float) -> tuple[np.ndarray, np.ndarray, float]:
    """measure_xi at N(mean, cov) on arrays: (J, c, ||xi||) of the field x -> J x + c.

    precision is cov^{-1} and x -> back_linear x + back_offset the back-map
    to p_n; J and c are `ga.subgradient_field` bit for bit minus
    (back - Id) / gamma.
    """
    pot = spec.potential
    alpha = spec.entropy_weight
    j = pot.lambda_mat - alpha * precision - (back_linear - np.eye(mean.size)) / gamma
    c = -pot.lambda_mat @ pot.center + alpha * precision @ mean - back_offset / gamma
    return j, c, ga.affine_field_norm(j, c, mean, cov)


# ---------------------------------------------------------------------------
# Gaussian family: closed-form Bures-Wasserstein proximal step


def jko_step_gaussian(
    p_n: ga.GaussianMeasure,
    spec: fn.ObjectiveSpec,
    gamma: float,
    tol: float = GAUSSIAN_TOL,
) -> StepResult:
    """Exact proximal step in the Gaussian family, in closed form.

    Mean: m = (I + gamma Lambda)^{-1} (m_n + gamma Lambda mu*).  Covariance:
    with A the SPD transport linear part from Sigma_n to Sigma and B = A^{-1},
    stationarity  alpha Sigma^{-1} = Lambda + (I - B)/gamma  reads
    alpha gamma B Sigma_n^{-1} B + B = I + gamma Lambda.  For
    C = (alpha gamma Sigma_n^{-1})^{1/2} the matrix Y = C B C solves
    Y^2 + Y = C (I + gamma Lambda) C, so  Y = -I/2 + (I/4 + C(I + gamma Lambda)C)^{1/2},
    A = C Y^{-1} C  and  Sigma = A Sigma_n A.  A is symmetrized exactly, so
    ||xi||, measured through the transport (see measure_xi), must not
    exceed tol.
    """
    _check_gamma(gamma)
    if spec.entropy_weight <= 0:
        raise ValueError("Gaussian JKO step requires an entropy-bearing objective")
    p_n.require_nondegenerate()
    pot = spec.potential
    eye = np.eye(p_n.dim)
    lam = pot.lambda_mat

    mean = np.linalg.solve(eye + gamma * lam, p_n.mean + gamma * lam @ pot.center)

    s, v = p_n.evals, p_n.evecs
    c = (v * np.sqrt(spec.entropy_weight * gamma / s)) @ v.T
    mu, w = np.linalg.eigh(c @ (eye + gamma * lam) @ c)
    # eigenvalues of Y^{-1}: 1 / (sqrt(1/4 + mu) - 1/2), without the cancellation
    a = c @ ((w * ((0.5 + np.sqrt(0.25 + mu)) / mu)) @ w.T) @ c
    a = 0.5 * (a + a.T)

    transport = ga.AffineMap(a, mean - a @ p_n.mean)
    _, xi_norm = measure_xi(p_n, transport, spec, gamma)
    if xi_norm > tol:
        raise SolverError(
            f"closed-form covariance step misses stationarity: ||xi|| = {xi_norm:.3g} > {tol:.3g}"
        )
    return StepResult(
        next_measure=ga.GaussianMeasure(mean, a @ p_n.cov @ a),
        transport=transport,
        xi_norm=xi_norm,
        solver_iterations=0,
    )


# ---------------------------------------------------------------------------
# Grid family: damped Newton with the log-gap barrier


def _grid_xi(q: np.ndarray, gaps: np.ndarray, q_n: np.ndarray, spec,
             gamma: float) -> tuple[np.ndarray, float]:
    """measure_xi on quantile vectors, gaps = diff(q); lambda (q - c) is `grad_v` bit for bit."""
    pot = spec.potential
    field = (
        pot.lambda_mat[0, 0] * (q - pot.center[0])
        + spec.entropy_weight * qt.gap_score(gaps)
        + (q - q_n) / gamma
    )
    return field, float(np.sqrt(np.mean(field * field)))


def _grid_phi(q: np.ndarray, q_n: np.ndarray, spec, gamma: float,
              gaps: np.ndarray | None = None) -> float:
    """Discretized proximal objective at q (gaps = diff(q)); V is `pot.v` bit for bit."""
    pot = spec.potential
    m = q.size
    d = q - pot.center[0]
    val = np.mean(0.5 * (d * pot.lambda_mat[0, 0] * d)) + np.mean((q - q_n) ** 2) / (2 * gamma)
    if spec.entropy_weight > 0:
        if gaps is None:
            gaps = np.diff(q)
        val -= spec.entropy_weight / m * np.sum(np.log(m * gaps))
    return float(val)


def jko_step_grid(
    p_n: qt.QuantileGrid,
    spec: fn.ObjectiveSpec,
    gamma: float,
    tol: float = GRID_TOL,
) -> StepResult:
    """Exact proximal step on a quantile grid by damped Newton.

    The discretized objective is smooth and strictly convex on the monotone
    cone; its Hessian is tridiagonal (quadratic terms plus the log-gap
    barrier), solved exactly per iteration.  A fraction-to-boundary rule
    keeps every gap at >= 1% of its previous value, and the line search
    accepts only strictly increasing trial points, so iterates stay
    strictly monotone and only the result is built as a QuantileGrid.
    Convergence is on the max-norm of the measured xi field, which is M
    times the gradient of the discretized objective.
    """
    _check_gamma(gamma)
    pot = spec.potential
    if pot.dim != 1:
        raise ValueError("grid JKO step requires a 1-D objective")
    alpha = spec.entropy_weight
    lam_scalar = float(pot.lambda_mat[0, 0])
    q_n = p_n.values
    m = p_n.m
    q = q_n.copy()
    gaps = np.diff(q)
    phi = _grid_phi(q, q_n, spec, gamma, gaps)

    for iters in range(1, _MAX_NEWTON_ITERS + 1):
        xi, xi_norm = _grid_xi(q, gaps, q_n, spec, gamma)
        if np.max(np.abs(xi)) <= tol:
            break
        diag = np.full(m, lam_scalar + 1.0 / gamma)
        off = np.zeros(m - 1)
        if alpha > 0:
            inv_g2 = 1.0 / (gaps * gaps)
            diag[:-1] += alpha * inv_g2
            diag[1:] += alpha * inv_g2
            off -= alpha * inv_g2
        ab = np.zeros((2, m))
        ab[0, 1:] = off
        ab[1, :] = diag
        step = solveh_banded(ab, -xi)

        # fraction-to-boundary: keep every gap at >= 1% of its current value
        t = 1.0
        if alpha > 0:
            dgaps = np.diff(step)
            shrink = dgaps < 0
            if np.any(shrink):
                t = min(1.0, float(np.min(-0.99 * gaps[shrink] / dgaps[shrink])))
        # Close to the optimum the decrease a Newton step predicts is below
        # the resolution of phi, so allow a rise of a few ulps of the
        # magnitude of the terms phi sums.
        terms = abs(phi) + alpha * float(np.mean(np.abs(np.log(m * gaps))))
        phi_max = phi + _PHI_ULPS * np.finfo(float).eps * terms
        while t > 1e-14:
            q_try = q + t * step
            gaps_try = np.diff(q_try)
            if np.all(gaps_try > 0):
                phi_try = _grid_phi(q_try, q_n, spec, gamma, gaps_try)
                if phi_try <= phi_max:
                    break
            t *= 0.5
        else:
            raise SolverError("Newton line search failed on the grid proximal step")
        q, gaps, phi = q_try, gaps_try, phi_try
    else:
        raise SolverError("grid Newton did not converge within the iteration cap")

    next_measure = qt.QuantileGrid(q)
    return StepResult(
        next_measure=next_measure,
        transport=qt.ot_map(p_n, next_measure),
        xi_norm=xi_norm,
        solver_iterations=iters,
    )


def jko_step(p_n, spec, gamma: float) -> StepResult:
    """Dispatch on measure family."""
    if isinstance(p_n, qt.QuantileGrid):
        return jko_step_grid(p_n, spec, gamma)
    return jko_step_gaussian(p_n, spec, gamma)


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


def perturbed_knots(y: np.ndarray, mode: PerturbMode, a: float, center, bump=None) -> np.ndarray:
    """Knot values y of a 1-D map perturbed with amplitude a.

    MEAN_SHIFT adds a, DILATION scales about `center` by 1 + a, and
    GRID_BUMP adds a times `bump`, the bump_profile at the map's knots.
    """
    if mode is PerturbMode.MEAN_SHIFT:
        return y + a
    if mode is PerturbMode.DILATION:
        return (1 + a) * (y - center) + center
    return y + a * bump


def perturbed_affine(linear: np.ndarray, offset: np.ndarray, mode: PerturbMode, a: float,
                     center) -> tuple[np.ndarray, np.ndarray]:
    """(linear, offset) of an affine map perturbed with amplitude a.

    MEAN_SHIFT shifts by a along the first axis, DILATION scales about
    `center` by 1 + a (a symmetric linear part stays exactly symmetric).
    """
    if mode is PerturbMode.MEAN_SHIFT:
        return linear, offset + a * np.eye(offset.size)[0]
    if mode is PerturbMode.DILATION:
        return (1 + a) * linear, (1 + a) * (offset - center) + center
    raise ValueError(f"mode {mode.value} is 1-D only")


def perturbed_map(tr, mode: PerturbMode, a: float, *, center, bump=None):
    """`tr` with a perturbation of amplitude a composed onto it.

    A 1-D map gets perturbed_knots, an affine map perturbed_affine.
    """
    if isinstance(tr, ga.AffineMap):
        return ga.AffineMap(*perturbed_affine(tr.linear, tr.offset, mode, a, center))
    return qt.MonotoneMap1D(tr.x, perturbed_knots(tr.y, mode, a, center, bump))


def amplitude_cap(x: np.ndarray, y: np.ndarray, bump=None) -> float:
    """Largest amplitude a keeping every slope of the knots (x, y + a bump) >= 1e-3.

    `bump` is the bump_profile at x.  Without one (a shift, or a dilation
    by 1 + a >= 1, never breaks monotonicity) the cap is infinite.  The
    bump's slope is never a divisor, so its vanishing tails cannot overflow.
    """
    if bump is None:
        return np.inf
    dx = np.diff(x)
    fall = -np.diff(bump) / dx
    room = np.diff(y) / dx - _MIN_BUMP_SLOPE
    neg = fall > 0
    if not np.any(neg):
        return np.inf
    if np.any(room[neg] <= 0):
        return 0.0
    return 0.95 / float(np.max(fall[neg] / room[neg]))


def calibrate_amplitude(norm_at, target: float, a_cap: float = np.inf,
                        norm_at_zero: float = 0.0) -> tuple[float, float]:
    """Amplitude a in (0, a_cap] at which norm_at(a) equals target, and that norm.

    A safeguarded secant on the norm, starting from its known value
    norm_at_zero at a = 0 (never evaluated), so a norm affine in a is solved
    by the first step.  Before the target is bracketed, a step extrapolates
    to at most 100 times the last amplitude and min(a_cap, _MAX_AMPLITUDE);
    inside the bracket, a step that leaves it falls back to regula falsi
    (Illinois: an end kept twice has its weight halved), then to bisection.
    The search stops when the norm is within 1e-12 of the target or the
    step within 1e-13 of the amplitude (the roundoff floor of a noisy
    norm), and returns the last amplitude and the norm measured there.
    CalibrationError: a target at or below norm_at_zero, the ceiling hit
    below the target, a target below the norm's roundoff floor (before any
    norm below the target is seen, two upper ends measure the same norm),
    no stop within _MAX_CALIB_EVALS evaluations, or a final norm more than
    1% off.
    """
    if target <= norm_at_zero:
        raise CalibrationError(
            f"cannot reach {target:g}: the unperturbed norm {norm_at_zero:g} is not below it")
    if a_cap <= 0:
        raise CalibrationError("amplitude cap is non-positive")
    ceiling = min(a_cap, _MAX_AMPLITUDE)
    lo, f_lo, hi, f_hi = 0.0, norm_at_zero - target, None, None
    prev, f_prev = lo, f_lo
    a = min(_FIRST_PROBE, ceiling)
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
    bump_center: float | None = None,
    bump_width: float | None = None,
) -> StepResult:
    """Compose a perturbation onto the exact transport so ||xi|| equals eps.

    calibrate_amplitude finds the amplitude by a secant on the re-measured
    xi norm, starting from the exact step's norm at amplitude 0, and the
    norm it returns is the one measured there, so the calibration target
    (1e-12 relative, 1% enforced) is verified by construction.  Dilations
    are about the mean of the exact next measure; a grid bump defaults to
    the median knot and the standard deviation of p_n.  eps = 0 returns
    the exact result unchanged.  On grids the exact transport's knots are
    p_n's quantiles, so T#p_n is the perturbed knot values: an evaluation
    builds the QuantileGrid that measure_xi validates and no map.  A
    Gaussian evaluation hands measure_xi the perturbed transport itself
    (its linear part stays exactly symmetric), so it runs no
    eigendecomposition and builds no measure; the accepted amplitude gets
    one transport and one pushforward.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0:
        return exact

    tr = exact.transport
    nxt = exact.next_measure
    bump = None
    a_cap = np.inf
    if isinstance(tr, qt.MonotoneMap1D):
        if not np.array_equal(tr.x, p_n.values):
            raise ValueError("the exact grid transport must start at p_n's quantiles")
        center = nxt.mean()
        if mode is PerturbMode.GRID_BUMP:
            if bump_center is None:
                bump_center = float(np.median(tr.x))
            if bump_width is None:
                bump_width = math.sqrt(max(qt.second_moment(p_n) - p_n.mean() ** 2, 1e-12))
            bump = bump_profile(tr.x, bump_center, bump_width)
            a_cap = amplitude_cap(tr.x, tr.y, bump)

        def xi_input(a: float):
            return qt.QuantileGrid(perturbed_knots(tr.y, mode, a, center, bump))

        def result(a: float):
            return xi_input(a), perturbed_map(tr, mode, a, center=center, bump=bump)
    else:
        center = nxt.mean

        def xi_input(a: float):
            return perturbed_map(tr, mode, a, center=center)

        def result(a: float):
            t = xi_input(a)
            return ga.pushforward_affine(p_n, t), t

    a, norm = calibrate_amplitude(lambda a: measure_xi(p_n, xi_input(a), spec, gamma)[1], eps,
                                  a_cap, norm_at_zero=exact.xi_norm)
    next_measure, transport = result(a)
    return StepResult(
        next_measure=next_measure,
        transport=transport,
        xi_norm=norm,
        solver_iterations=exact.solver_iterations,
    )
