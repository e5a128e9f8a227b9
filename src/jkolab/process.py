"""Forward and reverse process orchestration.

Runs the N-step forward chain of proximal steps (with optional calibrated
first-order error per step), the exact reverse chain through inverted
transports, the computed reverse chain with calibrated inversion error, OU
smoothing of atomic measures, and the bookkeeping the certifier consumes:
Lipschitz/K estimates, step-count formula, CSV output.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from . import functionals as fn
from . import gaussian as ga
from . import jko
from . import quantile as qt

__all__ = [
    "Trajectory",
    "ReverseRun",
    "AtomicMeasure",
    "steps_needed",
    "run_forward",
    "run_reverse_exact",
    "run_reverse_perturbed",
    "ou_smooth",
    "estimate_K",
    "w2_grid_to_atoms",
    "w2_sq_smoothed_to_atoms",
]


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class Trajectory:
    """Forward-process record: p_0..p_N, transports T_1..T_N, per-step ||xi||."""

    spec: fn.ObjectiveSpec
    gamma: float
    measures: list
    transports: list
    xi_norms: list
    solver_iterations: list
    family: str  # "grid" | "gaussian"

    @property
    def n_steps(self) -> int:
        return len(self.transports)

    @cached_property
    def minimizer(self):
        """The global minimizer pi of G in this trajectory's family (on its grid)."""
        return self.measures[0].render(fn.global_minimizer(self.spec))

    @cached_property
    def w2_to_minimizer(self) -> list:
        """W2(p_n, pi) for n = 0..N, computed once for every check that reads it."""
        return [p.w2(self.minimizer) for p in self.measures]

    @cached_property
    def exact_q0(self):
        """q_0 of the exact reverse chain: pi pulled back through T_N, ..., T_1 on arrays.

        Bit for bit run_reverse_exact(self).measures[0]; only q_0 is built as a measure.
        """
        arrays = _fields(self.minimizer)
        for t in reversed(self.transports):
            arrays = t.pull_back(*arrays)
        return type(self.minimizer)(*arrays)


def _fields(measure) -> list:
    """The measure's array fields (grid values; Gaussian mean, cov), in constructor order."""
    return [getattr(measure, f.name) for f in fields(measure)]


@dataclass(frozen=True)
class ReverseRun:
    """Reverse-process record of `traj`, indexed 0..N (measures[n] is q_n or q~_n).

    residuals[n-1] is ||T_n o S_n - Id|| under the measure entering S_n, and
    amplitudes[n-1] the amplitude a_n of the perturbation composed onto
    T_n^{-1} to make S_n (0 on the exact chain, whose mode and seed are None).
    A perturbed run is fixed by them: _reverse_step rebuilds each S_n from
    T_n, `mode` and a_n, drawing from one default_rng(seed) in the run's
    order n = N..1.  The maps, the measures and q0 are derived from that on
    first read, bit for bit what the run built; the run itself hands in the
    ones it built (an exact run always does).
    """

    traj: Trajectory = field(repr=False)
    residuals: list
    amplitudes: list
    mode: jko.PerturbMode | None
    seed: int | None
    exact: bool

    @cached_property
    def _map_fields(self) -> list:
        """The constructor arrays of S_1..S_N."""
        rng = np.random.default_rng(self.seed)
        out = [None] * len(self.amplitudes)
        for k in range(len(out), 0, -1):
            knots, _ = _reverse_step(self.traj.transports[k - 1], self.mode, rng)
            out[k - 1] = knots(self.amplitudes[k - 1])
        return out

    @cached_property
    def transports(self) -> list:
        return [type(t)(*s) for t, s in zip(self.traj.transports, self._map_fields, strict=True)]

    @cached_property
    def measures(self) -> list:
        measures = [self.traj.minimizer]
        for s in reversed(self.transports):
            measures.append(measures[-1].push(s))
        return measures[::-1]

    @cached_property
    def q0(self):
        """q~_0: pi pushed through S_N, ..., S_1 on arrays; only q~_0 is built as a measure."""
        arrays = _fields(self.traj.minimizer)
        for t, s in zip(reversed(self.traj.transports), reversed(self._map_fields)):
            arrays = type(t).push_fields(*s, *arrays)
        return type(self.traj.minimizer)(*arrays)

    def _handed_in(self, measures: list, transports: list) -> ReverseRun:
        """This run with the measures and maps its builder holds, cached as if derived."""
        self.__dict__.update(measures=measures, transports=transports, q0=measures[0])
        return self


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many atoms with positive weights summing to one."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if loc.shape[0] != w.size:
            raise ValueError("number of locations and weights differ")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        loc.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    def second_moment(self) -> float:
        return float(np.sum(self.weights * np.sum(self.locations ** 2, axis=1)))


# ---------------------------------------------------------------------------
# Step-count formula


def steps_needed(w2_p0_q: float, lam: float, gamma: float, eps: float) -> int:
    """N = ceil((8/(gamma lambda)) (log W2(p0,q) + log(lambda/eps))), clamped >= 1."""
    if w2_p0_q <= 0 or lam <= 0 or gamma <= 0 or eps <= 0:
        raise ValueError("all arguments must be positive")
    n = math.ceil(8.0 / (gamma * lam) * (math.log(w2_p0_q) + math.log(lam / eps)))
    return max(1, n)


# ---------------------------------------------------------------------------
# Forward process


def run_forward(
    p0,
    spec: fn.ObjectiveSpec,
    gamma: float,
    n_steps: int,
    eps_schedule=None,
    mode: jko.PerturbMode = jko.PerturbMode.MEAN_SHIFT,
    seed: int = 0,
) -> Trajectory:
    """Run N proximal steps from p0; schedule entries > 0 get calibrated xi.

    The schedule may be None (all exact), a scalar, or a length-N sequence.
    The seed only feeds perturbation placement (bump centers), so exact runs
    are seed-independent.
    """
    family = "grid" if isinstance(p0, qt.QuantileGrid) else "gaussian"
    if eps_schedule is None:
        schedule = [0.0] * n_steps
    elif np.isscalar(eps_schedule):
        schedule = [float(eps_schedule)] * n_steps
    else:
        schedule = [float(e) for e in eps_schedule]
        if len(schedule) != n_steps:
            raise ValueError("eps schedule length must equal the number of steps")

    rng = np.random.default_rng(seed)
    measures = [p0]
    transports, xi_norms, iters = [], [], []
    current = p0
    for n, eps in enumerate(schedule):
        try:
            result = jko.jko_step(current, spec, gamma)
            if eps > 0:
                kwargs = {}
                if mode is jko.PerturbMode.GRID_BUMP:
                    lo, hi = result.transport.x[0], result.transport.x[-1]
                    kwargs["bump_center"] = float(rng.uniform(lo + 0.2 * (hi - lo),
                                                              hi - 0.2 * (hi - lo)))
                result = jko.perturb_step(current, result, spec, gamma, eps, mode, **kwargs)
        except (jko.SolverError, jko.CalibrationError) as exc:
            raise type(exc)(f"forward step {n + 1}: {exc}") from exc
        measures.append(result.next_measure)
        transports.append(result.transport)
        xi_norms.append(result.xi_norm)
        iters.append(result.solver_iterations)
        current = result.next_measure
    return Trajectory(
        spec=spec,
        gamma=gamma,
        measures=measures,
        transports=transports,
        xi_norms=xi_norms,
        solver_iterations=iters,
        family=family,
    )


# ---------------------------------------------------------------------------
# Reverse processes


def _grid_inversion_residual(t_forward, s_x, s_y, x) -> float:
    """||T o S - Id|| under the grid measure of quantiles x, for S with knots (s_x, s_y)."""
    r = t_forward(qt.apply_map(s_x, s_y, x)) - x
    return float(np.sqrt(np.mean(r * r)))


def _gaussian_inversion_residual(t_forward, s_linear, s_offset, measure) -> float:
    """||T o S - Id|| under the Gaussian `measure`, for S: x -> s_linear x + s_offset."""
    lin = t_forward.linear
    return ga.affine_field_norm(lin @ s_linear - np.eye(measure.dim),
                                lin @ s_offset + t_forward.offset, measure.mean, measure.cov)


def _inversion_residual(t_forward, s_fields, measure) -> float:
    """||T o S - Id|| under `measure` (the input of S), for S given by its constructor arrays."""
    if isinstance(measure, qt.QuantileGrid):
        return _grid_inversion_residual(t_forward, *s_fields, measure.values)
    return _gaussian_inversion_residual(t_forward, *s_fields, measure)


def _reverse_step(t_fwd, mode: jko.PerturbMode, rng):
    """S_n of a perturbed reverse step, as a function of its amplitude, for T_n = `t_fwd`.

    Returns (knots, cap): knots(a) is the constructor arrays, in type(t_fwd)'s
    order, of the exact inverse T_n^{-1} perturbed with amplitude a as
    jko.perturbed_knots or jko.perturbed_affine do, and cap() calibration's
    amplitude cap.  Nothing is built as a map.  A grid step draws its bump
    centre from `rng` whatever the mode; a Gaussian step draws nothing.
    """
    if isinstance(t_fwd, qt.MonotoneMap1D):
        x, y = t_fwd.y, t_fwd.x
        center = float(np.mean(y))
        lo, hi = x[0], x[-1]
        bump_center = float(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)))
        bump = None
        if mode is jko.PerturbMode.GRID_BUMP:
            bump = jko.bump_profile(x, bump_center, 0.25 * (hi - lo))
        return (lambda a: (x, jko.perturbed_knots(y, mode, a, center, bump)),
                lambda: jko.amplitude_cap(x, y, bump))
    linear = t_fwd.inverse_linear
    offset = -linear @ t_fwd.offset
    center = np.full(offset.size, np.mean(offset))
    return (lambda a: jko.perturbed_affine(linear, offset, mode, a, center)), lambda: np.inf


def run_reverse_exact(traj: Trajectory) -> ReverseRun:
    """Pull the global minimizer back through the inverted forward transports.

    Each step is the forward map's `pull_back`, as in Trajectory.exact_q0.
    """
    n = traj.n_steps
    measures = [None] * n + [traj.minimizer]
    transports = [None] * n
    residuals = [0.0] * n
    for k in range(n, 0, -1):
        t = traj.transports[k - 1]
        transports[k - 1] = t.inverse()
        residuals[k - 1] = _inversion_residual(t, _fields(transports[k - 1]), measures[k])
        measures[k - 1] = type(measures[k])(*t.pull_back(*_fields(measures[k])))
    run = ReverseRun(traj, residuals, [0.0] * n, mode=None, seed=None, exact=True)
    return run._handed_in(measures, transports)


def run_reverse_perturbed(
    traj: Trajectory,
    eps_inv: float,
    mode: jko.PerturbMode = jko.PerturbMode.MEAN_SHIFT,
    seed: int = 0,
) -> ReverseRun:
    """Reverse chain with per-step inversion error calibrated to eps_inv.

    Calibration runs n = N down to 1: the measure q~_n entering S_n is
    already materialized, so the residual norm ||T_n o S_n - Id||_{q~_n} is
    well defined before S_n is fixed; at amplitude 0 (the exact inverse) it
    is 0, calibrate_amplitude's default.  An evaluation works on the arrays
    of _reverse_step: the grid residual on knot values, the Gaussian one on
    (T o S_a - Id, T(o_a)) for S_a = (L_a, o_a), so neither builds a map;
    the accepted amplitude builds one.  The run records each amplitude, from
    which ReverseRun rebuilds its maps.  eps_inv = 0 reproduces the exact
    reverse run.
    """
    if eps_inv < 0:
        raise ValueError("eps_inv must be nonnegative")
    if eps_inv == 0:
        return run_reverse_exact(traj)
    n = traj.n_steps
    rng = np.random.default_rng(seed)
    measures = [None] * n + [traj.minimizer]
    transports = [None] * n
    residuals = [0.0] * n
    amplitudes = [0.0] * n
    for k in range(n, 0, -1):
        t_fwd = traj.transports[k - 1]
        cur = measures[k]
        knots, cap = _reverse_step(t_fwd, mode, rng)
        try:
            a, r = jko.calibrate_amplitude(
                lambda a: _inversion_residual(t_fwd, knots(a), cur), eps_inv, cap())
        except jko.CalibrationError as exc:
            raise jko.CalibrationError(f"reverse step {k}: {exc}") from exc
        transports[k - 1] = type(t_fwd)(*knots(a))
        residuals[k - 1] = r
        amplitudes[k - 1] = a
        measures[k - 1] = cur.push(transports[k - 1])
    run = ReverseRun(traj, residuals, amplitudes, mode, seed, exact=False)
    return run._handed_in(measures, transports)


# ---------------------------------------------------------------------------
# OU smoothing of atomic measures


def _mixture_cdf(x, centers, weights, sd):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.sum(weights[None, :] * ndtr((x[:, None] - centers[None, :]) / sd), axis=1)


def _mixture_quantiles(u, centers, weights, sd, xtol=1e-12):
    """Invert the Gaussian-mixture CDF by bisection (vectorized over u)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    pad = sd * (np.max(np.abs(ndtri(np.clip(u, 1e-300, 1 - 1e-16)))) + 2.0) + 1.0
    lo = np.full(u.shape, np.min(centers) - pad)
    hi = np.full(u.shape, np.max(centers) + pad)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = _mixture_cdf(mid, centers, weights, sd) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) < xtol:
            break
    return 0.5 * (lo + hi)


def ou_smooth(p: AtomicMeasure, delta: float, m: int = 4096):
    """Marginal of the OU process at time delta started from the atoms.

    This is the mixture of N(e^{-delta} x_i, 1 - e^{-2 delta}).  Multi-atom
    measures must be 1-D and come back as a quantile grid (mixture CDF
    inverted by bisection); a single atom in any dimension comes back as the
    exact Gaussian.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    shrink = math.exp(-delta)
    var = 1.0 - math.exp(-2.0 * delta)
    if p.n_atoms == 1:
        x0 = p.locations[0]
        return ga.GaussianMeasure(shrink * x0, var * np.eye(p.dim))
    if p.dim != 1:
        raise ValueError("multi-atom OU smoothing is 1-D only")
    centers = shrink * p.locations[:, 0]
    vals = _mixture_quantiles(qt.midpoints(m), centers, p.weights, math.sqrt(var))
    return qt.QuantileGrid(vals)


# ---------------------------------------------------------------------------
# W2 against atomic measures (1-D)


def _atom_breaks(p: AtomicMeasure):
    order = np.argsort(p.locations[:, 0])
    locs = p.locations[order, 0]
    cum = np.cumsum(p.weights[order])
    cum[-1] = 1.0
    return locs, cum


def w2_grid_to_atoms(grid: qt.QuantileGrid, p: AtomicMeasure) -> float:
    """W2 between a grid measure and a 1-D atomic measure.

    Integrates (Q_grid(u) - Q_atom(u))^2 exactly over the piecewise-linear /
    piecewise-constant partition of (0, 1).
    """
    if p.dim != 1:
        raise ValueError("atomic W2 comparison is 1-D only")
    locs, cum = _atom_breaks(p)
    u_knots = grid.u
    breaks = np.unique(np.concatenate([[0.0], u_knots, cum[:-1], [1.0]]))
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a < 1e-300:
            continue
        umid = 0.5 * (a + b)
        atom = locs[np.searchsorted(cum, umid)]
        # local linear form of the grid quantile on (a, b)
        j = np.clip(np.searchsorted(u_knots, umid) - 1, 0, grid.m - 2)
        slope = (grid.values[j + 1] - grid.values[j]) / (u_knots[j + 1] - u_knots[j])
        q_a = grid.values[j] + slope * (a - u_knots[j]) - atom
        q_b = grid.values[j] + slope * (b - u_knots[j]) - atom
        total += (b - a) * (q_a * q_a + q_a * q_b + q_b * q_b) / 3.0
    return float(np.sqrt(max(total, 0.0)))


def _gauss_partial_sq(mu: float, sd: float, a: float, b: float, c: float) -> float:
    """int_a^b (x - c)^2 N(x; mu, sd^2) dx, closed form."""
    ta, tb = (a - mu) / sd, (b - mu) / sd
    phi = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    d_cdf = ndtr(tb) - ndtr(ta)
    d_phi = phi(ta) - phi(tb)
    int_t2 = d_cdf + ta * phi(ta) - tb * phi(tb)
    mc = mu - c
    return float(mc * mc * d_cdf + 2 * mc * sd * d_phi + sd * sd * int_t2)


def w2_sq_smoothed_to_atoms(p: AtomicMeasure, delta: float) -> float:
    """Exact W2^2 between the OU-smoothed measure and its 1-D atomic source.

    Partitions the real line at the mixture quantiles of the cumulative atom
    weights; within each cell the atomic quantile is constant and the
    squared displacement integrates in closed form against each mixture
    component (Gaussian partial moments).
    """
    if p.dim != 1:
        raise ValueError("exact smoothing distance is 1-D only")
    shrink = math.exp(-delta)
    sd = math.sqrt(1.0 - math.exp(-2.0 * delta))
    centers = shrink * p.locations[:, 0]
    locs, cum = _atom_breaks(p)
    cuts = _mixture_quantiles(cum[:-1], centers, p.weights, sd) if len(locs) > 1 else np.array([])
    edges = np.concatenate([[-np.inf], cuts, [np.inf]])
    big = np.max(np.abs(centers)) + 40 * sd + 40  # effective support cutoff
    edges = np.clip(edges, -big, big)
    total = 0.0
    for i, atom in enumerate(locs):
        a, b = edges[i], edges[i + 1]
        for mu_j, w_j in zip(centers, p.weights):
            total += w_j * _gauss_partial_sq(mu_j, sd, a, b, atom)
    return float(max(total, 0.0))


# ---------------------------------------------------------------------------
# Lipschitz / K estimation


def estimate_K(traj: Trajectory) -> float:
    """K = max_n log Lip(T_n^{-1}) / gamma, floored at zero."""
    if not traj.transports:
        raise ValueError("trajectory has no transports")
    worst = max(t.inverse_lipschitz() for t in traj.transports)
    return max(0.0, math.log(worst) / traj.gamma)


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(x) -> str:
    return "%.17g" % x


def forward_csv(traj: Trajectory) -> str:
    """Rows n = 0..N; step columns are empty on the n = 0 row."""
    buf = io.StringIO()
    buf.write("n,w2_to_q,G_value,xi_norm,lipschitz_Tinv,solver_iterations\n")
    for n, (meas, w) in enumerate(zip(traj.measures, traj.w2_to_minimizer)):
        g = fn.evaluate(traj.spec, meas)
        if n == 0:
            buf.write("0,%s,%s,,,\n" % (_fmt(w), _fmt(g)))
        else:
            lip = traj.transports[n - 1].inverse_lipschitz()
            buf.write("%d,%s,%s,%s,%s,%d\n" % (
                n, _fmt(w), _fmt(g), _fmt(traj.xi_norms[n - 1]), _fmt(lip),
                traj.solver_iterations[n - 1]))
    return buf.getvalue()


def reverse_csv(run: ReverseRun, exact_run: ReverseRun | None = None) -> str:
    """Rows n = N..0 with the per-step residual and distance to the exact chain."""
    buf = io.StringIO()
    buf.write("n,residual,w2_qtilde_to_q_exact\n")
    n_steps = len(run.transports)
    for n in range(n_steps, -1, -1):
        resid = _fmt(run.residuals[n - 1]) if n >= 1 else ""
        if exact_run is not None:
            dist = _fmt(run.measures[n].w2(exact_run.measures[n]))
        else:
            dist = _fmt(0.0)
        buf.write("%d,%s,%s\n" % (n, resid, dist))
    return buf.getvalue()
