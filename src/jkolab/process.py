"""Forward and reverse process orchestration.

Runs the N-step forward chain of proximal steps (with optional calibrated
first-order error per step) and the computed reverse chain with calibrated
inversion error.  One loop pushes measures through maps on arrays: pi back
through T_N^{-1}, ..., T_1^{-1} (the exact reverse chain, derived from the
trajectory: Trajectory.exact_q0, run_reverse_exact) or the S_n a ReverseRun
rebuilds from its amplitudes, and p_0 through a stored Gaussian chain.  Maps that join
knot to knot are one map, so the exact grid chain's q_n is pi pushed once through the
quantile map p_N -> p_n; perturbed and Gaussian maps never join.  Also OU
smoothing of atomic measures, and the bookkeeping the certifier consumes:
Lipschitz/K estimates, step-count formula, CSV output.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import functionals as fn
from . import jko
from . import quantile as qt
from .jko import _fields

__all__ = [
    "Trajectory",
    "ReverseRun",
    "AtomicMeasure",
    "steps_threshold",
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
    """Forward-process record: p_0..p_N, transports T_1..T_N, per-step ||xi||, and the
    global minimizer pi of G in the run's family (on its grid) that the run was
    measured against."""

    spec: fn.ObjectiveSpec
    gamma: float
    measures: list
    transports: list
    xi_norms: list
    solver_iterations: list
    minimizer: object = field(repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.transports)

    @cached_property
    def w2_to_minimizer(self) -> list:
        """W2(p_n, pi) for n = 0..N, computed once, in one chain-wide evaluation
        (`w2_from`), for every check that reads it."""
        return self.minimizer.w2_from(self.measures)

    @cached_property
    def objective_values(self) -> list:
        """G(p_n) for n = 0..N in one chain-wide evaluation (`fn.objectives`), for every
        check and CSV that reads them."""
        return fn.objectives(self.spec, self.measures)

    @cached_property
    def inverse_lipschitz(self) -> list:
        """Lip(T_n^{-1}) for n = 1..N in one chain-wide evaluation (the map type's
        `inverse_lipschitz_of`)."""
        if not self.transports:
            return []
        return type(self.transports[0]).inverse_lipschitz_of(self.transports)

    @cached_property
    def inverse_fields(self) -> list:
        """The constructor arrays of T_1^{-1}..T_N^{-1}, building no map, in one chain-wide
        evaluation (the map type's `inverse_fields_of`) for every reverse chain."""
        if not self.transports:
            return []
        return type(self.transports[0]).inverse_fields_of(self.transports)

    @cached_property
    def exact_q0(self):
        """q_0 of the exact reverse chain; only q_0 is built as a measure.

        Bit for bit run_reverse_exact(self)[0].
        """
        return type(self.minimizer)(*_pushed_back(self, self.inverse_fields, every=False)[0])


@dataclass(frozen=True)
class ReverseRun:
    """A computed reverse run of `traj`: its manifest, from which q~_0 is derived.

    residuals[n-1] is ||T_n o S_n - Id|| under the measure q~_n entering
    S_n, and amplitudes[n-1] the amplitude a_n of the perturbation composed
    onto T_n^{-1} to make S_n.  The run is fixed by them: _reverse_perturbation
    rebuilds each S_n from T_n, `mode` and a_n, drawing from one
    default_rng(seed) in the run's order n = N..1.  q0 is derived from
    that on first read, bit for bit the q~_0 the run built.
    """

    traj: Trajectory = field(repr=False)
    residuals: list
    amplitudes: list
    mode: jko.PerturbMode
    seed: int

    def _map_fields(self) -> list:
        """The constructor arrays of S_1..S_N."""
        rng = np.random.default_rng(self.seed)
        out = [None] * len(self.amplitudes)
        for k in range(len(out), 0, -1):
            perturbed, _ = _reverse_perturbation(self.traj, k, self.mode, rng)
            out[k - 1] = perturbed(self.amplitudes[k - 1])
        return out

    @cached_property
    def q0(self):
        """q~_0: pi pushed through S_N, ..., S_1 on arrays; only q~_0 is built as a measure."""
        return type(self.traj.minimizer)(*_pushed_back(self.traj, self._map_fields())[0])


def _pushed(start: list, transports, maps, every: bool = True) -> list:
    """The constructor arrays [start, S_1#start, ..., S_N#start] for S_k given by maps[k-1],
    arrays of transports[k-1]'s type (its push_fields); builds no map and no measure.  A
    maximal run of maps that join (the type's `joined`) is one map; every=False pushes to
    the ends of runs only."""
    runs = []  # (map type, the arrays of S_j, S_{j+1} o S_j, ..., S_k o ... o S_j)
    for t, s in zip(transports, maps, strict=True):
        joined = runs and type(t).joined(runs[-1][1][-1], s)
        if joined:
            runs[-1][1].append(joined)
        else:
            runs.append((type(t), [s]))
    arrays = [start]
    for kind, composed in runs:
        base = arrays[-1]
        arrays += [kind.push_fields(*c, *base) for c in (composed if every else composed[-1:])]
    return arrays


def _pushed_back(traj: Trajectory, maps: list, every: bool = True) -> list:
    """The constructor arrays of q_0..q_N, q_N = pi pushed back through S_N, ..., S_1
    (`_pushed`; every=False: q_0, then the other ends of runs)."""
    return _pushed(_fields(traj.minimizer), traj.transports[::-1], maps[::-1], every)[::-1]


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


def steps_threshold(w2_p0_q: float, lam: float, gamma: float, eps: float) -> float:
    """(8/(gamma lambda)) (log W2(p0,q) + log(lambda/eps)), steps_needed before rounding;
    -inf when p0 is q (W2 = 0)."""
    if w2_p0_q == 0:
        return -math.inf
    return 8.0 / (gamma * lam) * (math.log(w2_p0_q) + math.log(lam / eps))


def steps_needed(w2_p0_q: float, lam: float, gamma: float, eps: float) -> int:
    """N = ceil(steps_threshold), clamped >= 1."""
    if w2_p0_q < 0 or lam <= 0 or gamma <= 0 or eps <= 0:
        raise ValueError("W2 must be nonnegative and lambda, gamma and eps positive")
    return math.ceil(max(1.0, steps_threshold(w2_p0_q, lam, gamma, eps)))


# ---------------------------------------------------------------------------
# Forward process


def run_forward(p0, spec: fn.ObjectiveSpec, gamma: float, schedule: list,
                mode: jko.PerturbMode, seed: int, pi) -> Trajectory:
    """Run N = len(schedule) proximal steps from p0; a step whose eps in `schedule` is
    > 0 gets calibrated xi.  `pi` is the trajectory's minimizer.

    The seed only feeds perturbation placement (bump centers), so exact runs
    are seed-independent.  p0's family chooses the step solver.  A
    calibration's first probe is the previous perturbed step's amplitude.
    """
    rng = np.random.default_rng(seed)
    step = p0.step_solver
    measures, results = [p0], []
    first = jko._FIRST_PROBE
    for n, eps in enumerate(schedule):
        try:
            result = step(measures[-1], spec, gamma)
            if eps > 0:
                result = jko.perturb_step(result, spec, gamma, eps, mode, rng, first=first)
                first = result.amplitude
        except (jko.SolverError, jko.CalibrationError) as exc:
            raise type(exc)(f"forward step {n + 1}: {exc}") from exc
        measures.append(result.next_measure)
        results.append(result)
    return Trajectory(spec, gamma, measures, [r.transport for r in results],
                      [r.xi_norm for r in results], [r.solver_iterations for r in results],
                      pi)


# ---------------------------------------------------------------------------
# Reverse processes


def _reverse_perturbation(traj: Trajectory, n: int, mode: jko.PerturbMode, rng):
    """(fields, cap) of S_n = T_n^{-1}, T_n = traj.transports[n - 1], under the reverse policy:
    T_n's type's `perturbed_fields`.

    The exact inverse stays arrays (`traj.inverse_fields`).  A dilation is about
    the mean of its last array: a grid map's knot values, or an affine map's
    offset, averaged over the coordinates.  A grid bump is centred at a draw
    from `rng` (jko._bump_center of the knots) and spans a quarter of the knot
    range; nothing else draws.
    """
    s = traj.inverse_fields[n - 1]
    center = np.mean(s[-1]) if mode is jko.PerturbMode.DILATION else None
    bump = None
    if mode is jko.PerturbMode.GRID_BUMP:
        x = s[0]
        bump = jko.bump_profile(x, jko._bump_center(x, rng), 0.25 * (x[-1] - x[0]))
    return type(traj.transports[n - 1]).perturbed_fields(*s, mode, center, bump)


def run_reverse_exact(traj: Trajectory) -> list:
    """The exact reverse chain q_0..q_N as measures: pi = q_N pushed through
    T_N^{-1}, ..., T_1^{-1} (Trajectory.exact_q0's arrays, validated as one stack)."""
    *pulled, _ = type(traj.minimizer).stack(
        *map(np.array, zip(*_pushed_back(traj, traj.inverse_fields))))
    return pulled + [traj.minimizer]


def run_reverse_perturbed(
    traj: Trajectory,
    eps_inv: float,
    mode: jko.PerturbMode = jko.PerturbMode.MEAN_SHIFT,
    seed: int = 0,
) -> tuple[ReverseRun, list]:
    """Reverse chain with per-step inversion error calibrated to eps_inv.

    Calibration runs n = N down to 1: the measure q~_n entering S_n is
    already materialized, so the residual norm ||T_n o S_n - Id||_{q~_n} is
    well defined before S_n is fixed; at amplitude 0 (the exact inverse) it
    is 0, calibrate_amplitude's default; the first probe is a_{n+1}.  An
    evaluation hands T_n's `inversion_residual` the arrays of
    _reverse_perturbation (the grid residual works on knot values, the
    Gaussian one on (T o S_a - Id, T(o_a)) for S_a = (L_a, o_a)), and the accepted
    amplitude's arrays push q~_n to q~_{n-1} (`push_fields`): no map is built.
    Returns the record, which keeps each amplitude (ReverseRun derives q~_0
    from them), and the chain q~_0..q~_N the run built.  The exact chain
    (eps_inv = 0) is not a run: it is run_reverse_exact(traj).
    """
    if not eps_inv > 0:
        raise ValueError("eps_inv must be positive: the exact reverse chain is "
                         "derived from the trajectory (run_reverse_exact)")
    n = traj.n_steps
    rng = np.random.default_rng(seed)
    measures = [None] * n + [traj.minimizer]
    residuals = [0.0] * n
    amplitudes = [0.0] * n
    a = jko._FIRST_PROBE  # step N's first probe; step k's is a_{k+1}
    for k in range(n, 0, -1):
        t_fwd = traj.transports[k - 1]
        cur = measures[k]
        perturbed, cap = _reverse_perturbation(traj, k, mode, rng)
        try:
            a, r = jko.calibrate_amplitude(
                lambda b: t_fwd.inversion_residual(perturbed(b), cur), eps_inv, cap(), first=a)
        except jko.CalibrationError as exc:
            raise jko.CalibrationError(f"reverse step {k}: {exc}") from exc
        residuals[k - 1] = r
        amplitudes[k - 1] = a
        measures[k - 1] = type(cur)(*type(t_fwd).push_fields(*perturbed(a), *_fields(cur)))
    return ReverseRun(traj, residuals, amplitudes, mode, seed), measures


# ---------------------------------------------------------------------------
# OU smoothing of atomic measures

_MIXTURE_XTOL = 1e-12


def _mixture_cdf(x, centers, weights, sd):
    from scipy.special import ndtr  # loaded here, so only atomic configs pay for scipy.special

    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.sum(weights[None, :] * ndtr((x[:, None] - centers[None, :]) / sd), axis=1)


def _mixture_quantiles(u, centers, weights, sd):
    """Invert the Gaussian-mixture CDF by bisection (vectorized over u)."""
    from scipy.special import ndtri  # loaded here, so only atomic configs pay for scipy.special

    u = np.atleast_1d(np.asarray(u, dtype=float))
    pad = sd * (np.max(np.abs(ndtri(np.clip(u, 1e-300, 1 - 1e-16)))) + 2.0) + 1.0
    lo = np.full(u.shape, np.min(centers) - pad)
    hi = np.full(u.shape, np.max(centers) + pad)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = _mixture_cdf(mid, centers, weights, sd) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) < _MIXTURE_XTOL:
            break
    return 0.5 * (lo + hi)


def ou_smooth(p: AtomicMeasure, delta: float, m: int = 4096) -> qt.QuantileGrid:
    """Marginal of the OU process at time delta started from 1-D atoms, as an M-point grid.

    This is the mixture of N(e^{-delta} x_i, 1 - e^{-2 delta}): for a single
    atom the exact Gaussian at the grid's quantile points (qt.from_gaussian),
    else the mixture CDF inverted by bisection.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if p.dim != 1:
        raise ValueError("OU smoothing is 1-D only")
    shrink = math.exp(-delta)
    var = 1.0 - math.exp(-2.0 * delta)
    if p.n_atoms == 1:
        return qt.from_gaussian(shrink * float(p.locations[0, 0]), math.sqrt(var), m)
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
    u_knots = qt.midpoints(grid.m)
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
    from scipy.special import ndtr  # loaded here, so only atomic configs pay for scipy.special

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
    worst = max(traj.inverse_lipschitz)
    return max(0.0, math.log(worst) / traj.gamma)


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(x) -> str:
    return "%.17g" % x


def forward_csv(traj: Trajectory) -> str:
    """Rows n = 0..N; step columns are empty on the n = 0 row."""
    buf = io.StringIO()
    buf.write("n,w2_to_q,G_value,xi_norm,lipschitz_Tinv,solver_iterations\n")
    for n, (w, g) in enumerate(zip(traj.w2_to_minimizer, traj.objective_values)):
        if n == 0:
            buf.write("0,%s,%s,,,\n" % (_fmt(w), _fmt(g)))
        else:
            buf.write("%d,%s,%s,%s,%s,%d\n" % (
                n, _fmt(w), _fmt(g), _fmt(traj.xi_norms[n - 1]),
                _fmt(traj.inverse_lipschitz[n - 1]), traj.solver_iterations[n - 1]))
    return buf.getvalue()


def reverse_csv(run: ReverseRun, measures: list) -> str:
    """Rows n = N..0 with the per-step residual and the distance W2(q~_n, q_n)
    from the run's chain `measures` (q~_0..q~_N, as run_reverse_perturbed
    returns it) to the exact chain, run_reverse_exact(run.traj)."""
    buf = io.StringIO()
    buf.write("n,residual,w2_qtilde_to_q_exact\n")
    n_steps = len(run.residuals)
    dists = type(run.traj.minimizer).w2_pairs(measures, run_reverse_exact(run.traj))
    for n in range(n_steps, -1, -1):
        resid = _fmt(run.residuals[n - 1]) if n >= 1 else ""
        buf.write("%d,%s,%s\n" % (n, resid, _fmt(dists[n])))
    return buf.getvalue()
