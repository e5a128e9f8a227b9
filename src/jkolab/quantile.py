"""Exact 1-D measure arithmetic on quantile grids.

A 1-D probability measure is stored as its quantile function sampled at the
midpoints u_k = (k - 1/2)/M of a uniform grid on (0, 1).  In this coordinate
system W2 is a plain Euclidean distance, optimal transport is quantile
matching, and entropy/KL/score reduce to finite differences of the quantile
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantileGrid",
    "MonotoneMap1D",
    "from_gaussian",
    "ot_map",
    "apply_map",
    "pushforward",
    "amplitude_cap",
    "score",
    "gap_score",
    "xi_field",
    "second_moment",
    "invert_map",
]

MIN_GRID_SIZE = 8
_MIN_BUMP_SLOPE = 1e-3


def midpoints(m: int) -> np.ndarray:
    """Midpoint u-grid (k - 1/2)/M, k = 1..M."""
    return (np.arange(m) + 0.5) / m


@dataclass(frozen=True)
class QuantileGrid:
    """Quantile values Q_k at the midpoints u_k = (k - 1/2)/M.

    Values must be finite and strictly increasing; M >= 8 (below that,
    finite-difference scores are meaningless).
    """

    values: np.ndarray
    family = "grid"
    evi_tol = 1e-3  # certify's tolerance of the EVI-derived checks
    dpi_tol = 1e-4  # and of the data-processing identity

    def __post_init__(self):
        object.__setattr__(self, "values", _validated(np.asarray(self.values, dtype=float), 1))

    @classmethod
    def stack(cls, values) -> list[QuantileGrid]:
        """The grids of the rows of `values` (n >= 1, M), after one validation of the stack."""
        return [_unvalidated(cls, values=row)
                for row in _validated(np.asarray(values, dtype=float), 2)]

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    def w2(self, other: QuantileGrid) -> float:
        """W2 distance: the L2 distance of quantile vectors, sqrt((1/M) sum (Qp-Qq)^2)."""
        _check_same_m(self, other)
        return self.w2_pairs([self], [other])[0]

    def w2_from(self, measures) -> list[float]:
        """[p.w2(self) for p in measures] in one stacked evaluation (w2_pairs)."""
        return self.w2_pairs(measures, [self] * len(measures))

    @staticmethod
    def w2_pairs(ps, qs) -> list[float]:
        """[p.w2(q) for p, q in zip(ps, qs)] in one stacked evaluation, each entry bit for bit
        its own pair's: sqrt(mean(d * d)) over each row of the differences d, made and squared
        in place (a second temporary the size of the stack costs more than the arithmetic)."""
        d = np.array([p.values for p in ps])
        for row, q in zip(d, qs, strict=True):
            row -= q.values
        d *= d
        return np.sqrt(np.mean(d, axis=-1)).tolist()

    def kl(self, other: QuantileGrid) -> float:
        """KL(self || other) between two grid measures.

        Evaluated in self's quantile coordinates: KL = (1/M) sum_k [log p(Q_{p,k})
        - log q(Q_{p,k})], with knot densities from interval widths and q's
        density read off at p's quantile locations.  Clamped at zero.
        """
        # interpolate log-density of q at p's quantile positions; outside q's
        # support, extend the boundary interval density
        log_q = np.interp(self.values, other.values, np.log(_interval_density(other)))
        val = float(np.mean(np.log(_interval_density(self)) - log_q))
        return max(val, 0.0)

    def tv(self, other: QuantileGrid) -> float:
        """Total variation distance by density reconstruction on a shared dense grid.

        Both densities are rebuilt from knot values (reciprocal of dQ/du) on the
        union of supports extended by 6 standard deviations, 8*M points, and
        (1/2) int |p - q| is taken by the trapezoid rule.
        """
        _check_same_m(self, other)
        sd_p = np.sqrt(max(second_moment(self) - self.mean ** 2, 1e-300))
        sd_q = np.sqrt(max(second_moment(other) - other.mean ** 2, 1e-300))
        lo = min(self.values[0], other.values[0]) - 6 * max(sd_p, sd_q)
        hi = max(self.values[-1], other.values[-1]) + 6 * max(sd_p, sd_q)
        xs = np.linspace(lo, hi, 8 * self.m)

        def dens_on(xs, g: QuantileGrid):
            d = 1.0 / _dq_du_centered(g)
            out = np.interp(xs, g.values, d)
            out[(xs < g.values[0]) | (xs > g.values[-1])] = 0.0
            return out

        diff = np.abs(dens_on(xs, self) - dens_on(xs, other))
        return float(min(0.5 * np.trapezoid(diff, xs), 1.0))

    # push calls the module global pushforward, so a tracer that patches the module
    # attribute sees it.
    def push(self, t: MonotoneMap1D) -> QuantileGrid:
        return pushforward(self, t)

    def image(self, t: MonotoneMap1D) -> QuantileGrid:
        """t#self for a transport t that starts at this grid: the grid of t's knot values."""
        return QuantileGrid(t.y)

    def image_mean(self, t: MonotoneMap1D) -> float:
        return float(np.mean(t.y))  # image(t)'s, building no measure

    def minimizer(self, spec) -> QuantileGrid:
        """The global minimizer of G, N(mu*, alpha / lambda), at this grid's M quantile points."""
        pot = spec.potential
        if pot.dim != 1:
            raise ValueError("grid family requires a 1-D objective")
        sd = math.sqrt(spec.alpha * (1.0 / float(pot.lambda_mat[0, 0])))  # GaussianMeasure's bits
        return from_gaussian(float(pot.center[0]), sd, self.m)

    @staticmethod
    def objectives(spec, measures) -> list[float]:
        """alpha * H + E[V] + log Z of each grid (functionals.objectives), one pass per grid
        (stacked grids evaluate no faster).

        H = -(1/M) sum log dQ/du by centered differences, and E[V] = (1/M) sum
        (1/2) lambda (Q_k - c)^2.
        """
        pot = spec.potential
        if pot.dim != 1:
            raise ValueError("grid measures require a 1-D objective")
        lam, c = pot.lambda_mat[0, 0], pot.center[0]
        out = []
        for g in measures:
            dx = g.values - c
            h = -np.add.reduce(np.log(_dq_du_centered(g))) / g.m
            mean_v = np.add.reduce(0.5 * (dx * lam * dx)) / g.m
            out.append(float(spec.alpha * h + mean_v + pot.log_z))
        return out

    def xi(self, x: np.ndarray, y: np.ndarray, spec, gamma: float) -> float:
        """jko.measure_xi of the transport with knots (x, y), which must start at this grid.

        Its knot values y are the next grid's quantiles, validated as a QuantileGrid.
        """
        if x is not self.values and not np.array_equal(x, self.values):
            raise ValueError("the grid transport must start at p_n's quantiles")
        q = QuantileGrid(y).values
        return xi_field(q, q[1:] - q[:-1], self.values, spec, gamma)[1]

    @property
    def step_solver(self):
        """jko.jko_step_grid, the family's exact proximal step."""
        from . import jko  # jko imports this module

        return jko.jko_step_grid


def _validated(vals: np.ndarray, ndim: int) -> np.ndarray:
    """The frozen values of a grid (ndim 1) or a stack of grids (ndim 2) that
    QuantileGrid's rules accept; ValueError otherwise."""
    if vals.ndim != ndim or vals.shape[-1] < MIN_GRID_SIZE:
        got = vals.shape[-1] if vals.ndim == ndim == 2 else vals.size
        raise ValueError(f"need at least {MIN_GRID_SIZE} quantile values, got {got}")
    # strictly increasing with finite ends is finite throughout; NaN compares false
    first, last = vals.T[0], vals.T[-1]  # a grid's end values, a stack's end columns
    if not ((vals[..., 1:] > vals[..., :-1]).all()
            and (math.isfinite(first) and math.isfinite(last) if ndim == 1
                 else np.isfinite(first).all() and np.isfinite(last).all())):
        if not np.isfinite(vals).all():
            raise ValueError("quantile values must be finite")
        raise ValueError("quantile values must be strictly increasing")
    vals.setflags(write=False)
    return vals


def _unvalidated(cls, **fields):
    """An instance of the frozen dataclass `cls` with the given, already validated, fields."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class MonotoneMap1D:
    """Strictly increasing piecewise-linear map with linear extrapolation.

    Knots (x_k, y_k) must both be strictly increasing so the map is
    invertible; extrapolation outside the knot range uses the boundary
    slopes, which keeps the map globally Lipschitz.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != y.shape or x.ndim != 1 or x.size < 2:
            raise ValueError("knots must be two equal-length 1-D arrays with >= 2 points")
        dx = x[1:] - x[:-1]
        dy = y[1:] - y[:-1]
        if not (dx.min() > 0 and dy.min() > 0):
            raise ValueError("knot coordinates must be strictly increasing")
        _check_slopes(dx, dy)
        x.setflags(write=False)
        y.setflags(write=False)

    def __call__(self, t) -> np.ndarray:
        return apply_map(self.x, self.y, t)

    @staticmethod
    def inverse_lipschitz_of(maps) -> list[float]:
        """Lip(T^{-1}) of each map T, its largest inverse slope, without building T^{-1}."""
        return [float(np.max((t.x[1:] - t.x[:-1]) / (t.y[1:] - t.y[:-1]))) for t in maps]

    @staticmethod
    def inverse_fields_of(maps) -> list[tuple]:
        """The knots of each map's T^{-1}, building no map."""
        return [(t.y, t.x) for t in maps]

    def inversion_residual(self, s: tuple, p: QuantileGrid) -> float:
        """||T o S - Id|| under the grid p entering S, for S given by its knots s."""
        r = self(apply_map(*s, p.values)) - p.values
        return math.sqrt(np.add.reduce(r * r) / r.size)

    @staticmethod
    def perturbed_fields(x: np.ndarray, y: np.ndarray, mode, center, bump):
        """(fields, cap) of MonotoneMap1D(x, y) under a perturbation of `mode` (a jko.PerturbMode).

        fields(a) is the knots with amplitude a: MEAN_SHIFT adds a to y,
        DILATION scales y about `center` by 1 + a, and GRID_BUMP adds a times
        `bump`, the bump_profile at x.  cap() is calibration's amplitude cap:
        amplitude_cap of the bump, and infinite for a shift or a dilation by
        1 + a >= 1, which never break monotonicity.
        """
        if mode.value == "mean_shift":
            return (lambda a: (x, y + a)), lambda: np.inf
        if mode.value == "dilation":
            return (lambda a: (x, (1 + a) * (y - center) + center)), lambda: np.inf
        return (lambda a: (x, y + a * bump)), lambda: amplitude_cap(x, y, bump)

    @staticmethod
    def push_fields(x: np.ndarray, y: np.ndarray, values: np.ndarray) -> tuple:
        """The quantile values of MonotoneMap1D(x, y)#p for p's `values`, building no map."""
        return (apply_map(x, y, values),)

    @staticmethod
    def joined(first: tuple, then: tuple) -> tuple | None:
        """then o first, (first's x, then's y), if then's x is first's y or equal, else None."""
        (x, y), (x_then, y_then) = first, then
        return (x, y_then) if x_then is y or np.array_equal(x_then, y) else None


def _check_slopes(dx: np.ndarray, dy: np.ndarray):
    """ValueError unless every slope dy / dx of positive knot steps is finite."""
    if not math.isfinite((dy / dx).max()):
        raise ValueError("segment slopes must be finite")


def apply_map(x: np.ndarray, y: np.ndarray, t) -> np.ndarray:
    """MonotoneMap1D(x, y)(t) without building or validating the map."""
    t = np.asarray(t, dtype=float)
    out = np.asarray(np.interp(t, x, y))
    lo = t < x[0]
    hi = t > x[-1]
    if lo.any():
        s0 = (y[1] - y[0]) / (x[1] - x[0])
        out[lo] = y[0] + s0 * (t[lo] - x[0])
    if hi.any():
        s1 = (y[-1] - y[-2]) / (x[-1] - x[-2])
        out[hi] = y[-1] + s1 * (t[hi] - x[-1])
    return out


def from_gaussian(mean: float, sd: float, m: int) -> QuantileGrid:
    """Quantile grid of N(mean, sd^2) at the midpoints (QuantileGrid rejects sd <= 0, M < 8)."""
    from scipy.special import ndtri  # loaded here, so only grid measures pay for scipy.special

    return QuantileGrid(mean + sd * ndtri(midpoints(m)))


def _check_same_m(p: QuantileGrid, q: QuantileGrid):
    if p.m != q.m:
        raise ValueError(f"grid sizes differ: {p.m} vs {q.m}")


def ot_map(p: QuantileGrid, q: QuantileGrid) -> MonotoneMap1D:
    """The OT map from p to q: quantile matching, Q_{p,k} -> Q_{q,k}.

    Both grids are validated, so their knots are frozen and strictly
    increasing: only the map's slopes are checked.
    """
    _check_same_m(p, q)
    x, y = p.values, q.values
    _check_slopes(x[1:] - x[:-1], y[1:] - y[:-1])
    return _unvalidated(MonotoneMap1D, x=x, y=y)


def pushforward(p: QuantileGrid, t: MonotoneMap1D) -> QuantileGrid:
    """T#p: apply T to the quantile values.  Fails if T is not increasing there."""
    vals = t(p.values)
    if not (vals[1:] > vals[:-1]).all():
        raise ValueError("map is not strictly increasing over the support of p")
    return QuantileGrid(vals)


def amplitude_cap(x: np.ndarray, y: np.ndarray, bump: np.ndarray) -> float:
    """Largest amplitude a keeping every slope of the knots (x, y + a bump) >= 1e-3.

    `bump` is the bump_profile at x.  Its slope is never a divisor, so its
    vanishing tails cannot overflow.
    """
    dx = x[1:] - x[:-1]
    fall = (bump[:-1] - bump[1:]) / dx
    room = (y[1:] - y[:-1]) / dx - _MIN_BUMP_SLOPE
    neg = fall > 0
    if not neg.any():
        return np.inf
    if (room[neg] <= 0).any():
        return 0.0
    return 0.95 / float((fall[neg] / room[neg]).max())


def _dq_du_centered(p: QuantileGrid) -> np.ndarray:
    """dQ/du by centered differences, one-sided at the two endpoints."""
    q = p.values
    m = p.m
    d = np.empty(m)
    d[1:-1] = (q[2:] - q[:-2]) * (m / 2.0)
    d[0] = (q[1] - q[0]) * m
    d[-1] = (q[-1] - q[-2]) * m
    return d


def _interval_density(p: QuantileGrid) -> np.ndarray:
    """Density at each knot: geometric mean of the two adjacent interval densities.

    The interval density on [Q_k, Q_{k+1}] is (1/M)/(Q_{k+1}-Q_k); the
    geometric mean transforms exactly by the local slope under a shared
    piecewise-linear pushforward, which keeps grid-grid KL nearly invariant
    under data processing.
    """
    q = p.values
    m = p.m
    gaps = np.diff(q)
    dens = np.empty(m)
    dens[1:-1] = (1.0 / m) / np.sqrt(gaps[1:] * gaps[:-1])
    dens[0] = (1.0 / m) / gaps[0]
    dens[-1] = (1.0 / m) / gaps[-1]
    return dens


def score(p: QuantileGrid) -> np.ndarray:
    """Score (log rho)' at the grid points x = Q_k.

    Uses (log rho)'(Q(u)) = -Q''(u)/Q'(u)^2 discretized with the centered
    second difference over the product of the two one-sided first
    differences, i.e. 1/(Q_{k+1}-Q_k) - 1/(Q_k-Q_{k-1}); one-sided at the
    boundary points.  This discretization is exactly the entropy gradient
    used by the grid JKO solver, so first-order residuals measured with it
    vanish at the solver's optimum.
    """
    return gap_score(np.diff(p.values))


def xi_field(q: np.ndarray, gaps: np.ndarray, q_n: np.ndarray, spec,
             gamma: float) -> tuple[np.ndarray, float]:
    """jko.measure_xi's field at the quantiles q (gaps = diff(q)) of a step from q_n, and its norm.

    lambda (q - c) is V'(q) bit for bit.
    """
    pot = spec.potential
    field = (
        pot.lambda_mat[0, 0] * (q - pot.center[0])
        + spec.alpha * gap_score(gaps)
        + (q - q_n) / gamma
    )
    return field, math.sqrt(np.add.reduce(field * field) / field.size)


def gap_score(gaps: np.ndarray) -> np.ndarray:
    """The score of `score` from the M - 1 gaps Q_{k+1} - Q_k of the grid."""
    inv = 1.0 / gaps
    s = np.empty(gaps.size + 1)
    s[1:-1] = inv[1:] - inv[:-1]
    s[0] = inv[0]
    s[-1] = -inv[-1]
    return s


def second_moment(p: QuantileGrid) -> float:
    """M2 = (1/M) sum Q_k^2."""
    return float(np.mean(p.values ** 2))


def invert_map(t: MonotoneMap1D) -> MonotoneMap1D:
    """Inverse map by swapping knot roles."""
    return MonotoneMap1D(t.y, t.x)
