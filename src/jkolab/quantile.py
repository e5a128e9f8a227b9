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
from scipy.special import ndtri

__all__ = [
    "QuantileGrid",
    "MonotoneMap1D",
    "from_gaussian",
    "w2",
    "ot_map",
    "apply_map",
    "pushforward",
    "entropy",
    "grid_kl",
    "tv",
    "score",
    "gap_score",
    "second_moment",
    "invert_map",
]

MIN_GRID_SIZE = 8


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

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < MIN_GRID_SIZE:
            raise ValueError(f"need at least {MIN_GRID_SIZE} quantile values, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("quantile values must be finite")
        if not np.all(np.diff(vals) > 0):
            raise ValueError("quantile values must be strictly increasing")
        vals.setflags(write=False)

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def u(self) -> np.ndarray:
        return midpoints(self.m)

    def mean(self) -> float:
        return float(np.mean(self.values))

    # Family methods call module globals, so tracers that patch module attributes see them.
    def w2(self, other: QuantileGrid) -> float:
        return w2(self, other)

    def kl(self, other: QuantileGrid) -> float:
        return grid_kl(self, other)

    def push(self, t: MonotoneMap1D) -> QuantileGrid:
        return pushforward(self, t)

    def render(self, g) -> QuantileGrid:
        """The 1-D Gaussian measure g on this grid's M quantile points."""
        if g.dim != 1:
            raise ValueError("grid family requires a 1-D objective")
        return from_gaussian(float(g.mean[0]), math.sqrt(float(g.cov[0, 0])), self.m)


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
        dx = np.diff(x)
        dy = np.diff(y)
        if not (np.all(dx > 0) and np.all(dy > 0)):
            raise ValueError("knot coordinates must be strictly increasing")
        if not np.all(np.isfinite(dy / dx)):
            raise ValueError("segment slopes must be finite")
        x.setflags(write=False)
        y.setflags(write=False)

    def __call__(self, t) -> np.ndarray:
        return apply_map(self.x, self.y, t)

    def inverse(self) -> MonotoneMap1D:
        return invert_map(self)

    def inverse_lipschitz(self) -> float:
        """Lip(T^{-1}), its largest slope, without building T^{-1}."""
        return float(np.max(np.diff(self.x) / np.diff(self.y)))

    def pull_back(self, values: np.ndarray) -> tuple:
        """The quantile values of (T^{-1})#p for p's `values`: T.inverse()(values), no map built."""
        return self.push_fields(self.y, self.x, values)

    @staticmethod
    def push_fields(x: np.ndarray, y: np.ndarray, values: np.ndarray) -> tuple:
        """The quantile values of MonotoneMap1D(x, y)#p for p's `values`, building no map."""
        return (apply_map(x, y, values),)


def apply_map(x: np.ndarray, y: np.ndarray, t) -> np.ndarray:
    """MonotoneMap1D(x, y)(t) without building or validating the map."""
    t = np.asarray(t, dtype=float)
    out = np.asarray(np.interp(t, x, y))
    lo = t < x[0]
    hi = t > x[-1]
    if np.any(lo):
        s0 = (y[1] - y[0]) / (x[1] - x[0])
        out[lo] = y[0] + s0 * (t[lo] - x[0])
    if np.any(hi):
        s1 = (y[-1] - y[-2]) / (x[-1] - x[-2])
        out[hi] = y[-1] + s1 * (t[hi] - x[-1])
    return out


def from_gaussian(mean: float, sd: float, m: int) -> QuantileGrid:
    """Quantile grid of N(mean, sd^2) at the midpoint u-grid."""
    if sd <= 0:
        raise ValueError("sd must be positive")
    if m < MIN_GRID_SIZE:
        raise ValueError(f"grid size must be >= {MIN_GRID_SIZE}")
    return QuantileGrid(mean + sd * ndtri(midpoints(m)))


def _check_same_m(p: QuantileGrid, q: QuantileGrid):
    if p.m != q.m:
        raise ValueError(f"grid sizes differ: {p.m} vs {q.m}")


def w2(p: QuantileGrid, q: QuantileGrid) -> float:
    """W2 distance: the L2 distance of quantile vectors, sqrt((1/M) sum (Qp-Qq)^2)."""
    _check_same_m(p, q)
    d = p.values - q.values
    return float(np.sqrt(np.mean(d * d)))


def ot_map(p: QuantileGrid, q: QuantileGrid) -> MonotoneMap1D:
    """The OT map from p to q: quantile matching, Q_{p,k} -> Q_{q,k}."""
    _check_same_m(p, q)
    return MonotoneMap1D(p.values, q.values)


def pushforward(p: QuantileGrid, t: MonotoneMap1D) -> QuantileGrid:
    """T#p: apply T to the quantile values.  Fails if T is not increasing there."""
    vals = t(p.values)
    if not np.all(np.diff(vals) > 0):
        raise ValueError("map is not strictly increasing over the support of p")
    return QuantileGrid(vals)


def _dq_du_centered(p: QuantileGrid) -> np.ndarray:
    """dQ/du by centered differences, one-sided at the two endpoints."""
    q = p.values
    m = p.m
    d = np.empty(m)
    d[1:-1] = (q[2:] - q[:-2]) * (m / 2.0)
    d[0] = (q[1] - q[0]) * m
    d[-1] = (q[-1] - q[-2]) * m
    return d


def entropy(p: QuantileGrid) -> float:
    """Differential entropy integral H = int rho log rho = -(1/M) sum log dQ/du."""
    return float(-np.mean(np.log(_dq_du_centered(p))))


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


def grid_kl(p: QuantileGrid, q: QuantileGrid) -> float:
    """KL(p || q) between two grid measures.

    Evaluated in p's quantile coordinates: KL = (1/M) sum_k [log p(Q_{p,k})
    - log q(Q_{p,k})], with knot densities from interval widths and q's
    density read off at p's quantile locations.  Clamped at zero.
    """
    p_dens = _interval_density(p)
    q_dens_at_knots = _interval_density(q)
    # interpolate log-density of q at p's quantile positions
    log_q = np.interp(p.values, q.values, np.log(q_dens_at_knots))
    # outside q's support, extend the boundary interval density
    val = float(np.mean(np.log(p_dens) - log_q))
    return max(val, 0.0)


def tv(p: QuantileGrid, q: QuantileGrid) -> float:
    """Total variation distance by density reconstruction on a shared dense grid.

    Both densities are rebuilt from knot values (reciprocal of dQ/du) on the
    union of supports extended by 6 standard deviations, 8*M points, and
    (1/2) int |p - q| is taken by the trapezoid rule.
    """
    _check_same_m(p, q)
    sd_p = np.sqrt(max(second_moment(p) - p.mean() ** 2, 1e-300))
    sd_q = np.sqrt(max(second_moment(q) - q.mean() ** 2, 1e-300))
    lo = min(p.values[0], q.values[0]) - 6 * max(sd_p, sd_q)
    hi = max(p.values[-1], q.values[-1]) + 6 * max(sd_p, sd_q)
    xs = np.linspace(lo, hi, 8 * p.m)

    def dens_on(xs, g: QuantileGrid):
        d = 1.0 / _dq_du_centered(g)
        out = np.interp(xs, g.values, d)
        out[(xs < g.values[0]) | (xs > g.values[-1])] = 0.0
        return out

    diff = np.abs(dens_on(xs, p) - dens_on(xs, q))
    return float(min(0.5 * np.trapezoid(diff, xs), 1.0))


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
