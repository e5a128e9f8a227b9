"""Closed-form Bures-Wasserstein geometry on multivariate Gaussians.

Everything here is exact linear algebra: W2 distance, OT maps (SPD affine
maps), KL divergence, subgradient fields of the objective, and L2 norms of
affine vector fields under a Gaussian measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GaussianMeasure",
    "AffineMap",
    "spd_sqrt",
    "w2_bw",
    "ot_map_bw",
    "kl_between",
    "subgradient_field",
    "affine_field_norm",
    "pushforward_affine",
    "invert_affine",
]

_SYM_RTOL = 1e-12
_EIG_CLAMP = 1e-14
_POSDEF_MIN = 1e-10


@dataclass(frozen=True)
class GaussianMeasure:
    """Mean vector and symmetric positive semi-definite covariance.

    Semi-definite covariances are allowed (they arise as degenerate W2
    endpoints, e.g. the minimizer of a potential-only objective); strictly
    positive definite covariance is required for entropy-bearing operations.

    Construction validates with one Cholesky factorization; only a covariance
    it rejects is eigendecomposed, to tell a semi-definite one from an
    indefinite one.  The factors V diag(evals) V^T (`evals` ascending,
    `evecs` = V) come from one `eigh` on first read, and the square root,
    inverse square root, precision and log-determinant are derived from them
    on first use.  All of them are cached and read-only.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean dimension")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and covariance must be finite")
        asym = np.max(np.abs(cov - cov.T))
        scale = max(np.max(np.abs(cov)), 1.0)
        if asym > _SYM_RTOL * scale * 100:
            raise ValueError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        for name, arr in (("mean", mean), ("cov", cov)):
            object.__setattr__(self, name, _frozen(arr))
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            if self.evals[0] < -1e-10 * scale:
                raise ValueError("covariance has a negative eigenvalue") from None

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        evals, evecs = np.linalg.eigh(self.cov)
        return _frozen(evals), _frozen(evecs)

    evals = property(lambda self: self._factors[0])
    evecs = property(lambda self: self._factors[1])

    @property
    def dim(self) -> int:
        return self.mean.size

    def is_nondegenerate(self) -> bool:
        return float(self.evals[0]) >= _POSDEF_MIN

    def require_nondegenerate(self):
        if not self.is_nondegenerate():
            raise ValueError("operation requires a strictly positive definite covariance")

    @cached_property
    def sqrt(self) -> np.ndarray:
        """Sigma^{1/2}, equal to spd_sqrt(cov); valid for singular covariances too."""
        return _frozen(_eig_sqrt(self.evals, self.evecs))

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        """Sigma^{-1/2}; requires a nondegenerate covariance."""
        self.require_nondegenerate()
        v = self.evecs
        return _frozen((v / np.sqrt(self.evals)) @ v.T)

    @cached_property
    def precision(self) -> np.ndarray:
        """Sigma^{-1}; requires a nondegenerate covariance."""
        self.require_nondegenerate()
        v = self.evecs
        return _frozen((v / self.evals) @ v.T)

    @cached_property
    def log_det(self) -> float:
        """log det Sigma; requires a nondegenerate covariance."""
        self.require_nondegenerate()
        return float(np.sum(np.log(self.evals)))

    # Family methods call module globals, so tracers that patch module attributes see them.
    def w2(self, other: GaussianMeasure) -> float:
        return w2_bw(self, other)

    def kl(self, other: GaussianMeasure) -> float:
        return kl_between(self, other)

    def push(self, t: AffineMap) -> GaussianMeasure:
        return pushforward_affine(self, t)

    def render(self, g: GaussianMeasure) -> GaussianMeasure:
        """The Gaussian measure g in this family: g itself."""
        return g


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class AffineMap:
    """x -> A x + b.  Also used for affine vector fields x -> J x + c."""

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.linear, dtype=float))
        b = np.atleast_1d(np.asarray(self.offset, dtype=float))
        if a.shape != (b.size, b.size):
            raise ValueError("linear part shape does not match offset dimension")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "linear", a)
        object.__setattr__(self, "offset", b)

    @property
    def dim(self) -> int:
        return self.offset.size

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x) @ self.linear.T + self.offset

    def inverse(self) -> AffineMap:
        return invert_affine(self)

    @cached_property
    def inverse_linear(self) -> np.ndarray:
        """L^{-1}, computed once for `inverse`, `inverse_lipschitz` and `pull_back`."""
        return _frozen(np.linalg.inv(self.linear))

    def inverse_lipschitz(self) -> float:
        """Lip(T^{-1}), the spectral norm of L^{-1}, without building T^{-1}."""
        return float(np.linalg.norm(self.inverse_linear, 2))

    def pull_back(self, mean: np.ndarray, cov: np.ndarray) -> tuple:
        """(T^{-1})#N(mean, cov) on arrays: the mean and covariance that
        GaussianMeasure(mean, cov).push(T.inverse()) holds, bit for bit, building neither."""
        a_inv = self.inverse_linear
        return self.push_fields(a_inv, -a_inv @ self.offset, mean, cov)

    @staticmethod
    def push_fields(linear: np.ndarray, offset: np.ndarray, mean: np.ndarray,
                    cov: np.ndarray) -> tuple:
        """N(mean, cov) pushed through x -> linear x + offset on arrays: the mean and the
        covariance, symmetrized as GaussianMeasure stores it, of pushforward_affine bit for bit."""
        c = linear @ cov @ linear.T
        return linear @ mean + offset, 0.5 * (c + c.T)


def spd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root via eigendecomposition.

    Eigenvalues below the 1e-14 roundoff floor are treated as exact zeros,
    which keeps singular inputs singular instead of leaking sqrt(1e-14)
    into every degenerate distance.
    """
    return _eig_sqrt(*np.linalg.eigh(0.5 * (mat + mat.T)))


def _eig_sqrt(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    evals = np.where(evals < _EIG_CLAMP, 0.0, evals)
    return (vecs * np.sqrt(evals)) @ vecs.T


def _check_dims(g1: GaussianMeasure, g2: GaussianMeasure):
    if g1.dim != g2.dim:
        raise ValueError(f"dimension mismatch: {g1.dim} vs {g2.dim}")


def w2_bw(g1: GaussianMeasure, g2: GaussianMeasure) -> float:
    """Bures-Wasserstein distance; valid for singular covariances too."""
    _check_dims(g1, g2)
    dm = g1.mean - g2.mean
    s2_half = spd_sqrt(g2.cov)
    cross = spd_sqrt(s2_half @ g1.cov @ s2_half)
    val = float(dm @ dm + np.trace(g1.cov) + np.trace(g2.cov) - 2.0 * np.trace(cross))
    return float(np.sqrt(max(val, 0.0)))


def ot_map_bw(g1: GaussianMeasure, g2: GaussianMeasure) -> AffineMap:
    """OT map from g1 to g2: x -> A(x - m1) + m2 with SPD A."""
    _check_dims(g1, g2)
    s_half, s_half_inv = g1.sqrt, g1.inv_sqrt
    a = s_half_inv @ spd_sqrt(s_half @ g2.cov @ s_half) @ s_half_inv
    return AffineMap(a, g2.mean - a @ g1.mean)


def pushforward_affine(g: GaussianMeasure, t: AffineMap) -> GaussianMeasure:
    """T#g = N(A m + b, A Sigma A^T), exact."""
    return GaussianMeasure(*AffineMap.push_fields(t.linear, t.offset, g.mean, g.cov))


def invert_affine(t: AffineMap) -> AffineMap:
    a_inv = t.inverse_linear
    return AffineMap(a_inv, -a_inv @ t.offset)


def kl_between(g1: GaussianMeasure, g2: GaussianMeasure) -> float:
    """KL(g1 || g2) between two nondegenerate Gaussians, closed form."""
    _check_dims(g1, g2)
    g1.require_nondegenerate()
    prec2 = g2.precision
    dm = g1.mean - g2.mean
    val = 0.5 * (np.trace(prec2 @ g1.cov) + dm @ prec2 @ dm - g1.dim + g2.log_det - g1.log_det)
    return max(float(val), 0.0)


def subgradient_field(g: GaussianMeasure, spec) -> AffineMap:
    """The W2 gradient of the objective at g: grad V + alpha * grad log rho.

    For Gaussian rho this is the affine field
    x -> Lambda (x - mu*) - alpha Sigma^{-1} (x - m).
    """
    pot = spec.potential
    alpha = spec.entropy_weight
    prec = g.precision
    j = pot.lambda_mat - alpha * prec
    c = -pot.lambda_mat @ pot.center + alpha * prec @ g.mean
    return AffineMap(j, c)


def affine_field_norm(j: np.ndarray, c: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """L2 norm of x -> J x + c under N(mean, cov): sqrt(||J m + c||^2 + tr(J Sigma J^T))."""
    v = j @ mean + c
    val = float(v @ v + np.trace(j @ cov @ j.T))
    return float(np.sqrt(max(val, 0.0)))
