"""Closed-form Bures-Wasserstein geometry on multivariate Gaussians.

Everything here is exact linear algebra: W2 distance, affine maps and their
pushforwards, KL divergence, the objective and its first-order residual, and L2
norms of affine vector fields under a Gaussian measure.  Chain-wide work
(validating a chain's measures or maps, inverting its maps, W2 to one
measure, objective values, inverse-Lipschitz constants) is one stacked
evaluation each, every entry bit for bit its own item's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GaussianMeasure",
    "AffineMap",
    "spd_sqrt",
    "w2_bw",
    "affine_field_norm",
]

_SYM_RTOL = 1e-12
_EIG_CLAMP = 1e-14
_POSDEF_MIN = 1e-10


@dataclass(frozen=True)
class GaussianMeasure:
    """Mean vector and symmetric positive definite covariance.

    Construction validates the covariance by one Cholesky factorization of
    cov - 1e-10 I: a measure exists only when it succeeds, which is the rule
    "smallest eigenvalue >= 1e-10" up to roundoff at the boundary, so every
    measure has an entropy, an inverse covariance and a log-determinant;
    `stack` validates a chain by one Cholesky of its stacked covariances.  The
    lower Cholesky factor `chol` of cov, from which log_det comes, is
    computed on first read.  The factors V diag(evals) V^T (`evals` ascending, `evecs` =
    V) come from one `eigh` on first read and serve the square root and the
    inverse square root, derived on first use.  All of them are cached and
    read-only; `chol` is not a dataclass field.
    """

    mean: np.ndarray
    cov: np.ndarray
    family = "gaussian"
    evi_tol = 1e-8  # certify's tolerance of the EVI-derived checks
    dpi_tol = 1e-10  # and of the data-processing identity

    def __post_init__(self):
        mean, cov = _validated(np.atleast_1d(np.asarray(self.mean, dtype=float)),
                               np.atleast_2d(np.asarray(self.cov, dtype=float)), 1)
        self.__dict__.update(mean=mean, cov=cov)

    @classmethod
    def stack(cls, means, covs) -> list[GaussianMeasure]:
        """The measures N(means[i], covs[i]) of a stack (n >= 1, d), (n, d, d), after one
        validation of the whole stack: each bit for bit its own construction's."""
        means, covs = _validated(np.asarray(means, dtype=float), np.asarray(covs, dtype=float), 2)
        return [_unvalidated(cls, mean=m, cov=c) for m, c in zip(means, covs)]

    @cached_property
    def chol(self) -> np.ndarray:
        return _frozen(np.linalg.cholesky(self.cov))

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        evals, evecs = np.linalg.eigh(self.cov)
        return _frozen(evals), _frozen(evecs)

    evals = property(lambda self: self._factors[0])
    evecs = property(lambda self: self._factors[1])

    @property
    def dim(self) -> int:
        return self.mean.size

    @cached_property
    def sqrt(self) -> np.ndarray:
        """Sigma^{1/2}, equal to spd_sqrt(cov)."""
        return _frozen(_eig_sqrt(self.evals, self.evecs))

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        """Sigma^{-1/2}."""
        v = self.evecs
        return _frozen((v / np.sqrt(self.evals)) @ v.T)

    @cached_property
    def log_det(self) -> float:
        """log det Sigma = 2 sum log diag(chol)."""
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    # w2 calls the module global w2_bw, so a tracer that patches the module attribute sees it.
    def w2(self, other: GaussianMeasure) -> float:
        return w2_bw(self, other)

    def w2_from(self, measures) -> list[float]:
        """[p.w2(self) for p in measures] in one stacked evaluation, this
        measure's square root taken once."""
        return _w2_bw(*_stacked(measures), self.mean, self.cov).tolist()

    @staticmethod
    def w2_pairs(ps, qs) -> list[float]:
        """[p.w2(q) for p, q in zip(ps, qs)] in one stacked evaluation."""
        if len(ps) != len(qs):
            raise ValueError(f"{len(ps)} measures against {len(qs)}")
        return _w2_bw(*_stacked(ps), *_stacked(qs)).tolist()

    def kl(self, other: GaussianMeasure) -> float:
        """KL(self || other) in closed form.

        tr(Sigma_2^{-1} Sigma_1) + dm^T Sigma_2^{-1} dm is ||X||_F^2 for
        X = L_2^{-1} [L_1 | dm], with L the kept Cholesky factors: one solve, no
        eigendecomposition.
        """
        _check_dims(self, other)
        x = np.linalg.solve(other.chol, np.column_stack((self.chol, self.mean - other.mean)))
        val = 0.5 * (float((x * x).sum()) - self.dim + other.log_det - self.log_det)
        return max(val, 0.0)

    def tv(self, other: GaussianMeasure) -> float | None:
        """TV distance in closed form in 1-D; None in higher dimensions (no direct one).

        The densities cross where their log ratio, a quadratic in x, vanishes:
        once, midway between the means, when the variances are equal, where TV
        is erf(|m2 - m1| / (2 sqrt(2) sd)); else at the quadratic's two roots,
        and TV is the difference of the two measures of the interval between
        them, in differences of erf.
        """
        if self.dim != 1:
            return None
        v1, v2 = float(self.cov[0, 0]), float(other.cov[0, 0])
        d = float(other.mean[0]) - float(self.mean[0])
        a = v1 - v2
        if a == 0:
            return math.erf(abs(d) / (2 * math.sqrt(2 * v1)))
        # with y = x - m1: a y^2 - 2 v1 d y + v1 (d^2 - v2 log(v1/v2)) = 0, roots
        # taken without cancellation; log1p keeps log(v1/v2) nonzero, of a's sign
        log_ratio = math.log1p(a / v2)
        half_b = v1 * d
        den = half_b + math.copysign(math.sqrt(v1 * v2 * (d * d + a * log_ratio)), half_b)
        lo, hi = sorted((den / a, v1 * (d * d - v2 * log_ratio) / den))
        r1, r2 = math.sqrt(2 * v1), math.sqrt(2 * v2)
        mass1 = math.erf(hi / r1) - math.erf(lo / r1)
        mass2 = math.erf((hi - d) / r2) - math.erf((lo - d) / r2)
        return 0.5 * abs(mass1 - mass2)

    def image(self, t: AffineMap) -> GaussianMeasure:
        """t#self = N(A m + b, A Sigma A^T), exact, for any affine t: x -> A x + b."""
        return GaussianMeasure(*AffineMap.push_fields(t.linear, t.offset, self.mean, self.cov))

    def image_mean(self, t: AffineMap) -> np.ndarray:
        return t.linear @ self.mean + t.offset  # image(t)'s, building no measure

    @staticmethod
    def minimizer(spec) -> GaussianMeasure:
        """The global minimizer of G, N(mu*, alpha Lambda^{-1}); ValueError below the floor."""
        pot = spec.potential
        lam_inv = np.linalg.inv(pot.lambda_mat)
        lam_inv = 0.5 * (lam_inv + lam_inv.T)
        return GaussianMeasure(pot.center, spec.alpha * lam_inv)

    @staticmethod
    def objectives(spec, measures) -> list[float]:
        """G = alpha * entropy + E[V] + log Z of each measure (functionals.objectives), in
        one stacked evaluation: one Cholesky for every log-determinant, stacked traces and
        (1, d) @ Lambda @ (d, 1) quadratic forms, so each value is bit for bit that of its
        measure alone."""
        pot = spec.potential
        means, covs = _stacked(measures)
        log_det = 2.0 * np.log(np.linalg.cholesky(covs).diagonal(0, -2, -1)).sum(-1)
        h = -0.5 * means.shape[-1] * math.log(2 * math.pi * math.e) - 0.5 * log_det
        dm = means - pot.center
        e_v = 0.5 * (_trace(pot.lambda_mat @ covs)
                     + (dm[:, None, :] @ pot.lambda_mat @ dm[:, :, None])[:, 0, 0])
        return (spec.alpha * h + e_v + pot.log_z).tolist()

    def xi(self, linear: np.ndarray, offset: np.ndarray, spec, gamma: float) -> float:
        """jko.measure_xi of the transport S: x -> L x + o from this measure N(m, Sigma).

        With L symmetric positive definite, S is the OT map to N(m_S, L Sigma L),
        m_S = L m + o, and xi pulled back through S is x -> v + K Sigma^{-1/2} (x - m),
        v = Lambda (m_S - mu*) + (m_S - m) / gamma,
        K = (Lambda L + (L - I) / gamma) Sigma^{1/2} - alpha L^{-1} Sigma^{-1/2}:
        its norm is sqrt(||v||^2 + ||K||_F^2), one solve and no measure or map built.
        ValueError: L is not exactly symmetric (definiteness is the caller's).
        """
        if not (linear == linear.T).all():
            raise ValueError("the transport's linear part is not symmetric")
        pot = spec.potential
        lam = pot.lambda_mat
        mean = linear @ self.mean + offset
        v = lam @ (mean - pot.center) + (mean - self.mean) / gamma
        k = ((lam @ linear + (linear - np.eye(mean.size)) / gamma) @ self.sqrt
             - spec.alpha * np.linalg.solve(linear, self.inv_sqrt))
        return math.sqrt(float(v @ v + (k * k).sum()))

    @property
    def step_solver(self):
        """jko.jko_step_gaussian, the family's exact proximal step."""
        from . import jko  # jko imports this module

        return jko.jko_step_gaussian


def _validated(mean: np.ndarray, cov: np.ndarray, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """The frozen mean and symmetrized covariance of a measure (ndim 1) or of a stack of
    them (ndim 2) that GaussianMeasure's rules accept; ValueError otherwise."""
    if mean.ndim != ndim:
        raise ValueError("mean must be a vector")
    if cov.shape != mean.shape + mean.shape[-1:]:
        raise ValueError("covariance shape does not match mean dimension")
    # a NaN or inf makes a sum non-finite; only then, since finite entries may
    # overflow it, does the exact test run
    if not (math.isfinite(mean.sum()) and math.isfinite(cov.sum())):
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
    # the tolerance _SYM_RTOL * scale * 100 of each matrix is least at the scale's
    # floor 1, so the scales are read only for an asymmetry above that
    asym = abs(cov - cov.swapaxes(-1, -2))
    if asym.max() > _SYM_RTOL * 100:
        scale = np.maximum(abs(cov).max(axis=(-2, -1)), 1.0)
        if (asym.max(axis=(-2, -1)) > _SYM_RTOL * scale * 100).any():
            raise ValueError("covariance is not symmetric")
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    if not math.isfinite(cov.sum()) and not np.isfinite(cov).all():  # cov + cov.T overflowed
        raise ValueError("mean and covariance must be finite")
    d = mean.shape[-1]
    shifted = cov.copy()  # cov - 1e-10 I, bit for bit
    diagonal = shifted.ravel()[::d + 1] if ndim == 1 else shifted.reshape(-1, d * d)[:, ::d + 1]
    diagonal -= _POSDEF_MIN
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise ValueError("covariance is not positive definite: its smallest eigenvalue "
                         f"is below {_POSDEF_MIN:g}") from None
    return _frozen(mean), _frozen(cov)


def _unvalidated(cls, **fields):
    """An instance of the frozen dataclass `cls` with the given, already validated, fields."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class AffineMap:
    """x -> A x + b."""

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.linear, dtype=float))
        b = np.atleast_1d(np.asarray(self.offset, dtype=float))
        if b.ndim != 1 or a.shape != (b.size, b.size):
            raise ValueError("linear part shape does not match offset dimension")
        self.__dict__.update(linear=_frozen(a), offset=_frozen(b))

    @classmethod
    def stack(cls, linears, offsets) -> list[AffineMap]:
        """The maps x -> linears[i] x + offsets[i] of a stack (n >= 1, d, d), (n, d)."""
        a, b = np.asarray(linears, dtype=float), np.asarray(offsets, dtype=float)
        if b.ndim != 2 or a.shape != b.shape + b.shape[-1:]:
            raise ValueError("linear part shape does not match offset dimension")
        return [_unvalidated(cls, linear=x, offset=y) for x, y in zip(_frozen(a), _frozen(b))]

    @staticmethod
    def inverse_fields_of(maps) -> list[tuple]:
        """(L^{-1}, -L^{-1} b) of each map's T^{-1}, building no map: one inversion of the
        stacked linear parts, bit for bit each map's own."""
        inverses = _frozen(np.linalg.inv(np.array([t.linear for t in maps])))
        return [(a, -a @ t.offset) for a, t in zip(inverses, maps)]

    @staticmethod
    def inverse_lipschitz_of(maps) -> list[float]:
        """Lip(T^{-1}) = 1 / lambda_min(L) of each map T from one stacked eigvalsh, no
        inverse; ValueError: an L not exactly symmetric, or not positive definite."""
        linears = np.array([t.linear for t in maps])
        if not (linears == linears.swapaxes(-1, -2)).all():
            raise ValueError("a transport's linear part is not symmetric")
        lowest = np.linalg.eigvalsh(linears)[:, 0]
        if not (lowest > 0).all():
            raise ValueError("a transport's linear part is not positive definite")
        return (1.0 / lowest).tolist()

    def inversion_residual(self, s: tuple, p: GaussianMeasure) -> float:
        """||T o S - Id|| under the Gaussian p entering S, for S: x -> s[0] x + s[1]."""
        s_linear, s_offset = s
        return affine_field_norm(self.linear @ s_linear - np.eye(p.dim),
                                 self.linear @ s_offset + self.offset, p.mean, p.cov)

    @staticmethod
    def perturbed_fields(linear: np.ndarray, offset: np.ndarray, mode, center, bump):
        """(fields, cap) of the map under a perturbation of `mode` (a jko.PerturbMode).

        fields(a) is (linear, offset) with amplitude a: MEAN_SHIFT shifts by a
        along the first axis, DILATION scales about `center` by 1 + a (a
        symmetric linear part stays exactly symmetric).  cap() is calibration's
        amplitude cap, infinite: neither breaks invertibility.  ValueError:
        GRID_BUMP, which is 1-D only.
        """
        if mode.value == "mean_shift":
            axis = np.eye(offset.size)[0]
            return (lambda a: (linear, offset + a * axis)), lambda: np.inf
        if mode.value == "dilation":
            return (lambda a: ((1 + a) * linear, (1 + a) * (offset - center) + center),
                    lambda: np.inf)
        raise ValueError(f"mode {mode.value} is 1-D only")

    @staticmethod
    def joined(first: tuple, then: tuple) -> None:
        """None: consecutive affine maps are pushed through one at a time."""
        return None

    @staticmethod
    def push_fields(linear: np.ndarray, offset: np.ndarray, mean: np.ndarray,
                    cov: np.ndarray) -> tuple:
        """N(mean, cov) pushed through x -> linear x + offset on arrays: the mean and the
        covariance, symmetrized as GaussianMeasure stores it, of `image` bit for bit."""
        c = linear @ cov @ linear.T
        return linear @ mean + offset, 0.5 * (c + c.T)


def spd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root via eigendecomposition, of one matrix or of a stack (..., d, d).

    Eigenvalues below the 1e-14 roundoff floor are treated as exact zeros,
    which keeps a singular input singular instead of leaking sqrt(1e-14)
    into its root.  Each matrix of a stack gets the bits
    of its own call: eigh and matmul run per matrix.
    """
    return _eig_sqrt(*np.linalg.eigh(0.5 * (mat + np.swapaxes(mat, -1, -2))))


def _eig_sqrt(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    evals = np.where(evals < _EIG_CLAMP, 0.0, evals)
    return (vecs * np.sqrt(evals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _check_dims(g1: GaussianMeasure, g2: GaussianMeasure):
    if g1.dim != g2.dim:
        raise ValueError(f"dimension mismatch: {g1.dim} vs {g2.dim}")


def w2_bw(g1: GaussianMeasure, g2: GaussianMeasure) -> float:
    """Bures-Wasserstein distance.

    The one-pair case of _w2_bw, which GaussianMeasure.w2_from and w2_pairs
    run over whole chains.
    """
    return float(_w2_bw(g1.mean, g1.cov, g2.mean, g2.cov))


def _w2_bw(m1: np.ndarray, c1: np.ndarray, m2: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """W2 between N(m1, c1) and N(m2, c2), broadcast over the leading axes of
    means (..., d) and covariances (..., d, d).

    Two spd_sqrt calls whatever the stack: c2's square root (taken once when
    c2 is one matrix) and that of the stacked c2^1/2 c1 c2^1/2.  Each entry
    is bit for bit its own pair's value: dm . dm is a (1, d) @ (d, 1)
    matmul, which einsum would not reproduce.
    """
    if m1.shape[-1] != m2.shape[-1]:
        raise ValueError(f"dimension mismatch: {m1.shape[-1]} vs {m2.shape[-1]}")
    dm = m1 - m2
    s2_half = spd_sqrt(c2)
    cross = spd_sqrt(s2_half @ c1 @ s2_half)
    val = ((dm[..., None, :] @ dm[..., :, None])[..., 0, 0] + _trace(c1) + _trace(c2)
           - 2.0 * _trace(cross))
    return np.sqrt(np.maximum(val, 0.0))


def _trace(mats: np.ndarray) -> np.ndarray:
    return np.trace(mats, axis1=-2, axis2=-1)


def _stacked(measures) -> tuple[np.ndarray, np.ndarray]:
    """The means (n, d) and covariances (n, d, d) of a sequence of measures."""
    return np.array([g.mean for g in measures]), np.array([g.cov for g in measures])


def affine_field_norm(j: np.ndarray, c: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """L2 norm of x -> J x + c under N(mean, cov): sqrt(||J m + c||^2 + tr(J Sigma J^T))."""
    v = j @ mean + c
    val = float(v @ v + np.trace(j @ cov @ j.T))
    return float(np.sqrt(max(val, 0.0)))
