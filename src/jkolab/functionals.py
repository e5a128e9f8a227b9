"""The objective functional: KL divergence and its entropy-weighted variants.

The target is always q proportional to exp(-V) with a quadratic potential
V(x) = (1/2)(x - mu*)^T Lambda (x - mu*), Lambda SPD.  The objective is

    G(rho) = alpha * H(rho) + E_rho[V] + log Z,

with alpha = 1 (plain KL) or a general alpha > 0: every objective carries
entropy, so its minimizer is a nondegenerate Gaussian (each measure family
builds it by its `minimizer(spec)`).  The constant log Z is fixed so the KL
variant is a true divergence (zero at q).  The convexity modulus is
lambda_min(Lambda) for every variant (the entropy contributes convexity >= 0).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gaussian as ga

__all__ = [
    "Variant",
    "QuadraticPotential",
    "ObjectiveSpec",
    "evaluate",
    "objectives",
]


class Variant(enum.Enum):
    KL = "kl"
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class QuadraticPotential:
    """V(x) = (1/2)(x - center)^T lambda_mat (x - center), lambda_mat SPD.

    `lambda_min`, the smallest eigenvalue of lambda_mat, is kept from the
    positive-definiteness check; `log_z` is cached on first use.
    """

    lambda_mat: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        lam = np.atleast_2d(np.asarray(self.lambda_mat, dtype=float))
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if lam.shape != (c.size, c.size):
            raise ValueError("lambda_mat shape does not match center dimension")
        lam = 0.5 * (lam + lam.T)
        lambda_min = float(np.linalg.eigvalsh(lam)[0])
        if lambda_min <= 0:
            raise ValueError("lambda_mat must be strictly positive definite")
        lam.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "lambda_mat", lam)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "lambda_min", lambda_min)

    @property
    def dim(self) -> int:
        return self.center.size

    @cached_property
    def log_z(self) -> float:
        """log normalizer of q = e^{-V}/Z: (d/2) log(2 pi) - (1/2) log det Lambda."""
        _, logdet = np.linalg.slogdet(self.lambda_mat)
        return 0.5 * self.dim * math.log(2 * math.pi) - 0.5 * logdet


@dataclass(frozen=True)
class ObjectiveSpec:
    potential: QuadraticPotential
    variant: Variant = Variant.KL
    alpha: float = 1.0

    def __post_init__(self):
        if self.variant is Variant.KL and self.alpha != 1:
            raise ValueError(f"alpha = {self.alpha!r} needs the weighted variant: kl is alpha = 1")
        if not self.alpha > 0:
            raise ValueError("the objective needs entropy: alpha must be positive")

    @property
    def lam(self) -> float:
        """Convexity modulus: the smallest eigenvalue of Lambda."""
        return self.potential.lambda_min

    @property
    def dim(self) -> int:
        return self.potential.dim

    # N(center, alpha Lambda^-1), the minimizer of G over all measures, built once per spec
    gaussian_minimizer = cached_property(lambda self: ga.GaussianMeasure.minimizer(self))


def evaluate(spec: ObjectiveSpec, measure) -> float:
    """G(measure) = alpha * H + E[V] + log Z."""
    return objectives(spec, [measure])[0]


def objectives(spec: ObjectiveSpec, measures) -> list[float]:
    """[G(m) for m in measures], by the measure family's chain-wide `objectives`."""
    return type(measures[0]).objectives(spec, measures)

