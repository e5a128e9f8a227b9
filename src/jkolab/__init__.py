"""Wasserstein-2 proximal descent laboratory.

Exact JKO proximal steps in two tractable measure families (1-D quantile
grids and multivariate Gaussians), calibrated first-order and inversion
error injection, and numerical certification of the associated convergence
bounds.
"""

from . import certify, functionals, gaussian, jko, process, quantile, serialize

__all__ = [
    "certify",
    "functionals",
    "gaussian",
    "jko",
    "process",
    "quantile",
    "serialize",
]

__version__ = "0.1.0"
