"""Covariance operator reconstruction from finitely many sampled Gaussian
field realizations on P1 finite element meshes of the unit interval/square.

Pipeline: draw discretized samples (fields), estimate the nodal
covariance with MLE or tapering (estimators), solve the mass-transformed
symmetric eigenproblem (spectral), rebuild a truncated Mercer kernel and
split its error into truncation + discretization + sampling parts
(mercer), and couple (L, M, h) a priori for a target accuracy (planner).
"""

from ._version import __version__
from .errors import (ConfigError, DegenerateSpectrumError,
                     InfeasiblePlanError, NumericError)
from . import artifacts, config, estimators, fem, fields, mercer, planner, \
    spectral

__all__ = [
    "__version__", "ConfigError", "DegenerateSpectrumError",
    "InfeasiblePlanError", "NumericError", "artifacts", "config",
    "estimators", "fem", "fields", "mercer", "planner", "spectral",
]
