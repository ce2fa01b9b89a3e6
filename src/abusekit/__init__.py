"""Count-data modeling toolkit for abuse concentrations across hosting providers.

Provides dataset ingestion, explanatory-variable construction, Poisson
log-link GLM fitting with fixed effects, over-dispersion and pseudo-R2
diagnostics, statistical-twin matched sampling, scenario analysis, and a
Monte Carlo robustness study of noisy size proxies.
"""

__version__ = "0.1.0"

from .ingest import Dataset, describe, load_table, log10_transform
from .glm import FitResult, ModelSpec, build_design, fit_poisson, predict

__all__ = [
    "Dataset",
    "describe",
    "load_table",
    "log10_transform",
    "FitResult",
    "ModelSpec",
    "build_design",
    "fit_poisson",
    "predict",
    "__version__",
]
