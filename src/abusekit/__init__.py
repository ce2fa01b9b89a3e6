"""Count-data modeling toolkit for abuse concentrations across hosting providers.

Provides dataset ingestion, explanatory-variable construction, Poisson
log-link GLM fitting with fixed effects, over-dispersion and pseudo-R2
diagnostics, statistical-twin matched sampling, scenario analysis, and a
Monte Carlo robustness study of noisy size proxies.
"""

import os

# numpy and scipy each load their own OpenBLAS, and each pool's idle worker
# busy-waits for 2**28 cycles (about 0.1 s) after a call before it sleeps.
# An IRLS fit alternates numpy's products with scipy's solves, so on a host
# with few cores every call runs beside the other pool's spinning worker.
# 2**16 cycles lets the workers sleep at once; thread counts, and with them
# the results, are unchanged. OpenBLAS reads this variable once, when numpy
# or scipy first loads it, so it applies only when abusekit is imported
# first; a value already set is kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "16")

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
