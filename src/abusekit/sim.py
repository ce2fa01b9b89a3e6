"""Monte Carlo robustness study of noisy size proxies.

Populations are generated where abuse truly is Poisson and driven by a
single latent size; the three observable size variables are that latent
size plus independent normal noise. Refitting the count model on the
noisy proxies across many replicates shows how much apparent
over-dispersion imperfect size measurement alone can produce.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .diagnostics import DiagnosticsError, dispersion
from .glm import INTERCEPT, DesignError, ModelSpec, SeparationError, build_design, fit_poisson
from .ingest import Dataset

log = logging.getLogger(__name__)

#: The three size proxies, in design order.
PROXY_COLUMNS = (
    "assigned_ips_log10",
    "hosting_ips_log10",
    "hosted_domains_log10",
)

#: Noise preset taken literally from the observed size variables: each
#: proxy's noise uses the mean and sd of the corresponding population
#: column, which makes the noise as large as the signal.
MEASURED_NOISE = {
    "assigned_ips_log10": (3.1, 1.2),
    "hosting_ips_log10": (1.8, 0.8),
    "hosted_domains_log10": (2.0, 0.9),
}

#: Noise presets by name: no noise, or the measured noise above.
NOISE_PRESETS = {
    "zero": {c: (0.0, 0.0) for c in PROXY_COLUMNS},
    "measured": MEASURED_NOISE,
}

#: Latent-size defaults: the observed hosted-domains column's moments,
#: and the observed mean abuse count the link intercept is solved for.
DEFAULT_SIZE_MEAN = 2.0
DEFAULT_SIZE_SD = 0.9
DEFAULT_TARGET_MEAN = 2.8

#: Linear predictors above this are capped before exponentiation.
ETA_CAP = 30.0

#: Errors of one replicate's design, fit or dispersion that are recorded
#: as a replicate failure; any other exception is a fault and propagates.
REPLICATE_ERRORS = (DesignError, SeparationError, DiagnosticsError)


class SimulationError(ValueError):
    """Raised for invalid simulation configs or all-failed runs."""


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of the synthetic-population study.

    The latent size s_i is Normal(true_size_mean, true_size_sd) and the
    response is Poisson(exp(a + b * s_i)). When ``link_intercept`` is None
    it is solved so the population mean of lambda equals ``target_mean``
    (lognormal mean identity). ``noise`` maps each proxy column to its
    (mu_f, sigma_f) normal-noise parameters on the log10 scale.
    """

    n: int = 10_000
    true_size_mean: float = DEFAULT_SIZE_MEAN
    true_size_sd: float = DEFAULT_SIZE_SD
    link_slope: float = 1.0
    link_intercept: float | None = None
    target_mean: float = DEFAULT_TARGET_MEAN
    noise: Mapping[str, tuple[float, float]] = field(default_factory=lambda: NOISE_PRESETS["zero"])
    replicates: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise SimulationError("population size must be positive")
        if self.replicates < 1:
            raise SimulationError("replicates must be >= 1")
        if self.true_size_sd < 0:
            raise SimulationError("true_size_sd must be >= 0")
        if self.target_mean <= 0:
            raise SimulationError("target_mean must be > 0")
        if self.rng_seed < 0:
            raise SimulationError("rng_seed must be >= 0")
        noise = {c: (float(m), float(s)) for c, (m, s) in dict(self.noise).items()}
        missing = set(PROXY_COLUMNS) - set(noise)
        if missing:
            raise SimulationError(f"noise parameters missing for {sorted(missing)}")
        if any(s < 0 for _, s in noise.values()):
            raise SimulationError("noise sd must be >= 0")
        object.__setattr__(self, "noise", noise)

    @property
    def resolved_intercept(self) -> float:
        """Link intercept; solved from target_mean when not set explicitly."""
        if self.link_intercept is not None:
            return self.link_intercept
        b = self.link_slope
        return (
            math.log(self.target_mean)
            - b * self.true_size_mean
            - 0.5 * (b * self.true_size_sd) ** 2
        )


@dataclass
class SimulationResult:
    """Per-replicate dispersion, coefficient and standard-error samples."""

    dispersion_samples: np.ndarray  # NaN where a replicate failed
    coefficient_samples: np.ndarray  # replicates x coefficients, NaN = absent
    se_samples: np.ndarray  # same shape as coefficient_samples
    coefficient_names: tuple[str, ...]
    failures: list[tuple[int, str]]
    config: SimulationConfig
    reference_coefficients: dict[str, float] | None = None


def _replicate_rng(cfg: SimulationConfig, replicate_index: int) -> np.random.Generator:
    # Seeding with (seed, replicate) gives independent, index-addressable
    # streams, so parallel and serial execution agree draw for draw.
    return np.random.default_rng([cfg.rng_seed, replicate_index])


def gen_population(cfg: SimulationConfig, replicate_index: int) -> Dataset:
    """Generate one synthetic population, deterministic per (seed, index).

    Draw order is fixed: latent sizes, then the Poisson response, then one
    noise vector per proxy column in declared order. Linear predictors
    above ``ETA_CAP`` are capped before exponentiation and logged.
    """
    rng = _replicate_rng(cfg, replicate_index)
    s = rng.normal(cfg.true_size_mean, cfg.true_size_sd, cfg.n)
    eta = cfg.resolved_intercept + cfg.link_slope * s
    n_capped = int(np.sum(eta > ETA_CAP))
    if n_capped:
        log.warning(
            "replicate %d: capped %d linear predictors at %g",
            replicate_index,
            n_capped,
            ETA_CAP,
        )
        eta = np.minimum(eta, ETA_CAP)
    y = rng.poisson(np.exp(eta))
    proxies = {
        col: s + rng.normal(mu, sigma, cfg.n)
        for col, (mu, sigma) in ((c, cfg.noise[c]) for c in PROXY_COLUMNS)
    }
    return Dataset(
        {
            "provider_id": [f"sim{i:06d}" for i in range(cfg.n)],
            **proxies,
            "pct_shared": np.zeros(cfg.n),
            "abuse_count": y,
        },
        source_label=f"synthetic:{replicate_index}",
    )


def run_monte_carlo(
    cfg: SimulationConfig,
    reference_coefficients: dict[str, float] | None = None,
) -> SimulationResult:
    """Generate and refit ``cfg.replicates`` synthetic populations.

    Each replicate fits the Poisson GLM on the three noisy size proxies
    and records the dispersion estimate and coefficient vector. A replicate
    whose design, fit or dispersion fails with one of ``REPLICATE_ERRORS``
    is recorded with its reason and the run continues.
    """
    spec = ModelSpec(response="abuse_count", predictors=PROXY_COLUMNS)
    names = (INTERCEPT,) + PROXY_COLUMNS
    phis = np.full(cfg.replicates, np.nan)
    coefs = np.full((cfg.replicates, len(names)), np.nan)
    ses = np.full((cfg.replicates, len(names)), np.nan)
    failures: list[tuple[int, str]] = []
    for rep in range(cfg.replicates):
        try:
            data = gen_population(cfg, rep)
            dm = build_design(data, spec)
            fit = fit_poisson(dm)
            phis[rep] = dispersion(fit.y, fit.fitted, fit.k, fit.has_intercept).phi_hat
            for j, name in enumerate(names):
                if name in fit.coefficients:
                    coefs[rep, j] = fit.coefficients[name]
                    ses[rep, j] = fit.standard_errors[name]
        except REPLICATE_ERRORS as exc:
            failures.append((rep, f"{type(exc).__name__}: {exc}"))
    return SimulationResult(
        dispersion_samples=phis,
        coefficient_samples=coefs,
        se_samples=ses,
        coefficient_names=names,
        failures=failures,
        config=cfg,
        reference_coefficients=dict(reference_coefficients)
        if reference_coefficients
        else None,
    )


def nearest_rank_quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the ceil(q*n)-th smallest sample (1-indexed)."""
    ordered = np.sort(np.asarray(samples, dtype=float))
    if ordered.size == 0:
        raise SimulationError("quantile of an empty sample")
    rank = max(1, math.ceil(q * ordered.size))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class CoefficientSummary:
    term: str
    n: int
    mean: float
    q025: float
    q975: float
    reference: float | None = None
    reference_deviation: float | None = None  # reference - replicate mean


@dataclass
class SimulationSummary:
    """Replicate-level summary: coefficient spread and dispersion histogram."""

    coefficients: list[CoefficientSummary]
    dispersion_mean: float
    dispersion_q025: float
    dispersion_q975: float
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    n_successful: int
    n_failed: int


def summarize(res: SimulationResult) -> SimulationSummary:
    """Summarize a Monte Carlo run.

    Quantiles are nearest-rank; the dispersion histogram uses fixed-width
    bins over the observed range with ceil(sqrt(replicates)) bins.
    """
    phis = res.dispersion_samples[~np.isnan(res.dispersion_samples)]
    if phis.size == 0:
        raise SimulationError("all replicates failed; nothing to summarize")

    coeffs = []
    for j, name in enumerate(res.coefficient_names):
        col = res.coefficient_samples[:, j]
        col = col[~np.isnan(col)]
        if col.size == 0:
            continue
        ref = (res.reference_coefficients or {}).get(name)
        mean = float(col.mean())
        coeffs.append(
            CoefficientSummary(
                term=name,
                n=int(col.size),
                mean=mean,
                q025=nearest_rank_quantile(col, 0.025),
                q975=nearest_rank_quantile(col, 0.975),
                reference=ref,
                reference_deviation=None if ref is None else ref - mean,
            )
        )

    n_bins = math.ceil(math.sqrt(len(res.dispersion_samples)))
    lo, hi = float(phis.min()), float(phis.max())
    if lo == hi:
        hi = lo + 1.0  # degenerate range: single non-empty bin
    counts, edges = np.histogram(phis, bins=n_bins, range=(lo, hi))
    return SimulationSummary(
        coefficients=coeffs,
        dispersion_mean=float(phis.mean()),
        dispersion_q025=nearest_rank_quantile(phis, 0.025),
        dispersion_q975=nearest_rank_quantile(phis, 0.975),
        histogram_edges=edges,
        histogram_counts=counts,
        n_successful=int(phis.size),
        n_failed=len(res.failures),
    )
