"""Goodness-of-fit: dispersion, deviance, pseudo-R2, comparative rankings."""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import special

from .ingest import Dataset

if TYPE_CHECKING:  # annotations only: glm imports deviance from here
    from . import glm


class DiagnosticsError(ValueError):
    """Raised when a diagnostic is undefined for the given inputs."""


@dataclass(frozen=True)
class DispersionReport:
    """Pearson chi-square dispersion estimate phi = chi2 / df.

    ``df`` is n minus the number of estimated coefficients: n - k - 1
    with an intercept, n - k without one.
    """

    phi_hat: float
    chi_square: float
    df: int


@dataclass(frozen=True)
class FitAssessment:
    """Dispersion-penalized pseudo-R2 of a fit against a nested baseline."""

    deviance_model: float
    deviance_baseline: float
    pseudo_r2: float
    baseline_kind: str  # "intercept_only" | "fixed_effects_only" | "self"
    phi_hat: float
    k_penalty: int


@dataclass(frozen=True)
class ProviderScore:
    """Observed-vs-predicted comparison, one array per field, in rank order."""

    provider_id: np.ndarray
    predicted: np.ndarray
    observed: np.ndarray
    ratio: np.ndarray
    pearson_residual: np.ndarray
    better_than_average: np.ndarray


def dispersion(y, lambda_hat, k: int, intercept: bool = True) -> DispersionReport:
    """Estimate the dispersion parameter from the Pearson chi-square.

    phi_hat = sum_i (y_i - lambda_i)^2 / lambda_i, divided by the residual
    degrees of freedom: n minus the number of estimated coefficients, that
    is n - k - 1 where ``k`` counts the fitted covariates excluding the
    intercept, or n - k for a fit without an ``intercept``. For an
    intercept-only fit (k = 0, lambda = mean(y)) this equals the sample
    variance over the mean exactly.

    Raises
    ------
    DiagnosticsError
        If df <= 0 or any lambda_i <= 0.
    """
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lambda_hat, dtype=float)
    if np.any(lam <= 0):
        raise DiagnosticsError("lambda_hat must be strictly positive")
    df = int(y.size) - k - int(intercept)
    if df <= 0:
        raise DiagnosticsError(f"non-positive degrees of freedom (n={y.size}, k={k})")
    chi2 = float(np.sum((y - lam) ** 2 / lam))
    return DispersionReport(phi_hat=chi2 / df, chi_square=chi2, df=df)


def deviance(y, lambda_hat) -> float:
    """Poisson deviance 2 sum[y ln(y/lambda) - (y - lambda)].

    The y = 0 limit is handled analytically: a zero count contributes
    exactly 2 * lambda_i.
    """
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lambda_hat, dtype=float)
    if np.any(lam <= 0):
        raise DiagnosticsError("lambda_hat must be strictly positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = special.xlogy(y, y / lam) - (y - lam)
    return float(2.0 * np.sum(terms))


def _baseline_kind(fit: glm.FitResult, baseline: glm.FitResult) -> str:
    if baseline.spec == fit.spec:
        # a model against itself: R2 = -k*phi/D <= 0 (the pure penalty)
        return "self"
    if baseline.spec.predictors:
        raise DiagnosticsError(
            "baseline must be intercept-only or fixed-effects-only (no predictors)"
        )
    if not baseline.spec.fixed_effects:
        return "intercept_only"
    if not set(baseline.spec.fixed_effects) <= set(fit.spec.fixed_effects):
        raise DiagnosticsError("baseline fixed effects are not nested in the fit")
    return "fixed_effects_only"


def pseudo_r2(fit: glm.FitResult, baseline: glm.FitResult) -> FitAssessment:
    """Dispersion-adjusted pseudo-R2: 1 - (D_model + k*phi) / D_baseline.

    ``phi`` is the fitted model's own dispersion estimate. Against an
    intercept-only baseline ``k`` counts every non-intercept coefficient;
    against a fixed-effects-only baseline ``k`` counts only the predictor
    coefficients added beyond the baseline (the conservative variant). The
    value is at most 1 and may be negative when the penalty outweighs the
    deviance actually explained.
    """
    if fit.n != baseline.n or not np.array_equal(fit.y, baseline.y):
        raise DiagnosticsError("fit and baseline were estimated on different rows")
    kind = _baseline_kind(fit, baseline)
    d_model, d_base = fit.deviance, baseline.deviance
    if d_base == 0:
        raise DiagnosticsError("baseline deviance is zero (already-perfect baseline)")
    if kind in ("intercept_only", "self"):
        k_penalty = fit.k
    else:  # the predictors the design kept; the rest of it is intercept and dummies
        k_penalty = len(fit.kept_predictors)
    phi = dispersion(fit.y, fit.fitted, fit.k, fit.has_intercept).phi_hat
    r2 = 1.0 - (d_model + k_penalty * phi) / d_base
    return FitAssessment(
        deviance_model=d_model,
        deviance_baseline=d_base,
        pseudo_r2=r2,
        baseline_kind=kind,
        phi_hat=phi,
        k_penalty=k_penalty,
    )


def rank_providers(d: Dataset, fit: glm.FitResult) -> ProviderScore:
    """Comparative ranking of observed against model-predicted counts.

    Rows are sorted by Pearson residual ascending, then provider id, so
    the providers doing best relative to their structural prediction come
    first; one observed below its prediction is flagged better-than-average.
    ``fit.row_index`` holds positions in ``d``, the table the fit's design
    was built on. There is one entry per fitted row, so a provider that
    appears in two twins is ranked once per twin.
    """
    if fit.row_index is None or len(fit.row_index) != fit.n:
        raise DiagnosticsError("fit does not carry row indices for this dataset")
    if len(d) <= int(np.max(fit.row_index)):
        raise DiagnosticsError("fit rows do not cover the given dataset")
    ids = d.column("provider_id")[fit.row_index]
    if None in ids:  # ties are broken by id, so every id must compare
        raise DiagnosticsError("a fitted row has no provider_id")
    residual = (fit.y - fit.fitted) / np.sqrt(fit.fitted)
    # two stable sorts: by residual, and within equal residuals by id
    order = np.argsort(ids, kind="stable")
    order = order[np.argsort(residual[order], kind="stable")]
    observed, predicted = fit.y[order], fit.fitted[order]
    return ProviderScore(
        provider_id=ids[order],
        predicted=predicted,
        observed=observed.astype(np.int64),
        ratio=observed / predicted,
        pearson_residual=residual[order],
        better_than_average=observed < predicted,
    )
