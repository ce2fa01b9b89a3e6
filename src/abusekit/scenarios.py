"""Quantitative interpretation of fitted models: baselines and partial effects.

Under the log link a one-unit change in a covariate multiplies the
expected count by exp(coefficient), independent of where the baseline
sits; scenario tables turn that multiplier into absolute count changes at
concrete baseline providers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .glm import FitResult, predict
from .ingest import Dataset

#: Baseline values of a typical small shared-hosting provider and a large
#: dedicated-hosting provider on the four structural predictors.
SMALL_SHARED_BASELINE = {
    "assigned_ips_log10": 0.47,
    "hosting_ips_log10": 0.47,
    "hosted_domains_log10": 1.95,
    "pct_shared": 100.0,
}
LARGE_DEDICATED_BASELINE = {
    "assigned_ips_log10": 6.85,
    "hosting_ips_log10": 5.67,
    "hosted_domains_log10": 5.68,
    "pct_shared": 0.48,
}


class ScenarioError(ValueError):
    """Raised for scenarios that do not match the fitted model."""


@dataclass(frozen=True)
class ScenarioSpec:
    """A named baseline provider plus per-variable increments.

    ``baseline`` supplies one value per model predictor (and a level per
    fixed-effect factor, defaulting to the reference level). ``deltas``
    default to one unit per variable; percent-scale variables use one
    percentage point as their unit, which is the same number.
    """

    name: str
    baseline: Mapping[str, object]
    deltas: Mapping[str, float] | None = None


@dataclass(frozen=True)
class ScenarioRow:
    scenario: str
    variable: str
    delta: float
    multiplier: float
    baseline_lambda: float
    incremented_lambda: float
    absolute_change: float


def partial_effect(fit: FitResult, variable: str, delta: float = 1.0) -> float:
    """Multiplicative change exp(coef * delta) in the expected count.

    Exact under the log link and therefore identical at every baseline.

    Raises
    ------
    ScenarioError
        If the variable has no coefficient in the fit.
    """
    if variable not in fit.coefficients:
        raise ScenarioError(f"no coefficient for variable {variable!r}")
    return float(math.exp(fit.coefficients[variable] * delta))


def _resolve_baseline(fit: FitResult, scenario: ScenarioSpec) -> dict:
    resolved: dict = {}
    for name in fit.kept_predictors:
        if name not in scenario.baseline:
            raise ScenarioError(
                f"scenario {scenario.name!r} misses a baseline value for {name!r}"
            )
        resolved[name] = float(scenario.baseline[name])  # type: ignore[arg-type]
    for factor in fit.spec.fixed_effects:
        levels = fit.factor_levels.get(factor)
        if factor in scenario.baseline:
            resolved[factor] = str(scenario.baseline[factor])
        elif levels:
            resolved[factor] = levels[0]  # reference level by default
        else:
            raise ScenarioError(f"no levels known for fixed effect {factor!r}")
    return resolved


def scenario_table(fit: FitResult, scenarios: Sequence[ScenarioSpec]) -> list[ScenarioRow]:
    """Per-scenario, per-variable expected-count changes.

    For each scenario the baseline expected count is predicted once; each
    variable's row multiplies it by the variable's partial effect, so the
    incremented-over-baseline ratio equals the multiplier exactly while
    the absolute change depends on the baseline.
    """
    rows = []
    for scenario in scenarios:
        baseline = _resolve_baseline(fit, scenario)
        base_lambda = predict(fit, baseline)
        deltas = scenario.deltas or {}
        for variable in fit.kept_predictors:
            delta = float(deltas.get(variable, 1.0))
            mult = partial_effect(fit, variable, delta)
            incremented = base_lambda * mult
            rows.append(
                ScenarioRow(
                    scenario=scenario.name,
                    variable=variable,
                    delta=delta,
                    multiplier=mult,
                    baseline_lambda=base_lambda,
                    incremented_lambda=incremented,
                    absolute_change=incremented - base_lambda,
                )
            )
    return rows


def median_scenario(d: Dataset, predictors: Sequence[str]) -> ScenarioSpec:
    """Baseline scenario with every predictor at its population median."""
    baseline = {}
    for col in predictors:
        values = d.numeric(col)
        values = values[~np.isnan(values)]
        if values.size == 0:
            raise ScenarioError(f"column {col!r} has no values to take a median of")
        baseline[col] = float(np.median(values))
    return ScenarioSpec(name="median-provider", baseline=baseline)


def builtin_scenarios(d: Dataset, predictors: Sequence[str]) -> list[ScenarioSpec]:
    """The three standard baselines: medians, small-shared, large-dedicated.

    The small/large presets only apply when the model's predictors are
    exactly the four structural variables they give values for.
    """
    out = [median_scenario(d, predictors)]
    if sorted(predictors) == sorted(SMALL_SHARED_BASELINE):
        out.append(ScenarioSpec("small-shared-provider", dict(SMALL_SHARED_BASELINE)))
        out.append(ScenarioSpec("large-dedicated-provider", dict(LARGE_DEDICATED_BASELINE)))
    return out
