import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abusekit.glm import INTERCEPT, ModelSpec, dummy_name
from abusekit.scenarios import (
    LARGE_DEDICATED_BASELINE,
    SMALL_SHARED_BASELINE,
    ScenarioError,
    ScenarioSpec,
    builtin_scenarios,
    median_scenario,
    partial_effect,
    scenario_table,
)

from conftest import make_dataset
from test_glm import manual_fit

STRUCTURAL = (
    "assigned_ips_log10",
    "hosting_ips_log10",
    "hosted_domains_log10",
    "pct_shared",
)


def structural_fit():
    spec = ModelSpec("abuse_count", STRUCTURAL)
    coefs = {
        INTERCEPT: -6.755,
        "assigned_ips_log10": -0.768,
        "hosting_ips_log10": 1.570,
        "hosted_domains_log10": 1.238,
        "pct_shared": 0.027,
    }
    return manual_fit(coefs, spec)


class TestPartialEffect:
    def test_published_multipliers(self):
        fit = manual_fit({"x": 1.186}, ModelSpec("abuse_count", ("x",)))
        assert partial_effect(fit, "x", 1.0) == pytest.approx(3.273, abs=1e-3)
        fit = manual_fit({"x": -0.007}, ModelSpec("abuse_count", ("x",)))
        assert partial_effect(fit, "x", 1.0) == pytest.approx(0.993, abs=1e-3)

    def test_zero_delta(self):
        fit = manual_fit({"x": 123.0}, ModelSpec("abuse_count", ("x",)))
        assert partial_effect(fit, "x", 0.0) == 1.0

    def test_unknown_variable(self):
        fit = manual_fit({"x": 1.0}, ModelSpec("abuse_count", ("x",)))
        with pytest.raises(ScenarioError):
            partial_effect(fit, "y", 1.0)

    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
    )
    def test_additive_in_delta(self, a, b):
        fit = manual_fit({"x": 0.37}, ModelSpec("abuse_count", ("x",)))
        combined = partial_effect(fit, "x", a + b)
        assert combined == pytest.approx(
            partial_effect(fit, "x", a) * partial_effect(fit, "x", b), rel=1e-12
        )


class TestScenarioTable:
    def test_presets_accepted_verbatim(self):
        fit = structural_fit()
        rows = scenario_table(
            fit,
            [
                ScenarioSpec("small", SMALL_SHARED_BASELINE),
                ScenarioSpec("large", LARGE_DEDICATED_BASELINE),
            ],
        )
        assert {r.scenario for r in rows} == {"small", "large"}
        assert len(rows) == 8  # four variables per scenario

    def test_ratio_identity(self):
        fit = structural_fit()
        rows = scenario_table(
            fit, [ScenarioSpec("small", SMALL_SHARED_BASELINE)]
        )
        for r in rows:
            assert r.incremented_lambda / r.baseline_lambda == pytest.approx(
                r.multiplier, rel=1e-12
            )
            assert r.absolute_change == pytest.approx(
                r.baseline_lambda * (r.multiplier - 1), rel=1e-12
            )

    def test_multiplier_baseline_independent_but_changes_differ(self):
        fit = structural_fit()
        baselines = [
            SMALL_SHARED_BASELINE,
            LARGE_DEDICATED_BASELINE,
            dict(zip(STRUCTURAL, (3.2, 1.7, 1.8, 59.0))),
        ]
        tables = [
            scenario_table(fit, [ScenarioSpec(f"s{i}", b)])
            for i, b in enumerate(baselines)
        ]
        for var_idx in range(len(STRUCTURAL)):
            multipliers = {t[var_idx].multiplier for t in tables}
            assert len(multipliers) == 1  # identical across all baselines
        changes = {t[0].absolute_change for t in tables}
        assert len(changes) == 3  # absolute effects depend on the baseline

    def test_missing_baseline_value_rejected(self):
        fit = structural_fit()
        with pytest.raises(ScenarioError, match="misses a baseline"):
            scenario_table(fit, [ScenarioSpec("bad", {"pct_shared": 1.0})])

    def test_fixed_effect_defaults_to_reference_level(self):
        spec = ModelSpec("abuse_count", ("pct_shared",), ("country",))
        fit = manual_fit(
            {INTERCEPT: 0.0, "pct_shared": 0.1, dummy_name("country", "US"): 2.0},
            spec,
            factor_levels={"country": ["DE", "US"]},
        )
        rows_ref = scenario_table(fit, [ScenarioSpec("s", {"pct_shared": 0.0})])
        rows_us = scenario_table(
            fit, [ScenarioSpec("s", {"pct_shared": 0.0, "country": "US"})]
        )
        assert rows_ref[0].baseline_lambda == pytest.approx(1.0)
        assert rows_us[0].baseline_lambda == pytest.approx(np.exp(2.0))

    def test_custom_delta(self):
        fit = structural_fit()
        spec = ScenarioSpec(
            "s",
            SMALL_SHARED_BASELINE,
            deltas={"pct_shared": 10.0},
        )
        rows = {r.variable: r for r in scenario_table(fit, [spec])}
        assert rows["pct_shared"].multiplier == pytest.approx(np.exp(0.027 * 10))


class TestBuiltinScenarios:
    def test_median_scenario_uses_column_medians(self):
        d = make_dataset(
            [
                {"pct_shared": 0.0, "assigned_ips_log10": 1.0},
                {"pct_shared": 50.0, "assigned_ips_log10": 2.0},
                {"pct_shared": 100.0, "assigned_ips_log10": 9.0},
            ]
        )
        s = median_scenario(d, ["assigned_ips_log10", "pct_shared"])
        assert s.baseline == {"assigned_ips_log10": 2.0, "pct_shared": 50.0}

    def test_three_presets_for_structural_models(self):
        d = make_dataset([{"pct_shared": 10.0 * i} for i in range(5)])
        specs = builtin_scenarios(d, list(STRUCTURAL))
        assert [s.name for s in specs] == [
            "median-provider",
            "small-shared-provider",
            "large-dedicated-provider",
        ]
        small = specs[1]
        assert small.baseline == SMALL_SHARED_BASELINE

    def test_presets_skipped_for_other_predictor_sets(self):
        d = make_dataset([{"price_per_year": float(i)} for i in range(5)])
        specs = builtin_scenarios(d, ["price_per_year"])
        assert [s.name for s in specs] == ["median-provider"]

    def test_presets_skipped_for_four_other_predictors(self):
        # four predictors, but not the structural ones the presets describe
        predictors = ["price_per_year", "popularity_index", "time_in_business", "wordpress_use"]
        d = make_dataset([{p: 0.1 * i for p in predictors} for i in range(5)])
        specs = builtin_scenarios(d, predictors)
        assert [s.name for s in specs] == ["median-provider"]
