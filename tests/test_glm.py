import copy
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, optimize

from abusekit import glm
from abusekit.diagnostics import deviance
from abusekit.glm import (
    COLLINEARITY_RTOL,
    DEVIANCE_RTOL,
    INTERCEPT,
    MAX_HALVINGS,
    MAX_ITERATIONS,
    SCORE_ATOL,
    SEPARATION_THRESHOLD,
    DesignError,
    DesignMatrix,
    FitResult,
    ModelSpec,
    SeparationError,
    aic,
    build_design,
    dummy_name,
    fit_poisson,
    log_likelihood,
    predict,
    score_vector,
    star_label,
    wald_tests,
    _Block,
    _solve_normal_equations,
)
from abusekit.ingest import Dataset

from conftest import STRUCTURAL, country_table, make_dataset, traced_peak


def poisson_nll(beta, X, y):
    lam = np.exp(X @ beta)
    return -(np.sum(-lam + y * np.log(lam)))


def reference_mle(X, y, p):
    """Independent numeric maximizer of the Poisson log-likelihood."""
    res = optimize.minimize(
        poisson_nll,
        np.zeros(p),
        args=(X, y),
        jac=lambda b, X, y: -(X.T @ (y - np.exp(X @ b))),
        method="BFGS",
        options={"gtol": 1e-10, "maxiter": 500},
    )
    return res.x


def reference_rank_filter(candidate):
    """Greedy rank filter as a per-vector modified Gram-Schmidt loop.

    The oracle for ``build_design``'s filter: same column order, same
    ``COLLINEARITY_RTOL`` test, two projection passes, one basis vector
    at a time. Returns the kept names and the ``dropped`` list.
    """
    kept, dropped, basis = [], [], []
    for name, col in candidate:
        norm = np.linalg.norm(col)
        if norm == 0.0:
            dropped.append((name, "all-zero column"))
            continue
        v = col.astype(float)
        for _ in range(2):
            for q in basis:
                v = v - q * (q @ v)
        resid = np.linalg.norm(v)
        if resid <= COLLINEARITY_RTOL * norm:
            dropped.append((name, "collinear with earlier columns"))
            continue
        basis.append(v / resid)
        kept.append(name)
    return kept, dropped


def candidate_columns(d, spec, dm):
    """The columns ``build_design`` offers its rank filter, in filter order."""
    rows = dm.row_index
    candidate = [(INTERCEPT, np.ones(rows.size))] if spec.include_intercept else []
    candidate += [(name, d.numeric(name)[rows]) for name in spec.predictors]
    for factor in spec.fixed_effects:
        labels = np.array([str(v) for v in d.column(factor)[rows].tolist()])
        for level in dm.factor_levels[factor][1:]:
            candidate.append((dummy_name(factor, level), (labels == level).astype(float)))
    return candidate


#: Planted collinearities, each carried by its own predictor column.
PLANTS = {
    "scaled_duplicate": "hosting_ips_log10",  # 2 * the base predictor
    "within_1e-9": "hosted_domains_log10",  # base + 1e-9 noise: collinear
    "within_1e-6": "pct_shared",  # base + 1e-6 noise: kept
    "constant_within_twins": "popularity_index",  # last twin dummy collinear
    "all_zero_after_exclusion": "time_in_business",  # 0 where present
}


@st.composite
def planted_designs(draw):
    """A twin dataset and spec with a drawn set of planted collinearities."""
    # with 10+ rows the 1e-6 plant's residual stays far above the tolerance
    n_twins = draw(st.integers(min_value=5, max_value=12))
    plants = draw(st.sets(st.sampled_from(sorted(PLANTS))))
    factors = draw(
        st.sampled_from([(), ("twin_id",), ("twin_id", "country"), ("country", "twin_id")])
    )
    country_within_twins = draw(st.booleans())
    include_intercept = draw(st.booleans())
    r = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    # an all-zero-after-exclusion column needs rows to exclude: one more twin
    n_rows = 2 * (n_twins + ("all_zero_after_exclusion" in plants))
    twin = np.arange(n_rows) // 2
    base = r.uniform(1.0, 2.0, n_rows)
    columns = {
        "provider_id": [f"p{i}" for i in range(n_rows)],
        "assigned_ips_log10": base,
        "hosting_ips_log10": 2.0 * base,
        "hosted_domains_log10": base + 1e-9 * r.normal(size=n_rows),
        "pct_shared": base + 1e-6 * r.normal(size=n_rows),
        "popularity_index": r.normal(size=twin.max() + 1)[twin],
        "time_in_business": np.where(twin == twin.max(), np.nan, 0.0),
        "abuse_count": r.poisson(2.0, n_rows),
        "twin_id": [f"t{t:02d}" for t in twin],
    }
    levels = np.array(["DE", "NL", "US"])
    if country_within_twins:
        columns["country"] = levels[twin % 3]
    else:
        columns["country"] = levels[r.permutation(n_rows) % 3]
    d = Dataset(columns)
    predictors = ("assigned_ips_log10",) + tuple(PLANTS[p] for p in sorted(plants))
    spec = ModelSpec("abuse_count", predictors, factors, include_intercept)
    return d, spec, plants


class TestBuildDesign:
    def test_drop_first_dummy_coding(self):
        d = make_dataset(
            [{"country": c, "abuse_count": 1} for c in ["US", "DE", "NL", "DE"]]
        )
        dm = build_design(d, ModelSpec("abuse_count", fixed_effects=("country",)))
        assert dm.columns == [INTERCEPT, "country[NL]", "country[US]"]
        assert dm.factor_levels["country"] == ["DE", "NL", "US"]
        assert dm.X[:, 1].tolist() == [0, 0, 1, 0]

    def test_105_twins_give_104_dummies(self):
        rows = []
        for t in range(105):
            for member in range(2):
                rows.append({"twin_id": f"t{t:03d}", "abuse_count": t + member})
        d = make_dataset(rows)
        dm = build_design(d, ModelSpec("abuse_count", fixed_effects=("twin_id",)))
        assert len(dm.columns) == 1 + 104

    def test_constant_within_twin_predictor_dropped(self):
        rows = []
        for t in range(4):
            for member in range(2):
                rows.append(
                    {
                        "twin_id": f"t{t}",
                        "hosted_domains_log10": float(t),  # constant per twin
                        "abuse_count": t + member,
                    }
                )
        d = make_dataset(rows)
        dm = build_design(
            d,
            ModelSpec(
                "abuse_count",
                predictors=("hosted_domains_log10",),
                fixed_effects=("twin_id",),
            ),
        )
        # the predictor comes before the dummies, so the last dummy falls out
        assert ("twin_id[t3]", "collinear with earlier columns") in dm.dropped
        assert "hosted_domains_log10" in dm.columns

    def test_missing_rows_excluded_and_counted(self):
        d = make_dataset(
            [
                {"price_per_year": 10.0, "abuse_count": 1},
                {"price_per_year": None, "abuse_count": 2},
                {"price_per_year": 30.0, "abuse_count": 3},
            ]
        )
        dm = build_design(d, ModelSpec("abuse_count", predictors=("price_per_year",)))
        assert dm.n == 2
        assert dm.excluded_rows == 1
        assert dm.row_index.tolist() == [0, 2]

    def test_matches_row_loop_reference(self, rng):
        countries = ["NL", "DE", None, "US", "\u00c4"]
        rows = [
            {
                "price_per_year": None if rng.random() < 0.2 else float(rng.normal()),
                "country": countries[int(rng.integers(5))],
                "time_in_business": float(rng.integers(0, 4)),  # numeric factor
                "abuse_count": int(rng.integers(0, 9)),
            }
            for _ in range(60)
        ]
        d = make_dataset(rows)
        factors = ("country", "time_in_business")
        dm = build_design(d, ModelSpec("abuse_count", ("price_per_year",), factors))
        # row-wise reference: complete rows, str() levels in sorted order
        used = ("abuse_count", "price_per_year") + factors
        by_row = [dict(zip(used, row)) for row in zip(*(d.column(c).tolist() for c in used))]
        # missing is None in string columns and NaN (v != v) in float columns
        keep = [
            i for i, r in enumerate(by_row)
            if all(r[c] is not None and r[c] == r[c] for c in used)
        ]
        kept = [by_row[i] for i in keep]
        expected = {
            INTERCEPT: [1.0] * len(kept),
            "price_per_year": [r["price_per_year"] for r in kept],
        }
        for factor in factors:
            values = [str(r[factor]) for r in kept]
            assert dm.factor_levels[factor] == sorted(set(values))
            for level in sorted(set(values))[1:]:
                expected[f"{factor}[{level}]"] = [float(v == level) for v in values]
        assert dm.row_index.tolist() == keep
        assert dm.y.tolist() == [float(r["abuse_count"]) for r in kept]
        assert set(dm.columns) | {name for name, _ in dm.dropped} == set(expected)
        for j, name in enumerate(dm.columns):
            assert dm.X[:, j].tolist() == expected[name]

    @settings(max_examples=150, deadline=None)
    @given(planted_designs())
    def test_rank_filter_matches_gram_schmidt_loop(self, case):
        d, spec, plants = case
        dm = build_design(d, spec)
        candidate = candidate_columns(d, spec, dm)
        kept, dropped = reference_rank_filter(candidate)
        assert dm.columns == kept
        assert dm.dropped == dropped
        cols = dict(candidate)
        assert np.array_equal(dm.X, np.column_stack([cols[name] for name in kept]))
        assert dm.X.flags.c_contiguous
        # the narrower specs a fit command restricts from this design: each
        # stepwise prefix and the fixed-effects-only and intercept-only
        # baselines, each with and without intercept
        narrower = [replace(spec, predictors=spec.predictors[:k])
                    for k in range(len(spec.predictors) + 1)]
        narrower += [ModelSpec(spec.response, (), spec.fixed_effects), ModelSpec(spec.response)]
        for base in narrower:
            for sub_spec in (replace(base, include_intercept=flag) for flag in (True, False)):
                sub_candidate = candidate_columns(d, sub_spec, dm)
                sub_kept, sub_dropped = reference_rank_filter(sub_candidate)
                if not sub_kept:
                    with pytest.raises(DesignError, match="empty design"):
                        dm.restrict(sub_spec)
                    continue
                sub = dm.restrict(sub_spec)
                assert (sub.columns, sub.dropped) == (sub_kept, sub_dropped)
                sub_cols = dict(sub_candidate)
                assert np.array_equal(sub.X, np.column_stack([sub_cols[n] for n in sub_kept]))
                assert sub.X.flags.c_contiguous
                assert np.array_equal(sub.y, dm.y)
                assert np.array_equal(sub.row_index, dm.row_index)
        with pytest.raises(DesignError, match="not a restriction"):
            dm.restrict(replace(spec, predictors=spec.predictors + ("price_per_year",)))
        # the plants do what they are planted for
        dropped_names = dict(dropped)
        if "scaled_duplicate" in plants:
            assert PLANTS["scaled_duplicate"] in dropped_names
        if "within_1e-9" in plants:
            assert PLANTS["within_1e-9"] in dropped_names
        if "within_1e-6" in plants:
            assert PLANTS["within_1e-6"] in dm.columns
        if "all_zero_after_exclusion" in plants:
            assert dropped_names[PLANTS["all_zero_after_exclusion"]] == "all-zero column"
            assert dm.excluded_rows == 2
        if "constant_within_twins" in plants and "twin_id" in spec.fixed_effects:
            assert PLANTS["constant_within_twins"] in dm.columns
            if spec.include_intercept:
                assert any(name.startswith("twin_id[") for name in dropped_names)

    @settings(max_examples=150, deadline=None)
    @given(planted_designs(), st.integers(min_value=1, max_value=4096))
    def test_blockwise_r_keeps_what_a_full_qr_keeps(self, case, block_bytes):
        # rows per block: 1 below 8 bytes per candidate, up to every row
        d, spec, _ = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(glm, "R_BLOCK_BYTES", block_bytes)
            dm = build_design(d, spec)
        # the oracle: one np.linalg.qr of every candidate, the intercept always among them
        candidate = candidate_columns(d, replace(spec, include_intercept=True), dm)
        assert [name for name, _ in candidate] == list(dm._block.position)
        full = copy.copy(dm._block)
        full.R = np.linalg.qr(np.column_stack([col for _, col in candidate]), mode="r")

        # select, not restrict: restrict to a design's own spec copies its columns
        def outcome(block, sub_spec):
            levels = {factor: dm.factor_levels[factor] for factor in sub_spec.fixed_effects}
            try:
                sub = block.select(sub_spec, dm.y, levels, dm.excluded_rows, dm.row_index)
            except DesignError as exc:
                return str(exc)
            return sub.columns, sub.dropped

        assert (dm.columns, dm.dropped) == outcome(full, spec)
        # the widest spec is among these: its every predictor, with either intercept flag
        narrower = [replace(spec, predictors=spec.predictors[:k])
                    for k in range(len(spec.predictors) + 1)]
        narrower += [ModelSpec(spec.response, (), spec.fixed_effects), ModelSpec(spec.response)]
        for base in narrower:
            for sub_spec in (replace(base, include_intercept=flag) for flag in (True, False)):
                assert outcome(dm._block, sub_spec) == outcome(full, sub_spec)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.text(st.characters(exclude_characters="\x00"), max_size=4),
            min_size=2,
            max_size=30,
        ).filter(lambda labels: len(set(labels)) > 1)
    )
    def test_factor_coding_matches_np_unique(self, labels):
        # numpy's "<U" strings drop trailing NULs, so labels hold none
        d = make_dataset([{"country": label} for label in labels])
        dm = build_design(d, ModelSpec("abuse_count", fixed_effects=("country",)))
        levels, codes = np.unique(labels, return_inverse=True)
        assert dm.factor_levels["country"] == levels.tolist()
        assert dm.columns == [INTERCEPT] + [dummy_name("country", v) for v in levels[1:].tolist()]
        assert np.array_equal(dm.X[:, 1:], codes[:, None] == np.arange(1, len(levels)))

    def test_single_level_factor_rejected(self):
        d = make_dataset([{"country": "US", "abuse_count": 1}] * 3)
        with pytest.raises(DesignError, match="single level"):
            build_design(d, ModelSpec("abuse_count", fixed_effects=("country",)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("abuse_count", predictors=("abuse_count",))
        with pytest.raises(ValueError):
            ModelSpec("abuse_count", predictors=("a", "a"))


class TestLogLikelihood:
    def test_hand_values(self):
        assert log_likelihood([1], [1]) == pytest.approx(-1.0)
        assert log_likelihood([0], [2]) == pytest.approx(-2.0)
        assert log_likelihood([2], [2]) == pytest.approx(-2 + 2 * np.log(2) - np.log(2))

    def test_non_positive_lambda_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood([1], [0])

    def test_gradient_matches_finite_differences(self, rng):
        # analytic score X'(y - exp(X beta)) against central differences
        n, p = 40, 3
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        y = rng.poisson(2.0, size=n).astype(float)
        for _ in range(5):
            beta = rng.normal(scale=0.4, size=p)
            analytic = X.T @ (y - np.exp(X @ beta))
            h = 1e-6
            for j in range(p):
                e = np.zeros(p)
                e[j] = h
                hi = log_likelihood(y, np.exp(X @ (beta + e)))
                lo = log_likelihood(y, np.exp(X @ (beta - e)))
                fd = (hi - lo) / (2 * h)
                assert abs(fd - analytic[j]) <= 1e-6 * max(1.0, abs(analytic[j]))


class TestFitPoisson:
    def test_intercept_only_closed_form(self):
        d = make_dataset([1, 2, 3])
        fit = fit_poisson(build_design(d, ModelSpec("abuse_count")))
        assert fit.converged
        assert fit.coefficients[INTERCEPT] == pytest.approx(np.log(2), abs=1e-9)
        assert fit.k == 0 and fit.n == 3

    def test_binary_design_closed_form(self):
        d = make_dataset(
            [
                {"pct_shared": 0.0, "abuse_count": 1},
                {"pct_shared": 0.0, "abuse_count": 3},
                {"pct_shared": 1.0, "abuse_count": 4},
                {"pct_shared": 1.0, "abuse_count": 8},
            ]
        )
        fit = fit_poisson(build_design(d, ModelSpec("abuse_count", ("pct_shared",))))
        assert fit.coefficients[INTERCEPT] == pytest.approx(np.log(2), abs=1e-9)
        assert fit.coefficients["pct_shared"] == pytest.approx(np.log(3), abs=1e-9)

    def test_all_zero_response_is_separation_error(self):
        d = make_dataset([0, 0, 0])
        with pytest.raises(SeparationError):
            fit_poisson(build_design(d, ModelSpec("abuse_count")))

    def test_all_zero_dummy_level_flagged(self):
        rows = [
            {"country": "US", "abuse_count": 5},
            {"country": "US", "abuse_count": 7},
            {"country": "ZZ", "abuse_count": 0},
            {"country": "ZZ", "abuse_count": 0},
        ]
        fit = fit_poisson(
            build_design(make_dataset(rows), ModelSpec("abuse_count", fixed_effects=("country",)))
        )
        assert fit.separated
        assert any("separation" in m for m in fit.messages)

    def test_score_and_moment_identities(self, rng):
        for trial in range(5):
            n = 60
            x1 = rng.normal(size=n)
            x2 = rng.normal(size=n)
            lam = np.exp(0.4 + 0.5 * x1 - 0.3 * x2)
            y = rng.poisson(lam)
            if y.sum() == 0:
                continue
            d = make_dataset(
                [
                    {
                        "hosted_domains_log10": abs(x1[i]),
                        "hosting_ips_log10": abs(x2[i]),
                        "abuse_count": int(y[i]),
                    }
                    for i in range(n)
                ]
            )
            dm = build_design(
                d, ModelSpec("abuse_count", ("hosted_domains_log10", "hosting_ips_log10"))
            )
            fit = fit_poisson(dm)
            assert fit.converged
            assert np.max(np.abs(score_vector(dm, fit))) < 1e-6
            assert abs(fit.fitted.sum() - dm.y.sum()) < 1e-6 * dm.y.sum()

    def test_matches_generic_numeric_maximizer(self, rng):
        # dual-route oracle: BFGS on the raw log-likelihood surface
        for trial in range(25):
            n = int(rng.integers(10, 51))
            k = int(rng.integers(0, 4))
            X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k)])
            beta_true = rng.normal(scale=0.5, size=k + 1)
            y = rng.poisson(np.exp(X @ beta_true))
            if y.sum() == 0:
                continue
            d = make_dataset(
                [
                    dict(
                        abuse_count=int(y[i]),
                        assigned_ips_log10=float(abs(X[i, 1])) if k > 0 else 0.0,
                        hosting_ips_log10=float(abs(X[i, 2])) if k > 1 else 0.0,
                        hosted_domains_log10=float(abs(X[i, 3])) if k > 2 else 0.0,
                    )
                    for i in range(n)
                ]
            )
            predictors = ("assigned_ips_log10", "hosting_ips_log10", "hosted_domains_log10")[:k]
            dm = build_design(d, ModelSpec("abuse_count", predictors))
            fit = fit_poisson(dm)
            reference = reference_mle(dm.X, dm.y.astype(float), len(dm.columns))
            ours = np.array([fit.coefficients[c] for c in dm.columns])
            assert np.max(np.abs(ours - reference)) < 1e-6

    def test_likelihood_dominance_over_intercept_only(self, rng):
        n = 80
        x = rng.normal(size=n)
        y = rng.poisson(np.exp(0.5 + 0.7 * x))
        d = make_dataset(
            [{"pct_shared": float(abs(x[i])), "abuse_count": int(y[i])} for i in range(n)]
        )
        full = fit_poisson(build_design(d, ModelSpec("abuse_count", ("pct_shared",))))
        null = fit_poisson(build_design(d, ModelSpec("abuse_count")))
        assert full.log_likelihood >= null.log_likelihood

    def test_reparameterization_invariance(self, rng):
        n = 100
        x = rng.normal(loc=5.0, scale=2.5, size=n)
        y = rng.poisson(np.exp(0.1 + 0.2 * x))
        d1 = make_dataset(
            [{"pct_shared": float(x[i]), "abuse_count": int(y[i])} for i in range(n)]
        )
        z = (x - x.mean()) / x.std(ddof=1)
        d2 = make_dataset(
            [
                {"hosted_domains_log10": float(z[i] + 5), "abuse_count": int(y[i])}
                for i in range(n)
            ]
        )
        f1 = fit_poisson(build_design(d1, ModelSpec("abuse_count", ("pct_shared",))))
        f2 = fit_poisson(build_design(d2, ModelSpec("abuse_count", ("hosted_domains_log10",))))
        assert f1.log_likelihood == pytest.approx(f2.log_likelihood, abs=1e-8)
        assert f1.aic == pytest.approx(f2.aic, abs=1e-8)
        assert np.allclose(np.sort(f1.fitted), np.sort(f2.fitted), atol=1e-8)
        # slope rescales by the sd of the transformation
        assert f2.coefficients["hosted_domains_log10"] == pytest.approx(
            f1.coefficients["pct_shared"] * x.std(ddof=1), abs=1e-8
        )


def manual_fit(coefficients, spec=None, factor_levels=None):
    return FitResult(
        coefficients=dict(coefficients),
        standard_errors={k: 1.0 for k in coefficients},
        fitted=np.array([]),
        y=np.array([]),
        log_likelihood=0.0,
        deviance=0.0,
        aic=0.0,
        n=0,
        k=len(coefficients),
        converged=True,
        iterations=0,
        spec=spec or ModelSpec("abuse_count"),
        factor_levels=factor_levels or {},
    )


class TestPredict:
    def test_intercept_only_constant(self):
        fit = manual_fit({INTERCEPT: -0.122})
        assert predict(fit, {}) == pytest.approx(np.exp(-0.122))
        assert predict(fit, {}) == pytest.approx(0.885, abs=5e-4)

    def test_unit_increase_multiplies(self):
        spec = ModelSpec("abuse_count", ("assigned_ips_log10",))
        fit = manual_fit({INTERCEPT: 0.0, "assigned_ips_log10": 1.186}, spec)
        base = predict(fit, {"assigned_ips_log10": 2.0})
        up = predict(fit, {"assigned_ips_log10": 3.0})
        assert up / base == pytest.approx(3.273, abs=1e-3)

    def test_zero_coefficients_predict_one(self):
        spec = ModelSpec("abuse_count", ("pct_shared",))
        fit = manual_fit({INTERCEPT: 0.0, "pct_shared": 0.0}, spec)
        assert predict(fit, {"pct_shared": 123.0}) == 1.0

    def test_dropped_predictor_contributes_nothing(self):
        # the design drops an all-zero wordpress_use, so a value for it changes nothing
        rows = [{"pct_shared": float(i), "wordpress_use": 0.0, "abuse_count": i % 4 + i // 3}
                for i in range(12)]
        spec = ModelSpec("abuse_count", ("pct_shared", "wordpress_use"))
        fit = fit_poisson(build_design(make_dataset(rows), spec))
        assert fit.dropped == [("wordpress_use", "all-zero column")]
        assert fit.kept_predictors == ("pct_shared",)
        lam = np.exp(fit.coefficients[INTERCEPT] + 5.0 * fit.coefficients["pct_shared"])
        assert predict(fit, {"pct_shared": 5.0}) == lam
        assert predict(fit, {"pct_shared": 5.0, "wordpress_use": 0.3}) == lam

    def test_unknown_level_and_missing_covariate(self):
        spec = ModelSpec("abuse_count", ("pct_shared",), ("country",))
        fit = manual_fit(
            {INTERCEPT: 0.0, "pct_shared": 0.1, dummy_name("country", "US"): 0.5},
            spec,
            factor_levels={"country": ["DE", "US"]},
        )
        from abusekit.glm import PredictionError

        with pytest.raises(PredictionError, match="unknown level"):
            predict(fit, {"pct_shared": 1.0, "country": "XX"})
        with pytest.raises(PredictionError, match="missing covariate"):
            predict(fit, {"country": "US"})
        assert predict(fit, {"pct_shared": 0.0, "country": "US"}) == pytest.approx(
            np.exp(0.5)
        )
        assert predict(fit, {"pct_shared": 0.0, "country": "DE"}) == 1.0


class TestWaldTests:
    def test_strongly_significant(self):
        fit = manual_fit({"x": 1.186})
        fit.standard_errors["x"] = 0.002
        (t,) = wald_tests(fit)
        assert t.z == pytest.approx(593.0)
        assert t.p < 0.001
        assert t.stars == "***"

    def test_insignificant_price(self):
        fit = manual_fit({"x": 0.0003})
        fit.standard_errors["x"] = 0.0002
        (t,) = wald_tests(fit)
        assert t.z == pytest.approx(1.5)
        assert t.p == pytest.approx(0.1336, abs=5e-4)
        assert t.stars == ""

    def test_zero_estimate(self):
        fit = manual_fit({"x": 0.0})
        (t,) = wald_tests(fit)
        assert t.z == 0.0 and t.p == pytest.approx(1.0) and t.stars == ""

    def test_unavailable_on_zero_se(self):
        fit = manual_fit({"x": 1.0})
        fit.standard_errors["x"] = 0.0
        (t,) = wald_tests(fit)
        assert not t.available and t.stars == ""

    def test_star_thresholds(self):
        assert star_label(0.049) == "*"
        assert star_label(0.009) == "**"
        assert star_label(0.0009) == "***"
        assert star_label(0.05) == ""


class TestAic:
    def test_published_scale_identities(self):
        assert aic(-223_113.400, 1) == pytest.approx(446_228.8, abs=0.05)
        assert aic(-111_570.800, 5) == pytest.approx(223_151.6, abs=0.2)

    def test_published_tables_internally_consistent(self):
        # every published LL/AIC pair solves to an integer parameter count
        # matching its specification (constant + predictors + FE dummies)
        cases = [
            (-514_546.600, 1_029_097.000, 2),  # constant + 1 size variable
            (-236_442.400, 472_890.800, 3),
            (-117_601.700, 235_211.400, 4),
            (-49_763.500, 99_535.010, 4),  # alternative feed, 3 sizes
            (-47_208.470, 94_426.950, 5),
            # twins: 2x42 rows -> 41 twin dummies + constant + 4 predictors
            (-795.838, 1_683.677, 46),
            (-476.818, 1_045.635, 46),
        ]
        for ll, published_aic, n_params in cases:
            assert aic(ll, n_params) == pytest.approx(published_aic, abs=0.5)

    def test_degenerate(self):
        assert aic(0.0, 0) == 0.0

    def test_fit_result_aic_counts_all_parameters(self):
        d = make_dataset([1, 2, 3, 6])
        fit = fit_poisson(build_design(d, ModelSpec("abuse_count")))
        assert fit.aic == pytest.approx(aic(fit.log_likelihood, 1))


def _allocating_fit(dm):
    """``fit_poisson`` as it was before its one work buffer: the oracle.

    Every iteration allocates a fresh weighted copy of X, solves with
    ``linalg.solve(assume_a="pos")`` and computes the score, and the
    separation check takes one product c'y per column. ``fit_poisson``
    must return the same bits on every field.
    """
    X = np.asarray(dm.X, dtype=float)
    y = np.asarray(dm.y, dtype=float)
    n, p = X.shape
    has_intercept = bool(dm.columns) and dm.columns[0] == INTERCEPT

    if has_intercept and y.sum() == 0:
        raise SeparationError("all responses are zero: intercept MLE at -inf")

    beta = np.zeros(p)
    if has_intercept:
        beta[0] = np.log(y.mean() + 0.1)
    eta = X @ beta
    lam = np.exp(eta)
    dev = deviance(y, lam)

    converged = False
    messages = []
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        w = np.clip(lam, 1e-10, None)
        z = eta + (y - lam) / w
        Xw = X * w[:, None]
        H = X.T @ Xw
        g = Xw.T @ z
        try:
            target = linalg.solve(H, g, assume_a="pos")
        except linalg.LinAlgError:
            target = np.linalg.lstsq(H, g, rcond=None)[0]
        step = target - beta

        alpha = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            cand = beta + alpha * step
            with np.errstate(over="ignore"):
                eta_c = X @ cand
                lam_c = np.exp(eta_c)
            if np.all(np.isfinite(lam_c)) and np.all(lam_c > 0):
                dev_c = deviance(y, lam_c)
                if dev_c <= dev + 1e-12 * (1.0 + abs(dev)):
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            messages.append("step-halving failed to reduce the deviance")
            break

        rel_change = abs(dev - dev_c) / (0.1 + abs(dev_c))
        beta, eta, lam, dev = cand, eta_c, lam_c, dev_c
        score = X.T @ (y - lam)
        if rel_change < DEVIANCE_RTOL and np.max(np.abs(score)) < SCORE_ATOL:
            converged = True
            break

    if not converged and not messages:
        messages.append(f"no convergence within {MAX_ITERATIONS} iterations")

    separated = bool(np.any(np.abs(beta) > SEPARATION_THRESHOLD))
    if separated:
        worst = dm.columns[int(np.argmax(np.abs(beta)))]
        messages.append(
            f"separation suspected: |coefficient| > {SEPARATION_THRESHOLD:g} "
            f"for {worst!r}"
        )
    for j, name in enumerate(dm.columns):
        col = X[:, j]
        if name != INTERCEPT and np.all(col >= 0) and col.max() > 0 and col @ y == 0:
            separated = True
            messages.append(f"separation: column {name!r} only active where y = 0")

    H = X.T @ (X * lam[:, None])
    try:
        cov = linalg.inv(H)
    except linalg.LinAlgError:
        cov = linalg.pinv(H)
        messages.append("Fisher information singular: pseudo-inverse standard errors")
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    ll = log_likelihood(y, lam)
    return FitResult(
        coefficients=dict(zip(dm.columns, beta.tolist())),
        standard_errors=dict(zip(dm.columns, se.tolist())),
        fitted=lam,
        y=dm.y.copy(),
        log_likelihood=ll,
        deviance=dev,
        aic=aic(ll, p),
        n=n,
        k=p - (1 if has_intercept else 0),
        converged=converged,
        iterations=iterations,
        spec=dm.spec,
        factor_levels=dict(dm.factor_levels),
        dropped=list(dm.dropped),
        excluded_rows=dm.excluded_rows,
        row_index=dm.row_index.copy(),
        separated=separated,
        messages=messages,
    )


def _bits(value):
    """A value with every float replaced by its exact bits, for == checks."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(k, _bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


@st.composite
def oracle_designs(draw):
    """Designs that reach every branch of the fit's separation check.

    ``pct_shared`` is continuous and positive; ``assigned_ips_log10`` has
    negative entries; ``hosting_ips_log10`` is non-negative and active
    only where y = 0; ``hosted_domains_log10`` is 1 and -1 on two rows
    with equal counts and 0 elsewhere, so its product with y cancels to
    exactly 0. The first ``zero_groups`` countries have all-zero counts,
    which separates their dummies.
    """
    r = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_groups = draw(st.integers(min_value=2, max_value=6))
    n = n_groups * draw(st.integers(min_value=2, max_value=60))
    group = np.arange(n) % n_groups
    y = r.poisson(np.exp(r.normal(0.5, 0.5, n)))
    y[group < draw(st.integers(min_value=0, max_value=n_groups - 1))] = 0
    y[-1] += 1  # row n - 1 is in the last group, never zeroed
    cancel = np.zeros(n)
    cancel[[n - 1, n - 1 - n_groups]] = 1.0, -1.0
    y[n - 1 - n_groups] = y[n - 1]
    columns = {
        "provider_id": [f"p{i}" for i in range(n)],
        "pct_shared": r.uniform(0.5, 1.5, n),
        "assigned_ips_log10": r.normal(size=n),
        "hosting_ips_log10": r.uniform(0.0, 1.0, n) * (y == 0),
        "hosted_domains_log10": cancel,
        "abuse_count": y,
        "country": [f"c{g}" for g in group],
    }
    extra = draw(st.sets(st.sampled_from(
        ["assigned_ips_log10", "hosting_ips_log10", "hosted_domains_log10"]
    )))
    spec = ModelSpec(
        "abuse_count",
        ("pct_shared", *sorted(extra)),
        draw(st.sampled_from([(), ("country",)])),
        draw(st.booleans()),
    )
    return build_design(Dataset(columns), spec)


class TestWorkBuffer:
    @settings(max_examples=60, deadline=None)
    @given(oracle_designs())
    def test_bit_equal_to_allocating_fit(self, dm):
        self.assert_bit_equal(dm)

    def assert_bit_equal(self, dm):
        new, old = fit_poisson(dm), _allocating_fit(dm)
        for f in fields(FitResult):
            assert _bits(getattr(new, f.name)) == _bits(getattr(old, f.name)), f.name

    @staticmethod
    def hand_design(X, y, columns):
        """A design of the columns of ``X`` as given, without build_design's rank filter."""
        predictors = tuple(c for c in columns if c != INTERCEPT)
        return DesignMatrix(
            columns=list(columns),
            y=y,
            spec=ModelSpec("abuse_count", predictors, (), INTERCEPT in columns),
            factor_levels={},
            dropped=[],
            excluded_rows=0,
            row_index=np.arange(len(y)),
            _block=_Block(X, [], list(columns)),
        )

    def assert_least_squares_step(self, dm, monkeypatch):
        """The fit reaches its lstsq branch and keeps the oracle's bits."""
        lstsq, calls = np.linalg.lstsq, []
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        fit_poisson(dm)
        monkeypatch.undo()
        assert calls
        self.assert_bit_equal(dm)

    def test_intercept_only_is_solved_by_division(self):
        # scipy solves a 1 x 1 system as b / a, not by a Cholesky factor
        d = make_dataset([1, 2, 3, 6, 0, 4])
        self.assert_bit_equal(build_design(d, ModelSpec("abuse_count")))

    def test_zero_one_by_one_system_takes_least_squares(self, monkeypatch):
        # x_i^2 underflows to 0, so H = [[0]], where scipy raises
        y = np.arange(8.0) % 3
        self.assert_least_squares_step(
            self.hand_design(np.full((8, 1), 1e-170), y, ["pct_shared"]), monkeypatch
        )

    def test_failed_cholesky_takes_least_squares(self, monkeypatch):
        # two equal columns, which build_design would drop, make H singular
        r = np.random.default_rng(3)
        n = 30
        x = r.uniform(0.0, 1.0, n)
        dm = self.hand_design(
            np.column_stack([np.ones(n), x, x]),
            r.poisson(np.exp(0.5 + x)).astype(float),
            [INTERCEPT, "pct_shared", "assigned_ips_log10"],
        )
        self.assert_least_squares_step(dm, monkeypatch)

    def test_infinite_cell_raises_value_error(self):
        rows = [{"abuse_count": i, "pct_shared": float(i)} for i in range(10)]
        rows[3]["pct_shared"] = float("inf")
        dm = build_design(make_dataset(rows), ModelSpec("abuse_count", ("pct_shared",)))
        for fit in (fit_poisson, _allocating_fit):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
                fit(dm)

    @pytest.mark.parametrize("H, g", [
        ([[np.inf]], [1.0]),
        ([[1.0]], [np.nan]),
        ([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        ([[2.0, 1.0], [1.0, 2.0]], [np.inf, 1.0]),
    ])
    def test_non_finite_system_raises_as_scipy_does(self, H, g):
        H, g = np.array(H), np.array(g)
        for solve in (_solve_normal_equations, partial(linalg.solve, assume_a="pos")):
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(H, g)

    def test_separation_cases_are_reached(self):
        # the columns of oracle_designs in one fit: only the one active where
        # y = 0 is flagged, not the one whose product with y cancels to 0
        r = np.random.default_rng(7)
        n = 40
        y = r.poisson(2.0, n) + 1
        y[:10] = 0
        active = np.zeros(n)
        active[:10] = 1.0
        cancel = np.zeros(n)
        cancel[[20, 30]] = 1.0, -1.0
        y[30] = y[20]
        d = Dataset({
            "provider_id": [f"p{i}" for i in range(n)],
            "pct_shared": r.uniform(0.5, 1.5, n),
            "assigned_ips_log10": r.normal(size=n),
            "hosting_ips_log10": active,
            "hosted_domains_log10": cancel,
            "abuse_count": y,
        })
        spec = ModelSpec("abuse_count", ("pct_shared", "assigned_ips_log10",
                                         "hosting_ips_log10", "hosted_domains_log10"))
        fit = fit_poisson(build_design(d, spec))
        flagged = [m for m in fit.messages if m.startswith("separation: column")]
        assert flagged == ["separation: column 'hosting_ips_log10' only active where y = 0"]

    def test_peak_memory_below_one_and_a_half_designs(self):
        dm = build_design(country_table(), ModelSpec("abuse_count", STRUCTURAL, ("country",)))
        assert dm.X.shape == (20_000, 28)
        peak = traced_peak(fit_poisson, dm)
        assert peak < 1.5 * dm.X.nbytes, peak / dm.X.nbytes


def planted_table(y, **columns):
    """A table of counts ``y``; structural columns not given hold 0."""
    n = len(y)
    structural = {name: np.zeros(n) for name in STRUCTURAL}
    return Dataset({"provider_id": [f"p{i:05d}" for i in range(n)], **structural,
                    **columns, "abuse_count": y})


class TestPlantedTruthAtPaperScale:
    """Fits of data drawn from a known Poisson model, at the paper's sizes."""

    def test_structural_slopes_recovered_beside_a_country_effect(self):
        # 45,358 providers, as in the paper; 100 countries with sd 0.5
        r = np.random.default_rng(2017)
        n = 45_358
        x = np.column_stack([r.normal(3.0, 1.0, n), r.normal(1.5, 0.8, n),
                             r.normal(2.0, 1.0, n), r.uniform(0.0, 100.0, n)])
        slopes = [0.1, 0.3, 0.6, -0.005]
        country = r.integers(0, 100, n)
        eta = x @ slopes + r.normal(0.0, 0.5, 100)[country]
        eta += np.log(3.0) - np.log(np.exp(eta).mean())  # a mean count of about 3
        d = planted_table(r.poisson(np.exp(eta)), **dict(zip(STRUCTURAL, x.T)),
                          country=[f"c{c:03d}" for c in country])
        fit = fit_poisson(build_design(d, ModelSpec("abuse_count", STRUCTURAL, ("country",))))
        assert fit.converged
        for name, slope in zip(STRUCTURAL, slopes):
            assert abs(fit.coefficients[name] - slope) < 4 * fit.standard_errors[name], name

    def test_every_all_zero_twin_is_flagged_and_nothing_else(self):
        # 105 twins of two providers; 20 planted at alpha = -40, others zero by chance
        r = np.random.default_rng(105)
        n_twins = 105
        x = r.normal(size=(2 * n_twins, 2))
        alpha = r.normal(0.0, 1.0, n_twins)
        alpha[r.choice(n_twins, 20, replace=False)] = -40.0
        twin = np.repeat(np.arange(n_twins), 2)
        y = r.poisson(np.exp(alpha[twin] + x @ [0.5, -0.3]))
        labels = [f"t{g:03d}" for g in range(n_twins)]
        d = planted_table(y, **dict(zip(STRUCTURAL[:2], x.T)),
                          twin_id=np.array(labels, dtype=object)[twin])
        fit = fit_poisson(build_design(d, ModelSpec("abuse_count", STRUCTURAL[:2], ("twin_id",))))
        zero = np.flatnonzero(np.bincount(twin, weights=y, minlength=n_twins) == 0)
        assert len(zero) >= 20
        # the reference level t000 has no column to flag
        expected = {dummy_name("twin_id", labels[g]) for g in zero if g > 0}
        flagged = {m.split("'")[1] for m in fit.messages if m.startswith("separation: column")}
        assert fit.separated
        assert flagged == expected

    @pytest.mark.xfail(
        strict=True,
        reason="SCORE_ATOL bounds the score absolutely, below its rounding noise at counts "
        "near 1e5; a scale-free stopping rule is ROADMAP item 2",
    )
    def test_large_counts_converge(self):
        r = np.random.default_rng(1)
        x = r.normal(size=10_000)
        d = planted_table(r.poisson(np.exp(np.log(1e5) + 0.5 * x)), assigned_ips_log10=x)
        fit = fit_poisson(build_design(d, ModelSpec("abuse_count", ("assigned_ips_log10",))))
        assert fit.converged
