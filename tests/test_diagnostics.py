import numpy as np
import pytest

from abusekit.diagnostics import (
    DiagnosticsError,
    deviance,
    dispersion,
    pseudo_r2,
    rank_providers,
)
from abusekit.glm import ModelSpec, build_design, fit_poisson

from conftest import make_dataset


class TestDispersion:
    def test_hand_evaluation(self):
        rep = dispersion([0, 0, 6], [2, 2, 2], k=0)
        assert rep.chi_square == pytest.approx(12.0)
        assert rep.df == 2
        assert rep.phi_hat == pytest.approx(6.0)

    def test_perfect_fit(self):
        assert dispersion([2, 2, 2], [2, 2, 2], k=0).phi_hat == 0.0

    def test_intercept_only_equals_variance_over_mean(self, rng):
        # exact identity: chi2/(n-1) with lambda = mean(y) is s^2/mean
        for _ in range(10):
            y = rng.poisson(4.0, size=int(rng.integers(5, 200)))
            if y.sum() == 0:
                continue
            lam = np.full(y.size, y.mean())
            phi = dispersion(y, lam, k=0).phi_hat
            expected = y.var(ddof=1) / y.mean()
            assert phi == pytest.approx(expected, rel=1e-12)

    def test_published_moments_consistency(self):
        # sd 91.3, mean 2.8 imply phi ~ 2977, within 2% of the published
        # intercept-only dispersion 2934.775 (gap from summary rounding)
        implied = 91.3**2 / 2.8
        assert implied == pytest.approx(2977.03, abs=0.01)
        assert abs(implied - 2934.775) / 2934.775 < 0.02

    def test_df_guard(self):
        with pytest.raises(DiagnosticsError):
            dispersion([1, 2], [1.0, 2.0], k=1)

    def test_positive_lambda_required(self):
        with pytest.raises(DiagnosticsError):
            dispersion([1], [0.0], k=0)

    def test_df_counts_estimated_coefficients(self):
        # df = n minus the number of estimated coefficients
        assert dispersion([0, 0, 6], [2, 2, 2], k=1).df == 1
        rep = dispersion([0, 0, 6], [2, 2, 2], k=1, intercept=False)
        assert rep.df == 2
        assert rep.phi_hat == pytest.approx(6.0)

    def test_no_intercept_fit_uses_n_minus_p(self, rng):
        x = rng.uniform(0.5, 2.0, size=30)
        y = rng.poisson(np.exp(0.8 * x))
        d = make_dataset(
            [{"pct_shared": float(x[i]), "abuse_count": int(y[i])} for i in range(30)]
        )
        fit = _fit(d, ModelSpec("abuse_count", ("pct_shared",), include_intercept=False))
        assert fit.n_parameters == fit.k == 1
        chi2 = float(np.sum((fit.y - fit.fitted) ** 2 / fit.fitted))
        a = pseudo_r2(fit, fit)
        assert a.phi_hat == pytest.approx(chi2 / (fit.n - 1), rel=1e-12)


class TestDeviance:
    def test_zero_when_equal(self):
        assert deviance([3, 5], [3.0, 5.0]) == 0.0

    def test_zero_count_limit(self):
        assert deviance([0], [2.0]) == pytest.approx(4.0)

    def test_hand_evaluation(self):
        assert deviance([2], [1.0]) == pytest.approx(2 * (2 * np.log(2) - 1))

    def test_nonnegative(self, rng):
        for _ in range(20):
            y = rng.poisson(3.0, size=30)
            lam = rng.uniform(0.2, 8.0, size=30)
            assert deviance(y, lam) >= 0.0


def _fit(d, spec):
    return fit_poisson(build_design(d, spec))


class TestPseudoR2:
    def test_intercept_only_vs_itself_is_zero(self):
        d = make_dataset([1, 2, 3, 6])
        fit = _fit(d, ModelSpec("abuse_count"))
        a = pseudo_r2(fit, fit)
        assert a.pseudo_r2 == 0.0
        assert a.k_penalty == 0

    def test_self_baseline_is_pure_penalty(self, rng):
        x = rng.normal(size=50)
        y = rng.poisson(np.exp(0.5 + 0.4 * x))
        d = make_dataset(
            [{"pct_shared": float(abs(x[i])), "abuse_count": int(y[i])} for i in range(50)]
        )
        fit = _fit(d, ModelSpec("abuse_count", ("pct_shared",)))
        a = pseudo_r2(fit, fit)
        phi = dispersion(fit.y, fit.fitted, fit.k).phi_hat
        assert a.pseudo_r2 == pytest.approx(-fit.k * phi / a.deviance_baseline)
        assert a.pseudo_r2 <= 0.0

    def test_perfect_fit_reaches_one(self):
        # saturated binary design reproduces the group means exactly
        d = make_dataset(
            [
                {"pct_shared": 0.0, "abuse_count": 2},
                {"pct_shared": 0.0, "abuse_count": 2},
                {"pct_shared": 1.0, "abuse_count": 7},
                {"pct_shared": 1.0, "abuse_count": 7},
            ]
        )
        fit = _fit(d, ModelSpec("abuse_count", ("pct_shared",)))
        baseline = _fit(d, ModelSpec("abuse_count"))
        a = pseudo_r2(fit, baseline)
        assert a.pseudo_r2 == pytest.approx(1.0, abs=1e-9)

    def test_overparameterized_noise_goes_negative(self):
        # junk covariates against a heavy-tailed response: the k*phi
        # penalty exceeds the deviance the junk explains on this instance
        from conftest import OVERPARAM_FIELDS, overparameterized_noise_dataset

        d = overparameterized_noise_dataset()
        fit = _fit(d, ModelSpec("abuse_count", OVERPARAM_FIELDS))
        baseline = _fit(d, ModelSpec("abuse_count"))
        assert pseudo_r2(fit, baseline).pseudo_r2 < -0.1

    def test_fixed_effects_baseline_counts_only_added_predictors(self, rng):
        rows = []
        for t in range(6):
            for member in range(2):
                price = float(rng.uniform(5, 50))
                rows.append(
                    {
                        "twin_id": f"t{t}",
                        "price_per_year": price,
                        "popularity_index": 2 * price,  # dropped as collinear
                        "abuse_count": int(rng.poisson(3 + 2 * t)) + 1,
                    }
                )
        d = make_dataset(rows)
        fit = _fit(
            d,
            ModelSpec("abuse_count", ("price_per_year", "popularity_index"), ("twin_id",)),
        )
        assert [name for name, _ in fit.dropped] == ["popularity_index"]
        fe_baseline = _fit(d, ModelSpec("abuse_count", (), ("twin_id",)))
        intercept_baseline = _fit(d, ModelSpec("abuse_count"))
        conservative = pseudo_r2(fit, fe_baseline)
        total = pseudo_r2(fit, intercept_baseline)
        assert conservative.baseline_kind == "fixed_effects_only"
        assert conservative.k_penalty == 1  # just the price coefficient
        assert total.baseline_kind == "intercept_only"
        assert total.k_penalty == fit.k  # dummies included
        assert total.pseudo_r2 >= conservative.pseudo_r2

    def test_mismatched_rows_rejected(self):
        f1 = _fit(make_dataset([1, 2, 3]), ModelSpec("abuse_count"))
        f2 = _fit(make_dataset([1, 2, 3, 4]), ModelSpec("abuse_count"))
        with pytest.raises(DiagnosticsError):
            pseudo_r2(f1, f2)


def _rank_rows(d, fit):
    """The ranking built one row at a time: the reference of ``rank_providers``.

    One (provider_id, predicted, observed, ratio, pearson_residual,
    better_than_average) tuple per fitted row, sorted by residual, then id.
    """
    ids = d.provider_ids()
    rows = []
    for pos, row in enumerate(fit.row_index):
        observed = int(fit.y[pos])
        predicted = float(fit.fitted[pos])
        residual = float((observed - predicted) / np.sqrt(predicted))
        rows.append((ids[row], predicted, observed, observed / predicted, residual,
                     observed < predicted))
    return sorted(rows, key=lambda r: (r[4], r[0]))


RANK_FIELDS = ("provider_id", "predicted", "observed", "ratio", "pearson_residual",
               "better_than_average")


class TestRankProviders:
    def test_ratio_and_flag(self):
        d = make_dataset([5, 15])
        fit = _fit(d, ModelSpec("abuse_count"))  # lambda = 10 everywhere
        scores = rank_providers(d, fit)
        at = {pid: i for i, pid in enumerate(scores.provider_id.tolist())}
        assert scores.ratio[at["p0000"]] == pytest.approx(0.5)
        assert scores.better_than_average[at["p0000"]]
        assert not scores.better_than_average[at["p0001"]]
        # ascending pearson residual: the under-performer ranks last
        assert scores.provider_id[0] == "p0000"

    def test_exact_prediction_scores_zero(self):
        d = make_dataset([4, 4])
        fit = _fit(d, ModelSpec("abuse_count"))
        scores = rank_providers(d, fit)
        assert all(r == pytest.approx(0.0, abs=1e-7) for r in scores.pearson_residual)
        assert all(r == pytest.approx(1.0) for r in scores.ratio)

    def test_inflated_provider_lands_in_worst_decile(self):
        # brute-force check of the tail-bound claim: one provider drawing
        # counts at 3x the shared mean is in the worst decile >99% of runs
        hits = 0
        runs = 100
        for seed in range(runs):
            r = np.random.default_rng(seed)
            y = r.poisson(20.0, size=200)
            y[0] = r.poisson(60.0)
            d = make_dataset([int(v) for v in y])
            fit = _fit(d, ModelSpec("abuse_count"))
            scores = rank_providers(d, fit)
            worst_decile = set(scores.provider_id[-20:].tolist())
            hits += "p0000" in worst_decile
        assert hits >= 99

    def test_ordering_invariant_under_relabeling(self, rng):
        y = rng.poisson(6.0, size=30)
        d1 = make_dataset([int(v) for v in y])
        d2 = make_dataset(
            [{"abuse_count": int(y[i]), "provider_id": f"zz{i:04d}"} for i in range(30)]
        )
        s1 = rank_providers(d1, _fit(d1, ModelSpec("abuse_count")))
        s2 = rank_providers(d2, _fit(d2, ModelSpec("abuse_count")))
        assert s1.pearson_residual.tolist() == pytest.approx(s2.pearson_residual.tolist())

    def test_missing_provider_id_rejected(self):
        d = make_dataset([{"abuse_count": 2, "provider_id": None}, 3, 5])
        fit = _fit(d, ModelSpec("abuse_count"))
        with pytest.raises(DiagnosticsError, match="no provider_id"):
            rank_providers(d, fit)

    @pytest.mark.parametrize("case", ["tied", "ids-out-of-order", "two-twins", "excluded-rows"])
    def test_columns_equal_the_row_by_row_ranking(self, case, rng):
        if case == "tied":  # an intercept-only fit on three distinct counts
            d = make_dataset([int(v) for v in rng.choice([2, 5, 9], size=40)])
            spec = ModelSpec("abuse_count")
        elif case == "ids-out-of-order":  # ties among ids that sort against table order
            counts = rng.choice([1, 3], size=25)
            d = make_dataset([{"abuse_count": int(c), "provider_id": f"q{(7 * i) % 25:03d}"}
                              for i, c in enumerate(counts)])
            spec = ModelSpec("abuse_count")
        elif case == "two-twins":  # p0001 is the match of two seeds
            pairs = [("p0000", "p0001"), ("p0002", "p0001"), ("p0003", "p0004")]
            rows = [
                {"provider_id": pid, "abuse_count": int(rng.poisson(4.0)) + 1,
                 "pct_shared": float(rng.uniform(0, 100)), "twin_id": f"twin:{seed}"}
                for seed, match in pairs for pid in (seed, match)
            ]
            d = make_dataset(rows)
            spec = ModelSpec("abuse_count", ("pct_shared",), ("twin_id",))
        else:  # rows missing the predictor are left out of the fit
            rows = [{"abuse_count": int(rng.poisson(5.0)),
                     "pct_shared": None if i % 4 == 1 else float(rng.uniform(0, 100))}
                    for i in range(30)]
            d = make_dataset(rows)
            spec = ModelSpec("abuse_count", ("pct_shared",))
        fit = _fit(d, spec)
        reference = _rank_rows(d, fit)
        scores = rank_providers(d, fit)
        for j, name in enumerate(RANK_FIELDS):
            assert getattr(scores, name).tolist() == [r[j] for r in reference], name
        if case == "tied":
            assert len(set(scores.pearson_residual.tolist())) == 3
        elif case == "two-twins":
            assert scores.provider_id.tolist().count("p0001") == 2
        elif case == "excluded-rows":
            assert len(scores.provider_id) == fit.n < len(d)


class TestDispersionCalibration:
    def test_phi_near_one_for_true_poisson(self):
        # smoke-scale version of the calibration criterion (full version
        # with 100 seeds runs in the acceptance suite)
        in_range = 0
        for seed in range(20):
            r = np.random.default_rng(1000 + seed)
            x = r.normal(size=10_000)
            y = r.poisson(np.exp(0.8 + 0.4 * x))
            d = make_dataset(
                [
                    {"hosted_domains_log10": float(x[i]), "abuse_count": int(y[i])}
                    for i in range(10_000)
                ]
            )
            fit = _fit(d, ModelSpec("abuse_count", ("hosted_domains_log10",)))
            phi = dispersion(fit.y, fit.fitted, fit.k).phi_hat
            in_range += 0.9 <= phi <= 1.1
        assert in_range >= 19
