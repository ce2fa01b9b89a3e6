import numpy as np
import pytest

from abusekit import sim
from abusekit.glm import SeparationError
from abusekit.sim import (
    MEASURED_NOISE,
    PROXY_COLUMNS,
    SimulationConfig,
    SimulationError,
    gen_population,
    nearest_rank_quantile,
    run_monte_carlo,
    summarize,
)

from conftest import same_table


def zero_noise(**kw):
    return SimulationConfig(noise={c: (0.0, 0.0) for c in PROXY_COLUMNS}, **kw)


class TestConfig:
    def test_validation(self):
        with pytest.raises(SimulationError):
            SimulationConfig(n=0)
        with pytest.raises(SimulationError):
            SimulationConfig(replicates=0)
        with pytest.raises(SimulationError):
            SimulationConfig(noise={"assigned_ips_log10": (0.0, 0.0)})
        with pytest.raises(SimulationError):
            zero_noise(true_size_sd=-1.0)

    def test_intercept_solved_for_target_mean(self):
        cfg = zero_noise(n=200_000, target_mean=2.8, rng_seed=3)
        d = gen_population(cfg, 0)
        mean_abuse = np.mean(d.column("abuse_count"))
        assert mean_abuse == pytest.approx(2.8, rel=0.05)

    def test_explicit_intercept_wins(self):
        cfg = zero_noise(link_intercept=0.25)
        assert cfg.resolved_intercept == 0.25

    def test_default_replicate_count_is_1000(self):
        assert SimulationConfig().replicates == 1000


class TestGenPopulation:
    def test_deterministic_per_seed_and_replicate(self):
        cfg = SimulationConfig(n=500, noise=MEASURED_NOISE, rng_seed=11)
        a = gen_population(cfg, 4)
        b = gen_population(cfg, 4)
        c = gen_population(cfg, 5)
        assert same_table(a, b)
        assert not same_table(a, c)

    def test_zero_noise_proxies_equal_latent_plus_shift(self):
        noise = {
            "assigned_ips_log10": (3.0, 0.0),
            "hosting_ips_log10": (0.0, 0.0),
            "hosted_domains_log10": (-1.0, 0.0),
        }
        d = gen_population(SimulationConfig(n=50, noise=noise, rng_seed=1), 0)
        hosting = d.numeric("hosting_ips_log10")
        assert np.allclose(d.numeric("assigned_ips_log10"), hosting + 3.0)
        assert np.allclose(d.numeric("hosted_domains_log10"), hosting - 1.0)

    def test_generated_values_valid(self):
        d = gen_population(SimulationConfig(n=2000, noise=MEASURED_NOISE, rng_seed=2), 0)
        counts = d.column("abuse_count")
        assert np.all(counts >= 0)
        assert counts.dtype.kind == "i"
        for col in PROXY_COLUMNS:
            assert np.all(np.isfinite(d.numeric(col)))

    def test_linear_predictor_capped(self, caplog):
        cfg = zero_noise(n=200, true_size_mean=40.0, true_size_sd=0.1, link_intercept=0.0)
        with caplog.at_level("WARNING"):
            d = gen_population(cfg, 0)
        assert "capped" in caplog.text
        assert d.column("abuse_count").max() < 1e14  # exp(30) scale, not overflow


class TestRunMonteCarlo:
    def test_single_replicate(self):
        res = run_monte_carlo(zero_noise(n=400, replicates=1, rng_seed=5))
        assert len(res.dispersion_samples) == 1
        assert np.count_nonzero(~np.isnan(res.dispersion_samples)) == 1

    def test_zero_noise_drops_duplicate_proxies_and_recovers_slope(self):
        cfg = zero_noise(n=4000, replicates=20, rng_seed=6)
        res = run_monte_carlo(cfg)
        assert np.count_nonzero(~np.isnan(res.dispersion_samples)) == 20
        # identical proxies collapse to one surviving size column
        assert np.all(np.isnan(res.coefficient_samples[:, 2]))
        assert np.all(np.isnan(res.coefficient_samples[:, 3]))
        slopes = res.coefficient_samples[:, 1]
        assert np.all(np.isfinite(slopes))
        assert np.mean(slopes) == pytest.approx(cfg.link_slope, abs=0.05)
        # phi calibrated near 1 under the true model
        assert 0.9 < np.nanmean(res.dispersion_samples) < 1.1

    def test_measured_noise_inflates_dispersion(self):
        cfg = SimulationConfig(n=2000, noise=MEASURED_NOISE, replicates=20, rng_seed=7)
        res = run_monte_carlo(cfg)
        assert np.nanmean(res.dispersion_samples) > 1.0

    def test_dispersion_monotone_in_noise_scale(self):
        means = []
        for scale in (0.5, 1.0, 2.0):
            noise = {c: (0.0, s * scale) for c, (_, s) in MEASURED_NOISE.items()}
            cfg = SimulationConfig(n=500, noise=noise, replicates=200, rng_seed=8)
            res = run_monte_carlo(cfg)
            means.append(float(np.nanmean(res.dispersion_samples)))
        assert means[0] <= means[1] <= means[2]

    def test_identical_config_identical_result(self):
        cfg = SimulationConfig(n=300, noise=MEASURED_NOISE, replicates=5, rng_seed=9)
        r1 = run_monte_carlo(cfg)
        r2 = run_monte_carlo(cfg)
        assert np.array_equal(r1.dispersion_samples, r2.dispersion_samples)
        assert np.array_equal(
            r1.coefficient_samples, r2.coefficient_samples, equal_nan=True
        )


class TestSummarize:
    def test_nearest_rank_hand_values(self):
        assert nearest_rank_quantile([2, 2, 2], 0.025) == 2
        assert nearest_rank_quantile([2, 2, 2], 0.975) == 2
        samples = list(range(1, 1001))
        assert nearest_rank_quantile(samples, 0.025) == 25
        assert nearest_rank_quantile(samples, 0.975) == 975

    def test_histogram_bin_rule(self):
        res = run_monte_carlo(zero_noise(n=300, replicates=9, rng_seed=10))
        summary = summarize(res)
        assert len(summary.histogram_counts) == 3  # ceil(sqrt(9))
        assert summary.histogram_counts.sum() == summary.n_successful

    def test_reference_deviation_bookkeeping(self):
        cfg = zero_noise(n=500, replicates=4, rng_seed=12)
        res = run_monte_carlo(cfg, reference_coefficients={"assigned_ips_log10": 1.5})
        summary = summarize(res)
        by_name = {c.term: c for c in summary.coefficients}
        slope = by_name["assigned_ips_log10"]
        assert slope.reference == 1.5
        assert slope.reference_deviation == pytest.approx(1.5 - slope.mean)

    def test_all_failed_raises(self):
        cfg = zero_noise(n=300, replicates=2)
        res = run_monte_carlo(cfg)
        res.dispersion_samples[:] = np.nan
        with pytest.raises(SimulationError):
            summarize(res)


class TestReplicateFailures:
    def test_expected_fit_error_is_recorded(self, monkeypatch):
        def separated(dm):
            raise SeparationError("all responses are zero: intercept MLE at -inf")

        monkeypatch.setattr(sim, "fit_poisson", separated)
        res = run_monte_carlo(zero_noise(n=200, replicates=2, rng_seed=1))
        assert [rep for rep, _ in res.failures] == [0, 1]
        assert res.failures[0][1].startswith("SeparationError: ")
        assert np.isnan(res.dispersion_samples).all()

    def test_programming_error_propagates(self, monkeypatch):
        def broken(dm):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(sim, "fit_poisson", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            run_monte_carlo(zero_noise(n=200, replicates=2, rng_seed=1))
