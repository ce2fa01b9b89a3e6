"""Acceptance suite: one test per criterion, each echoing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines
appear in the terminal summary (and immediately with ``-s``).
"""
import numpy as np
import pytest
from pathlib import Path

import conftest
from abusekit import cli
from abusekit.diagnostics import dispersion, pseudo_r2
from abusekit.glm import ModelSpec, aic, build_design, fit_poisson, score_vector
from abusekit.scenarios import partial_effect
from abusekit.sim import PROXY_COLUMNS, MEASURED_NOISE, SimulationConfig, run_monte_carlo
from abusekit.twins import MatchingConfig, listwise_exclude, match_twins

from conftest import make_dataset
from test_glm import manual_fit, reference_mle
from test_twins import exhaustive_oracle, point_dataset

FIXTURE = Path(__file__).parent / "data" / "fixture"


def check(cid, description, passed):
    line = f"criterion {cid:>2}: {'PASS' if passed else 'FAIL'} - {description}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


def test_criterion_01_partial_effect_identities():
    fit_up = manual_fit({"x": 1.186}, ModelSpec("abuse_count", ("x",)))
    fit_down = manual_fit({"x": -0.007}, ModelSpec("abuse_count", ("x",)))
    ok = (
        abs(partial_effect(fit_up, "x", 1.0) - 3.273) <= 1e-3
        and abs(partial_effect(fit_down, "x", 1.0) - 0.993) <= 1e-3
    )
    check(1, "partial effects e^1.186 = 3.273 +/- 0.001 and e^-0.007 = 0.993 +/- 0.001", ok)


def test_criterion_02_aic_identities():
    ok = (
        abs(aic(-223_113.400, 1) - 446_228.8) <= 0.05
        and abs(aic(-111_570.800, 5) - 223_151.6) <= 0.2
    )
    check(2, "AIC identities on published LL/parameter pairs", ok)


def test_criterion_03_intercept_only_dispersion():
    rng = np.random.default_rng(3)
    exact = True
    for _ in range(25):
        y = rng.poisson(rng.uniform(0.5, 30.0), size=int(rng.integers(5, 400)))
        if y.sum() == 0:
            continue
        phi = dispersion(y, np.full(y.size, y.mean()), k=0).phi_hat
        expected = y.var(ddof=1) / y.mean()
        exact &= abs(phi - expected) <= 1e-12 * max(1.0, abs(expected))
    implied = 91.3**2 / 2.8
    ok = exact and abs(implied - 2934.775) / 2934.775 < 0.02
    check(3, "intercept-only dispersion equals sd^2/mean; published moments within 2%", ok)


def test_criterion_04_and_05_mle_oracle_and_identities():
    rng = np.random.default_rng(45)
    max_gap = 0.0
    max_score = 0.0
    max_moment = 0.0
    n_designs = 0
    while n_designs < 20:
        n = int(rng.integers(10, 51))
        k = int(rng.integers(0, 4))
        X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k)])
        y = rng.poisson(np.exp(X @ rng.normal(scale=0.5, size=k + 1)))
        if y.sum() == 0:
            continue
        n_designs += 1
        fields = ("assigned_ips_log10", "hosting_ips_log10", "hosted_domains_log10")
        d = make_dataset(
            [
                {
                    "abuse_count": int(y[i]),
                    **{fields[j]: float(X[i, j + 1]) for j in range(k)},
                }
                for i in range(n)
            ]
        )
        dm = build_design(d, ModelSpec("abuse_count", fields[:k]))
        fit = fit_poisson(dm)
        ours = np.array([fit.coefficients[c] for c in dm.columns])
        reference = reference_mle(dm.X, dm.y.astype(float), len(dm.columns))
        max_gap = max(max_gap, float(np.max(np.abs(ours - reference))))
        max_score = max(max_score, float(np.max(np.abs(score_vector(dm, fit)))))
        max_moment = max(
            max_moment, abs(fit.fitted.sum() - dm.y.sum()) / dm.y.sum()
        )
    check(4, f"IRLS matches generic numeric maximizer on 20 designs (max gap {max_gap:.2e})",
          max_gap < 1e-6)
    check(5, f"score identities after every converged fit (max |score| {max_score:.2e}, "
             f"relative mean gap {max_moment:.2e})",
          max_score < 1e-6 and max_moment < 1e-6)


def test_criterion_06_dispersion_calibration():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(600 + seed)
        x = rng.normal(size=10_000)
        y = rng.poisson(np.exp(0.8 + 0.4 * x))
        d = make_dataset(
            [
                {"hosted_domains_log10": float(x[i]), "abuse_count": int(y[i])}
                for i in range(10_000)
            ]
        )
        fit = fit_poisson(build_design(d, ModelSpec("abuse_count", ("hosted_domains_log10",))))
        phi = dispersion(fit.y, fit.fitted, fit.k).phi_hat
        hits += 0.9 <= phi <= 1.1
    check(6, f"exact-Poisson dispersion in [0.9, 1.1] for {hits}/100 seeded runs", hits >= 95)


def test_criterion_07_simulation_study_at_scale_200():
    noisy = SimulationConfig(
        n=5000, noise=MEASURED_NOISE, replicates=200, rng_seed=61
    )
    noisy_res = run_monte_carlo(noisy)
    mean_noisy = float(np.nanmean(noisy_res.dispersion_samples))

    clean = SimulationConfig(
        n=5000,
        noise={c: (0.0, 0.0) for c in PROXY_COLUMNS},
        replicates=200,
        rng_seed=62,
    )
    clean_res = run_monte_carlo(clean)
    mean_clean = float(np.nanmean(clean_res.dispersion_samples))

    slope_idx = clean_res.coefficient_names.index(PROXY_COLUMNS[0])
    slopes = clean_res.coefficient_samples[:, slope_idx]
    ses = clean_res.se_samples[:, slope_idx]
    ok_rows = ~np.isnan(slopes)
    covered = np.abs(slopes[ok_rows] - clean.link_slope) <= 3 * ses[ok_rows]
    coverage = covered.mean()

    check(7, f"noisy proxies give mean phi {mean_noisy:.2f} > 1; zero noise gives "
             f"{mean_clean:.3f} in [0.95, 1.05]; slope within 3 SE in {coverage:.1%}",
          mean_noisy > 1.0 and 0.95 <= mean_clean <= 1.05 and coverage >= 0.99
          and int(ok_rows.sum()) == 200)


def test_criterion_08_matching_oracle():
    rng = np.random.default_rng(80)
    cfg = MatchingConfig(
        variables=("assigned_ips_log10", "hosting_ips_log10"), standardize=False
    )
    agreements = 0
    names = [f"h{i:05d}" for i in range(10_000)]
    for trial in range(100):
        n_pop = int(rng.integers(4, 10_001))
        if trial % 3 == 0:
            coords = rng.integers(0, 8, size=(n_pop, 2)).astype(float)  # force ties
        else:
            coords = rng.normal(size=(n_pop, 2))
        pop = point_dataset(zip(names, coords.tolist()))
        n_seeds = int(rng.integers(1, 4))
        chosen = rng.choice(n_pop, n_seeds, replace=False)
        S = pop.take(chosen)
        got = [(p.seed_id, p.match_id) for p in match_twins(S, pop, cfg)]
        want = [(s, m) for s, m, _ in exhaustive_oracle(S, pop, cfg)]
        agreements += got == want
    check(8, f"greedy matching equals exhaustive scan in {agreements}/100 instances",
          agreements == 100)


def test_criterion_09_pseudo_r2_boundaries():
    base = make_dataset([1, 2, 3, 6])
    intercept_fit = fit_poisson(build_design(base, ModelSpec("abuse_count")))
    zero = pseudo_r2(intercept_fit, intercept_fit).pseudo_r2

    saturated_data = make_dataset(
        [
            {"pct_shared": 0.0, "abuse_count": 2},
            {"pct_shared": 0.0, "abuse_count": 2},
            {"pct_shared": 1.0, "abuse_count": 7},
            {"pct_shared": 1.0, "abuse_count": 7},
        ]
    )
    perfect = pseudo_r2(
        fit_poisson(build_design(saturated_data, ModelSpec("abuse_count", ("pct_shared",)))),
        fit_poisson(build_design(saturated_data, ModelSpec("abuse_count"))),
    ).pseudo_r2

    noise_data = conftest.overparameterized_noise_dataset()
    negative = pseudo_r2(
        fit_poisson(
            build_design(noise_data, ModelSpec("abuse_count", conftest.OVERPARAM_FIELDS))
        ),
        fit_poisson(build_design(noise_data, ModelSpec("abuse_count"))),
    ).pseudo_r2

    ok = zero == 0.0 and abs(perfect - 1.0) <= 1e-9 and negative < 0.0
    check(9, f"pseudo-R2 boundaries: self=0, perfect={perfect:.6f}, "
             f"over-parameterized noise={negative:.3f} < 0", ok)


def test_criterion_10_twin_listwise_exclusion():
    from abusekit.twins import TwinPairing, twin_label

    rows, pairings = [], []
    for t in range(105):
        seed_id, match_id = f"s{t:03d}", f"m{t:03d}"
        rows.append(dict(provider_id=seed_id, price_per_year=9.0, abuse_count=1))
        rows.append(
            dict(
                provider_id=match_id,
                price_per_year=19.0 if t < 42 else None,
                abuse_count=2,
            )
        )
        pairings.append(TwinPairing(twin_label(seed_id), seed_id, match_id, 0.0))
    d = make_dataset(rows)
    out = listwise_exclude(pairings, d, ["price_per_year"])
    check(10, f"105 twins with 42 price-complete pairs keep {len(out)} modeling rows",
          len(out) == 84)


def test_criterion_11_pipeline_determinism(tmp_path):
    args = [
        "pipeline",
        "--allocations", str(FIXTURE / "allocations.csv"),
        "--observations", str(FIXTURE / "observations.csv"),
        "--abuse", str(FIXTURE / "abuse.csv"),
        "--enrichment", str(FIXTURE / "enrichment.csv"),
        "--seeds", str(FIXTURE / "seeds.txt"),
        "--predictors", "price_per_year,wordpress_use",
    ]
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert cli.main(args + ["--out-dir", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    identical = names == sorted(p.name for p in outs[1].iterdir()) and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    check(11, f"two pipeline runs produced byte-identical directories ({len(names)} artifacts)",
          identical)
