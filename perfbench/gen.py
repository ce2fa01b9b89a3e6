"""Seeded synthetic inputs at benchmark scale.

Follows the approach of ``tests/data/gen_fixture.py`` (one allocation
range per provider, Pareto-skewed domain placement so some IPs cross the
shared threshold, abuse drawn from hosted domains, enrichment with
missing prices) but is parametrised by provider, observation, abuse and
seed counts, and vectorised so that population-scale files take about a
second to write. A provider-table generator with a known Poisson link
feeds the ``fit`` workload.

Totals are exact, not random: a workload's size, and so its run time,
does not drift with the seed. The same seed gives identical bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COUNTRIES = (
    "AT", "AU", "BE", "BR", "CA", "CH", "CN", "CZ", "DE", "DK", "ES", "FI",
    "FR", "GB", "HK", "IN", "IT", "JP", "NL", "PL", "RU", "SE", "SG", "US",
)

#: Address block per provider; allocations (at most 2**16 addresses) start
#: at the block base, so the block tail is unallocated space.
BLOCK = 1 << 18
MAX_PROVIDERS = (1 << 32) // BLOCK - 1

#: Share of observation and abuse rows placed on unallocated addresses.
UNALLOCATED_SHARE = 0.01

#: Share of providers whose price is missing; twins with such a member are
#: excluded list-wise.
PRICE_MISSING_SHARE = 0.06

#: Share of provider-table rows whose ``hosting_ips_log10`` cell is empty.
TABLE_MISSING_SHARE = 0.01

#: Structural predictors of the provider-table workload, in model order.
TABLE_PREDICTORS = (
    "assigned_ips_log10",
    "hosting_ips_log10",
    "hosted_domains_log10",
    "pct_shared",
)

#: True slopes of the provider-table Poisson link, in TABLE_PREDICTORS order.
TABLE_SLOPES = (0.15, 0.25, 0.6, 0.004)
TABLE_TARGET_MEAN = 3.0


@dataclass(frozen=True)
class PipelineSize:
    providers: int
    observations: int
    abuse: int
    seeds: int


def _write(path: Path, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(lines))
        fh.write("\n")


def _exact_subset(rng: np.random.Generator, n: int, share: float) -> np.ndarray:
    """Boolean mask marking exactly round(n * share) random positions."""
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[: int(round(n * share))]] = True
    return mask


def gen_pipeline(out: Path, size: PipelineSize, seed: int) -> dict[str, Path]:
    """Write allocations, observations, abuse, enrichment and seed files.

    Returns the path of each file by input name.
    """
    P = size.providers
    if not 2 <= P <= MAX_PROVIDERS:
        raise ValueError(f"providers must lie in [2, {MAX_PROVIDERS}]")
    if not 1 <= size.seeds < P:
        raise ValueError("seeds must lie in [1, providers)")
    rng = np.random.default_rng([seed, 1])
    out.mkdir(parents=True, exist_ok=True)
    ids = [f"hp{i:05d}" for i in range(P)]

    base = (np.arange(P, dtype=np.int64) + 1) * BLOCK
    alloc_size = (2.0 ** rng.uniform(6, 16, P)).astype(np.int64)
    n_ips = np.minimum(rng.integers(2, 40, P), alloc_size)

    n_unalloc_obs = int(round(size.observations * UNALLOCATED_SHARE))
    n_attr = size.observations - n_unalloc_obs
    weight = rng.pareto(1.5, P) + 0.2
    per_provider = rng.multinomial(n_attr, weight / weight.sum())

    owner = np.repeat(np.arange(P), per_provider)
    slot = np.empty(n_attr, dtype=np.int64)
    pos = 0
    for i in range(P):
        c = int(per_provider[i])
        if c:
            w = rng.pareto(1.2, int(n_ips[i])) + 0.05
            slot[pos : pos + c] = rng.choice(int(n_ips[i]), size=c, p=w / w.sum())
            pos += c
    obs_ip = base[owner] + slot
    local = np.arange(n_attr) - np.repeat(np.cumsum(per_provider) - per_provider, per_provider)
    obs_domain = [f"d{o}x{j}.example" for o, j in zip(owner.tolist(), local.tolist())]

    # Unallocated rows sit in the block tail, past every allocation.
    stray_owner = rng.integers(0, P, n_unalloc_obs)
    stray_ip = base[stray_owner] + BLOCK - 1 - rng.integers(0, 1000, n_unalloc_obs)
    obs_lines = [f"{d},{ip}" for d, ip in zip(obs_domain, obs_ip.tolist())]
    obs_lines += [f"u{k}.example,{ip}" for k, ip in enumerate(stray_ip.tolist())]

    n_unalloc_abuse = min(int(round(size.abuse * UNALLOCATED_SHARE)), n_unalloc_obs)
    abused = np.sort(rng.choice(n_attr, size.abuse - n_unalloc_abuse, replace=False))
    stray_abused = rng.choice(n_unalloc_obs, n_unalloc_abuse, replace=False)
    months = rng.integers(1, 13, size.abuse).tolist()
    abuse_lines = [
        f"{obs_domain[r]},{obs_ip[r]},2015-{m:02d}-01"
        for r, m in zip(abused.tolist(), months)
    ]
    abuse_lines += [
        f"u{k}.example,{stray_ip[k]},2015-{m:02d}-01"
        for k, m in zip(stray_abused.tolist(), months[len(abused):])
    ]

    country = rng.integers(0, len(COUNTRIES), P)
    no_price = _exact_subset(rng, P, PRICE_MISSING_SHARE)
    price = rng.uniform(8, 120, P)
    popularity = rng.uniform(0, 4000, P)
    business = rng.uniform(0.5, 22, P)
    ict = rng.uniform(0.3, 0.95, P)
    wordpress = rng.uniform(0.0, 0.6, P)
    enrich_lines = [
        f"{ids[i]},{COUNTRIES[country[i]]},{'' if no_price[i] else f'{price[i]:.2f}'},"
        f"{popularity[i]:.3f},{business[i]:.2f},{ict[i]:.4f},{wordpress[i]:.4f}"
        for i in range(P)
    ]

    priced = np.flatnonzero(~no_price)
    if size.seeds > priced.size:
        raise ValueError("more seeds than priced providers")
    seeds = np.random.default_rng([seed, 2]).choice(priced, size.seeds, replace=False)

    paths = {
        "allocations": out / "allocations.csv",
        "observations": out / "observations.csv",
        "abuse": out / "abuse.csv",
        "enrichment": out / "enrichment.csv",
        "seeds": out / "seeds.txt",
    }
    _write(
        paths["allocations"],
        "provider_id,ip_start,ip_end",
        (f"{ids[i]},{base[i]},{base[i] + alloc_size[i] - 1}" for i in range(P)),
    )
    _write(paths["observations"], "domain,ip", obs_lines)
    _write(paths["abuse"], "domain,ip,timestamp", abuse_lines)
    _write(
        paths["enrichment"],
        "provider_id,country,price_per_year,popularity_index,time_in_business,"
        "ict_dev_index,wordpress_use",
        enrich_lines,
    )
    paths["seeds"].write_text("".join(f"{ids[s]}\n" for s in seeds), encoding="utf-8")
    return paths


def gen_table(out: Path, rows: int, seed: int) -> Path:
    """Write a provider table whose abuse counts follow a known Poisson link.

    ln E[abuse_count] = ln(TABLE_TARGET_MEAN) + TABLE_SLOPES . (x - mean x)
    + country effect, with x the structural columns as written. Exactly
    ``round(rows * TABLE_MISSING_SHARE)`` rows miss their ``hosting_ips_log10``
    cell, so model fits exclude a fixed row count.
    """
    rng = np.random.default_rng([seed, 3])
    out.mkdir(parents=True, exist_ok=True)
    size = rng.normal(2.0, 0.9, rows)
    x = np.column_stack(
        [
            np.abs(size + 1.5 + rng.normal(0, 0.4, rows)),
            np.abs(0.6 * size + rng.normal(0, 0.3, rows)),
            np.abs(size + rng.normal(0, 0.3, rows)),
            100.0 / (1.0 + np.exp(-rng.normal(0, 1.5, rows))),
        ]
    )
    country = rng.integers(0, len(COUNTRIES), rows)
    effect = rng.normal(0, 0.3, len(COUNTRIES))
    x = np.round(x, 6)
    eta = (
        math.log(TABLE_TARGET_MEAN)
        + (x - x.mean(axis=0)) @ np.array(TABLE_SLOPES)
        + effect[country]
    )
    y = rng.poisson(np.exp(eta))
    missing = _exact_subset(rng, rows, TABLE_MISSING_SHARE)
    lines = [
        f"sp{i:07d},{x[i, 0]:.6f},{'' if missing[i] else f'{x[i, 1]:.6f}'},"
        f"{x[i, 2]:.6f},{x[i, 3]:.6f},{y[i]},{COUNTRIES[country[i]]}"
        for i in range(rows)
    ]
    path = out / "providers.csv"
    _write(path, "provider_id," + ",".join(TABLE_PREDICTORS) + ",abuse_count,country", lines)
    return path
