"""Statistical-twin sampling: distances, nearest-neighbor matches, exclusion.

Costly-to-collect variables are gathered only for a small set of seed
providers and, for each seed, its closest structural look-alike in the
population. Modeling the resulting pairs with a per-twin fixed effect
controls for the selection and for between-pair level differences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import STRING_COLUMNS, Dataset

#: Default matching space: the four structural variables.
DEFAULT_MATCH_VARIABLES = (
    "assigned_ips_log10",
    "hosting_ips_log10",
    "hosted_domains_log10",
    "pct_shared",
)

#: Most seed x population x variable differences ``distance_matrix`` holds
#: at once (256 KiB of float64, about a core's L2 cache); it takes the
#: seeds in blocks under this.
DISTANCE_BLOCK_CELLS = 1 << 15


class MatchingError(ValueError):
    """Raised when matching preconditions fail (e.g. no eligible match)."""


@dataclass(frozen=True)
class MatchingConfig:
    """Controls for the twin search.

    With ``standardize`` the distance space is z-scored per variable using
    the population's mean and sample sd, so percent-scale variables do not
    drown the log-scale ones. ``allow_reuse`` lets one population provider
    become the match of several seeds.
    """

    variables: tuple[str, ...] = DEFAULT_MATCH_VARIABLES
    standardize: bool = True
    allow_reuse: bool = True

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("matching requires at least one variable")
        if set(self.variables) & set(STRING_COLUMNS):
            raise ValueError("matching variables must be numeric columns")


@dataclass(frozen=True)
class TwinPairing:
    """A seed provider, its nearest population match and their distance."""

    twin_id: str
    seed_id: str
    match_id: str
    distance: float


@dataclass
class DistanceResult:
    """Distance matrix |S| x |T| plus the exclusions made to compute it."""

    matrix: np.ndarray
    seed_ids: list[str]
    population_ids: list[str]
    excluded_seed_ids: list[str]
    excluded_population_ids: list[str]
    excluded_variables: list[str]
    variables: list[str]


def _matching_rows(d: Dataset, variables) -> tuple[list[str], np.ndarray, list[str]]:
    x = np.column_stack([d.numeric(v) for v in variables])
    complete = ~np.isnan(x).any(axis=1)
    ids = d.column("provider_id")
    return ids[complete].tolist(), x[complete], ids[~complete].tolist()


def distance_matrix(S: Dataset, T: Dataset, cfg: MatchingConfig = MatchingConfig()) -> DistanceResult:
    """Euclidean distances between every seed and every population provider.

    Standardization parameters (mean, n-1 sd) are computed on the
    population T. A variable with zero variance in T cannot be z-scored;
    it is excluded from the distance and reported. Seeds are taken in
    blocks, so the per-variable differences held at once stay under
    ``DISTANCE_BLOCK_CELLS`` whatever the number of seeds.
    """
    seed_ids, seed_x, seed_excluded = _matching_rows(S, cfg.variables)
    pop_ids, pop_x, pop_excluded = _matching_rows(T, cfg.variables)
    if not seed_ids or not pop_ids:
        raise MatchingError("no rows with complete matching variables")

    variables = list(cfg.variables)
    excluded_vars: list[str] = []
    if cfg.standardize:
        mean = pop_x.mean(axis=0)
        sd = pop_x.std(axis=0, ddof=1) if len(pop_ids) > 1 else np.zeros(len(variables))
        usable = sd > 0
        excluded_vars = [v for v, ok in zip(variables, usable) if not ok]
        if not np.any(usable):
            raise MatchingError("every matching variable has zero variance in T")
        variables = [v for v, ok in zip(variables, usable) if ok]
        seed_x = (seed_x[:, usable] - mean[usable]) / sd[usable]
        pop_x = (pop_x[:, usable] - mean[usable]) / sd[usable]

    matrix = np.empty((len(seed_ids), len(pop_ids)))
    block = max(1, DISTANCE_BLOCK_CELLS // (len(pop_ids) * len(variables)))
    for lo in range(0, len(seed_ids), block):
        rows = matrix[lo : lo + block]
        diff = seed_x[lo : lo + block, None, :] - pop_x[None, :, :]
        # each row is summed on its own, so no block size moves a bit
        np.sum(np.square(diff, out=diff), axis=2, out=rows)
        np.sqrt(rows, out=rows)
    return DistanceResult(
        matrix=matrix,
        seed_ids=seed_ids,
        population_ids=pop_ids,
        excluded_seed_ids=seed_excluded,
        excluded_population_ids=pop_excluded,
        excluded_variables=excluded_vars,
        variables=variables,
    )


def twin_label(seed_id: str) -> str:
    return f"twin:{seed_id}"


def match_twins(
    S: Dataset, T: Dataset, cfg: MatchingConfig = MatchingConfig()
) -> list[TwinPairing]:
    """Pair each seed with its minimum-distance non-self population provider.

    Ties on the minimum distance break to the lexicographically smallest
    provider_id, making the result deterministic: each seed's distances
    are taken in population id order, whose first minimum is that id.
    Seeds may share a match unless ``allow_reuse`` is off, in which case
    matches are consumed in seed order.

    Raises
    ------
    MatchingError
        For a seed with no value in a matching variable or no eligible match left.
    """
    missing = np.argwhere(np.isnan([S.numeric(v) for v in cfg.variables]).T)
    if len(missing):  # the first seed's first missing variable
        seed, var = missing[0]
        raise MatchingError(f"seed {S.column('provider_id')[seed]!r} has no value for "
                            f"matching variable {cfg.variables[var]!r}")
    dres = distance_matrix(S, T, cfg)
    ids = np.asarray(dres.population_ids)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    taken = np.zeros(len(ids), dtype=bool)
    pairings = []
    for si, seed_id in enumerate(dres.seed_ids):
        dist = dres.matrix[si, order]  # a copy: the matrix stays as it is
        own = slice(ids.searchsorted(seed_id), ids.searchsorted(seed_id, "right"))
        dist[own] = np.inf
        dist[taken] = np.inf
        best = int(np.argmin(dist))
        if taken[best] or own.start <= best < own.stop:
            raise MatchingError(f"seed {seed_id!r} has no eligible match")
        match_id = str(ids[best])
        if not cfg.allow_reuse:  # every row of the id: a twin table repeats ids
            taken[ids.searchsorted(match_id) : ids.searchsorted(match_id, "right")] = True
        pairings.append(
            TwinPairing(
                twin_id=twin_label(seed_id),
                seed_id=seed_id,
                match_id=match_id,
                distance=float(dist[best]),
            )
        )
    return pairings


def listwise_exclude(
    pairings: list[TwinPairing], d: Dataset, required: list[str]
) -> Dataset:
    """Twin-level list-wise exclusion, emitting twin fixed-effect labels.

    A twin survives only if both members have every ``required`` column
    non-missing; surviving members are emitted in pairing order (seed then
    match), each carrying the pair's twin_id. A provider matched into two
    twins appears once per twin.
    """
    first_row: dict[str, int] = {}
    for row, pid in enumerate(d.provider_ids()):
        first_row.setdefault(pid, row)
    complete = np.ones(len(d), dtype=bool)
    for col in required:
        complete &= ~d.missing(col)
    rows, labels = [], []
    for pairing in pairings:
        members = []
        for pid in (pairing.seed_id, pairing.match_id):
            if pid not in first_row:
                raise MatchingError(f"pairing references unknown provider {pid!r}")
            members.append(first_row[pid])
        if complete[members].all():
            rows.extend(members)
            labels.extend([pairing.twin_id] * 2)
    return d.take(rows).with_columns({"twin_id": labels})


def sample_seed_ids(d: Dataset, n_seeds: int, rng_seed: int) -> list[str]:
    """Uniform random seed selection without replacement (helper for experiments)."""
    ids = d.provider_ids()
    if not 1 <= n_seeds <= len(ids):
        raise ValueError(f"cannot sample {n_seeds} seeds from {len(ids)} providers")
    rng = np.random.default_rng([rng_seed])
    return [str(s) for s in rng.choice(ids, size=n_seeds, replace=False)]
