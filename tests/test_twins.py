import numpy as np
import pytest

from abusekit import twins
from abusekit.ingest import Dataset
from abusekit.twins import (
    MatchingConfig,
    MatchingError,
    distance_matrix,
    listwise_exclude,
    match_twins,
    sample_seed_ids,
    twin_label,
)

from conftest import make_dataset, traced_peak


def point_dataset(points):
    """Dataset whose (assigned, hosting) variables hold 2-d coordinates."""
    return make_dataset(
        [
            {"provider_id": name, "assigned_ips_log10": float(x), "hosting_ips_log10": float(y)}
            for name, (x, y) in points
        ]
    )


#: Nine numeric columns usable as matching variables.
MATCH_COLUMNS = (
    "assigned_ips_log10",
    "hosting_ips_log10",
    "hosted_domains_log10",
    "pct_shared",
    "price_per_year",
    "popularity_index",
    "time_in_business",
    "ict_dev_index",
    "wordpress_use",
)

def one_broadcast(S, T, cfg):
    """Every seed-population distance from one |S| x |T| x d broadcast.

    Every variable must vary in T. The z-scoring indexes with a column
    mask, as ``distance_matrix`` does: the mask makes the arrays column
    major, which sets the summation order of the squares when d >= 8.
    """
    seed_x = np.column_stack([S.numeric(v) for v in cfg.variables])
    pop_x = np.column_stack([T.numeric(v) for v in cfg.variables])
    if cfg.standardize:
        mean, sd = pop_x.mean(axis=0), pop_x.std(axis=0, ddof=1)
        usable = sd > 0
        seed_x = (seed_x[:, usable] - mean[usable]) / sd[usable]
        pop_x = (pop_x[:, usable] - mean[usable]) / sd[usable]
    diff = seed_x[:, None, :] - pop_x[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


CFG2 = MatchingConfig(
    variables=("assigned_ips_log10", "hosting_ips_log10"), standardize=False
)


def exhaustive_oracle(S, T, cfg):
    """Plain-loop nearest-neighbor scan with the documented tie-break.

    Without ``allow_reuse`` a candidate matched to an earlier seed is skipped.
    """

    def rows(d):
        """(provider_id, matching values) per row, as Python scalars."""
        return list(zip(d.provider_ids(), zip(*(d.column(v).tolist() for v in cfg.variables))))

    candidates = rows(T)
    pairs, used = [], set()
    for seed_id, svec in rows(S):
        best = None
        for cand_id, cvec in candidates:
            if cand_id == seed_id or cand_id in used:
                continue
            squares = 0.0
            for a, b in zip(svec, cvec):
                squares += (a - b) ** 2
            key = (squares**0.5, cand_id)
            if best is None or key < best:
                best = key
        pairs.append((seed_id, best[1], best[0]))
        if not cfg.allow_reuse:
            used.add(best[1])
    return pairs


class TestDistanceMatrix:
    def test_three_four_five(self):
        S = point_dataset([("s", (0, 0))])
        T = point_dataset([("t", (3, 4))])
        res = distance_matrix(S, T, CFG2)
        assert res.matrix[0, 0] == pytest.approx(5.0)

    def test_identical_vectors(self):
        S = point_dataset([("s", (1.5, 2.5))])
        T = point_dataset([("t", (1.5, 2.5))])
        assert distance_matrix(S, T, CFG2).matrix[0, 0] == 0.0

    def test_standardized_contribution(self):
        # population sd 2 on the first variable, raw gap 4 -> squared
        # contribution (4/2)^2 = 4
        T = point_dataset([(f"t{i}", (x, 0)) for i, x in enumerate([0, 2, 4])])
        # sd of [0, 2, 4] is 2 (n-1); second variable is constant -> excluded
        S = point_dataset([("s", (6, 0))])
        cfg = MatchingConfig(
            variables=("assigned_ips_log10", "hosting_ips_log10"), standardize=True
        )
        res = distance_matrix(S, T, cfg)
        assert res.excluded_variables == ["hosting_ips_log10"]
        assert res.matrix[0, 2] ** 2 == pytest.approx(1.0)  # (6-4)/2
        assert res.matrix[0, 0] ** 2 == pytest.approx(9.0)  # (6-0)/2

    def test_symmetry_and_zero_diagonal_on_self(self, rng):
        pts = [(f"q{i}", tuple(rng.normal(size=2))) for i in range(8)]
        d = point_dataset(pts)
        res = distance_matrix(d, d, CFG2)
        assert np.allclose(res.matrix, res.matrix.T)
        assert np.allclose(np.diag(res.matrix), 0.0)

    def test_missing_matching_rows_excluded(self):
        d = make_dataset(
            [
                dict(provider_id="a", price_per_year=1.0),
                dict(provider_id="b", price_per_year=None),
            ]
        )
        cfg = MatchingConfig(variables=("price_per_year",), standardize=False)
        res = distance_matrix(d, d, cfg)
        assert res.excluded_seed_ids == ["b"]
        assert res.population_ids == ["a"]

    def test_string_matching_variable_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            MatchingConfig(variables=("assigned_ips_log10", "country"))

    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("n_vars", [2, 9])
    @pytest.mark.parametrize("seeds_per_block", [1, 5, 17])
    def test_seed_blocks_match_one_broadcast(self, monkeypatch, standardize, n_vars, seeds_per_block):
        # data differ per case, so no freed matrix of an earlier case holds
        # the values an unfilled row of this one would have to show
        r = np.random.default_rng([seeds_per_block, n_vars, standardize])
        n_pop = 23

        def table(prefix, n):
            # integer-valued coordinates, so many distances tie exactly
            cols = {v: r.integers(0, 4, n).astype(float) for v in MATCH_COLUMNS}
            cols.update(provider_id=[f"{prefix}{i:02d}" for i in range(n)], abuse_count=[0] * n)
            return Dataset(cols)

        S, T = table("s", 17), table("t", n_pop)
        cfg = MatchingConfig(variables=MATCH_COLUMNS[:n_vars], standardize=standardize)
        monkeypatch.setattr(twins, "DISTANCE_BLOCK_CELLS", seeds_per_block * n_pop * n_vars)
        blocked = distance_matrix(S, T, cfg).matrix
        blocked_pairs = match_twins(S, T, cfg)
        assert np.array_equal(blocked, one_broadcast(S, T, cfg))
        monkeypatch.setattr(twins, "DISTANCE_BLOCK_CELLS", 10**12)
        assert match_twins(S, T, cfg) == blocked_pairs

    def test_peak_memory_below_two_matrices(self):
        # pipeline-twins' shape: 200 seeds against 1,500 providers
        r = np.random.default_rng(13)

        def table(prefix, n):
            cols = {v: r.uniform(0.0, 5.0, n) for v in MATCH_COLUMNS[:4]}
            cols.update(provider_id=[f"{prefix}{i}" for i in range(n)], abuse_count=[0] * n)
            return Dataset(cols)

        S, T = table("s", 200), table("t", 1500)
        matrix = distance_matrix(S, T).matrix
        # matching takes the matrix a row at a time, holding no second one
        for call in (distance_matrix, match_twins):
            peak = traced_peak(call, S, T)
            assert peak < 2 * matrix.nbytes, (call.__name__, peak / matrix.nbytes)


class TestMatchTwins:
    def test_closest_non_self(self):
        T = point_dataset([("A", (0, 0)), ("B", (0, 1)), ("C", (3, 4))])
        S = point_dataset([("A", (0, 0))])
        (pair,) = match_twins(S, T, CFG2)
        assert (pair.seed_id, pair.match_id) == ("A", "B")
        assert pair.distance == pytest.approx(1.0)
        assert pair.twin_id == twin_label("A")

    def test_lexicographic_tie_break(self):
        T = point_dataset([("A", (0, 0)), ("D", (1, 0)), ("B", (0, 1))])
        S = point_dataset([("A", (0, 0))])
        (pair,) = match_twins(S, T, CFG2)
        assert pair.match_id == "B"

    def test_match_reuse_allowed(self):
        T = point_dataset([("A", (0, 0)), ("B", (10, 0)), ("hub", (5, 0))])
        S = point_dataset([("A", (0, 0)), ("B", (10, 0))])
        pairs = match_twins(S, T, CFG2)
        assert [p.match_id for p in pairs] == ["hub", "hub"]

    def test_no_reuse_consumes_matches(self):
        T = point_dataset([("A", (0, 0)), ("B", (10, 0)), ("hub", (5, 0))])
        S = point_dataset([("A", (0, 0)), ("B", (10, 0))])
        cfg = MatchingConfig(
            variables=CFG2.variables, standardize=False, allow_reuse=False
        )
        pairs = match_twins(S, T, cfg)
        assert pairs[0].match_id == "hub"
        assert pairs[1].match_id == "A"

    def test_seed_without_candidates(self):
        only = point_dataset([("A", (0, 0))])
        with pytest.raises(MatchingError):
            match_twins(only, only, CFG2)

    def test_seed_without_a_matching_value_rejected(self):
        # distance_matrix leaves such a seed out; matching would drop it silently
        T = make_dataset(
            [dict(provider_id=pid, price_per_year=price, pct_shared=shared)
             for pid, price, shared in [("a", 1.0, None), ("b", None, None), ("c", 3.0, 5.0)]]
        )
        cfg = MatchingConfig(variables=("pct_shared", "price_per_year"), standardize=False)
        with pytest.raises(MatchingError) as err:
            match_twins(T.take([2, 1, 0]), T, cfg)
        assert str(err.value) == "seed 'b' has no value for matching variable 'pct_shared'"

    def test_pairing_counts_and_uniqueness_bound(self, rng):
        n_pop, n_seeds = 400, 25
        pop = point_dataset(
            [(f"h{i:04d}", tuple(rng.normal(size=2))) for i in range(n_pop)]
        )
        seed_ids = set(
            str(s) for s in rng.choice(pop.provider_ids(), n_seeds, replace=False)
        )
        S = pop.take([pid in seed_ids for pid in pop.provider_ids()])
        pairs = match_twins(S, pop, CFG2)
        assert len(pairs) == n_seeds
        distinct = {p.seed_id for p in pairs} | {p.match_id for p in pairs}
        assert len(distinct) <= 2 * n_seeds

    def test_agrees_with_exhaustive_oracle(self, rng):
        for trial in range(40):
            allow_reuse = trial % 2 == 0
            cfg = MatchingConfig(CFG2.variables, standardize=False, allow_reuse=allow_reuse)
            n_pop = int(rng.integers(5, 60))
            coords = rng.integers(0, 6, size=(n_pop, 2)).astype(float)  # force ties
            # ids out of row order, so a tie broken by row would show
            names = rng.permutation(n_pop)
            pop = point_dataset(
                [(f"h{names[i]:03d}", tuple(coords[i])) for i in range(n_pop)]
            )
            n_seeds = int(rng.integers(1, min(8, n_pop)))
            chosen = rng.choice(n_pop, n_seeds, replace=False)
            S = pop.take(chosen)
            got = match_twins(S, pop, cfg)
            want = exhaustive_oracle(S, pop, cfg)
            assert [(p.seed_id, p.match_id) for p in got] == [
                (s, m) for s, m, _ in want
            ]
            for p, (_, _, dist) in zip(got, want):
                assert p.distance == pytest.approx(dist)

    def test_affine_rescale_invariance_when_standardized(self, rng):
        pts = rng.normal(size=(50, 2))
        pop = point_dataset([(f"h{i:03d}", tuple(pts[i])) for i in range(50)])
        scaled = point_dataset(
            [(f"h{i:03d}", tuple(pts[i] * 7.0 + 3.0)) for i in range(50)]
        )
        cfg = MatchingConfig(variables=CFG2.variables, standardize=True)
        S1 = pop.take(range(6))
        S2 = scaled.take(range(6))
        m1 = match_twins(S1, pop, cfg)
        m2 = match_twins(S2, scaled, cfg)
        assert [(p.seed_id, p.match_id) for p in m1] == [
            (p.seed_id, p.match_id) for p in m2
        ]


class TestListwiseExclude:
    def make_pairs_dataset(self, n_twins, price_complete):
        """n_twins pairings; price present for both members of the first
        ``price_complete`` twins, missing for one member otherwise."""
        from abusekit.twins import TwinPairing

        rows, pairings = [], []
        for t in range(n_twins):
            seed_id, match_id = f"s{t:03d}", f"m{t:03d}"
            complete = t < price_complete
            rows.append(dict(provider_id=seed_id, price_per_year=10.0, abuse_count=1))
            rows.append(
                dict(
                    provider_id=match_id,
                    price_per_year=20.0 if complete else None,
                    abuse_count=2,
                )
            )
            pairings.append(TwinPairing(twin_label(seed_id), seed_id, match_id, 0.0))
        return make_dataset(rows), pairings

    def test_missing_member_drops_both(self):
        d, pairings = self.make_pairs_dataset(1, price_complete=0)
        out = listwise_exclude(pairings, d, ["price_per_year"])
        assert len(out) == 0

    def test_complete_twins_survive_with_labels(self):
        d, pairings = self.make_pairs_dataset(3, price_complete=3)
        out = listwise_exclude(pairings, d, ["price_per_year"])
        assert len(out) == 6
        assert out.column("twin_id").tolist()[:2] == [twin_label("s000")] * 2

    def test_42_of_105_complete_twins_give_84_rows(self):
        d, pairings = self.make_pairs_dataset(105, price_complete=42)
        out = listwise_exclude(pairings, d, ["price_per_year"])
        assert len(out) == 84

    def test_even_rows_and_twin_sizes_of_two(self, rng):
        d, pairings = self.make_pairs_dataset(20, price_complete=int(rng.integers(0, 21)))
        out = listwise_exclude(pairings, d, ["price_per_year"])
        assert len(out) % 2 == 0
        sizes = {}
        for twin_id in out.column("twin_id").tolist():
            sizes[twin_id] = sizes.get(twin_id, 0) + 1
        assert all(v == 2 for v in sizes.values())

    def test_unknown_provider_rejected(self):
        from abusekit.twins import TwinPairing

        d, _ = self.make_pairs_dataset(1, 1)
        with pytest.raises(MatchingError):
            listwise_exclude([TwinPairing("t", "nope", "m000", 0.0)], d, [])


def test_sample_seed_ids_deterministic():
    d = make_dataset(list(range(30)))
    a = sample_seed_ids(d, 5, rng_seed=9)
    b = sample_seed_ids(d, 5, rng_seed=9)
    c = sample_seed_ids(d, 5, rng_seed=10)
    assert a == b
    assert a != c
    assert len(set(a)) == 5
