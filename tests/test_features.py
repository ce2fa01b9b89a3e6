import pytest
from hypothesis import given
from hypothesis import strategies as st

from abusekit.features import (
    AbuseRecord,
    AllocationError,
    AllocationIndex,
    HostingObservation,
    IpAllocation,
    attribute_abuse,
    build_provider_table,
    classify_shared_ip,
    parse_ip,
    pct_shared,
    popularity_index,
)


def obs(domain, ip):
    return HostingObservation(domain, ip)


class TestClassifySharedIp:
    def test_threshold_is_strict(self):
        assert classify_shared_ip(11) is True
        assert classify_shared_ip(10) is False
        assert classify_shared_ip(0) is False

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
    def test_monotone(self, a, b):
        lo, hi = sorted([a, b])
        assert classify_shared_ip(lo) <= classify_shared_ip(hi)


class TestParseIp:
    def test_dotted_quad(self):
        assert parse_ip("0.0.0.1") == 1
        assert parse_ip("1.0.0.0") == 1 << 24

    def test_integer_form(self):
        assert parse_ip("12345") == 12345
        assert parse_ip(77) == 77
        assert parse_ip("0") == 0
        assert parse_ip("4294967295") == parse_ip(2**32 - 1) == 2**32 - 1

    def test_invalid(self):
        with pytest.raises(AllocationError):
            parse_ip("300.1.2.3")
        for value in ("-5", "4294967296", -5, 2**32):  # integers outside IPv4
            with pytest.raises(AllocationError, match="outside"):
                parse_ip(value)


class TestAllocationIndex:
    def test_lookup(self):
        idx = AllocationIndex(
            [IpAllocation("a", 0, 9), IpAllocation("b", 20, 29)]
        )
        assert idx.lookup(5) == "a"
        assert idx.lookup(20) == "b"
        assert idx.lookup(15) is None
        assert idx.lookup(30) is None

    def test_overlap_rejected(self):
        with pytest.raises(AllocationError, match="overlap"):
            AllocationIndex([IpAllocation("a", 0, 10), IpAllocation("b", 10, 20)])

    def test_invalid_range(self):
        with pytest.raises(AllocationError):
            IpAllocation("a", 5, 1)


class TestPctShared:
    def test_one_shared_ip_all_domains_shared(self):
        idx = AllocationIndex([IpAllocation("a", 100, 100)])
        observations = [obs(f"d{i}.example", 100) for i in range(20)]
        stats = pct_shared(observations, idx)
        assert stats.values["a"] == 100.0

    def test_dedicated_ips_only(self):
        idx = AllocationIndex([IpAllocation("a", 0, 10)])
        stats = pct_shared([obs("d1.example", 1), obs("d2.example", 2)], idx)
        assert stats.values["a"] == 0.0

    def test_mixed_shared_and_dedicated(self):
        # one shared IP with 11 domains and one dedicated IP with 1 distinct
        # domain: 11 of 12 distinct domains sit on a shared IP
        idx = AllocationIndex([IpAllocation("a", 0, 10)])
        observations = [obs(f"s{i}.example", 1) for i in range(11)]
        observations.append(obs("lonely.example", 2))
        stats = pct_shared(observations, idx)
        assert stats.values["a"] == pytest.approx(100 * 11 / 12)

    def test_zero_domain_provider_flagged(self):
        idx = AllocationIndex([IpAllocation("a", 0, 1), IpAllocation("b", 10, 11)])
        stats = pct_shared([obs("d.example", 0)], idx)
        assert stats.values["b"] == 0.0
        assert "b" in stats.zero_domain_providers

    def test_unattributable_skipped_and_tallied(self):
        idx = AllocationIndex([IpAllocation("a", 0, 1)])
        stats = pct_shared([obs("d.example", 0), obs("x.example", 99)], idx)
        assert stats.skipped == 1

    def test_duplicate_observations_do_not_change_result(self):
        idx = AllocationIndex([IpAllocation("a", 0, 10)])
        base = [obs(f"s{i}.example", 1) for i in range(11)] + [obs("lonely.example", 2)]
        once = pct_shared(base, idx)
        twice = pct_shared(base + base, idx)
        assert once.values == twice.values


class TestPopularityIndex:
    def test_least_popular_rank_scores_zero(self):
        assert popularity_index([10**6]) == 0.0

    def test_most_popular_rank(self):
        assert popularity_index([1]) == pytest.approx(6.0)

    def test_additive(self):
        assert popularity_index([1, 1]) == pytest.approx(12.0)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            popularity_index([0])
        with pytest.raises(ValueError):
            popularity_index([10**6 + 1])

    @given(
        st.lists(st.integers(min_value=2, max_value=10**6), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=19),
    )
    def test_improving_one_rank_strictly_increases(self, ranks, pos):
        pos = pos % len(ranks)
        improved = list(ranks)
        improved[pos] = ranks[pos] - 1
        assert popularity_index(improved) > popularity_index(ranks)


class TestAttributeAbuse:
    def test_three_distinct_domains(self):
        idx = AllocationIndex([IpAllocation("a", 0, 10)])
        records = [AbuseRecord(f"d{i}.example", i) for i in range(3)]
        res = attribute_abuse(records, idx)
        assert res.counts["a"] == 3
        assert res.skipped == 0

    def test_same_domain_two_ips_counts_once(self):
        idx = AllocationIndex([IpAllocation("a", 0, 10)])
        records = [AbuseRecord("d.example", 1), AbuseRecord("d.example", 2)]
        assert attribute_abuse(records, idx).counts["a"] == 1

    def test_outside_every_range(self):
        idx = AllocationIndex([IpAllocation("a", 0, 10)])
        res = attribute_abuse([AbuseRecord("d.example", 99)], idx)
        assert res.counts["a"] == 0
        assert res.skipped == 1

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=59),
                st.integers(min_value=0, max_value=14),
            ),
            max_size=60,
        )
    )
    def test_totals_conserved(self, pairs):
        # oracle: recompute per-provider distinct pairs with plain dict/sets
        idx = AllocationIndex(
            [IpAllocation("a", 0, 19), IpAllocation("b", 20, 39)]
        )
        records = [AbuseRecord(f"d{dom}.example", ip) for ip, dom in pairs]
        res = attribute_abuse(records, idx)
        expected = {"a": set(), "b": set()}
        skipped = 0
        for rec in records:
            if rec.ip < 20:
                expected["a"].add(rec.domain)
            elif rec.ip < 40:
                expected["b"].add(rec.domain)
            else:
                skipped += 1
        assert res.counts == {p: len(s) for p, s in expected.items()}
        assert res.skipped == skipped
        assert sum(res.counts.values()) == len(expected["a"]) + len(expected["b"])


class TestBuildProviderTable:
    def test_structural_variables(self):
        allocations = [IpAllocation("a", 0, 999), IpAllocation("b", 2000, 2000)]
        observations = [obs(f"d{i}.example", 0) for i in range(11)]  # shared IP
        observations += [obs("solo.example", 1)]
        abuse = [AbuseRecord("d0.example", 0), AbuseRecord("gone.example", 5000)]
        table, report = build_provider_table(allocations, observations, abuse)
        rec = {r.provider_id: r for r in table}
        assert rec["a"].assigned_ips_log10 == pytest.approx(3.0)  # 1000 addresses
        assert rec["a"].hosting_ips_log10 == pytest.approx(0.30103, abs=1e-5)  # 2 IPs
        assert rec["a"].hosted_domains_log10 == pytest.approx(1.0791812, abs=1e-6)
        assert rec["a"].pct_shared == pytest.approx(100 * 11 / 12)
        assert rec["a"].abuse_count == 1
        assert rec["b"].abuse_count == 0
        assert report.skipped_abuse_records == 1
        assert report.zero_domain_providers == 1
