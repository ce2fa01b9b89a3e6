import csv
import re
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from abusekit import features, ingest
from abusekit.features import (
    AllocationError,
    AllocationIndex,
    DomainIps,
    attribute_abuse,
    build_provider_table,
    classify_shared_ip,
    load_abuse,
    load_allocations,
    load_enrichment,
    load_observations,
    parse_ip,
    pct_shared,
    popularity_index,
)
from abusekit.ingest import COLUMNS, LoadError, load_table

from conftest import (
    BLOCK_CHARS,
    FIELD_LIMITS,
    MANIFEST_LINE,
    block_chars,
    field_limit,
    provider_files,
    read_cell,
    read_rows,
    traced_peak,
)

#: Columns each raw loader reads, in the order its row loop visits them.
LOADER_COLUMNS = {
    "allocations": ("provider_id", "ip_start", "ip_end"),
    "observations": ("domain", "ip"),
    "abuse": ("domain", "ip"),
}
LOADERS = {
    "allocations": load_allocations,
    "observations": load_observations,
    "abuse": load_abuse,
}
#: The one class of every input error each loader raises: a table's
#: (enrichment is a provider table) or a raw file's.
LOADER_ERRORS = {
    load_table: LoadError,
    load_enrichment: LoadError,
    load_allocations: AllocationError,
    load_observations: AllocationError,
    load_abuse: AllocationError,
}

#: Header of a provider table holding the required columns only.
PROVIDER_HEADER = (
    "provider_id,assigned_ips_log10,hosting_ips_log10,hosted_domains_log10,pct_shared,abuse_count"
)


def index(*ranges):
    """An AllocationIndex over (provider_id, start, end) triples."""
    ids, starts, ends = zip(*ranges) if ranges else ((), (), ())
    return AllocationIndex(ids, starts, ends)


def codes(text):
    """The loaders' domain codes of ``text``: each value's index of first appearance."""
    first = {}
    return [first.setdefault(value, i) for i, value in enumerate(text)]


def rows(pairs):
    """DomainIps over (domain, ip) pairs."""
    return DomainIps(codes([d for d, _ in pairs]), [ip for _, ip in pairs])


def domains(path, delimiter=","):
    """The domain text of a raw file, read uncoded as ``load_allocations`` reads ``provider_id``.

    Checks first that ``load_observations`` codes that text as ``codes`` does.
    """
    text, _ = features._read_columns(path, delimiter, "domain", ("ip",))
    assert load_observations(path, delimiter).codes.tolist() == codes(text)
    return text


def obs(domain, ip):
    return (domain, ip)


def owner(idx, ip):
    pos = idx.owners([ip])[0]
    return None if pos < 0 else idx.provider_ids[pos]


def by_id(idx, values):
    """A per-provider array as a dict keyed by provider_id."""
    return dict(zip(idx.provider_ids.tolist(), np.asarray(values).tolist()))


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
        # int() also reads these, as Python literals
        for value in ("+7", "1_000", "\u0663", " +7 "):
            with pytest.raises(AllocationError) as err:
                parse_ip(value)
            assert str(err.value) == f"invalid IP address {value.strip()!r}"


class TestAllocationIndex:
    def test_lookup(self):
        idx = index(("a", 0, 9), ("b", 20, 29))
        assert owner(idx, 5) == "a"
        assert owner(idx, 20) == "b"
        assert owner(idx, 15) is None
        assert owner(idx, 30) is None

    def test_overlap_rejected(self):
        with pytest.raises(AllocationError, match="overlap"):
            index(("a", 0, 10), ("b", 10, 20))

    def test_invalid_range(self):
        with pytest.raises(AllocationError):
            index(("a", 5, 1))

    def test_error_messages(self):
        with pytest.raises(AllocationError, match=r"^allocation for 'b': start > end$"):
            index(("a", 0, 3), ("b", 9, 8), ("c", 7, 6))
        message = r"^overlapping allocations: 'b' \[5, 12\] and 'a' \[10, 20\]$"
        with pytest.raises(AllocationError, match=message):
            index(("a", 10, 20), ("b", 5, 12))

    def test_owners_of_unsorted_ranges_and_edges(self):
        idx = index(("b", 100, 199), ("a", 0, 9), ("b", 20, 29))
        assert idx.provider_ids.tolist() == ["a", "b"]
        assert idx.assigned_sizes.tolist() == [10, 110]
        ips = [0, 9, 10, 19, 20, 29, 30, 99, 100, 199, 200, 2**32 - 1]
        assert idx.owners(ips).tolist() == [0, 0, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1]

    def test_empty_index_owns_nothing(self):
        idx = index()
        assert len(idx.provider_ids) == 0
        assert idx.owners([0, 5, 2**32 - 1]).tolist() == [-1, -1, -1]


class TestPctShared:
    def test_one_shared_ip_all_domains_shared(self):
        idx = index(("a", 100, 100))
        observations = [obs(f"d{i}.example", 100) for i in range(20)]
        stats = pct_shared(rows(observations), idx)
        assert by_id(idx, stats.values)["a"] == 100.0

    def test_dedicated_ips_only(self):
        idx = index(("a", 0, 10))
        stats = pct_shared(rows([obs("d1.example", 1), obs("d2.example", 2)]), idx)
        assert by_id(idx, stats.values)["a"] == 0.0

    def test_mixed_shared_and_dedicated(self):
        # one shared IP with 11 domains and one dedicated IP with 1 distinct
        # domain: 11 of 12 distinct domains sit on a shared IP
        idx = index(("a", 0, 10))
        observations = [obs(f"s{i}.example", 1) for i in range(11)]
        observations.append(obs("lonely.example", 2))
        stats = pct_shared(rows(observations), idx)
        assert by_id(idx, stats.values)["a"] == pytest.approx(100 * 11 / 12)

    def test_zero_domain_provider_flagged(self):
        idx = index(("a", 0, 1), ("b", 10, 11))
        stats = pct_shared(rows([obs("d.example", 0)]), idx)
        assert by_id(idx, stats.values)["b"] == 0.0
        assert by_id(idx, stats.hosted_domains)["b"] == 0  # the zero-domain flag

    def test_unattributable_skipped_and_tallied(self):
        idx = index(("a", 0, 1))
        stats = pct_shared(rows([obs("d.example", 0), obs("x.example", 99)]), idx)
        assert stats.skipped == 1

    def test_duplicate_observations_do_not_change_result(self):
        idx = index(("a", 0, 10))
        base = [obs(f"s{i}.example", 1) for i in range(11)] + [obs("lonely.example", 2)]
        once = pct_shared(rows(base), idx)
        twice = pct_shared(rows(base + base), idx)
        assert once.values.tolist() == twice.values.tolist()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=14),
            ),
            min_size=40,
            max_size=200,
        )
    )
    def test_matches_dict_of_sets_oracle(self, pairs):
        # "b" owns two ranges, "c" is never observed, IPs 3 and 5 are
        # unallocated; 15 domains on 6 IPs put many IPs near the shared
        # threshold (> 10 domains)
        idx = index(("a", 0, 1), ("b", 2, 2), ("b", 4, 4), ("c", 100, 100))
        stats = pct_shared(rows([(f"d{dom}.example", ip) for ip, dom in pairs]), idx)

        def provider(ip):
            return "a" if ip <= 1 else "b" if ip in (2, 4) else None

        domains_per_ip = defaultdict(set)
        skipped = 0
        for ip, dom in pairs:
            if provider(ip) is None:
                skipped += 1
            else:
                domains_per_ip[ip].add(dom)
        hosted = {p: set() for p in "abc"}
        on_shared = {p: set() for p in "abc"}
        ips = {p: 0 for p in "abc"}
        for ip, doms in domains_per_ip.items():
            hosted[provider(ip)] |= doms
            ips[provider(ip)] += 1
            if len(doms) > 10:
                on_shared[provider(ip)] |= doms
        assert by_id(idx, stats.values) == {
            p: 100.0 * len(on_shared[p]) / len(hosted[p]) if hosted[p] else 0.0
            for p in "abc"
        }
        assert by_id(idx, stats.hosting_ips) == ips
        assert by_id(idx, stats.hosted_domains) == {p: len(s) for p, s in hosted.items()}
        assert stats.skipped == skipped


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
        idx = index(("a", 0, 10))
        records = [(f"d{i}.example", i) for i in range(3)]
        counts, skipped = attribute_abuse(rows(records), idx)
        assert by_id(idx, counts)["a"] == 3
        assert skipped == 0

    def test_same_domain_two_ips_counts_once(self):
        idx = index(("a", 0, 10))
        records = [("d.example", 1), ("d.example", 2)]
        assert by_id(idx, attribute_abuse(rows(records), idx)[0])["a"] == 1

    def test_outside_every_range(self):
        idx = index(("a", 0, 10))
        counts, skipped = attribute_abuse(rows([("d.example", 99)]), idx)
        assert by_id(idx, counts)["a"] == 0
        assert skipped == 1

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
        idx = index(("a", 0, 19), ("b", 20, 39))
        records = [(f"d{dom}.example", ip) for ip, dom in pairs]
        counts, res_skipped = attribute_abuse(rows(records), idx)
        expected = {"a": set(), "b": set()}
        skipped = 0
        for domain, ip in records:
            if ip < 20:
                expected["a"].add(domain)
            elif ip < 40:
                expected["b"].add(domain)
            else:
                skipped += 1
        assert by_id(idx, counts) == {p: len(s) for p, s in expected.items()}
        assert res_skipped == skipped
        assert counts.sum() == len(expected["a"]) + len(expected["b"])


class TestBuildProviderTable:
    def test_structural_variables(self):
        allocations = index(("a", 0, 999), ("b", 2000, 2000))
        observations = [obs(f"d{i}.example", 0) for i in range(11)]  # shared IP
        observations += [obs("solo.example", 1)]
        abuse = [("d0.example", 0), ("gone.example", 5000)]
        table, report = build_provider_table(allocations, rows(observations), rows(abuse))
        a, b = (table.provider_ids().index(pid) for pid in ("a", "b"))
        assert table.column("assigned_ips_log10")[a] == pytest.approx(3.0)  # 1000 addresses
        assert table.column("hosting_ips_log10")[a] == pytest.approx(0.30103, abs=1e-5)  # 2 IPs
        assert table.column("hosted_domains_log10")[a] == pytest.approx(1.0791812, abs=1e-6)
        assert table.column("pct_shared")[a] == pytest.approx(100 * 11 / 12)
        assert table.column("abuse_count")[a] == 1
        assert table.column("abuse_count")[b] == 0
        assert report.skipped_abuse_records == 1
        assert report.zero_domain_providers == 1


class TestLoaders:
    def test_allocations_load_into_an_index(self, tmp_path):
        path = tmp_path / "allocations.csv"
        path.write_text(
            "# comment\nprovider_id,ip_start,ip_end\n"
            "b,0.0.1.0,0.0.1.255\n a ,0,9\n\nb,20,29\n"
        )
        idx = load_allocations(path)
        assert idx.provider_ids.tolist() == ["a", "b"]
        assert idx.assigned_sizes.tolist() == [10, 266]
        assert idx.owners([5, 256, 25, 15]).tolist() == [0, 1, 1, -1]

    def test_allocation_errors_keep_their_messages(self, tmp_path):
        path = tmp_path / "allocations.csv"
        path.write_text("provider_id,ip_start,ip_end\na,5,1\n")
        with pytest.raises(AllocationError, match=r"^allocation for 'a': start > end$"):
            load_allocations(path)
        path.write_text("provider_id,ip_start,ip_end\na,0,9\nb,1.2.3,9\n")
        message = rf"^{re.escape(str(path))}: row 3: invalid IP address '1\.2\.3': "
        with pytest.raises(AllocationError, match=message):
            load_allocations(path)
        path.write_text("provider_id,ip_start\na,0\n")
        with pytest.raises(AllocationError, match="missing required column 'ip_end'"):
            load_allocations(path)

    # float() and int() also read "_" between digits and non-ASCII digits, as
    # Python literals; a file's number is rejected with its row's error, in a
    # file split by columns (LF) and in one read by csv.reader (CRLF)
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("cell", ["1_0", "\u0663"])
    @pytest.mark.parametrize(
        "loader, text, error, message",
        [
            (load_table, PROVIDER_HEADER + "\na,1,1,1,10,3\nb,1,1,1,{},0\n", LoadError,
             "row 3: non-numeric value {!r} in column 'pct_shared'"),
            (load_enrichment, "provider_id,price_per_year\na,2\nb,{}\n", LoadError,
             "row 3: non-numeric value {!r} in column 'price_per_year'"),
        ],
        ids=["providers", "enrichment"],
    )
    def test_number_with_literal_extras_rejected(self, tmp_path, loader, text, error, message,
                                                  cell, newline):
        path = tmp_path / "input.csv"
        path.write_bytes(text.format(cell).replace("\n", newline).encode())
        with pytest.raises(error) as err:
            loader(path)
        assert str(err.value) == f"{path}: {message.format(cell)}"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("cell", ["1_000", "+7", "\u0663"])
    @pytest.mark.parametrize(
        "loader, text",
        [
            (load_allocations, "provider_id,ip_start,ip_end\na,0,9\nb,{},20\n"),
            (load_observations, "domain,ip\na.example,1\nb.example,{}\n"),
            (load_abuse, "domain,ip,timestamp\na.example,1,t\nb.example,{},t\n"),
        ],
        ids=["allocations", "observations", "abuse"],
    )
    def test_ip_with_literal_extras_rejected(self, tmp_path, loader, text, cell, newline):
        path = tmp_path / "input.csv"
        path.write_bytes(text.format(cell).replace("\n", newline).encode())
        with pytest.raises(AllocationError) as err:
            loader(path)
        assert str(err.value) == f"{path}: row 3: invalid IP address {cell!r}"

    def test_empty_enrichment_count_keeps_the_table_count(self, tmp_path):
        path = tmp_path / "enrichment.csv"
        path.write_text("provider_id,abuse_count,price_per_year\na,,1.5\nb,7,\n")
        table = ingest.Dataset({
            "provider_id": ["a", "b", "c"],
            **{name: [0.0] * 3 for name in ingest.REQUIRED_COLUMNS[1:5]},
            "abuse_count": [1, 2, 3],
        })
        merged = features.merge_enrichment(
            table, load_enrichment(path), ["abuse_count", "price_per_year", "country"]
        )
        assert merged.column("abuse_count").tolist() == [1, 7, 3]
        assert merged.column("abuse_count").dtype == np.int64
        assert merged.column("price_per_year").tolist()[0] == 1.5
        assert merged.missing("price_per_year").tolist() == [False, True, True]

    def test_observations_and_abuse_share_one_columnar_type(self, tmp_path):
        observations = tmp_path / "observations.csv"
        observations.write_text("ip,domain\n1.0.0.0, a.example \n7,b.example\n")
        abuse = tmp_path / "abuse.csv"
        abuse.write_text("domain,ip,timestamp\na.example,7,2015-03-01\nb.example,8,\n")
        for loaded in (load_observations(observations), load_abuse(abuse)):
            assert isinstance(loaded, DomainIps)
            assert len(loaded) == 2
            assert loaded.ips.dtype == np.int64
        assert domains(observations) == ["a.example", "b.example"]
        assert domains(abuse) == ["a.example", "b.example"]
        assert load_abuse(abuse).codes.tolist() == [0, 1]
        assert load_observations(observations).ips.tolist() == [1 << 24, 7]
        assert load_abuse(abuse).ips.tolist() == [7, 8]

    def test_hash_line_inside_a_quoted_cell_is_data(self, tmp_path):
        # only a line that starts a row is a comment, quoted text or not
        path = tmp_path / "observations.csv"
        path.write_text('# manifest {"command":"features"}\ndomain,ip\n"a\n#b",1\n'
                        '# "quoted" comment\nc.example,2\n')
        loaded = load_observations(path)
        assert domains(path) == ["a\n#b", "c.example"]
        assert loaded.ips.tolist() == [1, 2]

    def test_every_ip_cell_is_validated(self, tmp_path):
        path = tmp_path / "abuse.csv"
        path.write_text("domain,ip\na.example,7\nb.example,4294967296\n")
        message = rf"^{re.escape(str(path))}: row 3: invalid IP address '4294967296': outside"
        with pytest.raises(AllocationError, match=message):
            load_abuse(path)
        # a bad dotted quad names its file and row as any other loader error does
        path.write_text("domain,ip\na.example,1.2.3.4\nb.example,1.2.3.999\n")
        with pytest.raises(AllocationError) as err:
            load_abuse(path)
        assert str(err.value).startswith(f"{path}: row 3: invalid IP address '1.2.3.999': ")

    @pytest.mark.parametrize(
        "loader, text, column",
        [
            (load_observations, "domain,ip\na.example,1\nb.example\n", "ip"),
            (load_observations, "ip,x,domain\n1,,a.example\n2,\n", "domain"),
            (load_abuse, "domain,ip,timestamp\na.example,1,2015\nb.example\n", "ip"),
            (load_allocations, "provider_id,ip_start,ip_end\na,0,9\nb,10\n", "ip_end"),
            (load_allocations, "ip_start,provider_id,ip_end\n0,a,9\n10\n", "provider_id"),
            # the key is read first, though an IP column is cut off before it
            (load_allocations, "ip_start,ip_end,provider_id\n0,9,a\n10\n", "provider_id"),
            (load_enrichment, "country,provider_id\nUS,a\nDE\n", "provider_id"),
        ],
        ids=["observations", "observations-reordered", "abuse", "allocations",
             "allocations-reordered", "allocations-cut-before-key", "enrichment"],
    )
    def test_short_row_names_file_row_and_column(self, tmp_path, loader, text, column):
        path = tmp_path / "input.csv"
        path.write_text(text)
        with pytest.raises(LOADER_ERRORS[loader]) as err:
            loader(path)
        assert str(err.value) == f"{path}: row 3: no value in column {column!r}"

    @pytest.mark.parametrize(
        "loader, text, column",
        [
            (load_allocations, "provider_id,ip_start,ip_end\na,0,99\n,100,199\n", "provider_id"),
            (load_allocations, "provider_id,ip_start,ip_end\na,0,99\n  ,x,199\n", "provider_id"),
            (load_abuse, "domain,ip\na.example,7\n,150\n", "domain"),
            (load_observations, "ip,domain\n7,a.example\n1.2.3.999, \n", "domain"),
            (load_enrichment, "provider_id,price_per_year\na,1.0\n,2.0\n", "provider_id"),
            (load_enrichment, "provider_id,price_per_year\na,1.0\n ,x\n,3.0\n", "provider_id"),
            (load_allocations, "provider_id,ip_start,ip_end\na,0,99\nb,,199\n", "ip_start"),
            (load_allocations, "provider_id,ip_start,ip_end\na,0,99\nb, ,x\n", "ip_start"),
            (load_allocations, "provider_id,ip_start,ip_end\na,0,99\nb,100,\n", "ip_end"),
            (load_allocations, "provider_id,ip_start,ip_end\na,0,99\nb,100,\t\n", "ip_end"),
            (load_observations, "domain,ip\na.example,7\nb.example,\n", "ip"),
            (load_observations, "ip,domain\n7,a.example\n  ,b.example\n", "ip"),
            (load_abuse, "domain,ip,timestamp\na.example,7,t\nb.example,,t\n", "ip"),
            (load_abuse, "domain,ip,timestamp\na.example,7,t\nb.example, ,t\n", "ip"),
        ],
        ids=["allocations", "allocations-before-bad-ip", "abuse", "observations-before-bad-ip",
             "enrichment", "enrichment-before-bad-cell-and-duplicate",
             "allocations-empty-start", "allocations-blank-start-before-bad-end",
             "allocations-empty-end", "allocations-blank-end", "observations-empty-ip",
             "observations-blank-ip", "abuse-empty-ip", "abuse-blank-ip"],
    )
    def test_empty_key_cell_has_no_value(self, tmp_path, loader, text, column):
        # an empty key would name a provider "" or count a domain ""; it is
        # checked before the row's other cells, as a row loop reads them.
        # An IP cell empty after stripping has no value either.
        path = tmp_path / "input.csv"
        path.write_text(text)
        for chars in range(1, len(text) + 1):
            with block_chars(chars), pytest.raises(LOADER_ERRORS[loader]) as err:
                loader(path)
            assert str(err.value) == f"{path}: row 3: no value in column {column!r}", chars

    @pytest.mark.parametrize(
        "loader, text, error, message",
        [
            (
                load_table,
                "# manifest\n" + PROVIDER_HEADER + "\na,1,1,1,10,3\n# note\nb,1,1,1,x,0\n",
                LoadError,
                "row 5: non-numeric value 'x' in column 'pct_shared'",
            ),
            (
                load_observations,
                "# manifest\ndomain,ip\na.example,1\nb.example\n",
                AllocationError,
                "row 4: no value in column 'ip'",
            ),
            (
                load_enrichment,
                "# manifest\nprovider_id,price_per_year\na,x\n",
                LoadError,
                "row 3: non-numeric value 'x' in column 'price_per_year'",
            ),
            (
                load_table,
                PROVIDER_HEADER + ',country\na,1,1,1,10,3,"N\nL"\nb,1,1,1,x,0,DE\n',
                LoadError,
                "row 4: non-numeric value 'x' in column 'pct_shared'",
            ),
            (
                load_observations,
                'domain,ip\n"a\nL",1\nb.example\n',
                AllocationError,
                "row 4: no value in column 'ip'",
            ),
            (
                load_table,
                PROVIDER_HEADER + "\na,1,1,1,10,3\nb,1,1,1,10,3\n\n# note\na,2,1,1,20,0\n",
                LoadError,
                "row 6: duplicate provider_id 'a'",
            ),
            (
                load_enrichment,
                "provider_id,price_per_year\na,1.0\nb,2.0\n# note\n\nc,3\n a ,2.0\n",
                LoadError,
                "row 7: duplicate provider_id 'a'",
            ),
            (
                load_table,
                PROVIDER_HEADER
                + "\na,1,1,1,10,3\nb,1,1,1,10,3\na,1,1,1,10,3\n# note\nc,1,1,1,x,0\n",
                LoadError,
                "row 4: duplicate provider_id 'a'",
            ),
            (
                load_enrichment,
                "provider_id,price_per_year\na,1.0\n\n a ,2.0\nb,3.0\nc,x\n",
                LoadError,
                "row 4: duplicate provider_id 'a'",
            ),
            (
                load_enrichment,
                "# manifest\nprovider_id,price_per_year\na,1.0\nb,x\n# note\na,2.0\n",
                LoadError,
                "row 4: non-numeric value 'x' in column 'price_per_year'",
            ),
            (
                load_table,
                PROVIDER_HEADER + ',country\na,1,1,1,10,3,"N\nL"\nb,1,1,1,10,3,DE\n# note\n'
                "a,2,1,1,20,0,\n",
                LoadError,
                "row 6: duplicate provider_id 'a'",
            ),
        ],
        ids=["providers", "observations", "enrichment", "providers-multiline",
             "observations-multiline", "providers-duplicate", "enrichment-duplicate",
             "duplicate-before-bad-cell", "enrichment-duplicate-before-bad-cell",
             "bad-cell-before-duplicate", "duplicate-after-multiline"],
    )
    def test_errors_name_file_and_physical_line(self, tmp_path, loader, text, error, message):
        # comment lines count: the row is the line number an editor shows;
        # at every block size the plain reader's blocks start on other lines
        path = tmp_path / "input.csv"
        path.write_text(text)
        for chars in range(1, len(text) + 1):
            with block_chars(chars), pytest.raises(error) as err:
                loader(path)
            assert str(err.value) == f"{path}: {message}", chars

    def test_duplicate_enrichment_provider_rejected(self, tmp_path):
        path = tmp_path / "enrichment.csv"
        path.write_text("provider_id,price_per_year\na,1.0\n# note\n a ,2.0\n")
        with pytest.raises(LoadError) as err:
            load_enrichment(path)
        assert str(err.value) == f"{path}: row 4: duplicate provider_id 'a'"
        # within one row a bad cell is reported before the duplicate id
        path.write_text("provider_id,price_per_year\na,1.0\na,x\n")
        with pytest.raises(LoadError, match=r"row 3: non-numeric value 'x'"):
            load_enrichment(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["plain", "crlf"])
    @pytest.mark.parametrize(
        "loader, text",
        [
            (load_table, PROVIDER_HEADER + "\na,1,1,1,10,3"),
            (load_allocations, "provider_id,ip_start,ip_end\na,0,9"),
            (load_observations, "domain,ip\na.example,7"),
            (load_enrichment, "provider_id,price_per_year\na,9.5"),
        ],
        ids=["providers", "allocations", "observations", "enrichment"],
    )
    def test_utf8_byte_order_mark_accepted(self, tmp_path, loader, text, newline):
        path = tmp_path / "input.csv"
        path.write_text("\ufeff" + text.replace("\n", newline) + newline, encoding="utf-8")
        plain = tmp_path / "plain.csv"
        plain.write_text(text + "\n")
        assert loaded(loader(path)) == loaded(loader(plain))
        if loader is load_observations:
            assert domains(path) == domains(plain) == ["a.example"]

    @pytest.mark.parametrize(
        "loader, text, column",
        [
            (load_allocations, "provider_id,ip_start,ip_start,ip_end\na,0,1,9\n", "ip_start"),
            (load_observations, "domain,ip,domain\na.example,7,b.example\n", "domain"),
            (load_enrichment, "provider_id,country,country\na,NL,DE\n", "country"),
            (load_enrichment, 'provider_id,x,provider_id\n"a",1,b\n', "provider_id"),
        ],
        ids=["allocations", "observations", "enrichment", "enrichment-quoted"],
    )
    def test_used_column_twice_in_header_rejected(self, tmp_path, loader, text, column):
        path = tmp_path / "input.csv"
        path.write_text(text)
        with pytest.raises(LOADER_ERRORS[loader]) as err:
            loader(path)
        assert str(err.value) == f"{path}: column {column!r} appears twice in the header"

    def test_unread_column_may_repeat(self, tmp_path):
        path = tmp_path / "abuse.csv"
        path.write_text("domain,ip,timestamp,timestamp\na.example,7,1,2\n")
        assert load_abuse(path).ips.tolist() == [7]
        path.write_text("provider_id,note,note,country\na,1,2,NL\n")
        assert load_enrichment(path) == (["a"], {"country": ["NL"]})

    def test_plain_enrichment_parsed_by_columns(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("plain file read row by row")

        monkeypatch.setattr(csv, "reader", refuse)
        monkeypatch.setattr(ingest, "_rows", refuse)
        path = tmp_path / "enrichment.csv"
        path.write_text(
            "# manifest\nprovider_id,note,price_per_year,abuse_count,country\n"
            "a,x, 9.5 ,3,NL\n\n b ,y,,,\n"
        )
        expected = [
            ("a", [("price_per_year", float, 9.5), ("abuse_count", float, 3.0),
                   ("country", str, "NL")]),
            ("b", []),
        ]
        assert enrichment_facts(load_enrichment(path)) == expected

        # a quoted, CRLF, ragged file is parsed by columns too
        monkeypatch.undo()
        monkeypatch.setattr(ingest, "_check_number", refuse)
        path.write_bytes(
            b"provider_id,note,price_per_year,abuse_count,country\r\n"
            b'"a",x, 9.5 ,3,"NL"\r\n\r\n b ,"y\r\nz"\r\n'
        )
        assert enrichment_facts(load_enrichment(path)) == expected


#: A valid header and data row of each loader's file.
VALID_FILES = {
    load_table: (PROVIDER_HEADER, "a,1,1,1,10,3"),
    load_enrichment: ("provider_id,price_per_year", "a,2"),
    load_allocations: ("provider_id,ip_start,ip_end", "a,0,9"),
    load_observations: ("domain,ip", "a.example,7"),
    load_abuse: ("domain,ip,timestamp", "a.example,7,t"),
}


def faulty_file(loader, fault):
    """The text of a file ``loader`` reads, valid but for one ``fault``."""
    header, row = (line.split(",") for line in VALID_FILES[loader])
    lines = {
        "missing-column": [header[1:], row[1:]],  # the key column is required
        "repeated-column": [header + header[:1], row + row[:1]],
        "empty-key": [header, row, ["", *row[1:]]],
        "bad-number": [header, row, [row[0] + "x", "x", *row[2:]]],  # a new key, a bad cell
        "repeated-id": [header, row, row],  # a repeated range overlaps itself
        "csv-fault": [header, row, ['"' + "x" * 140_000 + '"', *row[1:]]],
        "empty-file": [],
    }[fault]
    return "".join(",".join(cells) + "\n" for cells in lines)


#: Each fault of ``faulty_file``, and what its error says.
FAULTS = {
    "missing-column": "missing required column",
    "repeated-column": "appears twice in the header",
    "empty-key": "no value in column",
    "bad-number": "non-numeric value|invalid IP address",
    "repeated-id": "duplicate provider_id|overlapping allocations",
    "csv-fault": "field larger than field limit",
    "empty-file": "empty file",
}


@pytest.mark.parametrize(
    "loader, fault",
    [
        pytest.param(loader, fault, id=f"{loader.__name__}-{fault}")
        for loader in LOADER_ERRORS
        for fault in FAULTS
        # a domain may repeat in observations and abuse records
        if fault != "repeated-id" or loader not in (load_observations, load_abuse)
    ],
)
def test_every_input_error_has_its_loaders_class(tmp_path, loader, fault):
    path = tmp_path / "input.csv"
    path.write_text(faulty_file(loader, fault))
    with pytest.raises(ValueError) as err:
        loader(path)
    assert re.search(FAULTS[fault], str(err.value))
    assert type(err.value) is LOADER_ERRORS[loader], str(err.value)


def loaded(result):
    """A loader's result as plain Python values, for comparison."""
    if isinstance(result, (AllocationIndex, DomainIps)):
        return loaded_columns(result)
    if isinstance(result, tuple):
        return enrichment_facts(result)
    return {c: result.column(c).tolist() for c in COLUMNS if not result.missing(c).all()}


def enrichment_row_loop(path, delimiter):
    """``load_enrichment`` as a csv row loop: ``read_rows``, then ``read_cell`` per cell.

    A cut-off cell is an empty one, and ``abuse_count`` is a float, as every
    numeric enrichment column is.
    """
    known = set(COLUMNS)
    header, rows, lines, unread = read_rows(path, delimiter, LoadError)
    pid = ingest._position(header, "provider_id", path, LoadError, True)
    out = {}
    for lineno, row in zip(lines, rows):
        if not row:
            continue
        try:
            key = row[pid].strip() if pid < len(row) else ""
            if not key:
                raise ValueError("no value in column 'provider_id'")
            values = {}
            for idx, name in enumerate(header):
                if idx == pid or idx >= len(row) or name not in known:
                    continue
                parsed = read_cell(name, row[idx])
                if parsed is not None:
                    values[name] = parsed
            if key in out:
                raise ValueError(f"duplicate provider_id {key!r}")
        except ValueError as exc:
            raise LoadError(f"{path}: row {lineno}: {exc}") from None
        out[key] = values
    if unread:
        raise unread
    return out


def enrichment_facts(result):
    """Per id of ``load_enrichment``'s result, in file order, each present value and its type.

    Values come in header order; ``None`` and NaN mark missing ones.
    """
    ids, columns = result
    values = [col if isinstance(col, list) else col.tolist() for col in columns.values()]
    return [
        (key, [(n, type(v), v) for n, v in zip(columns, row) if v is not None and v == v])
        for key, *row in zip(ids, *values)
    ]


def enrichment_outcome(read, path, delimiter):
    """The loaded rows with each value's type, or the error's type and message."""
    try:
        result = read(path, delimiter)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return enrichment_facts(result)
    return [(key, [(n, type(v), v) for n, v in values.items()]) for key, values in result.items()]


class TestEnrichmentReader:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(provider_files(enrichment=True), BLOCK_CHARS, FIELD_LIMITS)
    def test_matches_row_loop(self, tmp_path, case, chars, limit):
        text, delimiter, _ = case
        path = tmp_path / "enrichment.csv"
        path.write_bytes(text.encode("utf-8"))
        with field_limit(limit):
            with block_chars(chars):
                loaded = enrichment_outcome(load_enrichment, path, delimiter)
            assert loaded == enrichment_outcome(enrichment_row_loop, path, delimiter)


def row_loop_oracle(path, delimiter, loader, text=False):
    """The raw loaders as a csv row loop: ``read_rows``, then ``parse_ip`` per cell.

    A key or IP cell empty after stripping, or cut off, has no value, and a
    cell ``parse_ip`` rejects raises its error; either names the file and row.
    Domains are coded by ``codes``; with ``text``, the key column's text is
    returned in place of the loader's result.
    """
    header, rows, lines, unread = read_rows(path, delimiter, AllocationError)
    names = LOADER_COLUMNS[loader]
    positions = [ingest._position(header, name, path, AllocationError, True) for name in names]
    columns = [[] for _ in names]
    for lineno, row in zip(lines, rows):
        if not row:
            continue
        try:
            for column, name, pos in zip(columns, names, positions):
                cell = row[pos].strip() if pos < len(row) else ""
                if not cell:
                    raise AllocationError(f"no value in column {name!r}")
                column.append(cell if column is columns[0] else parse_ip(cell))
        except AllocationError as exc:
            raise AllocationError(f"{path}: row {lineno}: {exc}") from None
    if unread:
        raise unread
    if text:
        return columns[0]
    if loader == "allocations":
        return AllocationIndex(*columns)
    return DomainIps(codes(columns[0]), *columns[1:])


def loaded_columns(result):
    """The columns of a loader's result as Python lists, with the IP dtype.

    A list, the key text of an uncoded read, is returned as it is.
    """
    if isinstance(result, list):
        return result
    if isinstance(result, AllocationIndex):
        return (
            result.provider_ids.tolist(),
            result.assigned_sizes.tolist(),
            result._starts.tolist(),
            result._ends.tolist(),
            result._owner.tolist(),
            result._starts.dtype,
        )
    return result.codes.tolist(), result.ips.tolist(), result.codes.dtype, result.ips.dtype


def outcome(read, path, delimiter):
    """The loaded columns, or the type and message of the error raised."""
    try:
        return loaded_columns(read(path, delimiter))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def key_texts(path, delimiter, loader):
    """The key column's text by the uncoded read ``load_allocations`` uses and by the row loop.

    Each is an ``outcome``: the text, or the error's type and message.
    """
    key, *ips = LOADER_COLUMNS[loader]
    read = outcome(lambda p, d: features._read_columns(p, d, key, ips)[0], path, delimiter)
    return read, outcome(lambda p, d: row_loop_oracle(p, d, loader, text=True), path, delimiter)


#: IP cells ``parse_ip`` accepts or rejects in ways a vectorised parse must keep.
ODD_IP_CELLS = (
    " 8 ", "+9", "1_000", "-1", "4294967296", "99999999999999999999", "1.2.3",
    "0.0.4.1", " 0.0.5.0 ", "300.1.2.3", "0x10", "x", "", "٣", "0007", "1,2", ",",
)
TEXT_CELLS = ("a", " b ", "c.example", "d,x", "e\tz", "#f", "", "g h", "é.example", "i§j")


@st.composite
def raw_files(draw):
    """A raw input file's text, its delimiter and the loader to read it with.

    IP cells are mostly integers that keep allocations sorted and disjoint,
    so whole files load; the rest are odd cells. Comment and blank lines
    may appear anywhere. Half of the files are messy: quoted cells (a
    text cell among them may span two lines), short and long rows,
    whitespace-only lines and CRLF endings, which the plain split must
    leave to ``csv.reader``.
    """
    loader = draw(st.sampled_from(sorted(LOADER_COLUMNS)))
    names = list(LOADER_COLUMNS[loader]) + draw(st.sampled_from([[], ["timestamp"]]))
    if draw(st.integers(0, 19)) == 0:
        names.pop(draw(st.integers(0, len(names) - 1)))  # a missing column
    names = draw(st.permutations(names))
    delimiter = draw(st.sampled_from([",", "\t", "§"]))
    messy = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"])) if messy else "\n"
    odd = st.sampled_from(ODD_IP_CELLS)

    def cell(name, i):
        if name in ("ip_start", "ip_end", "ip"):
            if draw(st.integers(0, 9)):
                return str(1000 * i + (9 if name == "ip_end" else 0))
            return draw(odd)
        return draw(st.sampled_from([c for c in TEXT_CELLS if messy or delimiter not in c]))

    def quoted(value, is_text):
        if messy and draw(st.integers(0, 9)) == 0:
            if is_text and draw(st.booleans()):
                value += newline + "L"
            return '"' + value.replace('"', '""') + '"'
        return value

    lines = []
    for _ in range(draw(st.integers(0, 2))):
        lines.append(draw(st.sampled_from([MANIFEST_LINE, "# manifest", "  # note", ""])))
    lines.append(delimiter.join(names))
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19 if messy else 9))
        if kind == 0:
            blank = ["# comment", MANIFEST_LINE, ""] + (["   ", "\t"] if messy else [])
            lines.append(draw(st.sampled_from(blank)))
            continue
        cells = [quoted(cell(name, i), name not in ("ip_start", "ip_end", "ip")) for name in names]
        if messy and kind == 1:
            cells.append("extra")
        elif messy and kind == 2:
            cells.pop()
        lines.append(delimiter.join(cells))
    ending = draw(st.sampled_from([newline, ""]))
    return newline.join(lines) + ending, delimiter, loader


class TestRawReader:
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(raw_files(), BLOCK_CHARS, FIELD_LIMITS)
    def test_matches_csv_row_loop(self, tmp_path, case, chars, limit):
        text, delimiter, loader = case
        path = tmp_path / "input.csv"
        path.write_bytes(text.encode("utf-8"))
        with field_limit(limit):
            with block_chars(chars):
                loaded = outcome(LOADERS[loader], path, delimiter)
                text, oracle_text = key_texts(path, delimiter, loader)
            oracle = outcome(lambda p, d: row_loop_oracle(p, d, loader), path, delimiter)
        assert loaded == oracle
        assert text == oracle_text

    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\n"])
    def test_delimiter_csv_rejects_or_reads_whole_lines(self, tmp_path, delimiter):
        # csv.reader rejects these or reads each line as one cell
        path = tmp_path / "observations.csv"
        path.write_text(f"domain{delimiter}ip\na.example{delimiter}7\n")
        assert outcome(load_observations, path, delimiter) == outcome(
            lambda p, d: row_loop_oracle(p, d, "observations"), path, delimiter
        )
        text, oracle_text = key_texts(path, delimiter, "observations")
        assert text == oracle_text

    def test_plain_file_is_split_without_csv(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("plain file read row by row")

        monkeypatch.setattr(csv, "reader", refuse)
        monkeypatch.setattr(ingest, "_rows", refuse)
        monkeypatch.setattr(features, "parse_ip", refuse)  # digit cells are read by numpy
        path = tmp_path / "observations.csv"
        path.write_text(
            MANIFEST_LINE + "\ndomain,ip\na.example,7\n\n b.example ,4294967295\n"
        )
        loaded = load_observations(path)
        assert domains(path) == ["a.example", "b.example"]
        assert loaded.ips.tolist() == [7, 2**32 - 1]
        # blank lines with no comment line about them are dropped as well
        for text in ("domain,ip\na.example,7\n\n b.example ,4294967295\n\n",
                     "\ndomain,ip\na.example,7\n b.example ,4294967295\n"):
            path.write_text(text)
            assert loaded_columns(load_observations(path)) == loaded_columns(loaded)
            assert domains(path) == ["a.example", "b.example"]
        # a bad last IP is named from the block that holds it, in the one read
        monkeypatch.setattr(features, "parse_ip", parse_ip)
        path.write_text("domain,ip\na.example,7\n# note\nb.example,1.2.3\n")
        with pytest.raises(AllocationError) as err:
            load_observations(path)
        assert str(err.value) == (
            f"{path}: row 4: invalid IP address '1.2.3': Expected 4 octets in '1.2.3'"
        )

        # a quoted, CRLF, ragged file is parsed by columns too
        monkeypatch.undo()
        monkeypatch.setattr(features, "parse_ip", refuse)
        path.write_bytes(
            b'domain,ip\r\n"a.example",7,extra\r\n\r\n b.example ,"4294967295"\r\n'
            b'"c\r\nd",0\r\n'
        )
        loaded = load_observations(path)
        assert domains(path) == ["a.example", "b.example", "c\r\nd"]
        assert loaded.ips.tolist() == [7, 2**32 - 1, 0]

    def test_peak_memory_follows_the_kept_columns(self, tmp_path):
        # 40,000 rows, 1.2 MB plain: with the whole text, its lines and
        # cells alive at once the peak was about 10x the file, with one
        # block of rows at a time about 4x; that holds for the quoted and
        # the CRLF copy too, which csv.reader reads
        r = np.random.default_rng(3)
        domains, ips = r.integers(0, 20_000, 40_000), r.integers(0, 2**32, 40_000)
        path = tmp_path / "observations.csv"
        # the plain copy last, as the bad row below is appended to it
        for line in ('"d{}.example.com","{}"\n', "d{}.example.com,{}\r\n", "d{}.example.com,{}\n"):
            with open(path, "w", newline="") as fh:
                fh.write("# manifest {}\ndomain,ip\n")
                fh.writelines(line.format(d, ip) for d, ip in zip(domains, ips))
            size = path.stat().st_size
            peak = traced_peak(load_observations, path)
            assert peak < 6 * size, (line, peak / size)

        # a bad last row: naming it costs no more than a good load (a
        # second read of the whole file through csv.reader took about 12x)
        def load_bad(path):
            message = rf"^{re.escape(str(path))}: row 40003: invalid IP address '1\.2\.3'"
            with pytest.raises(AllocationError, match=message):
                load_observations(path)

        with open(path, "a") as fh:
            fh.write("bad.example,1.2.3\n")
        peak = traced_peak(load_bad, path)
        assert peak < 6 * size, peak / size

    def test_quoted_cell_keeps_its_delimiter(self, tmp_path):
        path = tmp_path / "observations.csv"
        path.write_text('domain,ip\n"b,x.example",8\n')
        loaded = load_observations(path)
        assert domains(path) == ["b,x.example"]
        assert loaded.ips.tolist() == [8]


#: Ranges of the end-to-end tests: "b" owns two, "c" is never observed.
RANGES = (("a", 0, 99), ("b", 100, 199), ("b", 300, 399), ("c", 500, 599))
#: Addresses the rows draw from: two of "a", one in each range of "b",
#: and two no range covers.
ROW_IPS = (0, 1, 100, 300, 250, 7000)


def allocations_file(path):
    path.write_text(
        "provider_id,ip_start,ip_end\n" + "".join(f"{p},{s},{e}\n" for p, s, e in RANGES)
    )


def domain_file(path, header, records):
    """A raw file of (domain, ip, padded) records; a padded domain has blanks to strip."""
    path.write_text(
        header + "\n" + "".join(
            f" {domain} ,{ip},t\n" if padded else f"{domain},{ip},t\n"
            for domain, ip, padded in records
        )
    )


def table_oracle(observations, abuse):
    """``build_provider_table``'s rows and report counts from (domain, ip) rows, by dicts of sets.

    Per provider: log10 of its distinct hosting IPs and of its distinct
    hosted domains, the percent of those on an IP of more than 10 distinct
    domains, and its distinct abused domains. Then the skipped observation
    and abuse rows and the providers hosting no domain, which tells a count
    of 0 from one of 1, both 0 in log10.
    """

    def provider(ip):
        return next((p for p, start, end in RANGES if start <= ip <= end), None)

    per_ip = defaultdict(set)
    for domain, ip in observations:
        if provider(ip):
            per_ip[ip].add(domain)
    ids = sorted({p for p, _, _ in RANGES})
    hosting_ips = dict.fromkeys(ids, 0)
    hosted, on_shared, abused = ({p: set() for p in ids} for _ in range(3))
    for ip, on_ip in per_ip.items():
        hosting_ips[provider(ip)] += 1
        hosted[provider(ip)] |= on_ip
        if len(on_ip) > 10:
            on_shared[provider(ip)] |= on_ip
    for domain, ip in abuse:
        if provider(ip):
            abused[provider(ip)].add(domain)
    rows = {
        p: (
            ingest.log10_transform(hosting_ips[p]),
            ingest.log10_transform(len(hosted[p])),
            100.0 * len(on_shared[p]) / len(hosted[p]) if hosted[p] else 0.0,
            len(abused[p]),
        )
        for p in ids
    }
    skipped = [sum(provider(ip) is None for _, ip in records) for records in (observations, abuse)]
    return rows, (*skipped, sum(not hosted[p] for p in ids))


def table_facts(table, report):
    """A built table's rows and report counts, as ``table_oracle`` gives them."""
    names = ("hosting_ips_log10", "hosted_domains_log10", "pct_shared", "abuse_count")
    columns = [table.column(name).tolist() for name in names]
    rows = {pid: tuple(values) for pid, *values in zip(table.provider_ids(), *columns)}
    counts = (
        report.skipped_observations, report.skipped_abuse_records, report.zero_domain_providers
    )
    return rows, counts


def loaded_table(tmp_path):
    """``build_provider_table`` of the raw files under ``tmp_path``."""
    return build_provider_table(
        load_allocations(tmp_path / "allocations.csv"),
        load_observations(tmp_path / "observations.csv"),
        load_abuse(tmp_path / "abuse.csv"),
    )


DOMAINS = st.integers(0, 14).map("d{}.example".format)


@st.composite
def records(draw):
    """(domain, ip, padded) records of 15 domains, shuffled.

    Some addresses get 9 to 15 distinct domains, around the shared
    threshold (more than 10), so a domain recurs within and across blocks,
    on shared and dedicated IPs.
    """
    rows = draw(st.lists(st.tuples(DOMAINS, st.sampled_from(ROW_IPS), st.booleans()),
                         max_size=60))
    for ip in draw(st.sets(st.sampled_from(ROW_IPS))):
        rows += [(d, ip, draw(st.booleans())) for d in draw(st.sets(DOMAINS, min_size=9))]
    return draw(st.permutations(rows))


class TestFeaturesFromFiles:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(records(), records(), BLOCK_CHARS)
    def test_loaded_files_match_dict_of_sets_oracle(self, tmp_path, observed, abused, chars):
        # the loaders code each block's domains with one dict per file, so a
        # domain gets one code in every block
        allocations_file(tmp_path / "allocations.csv")
        domain_file(tmp_path / "observations.csv", "domain,ip,timestamp", observed)
        domain_file(tmp_path / "abuse.csv", "domain,ip,timestamp", abused)
        with block_chars(chars):
            built = table_facts(*loaded_table(tmp_path))
        oracle = table_oracle([r[:2] for r in observed], [r[:2] for r in abused])
        assert built == oracle

    @pytest.mark.parametrize(
        "observed, abused",
        [([], [("d.example", 0, False)]), ([("d.example", 7000, False)], []), ([], []),
         ([("d.example", 250, False), ("e.example", 7000, True), ("d.example", 7000, False)],
          [("d.example", 300, False)])],
        ids=["header-only-observations", "header-only-abuse", "header-only-both",
             "every-ip-unallocated"],
    )
    def test_degenerate_raw_inputs(self, tmp_path, observed, abused):
        # no attributed observation: every provider hosts nothing, and the
        # skipped counts are the unattributed rows
        allocations_file(tmp_path / "allocations.csv")
        domain_file(tmp_path / "observations.csv", "domain,ip,timestamp", observed)
        domain_file(tmp_path / "abuse.csv", "domain,ip,timestamp", abused)
        table, report = loaded_table(tmp_path)
        for column in ("hosting_ips_log10", "hosted_domains_log10", "pct_shared"):
            assert table.column(column).tolist() == [0.0, 0.0, 0.0], column
        assert report.zero_domain_providers == 3
        assert report.skipped_observations == len(observed)
        assert report.skipped_abuse_records == 0
        expected = table_oracle([r[:2] for r in observed], [r[:2] for r in abused])
        assert table_facts(table, report) == expected

    def test_domain_text_dies_with_the_loader(self, tmp_path):
        # the 40,000-row, 20,000-domain file of the reader's memory test, every
        # row attributed: coded as it is read, a loaded file holds no text, so
        # loading and counting peak at about 2.9x the file, where an object
        # column of domains took about 5.7x
        r = np.random.default_rng(3)
        domains, ips = r.integers(0, 20_000, 40_000), r.integers(0, 2**32, 40_000)
        path = tmp_path / "observations.csv"
        with open(path, "w", newline="") as fh:
            fh.write("# manifest {}\ndomain,ip\n")
            fh.writelines(f"d{d}.example.com,{ip}\n" for d, ip in zip(domains, ips))
        starts = np.arange(0, 2**32, 2**28)
        idx = AllocationIndex([f"p{i:02d}" for i in range(16)], starts, starts + 2**28 - 1)
        loaded = load_observations(path)
        assert {name: value.dtype for name, value in vars(loaded).items()} == {
            "codes": np.int64, "ips": np.int64,
        }
        assert all(isinstance(value, np.ndarray) for value in vars(loaded).values())
        peak = traced_peak(lambda: pct_shared(load_observations(path), idx))
        assert peak < 4.5 * path.stat().st_size, peak / path.stat().st_size
