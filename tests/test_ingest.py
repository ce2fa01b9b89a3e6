import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abusekit import ingest
from abusekit.ingest import LoadError, describe, load_table, log10_transform, write_table

from conftest import make_dataset, same_table


HEADER = (
    "provider_id,assigned_ips_log10,hosting_ips_log10,hosted_domains_log10,"
    "pct_shared,abuse_count"
)


def write_csv(tmp_path, body, name="table.csv", header=HEADER):
    path = tmp_path / name
    path.write_text(header + "\n" + body, encoding="utf-8")
    return path


class TestLoadTable:
    def test_three_rows_parse(self, tmp_path):
        path = write_csv(tmp_path, "a,1,1,1,10,3\nb,2,1,1,20,0\nc,3,2,2,30,7\n")
        d = load_table(path)
        assert len(d) == 3
        assert d.column("provider_id")[0] == "a"
        assert d.column("abuse_count")[2] == 7
        assert d.missing("price_per_year")[1]

    def test_negative_abuse_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, "a,1,1,1,10,3\nb,2,1,1,20,-1\n")
        with pytest.raises(LoadError, match=r"row 3.*abuse_count"):
            load_table(path)

    def test_abuse_count_beyond_int64_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,1,1,1,10,1e19\n")
        with pytest.raises(LoadError, match=r"row 2.*abuse_count"):
            load_table(path)

    def test_missing_optional_column_loads_as_missing(self, tmp_path):
        path = write_csv(tmp_path, "a,1,1,1,10,3\n")
        d = load_table(path)
        assert d.missing("price_per_year")[0]
        assert d.missing("country")[0]

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("provider_id,abuse_count\na,3\n", encoding="utf-8")
        with pytest.raises(LoadError, match="missing required column 'assigned_ips_log10'"):
            load_table(path)

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = write_csv(tmp_path, "a,1,1,1,ten,3\n")
        with pytest.raises(LoadError, match=r"row 2.*pct_shared"):
            load_table(path)

    def test_duplicate_provider_id(self, tmp_path):
        path = write_csv(tmp_path, "a,1,1,1,10,3\na,2,1,1,20,0\n")
        with pytest.raises(LoadError, match=r"row 3.*duplicate"):
            load_table(path)

    def test_duplicate_allowed_across_twins(self, tmp_path):
        header = HEADER + ",twin_id"
        path = write_csv(tmp_path, "a,1,1,1,10,3,t1\na,1,1,1,10,3,t2\n", header=header)
        d = load_table(path)
        assert [r.twin_id for r in d] == ["t1", "t2"]

    def test_schema_mapping(self, tmp_path):
        header = HEADER.replace("abuse_count", "phish_feed_a")
        path = write_csv(tmp_path, "a,1,1,1,10,9\n", header=header)
        d = load_table(path, schema={"abuse_count": "phish_feed_a"})
        assert d.column("abuse_count")[0] == 9

    @pytest.mark.parametrize(
        "column,text",
        [
            ("abuse_count", "inf"),
            ("price_per_year", "nan"),
            ("pct_shared", "-inf"),
            ("assigned_ips_log10", "NaN"),
            ("wordpress_use", "Infinity"),
        ],
    )
    def test_non_finite_cell_names_row_and_column(self, tmp_path, column, text):
        header = HEADER + ",price_per_year,wordpress_use"
        cells = dict(zip(header.split(","), "a,1,1,1,10,3,9.5,0.5".split(",")))
        cells[column] = text
        body = "b,2,1,1,20,0,,\n" + ",".join(cells.values()) + "\n"
        path = write_csv(tmp_path, body, header=header)
        message = rf"row 3: non-finite value '{text}' in column '{column}'"
        with pytest.raises(LoadError, match=message):
            load_table(path)

    def test_pct_shared_range_enforced(self, tmp_path):
        path = write_csv(tmp_path, "a,1,1,1,120,3\n")
        with pytest.raises(LoadError, match="pct_shared"):
            load_table(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# manifest {}\n" + HEADER + "\na,1,1,1,10,3\n", encoding="utf-8")
        assert len(load_table(path)) == 1

    def test_alternative_delimiter(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(HEADER.replace(",", ";") + "\na;1;1;1;10;3\n", encoding="utf-8")
        d = load_table(path, delimiter=";")
        assert d.column("abuse_count")[0] == 3
        out = tmp_path / "o.csv"
        write_table(d, out, delimiter=";")
        assert same_table(load_table(out, delimiter=";"), d)

    def test_round_trip_identity(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a,1.5,0.25,1.125,10.5,3\nb,2.25,1,1,0,0\n",
            header=HEADER + ",price_per_year,country",
        )
        # widen rows to include the extra columns
        path.write_text(
            HEADER
            + ",price_per_year,country\n"
            + "a,1.5,0.25,1.125,10.5,3,49.99,NL\n"
            + "b,2.25,1,1,0,0,,\n",
            encoding="utf-8",
        )
        d1 = load_table(path)
        out = tmp_path / "out.csv"
        write_table(d1, out)
        d2 = load_table(out)
        assert same_table(d1, d2)
        write_table(d2, tmp_path / "out2.csv")
        assert (tmp_path / "out.csv").read_text() == (tmp_path / "out2.csv").read_text()


class TestDescribe:
    def test_hand_arithmetic(self):
        d = make_dataset([{"pct_shared": 0.0}, {"pct_shared": 2.0}, {"pct_shared": 4.0}])
        (s,) = describe(d, ["pct_shared"])
        assert (s.min, s.mean, s.median, s.max, s.sd) == (0, 2, 2, 4, 2)
        assert not s.single_value

    def test_single_value_flagged(self):
        d = make_dataset([{"pct_shared": 5.0}])
        (s,) = describe(d, ["pct_shared"])
        assert s.min == s.mean == s.median == s.max == 5
        assert s.sd == 0.0 and s.single_value

    def test_unknown_column(self):
        d = make_dataset([0])
        with pytest.raises(KeyError):
            describe(d, ["no_such_column"])

    def test_missing_excluded_per_column(self):
        d = make_dataset([{"price_per_year": 10.0}, {"price_per_year": None}])
        (s,) = describe(d, ["price_per_year"])
        assert s.n == 1 and s.n_missing == 1

    def test_recovers_generator_moments_at_scale(self):
        # law-of-large-numbers check against the synthetic generator's own
        # parameters (zero-noise proxies equal the latent size exactly)
        from abusekit.sim import SimulationConfig, gen_population

        cfg = SimulationConfig(n=45_358, true_size_mean=2.0, true_size_sd=0.9, rng_seed=7)
        d = gen_population(cfg, 0)
        (s,) = describe(d, ["hosted_domains_log10"])
        assert abs(s.mean - 2.0) < 0.05
        assert abs(s.sd - 0.9) < 0.05

    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=40))
    def test_permutation_invariant_and_ordered(self, counts):
        d1 = make_dataset(counts)
        d2 = make_dataset(list(reversed(counts)))
        s1, s2 = describe(d1, ["abuse_count"])[0], describe(d2, ["abuse_count"])[0]
        assert s1 == s2
        assert s1.min <= s1.median <= s1.max
        assert s1.min <= s1.mean <= s1.max


class TestLog10Transform:
    def test_values(self):
        assert log10_transform(1000) == 3.0
        assert log10_transform(0) == 0.0
        assert log10_transform(1) == 0.0
        assert log10_transform(45_358) == pytest.approx(4.6567, abs=5e-5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log10_transform(-1)

    @given(
        st.floats(min_value=0, max_value=1e12),
        st.floats(min_value=0, max_value=1e12),
    )
    def test_monotone(self, a, b):
        lo, hi = sorted([a, b])
        assert log10_transform(lo) <= log10_transform(hi)

    def test_vectorized(self):
        out = log10_transform([0, 1, 10, 100])
        assert np.allclose(out, [0, 0, 1, 2])


def test_numeric_column_rejects_strings():
    d = make_dataset([{"country": "NL"}])
    with pytest.raises(TypeError):
        d.numeric("country")


def test_describe_median_mean_cross_check(rng):
    # independent oracle: plain sorted-list median / two-pass mean
    values = rng.integers(0, 60, size=31)
    d = make_dataset([int(v) for v in values])
    (s,) = describe(d, ["abuse_count"])
    ordered = sorted(values.tolist())
    assert s.median == ordered[len(ordered) // 2]
    assert s.mean == pytest.approx(sum(ordered) / len(ordered))
    mean = sum(ordered) / len(ordered)
    sd = math.sqrt(sum((v - mean) ** 2 for v in ordered) / (len(ordered) - 1))
    assert s.sd == pytest.approx(sd)
