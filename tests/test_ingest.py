import csv
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from abusekit import ingest, report
from abusekit.features import load_enrichment
from abusekit.ingest import (
    COLUMNS,
    REQUIRED_COLUMNS,
    Dataset,
    LoadError,
    describe,
    load_table,
    log10_transform,
    write_table,
)

from conftest import (
    BLOCK_CHARS,
    FIELD_LIMITS,
    MANIFEST_LINE,
    ODD_NUMBER_CELLS,
    STRING_CELLS,
    block_chars,
    field_limit,
    make_dataset,
    provider_files,
    read_cell,
    read_rows,
    same_table,
)


HEADER = (
    "provider_id,assigned_ips_log10,hosting_ips_log10,hosted_domains_log10,"
    "pct_shared,abuse_count"
)

COUNT_BOUND = "column 'abuse_count' must be a non-negative integer below 2**63"


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

    def test_error_read_stops_at_the_first_failing_row(self, tmp_path):
        # a later country cell is longer than csv.reader's field limit, so
        # a read of the whole file would fail there instead; the long cell
        # lies in the same csv block as the failing row, or with 16-character
        # blocks the failing row in an earlier plain block
        long = "x" * 140_000
        for body in (
            f"a,1,1,1,zz,3,NL\nb,1,1,1,10,3,{long}\n",
            f'a,1,1,1,zz,3,"NL"\nb,1,1,1,10,3,NL\nc,1,1,1,10,3,"{long}"\n',
        ):
            path = write_csv(tmp_path, body, header=HEADER + ",country")
            for chars in (ingest._BLOCK_CHARS, 16):
                with block_chars(chars), pytest.raises(LoadError) as err:
                    load_table(path)
                message = "row 2: non-numeric value 'zz' in column 'pct_shared'"
                assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("quote", ["", '"'])
    @pytest.mark.parametrize("chars", [ingest._BLOCK_CHARS, 16])
    def test_cell_beyond_csv_field_limit_fails_its_row(self, tmp_path, quote, chars):
        # a plain line is split without csv, yet its over-long cell fails
        # its row as a quoted one does, whichever block it lies in
        long = quote + "x" * 140_000 + quote
        path = write_csv(
            tmp_path, f"a,1,1,1,10,3,NL\nb,1,1,1,10,3,{long}\n", header=HEADER + ",country"
        )
        with block_chars(chars), pytest.raises(LoadError) as err:
            load_table(path)
        assert str(err.value) == f"{path}: row 3: field larger than field limit (131072)"

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

    @pytest.mark.parametrize(
        "column,edge,beyond,message",
        [
            ("abuse_count", "0", "-1", COUNT_BOUND),
            ("abuse_count", "9223372036854774784", "9223372036854775808", COUNT_BOUND),
            ("abuse_count", "5.0", "2.5", COUNT_BOUND),
            ("pct_shared", "100", "100.5", "'pct_shared' must lie in [0, 100]"),
            ("pct_shared", "0", "-0.5", "'pct_shared' must lie in [0, 100]"),
            ("wordpress_use", "1", "1.01", "'wordpress_use' must lie in [0, 1]"),
            ("price_per_year", "0", "-0.01", "column 'price_per_year' must be >= 0"),
            ("hosted_domains_log10", "0", "-3", "column 'hosted_domains_log10' must be >= 0"),
        ],
    )
    def test_bounds_same_on_plain_and_quoted_files(
        self, tmp_path, column, edge, beyond, message
    ):
        header = HEADER + ",price_per_year,wordpress_use"
        names = header.split(",")
        for text, error in ((edge, None), (beyond, f"row 2: {message}, got {beyond!r}")):
            cells = dict(zip(names, "a,1,1,1,10,3,9.5,0.5".split(",")))
            cells[column] = text
            for quote in ("", '"'):
                line = ",".join(quote + cell + quote for cell in cells.values())
                path = write_csv(tmp_path, line + "\n", header=header)
                if error is None:
                    assert load_table(path).column(column)[0] == float(text)
                else:
                    with pytest.raises(LoadError) as exc:
                        load_table(path)
                    assert str(exc.value) == f"{path}: {error}"

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

    def test_used_column_twice_in_header_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,1,1,1,10,3,7\n", header=HEADER + ",abuse_count")
        with pytest.raises(LoadError) as err:
            load_table(path)
        assert str(err.value) == f"{path}: column 'abuse_count' appears twice in the header"
        header = HEADER.replace("abuse_count", "feed") + ",feed"
        path = write_csv(tmp_path, "a,1,1,1,10,3,7\n", header=header)
        with pytest.raises(LoadError, match="column 'feed' appears twice"):
            load_table(path, schema={"abuse_count": "feed"})

    def test_unused_or_shared_column_may_repeat(self, tmp_path):
        # an unread column may repeat; one file column may feed two schema entries
        path = write_csv(tmp_path, "a,1,1,1,10,3,x,y\n", header=HEADER + ",note,note")
        assert load_table(path).column("abuse_count").tolist() == [3]
        d = load_table(path, schema={"price_per_year": "pct_shared"})
        assert d.column("price_per_year").tolist() == d.column("pct_shared").tolist() == [10.0]

    def test_plain_file_parsed_by_columns(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("plain table read row by row")

        monkeypatch.setattr(csv, "reader", refuse)
        monkeypatch.setattr(ingest, "_rows", refuse)
        path = tmp_path / "table.csv"
        path.write_text(
            "# manifest {}\n"
            + HEADER + ",country,twin_id\n"
            + "a,1,1,1,10,3,,t1\n"
            + "# note\n"
            + "a, 1.5 ,1,1,0,0,NL,t2\n"
            + "\n"
            + "b,2,1,1000,100,7,,t1\n",
            encoding="utf-8",
        )
        d = load_table(path)
        assert d.provider_ids() == ["a", "a", "b"]
        assert d.column("twin_id").tolist() == ["t1", "t2", "t1"]
        assert d.column("country").tolist() == [None, "NL", None]
        assert d.column("assigned_ips_log10").tolist() == [1.0, 1.5, 2.0]
        assert d.column("hosted_domains_log10").tolist() == [1.0, 1.0, 1000.0]
        assert d.column("abuse_count").tolist() == [3, 0, 7]
        assert d.column("abuse_count").dtype == np.int64
        assert d.missing("price_per_year").all()

        # a quoted, CRLF, ragged file is parsed by columns too
        monkeypatch.undo()
        monkeypatch.setattr(ingest, "_check_number", refuse)
        path.write_bytes(
            (HEADER + ",country,twin_id\r\n").encode()
            + b'"a",1,1,1,10,3,,t1\r\n'
            + b'a, 1.5 ,1,1,0,0,"N\r\nL",t2,extra\r\n'
            + b"\r\n"
            + b'b,2,1,1000,100," 7 "\r\n'
        )
        d = load_table(path)
        assert d.provider_ids() == ["a", "a", "b"]
        assert d.column("twin_id").tolist() == ["t1", "t2", None]
        assert d.column("country").tolist() == [None, "N\r\nL", None]
        assert d.column("hosted_domains_log10").tolist() == [1.0, 1.0, 1000.0]
        assert d.column("abuse_count").tolist() == [3, 0, 7]

    def test_written_table_with_its_manifest_is_parsed_by_columns(self, tmp_path, monkeypatch):
        # the manifest comment holds JSON quotes; only data lines decide
        # whether a block needs csv.reader
        def refuse(*args, **kwargs):
            raise AssertionError("written table read row by row")

        d = make_dataset(
            [{"country": "NL", "twin_id": f"t{i % 3}", "price_per_year": 0.1 * i} for i in range(50)]
        )
        path = tmp_path / "providers.csv"
        write_table(d, path, comment_lines=[MANIFEST_LINE.removeprefix("# ")])
        assert path.read_text().startswith(MANIFEST_LINE + "\n")
        monkeypatch.setattr(ingest, "_rows", refuse)
        assert same_table(load_table(path), d)

    @pytest.mark.parametrize("load", ["table", "enrichment"])
    @pytest.mark.parametrize(
        "last, message, cells",
        [
            ("p7,2,1,1,20,0,DE", "duplicate provider_id 'p7'", 0),
            ("px,2,1,1,20,x,DE", "non-numeric value 'x' in column 'abuse_count'", 1),
        ],
        ids=["repeated-key", "bad-cell"],
    )
    def test_late_error_is_named_in_the_one_read(
        self, tmp_path, monkeypatch, load, last, message, cells
    ):
        # the file is opened once and read by columns; only the one
        # failing cell is read again, by _check_number, to word its error
        n = 20_000
        path = tmp_path / "table.csv"
        path.write_text(
            MANIFEST_LINE + "\n" + HEADER + ",country\n"
            + "".join(f"p{i},1,1,1,10,3,NL\n" for i in range(n))
            + last + "\n"
        )
        opened, calls = [], []

        def counted_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        def counted(*args):
            calls.append(args)
            return check_number(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("file read row by row")

        check_number = ingest._check_number
        monkeypatch.setattr(ingest, "open", counted_open, raising=False)
        monkeypatch.setattr(ingest, "_check_number", counted)
        monkeypatch.setattr(ingest, "_rows", refuse)
        monkeypatch.setattr(csv, "reader", refuse)
        with pytest.raises(LoadError) as err:
            {"table": load_table, "enrichment": load_enrichment}[load](path)
        assert str(err.value) == f"{path}: row {n + 3}: {message}"
        assert opened == [path]
        assert len(calls) == cells

    @pytest.mark.parametrize(
        "line",
        ['"c",3,2,2,30,7,NL', "c,3,2,2,30,7,N\rL", "c,3,2,2,30,7,NL,x", "c,3,2,2,30,7",
         "# c,3,2,2,30,7,NL", "", "c,3,2,2,30,7,NL"],
        ids=["quote", "cr", "long", "short", "comment", "blank", "plain"],
    )
    def test_late_line_reads_as_csv_at_every_block_size(self, tmp_path, line):
        # at small block sizes only a later block holds the line, and a
        # block boundary falls on each side of it
        path = tmp_path / "table.csv"
        path.write_bytes(
            f"# manifest\n{HEADER},country\na,1,1,1,10,3,DE\n\nb,2,1,1,20,0,\n# note\n"
            f"{line}\nd,4,1,1,40,1,US\n".encode()
        )
        expected = table_outcome(row_loop_oracle, path, None, ",")
        for chars in range(1, path.stat().st_size + 1):
            with block_chars(chars):
                assert table_outcome(load_table, path, None, ",") == expected, chars

    def test_each_odd_cell_matches_row_loop(self, tmp_path):
        # every column with each odd cell alone, in an otherwise valid plain file
        header = COLUMNS + ("note",)
        valid = ["p1", "1", "2", "3", "50", "4", "NL", "9.5", "1", "7", "0.5", "0.25", "t1", "x"]
        path = tmp_path / "table.csv"
        for column in range(len(header)):
            for odd in ODD_NUMBER_CELLS + STRING_CELLS:
                cells = [odd if j == column else v for j, v in enumerate(valid)]
                row = ",".join(cells)
                first = ",".join(["p0"] + valid[1:])
                path.write_text(",".join(header) + f"\n# note\n{first}\n{row}\n")
                assert table_outcome(load_table, path, None, ",") == table_outcome(
                    row_loop_oracle, path, None, ","
                ), (header[column], odd)

    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(provider_files(), BLOCK_CHARS, FIELD_LIMITS)
    def test_matches_row_loop(self, tmp_path, case, chars, limit):
        text, delimiter, schema = case
        path = tmp_path / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        with field_limit(limit):
            with block_chars(chars):
                loaded = table_outcome(load_table, path, schema, delimiter)
            assert loaded == table_outcome(row_loop_oracle, path, schema, delimiter)


def row_loop_oracle(path, schema=None, delimiter=","):
    """``load_table`` as a csv row loop: ``read_rows``, then ``read_cell`` per cell."""
    schema = dict(schema or {})
    header, rows, lines, unread = read_rows(path, delimiter, LoadError)
    positions = {}
    for canonical in COLUMNS:
        file_col = schema.get(canonical, canonical)
        if file_col in header:
            positions[canonical] = header.index(file_col)
        elif canonical in REQUIRED_COLUMNS or canonical in schema:
            raise LoadError(f"{path}: missing required column {file_col!r}")
    columns = {canonical: [] for canonical in positions}
    seen = set()
    for lineno, raw in zip(lines, rows):
        if not raw:
            continue
        try:
            values = {
                canonical: read_cell(canonical, raw[idx] if idx < len(raw) else "")
                for canonical, idx in positions.items()
            }
            for required in ("provider_id", "abuse_count"):
                if values[required] is None:
                    raise ValueError(f"no value in column {required!r}")
            key = (values["provider_id"], values.get("twin_id"))
            if key in seen:
                raise ValueError(f"duplicate provider_id {values['provider_id']!r}")
        except ValueError as exc:
            raise LoadError(f"{path}: row {lineno}: {exc}") from None
        seen.add(key)
        for canonical, value in values.items():
            columns[canonical].append(value)
    if unread:
        raise unread
    return Dataset(columns)


def table_outcome(load, path, schema, delimiter):
    """Every column as (dtype, values), NaN as None, or the error's type and message."""
    try:
        d = load(path, schema, delimiter)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return {
        c: (d.column(c).dtype, [None if v != v else v for v in d.column(c).tolist()])
        for c in COLUMNS
    }


def csv_writer_text(rows, delimiter):
    """``rows`` as ``csv.writer`` writes them, with ``\n`` line ends."""
    out = io.StringIO()
    csv.writer(out, delimiter=delimiter, lineterminator="\n").writerows(rows)
    return out.getvalue()


#: Cells that csv.writer quotes, or leaves alone, at one delimiter or another.
WRITER_CELLS = ("x", "", " ", "a,b", "a;b", "a\tb", "a b", "a§b", 'say "hi"', "a\rb", "a\nb", "é")


@pytest.mark.parametrize("chunk", [ingest._WRITE_ROWS, 1])
@pytest.mark.parametrize("delimiter", [",", ";", "\t", " ", "§"])
@pytest.mark.parametrize("through", ["write_table", "csv_text", "csv_text_one_column"])
def test_rows_are_written_as_csv_writer_writes_them(
    tmp_path, monkeypatch, through, delimiter, chunk
):
    # one row at a time, plain rows and rows that need quoting alternate
    monkeypatch.setattr(ingest, "_WRITE_ROWS", chunk)
    for cell in WRITER_CELLS:
        if through == "write_table":
            d = make_dataset(
                [{"country": cell, "pct_shared": 12.5}, {"provider_id": cell, "country": "NL"}]
            )
            path = tmp_path / "table.csv"
            write_table(d, path, delimiter, comment_lines=["manifest {}"])
            present = [c for c in COLUMNS if c in REQUIRED_COLUMNS or not d.missing(c).all()]
            cells = [
                ["" if v is None or v != v else repr(v) if type(v) is float else str(v)
                 for v in d.column(c).tolist()]
                for c in present
            ]
            expected = "# manifest {}\n" + csv_writer_text([present, *zip(*cells)], delimiter)
            written = path.read_bytes().decode("utf-8")
        else:
            header, rows = (["a"], [[cell], ["x"]]) if through.endswith("column") else (
                ["a", "b"], [[cell, "x"], ["y", cell], [None, 0.5]]
            )
            full = [[report._full(v) for v in row] for row in rows]
            expected = csv_writer_text([header, *full], delimiter)
            written = report._csv_text(header, rows, delimiter)
        assert written == expected, cell


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


@pytest.mark.parametrize(
    "columns, name",
    [({"abuse_count": [1]}, "provider_id"), ({"provider_id": ["a"], "abuse_count": [1]},
                                            "assigned_ips_log10")],
    ids=["provider_id", "structural"],
)
def test_dataset_names_its_first_missing_required_column(columns, name):
    with pytest.raises(KeyError) as err:
        Dataset(columns)
    assert err.value.args == (f"missing required column {name!r}",)


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
