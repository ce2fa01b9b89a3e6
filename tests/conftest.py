import csv
import math
import tracemalloc
from contextlib import contextmanager

# before numpy: importing abusekit sets the OpenBLAS thread timeout the CLI runs with
import abusekit  # noqa: F401
import numpy as np
import pytest
from hypothesis import strategies as st

from abusekit import ingest
from abusekit.ingest import COLUMNS, OPTIONAL_COLUMNS, REQUIRED_COLUMNS, STRING_COLUMNS, Dataset

#: One PASS/FAIL line per acceptance criterion, echoed in the run summary.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


#: Neutral structural values of every generated row unless overridden.
ROW_DEFAULTS = dict(
    assigned_ips_log10=0.0,
    hosting_ips_log10=0.0,
    hosted_domains_log10=0.0,
    pct_shared=0.0,
    abuse_count=0,
)


def make_dataset(rows, source_label=""):
    """Build a Dataset from dicts of per-row overrides (or ints = counts).

    Row ``i`` is provider ``p{i:04d}`` with the ``ROW_DEFAULTS`` values
    unless overridden; any other column a row does not set is missing.
    """
    rows = [{"abuse_count": row} if isinstance(row, int) else row for row in rows]
    columns = {"provider_id": [row.get("provider_id", f"p{i:04d}") for i, row in enumerate(rows)]}
    for name in set(ROW_DEFAULTS).union(*rows) - {"provider_id"}:
        default = ROW_DEFAULTS.get(name)
        columns[name] = [row.get(name, default) for row in rows]
    return Dataset(columns, source_label=source_label)


def same_table(a, b):
    """Whether two datasets hold the same values in every column.

    NaN, the missing marker of float columns, equals NaN here.
    """
    return all(
        np.array_equal(a.column(c), b.column(c), equal_nan=a.column(c).dtype.kind == "f")
        for c in COLUMNS
    )


#: The four structural variables, the paper's size predictors.
STRUCTURAL = ("assigned_ips_log10", "hosting_ips_log10", "hosted_domains_log10", "pct_shared")


def country_table(n: int = 20_000, levels: int = 24, seed: int = 11) -> Dataset:
    """``n`` providers: uniform structural values, one of ``levels`` countries, Poisson counts.

    With the defaults, the design of the structural predictors and a
    country fixed effect is 20,000 x 28: intercept, 4 predictors and 23
    country dummies.
    """
    r = np.random.default_rng(seed)
    x = r.uniform(0.0, 2.0, (n, 4))
    country = r.integers(0, levels, n)
    y = r.poisson(np.exp(0.3 + x @ [0.2, -0.1, 0.3, 0.05] + 0.02 * country))
    return Dataset({
        "provider_id": [f"p{i}" for i in range(n)],
        **dict(zip(STRUCTURAL, x.T)),
        "abuse_count": y,
        "country": [f"c{c:02d}" for c in country],
    })


def traced_peak(call, *args):
    """Bytes ``call(*args)`` allocates at its peak, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def read_rows(path, delimiter, error):
    """Stripped header, data rows, the physical line each data row starts on, and a csv error.

    The rows are those of ``ingest._rows`` over the whole file, read at
    once, so the row-loop oracles share the loaders' csv dialect. A row csv
    cannot read ends the rows, and its error, as ``error``, is returned last
    (``None`` if there is none): the oracle raises it after the rows before
    it, as a loader names the first failing row in file order. Raises
    ``error`` if there is no header or csv fails on it.
    """
    rows, starts, unread = [], [], None
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            for start, row in ingest._rows(fh, delimiter):
                rows.append(row)
                starts.append(start)
        except csv.Error as exc:
            unread = error(f"{path}: {exc}")
    if not rows:
        raise unread or error(f"{path}: empty file")
    return [h.strip() for h in rows[0]], rows[1:], starts[1:], unread


def read_cell(column, text):
    """A cell as the table loaders must read it, by rules of their own: ``None`` if empty.

    The cell is stripped. A string cell is its text. A numeric cell must be
    ASCII and hold no ``_`` (``float`` also reads Python's literal extras),
    be read by ``float`` to a finite value and lie within the column's
    ``ingest._BOUNDS``, an ``abuse_count`` integral too; it is a float.
    Otherwise a ValueError gives the reason, as the loaders word it.
    """
    text = text.strip()
    if not text or column in STRING_COLUMNS:
        return text or None
    try:
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        value = float(text)
    except ValueError:
        raise ValueError(f"non-numeric value {text!r} in column {column!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r} in column {column!r}")
    low, high, message = ingest._BOUNDS[column]
    if not low <= value <= high or column == "abuse_count" and value % 1:
        raise ValueError(f"{message}, got {text!r}")
    return value


#: A comment line as abusekit writes one, quotes and all.
MANIFEST_LINE = '# manifest {"command":"x"}'

#: csv cell length limits the readers run under: csv's default (``None``)
#: or one that some header names or cells of the drawn files exceed.
FIELD_LIMITS = st.sampled_from([None, None, None, 10, 20])


@contextmanager
def field_limit(limit):
    """Inside, csv reads cells of at most ``limit`` characters; ``None`` keeps its limit."""
    old = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


#: Block sizes of the plain-file reader, in characters: the default, and
#: a few lines or one line a block, so that block boundaries fall between
#: any two lines of a small file.
BLOCK_CHARS = st.sampled_from([ingest._BLOCK_CHARS, 1, 16, 48])


@contextmanager
def block_chars(chars):
    """Inside, the plain-file reader reads blocks of about ``chars`` characters."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK_CHARS", chars)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


OVERPARAM_FIELDS = (
    "assigned_ips_log10",
    "hosting_ips_log10",
    "hosted_domains_log10",
    "price_per_year",
    "popularity_index",
    "time_in_business",
    "ict_dev_index",
)


def overparameterized_noise_dataset(seed=30, n=40, n_outliers=12):
    """Pure-noise covariates against a heavy-tailed response.

    Junk predictors cannot systematically beat the k*phi penalty (reduction
    and penalty both scale with k*phi, so the sign is data-dependent); this
    pinned instance yields a clearly negative pseudo-R2 (~ -0.22).
    """
    r = np.random.default_rng(seed)
    y = r.poisson(3.0, size=n)
    pos = r.choice(n, n_outliers, replace=False)
    y[pos] = r.integers(20_000, 60_000, size=n_outliers)
    junk = r.normal(size=(n, len(OVERPARAM_FIELDS)))
    rows = [
        {
            "abuse_count": int(y[i]),
            **{f: float(junk[i, j]) for j, f in enumerate(OVERPARAM_FIELDS)},
        }
        for i in range(n)
    ]
    return make_dataset(rows)


#: Numeric cells that ``float`` reads, or rejects, in ways the table
#: readers must reproduce.
ODD_NUMBER_CELLS = (
    "", "  ", "\t", " 5 ", "5.0", "1_000", "-1", "-0", "0.5", "2", "150", "1e19",
    "1e400", "nan", "NaN", "-nan", "inf", "-Infinity", "x", "1,5", " 7", "٣",
)
#: String cells, blank and padded ones among them.
STRING_CELLS = ("NL", " DE ", "", "  ", "a b", "t1", "t2", "é.example")


@st.composite
def provider_files(draw, enrichment=False):
    """A provider table's text, its delimiter and a ``--schema`` mapping.

    With ``enrichment`` the file is an enrichment table: ``provider_id``
    plus canonical and unknown columns, and no schema. Cells are mostly
    valid, in range and unique per key; some files draw odd cells,
    repeated providers (with or without ``twin_id``), a missing or
    renamed column, comment and blank lines. Half of the files are messy:
    quoted cells (a text cell among them may span two lines), CRLF
    endings, short and long rows and whitespace-only lines, which the
    plain split must leave to ``csv.reader``.
    """
    if enrichment:
        others = draw(st.sets(st.sampled_from(COLUMNS[1:])))
        names = ["provider_id", *sorted(others)]
    else:
        names = list(REQUIRED_COLUMNS) + sorted(draw(st.sets(st.sampled_from(OPTIONAL_COLUMNS))))
        if draw(st.integers(0, 19)) == 10:
            names.remove(draw(st.sampled_from(names)))  # a missing column
    schema = {}
    if not enrichment:
        for name in draw(st.sets(st.sampled_from(names))):
            schema[name] = f"{name}_file"
        if draw(st.integers(0, 19)) == 10:
            schema["ict_dev_index"] = "ict_file"  # mapped, perhaps absent
    header = [schema.get(name, name) for name in names]
    if draw(st.booleans()):
        header.append("note")
    order = draw(st.permutations(range(len(header))))
    header = [header[i] for i in order]
    canonical = {schema.get(name, name): name for name in names}

    delimiter = draw(st.sampled_from([",", ";", "\t", "§"]))
    messy = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"])) if messy else "\n"
    odd_rate = draw(st.sampled_from([0, 0, 8, 30]))
    # few odd kinds per file, so a file can hold one kind of fault alone
    odd_cells = draw(
        st.lists(st.sampled_from(ODD_NUMBER_CELLS + STRING_CELLS), min_size=1, max_size=2)
    )
    repeats = draw(st.integers(0, 4)) == 0

    def cell(column, i):
        name = canonical.get(column)
        if name is None:
            return draw(st.sampled_from(["x", "", "1"]))
        if odd_rate and draw(st.integers(0, odd_rate)) == 0:
            return draw(st.sampled_from(odd_cells))
        if name == "provider_id":
            return draw(st.sampled_from(["a", " a ", "b"])) if repeats else f"p{i}"
        if name == "twin_id":
            return draw(st.sampled_from(["t1", "t2", ""])) if repeats else f"t{i}"
        if name in STRING_COLUMNS:
            return draw(st.sampled_from(STRING_CELLS))
        if name == "wordpress_use":
            return draw(st.sampled_from(["0", "0.25", "1", ""]))
        if name == "abuse_count":
            return str(draw(st.integers(0, 50)))
        if name == "pct_shared":
            return str(draw(st.integers(0, 100)))
        return draw(st.sampled_from(["0", "1.5", "3", "12.25", ""]))

    def quoted(value, is_text):
        if messy and draw(st.integers(0, 9)) == 0:
            if is_text and draw(st.booleans()):
                value += newline + "L"
            return '"' + value + '"'
        return value.replace(delimiter, "")  # a stray delimiter would shift cells

    # string columns and the unknown "note" column hold text
    text = [canonical.get(column) in (*STRING_COLUMNS, None) for column in header]
    lines = [draw(st.sampled_from([MANIFEST_LINE, "# manifest {}", "  # note", ""]))
             for _ in range(draw(st.integers(0, 2)))]
    lines.append(delimiter.join(header))
    for i in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 19 if messy else 9))
        if kind == 0:
            blank = ["# comment", MANIFEST_LINE, ""] + (["   "] if messy else [])
            lines.append(draw(st.sampled_from(blank)))
            continue
        cells = [quoted(cell(column, i), is_text) for column, is_text in zip(header, text)]
        if messy and kind == 1:
            cells.append("extra")
        elif messy and kind == 2:
            cells.pop()
        lines.append(delimiter.join(cells))
    ending = draw(st.sampled_from([newline, ""]))
    return newline.join(lines) + ending, delimiter, schema
