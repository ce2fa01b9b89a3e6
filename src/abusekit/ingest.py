"""Loading, validating and summarizing provider/abuse datasets.

Datasets are delimiter-separated text files with a header row, UTF-8
encoded (a leading byte-order mark is skipped), "." as decimal separator
and empty cells for missing values. A number holds ASCII characters only
and no "_", which Python's ``float`` would also read. Lines starting with
"#" are treated as comments (run manifests are embedded that way) and
skipped.

Every file is read once, in blocks of rows (``_read_blocks``), so a load
needs memory for the columns it keeps. A loader's ``parse(header, cells)``
reads a block's columns and the checks that reject a row, each raising
only its reason by ``fail(value)``; the reader names the file and row of
the first rejected one, at no more cost than a good load, and raises
every input error in its loader's class: ``LoadError`` for a provider or
enrichment table, ``features.AllocationError`` for a raw file.
A 64 KiB block is plain, and split on the delimiter without ``csv``, when
it holds no CR, no quote outside its comment lines, and ``width - 1``
delimiters on each data line; from the first other block on, the file is
read by ``csv.reader``. The writers quote only the cells that need it, as
``csv.writer`` does, and write the rows a few thousand at a time, joined
directly when none of them holds such a cell.
"""
from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

#: Columns that must be present (directly or through the schema mapping)
#: in every provider table.
REQUIRED_COLUMNS = (
    "provider_id",
    "assigned_ips_log10",
    "hosting_ips_log10",
    "hosted_domains_log10",
    "pct_shared",
    "abuse_count",
)

#: Enrichment columns; picked up when present, missing otherwise.
OPTIONAL_COLUMNS = (
    "country",
    "price_per_year",
    "popularity_index",
    "time_in_business",
    "ict_dev_index",
    "wordpress_use",
    "twin_id",
)

#: Columns holding strings rather than numbers.
STRING_COLUMNS = ("provider_id", "country", "twin_id")

#: Numeric columns that must be non-negative when present.
NONNEGATIVE_COLUMNS = (
    "assigned_ips_log10",
    "hosting_ips_log10",
    "hosted_domains_log10",
    "price_per_year",
    "popularity_index",
    "time_in_business",
    "ict_dev_index",
)


#: Closed range a present numeric cell must lie in, and the error it
#: raises otherwise, by column; the largest float below 2**63 bounds
#: ``abuse_count`` so that its counts fit int64.
_BOUNDS: dict[str, tuple[float, float, str]] = {
    "abuse_count": (
        0.0,
        math.nextafter(2.0**63, 0.0),
        "column 'abuse_count' must be a non-negative integer below 2**63",
    ),
    "pct_shared": (0.0, 100.0, "'pct_shared' must lie in [0, 100]"),
    "wordpress_use": (0.0, 1.0, "'wordpress_use' must lie in [0, 1]"),
    **{c: (0.0, math.inf, f"column {c!r} must be >= 0") for c in NONNEGATIVE_COLUMNS},
}


class LoadError(ValueError):
    """Raised when an input file violates the table contract."""


#: Every column, in file order.
COLUMNS = REQUIRED_COLUMNS + OPTIONAL_COLUMNS

#: One table row, as iterating over a ``Dataset`` yields it.
_Row = namedtuple("_Row", COLUMNS)


def _as_column(name: str, values) -> np.ndarray:
    kind = object if name in STRING_COLUMNS else np.int64 if name == "abuse_count" else float
    view = np.asarray(values, dtype=kind).view()
    view.flags.writeable = False
    return view


class Dataset:
    """Immutable provider table held as one read-only numpy array per column.

    Numeric columns are float64 with NaN marking missing values;
    ``abuse_count`` is int64 and never missing; ``provider_id``,
    ``country`` and ``twin_id`` are object arrays with ``None`` marking
    missing values. ``columns`` must hold every required column; absent
    optional columns are all missing. An array already in its column's
    storage type is kept, not copied. ``source_label`` names the origin of
    ``abuse_count`` (e.g. which abuse feed produced it) so fits on
    alternative feeds stay distinguishable.
    """

    def __init__(self, columns: Mapping[str, Sequence], source_label: str = ""):
        unknown = set(columns) - set(COLUMNS)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        absent = [name for name in REQUIRED_COLUMNS if name not in columns]
        if absent:
            raise KeyError(f"missing required column {absent[0]!r}")
        n = len(columns["provider_id"])
        self._columns: dict[str, np.ndarray] = {}
        for name in COLUMNS:
            if name in columns:
                col = _as_column(name, columns[name])
            else:  # an absent optional column is all missing
                col = _as_column(name, np.full(n, None if name in STRING_COLUMNS else math.nan))
            if col.shape != (n,):
                raise ValueError(f"column {name!r} holds {col.shape} values, not {n}")
            self._columns[name] = col
        self._source_label = source_label

    @property
    def source_label(self) -> str:
        return self._source_label

    def __iter__(self) -> Iterator[tuple]:
        """Rows as named tuples in ``COLUMNS`` order; NaN marks a missing number.

        Only ``perfbench/tracing.py`` iterates a table (it reads ``twin_id``
        per row); everything else reads columns.
        """
        return map(_Row._make, zip(*(col.tolist() for col in self._columns.values())))

    def __len__(self) -> int:
        return len(self._columns["provider_id"])

    def column(self, name: str) -> np.ndarray:
        """Return the named column (read-only) in its storage type."""
        if name not in self._columns:
            raise KeyError(f"unknown column {name!r}")
        return self._columns[name]

    def numeric(self, name: str) -> np.ndarray:
        """Return a numeric column as float array with NaN for missing values."""
        if name in STRING_COLUMNS:
            raise TypeError(f"column {name!r} is not numeric")
        return self.column(name).astype(float, copy=False)

    def missing(self, name: str) -> np.ndarray:
        """Boolean mask of the rows whose ``name`` value is missing."""
        col = self.column(name)
        return np.equal(col, None) if name in STRING_COLUMNS else np.isnan(col)

    def provider_ids(self) -> list[str]:
        return self._columns["provider_id"].tolist()

    def take(self, rows) -> "Dataset":
        """Rows picked by an integer index array or a boolean mask, in order."""
        rows = np.asarray(rows)
        if rows.size == 0:
            rows = rows.astype(int)  # [] would be a float index
        return Dataset({c: col[rows] for c, col in self._columns.items()}, self.source_label)

    def with_columns(
        self, columns: Mapping[str, Sequence], source_label: str | None = None
    ) -> "Dataset":
        """Copy with the given columns replaced and, optionally, a new label."""
        label = self.source_label if source_label is None else source_label
        return Dataset({**self._columns, **columns}, label)


@dataclass(frozen=True)
class ColumnSummary:
    """Five-number descriptive summary of one numeric column."""

    name: str
    n: int
    n_missing: int
    min: float
    mean: float
    median: float
    max: float
    sd: float
    single_value: bool = False


def log10_transform(x):
    """Base-10 log transform for skewed counts, with a zero floor.

    Computes ``log10(max(x, 1))`` so that raw counts of 0 and 1 both map
    to 0.0; this reproduces the observed 0 minima of the log-scale size
    variables without producing -inf.

    Parameters
    ----------
    x : float or array-like, >= 0

    Raises
    ------
    ValueError
        If any input is negative.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("log10_transform requires non-negative input")
    out = np.log10(np.maximum(arr, 1.0))
    return float(out) if np.ndim(x) == 0 else out


def _no_value(name: str, value) -> None:
    """A check's ``fail`` for a cell empty after stripping, or cut off, in column ``name``."""
    raise ValueError(f"no value in column {name!r}")


def _check_number(column: str, text: str) -> None:
    """A check's ``fail`` for a numeric cell ``_parse_column`` rejects: the reason why."""
    text = text.strip()
    try:
        value = _float(text)
    except ValueError:
        raise ValueError(f"non-numeric value {text!r} in column {column!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r} in column {column!r}")
    raise ValueError(f"{_BOUNDS[column][2]}, got {text!r}")


def _no_extras(text: str) -> bool:
    """Whether ``text`` is ASCII and holds no ``_``.

    ``float`` and ``int`` also read what Python literals allow beyond a
    file's numbers: ``_`` between digits, and non-ASCII digits.
    """
    return text.isascii() and "_" not in text


def _float(text: str) -> float:
    """``float`` of a stripped cell with ``_no_extras``; ValueError for any other."""
    if not _no_extras(text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _in_bounds(column: str, values):
    """Whether finite ``values``, a float or an array, pass ``column``'s bounds.

    Elementwise for an array. ``abuse_count`` must also be integral.
    """
    low, high, _ = _BOUNDS[column]
    ok = (values >= low) & (values <= high)
    return ok & (values % 1 == 0) if column == "abuse_count" else ok


def load_table(
    path,
    schema: Mapping[str, str] | None = None,
    delimiter: str = ",",
) -> Dataset:
    """Load a provider table from a delimited file.

    Parameters
    ----------
    path : str or Path
        File to read.
    schema : mapping, optional
        Maps canonical column names (``provider_id``, ``abuse_count``, ...)
        to the column names used in the file. Unmapped canonical names
        default to themselves; optional columns absent from both schema and
        header load as missing.
    delimiter : str
        Cell separator, comma by default.

    Raises
    ------
    LoadError
        On a missing required column, a used column named twice in the
        header, an empty ``provider_id`` or ``abuse_count`` cell, a bad
        numeric cell or a duplicate provider key, each reported with the
        file and its row number (physical line, comment lines included).
    """
    schema = dict(schema or {})
    unknown = set(schema) - set(COLUMNS)
    if unknown:
        raise LoadError(f"schema maps unknown canonical columns: {sorted(unknown)}")

    def positions(header: list[str]) -> dict[str, int]:
        found = {}
        for canonical in COLUMNS:
            required = canonical in REQUIRED_COLUMNS or canonical in schema
            pos = _position(header, schema.get(canonical, canonical), path, LoadError, required)
            if pos is not None:
                found[canonical] = pos
        return found

    def parse(header, cells):
        columns, checks = _parse_columns(cells, len(header), positions(header))
        ids, counts = columns["provider_id"], columns["abuse_count"]
        if None in ids:
            checks.append((np.equal(ids, None), ids, partial(_no_value, "provider_id")))
        if np.isnan(counts).any():
            checks.append((np.isnan(counts), counts, partial(_no_value, "abuse_count")))
        return columns, checks

    # Twin datasets repeat providers (one row per twin slot), so the
    # uniqueness key includes twin_id when that column is present.
    columns = _read_blocks(path, delimiter, LoadError, parse, ("provider_id", "twin_id"))
    columns["abuse_count"] = columns["abuse_count"].astype(np.int64)
    return Dataset(columns)


def _parse_or(default, parse, text: str):
    """``parse(text)``, or ``default`` if it raises a ValueError."""
    try:
        return parse(text)
    except ValueError:
        return default


def _parse_columns(cells: list[str], width: int, positions: Mapping[str, int]):
    """The columns at ``positions`` by ``_parse_column``, and a check of each rejecting a cell."""
    columns, checks = {}, []
    for name, pos in positions.items():
        column = cells[pos::width]
        columns[name], bad = _parse_column(name, column)
        if bad is not None:
            checks.append((bad, column, partial(_check_number, name)))
    return columns, checks


def _parse_column(name: str, cells: list[str]) -> tuple[list | np.ndarray, np.ndarray | None]:
    """One column of cells, parsed, and the mask of those ``_check_number`` rejects.

    A string column becomes a list of stripped cells, ``None`` for an empty
    one; a numeric column a float64 array, NaN for an empty or whitespace-only
    cell. A present numeric cell is rejected unless it is a finite number
    within its column's ``_BOUNDS``. ``float`` strips a cell, so only a
    whitespace-only or a bad cell fails the first parse; the cells are then
    stripped and a bad one read as NaN, which fails the finiteness check.
    The first parse is by ``float`` only when the cells, joined, have
    ``_no_extras`` (one scan of the column's text); otherwise each cell is
    read by ``_float``. The mask is None when no cell is rejected, as no
    string cell is.
    """
    if name in STRING_COLUMNS:
        stripped = list(map(str.strip, cells))
        return [cell or None for cell in stripped] if "" in stripped else stripped, None
    present = np.fromiter(map(bool, cells), bool, len(cells)) if "" in cells else None
    try:
        if not _no_extras("".join(cells)):
            raise ValueError("a cell may hold an extra, which float reads")
        values = np.fromiter(
            map(float, cells if present is None else compress(cells, present)), float
        )
    except ValueError:
        cells = list(map(str.strip, cells))
        present = np.fromiter(map(bool, cells), bool, len(cells))
        parse = partial(_parse_or, math.nan, _float)
        values = np.fromiter(map(parse, compress(cells, present)), float)
    # finite first, or _in_bounds warns on inf % 1; every numeric column has bounds
    ok = np.isfinite(values).all() and _in_bounds(name, values).all()
    if present is not None:
        column = np.full(len(cells), math.nan)
        column[present] = values
        values = column
    if ok:
        return values, None
    with np.errstate(invalid="ignore"):
        bad = ~(np.isfinite(values) & _in_bounds(name, values))
    return values, bad if present is None else bad & present


def _position(
    header: list[str], name: str, path, error: type[Exception], required: bool = False
) -> int | None:
    """Index of ``name`` in ``header``, None if absent; raises ``error`` if it is there twice.

    An absent ``required`` column raises ``error`` as well.
    """
    if name not in header:
        if required:
            raise error(f"{path}: missing required column {name!r}")
        return None
    if header.count(name) > 1:
        raise error(f"{path}: column {name!r} appears twice in the header")
    return header.index(name)


#: Characters of a plain file read and parsed at once: 64 KiB of text, so
#: the strings of one block, not of the whole file, are alive at a time.
#: Below ``csv.field_size_limit()``'s default of 131,072, so no cell of a
#: block can be longer than csv reads unless the block is.
_BLOCK_CHARS = 1 << 16


def _read_blocks(path, delimiter: str, error: type[Exception], parse, key=()) -> dict:
    """The columns ``parse`` reads from the blocks of ``_blocks``, concatenated.

    ``parse(header, cells)`` reads the cells of consecutive data rows,
    ``len(header)`` a row, ``header`` stripped. It returns a dict of
    columns, each a list or a numpy array, and the checks that reject a
    row, in the order a row loop runs them: each the boolean mask of the
    rows it rejects, a value per row and ``fail(value)``, which raises a
    rejected value's reason as a ValueError. Every input error is raised as
    ``error``, the caller's class: the first rejected row's first reason as
    ``{path}: row {line}: {reason}``, ``line`` being the row's physical
    line, and a row csv cannot read, with the path and row named too, once
    the rows before it hold no repeat of the ``key`` columns ``parse``
    returns (a good read looks for one at the end); a repeat; and a file
    with no header.
    """
    parts, lines, failure = [], [], None
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            for (columns, checks), numbers in _blocks(fh, delimiter, parse):
                parts.append(columns)
                lines.append(numbers if key else ())
                if checks:
                    row = int(np.flatnonzero(np.logical_or.reduce([c[0] for c in checks]))[0])
                    _, values, fail = next(check for check in checks if check[0][row])
                    lines[-1] = lines[-1][:row]  # the rows looked at for a repeated key
                    try:
                        fail(values[row])
                        raise AssertionError(f"{path}: row {numbers[row]}: no check failed")
                    except ValueError as exc:
                        failure = error(f"{path}: row {numbers[row]}: {exc}")
                    break
        except csv.Error as exc:
            failure = error(f"{path}: {exc}")
    if not parts or failure and not key:
        raise failure or error(f"{path}: empty file")
    columns = {name: _concat([part[name] for part in parts]) for name in parts[0]}
    if key:
        names = [name for name in key if name in columns]
        keys = list(zip(*map(columns.get, names))) if len(names) > 1 else columns[key[0]]
        if failure or len(set(keys)) < len(keys):
            seen = set()
            for value, pid, line in zip(keys, columns[key[0]], chain.from_iterable(lines)):
                if value in seen:
                    raise error(f"{path}: row {line}: duplicate provider_id {pid!r}")
                seen.add(value)
    if failure:
        raise failure
    return columns


def _blocks(fh, delimiter: str, parse) -> Iterator[tuple[tuple, Sequence[int]]]:
    """``parse`` of each block of ``fh``'s data rows, with their physical lines; none if no header.

    Blocks are read in whole lines, about ``_BLOCK_CHARS`` characters each.
    Blank and ``#`` lines are dropped as ``_rows`` drops them (one
    ``_data_lines`` call, when the block holds a ``#`` or a blank line), and
    a block is plain when what is left holds no quote and each of its lines
    ``width - 1`` delimiters, ``width`` being the header's cell count; the
    whole block must hold no carriage return, which would end a line inside
    a comment for ``csv.reader``, and, only looked for when the block is
    longer than ``csv.field_size_limit()``, no cell longer than that. The
    check is one comparison: the block, encoded, with every byte but the
    delimiter and ``\n`` deleted, against ``width - 1`` delimiters and a
    ``\n`` per line. A plain block's lines are then split once into one flat
    list of cells, which the cyclic garbage collector does not track; its
    lines are a ``range`` or those ``_data_lines`` kept. Only a
    delimiter of one ASCII character other than a quote, CR or LF is split
    so. From the first block that is not plain on, ``_rows`` reads and
    numbers the rest of the file, that block first, in blocks of about
    ``_BLOCK_CHARS / 16`` cells, each row padded with ``""`` or cut to the
    header's width; a row csv cannot read ends its block, and its error is
    raised after it.
    """
    header, text, line = None, "", 1  # line: the physical number of the block's first line
    # any other delimiter goes to csv.reader, which reads or rejects it
    if len(delimiter.encode()) == 1 and delimiter not in '"\r\n':
        others = bytes(range(256)).translate(None, (delimiter + "\n").encode())
        while text := fh.read(_BLOCK_CHARS):
            if not text.endswith("\n"):
                text += fh.readline()
            if "\r" in text:
                break
            data, lines = text if text.endswith("\n") else text + "\n", None
            if "#" in data or "\n\n" in data or data.startswith("\n"):
                data, lines, end = _data_lines(data, line)  # so that the header is the first line
            if '"' in data:
                break
            if not data:
                line = end
                continue
            if header is None:
                width = data.count(delimiter, 0, data.index("\n")) + 1
            else:
                width = len(header)
            if not _repeats(data, (delimiter * (width - 1) + "\n").encode(), others):
                break
            cells = data.replace("\n", delimiter).split(delimiter)
            cells.pop()  # the "" after the last line's end
            limit = csv.field_size_limit()  # so that _rows fails the row of a longer cell
            if len(data) > limit and max(map(len, cells)) > limit:
                break
            if lines is None:
                end = line + len(cells) // width
                lines = range(line, end)
            line = end
            if header is None:  # only now, or a header line that is not plain is read twice
                header = [h.strip() for h in cells[:width]]
                del cells[:width]
                lines = lines[1:]
            yield parse(header, cells), lines
        if not text:
            return  # every block was plain
    rows = _rows(chain(io.StringIO(text, newline=""), fh), delimiter, line)
    if header is None:
        header = [h.strip() for h in next(rows, (0, []))[1]]
        if not header:
            return
    width, pad = len(header), [""] * len(header)
    size = max(1, _BLOCK_CHARS // (16 * width))
    while True:
        cells, lines, unread = [], [], None
        try:
            for line, row in islice(rows, size):
                lines.append(line)
                cells += (row + pad)[:width]
        except csv.Error as exc:
            unread = exc
        yield parse(header, cells), lines
        if unread:
            raise unread
        if len(lines) < size:
            return


def _repeats(data: str, pattern: bytes, others: bytes) -> bool:
    """Whether ``data``, encoded and with the bytes ``others`` deleted, is ``pattern`` repeated."""
    skeleton = data.encode().translate(None, others)
    return skeleton == pattern * (len(skeleton) // len(pattern))


def _data_lines(text: str, start: int) -> tuple[str, list[int], int]:
    """``text``'s lines without the blank and ``#`` lines ``_rows`` drops, each ended by ``\n``.

    Also the physical number of each line kept and of the line after
    ``text``, which ends with ``\n`` and starts on line ``start``.
    """
    lines = text.split("\n")
    kept = [n for n, line in enumerate(lines, start) if line and not line.lstrip().startswith("#")]
    data = "\n".join([lines[n - start] for n in kept]) + "\n" if kept else ""
    return data, kept, start + len(lines) - 1


def _concat(parts: list) -> list | np.ndarray:
    """One column from its parts in order: lists join into a list, arrays into an array."""
    if len(parts) == 1:
        return parts[0]
    return list(chain.from_iterable(parts)) if isinstance(parts[0], list) else np.concatenate(parts)


def _rows(fh, delimiter: str, start: int = 1) -> Iterator[tuple[int, list[str]]]:
    """Each row of ``fh``, the header first, with the physical line it starts on.

    ``fh`` is a file opened with ``newline=""``, or its lines from line
    ``start`` on, where a row starts. Blank and ``#`` comment lines yield
    no row. A quoted cell may span lines, so a ``#`` line is a comment only
    where it starts a row, and line numbers come from ``csv.reader``'s count
    of the lines it has read. Rows are read as they are asked for; a
    ``csv.Error`` names the line its row starts on.
    """
    starts_row = True  # csv.reader reads one line at a time, as a row needs it

    def lines():
        nonlocal starts_row
        for line in fh:
            comment = starts_row and line.lstrip().startswith("#")
            starts_row = False
            yield "" if comment else line

    reader = csv.reader(lines(), delimiter=delimiter)
    line = start
    try:
        for row in reader:
            starts_row = True
            if row:
                yield line, row
            line = start + reader.line_num
    except csv.Error as exc:
        raise csv.Error(f"row {line}: {exc}") from None


def write_table(
    d: Dataset,
    path,
    delimiter: str = ",",
    comment_lines: Sequence[str] = (),
) -> None:
    """Serialize a dataset back to delimited text (round-trip exact).

    Floats are written with ``repr`` so ``load_table(write_table(d))``
    reproduces every field bit-for-bit. Optional columns are written only
    when they hold a value. ``comment_lines`` are emitted as ``#``-prefixed
    lines before the header.
    """
    present = [c for c in COLUMNS if c in REQUIRED_COLUMNS or not d.missing(c).all()]
    cells = [_format_column(d.column(c)) for c in present]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in comment_lines:
            fh.write(f"# {line}\n")
        _write_rows(fh, chain([present], zip(*cells)), delimiter)


#: Rows ``_write_rows`` joins and writes at a time, so the text of one
#: chunk, not of the whole table, is alive at a time.
_WRITE_ROWS = 4096


def _write_rows(fh, rows: Iterable[Sequence[str]], delimiter: str) -> None:
    """Write ``rows`` of str cells to ``fh`` as ``csv.writer`` writes them, each ended by ``\n``.

    csv quotes only a cell that holds the delimiter, a quote, CR or LF, and
    the one empty cell of a one-cell row. So the rows are joined directly,
    ``_WRITE_ROWS`` at a time, when the rows of a chunk all have the same
    width of two cells or more and their joined text holds no quote, no CR
    and no more delimiters and line ends than the rows make; any other
    chunk goes through ``csv.writer``.
    """
    writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
    rows = iter(rows)
    while chunk := list(islice(rows, _WRITE_ROWS)):
        text = "\n".join(map(delimiter.join, chunk)) + "\n"
        widths = set(map(len, chunk))
        width = widths.pop() if len(widths) == 1 else 0
        if (
            width > 1
            and '"' not in text
            and "\r" not in text
            and text.count("\n") == len(chunk)
            and text.count(delimiter) == (width - 1) * len(chunk)
        ):
            fh.write(text)
        else:
            writer.writerows(chunk)


def _format_column(col: np.ndarray) -> list[str]:
    """Each cell as text: ``repr`` of a float, ``str`` of any other value, ``""`` if missing."""
    kind = col.dtype.kind
    # tolist() yields Python scalars; repr(np.float64(x)) is "np.float64(x)"
    cells = list(map(repr if kind == "f" else str, col.tolist()))
    if kind in "fO":
        missing = np.isnan(col) if kind == "f" else np.equal(col, None)
        for i in np.flatnonzero(missing).tolist():
            cells[i] = ""
    return cells


def describe(d: Dataset, columns: Sequence[str]) -> list[ColumnSummary]:
    """Per-column descriptive statistics (min, mean, median, max, sd).

    Missing values are excluded per column; ``sd`` is the sample standard
    deviation (n-1 denominator). A column with a single non-missing value
    reports sd 0 with ``single_value`` set.
    """
    out = []
    for name in columns:
        if name in STRING_COLUMNS:
            raise ValueError(f"column {name!r} is not numeric")
        vals = d.numeric(name)
        # sort so the summary is exactly permutation-invariant over rows
        present = np.sort(vals[~np.isnan(vals)])
        if present.size == 0:
            raise ValueError(f"column {name!r} has no non-missing values")
        single = present.size == 1
        out.append(
            ColumnSummary(
                name=name,
                n=int(present.size),
                n_missing=int(vals.size - present.size),
                min=float(present.min()),
                mean=float(present.mean()),
                median=float(np.median(present)),
                max=float(present.max()),
                sd=0.0 if single else float(present.std(ddof=1)),
                single_value=single,
            )
        )
    return out
