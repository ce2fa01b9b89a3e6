"""Explanatory-variable construction from offline allocation/DNS/abuse files.

All inputs arrive as delimited files: IP allocations (provider_id with an
inclusive address range), hosting observations (domain, ip) and abuse
records (domain, ip). IP addresses are accepted in dotted-quad or plain
integer form and normalized to integers internally. Every input is held
as columns: an ``AllocationIndex`` over the ranges and one ``DomainIps``
per observation or abuse file. Each file's rows are attributed to
providers by one vectorised owner lookup, distinct counts come from
sorted integer keys, and per-provider results are arrays in
``AllocationIndex.provider_ids`` order.
"""
from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .ingest import (
    COLUMNS,
    Dataset,
    LoadError,
    _parse_cell,
    _parse_column,
    _position,
    _read_rows,
    _split_plain,
    log10_transform,
)

#: An IP address is "shared" when it hosts more than this many domains.
SHARED_DOMAIN_THRESHOLD = 10

#: Length of the domain popularity ranking behind ``popularity_index``.
POPULARITY_LIST_SIZE = 1_000_000

#: Largest IPv4 address as an integer.
MAX_IPV4 = 2**32 - 1


class AllocationError(ValueError):
    """Raised when IP allocations overlap or cannot be parsed."""


def parse_ip(text) -> int:
    """Normalize a dotted-quad or integer IP representation to an integer.

    Integers, given as such or as digits, must lie in [0, 2**32 - 1].
    """
    if not isinstance(text, int):
        text = text.strip()
        if "." in text:
            try:
                return int(ipaddress.IPv4Address(text))
            except ipaddress.AddressValueError as exc:
                raise AllocationError(f"invalid IP address {text!r}: {exc}") from None
    try:
        value = int(text)
    except ValueError:
        raise AllocationError(f"invalid IP address {text!r}") from None
    if not 0 <= value <= MAX_IPV4:
        raise AllocationError(f"invalid IP address {text!r}: outside [0, {MAX_IPV4}]")
    return value


class AllocationIndex:
    """Sorted disjoint-interval index mapping IPs to providers.

    Built from three parallel columns: ``provider_ids[i]`` owns the
    inclusive range ``[starts[i], ends[i]]``; a provider may own several
    ranges. Afterwards ``provider_ids`` holds each provider once, sorted,
    and ``assigned_sizes`` the number of addresses each one owns, in that
    order. ``owners`` attributes a whole IP array with one binary search
    over the sorted range starts.
    """

    def __init__(self, provider_ids: Sequence[str], starts, ends):
        names = np.asarray(provider_ids, dtype=object)
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        if not names.shape == starts.shape == ends.shape:
            raise ValueError("provider_ids, starts and ends must have equal length")
        inverted = np.flatnonzero(starts > ends)
        if inverted.size:
            raise AllocationError(f"allocation for {names[inverted[0]]!r}: start > end")
        order = np.argsort(starts, kind="stable")
        names, starts, ends = names[order], starts[order], ends[order]
        overlaps = np.flatnonzero(starts[1:] <= ends[:-1])
        if overlaps.size:
            i = overlaps[0]
            raise AllocationError(
                f"overlapping allocations: {names[i]!r} [{starts[i]}, {ends[i]}] "
                f"and {names[i + 1]!r} [{starts[i + 1]}, {ends[i + 1]}]"
            )
        self.provider_ids, self._owner = np.unique(names, return_inverse=True)
        self._starts, self._ends = starts, ends
        self.assigned_sizes = np.zeros(len(self.provider_ids), dtype=np.int64)
        np.add.at(self.assigned_sizes, self._owner, ends - starts + 1)

    def owners(self, ips) -> np.ndarray:
        """Position in ``provider_ids`` of each IP's owner, -1 if unallocated."""
        ips = np.asarray(ips, dtype=np.int64)
        if not len(self._starts):
            return np.full(ips.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self._starts, ips, side="right") - 1
        # pos == -1 reads the last range; the pos >= 0 test discards it
        owned = (pos >= 0) & (ips <= self._ends[pos])
        return np.where(owned, self._owner[pos], -1)


class DomainIps:
    """The (domain, ip) rows of an observation or abuse file, as two columns.

    ``domains`` is an object array of str, ``ips`` an int64 array of
    integer addresses; ``len()`` is the row count.
    """

    def __init__(self, domains: Sequence[str], ips):
        self.domains = np.asarray(domains, dtype=object)
        self.ips = np.asarray(ips, dtype=np.int64)
        if self.domains.shape != self.ips.shape:
            raise ValueError("domains and ips must have equal length")

    def __len__(self) -> int:
        return len(self.ips)


def _codes(values) -> np.ndarray:
    """Integer codes below ``len(values)``, equal values sharing one code."""
    seen: dict = {}
    return np.fromiter(
        (seen.setdefault(v, len(seen)) for v in values), dtype=np.int64, count=len(values)
    )


def _distinct_pairs(groups: np.ndarray, items: np.ndarray, n_items: int):
    """The distinct (group, item) pairs as two arrays; items lie below ``n_items``.

    Sorts the combined keys and keeps the first of each run: on 80k int64
    keys this took under 1 ms where ``np.unique`` (numpy 2.4, which hashes
    when no inverse is asked for) took about 20 ms.
    """
    n_items = max(n_items, 1)
    keys = np.sort(groups * n_items + items)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return keys // n_items, keys % n_items


def classify_shared_ip(domain_count):
    """True iff an IP hosting ``domain_count`` domains counts as shared (> 10).

    Works elementwise on an array of counts.
    """
    return domain_count > SHARED_DOMAIN_THRESHOLD


@dataclass
class SharedIpStats:
    """Per-provider percent-shared values plus attribution bookkeeping.

    Arrays are in ``AllocationIndex.provider_ids`` order. ``hosting_ips``
    and ``hosted_domains`` count each provider's distinct IPs and domains
    seen in the observations; a provider with no hosted domain has value 0.
    ``skipped`` counts the observations no allocation covers.
    """

    values: np.ndarray
    hosting_ips: np.ndarray
    hosted_domains: np.ndarray
    skipped: int


def pct_shared(observations: DomainIps, index: AllocationIndex) -> SharedIpStats:
    """Percentage of each provider's distinct domains seen on shared IPs.

    An IP is shared when it hosts more than 10 distinct domains (counted
    over the supplied observation file). For each provider the value is
    100 * |distinct domains on >=1 shared IP| / |distinct domains|; a
    provider with no attributable domains reports 0 (its
    ``hosted_domains`` is 0). Observations whose IP matches no allocation
    are skipped and tallied.
    """
    owner = index.owners(observations.ips)
    hit = owner >= 0
    owner = owner[hit]
    domain = _codes(observations.domains)[hit]
    n = len(observations)
    # IPs are coded first, so an (ip, domain) key stays below n * n
    distinct_ips, ip = np.unique(observations.ips[hit], return_inverse=True)
    ip_owner = np.empty(len(distinct_ips), dtype=np.int64)
    ip_owner[ip] = owner

    pair_ip, pair_domain = _distinct_pairs(ip, domain, n)
    shared = classify_shared_ip(np.bincount(pair_ip, minlength=len(distinct_ips)))
    on_shared = shared[pair_ip]
    shared_owner, _ = _distinct_pairs(
        ip_owner[pair_ip[on_shared]], pair_domain[on_shared], n
    )
    hosting_owner, _ = _distinct_pairs(owner, domain, n)

    n_providers = len(index.provider_ids)
    shared_domains = np.bincount(shared_owner, minlength=n_providers)
    hosted_domains = np.bincount(hosting_owner, minlength=n_providers)
    values = np.divide(
        100.0 * shared_domains,
        hosted_domains,
        out=np.zeros(n_providers),
        where=hosted_domains > 0,
    )
    return SharedIpStats(
        values=values,
        hosting_ips=np.bincount(ip_owner, minlength=n_providers),
        hosted_domains=hosted_domains,
        skipped=int(n - hit.sum()),
    )


def popularity_index(ranks: Iterable[int]) -> float:
    """Popularity score: sum of base-10 logs of the reversed ranks.

    Rank 1 (most popular) reverses to ``POPULARITY_LIST_SIZE``, the last
    rank to 1, so a provider hosting only the least popular ranked domain
    scores 0.

    Raises
    ------
    ValueError
        If any rank falls outside [1, POPULARITY_LIST_SIZE].
    """
    total = 0.0
    for rank in ranks:
        if not 1 <= rank <= POPULARITY_LIST_SIZE:
            raise ValueError(f"rank {rank} outside [1, {POPULARITY_LIST_SIZE}]")
        total += log10_transform(POPULARITY_LIST_SIZE + 1 - rank)
    return total


def attribute_abuse(abuse: DomainIps, index: AllocationIndex) -> tuple[np.ndarray, int]:
    """Count distinct abused second-level domains per provider.

    Returns the counts, in ``index.provider_ids`` order, and the number of
    records whose IP matches no allocation. A domain observed on several
    IPs of the same provider counts once for that provider; allocations
    are disjoint, so no record can be attributed to two providers.
    """
    owner = index.owners(abuse.ips)
    hit = owner >= 0
    providers, _ = _distinct_pairs(owner[hit], _codes(abuse.domains)[hit], len(abuse))
    counts = np.bincount(providers, minlength=len(index.provider_ids))
    return counts, int(len(abuse) - hit.sum())


@dataclass
class FeatureReport:
    """Bookkeeping emitted alongside a constructed provider table."""

    n_providers: int
    skipped_observations: int
    skipped_abuse_records: int
    zero_domain_providers: int


def build_provider_table(
    index: AllocationIndex,
    observations: DomainIps,
    abuse: DomainIps,
    source_label: str = "",
) -> tuple[Dataset, FeatureReport]:
    """Assemble the modeling dataset from raw offline inputs.

    Produces one row per allocated provider, in ``index.provider_ids``
    order, with the four structural variables (log10 assigned IPs, log10
    hosting IPs, log10 hosted domains, percent shared) and the attributed
    abuse count.
    """
    shared = pct_shared(observations, index)
    abuse_counts, skipped_abuse = attribute_abuse(abuse, index)
    table = Dataset(
        {
            "provider_id": index.provider_ids,
            "assigned_ips_log10": log10_transform(index.assigned_sizes),
            "hosting_ips_log10": log10_transform(shared.hosting_ips),
            "hosted_domains_log10": log10_transform(shared.hosted_domains),
            "pct_shared": shared.values,
            "abuse_count": abuse_counts,
        },
        source_label=source_label,
    )
    report = FeatureReport(
        n_providers=len(index.provider_ids),
        skipped_observations=shared.skipped,
        skipped_abuse_records=skipped_abuse,
        zero_domain_providers=int(np.count_nonzero(shared.hosted_domains == 0)),
    )
    return table, report


def merge_enrichment(d: Dataset, rows: dict[str, dict], columns: Sequence[str]) -> Dataset:
    """Merge enrichment columns (price, country, ...) into a provider table.

    ``rows`` maps provider_id to a dict of enrichment values; providers
    absent from the mapping, or without a value, keep their current one.
    """
    extras = [rows.get(pid, {}) for pid in d.provider_ids()]
    merged = {}
    for c in columns:
        current = d.column(c).tolist()
        merged[c] = [v if e.get(c) is None else e[c] for v, e in zip(current, extras)]
    return d.with_columns(merged)


def _column(header: list[str], name: str, path) -> int:
    pos = _position(header, name, path, AllocationError)
    if pos is None:
        raise AllocationError(f"{path}: missing required column {name!r}")
    return pos


def _short_row(path, header: list[str], positions, rows, first: int) -> AllocationError:
    """The error for the first data row without a cell in one of the ``positions``.

    Loaders call it when indexing a row failed, so the per-row loops pay
    for no length check. ``rows`` and ``first`` are as ``_read_rows``
    returns them, so the error names the physical line, as ``load_table``'s
    errors do.
    """
    width = max(positions) + 1
    lineno, row = next((n, r) for n, r in enumerate(rows, start=first) if r and len(r) < width)
    name = header[min(i for i in positions if i >= len(row))]
    return AllocationError(f"{path}: row {lineno}: no value in column {name!r}")


def _parse_ips(*columns: list[str]) -> list[np.ndarray]:
    """IP cell columns of equal length as int64 arrays, as ``parse_ip`` reads them.

    Integer cells are converted with ``int``, which is what ``parse_ip``
    does with a cell without a dot, and range-checked in one pass. Any
    other column set, a dotted quad or a bad cell among it, goes through
    ``parse_ip`` cell by cell in row-major order, so the first bad cell
    in file order raises its usual error.
    """
    n = len(columns[0])
    try:
        arrays = [np.fromiter(map(int, col), np.int64, n) for col in columns]
    except (ValueError, OverflowError):
        pass
    else:
        if all(((a >= 0) & (a <= MAX_IPV4)).all() for a in arrays):
            return arrays
    flat = np.fromiter(
        map(parse_ip, chain.from_iterable(zip(*columns))), np.int64, n * len(columns)
    )
    return list(flat.reshape(n, len(columns)).T.copy())


def _read_columns(
    path, delimiter: str, key: str, ips: Sequence[str]
) -> tuple[list[str], list[np.ndarray]]:
    """The stripped ``key`` column and the ``ips`` columns as int64 addresses.

    Other columns are ignored. Plain files are split whole
    (``_split_plain``); any other file is read row by row through
    ``_read_rows``, each row's cells in ``key``, ``ips`` order, which also
    names the first short row.
    """
    names = [key, *ips]
    plain = _split_plain(path, delimiter)
    if plain is not None:
        header, cells = plain
        width = len(header)
        key_cells, *ip_cells = (cells[_column(header, name, path)::width] for name in names)
        return list(map(str.strip, key_cells)), _parse_ips(*ip_cells)
    header, rows, first = _read_rows(path, delimiter, AllocationError)
    positions = [_column(header, name, path) for name in names]
    parsers = [str.strip] + [parse_ip] * len(ips)
    columns: list[list] = [[] for _ in names]
    try:
        for row in rows:
            if row:
                for column, pos, parse in zip(columns, positions, parsers):
                    column.append(parse(row[pos]))
    except IndexError:
        raise _short_row(path, header, positions, rows, first) from None
    return columns[0], [np.array(c, dtype=np.int64) for c in columns[1:]]


def load_allocations(path, delimiter: str = ",") -> AllocationIndex:
    """Read allocations from columns provider_id, ip_start, ip_end into an index."""
    ids, (starts, ends) = _read_columns(path, delimiter, "provider_id", ("ip_start", "ip_end"))
    return AllocationIndex(ids, starts, ends)


def _read_domain_ips(path, delimiter: str) -> DomainIps:
    """Columns domain and ip of a delimited file; other columns are ignored."""
    domains, (ips,) = _read_columns(path, delimiter, "domain", ("ip",))
    return DomainIps(domains, ips)


def load_observations(path, delimiter: str = ",") -> DomainIps:
    """Read hosting observations from columns domain, ip."""
    return _read_domain_ips(path, delimiter)


def load_abuse(path, delimiter: str = ",") -> DomainIps:
    """Read abuse records from columns domain, ip; a timestamp column is ignored."""
    return _read_domain_ips(path, delimiter)


def load_enrichment(path, delimiter: str = ",") -> dict[str, dict]:
    """Read an enrichment table keyed by provider_id.

    Canonical columns go through the same cell validation as provider
    tables (ranges, numeric parsing); empty cells are missing; unknown
    columns are ignored. A provider_id may appear on one row only, and a
    canonical column once in the header.
    """
    plain = _split_plain(path, delimiter)
    if plain is not None:
        header, cells = plain
        pid, positions = _enrichment_positions(header, path)
        width = len(header)
        ids = list(map(str.strip, cells[pid::width]))
        columns = [_parse_column(name, cells[pos::width]) for name, pos in positions.items()]
        if len(set(ids)) == len(ids) and not any(c is None for c in columns):
            names = list(positions)
            values = map(_cell_values, names, columns)
            return {
                key: {n: v for n, v in zip(names, row) if v is not None}
                for key, *row in zip(ids, *values)
            }
        # a cell failed a check: the row loop raises its error

    header, rows, first = _read_rows(path, delimiter, AllocationError)
    pid, positions = _enrichment_positions(header, path)
    out: dict[str, dict] = {}
    try:
        for lineno, row in enumerate(rows, start=first):
            if not row:
                continue
            if len(row) <= pid:
                raise _short_row(path, header, (pid,), rows, first)
            values = {}
            for name, idx in positions.items():
                if idx >= len(row):
                    continue
                parsed = _parse_cell(name, row[idx], lineno)
                if parsed is not None:
                    values[name] = parsed
            key = row[pid].strip()
            if key in out:
                raise LoadError(f"row {lineno}: duplicate provider_id {key!r}")
            out[key] = values
    except LoadError as exc:
        raise LoadError(f"{path}: {exc}") from None
    return out


def _enrichment_positions(header: list[str], path) -> tuple[int, dict[str, int]]:
    """Position of ``provider_id`` and of each other canonical column, in header order."""
    pid = _column(header, "provider_id", path)
    known = set(COLUMNS) - {"provider_id"}
    return pid, {name: _column(header, name, path) for name in header if name in known}


def _cell_values(name: str, column) -> list:
    """A column from ``_parse_column`` as ``_parse_cell`` returns its cells."""
    if isinstance(column, list):
        return column
    missing = np.isnan(column)
    if name == "abuse_count":
        column = np.where(missing, 0, column).astype(np.int64)
    values = column.tolist()
    for i in np.flatnonzero(missing).tolist():
        values[i] = None
    return values
