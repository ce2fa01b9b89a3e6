"""Explanatory-variable construction from offline allocation/DNS/abuse files.

All inputs arrive as delimited files: IP allocations (provider_id with an
inclusive address range), hosting observations (domain, ip) and abuse
records (domain, ip). IP addresses are accepted in dotted-quad or plain
integer form and normalized to integers internally. Every file is read
once, by columns, through ``ingest``'s block reader, whose docstring says
when a block is plain and how a rejected row is named. It raises every
input error of an allocation, observation or abuse file as an
``AllocationError``, and of an enrichment file, which is a provider table
read under ``load_table``'s cell rules, as a ``LoadError``. A key or IP cell
empty after stripping, or cut off, has no value. An IP column of ASCII
digits only is read by numpy in one call, any other through ``parse_ip``
cell by cell. Files are held as columns: an ``AllocationIndex`` over the
ranges and one ``DomainIps`` per observation or abuse file, whose domains
are coded to int64 as each block is read, so no domain text outlives the
loader. Each file's rows are attributed to providers by one vectorised
owner lookup, distinct counts come from sorted integer keys, and
per-provider results are arrays in ``AllocationIndex.provider_ids`` order.
"""
from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import partial
from itertools import count, repeat
from typing import Iterable, Sequence

import numpy as np

from .ingest import (
    COLUMNS,
    STRING_COLUMNS,
    Dataset,
    LoadError,
    _no_value,
    _parse_columns,
    _parse_or,
    _position,
    _read_blocks,
    log10_transform,
)

#: An IP address is "shared" when it hosts more than this many domains.
SHARED_DOMAIN_THRESHOLD = 10

#: Length of the domain popularity ranking behind ``popularity_index``.
POPULARITY_LIST_SIZE = 1_000_000

#: Largest IPv4 address as an integer.
MAX_IPV4 = 2**32 - 1


class AllocationError(ValueError):
    """Raised on a bad IP address, overlapping allocations or any fault of a raw input file."""


def parse_ip(text) -> int:
    """Normalize a dotted-quad or integer IP representation to an integer.

    Integers, given as such or as ASCII digits after an optional ``-``, must
    lie in [0, 2**32 - 1]; ``int`` would also read ``+``, ``_`` between
    digits and non-ASCII digits.
    """
    if isinstance(text, int):
        value = text
    else:
        text = text.strip()
        if "." in text:
            try:
                return int(ipaddress.IPv4Address(text))
            except ipaddress.AddressValueError as exc:
                raise AllocationError(f"invalid IP address {text!r}: {exc}") from None
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            raise AllocationError(f"invalid IP address {text!r}")
        value = int(text)
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
    """The (domain, ip) rows of an observation or abuse file, as two int64 columns.

    ``codes[i]`` codes row i's domain: equal domains share one code, each
    code lies in [0, len()), and the loaders give a domain the row of its
    first appearance. ``ips`` holds integer addresses; ``len()`` is the row
    count.
    """

    def __init__(self, codes, ips):
        self.codes = np.asarray(codes, dtype=np.int64)
        self.ips = np.asarray(ips, dtype=np.int64)
        if self.codes.shape != self.ips.shape:
            raise ValueError("codes and ips must have equal length")
        if len(self.codes) and not 0 <= self.codes.min() <= self.codes.max() < len(self.codes):
            raise ValueError("codes must lie in [0, len())")

    def __len__(self) -> int:
        return len(self.ips)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values of ``keys`` starts, as a boolean mask."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def _distinct_pairs(groups: np.ndarray, items: np.ndarray, n_items: int):
    """The distinct (group, item) pairs as two arrays, sorted; items lie below ``n_items``.

    Sorts the combined keys and keeps the first of each run: on 80k int64
    keys this took under 1 ms where ``np.unique`` (numpy 2.4, which hashes
    when no inverse is asked for) took about 20 ms.
    """
    n_items = max(n_items, 1)
    keys = groups * n_items
    keys += items
    keys.sort()
    keys = keys[_run_starts(keys)]
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
    n = max(len(observations), 1)
    hit = index.owners(observations.ips) >= 0
    # an IP is below 2**32 and a code below n, so an (ip, domain) key is
    # below 2**32 * n: under 2**63 for a file of fewer than 2**31 rows
    pair_ip, pair_domain = _distinct_pairs(observations.ips[hit], observations.codes[hit], n)
    starts = np.flatnonzero(_run_starts(pair_ip))
    per_ip = np.diff(starts, append=len(pair_ip))  # each distinct IP's distinct domains
    ip_owner = index.owners(pair_ip[starts])
    shared = classify_shared_ip(per_ip)

    # (owner, domain, not shared): an owner is below the provider count P,
    # at most the allocation rows, so a key is below 2 * P * n: under 2**63
    # while the allocation and observation files each have fewer than 2**31
    # rows. Sorted, each (owner, domain) run starts on a shared IP if it has one.
    keys = np.repeat(ip_owner * n, per_ip)
    keys += pair_domain
    keys *= 2
    keys += np.repeat(~shared, per_ip)
    keys.sort()
    keys = keys[_run_starts(keys >> 1)]
    hosting_owner = keys // (2 * n)

    n_providers = len(index.provider_ids)
    hosted_domains = np.bincount(hosting_owner, minlength=n_providers)
    shared_domains = np.bincount(hosting_owner[keys % 2 == 0], minlength=n_providers)
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
        skipped=int(len(hit) - hit.sum()),
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
    # an owner is below the provider count P and a code below the row count
    # n, so a key is below P * n: under 2**63 while both are below 2**31
    providers, _ = _distinct_pairs(owner[hit], abuse.codes[hit], len(abuse))
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


def merge_enrichment(d: Dataset, enrichment: tuple, columns: Sequence[str]) -> Dataset:
    """Merge enrichment columns (price, country, ...) into a provider table.

    ``enrichment`` is what ``load_enrichment`` returns: provider ids and
    columns of their values, ``None`` or NaN marking a missing one. Each of
    ``columns`` the enrichment holds overwrites the table's value of every
    provider with a present value; other providers, and columns the
    enrichment lacks, keep their current values.
    """
    ids, values = enrichment
    position = dict(zip(ids, range(len(ids))))
    at = np.fromiter(map(position.get, d.provider_ids(), repeat(-1)), np.int64, len(d))
    rows = np.flatnonzero(at >= 0)
    merged = {}
    for c in columns:
        if c in values:
            # numbers as float, a missing one NaN; int64 takes an integral count exactly
            kind = object if c in STRING_COLUMNS else float
            new = np.asarray(values[c], dtype=kind)[at[rows]]
            present = ~(np.equal(new, None) if kind is object else np.isnan(new))
            column = d.column(c).copy()
            column[rows[present]] = new[present]
            merged[c] = column
    return d.with_columns(merged)


def _parse_ips(cells: list[str]) -> tuple[np.ndarray, bool]:
    """IP cells as an int64 array, as ``parse_ip`` reads them, and whether it rejects none.

    When every cell is a non-empty string of ASCII digits (``int`` reads
    other digits too), the cells are joined and read at once by numpy,
    which reads a number too large for int64 as the int64 maximum, and
    range-checked in one pass. A cell holding a comma would add a number to
    the joined text, so the joined text must hold no more commas than the
    joins. Any other column goes through ``parse_ip`` cell by cell, a
    rejected cell read as -1.
    """
    text = ",".join(cells)
    if (
        "" not in cells
        and text.count(",") == len(cells) - 1
        and not text.encode().translate(None, b"0123456789,")
    ):
        ips = np.fromstring(text, np.int64, sep=",")
        if (ips <= MAX_IPV4).all():
            return ips, True
    ips = np.fromiter(map(partial(_parse_or, -1, parse_ip), cells), np.int64, len(cells))
    return ips, bool((ips >= 0).all())


def _read_columns(
    path, delimiter: str, key: str, ips: Sequence[str], coded: bool = False
) -> tuple[list | np.ndarray, list]:
    """The stripped ``key`` column and the ``ips`` columns as int64 addresses.

    A ``coded`` key column is read as int64 codes, a cell's code the index
    of the data row where its text first appears; the text is dropped block
    by block, and the last of it with the loader's dict when it returns.
    Other columns are ignored. A bad file raises the error of its first
    failing row, as a row loop reading its cells in ``key``, ``ips`` order;
    a cell empty after stripping, or cut off, has no value.
    """
    seen, row = {}, count()  # one per file, so a code holds across blocks

    def parse(header, cells):
        at = [_position(header, name, path, AllocationError, True) for name in (key, *ips)]
        keys = map(str.strip, cells[at[0]::len(header)])
        if coded:
            keys = np.fromiter(map(seen.setdefault, keys, row), np.int64, len(cells) // len(header))
            # a block holding "" fails, so a "" in seen came from this block
            empty = keys == seen[""] if "" in seen else None
        else:
            keys = list(keys)
            empty = np.equal(keys, "") if "" in keys else None
        columns, checks = {key: keys}, []
        if empty is not None:
            checks.append((empty, keys, partial(_no_value, key)))
        for name, pos in zip(ips, at[1:]):
            column = cells[pos::len(header)]
            columns[name], ok = _parse_ips(column)
            if not ok:  # an empty cell has no value; parse_ip rejects any other
                stripped = list(map(str.strip, column))
                checks.append((np.equal(stripped, ""), stripped, partial(_no_value, name)))
                checks.append((columns[name] < 0, column, parse_ip))
        return columns, checks

    columns = _read_blocks(path, delimiter, AllocationError, parse)
    return columns[key], [columns[name] for name in ips]


def load_allocations(path, delimiter: str = ",") -> AllocationIndex:
    """Read allocations from columns provider_id, ip_start, ip_end into an index."""
    ids, (starts, ends) = _read_columns(path, delimiter, "provider_id", ("ip_start", "ip_end"))
    return AllocationIndex(ids, starts, ends)


def _read_domain_ips(path, delimiter: str) -> DomainIps:
    """Columns domain and ip of a delimited file, the domains coded; other columns are ignored."""
    codes, (ips,) = _read_columns(path, delimiter, "domain", ("ip",), coded=True)
    return DomainIps(codes, ips)


def load_observations(path, delimiter: str = ",") -> DomainIps:
    """Read hosting observations from columns domain, ip."""
    return _read_domain_ips(path, delimiter)


def load_abuse(path, delimiter: str = ",") -> DomainIps:
    """Read abuse records from columns domain, ip; a timestamp column is ignored."""
    return _read_domain_ips(path, delimiter)


def load_enrichment(path, delimiter: str = ",") -> tuple[list[str], dict[str, Sequence]]:
    """Read an enrichment table: provider ids and their columns, in file order.

    Canonical columns go through the same cell validation as provider
    tables (ranges, numeric parsing); unknown columns are ignored. A
    provider_id must not be empty and may appear on one row only, and a
    canonical column once in the header; any fault raises a ``LoadError``,
    as in ``load_table``. Returns the stripped ids and, per
    canonical column in header order, its values: a list of str for a
    string column and a float64 array for a numeric one, ``abuse_count``
    among them; ``None`` or NaN marks an empty cell.
    """

    def positions(header):
        known = [name for name in header if name in COLUMNS and name != "provider_id"]
        pid = _position(header, "provider_id", path, LoadError, True)
        return pid, {name: _position(header, name, path, LoadError) for name in known}

    def parse(header, cells):
        pid, at = positions(header)
        columns, checks = _parse_columns(cells, len(header), at)
        ids = columns["provider_id"] = list(map(str.strip, cells[pid::len(header)]))
        if "" in ids:  # cut off, or empty after stripping
            checks.insert(0, (np.equal(ids, ""), ids, partial(_no_value, "provider_id")))
        return columns, checks

    columns = _read_blocks(path, delimiter, LoadError, parse, ("provider_id",))
    return columns.pop("provider_id"), columns
