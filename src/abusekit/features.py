"""Explanatory-variable construction from offline allocation/DNS/abuse files.

All inputs arrive as delimited files: IP allocations (provider_id with an
inclusive address range), hosting observations (domain, ip) and abuse
records (domain, ip). IP addresses are accepted in dotted-quad or plain
integer form and normalized to integers internally.
"""
from __future__ import annotations

import bisect
import ipaddress
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .ingest import COLUMNS, Dataset, _parse_cell, _read_rows, log10_transform

#: An IP address is "shared" when it hosts more than this many domains.
SHARED_DOMAIN_THRESHOLD = 10

#: Length of the domain popularity ranking behind ``popularity_index``.
POPULARITY_LIST_SIZE = 1_000_000

#: Largest IPv4 address as an integer.
MAX_IPV4 = 2**32 - 1


class AllocationError(ValueError):
    """Raised when IP allocations overlap or cannot be parsed."""


@dataclass(frozen=True)
class IpAllocation:
    """A contiguous IP range (inclusive) allocated to one provider."""

    provider_id: str
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise AllocationError(
                f"allocation for {self.provider_id!r}: start > end"
            )

    @property
    def size(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class HostingObservation:
    """One (second-level domain, hosting IP) observation."""

    domain: str
    ip: int


@dataclass(frozen=True)
class AbuseRecord:
    """One abused second-level domain seen on an IP, optionally timestamped."""

    domain: str
    ip: int
    timestamp: str | None = None


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

    Lookups are a binary search over range starts, logarithmic per IP, so
    population-scale observation files stay cheap to attribute.
    """

    def __init__(self, allocations: Iterable[IpAllocation]):
        ranges = sorted(allocations, key=lambda a: a.start)
        for prev, cur in zip(ranges, ranges[1:]):
            if cur.start <= prev.end:
                raise AllocationError(
                    f"overlapping allocations: {prev.provider_id!r} "
                    f"[{prev.start}, {prev.end}] and {cur.provider_id!r} "
                    f"[{cur.start}, {cur.end}]"
                )
        self._ranges = ranges
        self._starts = [a.start for a in ranges]
        self.assigned_sizes: dict[str, int] = defaultdict(int)
        for a in ranges:
            self.assigned_sizes[a.provider_id] += a.size
        self.provider_ids = sorted(self.assigned_sizes)

    def lookup(self, ip: int) -> str | None:
        """Return the provider owning ``ip``, or ``None`` if unallocated."""
        pos = bisect.bisect_right(self._starts, ip) - 1
        if pos >= 0 and self._ranges[pos].start <= ip <= self._ranges[pos].end:
            return self._ranges[pos].provider_id
        return None


def classify_shared_ip(domain_count: int) -> bool:
    """True iff an IP hosting ``domain_count`` domains counts as shared (> 10)."""
    return domain_count > SHARED_DOMAIN_THRESHOLD


@dataclass
class SharedIpStats:
    """Per-provider percent-shared values plus attribution bookkeeping.

    ``hosting_ips`` and ``hosted_domains`` count each provider's distinct
    IPs and domains seen in the observations.
    """

    values: dict[str, float]
    zero_domain_providers: set[str] = field(default_factory=set)
    skipped: int = 0
    hosting_ips: dict[str, int] = field(default_factory=dict)
    hosted_domains: dict[str, int] = field(default_factory=dict)


def pct_shared(
    observations: Sequence[HostingObservation], index: AllocationIndex
) -> SharedIpStats:
    """Percentage of each provider's distinct domains seen on shared IPs.

    An IP is shared when it hosts more than 10 distinct domains (counted
    over the supplied observation file). For each provider the value is
    100 * |distinct domains on >=1 shared IP| / |distinct domains|; a
    provider with no attributable domains reports 0 and is flagged.
    Observations whose IP matches no allocation are skipped and tallied.
    """
    domains_per_ip: dict[int, set[str]] = defaultdict(set)
    provider_domains: dict[str, set[str]] = defaultdict(set)
    provider_of_ip: dict[int, str | None] = {}
    skipped = 0
    for obs in observations:
        owner = provider_of_ip.get(obs.ip)
        if obs.ip not in provider_of_ip:
            owner = index.lookup(obs.ip)
            provider_of_ip[obs.ip] = owner
        if owner is None:
            skipped += 1
            continue
        domains_per_ip[obs.ip].add(obs.domain)
        provider_domains[owner].add(obs.domain)

    shared_ips = {ip for ip, doms in domains_per_ip.items() if classify_shared_ip(len(doms))}
    shared_domains: dict[str, set[str]] = defaultdict(set)
    for ip in shared_ips:
        shared_domains[provider_of_ip[ip]].update(domains_per_ip[ip])

    values: dict[str, float] = {}
    zero_domain: set[str] = set()
    for provider in index.provider_ids:
        total = provider_domains.get(provider, set())
        if not total:
            values[provider] = 0.0
            zero_domain.add(provider)
        else:
            values[provider] = 100.0 * len(shared_domains.get(provider, set())) / len(total)
    return SharedIpStats(
        values=values,
        zero_domain_providers=zero_domain,
        skipped=skipped,
        hosting_ips=dict(Counter(provider_of_ip[ip] for ip in domains_per_ip)),
        hosted_domains={p: len(doms) for p, doms in provider_domains.items()},
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


@dataclass
class AttributionResult:
    """Distinct abused domains per provider plus the unattributable tally."""

    counts: dict[str, int]
    skipped: int = 0


def attribute_abuse(
    abuse: Sequence[AbuseRecord], index: AllocationIndex
) -> AttributionResult:
    """Count distinct abused second-level domains per provider.

    A domain observed on several IPs of the same provider counts once for
    that provider. Records whose IP matches no allocation are tallied
    separately; allocations are disjoint, so no record can be attributed
    to two providers.
    """
    per_provider: dict[str, set[str]] = defaultdict(set)
    skipped = 0
    for rec in abuse:
        owner = index.lookup(rec.ip)
        if owner is None:
            skipped += 1
        else:
            per_provider[owner].add(rec.domain)
    counts = {p: len(per_provider.get(p, set())) for p in index.provider_ids}
    return AttributionResult(counts=counts, skipped=skipped)


@dataclass
class FeatureReport:
    """Bookkeeping emitted alongside a constructed provider table."""

    n_providers: int
    skipped_observations: int
    skipped_abuse_records: int
    zero_domain_providers: int


def build_provider_table(
    allocations: Sequence[IpAllocation] | AllocationIndex,
    observations: Sequence[HostingObservation],
    abuse: Sequence[AbuseRecord],
    source_label: str = "",
) -> tuple[Dataset, FeatureReport]:
    """Assemble the modeling dataset from raw offline inputs.

    Produces one row per allocated provider with the four structural
    variables (log10 assigned IPs, log10 hosting IPs, log10 hosted
    domains, percent shared) and the attributed abuse count. An
    ``AllocationIndex`` may stand in for the allocations.
    """
    index = (
        allocations
        if isinstance(allocations, AllocationIndex)
        else AllocationIndex(allocations)
    )
    shared = pct_shared(observations, index)
    attribution = attribute_abuse(abuse, index)
    ids = index.provider_ids
    table = Dataset(
        {
            "provider_id": ids,
            "assigned_ips_log10": log10_transform([index.assigned_sizes[p] for p in ids]),
            "hosting_ips_log10": log10_transform([shared.hosting_ips.get(p, 0) for p in ids]),
            "hosted_domains_log10": log10_transform(
                [shared.hosted_domains.get(p, 0) for p in ids]
            ),
            "pct_shared": [shared.values[p] for p in ids],
            "abuse_count": [attribution.counts[p] for p in ids],
        },
        source_label=source_label,
    )
    report = FeatureReport(
        n_providers=len(ids),
        skipped_observations=shared.skipped,
        skipped_abuse_records=attribution.skipped,
        zero_domain_providers=len(shared.zero_domain_providers),
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
    if name not in header:
        raise AllocationError(f"{path}: missing required column {name!r}")
    return header.index(name)


def load_allocations(path, delimiter: str = ",") -> list[IpAllocation]:
    """Read allocations from columns provider_id, ip_start, ip_end."""
    header, rows = _read_rows(path, delimiter, AllocationError)
    pid = _column(header, "provider_id", path)
    lo = _column(header, "ip_start", path)
    hi = _column(header, "ip_end", path)
    return [
        IpAllocation(row[pid].strip(), parse_ip(row[lo]), parse_ip(row[hi]))
        for row in rows
        if row
    ]


def load_observations(path, delimiter: str = ",") -> list[HostingObservation]:
    """Read hosting observations from columns domain, ip."""
    header, rows = _read_rows(path, delimiter, AllocationError)
    dom = _column(header, "domain", path)
    ip = _column(header, "ip", path)
    return [HostingObservation(row[dom].strip(), parse_ip(row[ip])) for row in rows if row]


def load_abuse(path, delimiter: str = ",") -> list[AbuseRecord]:
    """Read abuse records from columns domain, ip and optional timestamp."""
    header, rows = _read_rows(path, delimiter, AllocationError)
    dom = _column(header, "domain", path)
    ip = _column(header, "ip", path)
    ts = header.index("timestamp") if "timestamp" in header else None
    out = []
    for row in rows:
        if not row:
            continue
        stamp = row[ts].strip() if ts is not None and ts < len(row) else None
        out.append(AbuseRecord(row[dom].strip(), parse_ip(row[ip]), stamp or None))
    return out


def load_enrichment(path, delimiter: str = ",") -> dict[str, dict]:
    """Read an enrichment table keyed by provider_id.

    Canonical columns go through the same cell validation as provider
    tables (ranges, numeric parsing); empty cells are missing; unknown
    columns are ignored.
    """
    known = set(COLUMNS)
    header, rows = _read_rows(path, delimiter, AllocationError)
    pid = _column(header, "provider_id", path)
    out: dict[str, dict] = {}
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        values = {}
        for idx, name in enumerate(header):
            if idx == pid or idx >= len(row) or name not in known:
                continue
            parsed = _parse_cell(name, row[idx], lineno)
            if parsed is not None:
                values[name] = parsed
        out[row[pid].strip()] = values
    return out
