"""Fold citation records into per-journal counts.

Count tables are partial results that join in two ways. ``merge`` is a
pointwise sum: associative and commutative, with the empty table as
identity. It equals one pass only while the corpus holds at most
``unknown_cap`` distinct unknown strings, since past that cap one pass
spills each further string into ``unknown_overflow`` while a shard spills
only past its own cap. ``merge_in_order`` joins the tables of consecutive
runs of records, earlier first, and equals one pass over them all under
any cap: it admits the later table's unknown strings in the order they
were first seen. A later table that overflowed its own cap has lost that
order, and for it ``merge_in_order`` says it cannot join.
"""

from __future__ import annotations

import csv
import json
import sys
from typing import IO, TYPE_CHECKING, Iterable, NamedTuple

from .extractor import CitationRecord, JournalRecord, PageScan
from .registry import JournalRegistry, Resolution, ResolutionKind

if TYPE_CHECKING:
    from datetime import date

DEFAULT_UNKNOWN_CAP = 100_000
_RESOLVED_LIMIT = DEFAULT_UNKNOWN_CAP

COUNTS_FORMAT = "wikicite-counts-v1"


class RegistryMismatchError(ValueError):
    """Tables built against different registries must not be merged."""


class CountTable(NamedTuple):
    """Per-journal tallies for one corpus (or one shard of it).

    ``template_total`` counts every citation template, including those with
    no journal parameter; ``unknown`` keeps unmatched journal strings
    verbatim for registry curation, spilling into ``unknown_overflow`` once
    the configured distinct-string cap is hit at ingest time.
    """

    counts: dict[str, int]
    excluded_count: int
    unknown: dict[str, int]
    unknown_overflow: int
    template_total: int
    malformed_total: int
    registry_fingerprint: str

    @property
    def no_journal_count(self) -> int:
        return (
            self.template_total
            - sum(self.counts.values())
            - self.excluded_count
            - sum(self.unknown.values())
            - self.unknown_overflow
        )

    @classmethod
    def empty(cls, registry_fingerprint: str) -> "CountTable":
        return cls(
            counts={},
            excluded_count=0,
            unknown={},
            unknown_overflow=0,
            template_total=0,
            malformed_total=0,
            registry_fingerprint=registry_fingerprint,
        )


def tally(
    records: Iterable[CitationRecord | JournalRecord],
    registry: JournalRegistry,
    *,
    malformed_total: int = 0,
    unknown_cap: int = DEFAULT_UNKNOWN_CAP,
) -> CountTable:
    """Count records per canonical journal.

    Each record with a journal contributes to exactly one of the canonical
    counts, the excluded tally, or the unknown map; records without a journal
    parameter contribute to ``template_total`` only. Only ``journal_raw`` is
    read, so journal-only records count as full ones do.

    Each distinct journal string is resolved once per call: a dense corpus
    repeats the same strings, and ``registry.resolve`` depends on nothing
    else. The memo is emptied when it reaches ``_RESOLVED_LIMIT`` strings,
    so that its memory stays bounded like the unknown map's.
    """
    counts: dict[str, int] = {}
    unknown: dict[str, int] = {}
    resolved: dict[str, Resolution] = {}
    excluded = 0
    overflow = 0
    total = 0
    for record in records:
        total += 1
        raw = record.journal_raw
        if raw is None:
            continue
        resolution = resolved.get(raw)
        if resolution is None:
            if len(resolved) >= _RESOLVED_LIMIT:
                resolved.clear()
            resolution = resolved[raw] = registry.resolve(raw)
        if resolution.kind is ResolutionKind.CANONICAL:
            counts[resolution.name] = counts.get(resolution.name, 0) + 1
        elif resolution.kind is ResolutionKind.EXCLUDED:
            excluded += 1
        elif raw in unknown:
            unknown[raw] += 1
        elif len(unknown) < unknown_cap:
            unknown[raw] = 1
        else:
            overflow += 1
    return CountTable(
        counts=counts,
        excluded_count=excluded,
        unknown=unknown,
        unknown_overflow=overflow,
        template_total=total,
        malformed_total=malformed_total,
        registry_fingerprint=registry.fingerprint,
    )


def tally_scans(
    scans: Iterable[PageScan],
    registry: JournalRegistry,
    *,
    unknown_cap: int = DEFAULT_UNKNOWN_CAP,
) -> CountTable:
    """Tally a stream of page scans, full or journal-only, summing their
    malformed counts."""
    malformed_total = 0

    def records():
        nonlocal malformed_total
        for scan in scans:
            malformed_total += scan.malformed
            yield from scan.records

    table = tally(records(), registry, unknown_cap=unknown_cap)
    return table._replace(malformed_total=malformed_total)


def merge(a: CountTable, b: CountTable) -> CountTable:
    """Pointwise sum of two tables built against the same registry."""
    if a.registry_fingerprint != b.registry_fingerprint:
        raise RegistryMismatchError(
            "tables were built against different registries: "
            f"{a.registry_fingerprint[:12]} vs {b.registry_fingerprint[:12]}"
        )
    counts = dict(a.counts)
    for name, value in b.counts.items():
        counts[name] = counts.get(name, 0) + value
    unknown = dict(a.unknown)
    for name, value in b.unknown.items():
        unknown[name] = unknown.get(name, 0) + value
    return CountTable(
        counts=counts,
        excluded_count=a.excluded_count + b.excluded_count,
        unknown=unknown,
        unknown_overflow=a.unknown_overflow + b.unknown_overflow,
        template_total=a.template_total + b.template_total,
        malformed_total=a.malformed_total + b.malformed_total,
        registry_fingerprint=a.registry_fingerprint,
    )


def merge_in_order(
    earlier: CountTable, later: CountTable, *, unknown_cap: int = DEFAULT_UNKNOWN_CAP
) -> CountTable | None:
    """The table of one pass over ``earlier``'s records and then ``later``'s,
    each table tallied under ``unknown_cap``; None when ``later`` overflowed,
    as its spilled strings can no longer be placed. A string of ``later``
    that ``earlier`` holds adds to it; any other is admitted, in the order
    ``later`` first saw it, while fewer than ``unknown_cap`` strings are
    held, and spills into ``unknown_overflow`` once the cap is full."""
    if later.unknown_overflow:
        return None
    table = merge(earlier._replace(unknown={}), later._replace(unknown={}))
    unknown = dict(earlier.unknown)
    overflow = table.unknown_overflow
    for name, value in later.unknown.items():
        if name in unknown:
            unknown[name] += value
        elif len(unknown) < unknown_cap:
            unknown[name] = value
        else:
            overflow += value
    return table._replace(unknown=unknown, unknown_overflow=overflow)


def growth_report(
    dated_tables: Iterable[tuple[date, CountTable]]
) -> list[tuple[date, int]]:
    """(date, template_total) series; dates must be strictly increasing."""
    out: list[tuple[date, int]] = []
    previous: date | None = None
    for when, table in dated_tables:
        if previous is not None and when <= previous:
            raise ValueError(f"dates must be strictly increasing: {when} after {previous}")
        previous = when
        out.append((when, table.template_total))
    return out


# serialization ------------------------------------------------------


def to_json_dict(table: CountTable) -> dict:
    return {
        "format": COUNTS_FORMAT,
        "registry_fingerprint": table.registry_fingerprint,
        "template_total": table.template_total,
        "malformed_total": table.malformed_total,
        "excluded_count": table.excluded_count,
        "no_journal_count": table.no_journal_count,
        "unknown_overflow": table.unknown_overflow,
        "counts": table.counts,
        "unknown": table.unknown,
    }


_COUNTS_KEYS = frozenset(to_json_dict(CountTable.empty("")))


def _count(value, what: str) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"corrupt count table: {what} must be a non-negative integer")
    if value > sys.float_info.max:
        # correlate ranks the counts as floats
        raise ValueError(f"corrupt count table: {what} is too large for a float")
    return value


def _tallies(obj, what: str) -> dict[str, int]:
    if not isinstance(obj, dict):
        raise ValueError(f"corrupt count table: {what} must be an object")
    for name, value in obj.items():
        if not isinstance(name, str):
            raise ValueError(f"corrupt count table: {what} key {name!r} is not a string")
        _count(value, f"{what}[{name!r}]")
    return dict(obj)


def from_json_dict(obj) -> CountTable:
    """Parse a counts document, rejecting anything :func:`to_json_dict`
    could not have written: a missing or extra key, non-string keys or
    fingerprint, counts that are not non-negative integers or are too large
    for a float, and derived fields that disagree with the tallies.
    """
    if not isinstance(obj, dict) or obj.get("format") != COUNTS_FORMAT:
        raise ValueError(f"not a {COUNTS_FORMAT} document")
    missing = _COUNTS_KEYS - obj.keys()
    if missing:
        raise ValueError(f"corrupt count table: missing {sorted(missing)}")
    extra = obj.keys() - _COUNTS_KEYS
    if extra:
        raise ValueError(f"corrupt count table: unexpected keys {sorted(extra, key=repr)}")
    fingerprint = obj["registry_fingerprint"]
    if type(fingerprint) is not str:
        raise ValueError("corrupt count table: registry_fingerprint must be a string")
    table = CountTable(
        counts=_tallies(obj["counts"], "counts"),
        excluded_count=_count(obj["excluded_count"], "excluded_count"),
        unknown=_tallies(obj["unknown"], "unknown"),
        unknown_overflow=_count(obj["unknown_overflow"], "unknown_overflow"),
        template_total=_count(obj["template_total"], "template_total"),
        malformed_total=_count(obj["malformed_total"], "malformed_total"),
        registry_fingerprint=fingerprint,
    )
    stored_no_journal = _count(obj["no_journal_count"], "no_journal_count")
    if table.no_journal_count < 0:
        raise ValueError("corrupt count table: tallies exceed template_total")
    if stored_no_journal != table.no_journal_count:
        raise ValueError(
            f"corrupt count table: no_journal_count {stored_no_journal} disagrees "
            f"with the tallies ({table.no_journal_count})"
        )
    return table


def write_json(obj, fp: IO[str]) -> None:
    """Every JSON file the pipeline writes: two-space indent, sorted keys,
    UTF-8 text rather than ``\\u`` escapes, and a final newline."""
    json.dump(obj, fp, indent=2, sort_keys=True, ensure_ascii=False)
    fp.write("\n")


def write_csv(header: list[str], rows: Iterable, fp: IO[str]) -> None:
    """Every CSV file the pipeline writes: ``header``, then ``rows``, with
    ``\\n`` line ends."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_counts_json(table: CountTable, fp: IO[str]) -> None:
    write_json(to_json_dict(table), fp)


def read_counts_json(fp: IO[str]) -> CountTable:
    try:
        obj = json.load(fp)
    except RecursionError:  # json's C scanner recurses once per nesting level
        raise ValueError("corrupt count table: nested too deeply to parse") from None
    return from_json_dict(obj)


def _write_ranked_csv(header: list[str], tallies: dict[str, int], fp: IO[str]) -> None:
    """``header``, then one ``name,count`` row per tally, most frequent
    first, names breaking ties."""
    write_csv(header, sorted(tallies.items(), key=lambda kv: (-kv[1], kv[0])), fp)


def write_counts_csv(table: CountTable, fp: IO[str]) -> None:
    _write_ranked_csv(["journal", "count"], table.counts, fp)


def write_unknown_csv(table: CountTable, fp: IO[str]) -> None:
    """Audit output of unmatched journal strings."""
    _write_ranked_csv(["journal_raw", "count"], table.unknown, fp)
