import io
import json
import random
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wikicite import aggregate
from wikicite.aggregate import (
    CountTable,
    RegistryMismatchError,
    from_json_dict,
    growth_report,
    merge,
    read_counts_json,
    tally,
    tally_scans,
    to_json_dict,
    write_counts_csv,
    write_counts_json,
)
from wikicite.dump_reader import WikiPage
from wikicite.extractor import CitationRecord, scan_page
from wikicite.registry import JournalRegistry

from oracles import tally_resolving_each


def record(journal: str | None, title: str = "Page") -> CitationRecord:
    params = {"journal": journal} if journal is not None else {"title": "x"}
    return CitationRecord(
        page_title=title,
        template_name_raw="cite journal",
        params=params,
        journal_raw=journal,
        span=(0, 10),
    )


def test_tally_three_records_same_journal(starter_registry):
    table = tally([record("Nature")] * 3, starter_registry)
    assert table.counts == {"Nature": 3}
    assert table.template_total == 3
    assert table.no_journal_count == 0


def test_tally_planted_mixture(starter_registry):
    records = (
        [record("Nature")] * 5
        + [record("Science")] * 2
        + [record("Foo")]
        + [record("The New York Times")]
        + [record(None)]
    )
    table = tally(records, starter_registry, malformed_total=4)
    assert table.counts == {"Nature": 5, "Science": 2}
    assert table.unknown == {"Foo": 1}
    assert table.excluded_count == 1
    assert table.template_total == 10
    assert table.no_journal_count == 1
    assert table.malformed_total == 4


def test_tally_routes_aliases_and_exclusions(starter_registry):
    records = [record("NEJM"), record("New Engl J Med"), record("Phys. Rev.")]
    table = tally(records, starter_registry)
    assert table.counts == {"New England Journal of Medicine": 2}
    assert table.excluded_count == 1


def test_unknown_cap_spills_to_overflow(starter_registry):
    records = [record("U1"), record("U2"), record("U3"), record("U1")]
    table = tally(records, starter_registry, unknown_cap=2)
    assert table.unknown == {"U1": 2, "U2": 1}
    assert table.unknown_overflow == 1
    assert table.template_total == 4
    assert table.no_journal_count == 0


class CountingRegistry:
    """The two members ``tally`` uses, counting resolve calls per string."""

    def __init__(self, registry: JournalRegistry):
        self.registry = registry
        self.fingerprint = registry.fingerprint
        self.calls: dict[str, int] = {}

    def resolve(self, raw: str):
        self.calls[raw] = self.calls.get(raw, 0) + 1
        return self.registry.resolve(raw)


_SMALL_REGISTRY = JournalRegistry.build(["Nature", "Science"], {"Nat.": "Nature"}, ["Daily News"])
_raw_journals = st.sampled_from(
    [None, "Nature", "nature", "Nat.", "NATURE.", "Science", "Daily News", "U1", "U2", "U3",
     "U4", "U5", "u1"]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_raw_journals, max_size=40))
def test_tally_matches_resolve_each_oracle(journals):
    records = [record(journal) for journal in journals]
    registry = CountingRegistry(_SMALL_REGISTRY)
    table = tally(records, registry, malformed_total=2, unknown_cap=3)
    expected = tally_resolving_each(records, _SMALL_REGISTRY, malformed_total=2, unknown_cap=3)
    assert table == expected
    assert list(table.unknown) == list(expected.unknown)
    assert registry.calls == dict.fromkeys({j for j in journals if j is not None}, 1)


def test_tally_memo_limit_keeps_the_table(monkeypatch):
    monkeypatch.setattr(aggregate, "_RESOLVED_LIMIT", 2)
    journals = ["Nature", "Nature", "U1", "Nature", "Nat.", "U2", "U2", "U1", "Daily News"] * 3
    records = [record(journal) for journal in journals]
    registry = CountingRegistry(_SMALL_REGISTRY)
    table = tally(records, registry, unknown_cap=2)
    assert table == tally_resolving_each(records, _SMALL_REGISTRY, unknown_cap=2)
    assert len(journals) > sum(registry.calls.values()) > len(registry.calls)


def _random_table(rng: random.Random, fingerprint: str) -> CountTable:
    names = ["Nature", "Science", "Icarus", "JAMA"]
    return CountTable(
        counts={n: rng.randrange(5) for n in rng.sample(names, rng.randrange(1, 4))},
        excluded_count=rng.randrange(3),
        unknown={f"U{rng.randrange(4)}": rng.randrange(1, 3)},
        unknown_overflow=rng.randrange(2),
        template_total=rng.randrange(20, 40),
        malformed_total=rng.randrange(3),
        registry_fingerprint=fingerprint,
    )


def test_merge_identity_commutativity_associativity():
    rng = random.Random(7)
    empty = CountTable.empty("fp")
    for _ in range(50):
        a = _random_table(rng, "fp")
        b = _random_table(rng, "fp")
        c = _random_table(rng, "fp")
        assert merge(a, empty) == a
        assert merge(empty, a) == a
        assert merge(a, b) == merge(b, a)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))


def test_merge_fingerprint_mismatch():
    with pytest.raises(RegistryMismatchError):
        merge(CountTable.empty("a"), CountTable.empty("b"))


def test_partition_conservation_small(starter_registry):
    rng = random.Random(3)
    pages = []
    for i in range(40):
        bits = []
        for _ in range(rng.randrange(4)):
            journal = rng.choice(["Nature", "Science", "Weird Journal", "NEJM"])
            bits.append("{{cite journal|journal=%s}}" % journal)
        if rng.random() < 0.2:
            bits.append("{{cite journal|journal=Gone")
        pages.append(WikiPage(f"P{i}", 0, " ".join(bits)))
    whole = tally_scans(map(scan_page, pages), starter_registry)
    for shard_count in (1, 2, 3, 5, 8):
        shards = [[] for _ in range(shard_count)]
        for p in pages:
            shards[rng.randrange(shard_count)].append(p)
        partial = [tally_scans(map(scan_page, s), starter_registry) for s in shards]
        rng.shuffle(partial)
        combined = CountTable.empty(starter_registry.fingerprint)
        for t in partial:
            combined = merge(combined, t)
        assert combined == whole


def test_tally_monotone_under_additional_records(starter_registry):
    rng = random.Random(13)
    pool = ["Nature", "Science", "Mystery Review", "BMJ", None]
    records = [record(rng.choice(pool)) for _ in range(60)]
    before = tally(records[:40], starter_registry)
    after = tally(records, starter_registry)
    for name, value in before.counts.items():
        assert after.counts[name] >= value
    for name, value in before.unknown.items():
        assert after.unknown[name] >= value
    assert after.excluded_count >= before.excluded_count
    assert after.template_total >= before.template_total


def test_tally_scans_collects_malformed(starter_registry):
    pages = [
        WikiPage("A", 0, "{{cite journal|journal=Nature}} {{cite journal|lost"),
        WikiPage("B", 0, "{{cite journal|journal=NEJM}}"),
        WikiPage("C", 0, "{{cite journal|lost {{cite journal|journal=Nature|also lost"),
    ]
    scans = [scan_page(p) for p in pages]
    table = tally_scans(iter(scans), starter_registry)
    assert type(table) is CountTable
    assert table.malformed_total == sum(scan.malformed for scan in scans) == 3
    records = [record for scan in scans for record in scan.records]
    assert table == tally(records, starter_registry, malformed_total=3)
    assert table.counts == {"Nature": 1, "New England Journal of Medicine": 1}
    journal_only = (scan_page(p, journal_only=True) for p in pages)
    assert tally_scans(journal_only, starter_registry) == table


def test_growth_report_series():
    def with_total(n):
        return CountTable(
            counts={},
            excluded_count=0,
            unknown={},
            unknown_overflow=0,
            template_total=n,
            malformed_total=0,
            registry_fingerprint="fp",
        )

    dated = [
        (date(2005, 2, 1), with_total(0)),
        (date(2006, 11, 1), with_total(19066)),
        (date(2007, 2, 1), with_total(24656)),
        (date(2007, 4, 2), with_total(30368)),
    ]
    assert growth_report(dated) == [
        (date(2005, 2, 1), 0),
        (date(2006, 11, 1), 19066),
        (date(2007, 2, 1), 24656),
        (date(2007, 4, 2), 30368),
    ]
    assert growth_report([dated[0]]) == [(date(2005, 2, 1), 0)]
    assert growth_report([]) == []


def test_growth_report_rejects_non_increasing():
    table = CountTable.empty("fp")
    with pytest.raises(ValueError, match="strictly increasing"):
        growth_report([(date(2007, 1, 1), table), (date(2007, 1, 1), table)])


def test_json_roundtrip(starter_registry):
    table = tally(
        [record("Nature"), record("Foo"), record(None), record("Physical Review")],
        starter_registry,
        malformed_total=2,
    )
    buffer = io.StringIO()
    write_counts_json(table, buffer)
    buffer.seek(0)
    assert read_counts_json(buffer) == table


_count_text = st.text(max_size=8) | st.text(
    st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\u00e9", "\u2028", "N", " "]),
    max_size=8,
)
_count_map = st.dictionaries(_count_text, st.integers(min_value=0, max_value=10**12), max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    counts=_count_map,
    unknown=_count_map,
    fingerprint=_count_text,
    small=st.tuples(*[st.integers(min_value=0, max_value=10**9)] * 4),
)
@example(counts={}, unknown={}, fingerprint="", small=(0, 0, 0, 0))
def test_write_counts_json_matches_indented_json_dump(counts, unknown, fingerprint, small):
    excluded, overflow, malformed, no_journal = small
    total = sum(counts.values()) + sum(unknown.values()) + excluded + overflow + no_journal
    table = CountTable(counts, excluded, unknown, overflow, total, malformed, fingerprint)
    buffer = io.StringIO()
    write_counts_json(table, buffer)
    expected = json.dumps(to_json_dict(table), indent=2, sort_keys=True, ensure_ascii=False)
    assert buffer.getvalue() == expected + "\n"


def test_json_rejects_bad_format():
    with pytest.raises(ValueError, match="not a"):
        from_json_dict({"format": "something-else"})


def test_json_rejects_corrupt_tallies():
    obj = to_json_dict(CountTable.empty("fp"))
    obj["counts"] = {"Nature": 5}
    with pytest.raises(ValueError, match="corrupt"):
        from_json_dict(obj)


@pytest.mark.parametrize("field", ["counts", "unknown"])
@pytest.mark.parametrize("value", [3.7, "12", -5, True, None])
def test_json_rejects_non_count_values(field, value):
    obj = to_json_dict(CountTable.empty("fp"))
    obj[field] = {"Nature": value}
    with pytest.raises(ValueError, match="corrupt"):
        from_json_dict(obj)


@pytest.mark.parametrize("field", ["counts", "unknown"])
def test_json_rejects_non_string_keys(field):
    obj = to_json_dict(CountTable.empty("fp"))
    obj["template_total"] = 1
    obj["no_journal_count"] = 0
    obj[field] = {7: 1}
    with pytest.raises(ValueError, match="not a string"):
        from_json_dict(obj)


@pytest.mark.parametrize(
    "field",
    ["template_total", "malformed_total", "excluded_count", "unknown_overflow", "no_journal_count"],
)
def test_json_rejects_non_count_scalars(field):
    obj = to_json_dict(CountTable.empty("fp"))
    obj[field] = "0"
    with pytest.raises(ValueError, match=field):
        from_json_dict(obj)


@pytest.mark.parametrize("stored", [999999, 0, 2, True, "1", None])
def test_json_rejects_stored_no_journal_count_mismatch(stored):
    obj = to_json_dict(CountTable.empty("fp"))
    obj["template_total"] = 1
    obj["no_journal_count"] = stored
    if stored is None:
        del obj["no_journal_count"]
    with pytest.raises(ValueError, match="no_journal_count"):
        from_json_dict(obj)


def test_counts_csv_sorted_by_count_then_name():
    table = CountTable(
        counts={"Beta": 2, "Alpha": 2, "Gamma": 9},
        excluded_count=0,
        unknown={},
        unknown_overflow=0,
        template_total=13,
        malformed_total=0,
        registry_fingerprint="fp",
    )
    buffer = io.StringIO()
    write_counts_csv(table, buffer)
    assert buffer.getvalue() == "journal,count\nGamma,9\nAlpha,2\nBeta,2\n"


def test_merge_matches_one_pass_only_within_the_unknown_cap(starter_registry):
    """Shards spill only past their own cap: A, B, C with a cap of 2 give
    2 unknown and 1 overflow in one pass, 3 and 0 merged from {A, B} and {C}.
    Every other field, and unknown plus overflow, still agree."""
    records = [record("A"), record("B"), record("C")]
    whole = tally(records, starter_registry, unknown_cap=2)
    merged = merge(
        tally(records[:2], starter_registry, unknown_cap=2),
        tally(records[2:], starter_registry, unknown_cap=2),
    )
    assert (whole.unknown, whole.unknown_overflow) == ({"A": 1, "B": 1}, 1)
    assert (merged.unknown, merged.unknown_overflow) == ({"A": 1, "B": 1, "C": 1}, 0)
    assert merged._replace(unknown=whole.unknown, unknown_overflow=1) == whole
    assert merge(
        tally(records[:2], starter_registry, unknown_cap=3),
        tally(records[2:], starter_registry, unknown_cap=3),
    ) == tally(records, starter_registry, unknown_cap=3)
