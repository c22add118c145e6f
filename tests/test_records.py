"""Every record type is a ``typing.NamedTuple``. Like the frozen
dataclasses it replaces, a record refuses to set a field or add one."""

import pytest

from wikicite.aggregate import CountTable
from wikicite.bibliometrics import (
    CorrelationResult,
    JcrRecord,
    JoinResult,
    JournalMetrics,
    _TauStats,
    _TieSums,
)
from wikicite.dump_reader import WikiPage
from wikicite.extractor import CitationRecord, PageScan
from wikicite.fixtures import build_corpus
from wikicite.registry import Resolution, ResolutionKind, parse_registry

_JCR = JcrRecord("Nature", 10, 1.5, 3)
_NO_TIES = _TieSums(0, 0, 0, 0)
_CORPUS = build_corpus(page_count=3, citations=4, nested=1, comment_decoys=1, malformed=1,
                       no_journal=1, seed=7)

_RECORDS = [
    WikiPage("T", 0, "text"),
    CitationRecord("T", "cite journal", {"journal": "Nature"}, "Nature", (0, 31)),
    PageScan([], 0, 0),
    CountTable.empty("0" * 64),
    Resolution(ResolutionKind.UNKNOWN, "Acta Synthetica"),
    parse_registry(["canonical\tNature"]),
    _JCR,
    JournalMetrics("Nature", 2, _JCR, 15.0),
    CorrelationResult("combined", 3, 1.0, 1.5, 0.13),
    JoinResult([], [], [], []),
    _TauStats(2, 1, _NO_TIES, _NO_TIES),
    _CORPUS.truth,
    _CORPUS,
]


@pytest.mark.parametrize("record", _RECORDS, ids=lambda record: type(record).__name__)
def test_record_fields_cannot_be_set_or_added(record):
    assert isinstance(record, tuple) and record._fields
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
