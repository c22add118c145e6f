"""Find ``cite journal`` template invocations in wikitext.

The scanner is nesting-aware: ``{{...}}`` inside a parameter value belongs to
the inner template, never to the boundary of the outer one. Text hidden in
HTML comments and ``<nowiki>`` spans is masked (replaced by spaces of the same
length) before scanning, so record spans always index into the original page
text. Spans are found by jumping between ``{{`` and ``}}`` with ``str.find``,
and only spans named ``cite journal`` are split into parameters.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .dump_reader import WikiPage

TEMPLATE_NAME = "cite journal"

# Pipes and equals signs separate parts only outside nested templates and links.
_NEST_TOKENS = re.compile(r"\{\{|\}\}|\[\[|\]\]")
_COMMENT = re.compile(r"<!--.*?(?:-->|\Z)", re.DOTALL)
_NOWIKI = re.compile(
    r"<nowiki\s*/\s*>|<nowiki(?:\s[^>]*)?>.*?(?:</nowiki\s*>|\Z)",
    re.IGNORECASE | re.DOTALL,
)
_WIKILINK = re.compile(r"\[\[([^|\[\]]*)(?:\|([^\[\]]*))?\]\]")
_QUOTE_MARKUP = re.compile(r"'{2,}")


@dataclass(frozen=True)
class CitationRecord:
    """One ``cite journal`` invocation, parsed into its parameters.

    ``params`` preserves appearance order; a duplicated parameter name keeps
    its first position but the last value, per MediaWiki semantics.
    ``span`` is a half-open (start, end) offset pair into the page text:
    the slice starts with ``{{`` and ends with ``}}``.
    """

    page_title: str
    template_name_raw: str
    params: dict[str, str]
    journal_raw: str | None
    span: tuple[int, int]


@dataclass(frozen=True)
class PageScan:
    """All citations found on one page plus the per-page tallies."""

    records: list[CitationRecord]
    malformed: int
    duplicate_params: int


def mask_hidden_spans(text: str) -> str:
    """Blank out comments and nowiki spans, preserving every offset."""
    if "<" not in text:
        return text

    def blank(match: re.Match) -> str:
        return " " * (match.end() - match.start())

    text = _COMMENT.sub(blank, text)
    return _NOWIKI.sub(blank, text)


def normalize_template_name(name: str) -> str:
    """Template-name equivalence: underscores are spaces, whitespace runs
    collapse, and only the first letter is case-insensitive."""
    name = " ".join(name.replace("_", " ").split())
    if not name:
        return ""
    return name[0].lower() + name[1:]


def find_template_spans(text: str) -> tuple[list[tuple[int, int]], int]:
    """All balanced ``{{...}}`` spans (nested ones included) plus the count
    of dangling opens left unclosed at the end of the text."""
    spans: list[tuple[int, int]] = []
    stack: list[int] = []
    pos = 0  # just past the last brace token taken
    opening = text.find("{{")
    closing = -1  # a "}}" with nothing open is text, so search only when needed
    while stack or opening >= 0:
        if stack and closing < pos:
            closing = text.find("}}", pos)
            if closing < 0:
                break
        if opening >= 0 and (not stack or opening < closing):
            stack.append(opening)
            pos = opening + 2
            opening = text.find("{{", pos)
        else:
            pos = closing + 2
            spans.append((stack.pop(), pos))
    spans.sort()
    return spans, len(stack) + text.count("{{", pos)


def _split_top_level(segment: str) -> list[tuple[int, int, int]]:
    """Split template innards at top-level pipes.

    Returns (start, end, eq) triples relative to ``segment``, where ``eq`` is
    the offset of the first top-level ``=`` inside the part, or -1. Pipes and
    equals inside nested ``{{...}}`` or ``[[...]]`` do not count.
    """
    parts: list[tuple[int, int, int]] = []
    brace = link = 0
    start = lo = 0
    eq = -1
    for match in (*_NEST_TOKENS.finditer(segment), None):
        hi = match.start() if match else len(segment)
        # The text from lo to hi holds no nesting token; split it only at depth 0.
        while brace == 0 and link == 0:
            bar = segment.find("|", lo, hi)
            if eq < 0:
                eq = segment.find("=", lo, hi if bar < 0 else bar)
            if bar < 0:
                break
            parts.append((start, bar, eq))
            start = lo = bar + 1
            eq = -1
        if match:
            token = match.group()
            if token == "{{":
                brace += 1
            elif token == "}}":
                brace = max(brace - 1, 0)
            elif token == "[[":
                link += 1
            else:
                link = max(link - 1, 0)
            lo = match.end()
    parts.append((start, len(segment), eq))
    return parts


def clean_journal_value(value: str) -> str:
    """Reduce a raw journal value to plain text.

    Comments are dropped, a wiki link becomes its display text (or its target
    when no display text exists), and quote markup is stripped.
    """
    value = _COMMENT.sub("", value)

    def link_text(match: re.Match) -> str:
        display = match.group(2)
        if display is not None and display.strip():
            return display
        return match.group(1)

    value = _WIKILINK.sub(link_text, value)
    value = _QUOTE_MARKUP.sub("", value)
    return value.strip()


def scan_page(page: WikiPage) -> PageScan:
    """Scan one page for ``cite journal`` templates, splitting only spans
    whose name (the text up to the first ``|``) matches. A ``{{`` or ``[[``
    in the name keeps it from matching; without one, the name is the first
    top-level part, as ``}}`` and ``]]`` at depth 0 clamp to 0."""
    text = page.text
    masked = mask_hidden_spans(text)
    spans, malformed = find_template_spans(masked)
    records: list[CitationRecord] = []
    duplicates = 0
    for start, end in spans:
        inner_start = start + 2
        inner_end = end - 2
        name_end = masked.find("|", inner_start, inner_end)
        if name_end < 0:
            name_end = inner_end
        # Matching runs on the masked text so a comment inside the name
        # behaves as if removed; the stored raw name is as written.
        if normalize_template_name(masked[inner_start:name_end]) != TEMPLATE_NAME:
            continue
        name_raw = text[inner_start:name_end]
        inner_masked = masked[inner_start:inner_end]
        parts = _split_top_level(inner_masked)

        params: dict[str, str] = {}
        positional = 0
        for part_lo, part_hi, eq in parts[1:]:
            if eq >= 0:
                key = inner_masked[part_lo:eq].strip().lower()
                value = text[inner_start + eq + 1 : inner_start + part_hi]
            else:
                positional += 1
                key = str(positional)
                value = text[inner_start + part_lo : inner_start + part_hi]
            value = value.strip()
            if key in params:
                duplicates += 1
            params[key] = value

        journal_raw: str | None = None
        if "journal" in params:
            cleaned = clean_journal_value(params["journal"])
            if cleaned:
                journal_raw = cleaned

        records.append(
            CitationRecord(
                page_title=page.title,
                template_name_raw=name_raw.strip(),
                params=params,
                journal_raw=journal_raw,
                span=(start, end),
            )
        )
    return PageScan(records=records, malformed=malformed, duplicate_params=duplicates)


_RECORD_KEYS = {"page_title", "template_name_raw", "params", "journal_raw", "span"}
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def record_to_json(record: CitationRecord) -> str:
    """Serialize one record as a JSON object with fixed field order."""
    return _ENCODER.encode(
        {
            "page_title": record.page_title,
            "template_name_raw": record.template_name_raw,
            "params": record.params,
            "journal_raw": record.journal_raw,
            "span": list(record.span),
        }
    )


def write_jsonl(records: Iterable[CitationRecord], fp: IO[str]) -> int:
    """Write records as JSON lines; returns the number written."""
    count = 0
    for record in records:
        fp.write(record_to_json(record))
        fp.write("\n")
        count += 1
    return count


def _record_from_json(obj) -> CitationRecord:
    """The record a decoded line holds, or ValueError for anything
    :func:`write_jsonl` could not have written."""
    if type(obj) is not dict or obj.keys() != _RECORD_KEYS:
        raise ValueError(f"expected an object with keys {sorted(_RECORD_KEYS)}")
    page_title = obj["page_title"]
    template_name_raw = obj["template_name_raw"]
    params = obj["params"]
    journal_raw = obj["journal_raw"]
    span = obj["span"]
    if type(page_title) is not str or type(template_name_raw) is not str:
        raise ValueError("page_title and template_name_raw must be strings")
    # JSON object keys are always strings; only the values need a check
    if type(params) is not dict or not all(type(v) is str for v in params.values()):
        raise ValueError("params must map strings to strings")
    if journal_raw is not None and type(journal_raw) is not str:
        raise ValueError("journal_raw must be a string or null")
    if (
        type(span) is not list
        or len(span) != 2
        or type(span[0]) is not int
        or type(span[1]) is not int
        or not 0 <= span[0] < span[1]
    ):
        raise ValueError("span must be [start, end] with 0 <= start < end")
    return CitationRecord(page_title, template_name_raw, params, journal_raw, tuple(span))


def read_jsonl(fp: IO[str]) -> Iterator[CitationRecord]:
    """Parse records written by :func:`write_jsonl`; a line that it could
    not have written raises ValueError."""
    for line_no, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = _record_from_json(json.loads(line))
        except ValueError as exc:
            raise ValueError(f"bad citation record on line {line_no}: {exc}") from None
        yield record
