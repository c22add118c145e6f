"""Find ``cite journal`` template invocations in wikitext.

The scanner is nesting-aware: ``{{...}}`` inside a parameter value belongs to
the inner template, never to the boundary of the outer one. Text hidden in
HTML comments and ``<nowiki>`` spans is masked (replaced by spaces of the same
length) before scanning, so record spans always index into the original page
text. Spans are found by jumping between ``{{`` and ``}}`` with one-character
``str.find``, and only spans named ``cite journal`` are split into parameters.
A page's scan has two halves: finding its citations, the work per byte of
text, and parsing each citation found, the work per citation, which can run
in another process on the citations' text alone.
Counting needs only each citation's journal, so a journal-only scan finds the
``journal`` parameter directly and splits a span only when nesting leaves
that search unsure.
"""

from __future__ import annotations

import json
import re
from typing import IO, Iterable, Iterator, NamedTuple

from .dump_reader import WikiPage

TEMPLATE_NAME = "cite journal"

# Pipes and equals signs separate parts only outside nested templates and links.
_NEST_TOKENS = re.compile(r"\{\{|\}\}|\[\[|\]\]")
_COMMENT = re.compile(r"<!--.*?(?:-->|\Z)", re.DOTALL)
# A comment, a self-closing nowiki tag or a nowiki span, each open to the end.
# As in MediaWiki's preprocessor, a tag runs from its name to the first ``>``
# and closes itself when a ``/`` comes right before that ``>``. The
# attributes are read once, in a lookahead that never backtracks, so an
# opener with no ``>`` after it costs one pass over the rest of the page.
_HIDDEN = re.compile(
    _COMMENT.pattern
    + r"|<nowiki(?:(?=(\s[^>]*))\1)?(?:(?<=/)>|/>|>.*?(?:</nowiki\s*>|\Z))",
    re.IGNORECASE | re.DOTALL,
)
# Up to the end of the last parameter key that, stripped and lowercased, is
# ``journal``: the pipe before it, the key and the ``=`` after it. ``\s``
# matches exactly what ``str.strip`` strips, and no non-ASCII character
# matches or lowers into a letter of ``journal``, so this is exact on any text.
_LAST_JOURNAL_KEY = re.compile(r".*\|\s*journal\s*=", re.IGNORECASE | re.DOTALL)
# Nesting tokens that pair up in order: each opener is closed by the next token.
_PAIRED_TOKENS = re.compile(r"(?:\{\{\}\}|\[\[\]\])*")
_WIKILINK = re.compile(r"\[\[([^|\[\]]*)(?:\|([^\[\]]*))?\]\]")
_QUOTE_MARKUP = re.compile(r"'{2,}")


class CitationRecord(NamedTuple):
    """One ``cite journal`` invocation, parsed into its parameters.

    ``params`` preserves appearance order; a duplicated parameter name keeps
    its first position but the last value, per MediaWiki semantics.
    ``span`` is a half-open (start, end) offset pair into the page text:
    the slice starts with ``{{`` and ends with ``}}``.

    A named tuple, not a frozen dataclass: a dense page builds one per
    citation, and a tuple is built in one C call where a frozen dataclass
    sets each field through ``object.__setattr__``.
    """

    page_title: str
    template_name_raw: str
    params: dict[str, str]
    journal_raw: str | None
    span: tuple[int, int]


class JournalRecord(NamedTuple):
    """One ``cite journal`` invocation as counting sees it: the cleaned
    journal (None when absent or empty) and the span, with no parameter map.
    """

    journal_raw: str | None
    span: tuple[int, int]


class PageScan(NamedTuple):
    """All citations found on one page plus the per-page tallies.

    A journal-only scan holds :class:`JournalRecord` records and does not
    count duplicated parameters, so its ``duplicate_params`` is 0.
    """

    records: list[CitationRecord] | list[JournalRecord]
    malformed: int
    duplicate_params: int


def mask_hidden_spans(text: str) -> str:
    """Blank out comments and nowiki spans, preserving every offset.

    One regex pass takes the leftmost construct first, as MediaWiki's
    preprocessor does: a comment hides any nowiki tag inside it, and a nowiki
    span any comment opener. Either runs unclosed to the end of the text.

    A nowiki tag ends at a ``>``, so, by MediaWiki's ``noMoreGT`` rule, none
    opens past the last one: there only a comment opens, and runs to the end.
    Where a ``<`` follows the last ``>``, the regex runs only up to that
    ``>``, so that no opener there scans the rest of the text in vain, and a
    ``\\0`` put after it is blanked when a construct runs on past it."""
    head = text.rfind(">") + 1
    if text.find("<", head) < 0:
        return _HIDDEN.sub(_blank, text)
    masked = _HIDDEN.sub(_blank, text[:head] + "\0")
    tail = text[head:]
    if masked[-1] == " ":
        tail = " " * len(tail)
    elif (comment := tail.find("<!--")) >= 0:
        tail = tail[:comment] + " " * (len(tail) - comment)
    return masked[:-1] + tail


def _blank(match: re.Match) -> str:
    return " " * (match.end() - match.start())


def normalize_template_name(name: str) -> str:
    """Template-name equivalence: underscores are spaces, whitespace runs
    collapse, and only the first letter is case-insensitive."""
    name = " ".join(name.replace("_", " ").split())
    if not name:
        return ""
    return name[0].lower() + name[1:]


def find_template_spans(text: str) -> tuple[list[tuple[int, int]], int]:
    """All balanced ``{{...}}`` spans (nested ones included) plus the count
    of dangling opens left unclosed at the end of the text.

    Each ``{{`` and ``}}`` is found with a one-character ``str.find``. A
    brace with no second one after it hands over to the two-character
    search, so a lone brace never costs a loop iteration."""
    find = text.find
    startswith = text.startswith
    spans: list[tuple[int, int]] = []
    stack: list[int] = []
    pos = 0  # just past the last brace token taken
    opening = find("{")
    if opening >= 0 and not startswith("{{", opening):
        opening = find("{{", opening + 1)
    closing = -1  # a "}}" with nothing open is text, so search only when needed
    while stack or opening >= 0:
        if stack and closing < pos:
            closing = find("}", pos)
            if closing >= 0 and not startswith("}}", closing):
                closing = find("}}", closing + 1)
            if closing < 0:
                break
        if opening >= 0 and (not stack or opening < closing):
            stack.append(opening)
            pos = opening + 2
            opening = find("{", pos)
            if opening >= 0 and not startswith("{{", opening):
                opening = find("{{", opening + 1)
        else:
            pos = closing + 2
            spans.append((stack.pop(), pos))
    spans.sort()
    # The loop ends with the opening search run off the end, or with no "}}"
    # left, and then every "{{" from ``opening`` on is unclosed too.
    return spans, len(stack) + (text.count("{{", opening) if opening >= 0 else 0)


def _split_top_level(segment: str) -> list[tuple[int, int, int]]:
    """Split template innards at top-level pipes.

    Returns (start, end, eq) triples relative to ``segment``, where ``eq`` is
    the offset of the first top-level ``=`` inside the part, or -1. Pipes and
    equals inside nested ``{{...}}`` or ``[[...]]`` do not count.

    A segment with no ``{{`` and no ``[[`` never leaves depth 0 (a stray
    ``}}`` or ``]]`` clamps to 0), so every pipe splits it and each part's
    first ``=`` counts: it is split with ``str.split`` alone.
    """
    parts: list[tuple[int, int, int]] = []
    if "{{" not in segment and "[[" not in segment:
        start = 0
        for part in segment.split("|"):
            eq = part.find("=")
            end = start + len(part)
            parts.append((start, end, eq if eq < 0 else start + eq))
            start = end + 1
        return parts
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


def _link_text(match: re.Match) -> str:
    """A wiki link's display text, or its target when it has none."""
    display = match.group(2)
    if display is not None and display.strip():
        return display
    return match.group(1)


def clean_journal_value(value: str) -> str:
    """Reduce a raw journal value to plain text.

    Comments are dropped, a wiki link becomes its display text (or its target
    when no display text exists), and quote markup is stripped. A value with
    no ``<``, ``[`` or ``'`` holds none of these and is only stripped.
    """
    if "<" not in value and "[" not in value and "'" not in value:
        return value.strip()
    value = _COMMENT.sub("", value)
    value = _WIKILINK.sub(_link_text, value)
    value = _QUOTE_MARKUP.sub("", value)
    return value.strip()


def _params(
    inner: str, inner_masked: str, parts: list[tuple[int, int, int]]
) -> dict[str, str]:
    """The parameter map of template innards split into ``parts`` by
    :func:`_split_top_level`, the name part first. A key is stripped and
    lowercased, a part with no ``=`` is numbered from 1, values are
    stripped, and a repeated key keeps its first position but the last value."""
    params: dict[str, str] = {}
    positional = 0
    for part_lo, part_hi, eq in parts[1:]:
        if eq < 0:
            positional += 1
            params[str(positional)] = inner[part_lo:part_hi].strip()
        else:
            params[inner_masked[part_lo:eq].strip().lower()] = inner[eq + 1 : part_hi].strip()
    return params


def _journal_value(inner: str, inner_masked: str) -> str | None:
    """The ``journal`` value of :func:`_params`, mostly without a split.

    One regex pass finds the last ``|journal=`` key. Its pipe is top level
    when the innards hold no ``{{`` or ``[[``, or, when their nesting tokens
    pair up in order, when an even number of tokens come before it. Its
    value runs to the next pipe, unless a token starts before that pipe:
    then it runs to the end of the first part that :func:`_split_top_level`
    finds in the text after the key. Tokens that do not pair up and a
    nested last key take the full split."""
    key = _LAST_JOURNAL_KEY.match(inner_masked)
    if key is None:
        return None
    value_start = key.end()
    value_end = inner_masked.find("|", value_start)
    if value_end < 0:
        value_end = len(inner_masked)
    if "{{" in inner_masked or "[[" in inner_masked:
        if (
            not _PAIRED_TOKENS.fullmatch("".join(_NEST_TOKENS.findall(inner_masked)))
            or len(_NEST_TOKENS.findall(inner_masked, 0, value_start)) % 2
        ):
            return _params(inner, inner_masked, _split_top_level(inner_masked)).get("journal")
        if _NEST_TOKENS.search(inner_masked, value_start, value_end):
            value_end = value_start + _split_top_level(inner_masked[value_start:])[0][1]
    return inner[value_start:value_end].strip()


def find_citations(text: str) -> tuple[str, list[tuple[int, int]], int]:
    """The find half of :func:`scan_page`, all of its per-byte work: the
    masked text, the spans named ``cite journal`` in start order, and the
    count of dangling opens.

    A name is the text up to the first ``|``. A ``{{`` or ``[[`` in it keeps
    it from matching; without one, it is the first top-level part, as ``}}``
    and ``]]`` at depth 0 clamp to 0. A name is normalized only when it
    contains ``journal``. The test is exact: normalizing case-folds only the
    first letter, and ``_`` and whitespace never occur inside ``journal``."""
    masked = mask_hidden_spans(text)
    spans, malformed = find_template_spans(masked)
    citations = []
    for start, end in spans:
        inner_start = start + 2
        inner_end = end - 2
        name_end = masked.find("|", inner_start, inner_end)
        if name_end < 0:
            name_end = inner_end
        # Matching runs on the masked text so a comment inside the name
        # behaves as if removed.
        name = masked[inner_start:name_end]
        if "journal" in name and normalize_template_name(name) == TEMPLATE_NAME:
            citations.append((start, end))
    return masked, citations, malformed


def parse_citations(
    title: str, text: str, masked: str, citations: list[tuple[int, int]], base: int = 0
) -> tuple[list[CitationRecord], int]:
    """The parse half of :func:`scan_page`, its work per citation: each
    span in ``citations`` as a record, and the number of parameters that
    repeat a key. ``text`` and ``masked`` are the page text and its mask
    from page offset ``base`` on; the spans are page offsets."""
    records = []
    duplicates = 0
    for start, end in citations:
        inner_start = start - base + 2
        inner_end = end - base - 2
        inner = text[inner_start:inner_end]
        inner_masked = masked[inner_start:inner_end]
        parts = _split_top_level(inner_masked)
        params = _params(inner, inner_masked, parts)
        # Each part stores one key, so every part past the distinct keys repeats one.
        duplicates += len(parts) - 1 - len(params)
        journal_raw = None
        if "journal" in params:
            journal_raw = clean_journal_value(params["journal"]) or None
        # The name matched, so it holds no nesting token: the first part is
        # the text up to the first pipe, kept as written.
        name_raw = inner[: parts[0][1]].strip()
        records.append(CitationRecord(title, name_raw, params, journal_raw, (start, end)))
    return records, duplicates


def outermost_citations(
    citations: list[tuple[int, int]],
) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """Citation spans in start order, grouped as (start, end, members) under
    each outermost citation; its members are itself and every citation
    nested in it. Spans nest or are disjoint, so a span that starts inside
    the last outermost one lies inside it.

    Such a span's text masks on its own to the page mask's slice: its
    ``{{`` and ``}}`` were found on the masked page, so no hidden construct
    covers them, and every construct lies wholly inside or outside it."""
    groups: list[tuple[int, int, list[tuple[int, int]]]] = []
    for span in citations:
        if groups and span[0] < groups[-1][1]:
            groups[-1][2].append(span)
        else:
            groups.append((span[0], span[1], [span]))
    return groups


def scan_page(page: WikiPage, *, journal_only: bool = False) -> PageScan:
    """Scan one page for ``cite journal`` templates: the find half,
    :func:`find_citations`, then the parse half, :func:`parse_citations`.

    With ``journal_only``, the scan that counting needs, each citation
    becomes a :class:`JournalRecord`: its journal is found by
    :func:`_journal_value`, and the parameter map, the raw name and the
    duplicate tally are skipped. Spans, journals and the malformed count
    are those of the full scan."""
    text = page.text
    masked, citations, malformed = find_citations(text)
    if journal_only:
        journals: list[JournalRecord] = []
        for start, end in citations:
            value = _journal_value(text[start + 2 : end - 2], masked[start + 2 : end - 2])
            journal = None if value is None else clean_journal_value(value) or None
            journals.append(JournalRecord(journal, (start, end)))
        return PageScan(records=journals, malformed=malformed, duplicate_params=0)
    records, duplicates = parse_citations(page.title, text, masked, citations)
    return PageScan(records=records, malformed=malformed, duplicate_params=duplicates)


_RECORD_KEYS = {"page_title", "template_name_raw", "params", "journal_raw", "span"}
_STR_TYPE = frozenset({str})
_DECODE = json.JSONDecoder().raw_decode
# The C escaper that json.dumps applies to every string when ensure_ascii=False.
_encode = json.encoder.encode_basestring


def _json_lines(records: Iterable[CitationRecord]) -> list[str]:
    """Each record as ``json.dumps`` of its fields in order, with
    ``ensure_ascii=False``, plus a newline. Every string goes through json's
    own escaper, and a run of records from one page encodes its title once."""
    lines = []
    title = head = None
    for page_title, name, params, journal, (start, end) in records:
        if page_title != title:
            title = page_title
            head = '{"page_title": ' + _encode(title) + ', "template_name_raw": '
        fields = ", ".join([_encode(key) + ": " + _encode(value) for key, value in params.items()])
        journal_json = "null" if journal is None else _encode(journal)
        lines.append(
            f'{head}{_encode(name)}, "params": {{{fields}}}, '
            f'"journal_raw": {journal_json}, "span": [{start}, {end}]}}\n'
        )
    return lines


def write_jsonl(records: Iterable[CitationRecord], fp: IO[str]) -> int:
    """Write records as JSON lines, all in one ``fp.write``; returns the
    number written."""
    lines = _json_lines(records)
    if lines:
        fp.write("".join(lines))
    return len(lines)


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
    if type(params) is not dict or not set(map(type, params.values())) <= _STR_TYPE:
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
    not have written, one nested too deeply for json's recursive scanner
    included, raises ValueError naming the line.

    Each stripped line is decoded in one ``raw_decode`` call, which must
    consume all of it: that is ``json.loads`` without its whitespace scans.
    """
    for line_no, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = _DECODE(line)
            if end != len(line):
                raise ValueError(f"extra data at column {end + 1}")
            record = _record_from_json(obj)
        except (ValueError, RecursionError) as exc:  # json recurses once per nesting level
            raise ValueError(f"bad citation record on line {line_no}: {exc}") from None
        yield record
