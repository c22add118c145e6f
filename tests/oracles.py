"""Independent oracles for the fast paths in ``wikicite``.

The rank-correlation oracles enumerate pairs and permutations, and count tie
groups, directly; they must stay independent of the Fenwick-tree walk they
check. The template-scan oracle tokenizes every brace, bracket, pipe and
equals sign with one regex and splits every template, as the scanner did
before it searched with ``str.find`` and split only ``cite journal`` spans.
The normalizer oracles collapse whitespace runs with a regex, as the
key and template-name normalizers did before they used ``str.split``.
The journal cleaner oracle always runs its three regexes, and the tally
oracle resolves every record's journal, as both did before they took
shortcuts for plain values and repeated strings. The masking oracle walks
the text one character at a time and hides whichever comment or nowiki
construct opens first, as MediaWiki's preprocessor reads them; it shares no
pattern with the masker's single regex pass. The dump-reader oracle reads
the document with ``xml.etree.ElementTree`` and takes each page's fields
from its element tree, not from a stream of parser events.
"""

from __future__ import annotations

import io
import itertools
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter

from wikicite.aggregate import CountTable
from wikicite.dump_reader import NAMESPACE_PREFIXES, WikiPage
from wikicite.extractor import (
    _QUOTE_MARKUP,
    _WIKILINK,
    TEMPLATE_NAME,
    CitationRecord,
    PageScan,
    normalize_template_name,
)
from wikicite.registry import ResolutionKind, normalize_key


_WS_RUN = re.compile(r"\s+")
_COMMENT = re.compile(r"<!--.*?(?:-->|\Z)", re.DOTALL)
# The characters that case-insensitive regex matching takes for each letter
# of "nowiki": for "i" also U+0130 (capital I with dot above) and U+0131
# (dotless small i), for "k" also U+212A (KELVIN SIGN).
_TAG_LETTERS = {
    "n": "nN",
    "o": "oO",
    "w": "wW",
    "i": "iI\u0130\u0131",
    "k": "kK\u212a",
}


def _nowiki_name_at(text: str, i: int) -> bool:
    """Whether ``text`` spells ``nowiki`` from ``i`` on, in any case."""
    name = text[i : i + 6]
    return len(name) == 6 and all(c in _TAG_LETTERS[letter] for c, letter in zip(name, "nowiki"))


def _skip_spaces(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


# What _hidden_end returns for a nowiki tag with no ">" after its name.
_NO_GT = -2


def _hidden_end(text: str, i: int, no_more_gt: bool) -> int:
    """Where the comment or nowiki construct starting at ``i`` ends, -1
    when none starts there, or ``_NO_GT`` for a nowiki tag that finds no
    ``>``. With ``no_more_gt``, set once a tag has found none, no nowiki tag
    is looked for: none after that one can find a ``>`` either."""
    n = len(text)
    if text[i] != "<":
        return -1
    if text[i + 1 : i + 4] == "!--":
        j = i + 4
        while j < n:
            if text[j : j + 3] == "-->":
                return j + 3
            j += 1
        return n
    if no_more_gt or not _nowiki_name_at(text, i + 1):
        return -1
    # The name ends at a space, "/>" or ">"; the tag runs on to the first
    # ">", and closes itself when a "/" comes right before it.
    j = i + 7
    if not (text[j : j + 1].isspace() or text[j : j + 2] == "/>" or text[j : j + 1] == ">"):
        return -1
    while j < n and text[j] != ">":
        j += 1  # attributes
    if j == n:
        return _NO_GT
    if text[j - 1] == "/":
        return j + 1  # self-closing
    j += 1
    while j < n:
        if text[j : j + 2] == "</" and _nowiki_name_at(text, j + 2):
            close = _skip_spaces(text, j + 8)
            if close < n and text[close] == ">":
                return close + 1
        j += 1
    return n


def mask_hidden_spans_by_walk(text: str) -> str:
    """Blank out comments and nowiki spans, preserving every offset, by
    walking the text one character at a time. Whichever construct opens
    first hides everything up to its end, so a nowiki tag inside a comment,
    or a comment opener inside a nowiki span, is text. As in MediaWiki's
    preprocessor (its ``noMoreGT``), a tag that finds no ``>`` stops the
    search for later ones, so the walk takes linear time on such tags."""
    out = []
    i = 0
    no_more_gt = False
    while i < len(text):
        end = _hidden_end(text, i, no_more_gt)
        no_more_gt = no_more_gt or end == _NO_GT
        if end < 0:
            out.append(text[i])
            i += 1
        else:
            out.append(" " * (end - i))
            i = end
    return "".join(out)


class _DoctypeRefused:
    """An ``ElementTree`` parser target that refuses a document type
    declaration, which ``iterparse`` would read and expand."""

    def doctype(self, name, pubid, system):
        raise ValueError(f"document type declaration {name!r}")

    def close(self) -> None:
        pass


def pages_by_etree(data: bytes) -> tuple[list[WikiPage], int]:
    """The pages of an export document, and how many were skipped for want
    of a title, read with ``ElementTree.iterparse``. Each ``page`` child of
    the root keeps the text of its ``title`` and ``ns`` children and the
    ``text`` of its last ``revision`` ("" where it has none); a page whose
    ``ns`` is missing or not an integer takes the namespace its title's
    prefix names. Each page is cleared once read. A document type
    declaration is a ValueError, found by a first pass of its own."""
    ET.XMLParser(target=_DoctypeRefused()).feed(data)
    pages: list[WikiPage] = []
    skipped = 0
    depth = 0
    for event, elem in ET.iterparse(io.BytesIO(data), events=("start", "end")):
        name = elem.tag.rpartition("}")[2]
        if event == "start":
            if depth == 0 and name != "mediawiki":
                raise ValueError(f"root element {name!r}")
            depth += 1
            continue
        depth -= 1
        if name != "page" or depth != 1:
            continue
        title = elem.findtext("{*}title")
        try:
            namespace = int(elem.findtext("{*}ns").strip())
        except (AttributeError, ValueError):
            prefix, colon, _ = (title or "").partition(":")
            namespace = NAMESPACE_PREFIXES.get(prefix, 0) if colon else 0
        revisions = elem.findall("{*}revision")
        text = revisions[-1].findtext("{*}text", "") if revisions else ""
        elem.clear()
        if title:
            pages.append(WikiPage(title, namespace, text))
        else:
            skipped += 1
    return pages, skipped


def normalize_key_by_regex(raw: str) -> str:
    key = _WS_RUN.sub(" ", raw.casefold().replace("&", " and ")).strip()
    while key.startswith("the "):
        key = key[4:]
    return key.rstrip(" .")


def normalize_template_name_by_regex(name: str) -> str:
    name = _WS_RUN.sub(" ", name.replace("_", " ")).strip()
    if not name:
        return ""
    return name[0].lower() + name[1:]


def clean_journal_value_by_regex(value: str) -> str:
    value = _COMMENT.sub("", value)

    def link_text(match: re.Match) -> str:
        display = match.group(2)
        if display is not None and display.strip():
            return display
        return match.group(1)

    value = _WIKILINK.sub(link_text, value)
    value = _QUOTE_MARKUP.sub("", value)
    return value.strip()


def tally_resolving_each(records, registry, *, malformed_total=0, unknown_cap):
    """Count records per canonical journal, resolving every record's journal."""
    counts: dict[str, int] = {}
    unknown: dict[str, int] = {}
    excluded = 0
    overflow = 0
    total = 0
    for record in records:
        total += 1
        raw = record.journal_raw
        if raw is None:
            continue
        resolution = registry.resolve(raw)
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


def brute_pair_counts(x, y) -> tuple[int, int, int]:
    """(C - D, n0 - n1, n0 - n2) by walking every pair."""
    n = len(x)
    s = 0
    x_ties = 0
    y_ties = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            s += dx * dy
            if dx == 0:
                x_ties += 1
            if dy == 0:
                y_ties += 1
    return s, total - x_ties, total - y_ties


def brute_tau(x, y) -> float:
    s, dx, dy = brute_pair_counts(x, y)
    return s / math.sqrt(dx * dy)


def tie_sums(values) -> tuple[int, int, int, int]:
    """Sums of t(t-1)/2, t(t-1)(2t+5), t(t-1) and t(t-1)(t-2) over the tie
    groups of ``values``, t being a group's size."""
    sizes = Counter(values).values()
    return (
        sum(t * (t - 1) // 2 for t in sizes),
        sum(t * (t - 1) * (2 * t + 5) for t in sizes),
        sum(t * (t - 1) for t in sizes),
        sum(t * (t - 1) * (t - 2) for t in sizes),
    )


def brute_z(x, y) -> float:
    """Continuity-corrected normal score of C - D under the tie-corrected
    null variance."""
    s = brute_pair_counts(x, y)[0]
    n = len(x)
    _, tv, tv1, tv2 = tie_sums(x)
    _, uv, uv1, uv2 = tie_sums(y)
    variance = (n * (n - 1) * (2 * n + 5) - tv - uv) / 18
    if n > 2:
        variance += tv2 * uv2 / (9 * n * (n - 1) * (n - 2))
    variance += tv1 * uv1 / (2 * n * (n - 1))
    return math.copysign(max(abs(s) - 1, 0), s) / math.sqrt(variance) if s else 0.0


def exact_p_by_enumeration(x, y) -> float:
    """Two-sided permutation P-value: enumerate every ordering of y."""
    s_obs = brute_pair_counts(x, y)[0]
    hits = 0
    total = 0
    for perm in itertools.permutations(y):
        total += 1
        if abs(brute_pair_counts(x, perm)[0]) >= abs(s_obs):
            hits += 1
    return hits / total


def near_misses_by_pairs(unknown, registry, min_prefix=6):
    """Near-miss hints by comparing every unknown key with every registry key."""
    hits = []
    keys = sorted(registry.key_to_name)
    for raw in sorted(set(unknown)):
        raw_key = normalize_key(raw)
        if not raw_key:
            continue
        for key in keys:
            if key == raw_key:
                continue
            prefix = min(len(key), len(raw_key), min_prefix)
            if prefix >= min_prefix and key[:prefix] == raw_key[:prefix]:
                hits.append((raw, registry.key_to_name[key]))
    return hits


_BRACE_TOKENS = re.compile(r"\{\{|\}\}")
# Tokens relevant to parameter splitting: pipes are separators only outside
# nested templates and wiki links.
_PARAM_TOKENS = re.compile(r"\{\{|\}\}|\[\[|\]\]|\||=")


def template_spans_by_tokens(text: str) -> tuple[list[tuple[int, int]], int]:
    """All balanced ``{{...}}`` spans (nested ones included) plus the count
    of dangling opens left unclosed at the end of the text."""
    spans: list[tuple[int, int]] = []
    stack: list[int] = []
    for match in _BRACE_TOKENS.finditer(text):
        if match.group() == "{{":
            stack.append(match.start())
        elif stack:
            spans.append((stack.pop(), match.end()))
    spans.sort()
    return spans, len(stack)


def split_by_tokens(segment: str) -> list[tuple[int, int, int]]:
    """Split template innards at top-level pipes.

    Returns (start, end, eq) triples relative to ``segment``, where ``eq`` is
    the offset of the first top-level ``=`` inside the part, or -1. Pipes and
    equals inside nested ``{{...}}`` or ``[[...]]`` do not count.
    """
    parts: list[tuple[int, int, int]] = []
    brace = link = 0
    start = 0
    eq = -1
    for match in _PARAM_TOKENS.finditer(segment):
        token = match.group()
        if token == "|":
            if brace == 0 and link == 0:
                parts.append((start, match.start(), eq))
                start = match.end()
                eq = -1
        elif token == "=":
            if brace == 0 and link == 0 and eq < 0:
                eq = match.start()
        elif token == "{{":
            brace += 1
        elif token == "}}":
            brace = max(brace - 1, 0)
        elif token == "[[":
            link += 1
        else:
            link = max(link - 1, 0)
    parts.append((start, len(segment), eq))
    return parts


def scan_page_by_tokens(page: WikiPage) -> PageScan:
    """The page scan that splits every template before checking its name."""
    text = page.text
    masked = mask_hidden_spans_by_walk(text)
    spans, malformed = template_spans_by_tokens(masked)
    records: list[CitationRecord] = []
    duplicates = 0
    for start, end in spans:
        inner_start = start + 2
        inner_end = end - 2
        inner_masked = masked[inner_start:inner_end]
        parts = split_by_tokens(inner_masked)
        name_lo, name_hi, _ = parts[0]
        # Matching runs on the masked text so a comment inside the name
        # behaves as if removed; the stored raw name is as written.
        if normalize_template_name(inner_masked[name_lo:name_hi]) != TEMPLATE_NAME:
            continue
        name_raw = text[inner_start + name_lo : inner_start + name_hi]

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
            cleaned = clean_journal_value_by_regex(params["journal"])
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
