"""Independent oracles for the fast paths in ``wikicite``.

The rank-correlation oracles enumerate pairs and permutations, and count tie
groups, directly; they must stay independent of the Fenwick-tree walk they
check. The template-scan oracle tokenizes every brace, bracket, pipe and
equals sign with one regex and splits every template, as the scanner did
before it searched with ``str.find`` and split only ``cite journal`` spans.
The normalizer oracles collapse whitespace runs with a regex, as the
key and template-name normalizers did before they used ``str.split``.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter

from wikicite.dump_reader import WikiPage
from wikicite.extractor import (
    TEMPLATE_NAME,
    CitationRecord,
    PageScan,
    clean_journal_value,
    mask_hidden_spans,
    normalize_template_name,
)
from wikicite.registry import normalize_key


_WS_RUN = re.compile(r"\s+")


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
    masked = mask_hidden_spans(text)
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
