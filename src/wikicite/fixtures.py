"""Synthetic dumps with known ground truth, for tests and demos.

Corpus builders plan every planted citation up front, so the expected
per-journal table is known by construction rather than recomputed through
the code under test.
"""

from __future__ import annotations

import random
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .dump_reader import WikiPage

EXPORT_HEADER = (
    '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.3/" '
    'xml:lang="en">\n'
    "  <siteinfo>\n"
    "    <sitename>Synthetica</sitename>\n"
    "    <case>first-letter</case>\n"
    "  </siteinfo>\n"
)
EXPORT_FOOTER = "</mediawiki>\n"

# (journal text as written in the template, canonical name it must land on)
CANONICAL_VARIANTS: list[tuple[str, str]] = [
    ("Nature", "Nature"),
    ("nature", "Nature"),
    ("NATURE.", "Nature"),
    ("[[Nature (journal)|Nature]]", "Nature"),
    ("''Nature''", "Nature"),
    ("Science", "Science"),
    ("[[Science (journal)|Science]]", "Science"),
    ("New England Journal of Medicine", "New England Journal of Medicine"),
    ("NEJM", "New England Journal of Medicine"),
    ("New Engl J Med", "New England Journal of Medicine"),
    ("The Lancet", "The Lancet"),
    ("Lancet", "The Lancet"),
    ("[[The Lancet]]", "The Lancet"),
    ("Astronomy & Astrophysics", "Astronomy & Astrophysics"),
    ("Astronomy and Astrophysics", "Astronomy & Astrophysics"),
    ("The Astrophysical Journal", "The Astrophysical Journal"),
    ("Astrophysical Journal", "The Astrophysical Journal"),
    ("ApJ", "The Astrophysical Journal"),
    ("Icarus", "Icarus"),
    ("Icarus, International Journal of Solar System Studies", "Icarus"),
    ("The Astronomical Journal", "The Astronomical Journal"),
    ("JAMA", "JAMA"),
    ("Journal of the American Medical Association", "JAMA"),
    ("British Medical Journal", "British Medical Journal"),
    ("BMJ", "British Medical Journal"),
    ("Annals of Internal Medicine", "Annals of Internal Medicine"),
    ("Nuytsia", "Nuytsia"),
    ("Communications of the ACM", "Communications of the ACM"),
    ("Annual Review of Immunology", "Annual Review of Immunology"),
]

# (as written, canonical excluded name)
EXCLUDED_VARIANTS: list[tuple[str, str]] = [
    ("The New York Times", "The New York Times"),
    ("New York Times", "The New York Times"),
    ("Scientific American", "Scientific American"),
    ("Physical Review", "Physical Review"),
    ("Phys. Rev.", "Physical Review"),
]

UNKNOWN_VARIANTS: list[str] = [
    "Journal of Imaginary Results",
    "Acta Synthetica",
    "Bulletin of Phantom Studies",
    "Quarterly Gazette of Applied Tautology",
]

_TEMPLATE_NAME_STYLES = ("cite journal", "Cite journal", "cite_journal", "Cite_journal")

_FILLER_SENTENCES = (
    "The genus was first described in a regional flora survey. ",
    "Later field work revised the accepted circumscription considerably. ",
    "Population estimates rely on transect counts from two seasons. ",
    "The species epithet honours the collector of the type specimen. ",
    "Subsequent molecular work placed the clade closer to its sister group. ",
    "Several specimens are held in the national herbarium collection. ",
)

_NOISE_TEMPLATES = (
    "{{Taxobox|regnum=Plantae|genus=Banksia}}",
    "{{aut|Meisner, C.}}",
    "{{cite book|title=Flora Australiensis|year=1870}}",
    "{{convert|12|km|mi}}",
    "{{citation needed}}",
)

_AUTHOR_NAMES = ("Brown, R.", "Meisner, C.", "George, A.", "Thiele, K.", "Mast, A.")


class CorpusTruth(NamedTuple):
    """Planned outcome of scanning a generated corpus with the starter
    registry."""

    page_count: int
    citations_total: int
    nested_count: int
    decoy_count: int
    malformed_total: int
    no_journal_count: int
    expected_counts: dict[str, int]
    expected_excluded: int
    expected_unknown: dict[str, int]


class Corpus(NamedTuple):
    pages: list[WikiPage]
    truth: CorpusTruth


def _render_citation(
    rng: random.Random, journal_text: str | None, nested: bool
) -> str:
    name = rng.choice(_TEMPLATE_NAME_STYLES)
    params: list[str] = []
    if journal_text is not None:
        params.append(f"journal={journal_text}")
    params.append(f"title=Observed result {rng.randrange(1000)}")
    params.append(f"year={rng.randrange(1950, 2007)}")
    if nested:
        params.append("author={{aut|%s}}" % rng.choice(_AUTHOR_NAMES))
    elif rng.random() < 0.4:
        params.append(f"volume={rng.randrange(1, 300)}")
    style = rng.randrange(3)
    if style == 0:
        body = "{{%s|%s}}" % (name, "|".join(params))
    elif style == 1:
        body = "{{%s | %s }}" % (name, " | ".join(params))
    else:
        body = "{{%s\n | %s\n}}" % (name, "\n | ".join(params))
    if rng.random() < 0.5:
        return f"<ref>{body}</ref>"
    return body


def build_corpus(
    *,
    page_count: int = 500,
    citations: int = 1000,
    nested: int = 50,
    comment_decoys: int = 30,
    malformed: int = 20,
    no_journal: int = 30,
    seed: int = 20070402,
) -> Corpus:
    """Generate pages with a planned number of citation templates.

    ``citations`` counts real template instances (``nested`` of them carry a
    nested template in a parameter, ``no_journal`` of them lack a journal
    parameter). Comment-wrapped decoys and dangling-brace fragments are
    planted on top and must never produce records.
    """
    if nested + no_journal > citations:
        raise ValueError("nested and no_journal must fit inside citations")
    if malformed > page_count:
        raise ValueError("at most one dangling fragment per page")
    rng = random.Random(seed)

    expected_counts: dict[str, int] = {}
    expected_unknown: dict[str, int] = {}
    expected_excluded = 0

    # Per-page assembly buffers.
    chunks: list[list[str]] = [[] for _ in range(page_count)]
    for index in range(page_count):
        chunks[index].append(
            f"'''Article {index:04d}''' is a synthetic page. "
            + rng.choice(_FILLER_SENTENCES)
        )

    plain = citations - nested - no_journal
    kinds = ["nested"] * nested + ["no_journal"] * no_journal + ["plain"] * plain
    rng.shuffle(kinds)
    for kind in kinds:
        page_index = rng.randrange(page_count)
        journal_text: str | None = None
        if kind != "no_journal":
            bucket = rng.random()
            if bucket < 0.82:
                journal_text, canonical = rng.choice(CANONICAL_VARIANTS)
                expected_counts[canonical] = expected_counts.get(canonical, 0) + 1
            elif bucket < 0.92:
                journal_text, _ = rng.choice(EXCLUDED_VARIANTS)
                expected_excluded += 1
            else:
                journal_text = rng.choice(UNKNOWN_VARIANTS)
                expected_unknown[journal_text] = (
                    expected_unknown.get(journal_text, 0) + 1
                )
        chunks[page_index].append(
            _render_citation(rng, journal_text, nested=kind == "nested")
        )
        if rng.random() < 0.3:
            chunks[page_index].append(rng.choice(_FILLER_SENTENCES))
        if rng.random() < 0.15:
            chunks[page_index].append(rng.choice(_NOISE_TEMPLATES))

    for _ in range(comment_decoys):
        page_index = rng.randrange(page_count)
        chunks[page_index].append(
            "<!-- %s -->" % _render_citation(rng, "Decoy Journal", nested=False)
        )

    # Dangling fragments go last on distinct pages so each one stays open to
    # the end of its page text.
    for page_index in rng.sample(range(page_count), malformed):
        chunks[page_index].append(
            "{{cite journal|journal=Truncated Journal|title=cut off"
        )

    pages = []
    for index in range(page_count):
        pages.append(
            WikiPage(
                title=f"Article {index:04d}",
                namespace=0,
                text="\n\n".join(chunks[index]),
                revision_timestamp="2007-04-02T00:00:00Z",
            )
        )
    truth = CorpusTruth(
        page_count=page_count,
        citations_total=citations,
        nested_count=nested,
        decoy_count=comment_decoys,
        malformed_total=malformed,
        no_journal_count=no_journal,
        expected_counts=expected_counts,
        expected_excluded=expected_excluded,
        expected_unknown=expected_unknown,
    )
    return Corpus(pages=pages, truth=truth)


# XML writing --------------------------------------------------------


def _escape(text: str) -> str:
    """XML character-data escaping of ``&``, ``<`` and ``>``; ``&`` goes first
    so that the other two replacements are not escaped again."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def page_xml(page: WikiPage, include_ns: bool = True) -> str:
    parts = ["  <page>\n", f"    <title>{_escape(page.title)}</title>\n"]
    if include_ns:
        parts.append(f"    <ns>{page.namespace}</ns>\n")
    parts.append("    <revision>\n")
    if page.revision_timestamp:
        parts.append(
            f"      <timestamp>{_escape(page.revision_timestamp)}</timestamp>\n"
        )
    parts.append(f"      <text>{_escape(page.text)}</text>\n")
    parts.append("    </revision>\n  </page>\n")
    return "".join(parts)


def _dump_parts(pages: Iterable[WikiPage]) -> Iterator[str]:
    """An export document, piece by piece: header, one piece per page, footer."""
    yield EXPORT_HEADER
    yield from map(page_xml, pages)
    yield EXPORT_FOOTER


def dump_xml(pages: Iterable[WikiPage]) -> str:
    return "".join(_dump_parts(pages))


def write_dump(pages: Iterable[WikiPage], fp: IO[str]) -> None:
    """Stream the document to ``fp`` one page at a time."""
    fp.writelines(_dump_parts(pages))


# synthetic journal statistics ---------------------------------------


def synthetic_jcr_rows(
    journals: Sequence[str], seed: int = 7
) -> list[tuple[str, int, float, int]]:
    """Deterministic (journal, total_citations, impact_factor, articles)
    rows for demo correlations."""
    rng = random.Random(seed)
    rows = []
    for journal in sorted(journals):
        total = rng.randrange(2_000, 400_000)
        impact = round(rng.uniform(0.5, 50.0), 3)
        articles = rng.randrange(50, 5_000)
        rows.append((journal, total, impact, articles))
    return rows


# streaming source ---------------------------------------------------


class StreamingDumpSource:
    """Read-only byte stream that synthesizes an export dump lazily.

    Emits roughly ``target_bytes`` of XML without ever materializing the
    document; per-page content comes from a fixed citation pool, so the
    byte mix is independent of the requested size.
    """

    def __init__(self, target_bytes: int, *, seed: int = 0, page_kb: int = 128):
        self._target = target_bytes
        self._page_kb = page_kb
        self._rng = random.Random(seed)
        self.bytes_emitted = 0
        self.largest_page_bytes = 0
        self.pages_generated = 0
        self._buffer = bytearray()
        self._chunks = self._encoded_chunks()
        pool_rng = random.Random(seed + 1)
        self._citation_pool = [
            _render_citation(pool_rng, text, nested=(i % 7 == 0))
            for i, (text, _) in enumerate(CANONICAL_VARIANTS)
        ]
        self._filler = "".join(_FILLER_SENTENCES)

    def _next_page(self) -> bytes:
        rng = self._rng
        index = self.pages_generated
        self.pages_generated += 1
        # Every 37th page is four times larger; it defines the high-water
        # mark a bounded reader must tolerate.
        size = self._page_kb << (2 if index % 37 == 36 else 0)
        body_parts = [f"'''Bench Page {index}''' opens with prose. "]
        for _ in range(rng.randrange(3, 9)):
            body_parts.append(rng.choice(self._citation_pool))
            body_parts.append(" " + self._filler)
        body = "".join(body_parts)
        target_chars = size * 1024
        if len(body) < target_chars:
            repeats = (target_chars - len(body)) // len(self._filler) + 1
            body += self._filler * repeats
        page = WikiPage(
            title=f"Bench Page {index}",
            namespace=0,
            text=body,
            revision_timestamp="2007-04-02T00:00:00Z",
        )
        encoded = page_xml(page, include_ns=index % 3 != 0).encode("utf-8")
        if len(encoded) > self.largest_page_bytes:
            self.largest_page_bytes = len(encoded)
        return encoded

    def _encoded_chunks(self) -> Iterator[bytes]:
        """The header, pages until ``target_bytes`` of them, the footer."""
        yield EXPORT_HEADER.encode("utf-8")
        generated = 0
        while generated < self._target:
            page = self._next_page()
            generated += len(page)
            yield page
        yield EXPORT_FOOTER.encode("utf-8")

    def _fill(self, needed: int) -> None:
        while len(self._buffer) < needed and (chunk := next(self._chunks, b"")):
            self._buffer += chunk

    def read(self, n: int = -1) -> bytes:
        if n < 0:
            self._fill(1 << 62)
            n = len(self._buffer)
        else:
            self._fill(n)
        chunk = bytes(self._buffer[:n])
        del self._buffer[:n]
        self.bytes_emitted += len(chunk)
        return chunk

    def close(self) -> None:
        self._buffer.clear()
