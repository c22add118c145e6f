"""Seeded inputs for the pipeline benchmark, with their ground truth.

Every planted citation is decided before its text is written, so the
expected count table, the unknown map and the page tallies are known by
construction rather than recomputed through the code under test. Nothing
here imports ``wikicite``: a change to the package cannot change the
workload.

One call to :func:`generate` writes, into one directory:

- ``dump.xml``      a MediaWiki export dump
- ``registry.tsv``  a few thousand canonical journals, aliases, exclusions
- ``jcr.csv``       journal statistics for the journals ``correlate`` joins
- ``empty.jsonl``   an empty citations file for the start-up probe
- ``truth.json``    the expected outcome of scanning the dump
"""

from __future__ import annotations

import bisect
import csv
import itertools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

# Workload shapes ---------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """How one workload's dump looks.

    ``page_bytes`` is the typical page text size; every ``big_every``-th
    page is ``big_factor`` times larger. ``cites`` is the inclusive range of
    planted ``cite journal`` templates per page. ``joined`` is how many
    journals the statistics file shares with the count table, which sets the
    size of ``correlate``'s default sweep.
    """

    dump_bytes: int
    page_bytes: int
    big_every: int
    big_factor: int
    cites: tuple[int, int]
    joined: int
    journals: int = 3000


SHAPES = {
    # Per-byte work dominates: long prose pages with a handful of citations.
    "filler_128k": Shape(
        dump_bytes=40_000_000,
        page_bytes=128 * 1024,
        big_every=37,
        big_factor=4,
        cites=(4, 9),
        joined=300,
    ),
    # Per-template work dominates: short pages packed with citations.
    "dense_4k": Shape(
        dump_bytes=10_000_000,
        page_bytes=4 * 1024,
        big_every=0,
        big_factor=1,
        cites=(4, 9),
        joined=300,
    ),
}

# Vocabulary ----------------------------------------------------------------

_FIELDS = (
    "Botany Zoology Chemistry Physics Geology Ecology Genetics Medicine Surgery "
    "Oncology Neurology Cardiology Astronomy Mathematics Statistics Economics "
    "Linguistics Archaeology Anthropology Entomology Mycology Virology "
    "Immunology Pharmacology Toxicology Hydrology Meteorology Oceanography "
    "Paleontology Ornithology Ichthyology Herpetology Microbiology Biochemistry "
    "Biophysics Crystallography Metallurgy Robotics Acoustics Optics Photonics "
    "Nutrition Dermatology Psychiatry Psychology Sociology Demography Forestry "
    "Agronomy Horticulture Veterinary Dentistry Nursing Epidemiology Parasitology "
    "Glaciology Seismology Volcanology Limnology Cartography"
).split()
_ADJECTIVES = (
    "Applied Clinical Theoretical Experimental Molecular Comparative Tropical "
    "Marine Computational Environmental Structural Quantitative Historical "
    "Regional Physical Cellular Evolutionary Medical Agricultural Industrial "
    "Analytical Systematic Integrative Translational Developmental Planetary "
    "Polar Urban Rural Veterinary Pediatric Geriatric Nuclear Organic Inorganic "
    "Statistical Mathematical Ancient Modern Coastal"
).split()
_PLACES = (
    "European American British Nordic Asian African Australian Canadian Indian "
    "Chinese Japanese Brazilian Mexican Pacific Atlantic Baltic Iberian Alpine "
    "Scottish Irish Dutch Balkan Caribbean Andean Arctic"
).split()
_PATTERNS = (
    "Journal of {adj} {field}",
    "{place} Journal of {field}",
    "Annals of {adj} {field}",
    "{adj} {field} Letters",
    "{field} and {field2}",
    "The {place} {field} Review",
    "Acta {adj} {field}",
    "{place} {field} Quarterly",
    "Bulletin of {place} {field}",
    "Advances in {adj} {field}",
)
_WORDS = (
    "the of and in to a is was for on as with by that from at which it were "
    "species genus river valley station survey record population collection "
    "specimen region century council village church island harbour railway "
    "district school museum season expedition treaty battle festival market "
    "described published recorded observed located named founded measured "
    "northern southern eastern western early late large small several many "
    "first second third local national common rare ancient modern"
).split()
_TITLE_WORDS = (
    "Aster Banksia Corvid Delta Ember Fjord Granite Heron Iris Juniper Kestrel "
    "Lichen Marram Nettle Osprey Plover Quartz Rowan Sedge Tern Umber Vole "
    "Willow Yarrow Zircon"
).split()
_TEMPLATE_NAMES = ("cite journal", "Cite journal", "Cite_journal", "cite  journal", " Cite journal\n")
_JOURNAL_KEYS = ("journal", "journal", "journal", " journal ", "Journal")
_NOISE_TEMPLATES = (
    "{{convert|12|km|mi}}",
    "{{citation needed|date=May 2007}}",
    "{{cite book|title=Flora of the Region|year=1870|publisher=Kew}}",
    "{{Cite Journal|journal=Journal of Imagined Botany|year=1999}}",
    "{{lang|la|Quercus robur}}",
    "{{Taxobox|regnum=Plantae|genus=[[Banksia|B.]]|image=x.jpg}}",
    "{{main|History of the region}}",
)
NON_ARTICLE = ((1, "Talk"), (2, "User"), (4, "Wikipedia"), (10, "Template"), (14, "Category"))

_WS_RUN = re.compile(r"\s+")


def journal_key(name: str) -> str:
    """The documented registry lookup rule: case-folded, ``&`` read as
    ``and``, whitespace runs collapsed, leading "the " and trailing periods
    dropped. Used only to keep generated names from colliding."""
    key = _WS_RUN.sub(" ", name.casefold().replace("&", " and ")).strip()
    while key.startswith("the "):
        key = key[4:]
    return key.rstrip(" .")


def xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# Registry and journal statistics ---------------------------------------------


@dataclass
class Registry:
    canonical: list[str]  # includes excluded names, in Zipf rank order
    excluded: set[str]
    aliases: dict[str, list[str]]  # canonical name -> alias texts

    def tsv(self) -> str:
        lines = ["# generated benchmark registry"]
        for name in sorted(self.canonical):
            kind = "exclude" if name in self.excluded else "canonical"
            lines.append(f"{kind}\t{name}")
        for name in sorted(self.aliases):
            for alias in self.aliases[name]:
                lines.append(f"alias\t{alias}\t{name}")
        return "\n".join(lines) + "\n"


def _abbreviate(name: str) -> str:
    words = [w for w in name.split() if w.lower() not in ("of", "the", "in")]
    return " ".join(w if len(w) <= 4 else w[:4] + "." for w in words)


def build_registry(rng: random.Random, size: int) -> Registry:
    keys: dict[str, str] = {}
    names: list[str] = []
    while len(names) < size:
        field, field2 = rng.sample(_FIELDS, 2)
        name = rng.choice(_PATTERNS).format(
            adj=rng.choice(_ADJECTIVES), field=field, field2=field2, place=rng.choice(_PLACES)
        )
        key = journal_key(name)
        if key not in keys:
            keys[key] = name
            names.append(name)
    aliases: dict[str, list[str]] = {}
    for name in names:
        if rng.random() < 0.35:
            alias = _abbreviate(name)
            key = journal_key(alias)
            if key not in keys:
                keys[key] = name
                aliases[name] = [alias]
    excluded = set(rng.sample(names, size // 30))
    return Registry(canonical=names, excluded=excluded, aliases=aliases)


# Page planning ---------------------------------------------------------------


@dataclass
class Truth:
    """What scanning the article pages of the dump must produce."""

    counts: dict[str, int] = field(default_factory=dict)
    excluded_count: int = 0
    unknown: dict[str, int] = field(default_factory=dict)
    template_total: int = 0
    no_journal_count: int = 0
    malformed_total: int = 0
    duplicate_params: int = 0
    pages_seen: int = 0
    pages_skipped: int = 0
    pages_scanned: int = 0
    pages_filtered: int = 0

    def add(self, other: "Truth") -> None:
        for name, value in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value
        for raw, value in other.unknown.items():
            self.unknown[raw] = self.unknown.get(raw, 0) + value
        self.excluded_count += other.excluded_count
        self.template_total += other.template_total
        self.no_journal_count += other.no_journal_count
        self.malformed_total += other.malformed_total
        self.duplicate_params += other.duplicate_params


class Planner:
    """Renders wikitext while recording the outcome of every template."""

    def __init__(self, rng: random.Random, registry: Registry, prose: str):
        self.rng = rng
        self.registry = registry
        self.prose = prose
        weights = [1.0 / (rank + 1) ** 1.05 for rank in range(len(registry.canonical))]
        self.cum_weights = list(itertools.accumulate(weights))
        self.unknown_serial = itertools.count(1)

    def _zipf_journal(self) -> str:
        point = self.rng.random() * self.cum_weights[-1]
        return self.registry.canonical[bisect.bisect_right(self.cum_weights, point)]

    def _journal_text(self, name: str) -> str:
        """A spelling of ``name`` that cleans and normalizes back to it."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.40:
            return name
        if roll < 0.45:
            return name.lower()
        if roll < 0.48:
            return name.upper()
        if roll < 0.52:
            return name[4:] if name.startswith("The ") else "The " + name
        if roll < 0.56:
            return name + "."
        if roll < 0.59 and " and " in name:
            return name.replace(" and ", " & ")
        if roll < 0.62:
            return name.replace(" ", "  ")
        if roll < 0.74 and name in self.registry.aliases:
            return rng.choice(self.registry.aliases[name])
        if roll < 0.80:
            return f"[[{name}]]"
        if roll < 0.86:
            return f"[[{name} (journal)|{name}]]"
        if roll < 0.94:
            return f"''{name}''"
        return name + "<!-- sic -->"

    def _unknown(self) -> str:
        """A journal string no registry entry matches: it carries a digit,
        and generated registry names never do."""
        serial = next(self.unknown_serial)
        return f"Unindexed {self.rng.choice(_TITLE_WORDS)} Bulletin {serial}"

    def cite(self, truth: Truth) -> str:
        """One ``cite journal`` template, its outcome added to ``truth``."""
        rng = self.rng
        truth.template_total += 1
        roll = rng.random()
        if roll < 0.70:
            name = self._zipf_journal()
            journal = self._journal_text(name)
            if name in self.registry.excluded:
                truth.excluded_count += 1
            else:
                truth.counts[name] = truth.counts.get(name, 0) + 1
        elif roll < 0.90:
            raw = self._unknown()
            journal = f"[[{raw}]]" if rng.random() < 0.1 else raw
            truth.unknown[raw] = truth.unknown.get(raw, 0) + 1
        else:
            truth.no_journal_count += 1
            journal = rng.choice((None, None, "", "<!-- to do -->"))

        title_word = rng.choice(_TITLE_WORDS)
        title = rng.choice(
            (
                f"Notes on {title_word}",
                f"The {{{{lang|la|{title_word.lower()}}}}} complex revisited",
                f"A survey of [[{title_word}|{title_word.lower()}s]] in the north",
                f"Ratios a=b in {title_word} populations",
            )
        )
        params = [
            f"author={rng.choice(_TITLE_WORDS)}, {rng.choice('ABCDEFGH')}.",
            f"title={title}",
            f"year={rng.randrange(1890, 2007)}",
            f"volume={rng.randrange(1, 300)}",
            f"pages={rng.randrange(1, 900)}",
        ]
        if journal is not None:
            params.insert(rng.randrange(len(params) + 1), f"{rng.choice(_JOURNAL_KEYS)}={journal}")
        if rng.random() < 0.03:
            params.append(f"year={rng.randrange(1890, 2007)}")
            truth.duplicate_params += 1
        if rng.random() < 0.05:
            params.insert(0, "Positional note")
        return "{{" + rng.choice(_TEMPLATE_NAMES) + "|" + "|".join(params) + "}}"

    def decoy(self) -> str:
        """Citation-looking text that must not count."""
        name = self._zipf_journal()
        inner = f"{{{{cite journal|journal={name}|year=2001}}}}"
        return self.rng.choice((f"<!-- {inner} -->", f"<nowiki>{inner}</nowiki>"))

    def prose_slice(self, size: int) -> str:
        start = self.rng.randrange(len(self.prose) - size)
        return self.prose[start : start + size]

    def page_text(self, shape: Shape, size: int, truth: Truth) -> str:
        """Wikitext of roughly ``size`` characters; outcomes go to ``truth``."""
        rng = self.rng
        pieces = []
        if rng.random() < 0.02:
            # A stray close; as the first piece nothing is open yet, so it is ignored.
            pieces.append("}} ")
        for _ in range(rng.randint(*shape.cites)):
            roll = rng.random()
            if roll < 0.80:
                pieces.append(f"<ref>{self.cite(truth)}</ref>")
            elif roll < 0.95:
                pieces.append(f"{{{{Infobox journal|ref={self.cite(truth)}|name=x}}}}")
            else:
                pieces.append(f'<ref name="r{rng.randrange(99)}">{self.cite(truth)}</ref>')
        for _ in range(rng.randint(1, 3)):
            pieces.append(rng.choice(_NOISE_TEMPLATES))
        if rng.random() < 0.3:
            pieces.append(self.decoy())
        planted = sum(len(p) for p in pieces)
        filler = max(size - planted, 200)
        cuts = sorted(rng.randrange(filler) for _ in range(len(pieces)))
        prose = self.prose_slice(filler)
        text = []
        previous = 0
        for cut, piece in zip(cuts, pieces):
            text.append(prose[previous:cut])
            text.append(" ")
            text.append(piece)
            text.append(" ")
            previous = cut
        text.append(prose[previous:])
        if rng.random() < 0.03:
            text.append(" {{unclosed")  # dangling open: one malformed template
            truth.malformed_total += 1
        return "".join(text)


def _prose_pool(rng: random.Random, size: int) -> str:
    """Plain prose with wiki links, bold and line breaks, but no template
    or comment syntax, so any slice of it plants nothing."""
    parts: list[str] = []
    total = 0
    while total < size:
        roll = rng.random()
        if roll < 0.03:
            word = f"[[{rng.choice(_TITLE_WORDS)} {rng.choice(_WORDS)}]]"
        elif roll < 0.05:
            word = f"'''{rng.choice(_TITLE_WORDS)}'''"
        elif roll < 0.055:
            word = "<br />"
        elif roll < 0.07:
            word = rng.choice(_WORDS) + ".\n"
        else:
            word = rng.choice(_WORDS)
        parts.append(word)
        total += len(word) + 1
    return " ".join(parts)


# Top level -------------------------------------------------------------------

_HEADER = (
    '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" xml:lang="en">\n'
    "  <siteinfo>\n    <sitename>Benchpedia</sitename>\n  </siteinfo>\n"
)


def _page_xml(title: str | None, ns: int | None, revisions: list[str]) -> str:
    parts = ["  <page>\n"]
    if title is not None:
        parts.append(f"    <title>{xml_escape(title)}</title>\n")
    if ns is not None:
        parts.append(f"    <ns>{ns}</ns>\n")
    for index, text in enumerate(revisions):
        parts.append(
            f"    <revision>\n      <timestamp>2007-0{index + 1}-02T00:00:00Z</timestamp>\n"
            f"      <text xml:space=\"preserve\">{xml_escape(text)}</text>\n    </revision>\n"
        )
    parts.append("  </page>\n")
    return "".join(parts)


def _write_dump(path: Path, rng: random.Random, planner: Planner, shape: Shape) -> Truth:
    truth = Truth()
    written = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(_HEADER)
        # A page without a title: the reader skips it.
        fp.write(_page_xml(None, 0, ["{{cite journal|journal=Skipped}}"]))
        truth.pages_seen += 1
        truth.pages_skipped += 1
        for index in itertools.count(1):
            if written >= shape.dump_bytes:
                break
            size = shape.page_bytes
            if shape.big_every and index % shape.big_every == 0:
                size *= shape.big_factor
            size = int(size * rng.uniform(0.9, 1.1))
            page_truth = Truth()
            text = planner.page_text(shape, size, page_truth)
            revisions = [text]
            if rng.random() < 0.02:
                # An older revision: only the last one in document order counts.
                revisions.insert(0, planner.page_text(shape, 600, Truth()))
            title = f"{rng.choice(_TITLE_WORDS)} {rng.choice(_WORDS)} {index}"
            ns: int | None = 0
            if rng.random() < 0.05:
                ns, prefix = rng.choice(NON_ARTICLE)
                title = f"{prefix}:{title}"
            keep = ns == 0
            if rng.random() < 0.1:
                ns = None  # old dumps lack <ns>; the title prefix decides
            xml = _page_xml(title, ns, revisions)
            fp.write(xml)
            written += len(xml)
            truth.pages_seen += 1
            if keep:
                truth.pages_scanned += 1
                truth.add(page_truth)
            else:
                truth.pages_filtered += 1
        fp.write("</mediawiki>\n")
    return truth


def _write_jcr(path: Path, rng: random.Random, registry: Registry, truth: Truth, joined: int) -> list:
    """Statistics rows for ``joined`` counted journals plus rows that must
    not join (unknown, excluded, or never cited). Returns the joined rows as
    (journal, wiki_count, total_citations, impact_factor, articles)."""
    cited = sorted(truth.counts)
    uncited = [n for n in registry.canonical if n not in truth.counts and n not in registry.excluded]
    while True:
        rows = []
        joined_rows = []
        for name in sorted(rng.sample(cited, min(joined, len(cited)))):
            wiki = truth.counts[name]
            total = int(wiki ** 0.5 * rng.uniform(2_000, 40_000))
            impact = round(rng.uniform(0.5, 50.0), 3)
            articles = rng.randrange(50, 5_000)
            written = name
            if name in registry.aliases and rng.random() < 0.2:
                written = registry.aliases[name][0]
            rows.append((written, total, impact, articles))
            joined_rows.append((name, wiki, total, impact, articles))
        joined_rows.sort(key=lambda row: (-row[1], row[0]))
        # The sweep starts at the two most cited journals; a tie there in any
        # list leaves tau undefined and correlate would exit 3.
        first, second = joined_rows[0], joined_rows[1]
        if all(a != b for a, b in zip(first[1:], second[1:])) and first[2] * first[3] != second[2] * second[3]:
            break
    extras = [f"Unindexed Review {i}" for i in range(1, 6)]
    extras += rng.sample(sorted(registry.excluded), 3)
    extras += rng.sample(uncited, min(5, len(uncited)))
    for name in extras:
        rows.append((name, rng.randrange(2_000, 400_000), round(rng.uniform(0.5, 50.0), 3), rng.randrange(50, 5_000)))
    rng.shuffle(rows)
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["journal", "total_citations", "impact_factor", "articles"])
        for written, total, impact, articles in rows:
            writer.writerow([written, total, repr(impact), articles])
    return joined_rows


def generate(out_dir: Path, workload: str, seed: int, shape: Shape | None = None) -> dict:
    """Write one workload's inputs and return its ground truth. ``shape``
    overrides the workload's own, for small test inputs."""
    shape = shape or SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = build_registry(rng, shape.journals)
    (out_dir / "registry.tsv").write_text(registry.tsv(), encoding="utf-8")
    (out_dir / "empty.jsonl").write_text("", encoding="utf-8")
    planner = Planner(rng, registry, _prose_pool(rng, max(4 * shape.page_bytes * shape.big_factor, 1 << 18)))
    dump = out_dir / "dump.xml"
    truth = _write_dump(dump, rng, planner, shape)
    joined = _write_jcr(out_dir / "jcr.csv", rng, registry, truth, shape.joined)
    result = {
        "workload": workload,
        "seed": seed,
        "dump_bytes": dump.stat().st_size,
        "pages_seen": truth.pages_seen,
        "pages_skipped": truth.pages_skipped,
        "pages_scanned": truth.pages_scanned,
        "pages_filtered": truth.pages_filtered,
        "template_total": truth.template_total,
        "malformed_total": truth.malformed_total,
        "duplicate_params": truth.duplicate_params,
        "excluded_count": truth.excluded_count,
        "no_journal_count": truth.no_journal_count,
        "unknown_overflow": 0,
        "counts": dict(sorted(truth.counts.items())),
        "unknown": dict(sorted(truth.unknown.items())),
        "joined": [list(row) for row in joined],
    }
    with open(out_dir / "truth.json", "w", encoding="utf-8") as fp:
        json.dump(result, fp, indent=1, sort_keys=True)
        fp.write("\n")
    return result
