import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicite.dump_reader import (
    DumpParseError,
    DumpReader,
    WikiPage,
    filter_namespaces,
    infer_namespace,
    open_dump,
)
from wikicite.fixtures import dump_xml, write_dump

from oracles import pages_by_etree

EXPORT_OPEN = '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.3/">'


def _dump_bytes(body: str) -> io.BytesIO:
    return io.BytesIO(f"{EXPORT_OPEN}{body}</mediawiki>".encode("utf-8"))


def test_empty_dump_yields_nothing():
    reader = open_dump(_dump_bytes("<siteinfo><sitename>x</sitename></siteinfo>"))
    assert list(reader) == []
    assert reader.pages_seen == 0


def test_three_pages_roundtrip(tmp_path):
    pages = [
        WikiPage("Alpha", 0, "first page text"),
        WikiPage("Beta", 0, "second page, with {{markup}} & <tags>"),
        WikiPage("Gamma", 0, ""),
    ]
    path = tmp_path / "dump.xml"
    with open(path, "w", encoding="utf-8") as fp:
        write_dump(pages, fp)
    parsed = list(open_dump(str(path)))
    assert parsed == pages


def test_namespace_inferred_when_ns_absent():
    body = """
      <page><title>Banksia</title><revision><text>t</text></revision></page>
      <page><title>Talk:Banksia</title><revision><text>t</text></revision></page>
      <page><title>Template:Cite</title><revision><text>t</text></revision></page>
      <page><title>Oddball: Not a namespace</title><revision><text>t</text></revision></page>
    """
    pages = list(open_dump(_dump_bytes(body)))
    assert [p.namespace for p in pages] == [0, 1, 10, 0]


def test_ns_element_wins_over_title_prefix():
    body = "<page><title>Talk:Banksia</title><ns>1</ns><revision><text>t</text></revision></page>"
    (page,) = open_dump(_dump_bytes(body))
    assert page.namespace == 1


@pytest.mark.parametrize(
    "title,expected",
    [
        ("Banksia", 0),
        ("Talk:X", 1),
        ("User talk:X", 3),
        ("Wikipedia:Sandbox", 4),
        ("Image:Photo.jpg", 6),
        ("Category:Plants", 14),
        ("Portal:Science", 100),
        ("Unknown prefix:X", 0),
    ],
)
def test_infer_namespace(title, expected):
    assert infer_namespace(title) == expected


def test_multiple_revisions_take_last_in_document_order():
    body = """
      <page><title>Alpha</title>
        <revision><timestamp>2006-01-01T00:00:00Z</timestamp><text>old</text></revision>
        <revision><timestamp>2007-01-01T00:00:00Z</timestamp><text>new</text></revision>
      </page>
    """
    (page,) = open_dump(_dump_bytes(body))
    assert page.text == "new"


def test_missing_title_is_skipped_and_tallied():
    body = """
      <page><title>Kept</title><revision><text>a</text></revision></page>
      <page><revision><text>skipped, no title</text></revision></page>
      <page><title>Also kept</title><revision><text>b</text></revision></page>
    """
    reader = open_dump(_dump_bytes(body))
    titles = [p.title for p in reader]
    assert titles == ["Kept", "Also kept"]
    assert reader.pages_skipped == 1
    assert reader.pages_seen == len(titles) + reader.pages_skipped == 3


def test_missing_text_element_yields_empty_text():
    body = "<page><title>NoText</title><revision><timestamp>2007-01-01T00:00:00Z</timestamp></revision></page>"
    (page,) = open_dump(_dump_bytes(body))
    assert page.text == ""


def test_malformed_xml_raises_with_position():
    stream = io.BytesIO(b"<mediawiki><page><title>X</title><oops></page></mediawiki>")
    with pytest.raises(DumpParseError) as excinfo:
        list(open_dump(stream))
    err = excinfo.value
    assert err.byte_offset > 0
    assert err.line >= 1
    assert "byte" in str(err)


def test_truncated_dump_raises():
    stream = io.BytesIO(b"<mediawiki><page><title>X</title>")
    with pytest.raises(DumpParseError):
        list(open_dump(stream))


def test_non_mediawiki_root_rejected():
    with pytest.raises(DumpParseError, match="root element"):
        list(open_dump(io.BytesIO(b"<html><body/></html>")))


# Five levels of ten references expand one citation into 10,000.
ENTITY_DUMP = (
    '<?xml version="1.0"?>\n<!DOCTYPE mediawiki [\n'
    '<!ENTITY e0 "{{cite journal|journal=Nature}}">\n'
    + "".join(f'<!ENTITY e{i} "{f"&e{i - 1};" * 10}">\n' for i in range(1, 5))
    + "]>\n<mediawiki><page><title>A</title><ns>0</ns>"
    "<revision><text>&e4;</text></revision></page></mediawiki>\n"
).encode("ascii")


@pytest.mark.parametrize(
    "data, line",
    [(ENTITY_DUMP, 2), (b"<!DOCTYPE mediawiki>\n<mediawiki></mediawiki>", 1)],
    ids=["entities", "bare"],
)
def test_document_type_declaration_refused(data, line):
    """MediaWiki exports carry no DTD: one that declares entities, or none,
    is refused at its line before any page is read, and by the oracle."""
    reader = open_dump(io.BytesIO(data))
    with pytest.raises(DumpParseError, match="document type declarations are refused") as excinfo:
        next(reader)
    assert excinfo.value.line == line
    assert f"line {line}, column " in str(excinfo.value)
    assert reader.pages_seen == 0
    with pytest.raises(ValueError, match="document type declaration 'mediawiki'"):
        pages_by_etree(data)


def test_document_order_preserved():
    pages = [WikiPage(f"Page {i:03d}", 0, f"text {i}") for i in range(25)]
    stream = io.BytesIO(dump_xml(pages).encode("utf-8"))
    assert [p.title for p in open_dump(stream)] == [p.title for p in pages]


def test_stream_consumed_exactly_once():
    reader = open_dump(
        _dump_bytes("<page><title>A</title><revision><text>t</text></revision></page>")
    )
    assert len(list(reader)) == 1
    assert list(reader) == []


def test_filter_namespaces_identity_and_empty():
    pages = [WikiPage("A", 0, ""), WikiPage("Talk:A", 1, ""), WikiPage("Category:A", 14, "")]
    assert list(filter_namespaces(iter(pages), {0, 1, 14})) == pages
    assert list(filter_namespaces(iter(pages), set())) == []
    assert [p.title for p in filter_namespaces(iter(pages), {0})] == ["A"]


def test_entities_unescaped_in_text():
    body = "<page><title>Amp</title><revision><text>A &amp; B &lt;ref&gt;</text></revision></page>"
    (page,) = open_dump(_dump_bytes(body))
    assert page.text == "A & B <ref>"


def test_namespace_prefixed_element_names():
    """An export written with a prefix on every element is read by local
    names, like the default-namespace form."""
    document = (
        '<mw:mediawiki xmlns:mw="http://www.mediawiki.org/xml/export-0.3/">'
        "<mw:page><mw:title>Banksia</mw:title><mw:ns>4</mw:ns>"
        "<mw:revision><mw:timestamp>2007-01-01T00:00:00Z</mw:timestamp>"
        "<mw:text>t</mw:text></mw:revision></mw:page>"
        "</mw:mediawiki>"
    )
    (page,) = open_dump(io.BytesIO(document.encode("utf-8")))
    assert page == WikiPage("Banksia", 4, "t")


def test_non_integer_ns_falls_back_to_the_title_prefix():
    body = (
        "<page><title>Talk:Banksia</title><ns>talk</ns><revision><text>t</text></revision></page>"
        "<page><title>Banksia</title><ns> </ns><revision><text>t</text></revision></page>"
    )
    assert [p.namespace for p in open_dump(_dump_bytes(body))] == [1, 0]


# generated dumps, checked against the ElementTree oracle -----------------

_TEXT_PIECES = [
    "{{cite journal|journal=Nature}}",
    "{{Cite journal |journal=[[Science (journal)|Science]]}}",
    "{{cite journal|journal=Zq Unknown}}",
    "{{cite journal|journal=Nature",
    "<!-- {{cite journal|journal=Comment Decoy}} -->",
    "<nowiki>{{cite journal|journal=Nowiki Decoy}}</nowiki>",
    "prose ",
    "a & b < c > d ",
    "\"quoted\" 'and' ",
    "Gödel – 日本 𝔑 ",
    "]]>",
    "<page>",
    "</text></revision></page>",
    "\n",
]
_TITLES = [
    None, "", "Alpha", "Talk:Alpha", "User:Beta", "Category:Gamma", "Gödel 𝔑", "x & y < z",
]
_NS = [None, "0", "1", "14", " 2 ", "x"]
# A commented-out page: its <page> is no page, wherever a range is cut.
_GHOST = (
    "<!-- <page><title>Ghost</title><revision><text>{{cite journal|journal=Ghost}}</text>"
    "</revision></page> -->\n"
)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _cdata(text: str) -> str:
    return "<![CDATA[" + text.replace("]]>", "]]]]><![CDATA[>") + "]]>"


@st.composite
def _text_elements(draw) -> str:
    """A revision's ``<text>``, written escaped, as CDATA, as both, or
    deleted; or no ``<text>`` at all."""
    text = "".join(draw(st.lists(st.sampled_from(_TEXT_PIECES), max_size=6)))
    form = draw(st.sampled_from(["escaped", "cdata", "mixed", "deleted", "missing"]))
    if form == "missing":
        return ""
    if form == "deleted":
        return '<text deleted="deleted"/>'
    half = len(text) // 2
    body = {
        "escaped": _escape(text),
        "cdata": _cdata(text),
        "mixed": _escape(text[:half]) + _cdata(text[half:]),
    }[form]
    return f'<text xml:space="preserve">{body}</text>'


@st.composite
def _pages(draw, index: int) -> str:
    title, ns = draw(st.sampled_from(_TITLES)), draw(st.sampled_from(_NS))
    parts = ["  <page>\n"]
    if title is not None:
        parts.append(f"    <title>{_escape(title)}</title>\n")
    if ns is not None:
        parts.append(f"    <ns>{ns}</ns>\n")
    parts.append(f"    <id>{index}</id>\n")
    for rev_id in range(draw(st.integers(0, 3))):
        parts.append(f"    <revision><id>{rev_id}</id>{draw(_text_elements())}</revision>\n")
    parts.append("  </page>\n")
    if draw(st.integers(0, 9)) == 0:
        parts.append(_GHOST)
    return "".join(parts)


@st.composite
def dumps(draw) -> bytes:
    """Small export documents of any schema version from 0.3 to 0.11: pages
    with or without a title or ``<ns>``, in several namespaces, with zero
    to three revisions, text escaped or in CDATA, cite, comment and nowiki
    decoys, and ``<page>`` in text and in XML comments."""
    version = draw(st.integers(3, 11))
    header = (
        f'<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.{version}/" xml:lang="en">\n'
        "  <siteinfo><sitename>Generated</sitename></siteinfo>\n"
    )
    pages = [draw(_pages(index)) for index in range(draw(st.integers(0, 8)))]
    return (header + "".join(pages) + "</mediawiki>\n").encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(dumps())
def test_reader_matches_the_etree_oracle(data):
    reader = DumpReader(io.BytesIO(data))
    assert (list(reader), reader.pages_skipped) == pages_by_etree(data)
