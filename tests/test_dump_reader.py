import io

import pytest

from wikicite.dump_reader import (
    DumpParseError,
    WikiPage,
    filter_namespaces,
    infer_namespace,
    open_dump,
)
from wikicite.fixtures import dump_xml, write_dump

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
