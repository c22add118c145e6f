import io
import json
import pickle
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wikicite import extractor
from wikicite.aggregate import tally_scans
from wikicite.dump_reader import WikiPage
from wikicite.extractor import (
    TEMPLATE_NAME,
    CitationRecord,
    JournalRecord,
    _split_top_level,
    clean_journal_value,
    find_template_spans,
    mask_hidden_spans,
    normalize_template_name,
    read_jsonl,
    scan_page,
    write_jsonl,
)

from oracles import (
    clean_journal_value_by_regex,
    mask_hidden_spans_by_walk,
    scan_page_by_tokens,
    split_by_tokens,
    template_spans_by_tokens,
)


def page(text: str, title: str = "Test") -> WikiPage:
    return WikiPage(title=title, namespace=0, text=text)


def jsonl_line(record: CitationRecord) -> str:
    """The line ``write_jsonl`` writes for ``record``, without its newline."""
    buffer = io.StringIO()
    write_jsonl([record], buffer)
    return buffer.getvalue()[:-1]


def test_basic_record():
    records = scan_page(page("{{cite journal | journal = Nature | title = X}}")).records
    assert len(records) == 1
    rec = records[0]
    assert rec.params == {"journal": "Nature", "title": "X"}
    assert rec.journal_raw == "Nature"
    assert rec.template_name_raw == "cite journal"
    assert rec.page_title == "Test"


def test_span_slices_to_braces():
    text = "before {{cite journal|journal=Nature}} after"
    (rec,) = scan_page(page(text)).records
    start, end = rec.span
    assert text[start:end].startswith("{{")
    assert text[start:end].endswith("}}")
    assert text[start:end] == "{{cite journal|journal=Nature}}"


def test_nested_template_kept_verbatim_in_value():
    (rec,) = scan_page(
        page("{{Cite journal|journal=Science|author={{aut|Smith}}}}")
    ).records
    assert rec.params["author"] == "{{aut|Smith}}"
    assert rec.params["journal"] == "Science"
    assert rec.template_name_raw == "Cite journal"


def test_no_templates():
    assert scan_page(page("text with no templates")).records == []


def test_comment_wrapped_template_ignored():
    assert scan_page(page("<!-- {{cite journal|journal=Fake}} -->")).records == []


def test_nowiki_span_ignored():
    assert scan_page(page("<nowiki>{{cite journal|journal=Fake}}</nowiki>")).records == []


@pytest.mark.parametrize(
    "text",
    [
        # the nowiki span opens first, so the comment opener inside it is text
        "<nowiki><!--</nowiki> {{cite journal|journal=Nature}} -->",
        "<nowiki> a <!-- </nowiki> --> {{cite journal|journal=Nature}}",
        # the comment opens first, so the nowiki tag inside it is hidden
        "<!-- <nowiki> --> {{cite journal|journal=Nature}} </nowiki>",
    ],
)
def test_first_opened_of_comment_and_nowiki_wins(text):
    assert [r.journal_raw for r in scan_page(page(text)).records] == ["Nature"]


@pytest.mark.parametrize(
    "text, journals",
    [
        # a "/" right before the tag's ">" closes it, attributes or not
        ('<nowiki a="1"/>{{cite journal|journal=Nature}}', ["Nature"]),
        ("<NOWIKI\t/>{{cite journal|journal=Nature}}", ["Nature"]),
        # a "/" with a space before the ">" does not, so the span runs on
        ("<nowiki / >{{cite journal|journal=Nature}}", []),
        ("<nowiki / >{{cite journal|journal=Hidden}}</nowiki>{{cite journal|journal=Nature}}", ["Nature"]),
    ],
)
def test_nowiki_closes_itself_as_mediawiki_reads_it(text, journals):
    for journal_only in (False, True):
        scan = scan_page(page(text), journal_only=journal_only)
        assert [r.journal_raw for r in scan.records] == journals
    assert mask_hidden_spans(text) == mask_hidden_spans_by_walk(text)


def test_unclosed_comment_hides_rest_of_page():
    text = "visible {{cite journal|journal=Nature}} <!-- {{cite journal|journal=Hidden}}"
    (rec,) = scan_page(page(text)).records
    assert rec.journal_raw == "Nature"


def test_comment_inside_value_stays_raw_but_journal_is_cleaned():
    (rec,) = scan_page(
        page("{{cite journal|journal=Nature<!--checked-->|title=T}}")
    ).records
    assert "<!--checked-->" in rec.params["journal"]
    assert rec.journal_raw == "Nature"


@pytest.mark.parametrize(
    "name", ["cite journal", "Cite journal", "cite_journal", "Cite_journal"]
)
def test_template_name_matches(name):
    assert len(scan_page(page("{{%s|journal=X}}" % name)).records) == 1


@pytest.mark.parametrize(
    "name", ["citejournal", "cite book", "CITE JOURNAL", "Cite Journal", "cite journals"]
)
def test_template_name_rejects(name):
    assert scan_page(page("{{%s|journal=X}}" % name)).records == []


def test_templates_inside_ref_found():
    (rec,) = scan_page(
        page("prose<ref>{{cite journal|journal=Nature|title=T}}</ref>more")
    ).records
    assert rec.journal_raw == "Nature"


def test_nested_citation_inside_other_template_found():
    records = scan_page(
        page("{{refbegin|refs={{cite journal|journal=Nature}}}}")
    ).records
    assert [r.journal_raw for r in records] == ["Nature"]


def test_duplicate_parameter_keeps_last_value_and_is_tallied():
    scan = scan_page(page("{{cite journal|journal=Nature|journal=Science}}"))
    assert scan.records[0].journal_raw == "Science"
    assert scan.duplicate_params == 1


def test_positional_parameters_are_numbered():
    (rec,) = scan_page(page("{{cite journal|Nature|second|journal=Icarus}}")).records
    assert rec.params == {"1": "Nature", "2": "second", "journal": "Icarus"}


def test_parameter_map_preserves_appearance_order():
    (rec,) = scan_page(
        page("{{cite journal|year=1999|journal=Nature|title=T|author=A}}")
    ).records
    assert list(rec.params) == ["year", "journal", "title", "author"]


def test_parameter_names_lowercased_and_stripped():
    (rec,) = scan_page(page("{{cite journal| Journal = Nature }}")).records
    assert "journal" in rec.params
    assert rec.journal_raw == "Nature"


def test_pipe_inside_wiki_link_does_not_split():
    (rec,) = scan_page(
        page("{{cite journal|journal=[[Nature (journal)|Nature]]|title=T}}")
    ).records
    assert rec.params["journal"] == "[[Nature (journal)|Nature]]"
    assert rec.journal_raw == "Nature"


@pytest.mark.parametrize(
    "value,expected",
    [
        ("[[Nature (journal)|Nature]]", "Nature"),
        ("[[The Lancet]]", "The Lancet"),
        ("''Nature''", "Nature"),
        ("'''[[Science (journal)|Science]]'''", "Science"),
        ("  Icarus  ", "Icarus"),
    ],
)
def test_journal_markup_reduction(value, expected):
    (rec,) = scan_page(page("{{cite journal|journal=%s}}" % value)).records
    assert rec.journal_raw == expected


@pytest.mark.parametrize("value", ["", "   ", "<!--only a comment-->", "''''"])
def test_effectively_empty_journal_means_absent(value):
    (rec,) = scan_page(page("{{cite journal|journal=%s|title=T}}" % value)).records
    assert rec.journal_raw is None


def test_dangling_template_discarded_and_tallied():
    scan = scan_page(page("{{cite journal|journal=Nature}} {{cite journal|journal=Lost"))
    assert [r.journal_raw for r in scan.records] == ["Nature"]
    assert scan.malformed == 1


def test_complete_template_after_dangling_open_still_found():
    scan = scan_page(page("{{cite journal|journal=Lost {{cite journal|journal=Found}}"))
    assert [r.journal_raw for r in scan.records] == ["Found"]
    assert scan.malformed == 1


def test_stray_closing_braces_are_plain_text():
    scan = scan_page(page("}} {{cite journal|journal=Nature}} }}"))
    assert len(scan.records) == 1
    assert scan.malformed == 0


def test_triple_braces_do_not_crash():
    scan = scan_page(page("{{{param}}} {{cite journal|journal=Nature}}"))
    assert [r.journal_raw for r in scan.records] == ["Nature"]


def test_concatenation_property():
    a = "x {{cite journal|journal=Nature}} y"
    b = "{{cite journal|journal=Science}} z"
    separate = scan_page(page(a, "A")).records + scan_page(page(b, "B")).records
    assert [r.journal_raw for r in separate] == ["Nature", "Science"]


def test_records_in_document_order():
    text = "{{cite journal|journal=A1}} .. {{cite journal|journal=B2}} .. {{cite journal|journal=C3}}"
    records = scan_page(page(text)).records
    assert [r.journal_raw for r in records] == ["A1", "B2", "C3"]
    assert records[0].span[0] < records[1].span[0] < records[2].span[0]


def _reparse_full_slice(text: str, rec):
    """Re-extract the record's slice; return the record covering it all."""
    start, end = rec.span
    matches = [
        r
        for r in scan_page(page(text[start:end], "Test")).records
        if r.span == (0, end - start)
    ]
    assert len(matches) == 1
    return matches[0]


def test_span_fidelity_reparse():
    text = (
        "intro <!-- {{cite journal|journal=Decoy}} -->\n"
        "{{cite journal|journal=[[Nature (journal)|Nature]]|author={{aut|A}}|title=T<!--n-->}}\n"
        "tail {{cite journal|dangling"
    )
    records = scan_page(page(text)).records
    assert len(records) == 1
    for rec in records:
        re_rec = _reparse_full_slice(text, rec)
        assert re_rec.params == rec.params
        assert re_rec.journal_raw == rec.journal_raw
        assert re_rec.template_name_raw == rec.template_name_raw


def test_template_instances_empty_and_planted(starter_registry):
    def template_total(pages):
        return tally_scans(map(scan_page, pages), starter_registry).template_total

    assert template_total([]) == 0
    pages = [
        page("{{cite journal|journal=A}} {{cite journal|title=no journal}}", "P1"),
        page("{{cite journal|journal=B}} {{cite_journal|journal=C}} {{cite book|title=x}}", "P2"),
        page("<ref>{{Cite journal|journal=D}}</ref> {{cite journal|journal=E}} {{cite journal|journal=F}}", "P3"),
    ]
    assert template_total(pages) == 7


def test_jsonl_roundtrip_and_field_order():
    records = scan_page(
        page("{{cite journal|journal=Nature|title=T}} {{cite journal|title=only}}")
    ).records
    line = jsonl_line(records[0])
    keys = list(json.loads(line).keys())
    assert keys == ["page_title", "template_name_raw", "params", "journal_raw", "span"]

    buffer = io.StringIO()
    assert write_jsonl(records, buffer) == 2
    buffer.seek(0)
    assert list(read_jsonl(buffer)) == records


_GOOD_LINE = jsonl_line(
    scan_page(page("{{cite journal|journal=Nature|title=T}}")).records[0]
)


@pytest.mark.parametrize(
    "bad",
    [
        _GOOD_LINE + " x",
        _GOOD_LINE + _GOOD_LINE,
        _GOOD_LINE + ",",
        "[]",
        '"x"',
        "1",
        "\ufeff" + _GOOD_LINE,
        _GOOD_LINE.replace('"span": [', '"span": [NaN, '),
        _GOOD_LINE.replace('"title": "T"', '"title": 5'),
        _GOOD_LINE.replace('"title": "T"', '"title": null'),
        _GOOD_LINE.replace('"title": "T"', '"title": ["T"]'),
        _GOOD_LINE.replace('"title": "T"', '"title": {"t": "T"}'),
    ],
    ids=[
        "trailing-text", "two-objects", "trailing-comma", "array", "string", "number",
        "bom", "span-nan", "param-number", "param-null", "param-list", "param-object",
    ],
)
def test_read_jsonl_names_the_bad_line(bad):
    assert bad != _GOOD_LINE
    with pytest.raises(ValueError, match="bad citation record on line 2:"):
        list(read_jsonl(io.StringIO(f"{_GOOD_LINE}\n{bad}\n{_GOOD_LINE}\n")))


def test_pages_survive_pickle():
    """The ``count --jobs`` pool ships pages to its workers."""
    talk = WikiPage("Talk:T", 1, "{{cite journal|journal=Nature}}")
    for wiki_page in (page("text"), talk):
        assert pickle.loads(pickle.dumps(wiki_page)) == wiki_page


def test_records_and_scans_survive_pickle():
    """Full and journal-only scans and their records pickle as plain tuples;
    ``count --jobs`` ships journal-only scans back from its workers."""
    text = "{{cite journal|journal=Nature|title=T}} {{cite journal|x}}"
    for journal_only in (False, True):
        scan = scan_page(page(text), journal_only=journal_only)
        assert not hasattr(scan, "__dict__") and not hasattr(scan.records[0], "__dict__")
        assert pickle.loads(pickle.dumps(scan)) == scan
        for record in scan.records:
            assert type(pickle.loads(pickle.dumps(record))) is type(record)
            assert pickle.loads(pickle.dumps(record)) == record
    assert [type(r).__name__ for r in scan.records] == ["JournalRecord", "JournalRecord"]


_soup_tokens = st.sampled_from(
    [
        "{{cite journal|journal=Nature}}",
        "{{cite journal|journal=",
        "{{cite_journal | journal = The Lancet | title = T}}",
        "{{aut|X}}",
        "{{",
        "}}",
        "|",
        "=",
        "[[Link|text]]",
        "[[",
        "]]",
        "<!--",
        "-->",
        "<nowiki>",
        "</nowiki>",
        "<ref>",
        "</ref>",
        "plain prose ",
        "''italic''",
        "\n",
    ]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_soup_tokens, max_size=40))
def test_scanner_robust_on_wikitext_soup(tokens):
    text = "".join(tokens)
    source = page(text)
    scan = scan_page(source)
    assert scan.malformed >= 0
    for rec in scan.records:
        start, end = rec.span
        assert 0 <= start < end <= len(text)
        assert text[start:end].startswith("{{")
        assert text[start:end].endswith("}}")
        re_rec = _reparse_full_slice(text, rec)
        assert re_rec.params == rec.params
        assert re_rec.journal_raw == rec.journal_raw
    # determinism
    assert scan_page(source) == scan


# Differential checks against the split-every-template oracle. The fragments
# cover nesting, pipes and equals signs inside links and nested templates, an
# unclosed link inside a nested template, brace and bracket runs of three and
# four, lone braces (which hand the brace search over to a pair search),
# stray closes, dangling opens, unclosed comments and nowiki, and name
# variants that must and must not match.
_scan_fragments = st.sampled_from(
    [
        "{{",
        "}}",
        "{{{",
        "}}}",
        "{{{{",
        "{",
        "}",
        "{x}",
        "a}b",
        "{ {",
        "} }",
        "[[",
        "]]",
        "[[[",
        "|",
        "=",
        "_",
        " ",
        "\u00a0",
        "\u3000",
        "\n",
        "cite",
        "journal",
        "cite journal",
        "Cite_journal",
        "Cite Journal",
        "{{cite journal|",
        "{{Cite_journal |",
        "{{cite\u00a0journal|",
        "{{Cite\u3000journal |",
        "{{Cite Journal|",
        "{{cite journal}}",
        "journal=",
        " journal = Nature ",
        "|title=",
        "{{lang|fr|Titre}}",
        "{{x|[[y}}",
        "[[Nature (journal)|Nature]]",
        "[[a=b|c=d]]",
        "{{{param|d=e}}}",
        "<!--",
        "-->",
        "<!-- {{cite journal|journal=Hidden}} -->",
        "<nowiki>",
        "</nowiki>",
        "<nowiki><!--",
        "--></nowiki>",
        "''",
        "Nature",
    ]
)
_scan_text = st.lists(_scan_fragments, max_size=30).map("".join)


@settings(max_examples=300, deadline=None)
@given(_scan_text)
@example("]]|a=b}}|c=d|e")
@example("x={{a|[[b}}|c=d]]|e")
@example("a{b {{c")
@example("{{x} {{y")
@example("{ {{{p}}} }")
@example("{{a} }}} {x{{{b}}}")
def test_span_search_and_split_match_token_oracle(text):
    assert find_template_spans(text) == template_spans_by_tokens(text)
    assert _split_top_level(text) == split_by_tokens(text)


def test_math_prose_with_lone_braces_scans_like_oracle():
    """About 125 KB of TeX with 10,200 lone braces and one citation: the
    brace search hands each lone brace over to a pair search."""
    prose = "Let <math>\\frac{a_{i}}{b^{2}}</math> be bounded. " * 1275
    text = prose + "{{cite journal|journal=Nature|title=T}} " + prose
    lone = sum(
        1 for i, c in enumerate(text) if c in "{}" and c not in (text[i - 1], text[i + 1 : i + 2])
    )
    assert len(text) == 124_990 and lone == 10_200
    source = page(text)
    scan = scan_page(source)
    assert [r.journal_raw for r in scan.records] == ["Nature"]
    assert scan == scan_page_by_tokens(source)
    assert find_template_spans(text) == template_spans_by_tokens(text)


# Comments, nowiki tags in every form the masker accepts, near misses (a
# longer tag name, an unterminated close, a split tag), the KELVIN SIGN, the
# dotted capital I and the dotless i that case-insensitive matching takes for
# "k" and "i", nesting each way, and filler.
_mask_fragments = st.sampled_from(
    [
        "<!--",
        "-->",
        "<!-->",
        "<!---->",
        "<nowiki>",
        "</nowiki>",
        "</NOWIKI >",
        '<NoWiki a="1">',
        "<nowiki/>",
        "<nowiki />",
        '<nowiki a="1"/>',
        "<nowiki / >",
        "<nowiki/ >",
        "<nowiki ",
        "<nowikix>",
        "</nowiki",
        "<now",
        "iki>",
        "<nowi\u212ai>",
        "<NOW\u0130K\u0131>",
        "<nowiki>a<!-- b -->c</nowiki>",
        "<!-- a<nowiki>b -->",
        "<",
        ">",
        "/",
        " ",
        "-",
        "{{",
        "}}",
        "{",
        "}",
        "\n",
        "x",
    ]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_mask_fragments, max_size=30).map("".join))
@example("<nowiki><!--</nowiki> {{x}} -->")
@example("<!-- <nowiki> --> {{x}} </nowiki>")
@example("</nowiki<!-- -->> <nowiki/<!-- -->>")
@example("<nowi\u212ai>{{x}}")
@example('<nowiki a="1"/>{{x}} <nowiki / >{{y}}')
def test_mask_matches_walk_oracle(text):
    assert mask_hidden_spans(text) == mask_hidden_spans_by_walk(text)


@pytest.mark.parametrize(
    "text",
    [
        "<nowiki " * 8192,
        "<nowiki>a</nowiki> " + "<nowiki " * 8192 + "<!-- c",
        "<!-- a > " + "<nowiki " * 8192,
        "<nowiki>a > " + "<nowiki " * 8192,
        "<nowiki a>" + "<nowiki " * 8192,
    ],
    ids=["openers", "comment-after", "open-comment", "open-nowiki", "closed-first"],
)
def test_openers_with_no_closing_bracket_mask_in_linear_time(text):
    """As MediaWiki's ``noMoreGT`` rule has it, once one nowiki opener finds
    no ``>``, no later one looks again: 64 KB of such openers mask in one
    pass over the text, not one per opener."""
    start = time.perf_counter()
    masked = mask_hidden_spans(text)
    assert time.perf_counter() - start < 0.25
    assert masked == mask_hidden_spans_by_walk(text)


# Non-ASCII text for the journal-only scan's key search: letters that look
# like, fold like or lower near ``journal`` (Kelvin sign, long s, dotted I,
# fullwidth and accented forms), and whitespace that ``str.strip`` strips
# (NEL, line separator, no-break and ideographic space).
_non_ascii_fragments = st.sampled_from(
    [
        "\u00c5rsbok",
        "\u00e9",
        "\u212a",
        "\u017f",
        "\u0130",
        "\u0131",
        "\uff4a\uff4f\uff55\uff52\uff4e\uff41\uff4c",
        "\u0135ournal",
        "journal\u0301",
        "|J\u00d6URNAL=",
        "\u0085",
        "\u2028",
        "|\u00a0journal\u3000=",
        "|\u0085Journal\u2028= \u00c5 ",
    ]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_scan_fragments | _non_ascii_fragments, max_size=30).map("".join))
@example("{{cite journal|a={{x|[[y}}|journal=Z}}")
@example("{{cite journal|journal=[[a|b=c]]|title={{lang|fr|t=u}}}}")
@example("{{{{cite journal|journal=N}}}} }} [[[x]]] {{{p}}}")
@example("{{cite\u00a0journal|journal=N}} {{Cite\u3000journal|journal=M}} {{Cite Journal|journal=O}}")
@example("{{cite journal|journal=N <!-- {{cite journal|journal=H}}")
@example("{{cite journal|journal=N <nowiki>{{cite journal|journal=H}}")
@example("<nowiki><!--</nowiki>{{cite journal|journal=N}}--></nowiki> {{cite journal|journal=H}}")
@example("{{cite journal {{x}}|journal=N}} {{cite journal [[l]]|journal=M}}")
@example("{{cite journal|a|journal=N|b| Journal =M|1=c|journal=O}}")
def test_scan_page_matches_split_every_template_oracle(text):
    source = page(text)
    assert scan_page(source) == scan_page_by_tokens(source)


def _journal_only_matches_oracle(text: str) -> None:
    """A journal-only scan finds the spans, journals and malformed count
    of the oracle's full scan, one record per citation."""
    source = page(text)
    expected = scan_page_by_tokens(source)
    scan = scan_page(source, journal_only=True)
    assert all(type(r) is JournalRecord for r in scan.records)
    assert [(r.span, r.journal_raw) for r in scan.records] == [
        (r.span, r.journal_raw) for r in expected.records
    ]
    assert scan.malformed == expected.malformed


# Non-ASCII text for the journal-only scan's key search: letters that look
# like, fold like or lower near ``journal`` (Kelvin sign, long s, dotted I,
# fullwidth and accented forms), and whitespace that ``str.strip`` strips
# (NEL, line separator, no-break and ideographic space).
_non_ascii_fragments = st.sampled_from(
    [
        "\u00c5rsbok",
        "\u00e9",
        "\u212a",
        "\u017f",
        "\u0130",
        "\u0131",
        "\uff4a\uff4f\uff55\uff52\uff4e\uff41\uff4c",
        "\u0135ournal",
        "journal\u0301",
        "|J\u00d6URNAL=",
        "\u0085",
        "\u2028",
        "|\u00a0journal\u3000=",
        "|\u0085Journal\u2028= \u00c5 ",
    ]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_scan_fragments | _non_ascii_fragments, max_size=30).map("".join))
@example("{{cite journal|a={{x|[[y}}|journal=Z}}")
@example("{{cite journal|journal=[[a|b=c]]|title={{lang|fr|t=u}}}}")
@example("{{cite journal|a|journal=N|b| Journal =M|1=c|journal=O}}")
@example("{{cite journal|journal=N|x=[[a|journal=M]]}} {{cite journal|journal=N|x=[[a]]]]|journal=O}}")
def test_journal_only_scan_matches_oracle(text):
    _journal_only_matches_oracle(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(_soup_tokens | _non_ascii_fragments, max_size=40).map("".join))
def test_journal_only_scan_matches_oracle_on_wikitext_soup(text):
    _journal_only_matches_oracle(text)


@pytest.mark.parametrize(
    "text, journals",
    [
        # a journal key inside a link or a nested template is not the citation's
        ("{{cite journal|title=[[a|journal=X]]|journal=Y}}", ["Y"]),
        ("{{cite journal|journal=Y|title=[[a|journal=X]]}}", ["Y"]),
        ("{{cite journal|title=[[a|journal=X]]}}", [None]),
        ("{{cite journal|journal=Y|title={{lang|journal=X}}}}", ["Y"]),
        ("{{cite journal|title={{lang|x|journal=X}}|year=1}}", [None]),
        # the last of duplicated keys wins
        ("{{cite journal|journal=A|title=T|journal=B}}", ["B"]),
        ("{{cite journal|journal=A|title=T|journal=}}", [None]),
        # keys in any case, with whitespace around them
        ("{{cite journal| JOURNAL =A}}", ["A"]),
        ("{{cite journal|title=x| Journal = B |year=1}}", ["B"]),
        ("{{cite journal|\tjOuRnAl\n=C}}", ["C"]),
        ("{{cite journal|journals=A|my journal=B|journal x=C}}", [None]),
        # values that hold a link or a template run past their inner pipes
        ("{{cite journal|journal=[[Nature (journal)|Nature]]|title=T}}", ["Nature"]),
        ("{{cite journal|journal={{lang|x|y}} Z|year=1}}", ["{{lang|x|y}} Z"]),
        ("{{cite journal|journal=[[A]] and [[B|C]]}}", ["A and C"]),
        # a key hidden in a comment or a nowiki span does not count
        ("{{cite journal|journal=A<!--|journal=B-->}}", ["A"]),
        ("{{cite journal|journal=A|title=<nowiki>|journal=B</nowiki>}}", ["A"]),
        ("{{cite journal|title=T<!--|journal=B-->}}", [None]),
        ("{{cite journal|<!-- old -->journal=A}}", ["A"]),
        # non-ASCII text: Unicode whitespace around the key is stripped, and
        # no letter outside ASCII folds or lowers into ``journal``
        ("{{cite journal|journal=\u00c5rsbok|title=T}}", ["\u00c5rsbok"]),
        ("{{cite journal|\u00a0journal\u3000=N|title=[[\u00e9]]}}", ["N"]),
        ("{{cite journal|\u0085JOURNAL\u2028=N}}", ["N"]),
        ("{{cite journal|journal=N|\uff4a\uff4f\uff55\uff52\uff4e\uff41\uff4c=M}}", ["N"]),
        ("{{cite journal|journal=N|\u0135ournal=M|journal\u0301=O}}", ["N"]),
        # crossed tokens and stray closers
        ("{{cite journal|title={{a|[[b}}|c]]|journal=N}}", ["N"]),
        ("{{cite journal|title=[[a|{{b]]|c}}|journal=N}}", ["N"]),
        ("{{cite journal|title=a]]|journal=N}}", ["N"]),
        ("{{cite journal|title=[[a]]]]|journal=N|x=[[y]]}}", ["N"]),
        ("{{cite journal|title=[[a|journal=M|journal=N}}", [None]),
    ],
)
def test_journal_only_scan_cases(text, journals):
    assert [r.journal_raw for r in scan_page(page(text), journal_only=True).records] == journals
    _journal_only_matches_oracle(text)


def test_journal_only_scan_splits_only_when_unsure(monkeypatch):
    """Flat innards, paired tokens before the key and non-ASCII text need no
    split; a link in the value needs one."""
    calls = []

    def counting_split(segment):
        calls.append(segment)
        return _split_top_level(segment)

    monkeypatch.setattr(extractor, "_split_top_level", counting_split)
    text = (
        "{{cite journal|journal=Nature|title=T}} "
        "{{cite journal|title={{lang|fr|t}} [[a|b]]|journal=Science|year=1}} "
        "{{cite journal|journal=[[Cell (journal)|Cell]]|year=2}} "
        "{{cite journal|journal=Acta \u00c5|year=3}}"
    )
    records = scan_page(page(text), journal_only=True).records
    assert [r.journal_raw for r in records] == ["Nature", "Science", "Cell", "Acta \u00c5"]
    assert calls == ["[[Cell (journal)|Cell]]|year=2"]


def test_only_citation_spans_are_split(monkeypatch):
    calls = []

    def counting_split(segment):
        calls.append(segment)
        return _split_top_level(segment)

    monkeypatch.setattr(extractor, "_split_top_level", counting_split)
    text = (
        "{{Infobox journal|name=X|ref={{cite journal|journal=Nature|title=T}}}}\n"
        "{{cite journal|title={{lang|fr|Le titre}}|journal=Science}}\n"
        "{{reflist}} {{convert|1|km}} {{cite web|url=u}} [[Link|text]]\n"
        "<!-- {{cite journal|journal=Decoy}} --> "
        "<nowiki>{{cite journal|journal=Decoy}}</nowiki>\n"
    )
    records = scan_page(page(text)).records
    assert [r.journal_raw for r in records] == ["Nature", "Science"]
    assert len(calls) == len(records)


def test_record_json_matches_json_dumps():
    (rec,) = scan_page(
        page('{{cite journal|journal=Nature \u00e9\u3000"q"\\|title=\u2603\t}}', "P\u00e4ge")
    ).records
    expected = json.dumps(
        {
            "page_title": rec.page_title,
            "template_name_raw": rec.template_name_raw,
            "params": rec.params,
            "journal_raw": rec.journal_raw,
            "span": list(rec.span),
        },
        ensure_ascii=False,
    )
    assert jsonl_line(rec) == expected


# Arbitrary text, and text built from what json must escape or, with
# ensure_ascii=False, must leave alone: U+2028/2029 and lone surrogates too.
_json_text = st.text(max_size=8) | st.text(
    st.sampled_from(['"', "\\", "\x00", "\n", "\r", "\x1f", "\x7f", "\u00e9", "\u3000", "\u2028",
                     "\u2029", "\ud800", "\udfff", "\U0001f600", "a", " "]),
    max_size=8,
)

_records = st.builds(
    CitationRecord,
    # a small pool of titles gives runs of records from one page
    page_title=st.sampled_from(["Page", "P\u00e4ge \"2\""]) | _json_text,
    template_name_raw=_json_text,
    params=st.dictionaries(_json_text, _json_text, max_size=4),
    journal_raw=st.none() | _json_text,
    span=st.tuples(st.integers(min_value=0), st.integers(min_value=1)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
)


class _CountingBuffer(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(_records, max_size=6))
def test_write_jsonl_matches_json_dumps(records):
    buffer = _CountingBuffer()
    assert write_jsonl(records, buffer) == len(records)
    expected = "".join(
        json.dumps(
            {
                "page_title": r.page_title,
                "template_name_raw": r.template_name_raw,
                "params": r.params,
                "journal_raw": r.journal_raw,
                "span": list(r.span),
            },
            ensure_ascii=False,
        )
        + "\n"
        for r in records
    )
    assert buffer.getvalue() == expected
    assert buffer.writes == (1 if records else 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_records, max_size=6))
def test_jsonl_roundtrip_of_any_records(records):
    buffer = io.StringIO()
    write_jsonl(records, buffer)
    buffer.seek(0)
    assert list(read_jsonl(buffer)) == records


def test_record_type_keeps_order_equality_and_immutability():
    (rec,) = scan_page(page("{{cite journal|journal=Nature}}", "T")).records
    assert repr(rec).startswith("CitationRecord(page_title='T', template_name_raw='cite journal', ")
    assert repr(rec).endswith("params={'journal': 'Nature'}, journal_raw='Nature', span=(0, 31))")
    assert rec == CitationRecord("T", "cite journal", {"journal": "Nature"}, "Nature", (0, 31))
    assert rec != rec._replace(span=(0, 32))
    with pytest.raises(AttributeError):
        rec.journal_raw = "Science"


# Segments without "{{" or "[[" take the splitter's str.split path.
_flat_fragments = st.sampled_from(
    ["}}", "]]", "}", "]", "{", "[", "|", "=", "==", " ", "a", "key", "journal=", "x=y", "''"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_flat_fragments, max_size=30).map("".join).filter(
    lambda s: "{{" not in s and "[[" not in s
))
@example("")
@example("|")
@example("a=b=c|")
@example("=x||=|")
@example("]]|a=b}}|c=d|e")
@example("{x|[y=z|}")
def test_flat_split_matches_token_oracle(segment):
    assert _split_top_level(segment) == split_by_tokens(segment)


_value_fragments = st.sampled_from(
    ["<!--", "-->", "<", "[[", "]]", "[", "]", "|", "''", "'", "'''", " ", "\u00a0", "\n",
     "Nature", "The Lancet", "(journal)", "=", "x"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_value_fragments, max_size=20).map("".join))
@example(" Nature ")
@example("[[Nature (journal)|Nature]]")
@example("''[<!-- -->[Nature]]''")
def test_clean_journal_value_matches_regex_oracle(value):
    assert clean_journal_value(value) == clean_journal_value_by_regex(value)


_name_fragments = st.sampled_from(
    ["cite", "Cite", "journal", "Journal", "jour", "nal", "_", " ", "\u00a0", "\t", "c", "C",
     "\u0130", "ite"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_name_fragments, max_size=8).map("".join))
def test_name_prefilter_is_exact(name):
    """Only a name holding "journal" can normalize to the template name."""
    assert normalize_template_name(name) != TEMPLATE_NAME or "journal" in name


def test_name_prefilter_skips_normalizing(monkeypatch):
    names = ["Cite_journal", "cite  journal", "cite journal", "Cite Journal", "Journal"]
    normalized = []

    def counting_normalize(name):
        normalized.append(name)
        return normalize_template_name(name)

    monkeypatch.setattr(extractor, "normalize_template_name", counting_normalize)
    text = " ".join("{{%s|journal=%s}}" % (name, name) for name in names)
    records = scan_page(page(text)).records
    assert [r.journal_raw for r in records] == ["Cite_journal", "cite  journal", "cite journal"]
    assert normalized == ["Cite_journal", "cite  journal", "cite journal"]
