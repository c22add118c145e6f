import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicite import registry as registry_module
from wikicite.extractor import normalize_template_name
from wikicite.registry import (
    JournalRegistry,
    RegistryLoadError,
    ResolutionKind,
    near_misses,
    normalize_key,
    parse_registry,
)

from oracles import (
    near_misses_by_pairs,
    normalize_key_by_regex,
    normalize_template_name_by_regex,
)

_WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


@pytest.mark.parametrize(
    "raw,key",
    [
        ("The Lancet", "lancet"),
        ("Astronomy & Astrophysics", "astronomy and astrophysics"),
        ("  NATURE. ", "nature"),
        ("New  England   Journal", "new england journal"),
        ("the the journal", "journal"),
        ("Commun. ACM", "commun. acm"),
        ("", ""),
    ],
)
def test_normalize_key_examples(raw, key):
    assert normalize_key(raw) == key


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=60))
def test_normalize_key_idempotent(raw):
    once = normalize_key(raw)
    assert normalize_key(once) == once


def test_regex_whitespace_is_str_whitespace():
    """``\\s`` in a str pattern and ``str.isspace`` agree on every code
    point, so ``str.split`` breaks at exactly the runs ``\\s+`` matched."""
    space = re.compile(r"\s")
    mismatched = [
        hex(ord(c))
        for c in map(chr, range(sys.maxunicode + 1))
        if (space.fullmatch(c) is not None) != c.isspace()
    ]
    assert mismatched == []


@settings(max_examples=1000, deadline=None)
@given(st.text(st.sampled_from(_WHITESPACE + "_&.theTHE Nßİ"), max_size=40))
def test_normalizers_match_regex_oracles(raw):
    assert normalize_key(raw) == normalize_key_by_regex(raw)
    assert normalize_template_name(raw) == normalize_template_name_by_regex(raw)


def test_resolve_alias_hit(starter_registry):
    res = starter_registry.resolve("New Engl J Med")
    assert res.kind is ResolutionKind.CANONICAL
    assert res.name == "New England Journal of Medicine"


def test_resolve_own_key_with_markup_noise(starter_registry):
    assert starter_registry.resolve(" NATURE. ").name == "Nature"
    assert starter_registry.resolve("lancet").name == "The Lancet"


def test_resolve_excluded(starter_registry):
    res = starter_registry.resolve("Scientific American")
    assert res.kind is ResolutionKind.EXCLUDED
    assert res.name == "Scientific American"


def test_resolve_unknown_preserved_verbatim(starter_registry):
    res = starter_registry.resolve("Journal of Imaginary Results")
    assert res.kind is ResolutionKind.UNKNOWN
    assert res.name == "Journal of Imaginary Results"


def test_exclusion_dominates(starter_registry):
    for name in starter_registry.exclusions:
        assert starter_registry.resolve(name).kind is ResolutionKind.EXCLUDED


def test_resolution_pure(starter_registry):
    assert starter_registry.resolve("BMJ") == starter_registry.resolve("BMJ")


def test_invariants_hold(starter_registry):
    registry = starter_registry
    assert registry.exclusions <= registry.canonical
    for target in registry.aliases.values():
        assert target in registry.canonical
    for key in registry.aliases:
        assert normalize_key(key) == key


LINES = [
    "canonical\tNature",
    "alias\tNature (London)\tNature",
    "exclude\tScientific American",
    "# a comment",
    "",
    "canonical\tThe Lancet",
]


def test_parse_registry_order_independent():
    forward = parse_registry(LINES)
    backward = parse_registry(list(reversed(LINES)))
    assert forward.fingerprint == backward.fingerprint
    assert forward.canonical == backward.canonical
    assert forward.resolve("nature (london)").name == "Nature"


def test_exclude_implies_canonical_membership():
    registry = parse_registry(["exclude\tScientific American"])
    assert "Scientific American" in registry.canonical
    assert registry.resolve("Scientific American").kind is ResolutionKind.EXCLUDED


def test_duplicate_alias_key_names_line():
    lines = [
        "canonical\tNature",
        "alias\tNat.\tNature",
        "alias\tnat.\tNature",
    ]
    with pytest.raises(RegistryLoadError) as raised:
        parse_registry(lines)
    assert str(raised.value) == "line 3: duplicate alias key 'nat': 'nat.' and 'Nat.' (line 2)"


def test_alias_to_undeclared_target_fails():
    with pytest.raises(RegistryLoadError, match="undeclared"):
        parse_registry(["alias\tNat.\tNature"])


def test_unknown_line_kind_fails():
    with pytest.raises(RegistryLoadError, match="line 1"):
        parse_registry(["journal\tNature"])


def test_canonical_key_collision_fails():
    with pytest.raises(RegistryLoadError, match="share the key"):
        parse_registry(["canonical\tThe Lancet", "canonical\tLancet"])


@pytest.mark.parametrize(
    "lines, message",
    [
        (["canonical\tNature", "canonical\t."], "line 2: canonical name '.' normalizes to nothing"),
        (["canonical\tNature", "exclude\t."], "line 2: canonical name '.' normalizes to nothing"),
        (
            ["canonical\tThe Lancet", "canonical\tLancet"],
            "line 1: canonical names 'Lancet' (line 2) and 'The Lancet' share the key 'lancet'",
        ),
        (
            ["canonical\tLancet", "", "exclude\tThe Lancet", "canonical\tThe Lancet"],
            "line 3: canonical names 'Lancet' (line 1) and 'The Lancet' share the key 'lancet'",
        ),
    ],
    ids=["empty-key", "empty-excluded-key", "shared-key", "shared-key-first-line"],
)
def test_every_canonical_error_names_its_lines(lines, message):
    with pytest.raises(RegistryLoadError) as raised:
        parse_registry(lines)
    assert str(raised.value) == message


def test_repeated_canonical_line_is_legal():
    registry = parse_registry(["canonical\tNature", "exclude\tNature", "canonical\tNature"])
    assert registry == JournalRegistry.build(["Nature", "Nature"], {}, ["Nature"])


def test_alias_conflicting_with_canonical_key_fails():
    lines = ["canonical\tNature", "canonical\tScience", "alias\tnature\tScience"]
    with pytest.raises(RegistryLoadError):
        parse_registry(lines)


def test_starter_registry_fingerprint_is_pinned(starter_registry):
    """``counts.json`` carries the fingerprint, and ``join`` refuses a table
    whose fingerprint differs: the digest's bytes must not drift."""
    assert starter_registry.fingerprint == (
        "4f01a1c14f44d18fb429fe876e2bd8c2237447c21bb0dfda79ec34daad775513"
    )


def test_empty_registry_fingerprint_is_the_empty_digest():
    assert JournalRegistry.build([]).fingerprint == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_repr_leaves_out_key_map_and_fingerprint():
    registry = parse_registry(["canonical\tNature", "alias\tNat.\tNature"])
    text = repr(registry)
    assert text == (
        "JournalRegistry(canonical=frozenset({'Nature'}), aliases={'nat': 'Nature'}, "
        "exclusions=frozenset())"
    )
    assert "'nature'" not in text and registry.fingerprint not in text


def test_fingerprint_tracks_content():
    a = parse_registry(["canonical\tNature"])
    b = parse_registry(["canonical\tNature", "exclude\tScientific American"])
    c = parse_registry(["canonical\tNature"])
    assert a.fingerprint != b.fingerprint
    assert a.fingerprint == c.fingerprint


def test_build_validates_alias_targets():
    with pytest.raises(RegistryLoadError):
        JournalRegistry.build(["Nature"], {"Sci": "Science"})


@pytest.mark.parametrize(
    "alias_line,message",
    [
        ("alias\tnature\tScience", "alias key 'nature' conflicts with existing mapping to 'Nature'"),
        ("alias\t.\tNature", "alias '.' normalizes to nothing"),
        ("alias\tSci\tSciences", "alias 'Sci' points at undeclared journal 'Sciences'"),
        ("alias\tnature (London)\tNature", "duplicate alias key 'nature (london)'"),
    ],
    ids=["conflict", "empty-key", "undeclared", "duplicate"],
)
def test_every_alias_error_names_its_line(alias_line, message):
    lines = [
        "canonical\tNature",
        "canonical\tScience",
        "alias\tNature (London)\tNature",
        "",
        alias_line,
    ]
    with pytest.raises(RegistryLoadError, match=re.escape(message)) as raised:
        parse_registry(lines)
    assert str(raised.value).startswith("line 5: ")
    assert raised.value.line_no == 5


def test_build_rejects_a_duplicate_alias_key():
    with pytest.raises(RegistryLoadError, match="duplicate alias key 'nat'"):
        JournalRegistry.build(["Nature"], {"Nat.": "Nature", "nat.": "Nature"})


def test_build_takes_exclusions_from_a_generator():
    registry = JournalRegistry.build(["Nature"], {}, (x for x in ["Scientific American"]))
    assert registry.exclusions == frozenset({"Scientific American"})
    assert registry.canonical == frozenset({"Nature", "Scientific American"})
    assert registry.resolve("Scientific American").kind is ResolutionKind.EXCLUDED


# Few letters, so that names and alias texts often share a key; "." alone
# normalizes to nothing. No leading or trailing space, which a file strips.
_colliding_names = st.text(alphabet="aAb. &", min_size=1, max_size=4).filter(
    lambda text: text == text.strip()
)


@settings(max_examples=500, deadline=None)
@given(
    st.sets(_colliding_names, max_size=4),
    st.sets(_colliding_names, max_size=3),
    st.lists(
        st.tuples(_colliding_names, st.integers(min_value=0, max_value=7)),
        max_size=5,
        unique_by=lambda pair: pair[0],
    ),
    st.randoms(use_true_random=False),
)
def test_a_file_and_build_obey_the_same_rules(canonical, exclusions, alias_picks, rng):
    """The lines of a registry, in any order, and ``build`` of the same
    sets either all fail or give equal registries that print alike."""
    targets = sorted(canonical | exclusions) + ["Undeclared"]
    aliases = {text: targets[pick % len(targets)] for text, pick in alias_picks}
    lines = [f"canonical\t{name}" for name in sorted(canonical)]
    lines += [f"exclude\t{name}" for name in sorted(exclusions)]
    lines += [f"alias\t{text}\t{target}" for text, target in aliases.items()]
    shuffled = list(lines)
    rng.shuffle(shuffled)
    try:
        built = JournalRegistry.build(canonical, aliases, exclusions)
    except RegistryLoadError:
        for variant in (lines, shuffled):
            with pytest.raises(RegistryLoadError):
                parse_registry(variant)
        return
    for variant in (lines, shuffled):
        parsed = parse_registry(variant)
        assert parsed == built  # every field, the key map and fingerprint included
        assert repr(parsed) == repr(built)


def test_near_misses_shared_prefix(starter_registry):
    hits = near_misses(["Nature Genetics", "Totally Unrelated"], starter_registry)
    assert ("Nature Genetics", "Nature") in hits
    assert all(raw != "Totally Unrelated" for raw, _ in hits)


def test_near_misses_empty_for_no_unknowns(starter_registry):
    assert near_misses([], starter_registry) == []


_short_names = st.text(alphabet="abAB. &", min_size=1, max_size=9)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_short_names, max_size=12),
    st.lists(
        st.tuples(st.sampled_from(["", "The ", "the "]), _short_names), max_size=12
    ),
    st.lists(st.integers(min_value=0, max_value=11), max_size=3),
    st.sampled_from([0, 1, 2, 3, 6]),
)
def test_near_misses_match_pairwise_oracle(names, unknown_parts, exact, min_prefix):
    by_key = {}
    for name in names:
        key = normalize_key(name)
        if key:
            by_key.setdefault(key, name)
    registry = JournalRegistry.build(by_key.values())
    # leading "the", short keys and strings that are registry names verbatim
    unknown = [article + text for article, text in unknown_parts]
    canonical = sorted(registry.canonical)
    unknown += [canonical[i % len(canonical)] for i in exact if canonical]
    assert near_misses(unknown, registry, min_prefix) == near_misses_by_pairs(
        unknown, registry, min_prefix
    )


def test_load_registry_file(tmp_path):
    path = tmp_path / "reg.tsv"
    path.write_text("canonical\tNature\nalias\tNat\tNature\n", encoding="utf-8")
    from wikicite.registry import load_registry

    registry = load_registry(path)
    assert registry.resolve("nat").name == "Nature"
    with open(path, "rb") as stream:
        assert load_registry(stream) == registry
        # The caller still digests and closes the stream it passed.
        assert not stream.closed and stream.read() == b""


def test_parse_registry_normalizes_each_name_once(monkeypatch):
    seen = []

    def counting_key(raw):
        seen.append(raw)
        return normalize_key(raw)

    lines = LINES + ["alias\tNat.\tNature", "alias\tLancet (London)\tThe Lancet"]
    monkeypatch.setattr(registry_module, "normalize_key", counting_key)
    parse_registry(lines)
    assert sorted(seen) == sorted(
        line.split("\t")[1] for line in lines if line and not line.startswith("#")
    )
