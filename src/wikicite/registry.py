"""Canonical journal names, alias resolution, and exclusions.

The registry file is line-oriented UTF-8 with tab-separated fields:

    canonical<TAB>Canonical Name
    alias<TAB>Alias Text<TAB>Canonical Name
    exclude<TAB>Canonical Name

``#`` starts a comment. Load order does not matter; an ``exclude`` line
implies canonical membership. A file and :meth:`JournalRegistry.build` obey
the same rules: every name and alias text has a non-empty key (see
:func:`normalize_key`), no two canonical names share a key, every alias
points at a declared journal, no two aliases share a key, and an alias key
that is a canonical name's key points at that name. In a file, each
error names the line or lines it is about.
"""

from __future__ import annotations

import hashlib
import io
from enum import Enum
from typing import Iterable, NamedTuple

DEFAULT_REGISTRY_RESOURCE = "data/starter_registry.tsv"


class RegistryLoadError(ValueError):
    """Registry file cannot be parsed or is internally inconsistent."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _line_ref(line_no: int | None) -> str:
    """`` (line N)`` for an error that names a second line, if known."""
    return "" if line_no is None else f" (line {line_no})"


def normalize_key(raw: str) -> str:
    """Deterministic lookup key for a journal string.

    Case-folded, "&" becomes "and", whitespace runs collapse, any leading
    "the " and trailing periods are dropped. Idempotent.
    """
    key = " ".join(raw.casefold().replace("&", " and ").split())
    while key.startswith("the "):
        key = key[4:]
    return key.rstrip(" .")


class ResolutionKind(Enum):
    CANONICAL = "canonical"
    EXCLUDED = "excluded"
    UNKNOWN = "unknown"


class Resolution(NamedTuple):
    """Outcome of a lookup: the canonical name for hits, or the raw string
    preserved verbatim for misses."""

    kind: ResolutionKind
    name: str


class JournalRegistry(NamedTuple):
    canonical: frozenset[str]
    aliases: dict[str, str]
    exclusions: frozenset[str]
    # Full lookup: alias keys plus every canonical name's own key.
    key_to_name: dict[str, str]
    fingerprint: str

    def __repr__(self) -> str:
        # Leaves out the two fields derived from the other three.
        return (
            f"{type(self).__name__}(canonical={self.canonical!r}, "
            f"aliases={self.aliases!r}, exclusions={self.exclusions!r})"
        )

    @classmethod
    def build(
        cls,
        canonical: Iterable[str],
        aliases: dict[str, str] | None = None,
        exclusions: Iterable[str] = (),
    ) -> "JournalRegistry":
        """Assemble and validate a registry from plain collections, by the
        rules a registry file obeys.

        ``aliases`` maps alias text (not yet normalized) to canonical names.
        """
        exclusion_set = frozenset(exclusions)
        names = [(name, None) for name in (*canonical, *exclusion_set)]
        entries = [(text, None, target) for text, target in (aliases or {}).items()]
        return cls._build(names, entries, exclusion_set)

    @classmethod
    def _build(
        cls,
        name_entries: Iterable[tuple[str, int | None]],
        alias_entries: Iterable[tuple[str, int | None, str]],
        exclusions: Iterable[str],
    ) -> "JournalRegistry":
        """The registry of ``(name, line_no)`` entries for every canonical
        and excluded name, ``(alias_text, line_no, target)`` alias entries
        and the ``exclusions`` among the names, each rule of the module
        docstring checked here and only here. An error names the line of
        each entry it is about unless that is None; a repeated name keeps
        its first line."""
        name_lines: dict[str, int | None] = {}
        for name, line_no in name_entries:
            name_lines.setdefault(name, line_no)
        # Each set, map and so the repr is built in sorted order, whatever
        # the order of the lines or the arguments.
        exclusion_set = frozenset(sorted(exclusions))
        names = sorted(name_lines)
        canonical_set = frozenset(names)
        key_to_name: dict[str, str] = {}
        for name in names:
            key = normalize_key(name)
            if not key:
                raise RegistryLoadError(
                    f"canonical name {name!r} normalizes to nothing", name_lines[name]
                )
            existing = key_to_name.setdefault(key, name)
            if existing != name:
                raise RegistryLoadError(
                    f"canonical names {existing!r}{_line_ref(name_lines[existing])} and "
                    f"{name!r} share the key {key!r}",
                    name_lines[name],
                )
        alias_map: dict[str, str] = {}
        declared: dict[str, tuple[str, int | None]] = {}
        for alias_text, line_no, target in sorted(alias_entries):
            if target not in canonical_set:
                raise RegistryLoadError(
                    f"alias {alias_text!r} points at undeclared journal {target!r}", line_no
                )
            key = normalize_key(alias_text)
            if not key:
                raise RegistryLoadError(f"alias {alias_text!r} normalizes to nothing", line_no)
            if key in declared:
                first_text, first_line = declared[key]
                raise RegistryLoadError(
                    f"duplicate alias key {key!r}: {alias_text!r} and "
                    f"{first_text!r}{_line_ref(first_line)}",
                    line_no,
                )
            existing = key_to_name.setdefault(key, target)
            if existing != target:
                raise RegistryLoadError(
                    f"alias key {key!r} conflicts with existing mapping to {existing!r}",
                    line_no,
                )
            declared[key] = (alias_text, line_no)
            alias_map[key] = target
        fingerprint = _fingerprint(canonical_set, alias_map, exclusion_set)
        return cls(
            canonical=canonical_set,
            aliases=alias_map,
            exclusions=exclusion_set,
            key_to_name=key_to_name,
            fingerprint=fingerprint,
        )

    def resolve(self, raw: str) -> Resolution:
        """Map a raw journal string to its canonical entry.

        Exclusion wins over canonical membership; unknown strings come back
        verbatim so they can be audited.
        """
        name = self.key_to_name.get(normalize_key(raw))
        if name is None:
            return Resolution(ResolutionKind.UNKNOWN, raw)
        if name in self.exclusions:
            return Resolution(ResolutionKind.EXCLUDED, name)
        return Resolution(ResolutionKind.CANONICAL, name)


def _fingerprint(
    canonical: frozenset[str], aliases: dict[str, str], exclusions: frozenset[str]
) -> str:
    """SHA-256 of the registry's lines, each ending in a newline: the
    sorted canonical names, the aliases sorted by key, then the sorted
    exclusions."""
    lines = sorted(f"C\t{name}" for name in canonical)
    lines += [f"A\t{key}\t{aliases[key]}" for key in sorted(aliases)]
    lines += sorted(f"X\t{name}" for name in exclusions)
    lines.append("")  # so that the join ends the last line too
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def parse_registry(lines: Iterable[str]) -> JournalRegistry:
    """Parse registry lines. Only each line's syntax is checked here;
    :meth:`JournalRegistry._build` checks every other rule, so a file and
    :meth:`JournalRegistry.build` obey the same ones."""
    name_entries: list[tuple[str, int]] = []
    exclusions: set[str] = set()
    alias_entries: list[tuple[str, int, str]] = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in stripped.split("\t")]
        kind = fields[0]
        if kind == "alias":
            if len(fields) != 3 or not fields[1] or not fields[2]:
                raise RegistryLoadError(
                    "alias line needs alias text and a canonical name", line_no
                )
            alias_entries.append((fields[1], line_no, fields[2]))
        elif kind in ("canonical", "exclude"):
            if len(fields) != 2 or not fields[1]:
                raise RegistryLoadError(f"{kind} line needs one name field", line_no)
            name_entries.append((fields[1], line_no))
            if kind == "exclude":
                exclusions.add(fields[1])
        else:
            raise RegistryLoadError(f"unknown line kind {kind!r}", line_no)
    return JournalRegistry._build(name_entries, alias_entries, exclusions)


def load_registry(source) -> JournalRegistry:
    """Parse a registry file, given its path or a binary stream of its
    bytes, decoded as UTF-8 with universal newlines: only ``\\n``, ``\\r``
    and ``\\r\\n`` end a line. A stream is read to its end and left open."""
    if not hasattr(source, "read"):
        with open(source, "rb") as fp:
            return load_registry(fp)
    text = io.TextIOWrapper(source, encoding="utf-8")
    try:
        return parse_registry(text)
    finally:
        text.detach()


def default_registry_bytes() -> bytes:
    """Raw bytes of the shipped starter registry file."""
    from importlib import resources

    return resources.files(__package__).joinpath(DEFAULT_REGISTRY_RESOURCE).read_bytes()


def load_default_registry() -> JournalRegistry:
    """The starter registry shipped with the package, decoded by
    :func:`load_registry` as a registry file is."""
    return load_registry(io.BytesIO(default_registry_bytes()))


def near_misses(
    unknown: Iterable[str], registry: JournalRegistry, min_prefix: int = 6
) -> list[tuple[str, str]]:
    """Curation hints: unknown strings whose normalized key shares a long
    prefix with a registered key. Never applied automatically.

    A hit needs both keys at least ``min_prefix`` long and equal in their
    first ``min_prefix`` characters, so the registry keys are bucketed by
    that prefix once and each unknown string costs one lookup. Hits come in
    order of the unknown string, then of the registry key.
    """
    buckets: dict[str, list[str]] = {}
    for key in sorted(registry.key_to_name):
        if len(key) >= min_prefix:
            buckets.setdefault(key[:min_prefix], []).append(key)
    hits: list[tuple[str, str]] = []
    for raw in sorted(set(unknown)):
        raw_key = normalize_key(raw)
        if not raw_key or len(raw_key) < min_prefix:
            continue
        for key in buckets.get(raw_key[:min_prefix], ()):
            if key != raw_key:
                hits.append((raw, registry.key_to_name[key]))
    return hits
