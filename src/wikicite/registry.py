"""Canonical journal names, alias resolution, and exclusions.

The registry file is line-oriented UTF-8 with tab-separated fields:

    canonical<TAB>Canonical Name
    alias<TAB>Alias Text<TAB>Canonical Name
    exclude<TAB>Canonical Name

``#`` starts a comment. Load order does not matter; an ``exclude`` line
implies canonical membership.
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
        """Assemble and validate a registry from plain collections.

        ``aliases`` maps alias text (not yet normalized) to canonical names.
        """
        keyed = {text: (normalize_key(text), target) for text, target in (aliases or {}).items()}
        return cls._build(canonical, keyed, exclusions)

    @classmethod
    def _build(
        cls,
        canonical: Iterable[str],
        keyed_aliases: dict[str, tuple[str, str]],
        exclusions: Iterable[str],
    ) -> "JournalRegistry":
        """:meth:`build` with each alias text already mapped to its
        normalized key and its canonical name."""
        canonical_set = frozenset(canonical) | frozenset(exclusions)
        exclusion_set = frozenset(exclusions)
        key_to_name: dict[str, str] = {}
        for name in sorted(canonical_set):
            key = normalize_key(name)
            if not key:
                raise RegistryLoadError(f"canonical name {name!r} normalizes to nothing")
            existing = key_to_name.get(key)
            if existing is not None and existing != name:
                raise RegistryLoadError(
                    f"canonical names {existing!r} and {name!r} share the key {key!r}"
                )
            key_to_name[key] = name
        alias_map: dict[str, str] = {}
        for alias_text, (key, target) in sorted(keyed_aliases.items()):
            if not key:
                raise RegistryLoadError(f"alias {alias_text!r} normalizes to nothing")
            if target not in canonical_set:
                raise RegistryLoadError(
                    f"alias {alias_text!r} points at undeclared journal {target!r}"
                )
            existing = key_to_name.get(key)
            if existing is not None and existing != target:
                raise RegistryLoadError(
                    f"alias key {key!r} conflicts with existing mapping to {existing!r}"
                )
            alias_map[key] = target
            key_to_name[key] = target
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
    """Parse registry lines. Order-independent: names are collected first,
    then aliases are validated against them."""
    canonical: set[str] = set()
    exclusions: set[str] = set()
    alias_lines: list[tuple[int, str, str, str]] = []
    seen_alias_keys: dict[str, int] = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in stripped.split("\t")]
        kind = fields[0]
        if kind == "canonical":
            if len(fields) != 2 or not fields[1]:
                raise RegistryLoadError("canonical line needs one name field", line_no)
            canonical.add(fields[1])
        elif kind == "exclude":
            if len(fields) != 2 or not fields[1]:
                raise RegistryLoadError("exclude line needs one name field", line_no)
            exclusions.add(fields[1])
        elif kind == "alias":
            if len(fields) != 3 or not fields[1] or not fields[2]:
                raise RegistryLoadError(
                    "alias line needs alias text and a canonical name", line_no
                )
            key = normalize_key(fields[1])
            if key in seen_alias_keys:
                raise RegistryLoadError(
                    f"duplicate alias key {key!r} (first declared on line "
                    f"{seen_alias_keys[key]})",
                    line_no,
                )
            seen_alias_keys[key] = line_no
            alias_lines.append((line_no, fields[1], key, fields[2]))
        else:
            raise RegistryLoadError(f"unknown line kind {kind!r}", line_no)

    aliases = {}
    declared = canonical | exclusions
    for line_no, alias_text, key, target in alias_lines:
        if target not in declared:
            raise RegistryLoadError(
                f"alias {alias_text!r} points at undeclared journal {target!r}",
                line_no,
            )
        aliases[alias_text] = (key, target)
    return JournalRegistry._build(canonical, aliases, exclusions)


def load_registry(source) -> JournalRegistry:
    """Parse a registry file, given its path or a binary stream of its
    bytes. A stream is decoded as ``open(path, encoding="utf-8")`` decodes
    the file: UTF-8, with universal newlines."""
    if hasattr(source, "read"):
        return parse_registry(io.TextIOWrapper(source, encoding="utf-8"))
    with open(source, "r", encoding="utf-8") as fp:
        return parse_registry(fp)


def default_registry_text() -> str:
    """Raw contents of the shipped starter registry file."""
    from importlib import resources

    return (
        resources.files(__package__).joinpath(DEFAULT_REGISTRY_RESOURCE).read_text("utf-8")
    )


def load_default_registry() -> JournalRegistry:
    """The starter registry shipped with the package."""
    return parse_registry(default_registry_text().splitlines())


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
