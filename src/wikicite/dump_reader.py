"""Streaming reader for MediaWiki XML export dumps.

Pages are pulled one at a time from the export stream; memory stays
proportional to the largest single ``<page>`` element, never the dump size.
Works with export schemas 0.3 through 0.11 (the reader keys on local element
names, so the schema namespace URI does not matter).
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple
from xml.parsers import expat

_CHUNK_SIZE = 1 << 16

# English namespace prefixes, for dumps old enough to lack the <ns> element.
# Titles in dumps carry the canonical prefix form, so exact match suffices.
NAMESPACE_PREFIXES = {
    "Talk": 1,
    "User": 2,
    "User talk": 3,
    "Wikipedia": 4,
    "Wikipedia talk": 5,
    "Image": 6,
    "Image talk": 7,
    "File": 6,
    "File talk": 7,
    "MediaWiki": 8,
    "MediaWiki talk": 9,
    "Template": 10,
    "Template talk": 11,
    "Help": 12,
    "Help talk": 13,
    "Category": 14,
    "Category talk": 15,
    "Portal": 100,
    "Portal talk": 101,
}


class DumpParseError(Exception):
    """Fatal XML error. Carries the position where parsing stopped."""

    def __init__(self, message: str, byte_offset: int, line: int, column: int):
        super().__init__(
            f"{message} (byte {byte_offset}, line {line}, column {column})"
        )
        self.byte_offset = byte_offset
        self.line = line
        self.column = column


class WikiPage(NamedTuple):
    """One page from a dump: the latest revision's text plus identity.

    Immutable, so instances are safe to hand to worker processes.
    """

    title: str
    namespace: int
    text: str


def infer_namespace(title: str) -> int:
    """Namespace id from the title prefix; 0 when no known prefix."""
    prefix, sep, _ = title.partition(":")
    if sep:
        return NAMESPACE_PREFIXES.get(prefix, 0)
    return 0


class DumpReader:
    """Pull iterator over the pages of one export stream.

    The stream is consumed exactly once, in document order. Pages without a
    title are skipped and tallied in ``pages_skipped``; when a page carries
    several revisions only the last one in document order is kept.
    """

    def __init__(self, stream, *, owns_stream: bool = False):
        self._stream = stream
        self._owns_stream = owns_stream
        self._finished = False
        self._ready: deque[WikiPage] = deque()
        self.pages_seen = 0
        self.pages_skipped = 0

        self._saw_root = False
        self._in_page = False
        self._in_revision = False
        self._capture: list[str] | None = None
        self._title: str | None = None
        self._ns: int | None = None
        self._page_text = ""
        self._rev_text: str | None = None

        parser = expat.ParserCreate()
        parser.buffer_text = True
        parser.buffer_size = _CHUNK_SIZE
        parser.StartElementHandler = self._start_element
        parser.EndElementHandler = self._end_element
        parser.CharacterDataHandler = self._char_data
        self._parser = parser

    def __iter__(self) -> Iterator[WikiPage]:
        return self

    def __next__(self) -> WikiPage:
        while not self._ready:
            if self._finished:
                raise StopIteration
            data = self._stream.read(_CHUNK_SIZE)
            try:
                if data:
                    self._parser.Parse(data)
                else:
                    self._parser.Parse(b"", True)
                    self._finished = True
                    self._close_stream()
            except expat.ExpatError as exc:
                self._finished = True
                self._close_stream()
                raise DumpParseError(
                    expat.errors.messages[exc.code],
                    self._parser.ErrorByteIndex,
                    self._parser.ErrorLineNumber,
                    self._parser.ErrorColumnNumber,
                ) from exc
            except DumpParseError:
                self._finished = True
                self._close_stream()
                raise
        return self._ready.popleft()

    def _close_stream(self) -> None:
        if self._owns_stream:
            self._stream.close()

    # expat handlers -------------------------------------------------

    def _start_element(self, name: str, attrs) -> None:
        if ":" in name:
            name = name.rpartition(":")[2]
        if not self._saw_root:
            if name != "mediawiki":
                raise DumpParseError(
                    f"not a MediaWiki export (root element {name!r})",
                    self._parser.CurrentByteIndex,
                    self._parser.CurrentLineNumber,
                    self._parser.CurrentColumnNumber,
                )
            self._saw_root = True
            return
        if name == "page":
            self._in_page = True
            self._in_revision = False
            self.pages_seen += 1
            self._title = None
            self._ns = None
            self._page_text = ""
        elif not self._in_page:
            return
        elif name == "revision":
            self._in_revision = True
            self._rev_text = None
        elif self._in_revision:
            if name == "text":
                self._capture = []
        elif name == "title" or name == "ns":
            self._capture = []

    def _end_element(self, name: str) -> None:
        if ":" in name:
            name = name.rpartition(":")[2]
        capture = self._capture
        if capture is not None:
            value = "".join(capture)
            self._capture = None
            if name == "title":
                self._title = value
            elif name == "ns":
                try:
                    self._ns = int(value.strip())
                except ValueError:
                    self._ns = None
            elif name == "text":
                self._rev_text = value
            return
        if name == "revision":
            # Later revisions overwrite earlier ones: last in order wins.
            self._page_text = self._rev_text or ""
            self._in_revision = False
        elif name == "page":
            self._in_page = False
            title = self._title
            if not title:
                self.pages_skipped += 1
                return
            namespace = self._ns if self._ns is not None else infer_namespace(title)
            self._ready.append(WikiPage(title, namespace, self._page_text))

    def _char_data(self, data: str) -> None:
        if self._capture is not None:
            self._capture.append(data)


def open_dump(source) -> DumpReader:
    """Open an export dump and return a page iterator.

    ``source`` is a filesystem path or a readable binary stream (for example
    ``sys.stdin.buffer``, or a pipe from a decompressor). Decompression is the
    caller's business: the reader expects plain XML bytes.
    """
    if isinstance(source, (str, Path)):
        return DumpReader(open(source, "rb"), owns_stream=True)
    return DumpReader(source)


def filter_namespaces(
    pages: Iterable[WikiPage], allowed: set[int]
) -> Iterator[WikiPage]:
    """Pass exactly the pages whose namespace is in ``allowed``, in order."""
    for page in pages:
        if page.namespace in allowed:
            yield page
