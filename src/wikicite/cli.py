"""Command-line pipeline: extract, count, correlate, growth, gen-fixture.

Every stage reads and writes plain files so long runs can be resumed at
stage boundaries, and every run drops a manifest.json recording the exact
configuration, the files written and each input's digest. Each input is
read once, its digest is taken from exactly the bytes parsed, and an error
in it starts with its path. A file appears under its final name only once
complete (it is written as ``<name>.partial`` and renamed), so a failed run
never leaves a partial stage file for the next stage to accept, and
``--out`` is made on the first write. Outputs are byte-identical across
repeated runs on identical inputs.

The dump commands read a dump one page at a time: ``extract`` scans each
page and writes its records, ``count --dump`` and ``correlate --dump`` scan
each page for its journals and tally them. All three share one parallel
path. Where ``--dump`` names a regular file, ``os.fork`` exists and the
process may run on two CPUs or more (for ``count``, with ``--jobs`` 1), the
file is cut at page boundaries into one range per CPU, each at least
``_MIN_RANGE_BYTES`` and starting at the first ``<page>`` after an even
share of the file. The main process forks one part for each later range,
each process bound to a CPU of its own, and each part reads the file's
header (the bytes before its first ``<page>``) and its own range with the
serial loop; the main process does the same with the first range. ``count``
and ``correlate`` join the tables in page order with
``aggregate.merge_in_order``. ``extract`` writes its own range's records
straight to ``citations.jsonl``, then appends each part's, which the part
wrote to an unlinked temporary file in ``--out``, and sums the summary's
counters. The split is exact or not used:

- Each part reports the SHA-256 of the bytes it parsed. The main process
  reads the whole file in order for the manifest's digest, hashes each
  later range again on the way, and exits 2 where a part's hash differs.
- Where a range does not parse (a cut inside CDATA or a comment, a DTD, a
  truncated file) or a later part overflowed its unknown cap, the dump is
  read again serially, so a failing dump fails with serial's message.

Elsewhere (stdin, one CPU, no ``fork``, a small file) the serial loop runs.
The outputs are byte-identical either way. No page text crosses between
processes: each part reads its own bytes of the file, so the split runs
expat in parallel too. ``count --jobs N`` above 1 runs a per-page process
pool instead, kept only because the benchmark measures it: it pickles every
page out and every scan back, and loses to the serial loop and to the split
alike.

Exit codes: 0 success, 1 usage error, 2 input-format or output error,
3 data-insufficiency error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import marshal
import os
import signal
import stat
import sys
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from . import __version__
from .aggregate import (
    CountTable,
    growth_report,
    merge_in_order,
    read_counts_json,
    tally,
    tally_scans,
    write_counts_csv,
    write_counts_json,
    write_csv,
    write_json,
    write_unknown_csv,
)
from .dump_reader import DumpParseError, DumpReader, WikiPage, filter_namespaces
from .extractor import PageScan, read_jsonl, scan_page, write_jsonl
from .registry import JournalRegistry, default_registry_bytes, load_registry, near_misses

# Names only some commands use, bound into this module on first use so that
# a command imports just what it runs: the per-page process pool of
# count --jobs > 1 (kept for the benchmark only; it loses to the default),
# the statistics for correlate, the generator for gen-fixture, dates for growth.
_DEFERRED = {
    "concurrent.futures.process": ("ProcessPoolExecutor",),
    "datetime": ("date",),
    "wikicite.bibliometrics": (
        "SERIES_NAMES",
        "combined_top_overlap",
        "join",
        "read_jcr_csv",
        "scatter_export",
        "topn_sweep",
        "write_correlations_csv",
        "write_scatter_csv",
    ),
    "wikicite.fixtures": ("build_corpus", "synthetic_jcr_rows", "write_dump"),
}


def _load(module_name: str) -> None:
    """Bind ``module_name``'s deferred names here. A name already bound is
    left as it is: perfbench's probes and the tests rebind these names."""
    module = importlib.import_module(module_name)
    for name in _DEFERRED[module_name]:
        globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    for module_name, names in _DEFERRED.items():
        if name in names:
            _load(module_name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_DATA = 3

DEFAULT_OVERLAP_K = 10
DEFAULT_OVERLAP_M = 19


class UsageError(Exception):
    pass


class InsufficientDataError(Exception):
    pass


class InputError(Exception):
    pass


class OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# input plumbing -----------------------------------------------------


class _HashingReader(io.RawIOBase):
    """One input, read as a binary stream that digests bytes as they are
    read, so the input is hashed in the same single pass that parses it.
    It reads ``stream`` if given, else the file ``path_label``, which it
    opens once and closes; a given stream, such as stdin, is left open.
    Failing to open or read it is an InputError that starts with its path,
    even where it is read inside an output's block."""

    _owns_stream = False  # for close(), which io's finalizer calls even if __init__ raised

    def __init__(self, path_label: str, stream=None):
        try:
            self._stream = open(path_label, "rb") if stream is None else stream
        except OSError as exc:
            raise InputError(f"{path_label}: {exc}") from exc
        self._owns_stream = stream is None
        self._digest = hashlib.sha256()
        self.path_label = path_label
        self.bytes_read = 0

    def readable(self) -> bool:
        return True

    def read(self, n: int = -1) -> bytes:
        try:
            chunk = self._stream.read(n)
        except OSError as exc:
            raise InputError(f"{self.path_label}: {exc}") from exc
        self._digest.update(chunk)
        self.bytes_read += len(chunk)
        return chunk

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()
        super().close()

    def manifest_entry(self) -> dict:
        """Path, SHA-256 and size of the whole input: what the parser left
        unread is read to EOF first."""
        while self.read(1 << 20):
            pass
        return {
            "path": self.path_label,
            "sha256": self._digest.hexdigest(),
            "bytes": self.bytes_read,
        }


def _parse_namespaces(spec: str) -> set[int] | None:
    if spec.strip().lower() == "all":
        return None
    try:
        namespaces = {int(part) for part in spec.split(",") if part.strip()}
    except ValueError:
        namespaces = set()
    if not namespaces:
        raise UsageError(f"bad --namespaces value {spec!r}")
    return namespaces


def parse_sweep(spec: str, limit: int) -> list[int]:
    """Sweep syntax: comma-separated sizes or inclusive ``lo..hi`` ranges,
    strictly increasing overall, each size at least 2. An entry that goes
    past ``limit``, the number of joined journals, is a data error, found
    before any range is expanded."""
    entries: list[tuple[str, int, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        lo_text, sep, hi_text = part.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text if sep else lo_text)
        except ValueError:
            raise UsageError(f"bad sweep entry {part!r}") from None
        if hi < lo:
            raise UsageError(f"empty sweep range {part!r}")
        entries.append((part, lo, hi))
    if not entries:
        raise UsageError("empty sweep specification")
    if entries[0][1] < 2:
        raise UsageError("sweep sizes must be at least 2")
    for (_, _, previous), (_, current, _) in zip(entries, entries[1:]):
        if current <= previous:
            raise UsageError("sweep sizes must be strictly increasing")
    for part, _, hi in entries:
        if hi > limit:
            raise InsufficientDataError(
                f"sweep entry {part!r} is out of range (2..{limit} joined journals)"
            )
    return [n for _, lo, hi in entries for n in range(lo, hi + 1)]


def _pages(reader: DumpReader, namespaces: set[int] | None) -> Iterable[WikiPage]:
    """The pages of ``reader`` in ``namespaces``; every page for None."""
    return reader if namespaces is None else filter_namespaces(reader, namespaces)


def _scan_stream(pages: Iterable[WikiPage], jobs: int) -> Iterator[PageScan]:
    """``count --dump``'s journal-only scans, fanned out to worker processes
    for ``jobs`` > 1, a pool kept only for the benchmark's pool metrics. The
    submission window is bounded so memory stays streaming-sized, and
    results come back in page order."""
    if jobs <= 1:
        for page in pages:
            yield scan_page(page, journal_only=True)
        return
    _load("concurrent.futures.process")
    window: deque = deque()
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        for page in pages:
            if len(window) >= jobs * 4:
                yield window.popleft().result()
            window.append(executor.submit(scan_page, page, journal_only=True))
        while window:
            yield window.popleft().result()


# a command's files --------------------------------------------------


class _Run:
    """One command's files. Each input is read once, digested from the
    bytes parsed and recorded for the manifest, and an error in it names
    its path. Outputs go to the ``--out`` directory, made on the first
    write; each is written as ``<name>.partial`` and renamed to ``name``
    only once complete, so a failed run leaves no partial file under a
    final name, and the manifest lists exactly the files written. Failing
    to make, open, write or rename an output is an OutputError naming it."""

    def __init__(self, out_arg: str):
        self.dir = Path(out_arg)
        self.inputs: dict[str, dict] = {}
        self.names: list[str] = []

    def read(self, key: str, path: str, parse, stream=None, text: bool = True):
        """``parse`` of the input ``path``, given as its ``_HashingReader``
        or, for ``text``, decoded as ``open(path, encoding="utf-8")``
        decodes it. Its manifest entry, digested from the same bytes, is
        recorded under ``key``; an error in it is re-raised naming ``path``."""
        try:
            with _HashingReader(path, stream) as reader:
                source = io.TextIOWrapper(reader, encoding="utf-8") if text else reader
                value = parse(source)
                self.inputs[key] = reader.manifest_entry()
        except RecursionError:  # json's C scanner recurses once per nesting level
            raise ValueError(f"{path}: nested too deeply to parse") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        return value

    @contextmanager
    def dump(self, args) -> Iterator[tuple[DumpReader, Iterable[WikiPage]]]:
        """The ``--dump`` reader and its pages in the ``--namespaces`` kept.
        The dump's manifest entry is recorded when the block ends, and a
        DumpParseError raised in it is given the dump's path."""
        namespaces = _parse_namespaces(args.namespaces)
        stdin = sys.stdin.buffer if args.dump == "-" else None
        with _HashingReader(args.dump, stdin) as stream:
            reader = DumpReader(stream)
            try:
                yield reader, _pages(reader, namespaces)
            except DumpParseError as exc:
                exc.args = (f"{args.dump}: {exc}",)
                raise
            self.inputs["dump"] = stream.manifest_entry()

    @contextmanager
    def open(self, name: str) -> Iterator[IO[str]]:
        path, partial = self.dir / name, self.dir / f"{name}.partial"
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            fp = open(partial, "w", encoding="utf-8")
        except OSError as exc:
            raise OutputError(f"{path}: {exc}") from exc
        try:
            with fp:
                yield fp
            os.replace(partial, path)
        except BaseException as exc:
            partial.unlink(missing_ok=True)
            if isinstance(exc, OSError):  # reading an input raises InputError
                raise OutputError(f"{path}: {exc}") from exc
            raise
        self.names.append(name)

    def write(self, name: str, writer, *args) -> None:
        """Write ``name`` whole with ``writer(*args, fp)``."""
        with self.open(name) as fp:
            writer(*args, fp)

    def manifest(self, args) -> None:
        """The run's configuration is every parsed option of its subcommand."""
        config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
        manifest = {
            "tool": "wikicite",
            "version": __version__,
            "command": args.command,
            "config": config,
            "inputs": self.inputs,
            "outputs": sorted(self.names),
        }
        self.write("manifest.json", write_json, manifest)


def _load_registry_arg(run: _Run, registry_arg: str | None) -> JournalRegistry:
    """The registry, a file's or the built-in's, recorded as ``registry``."""
    # Parsed through load_registry, which perfbench's registry.load probe times.
    if registry_arg is not None:
        return run.read("registry", registry_arg, load_registry, text=False)
    builtin = io.BytesIO(default_registry_bytes())
    return run.read("registry", "<builtin starter registry>", load_registry, builtin, text=False)


# subcommands --------------------------------------------------------


def _extract_pages(fp: IO[str], reader: DumpReader, pages: Iterable[WikiPage]) -> dict:
    """Write the records of ``pages`` to ``fp``, page by page; the
    ``extract_summary.json`` counters of what ``reader`` read."""
    counts = dict.fromkeys(("pages_scanned", "records", "malformed_total", "duplicate_params"), 0)
    for page in pages:
        scan = scan_page(page)
        counts["pages_scanned"] += 1
        counts["records"] += write_jsonl(scan.records, fp)
        counts["malformed_total"] += scan.malformed
        counts["duplicate_params"] += scan.duplicate_params
    return {"pages_seen": reader.pages_seen, "pages_skipped": reader.pages_skipped, **counts}


def cmd_extract(args, run: _Run) -> None:
    parts: list[IO[bytes]] = []  # each later range's lines, in an unlinked file in --out
    with run.open("citations.jsonl") as fp:

        def open_range(index: int) -> _RangeWork:
            if index == 0:
                return lambda reader, pages: _extract_pages(fp, reader, pages)
            import tempfile  # only where the dump is split

            part = tempfile.TemporaryFile(dir=run.dir)
            parts.append(part)

            def extract_part(reader: DumpReader, pages: Iterable[WikiPage]) -> dict:
                sink = io.TextIOWrapper(part, encoding="utf-8")
                summary = _extract_pages(sink, reader, pages)
                sink.flush()
                return summary

            return extract_part

        try:
            summaries = _split_dump(run, args, open_range)
            if summaries is None:
                fp.seek(0)
                fp.truncate()
                with run.dump(args) as (reader, pages):
                    summaries = [_extract_pages(fp, reader, pages)]
            else:
                fp.flush()
                for part in parts:
                    part.seek(0)
                    fp.buffer.writelines(_read_range(part.read, None))
        finally:
            for part in parts:
                part.close()

    summary = {key: sum(each[key] for each in summaries) for key in summaries[0]}
    run.write("extract_summary.json", write_json, summary)
    print(
        f"extract: pages={summary['pages_scanned']} records={summary['records']} "
        f"malformed={summary['malformed_total']} skipped={summary['pages_skipped']}",
        file=sys.stderr,
    )


def _read_summary(fp: IO[str]) -> tuple[int, int]:
    """``malformed_total`` and ``records`` of an ``extract_summary.json``."""
    summary = json.load(fp)
    values = []
    for key in ("malformed_total", "records"):
        value = summary.get(key) if isinstance(summary, dict) else None
        if type(value) is not int or value < 0:
            raise ValueError(f"{key} must be a non-negative integer")
        values.append(value)
    return values[0], values[1]


def _table_from_citations(run: _Run, path: str, registry: JournalRegistry) -> CountTable:
    """Tally an extract run's records, checked against its summary."""
    malformed_total, expected_records = 0, None
    summary_path = Path(path).with_name("extract_summary.json")
    if summary_path.exists():
        malformed_total, expected_records = run.read(
            "extract_summary", str(summary_path), _read_summary
        )
    else:
        print(
            "count: no extract_summary.json next to the citations file; "
            "malformed_total set to 0",
            file=sys.stderr,
        )
    table = run.read(
        "citations",
        path,
        lambda fp: tally(read_jsonl(fp), registry, malformed_total=malformed_total),
    )
    if expected_records is not None and table.template_total != expected_records:
        raise ValueError(
            f"{path} holds {table.template_total} records but "
            f"{summary_path} says {expected_records}: truncated or stale"
        )
    return table


def _table_from_dump(run: _Run, args, registry: JournalRegistry, jobs: int = 1) -> CountTable:
    """The table of ``--dump``: its ranges tallied at once and joined in
    page order where ``_split_dump`` can, else serial."""
    if jobs == 1:

        def tally_range(reader: DumpReader, pages: Iterable[WikiPage]) -> tuple:
            return tuple(tally_scans(_scan_stream(pages, 1), registry))

        tables = _split_dump(run, args, lambda index: tally_range)
        if tables is not None:
            table = CountTable(*tables[0])
            for fields in tables[1:]:
                table = merge_in_order(table, CountTable(*fields))
                if table is None:  # a later range overflowed its unknown cap
                    break
            else:
                return table
    with run.dump(args) as (_, pages):
        return tally_scans(_scan_stream(pages, jobs), registry)


# a dump's ranges ---------------------------------------------------

# The smallest range worth a part. Below it, forking a part and hashing its
# range again cost more than parsing the range in parallel saves: on a
# 2-vCPU host, two ranges broke even at about 1 MB of dump on 4 KB
# citation-dense pages and at 3-4 MB on 128 KB prose pages (see the README).
_MIN_RANGE_BYTES = 2 << 20
_READ_BYTES = 1 << 16
_PAGE_START = b"<page>"
# Closes each range but the last, whose own last bytes close the document.
_ROOT_END = b"</mediawiki>"


# One range's work, in whichever process reads the range: its value from
# the reader of the range's bytes and the pages kept of what it reads.
_RangeWork = Callable[[DumpReader, Iterable[WikiPage]], object]


def _cpus() -> int:
    """The CPUs forked processes may share: those this process may run on,
    or 1 where ``os.fork`` or ``os.sched_getaffinity`` is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork(child: Callable[[], None]) -> int:
    """Fork a process that runs ``child`` and leaves by ``os._exit``: 0 once
    ``child`` returns, 1 after writing the traceback of what it raised to
    stderr. So it never runs the main process's exit handlers, flushes a
    file it inherited or unwinds into the stack copied from the main
    process. Returns the child's pid."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        child()
        code = 0
    except BaseException:
        import traceback

        os.write(2, traceback.format_exc().encode("utf-8", "replace"))
    finally:
        os._exit(code)


def _send(fp: IO[bytes], value) -> None:
    """One message: the length of ``value``'s marshal bytes, then the bytes."""
    data = marshal.dumps(value)
    fp.write(len(data).to_bytes(8, "little"))
    fp.write(data)
    fp.flush()


def _receive(fp: IO[bytes]):
    """The next message's value; EOFError where the stream ends, cleanly or not."""
    head = fp.read(8)
    size = int.from_bytes(head, "little")
    data = fp.read(size)
    if len(head) < 8 or len(data) < size:
        raise EOFError
    return marshal.loads(data)


def _range_count(size: int) -> int:
    """How many ranges a dump file of ``size`` bytes is split into: one per
    CPU, each at least ``_MIN_RANGE_BYTES``."""
    return max(1, min(_cpus(), size // _MIN_RANGE_BYTES))


def _find_page(fd: int, start: int) -> int:
    """The offset of the first ``<page>`` at or after ``start`` in the file
    ``fd``, or -1."""
    keep = len(_PAGE_START) - 1
    while True:
        window = os.pread(fd, _READ_BYTES, start)
        found = window.find(_PAGE_START)
        if found >= 0:
            return start + found
        if len(window) <= keep:
            return -1
        start += len(window) - keep


def _range_starts(fd: int, size: int, ranges: int) -> tuple[int, list[int]]:
    """Where the header ends, at the file's first ``<page>``, and where each
    range after the first starts: at the first ``<page>`` after each even
    share of the file, each past the one before. Fewer starts where the
    pages run out."""
    header_end = previous = _find_page(fd, 0)
    starts: list[int] = []
    for index in range(1, ranges):
        if previous < 0:
            break
        previous = _find_page(fd, max(size * index // ranges, previous + 1))
        if previous >= 0:
            starts.append(previous)
    return header_end, starts


def _clean_header(header: bytes) -> bool:
    """Whether ``header``, closed by ``_ROOT_END``, parses as a dump with
    no page. Then it ends inside the root element and outside any page,
    comment or CDATA section, as the serial parser is at each range start,
    and it can open every range."""
    reader = DumpReader(io.BytesIO(header + _ROOT_END))
    try:
        return next(reader, None) is None and reader.pages_seen == 0
    except DumpParseError:
        return False


class _Chunks:
    """A binary stream over byte chunks, as ``DumpReader`` reads one: each
    read returns the next non-empty chunk, whatever its size, then b""."""

    def __init__(self, chunks: Iterable[bytes]):
        self._chunks = filter(None, chunks)

    def read(self, n: int = -1) -> bytes:
        return next(self._chunks, b"")


def _read_range(read: Callable[[int], bytes], length: int | None, *digests) -> Iterator[bytes]:
    """Chunks of ``read`` until ``length`` bytes, or the end for None, each
    added to every one of ``digests``."""
    while length is None or length > 0:
        chunk = read(_READ_BYTES if length is None else min(_READ_BYTES, length))
        if not chunk:
            return
        for digest in digests:
            digest.update(chunk)
        if length is not None:
            length -= len(chunk)
        yield chunk


def _range_value(chunks: Iterable[bytes], work: _RangeWork, namespaces):
    """``work`` over the pages of one range's bytes, read as the serial path
    reads the dump."""
    reader = DumpReader(_Chunks(chunks))
    return work(reader, _pages(reader, namespaces))


def _part(
    fd: int, header: bytes, start: int, end: int | None, work: _RangeWork, namespaces, sink: int
) -> None:
    """One forked part: ``work`` over ``header`` and then the bytes of the
    file ``fd`` from ``start`` to ``end`` (its end for None), closed by
    ``_ROOT_END`` unless the range is the last; it sends the SHA-256 of the
    bytes parsed with the value, or None where they do not parse or cannot
    be read or written. It reads with ``pread``, so it never moves the file
    offset it shares with the main process."""
    offset = start

    def read(n: int) -> bytes:
        nonlocal offset
        chunk = os.pread(fd, n, offset)
        offset += len(chunk)
        return chunk

    def chunks() -> Iterator[bytes]:
        yield header
        yield from _read_range(read, None if end is None else end - start, digest)
        if end is not None:
            yield _ROOT_END

    digest = hashlib.sha256(header)
    try:
        value = _range_value(chunks(), work, namespaces)
        message = (digest.hexdigest(), value)
    except (DumpParseError, OSError):
        message = None
    with os.fdopen(sink, "wb") as fp:
        _send(fp, message)


def _split_dump(run: _Run, args, open_range: Callable[[int], _RangeWork]) -> list | None:
    """``--dump`` read in ranges at once, one in this process and one in
    each forked part: range ``index``'s reader and pages go to the work
    that ``open_range(index)`` returns, called here before any part is
    forked. Returns each range's value in page order, and records the
    dump's manifest entry. None where the split does not apply or a range
    does not parse: then nothing is recorded, and the dump is to be read
    serially. Every part is killed if the split fails or stops early, and
    always reaped; one that ends without its value is an OutputError, and
    a range whose bytes differ between its part and this process's digest
    an InputError."""
    if args.dump == "-":
        return None
    namespaces = _parse_namespaces(args.namespaces)
    try:
        info = os.stat(args.dump)
        if not stat.S_ISREG(info.st_mode) or _range_count(info.st_size) < 2:
            return None
        fp = open(args.dump, "rb")
    except OSError:  # the serial path reports it
        return None
    pids: list[int] = []
    sources: list[IO[bytes]] = []
    affinity = os.sched_getaffinity(0)
    try:
        fd = fp.fileno()
        size = os.fstat(fd).st_size
        header_end, starts = _range_starts(fd, size, _range_count(size))
        if not starts:
            return None
        header = os.pread(fd, header_end, 0)
        if not _clean_header(header):
            return None
        ends: list[int | None] = [*starts[1:], None]
        works = [open_range(index) for index in range(len(starts) + 1)]
        # One CPU for each process: a host that does not balance load would
        # run every part on the CPU of the process that forked it.
        cpus = sorted(affinity)
        os.sched_setaffinity(0, {cpus[0]})
        for index, (start, end) in enumerate(zip(starts, ends), 1):
            source, sink = os.pipe()

            def part(
                start=start, end=end, work=works[index], sink=sink, cpu=cpus[index % len(cpus)]
            ) -> None:
                os.sched_setaffinity(0, {cpu})
                _part(fd, header, start, end, work, namespaces, sink)

            pids.append(_fork(part))
            os.close(sink)
            sources.append(os.fdopen(source, "rb"))

        reader = _HashingReader(args.dump, fp)
        header_digest = hashlib.sha256()

        def own() -> Iterator[bytes]:
            yield from _read_range(reader.read, header_end, header_digest)
            yield from _read_range(reader.read, starts[0] - header_end)
            yield _ROOT_END

        try:
            values = [_range_value(own(), works[0], namespaces)]
        except DumpParseError:
            return None
        digests = []
        for start, end in zip(starts, ends):
            digest = header_digest.copy()
            for _ in _read_range(reader.read, None if end is None else end - start, digest):
                pass
            digests.append(digest.hexdigest())
        entry = reader.manifest_entry()

        for index, (start, end) in enumerate(zip(starts, ends)):
            try:
                message, ended = _receive(sources[index]), False
            except EOFError:
                ended = True
            status = os.waitstatus_to_exitcode(os.waitpid(pids[index], 0)[1])
            pids[index] = 0
            if ended or status != 0:
                raise OutputError(f"a dump part ended early (exit status {status})")
            if message is None:
                return None
            digest, value = message
            if digest != digests[index]:
                raise InputError(
                    f"{args.dump}: bytes {start} to {size if end is None else end} "
                    "changed while the dump was read"
                )
            values.append(value)
        run.inputs["dump"] = entry
        return values
    finally:
        for source in sources:
            source.close()
        for pid in pids:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        os.sched_setaffinity(0, affinity)
        fp.close()


def _write_count_outputs(run: _Run, table: CountTable) -> None:
    run.write("counts.csv", write_counts_csv, table)
    run.write("counts.json", write_counts_json, table)
    run.write("unknown.csv", write_unknown_csv, table)


def cmd_count(args, run: _Run) -> None:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    if args.citations is not None and args.jobs != 1:
        raise UsageError("--jobs applies only to --dump, not to --citations")
    registry = _load_registry_arg(run, args.registry)
    if args.citations is not None:
        table = _table_from_citations(run, args.citations, registry)
    else:
        table = _table_from_dump(run, args, registry, args.jobs)
    _write_count_outputs(run, table)
    if args.near_miss:
        hints = near_misses(table.unknown, registry)
        run.write("near_miss.csv", write_csv, ["unknown", "candidate"], hints)
    print(
        f"count: templates={table.template_total} journals={len(table.counts)} "
        f"excluded={table.excluded_count} unknown={len(table.unknown)} "
        f"malformed={table.malformed_total}",
        file=sys.stderr,
    )


def _check_correlate_options(args) -> None:
    """Option errors that no input can cure: a negative size or label
    budget, or an overlap k above its m. A k or m past the number of
    joined journals is found only after the join, as a data error."""
    for flag, value in (
        ("--overlap-k", args.overlap_k),
        ("--overlap-m", args.overlap_m),
        ("--labels", args.labels),
    ):
        if value is not None and value < 0:
            raise UsageError(f"{flag} must not be negative, got {value}")
    if None not in (args.overlap_k, args.overlap_m) and args.overlap_k > args.overlap_m:
        raise UsageError(
            f"--overlap-k {args.overlap_k} is greater than --overlap-m {args.overlap_m}"
        )


def cmd_correlate(args, run: _Run) -> None:
    _check_correlate_options(args)
    _load("wikicite.bibliometrics")
    registry = _load_registry_arg(run, args.registry)
    if args.counts is not None:
        table = run.read("counts", args.counts, read_counts_json)
    else:
        table = _table_from_dump(run, args, registry)
        _write_count_outputs(run, table)
    jcr_rows = run.read("jcr", args.jcr, read_jcr_csv)

    joined = join(table, jcr_rows, registry)
    n_joined = len(joined.metrics)
    if n_joined < 2:
        raise InsufficientDataError(
            f"join produced {n_joined} row(s); at least 2 journals must appear "
            "in both the count table and the journal-statistics file"
        )

    sweep = parse_sweep(args.sweep, n_joined) if args.sweep else list(range(2, n_joined + 1))
    overlap_k = args.overlap_k if args.overlap_k is not None else min(DEFAULT_OVERLAP_K, n_joined)
    overlap_m = args.overlap_m
    if overlap_m is None:
        overlap_m = min(max(DEFAULT_OVERLAP_M, overlap_k), n_joined)
    try:
        results = [r for name in SERIES_NAMES for r in topn_sweep(joined.metrics, name, sweep)]
        overlap = combined_top_overlap(joined.metrics, overlap_k, overlap_m)
    except ValueError as exc:
        raise InsufficientDataError(str(exc)) from None

    run.write("correlations.csv", write_correlations_csv, results)
    run.write("scatter.csv", write_scatter_csv, scatter_export(joined.metrics, args.labels))
    run.write("overlap.csv", write_csv, ["k", "m", "overlap"], [[overlap_k, overlap_m, overlap]])
    audit = {
        "joined": n_joined,
        "wiki_only": joined.wiki_only,
        "jcr_only": joined.jcr_only,
        "jcr_excluded": joined.jcr_excluded,
    }
    run.write("join_audit.json", write_json, audit)
    print(
        f"correlate: joined={n_joined} sweep_points={len(sweep)} "
        f"overlap({overlap_k},{overlap_m})={overlap}",
        file=sys.stderr,
    )


def cmd_growth(args, run: _Run) -> None:
    _load("datetime")
    dated: list[tuple[date, CountTable]] = []
    for index, spec in enumerate(args.table):
        date_text, sep, path = spec.partition("=")
        if not sep or not path:
            raise UsageError(f"--table wants DATE=COUNTS_JSON, got {spec!r}")
        try:
            when = date.fromisoformat(date_text)
        except ValueError:
            raise UsageError(f"bad date {date_text!r} in {spec!r}") from None
        dated.append((when, run.read(f"table_{index}", path, read_counts_json)))

    try:
        series = growth_report(dated)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    rows = [(when.isoformat(), total) for when, total in series]
    run.write("growth.csv", write_csv, ["date", "template_total"], rows)
    print(f"growth: points={len(series)}", file=sys.stderr)


def cmd_gen_fixture(args, run: _Run) -> None:
    _load("wikicite.fixtures")
    try:
        corpus = build_corpus(
            page_count=args.pages,
            citations=args.citations,
            nested=args.nested,
            comment_decoys=args.decoys,
            malformed=args.malformed,
            no_journal=args.no_journal,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    run.write("dump.xml", write_dump, corpus.pages)
    run.write("truth.json", write_json, corpus.truth._asdict())
    data = default_registry_bytes()
    with run.open("registry.tsv") as fp:
        fp.write(data.decode("utf-8"))
    registry = load_registry(io.BytesIO(data))
    scored = sorted(registry.canonical - registry.exclusions)
    rows = ([r[0], r[1], repr(r[2]), r[3]] for r in synthetic_jcr_rows(scored, seed=args.seed))
    header = ["journal", "total_citations", "impact_factor", "articles"]
    run.write("jcr.csv", write_csv, header, rows)
    print(
        f"gen-fixture: pages={corpus.truth.page_count} "
        f"citations={corpus.truth.citations_total}",
        file=sys.stderr,
    )


# wiring -------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="wikicite",
        description="Extract journal citations from MediaWiki XML dumps and "
        "compare per-journal counts against journal statistics.",
    )
    parser.add_argument("--version", action="version", version=f"wikicite {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def add_dump(p, inputs=None):
        """``--dump`` and ``--namespaces``; with ``inputs``, a required
        mutually exclusive group, the dump is one of the alternatives."""
        (p if inputs is None else inputs).add_argument(
            "--dump",
            required=inputs is None,
            help="path to an uncompressed XML export dump, or - for stdin",
        )
        p.add_argument(
            "--namespaces",
            default="0",
            help="comma-separated namespace ids to keep, or 'all' (default: 0)",
        )

    def add_registry(p):
        p.add_argument(
            "--registry",
            default=None,
            help="journal registry file (default: built-in starter registry)",
        )

    p_extract = sub.add_parser("extract", help="pull citation records out of a dump")
    add_dump(p_extract)
    p_extract.add_argument("--out", required=True, help="output directory")
    p_extract.set_defaults(func=cmd_extract)

    p_count = sub.add_parser("count", help="tally citations per canonical journal")
    count_inputs = p_count.add_mutually_exclusive_group(required=True)
    add_dump(p_count, count_inputs)
    count_inputs.add_argument(
        "--citations", default=None, help="citations.jsonl from a previous extract run"
    )
    p_count.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for a per-page pool over --dump, kept for the benchmark "
        "only: above 1 it is slower than the default, which splits a dump file at "
        "page boundaries across the CPUs (default: 1)",
    )
    add_registry(p_count)
    p_count.add_argument(
        "--near-miss",
        action="store_true",
        help="also write near_miss.csv with curation hints for unknowns",
    )
    p_count.add_argument("--out", required=True, help="output directory")
    p_count.set_defaults(func=cmd_count)

    p_corr = sub.add_parser(
        "correlate", help="rank-correlate wiki counts against journal statistics"
    )
    corr_inputs = p_corr.add_mutually_exclusive_group(required=True)
    add_dump(p_corr, corr_inputs)
    corr_inputs.add_argument(
        "--counts", default=None, help="counts.json from a previous count run"
    )
    add_registry(p_corr)
    p_corr.add_argument(
        "--jcr",
        required=True,
        help="CSV of journal,total_citations,impact_factor,articles",
    )
    p_corr.add_argument(
        "--sweep",
        default=None,
        help="sizes for the top-N sweep, e.g. '2..10' or '10,20,50..60' "
        "(default: 2..N over all joined journals)",
    )
    p_corr.add_argument(
        "--labels",
        type=int,
        default=100,
        help="label budget for the scatter export (default: 100)",
    )
    p_corr.add_argument("--overlap-k", type=int, default=None)
    p_corr.add_argument("--overlap-m", type=int, default=None)
    p_corr.add_argument("--out", required=True, help="output directory")
    p_corr.set_defaults(func=cmd_correlate)

    p_growth = sub.add_parser(
        "growth", help="template-total series across dated count tables"
    )
    p_growth.add_argument(
        "--table",
        action="append",
        required=True,
        metavar="DATE=COUNTS_JSON",
        help="dated count table, repeatable, dates strictly increasing",
    )
    p_growth.add_argument("--out", required=True, help="output directory")
    p_growth.set_defaults(func=cmd_growth)

    p_gen = sub.add_parser(
        "gen-fixture", help="generate a synthetic dump with known ground truth"
    )
    p_gen.add_argument("--pages", type=int, default=500)
    p_gen.add_argument("--citations", type=int, default=1000)
    p_gen.add_argument("--nested", type=int, default=50)
    p_gen.add_argument("--decoys", type=int, default=30)
    p_gen.add_argument("--malformed", type=int, default=20)
    p_gen.add_argument("--no-journal", type=int, default=30, dest="no_journal")
    p_gen.add_argument("--seed", type=int, default=20070402)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_gen_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        run = _Run(args.out)
        args.func(args, run)
        run.manifest(args)
        return EXIT_OK
    except UsageError as exc:
        print(f"wikicite: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InsufficientDataError as exc:
        print(f"wikicite: insufficient data: {exc}", file=sys.stderr)
        return EXIT_DATA
    # Every input-format error except DumpParseError is a ValueError; an
    # input that cannot be read or an output that cannot be written exits 2
    # as well.
    except (InputError, OutputError, DumpParseError, ValueError, OSError) as exc:
        kind = "output" if isinstance(exc, OutputError) else "input"
        print(f"wikicite: {kind} error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
