"""Command-line pipeline: extract, count, correlate, growth, gen-fixture.

Every stage reads and writes plain files so long runs can be resumed at
stage boundaries, and every run drops a manifest.json recording the exact
configuration, the files written and each input's digest. Each input is
read once, and its digest is taken from exactly the bytes parsed. A file
appears under its final name only once complete (it is written as
``<name>.partial`` and renamed), so a failed run never leaves a partial
stage file for the next stage to accept. Outputs are byte-identical across
repeated runs on identical inputs.

Exit codes: 0 success, 1 usage error, 2 input-format error,
3 data-insufficiency error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import sys
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator

from . import __version__
from .aggregate import (
    CountTable,
    growth_report,
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
# a command imports just what it runs: the process pool for --jobs > 1, the
# statistics for correlate, the generator for gen-fixture, dates for growth.
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# input plumbing -----------------------------------------------------


class _HashingReader(io.RawIOBase):
    """One input, read as a binary stream that digests bytes as they are
    read, so the input is hashed in the same single pass that parses it.
    It reads ``stream`` if given, else the file ``path_label``, which it
    opens once and closes; a given stream, such as stdin, is left open."""

    _owns_stream = False  # for close(), which io's finalizer calls even if __init__ raised

    def __init__(self, path_label: str, stream=None):
        self._stream = open(path_label, "rb") if stream is None else stream
        self._owns_stream = stream is None
        self._digest = hashlib.sha256()
        self.path_label = path_label
        self.bytes_read = 0

    def readable(self) -> bool:
        return True

    def read(self, n: int = -1) -> bytes:
        chunk = self._stream.read(n)
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


def _read_input(path_arg: str, parse, stream=None, text: bool = True) -> tuple:
    """``parse`` of one input, given as its ``_HashingReader`` or, for
    ``text``, decoded as ``open(path, encoding="utf-8")`` decodes it; and
    the input's manifest entry, digested from the same bytes."""
    with _HashingReader(path_arg, stream) as reader:
        source = io.TextIOWrapper(reader, encoding="utf-8") if text else reader
        return parse(source), reader.manifest_entry()


def _load_registry_arg(registry_arg: str | None) -> tuple[JournalRegistry, dict]:
    """The registry, a file's or the built-in's, and its manifest entry."""
    # Parsed through load_registry, which perfbench's registry.load probe times.
    if registry_arg is not None:
        return _read_input(registry_arg, load_registry, text=False)
    builtin = io.BytesIO(default_registry_bytes())
    return _read_input("<builtin starter registry>", load_registry, builtin, text=False)


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


def _dump_pages(args) -> tuple[DumpReader, Iterable[WikiPage], _HashingReader]:
    """The ``--dump`` reader, its pages in the ``--namespaces`` kept, and
    the stream that digests the dump as it is read, for the caller to close."""
    namespaces = _parse_namespaces(args.namespaces)
    stream = _HashingReader(args.dump, sys.stdin.buffer if args.dump == "-" else None)
    reader = DumpReader(stream)
    pages = reader if namespaces is None else filter_namespaces(reader, namespaces)
    return reader, pages, stream


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


def _scan_stream(
    pages: Iterable[WikiPage], jobs: int, journal_only: bool = False
) -> Iterator[PageScan]:
    """Per-page scans, optionally fanned out to worker processes. The
    submission window is bounded so memory stays streaming-sized, and
    results come back in page order. ``journal_only`` asks for the scan
    that counting needs (see :func:`scan_page`)."""
    if jobs <= 1:
        for page in pages:
            yield scan_page(page, journal_only=journal_only)
        return
    _load("concurrent.futures.process")
    window: deque = deque()
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        for page in pages:
            if len(window) >= jobs * 4:
                yield window.popleft().result()
            window.append(executor.submit(scan_page, page, journal_only=journal_only))
        while window:
            yield window.popleft().result()


# output plumbing ----------------------------------------------------


class _Outputs:
    """One stage's ``--out`` directory. Each file is written as
    ``<name>.partial`` and renamed to ``name`` only once complete, so a
    failed run leaves no partial file under a final name, and the manifest
    lists exactly the files written."""

    def __init__(self, out_arg: str):
        self.dir = Path(out_arg)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.names: list[str] = []

    @contextmanager
    def open(self, name: str) -> Iterator[IO[str]]:
        partial = self.dir / f"{name}.partial"
        try:
            with open(partial, "w", encoding="utf-8") as fp:
                yield fp
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        os.replace(partial, self.dir / name)
        self.names.append(name)

    def json(self, name: str, obj) -> None:
        with self.open(name) as fp:
            write_json(obj, fp)

    def csv(self, name: str, header: list[str], rows: Iterable) -> None:
        with self.open(name) as fp:
            write_csv(header, rows, fp)

    def manifest(self, args, inputs: dict) -> None:
        """The run's configuration is every parsed option of its subcommand."""
        config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
        manifest = {
            "tool": "wikicite",
            "version": __version__,
            "command": args.command,
            "config": config,
            "inputs": inputs,
            "outputs": sorted(self.names),
        }
        self.json("manifest.json", manifest)


# subcommands --------------------------------------------------------


def cmd_extract(args) -> int:
    out = _Outputs(args.out)
    reader, pages, dump_stream = _dump_pages(args)

    records_total = 0
    malformed_total = 0
    duplicate_params = 0
    pages_scanned = 0
    with dump_stream, out.open("citations.jsonl") as fp:
        for scan in _scan_stream(pages, args.jobs):
            pages_scanned += 1
            malformed_total += scan.malformed
            duplicate_params += scan.duplicate_params
            records_total += write_jsonl(scan.records, fp)
        inputs = {"dump": dump_stream.manifest_entry()}

    summary = {
        "pages_seen": reader.pages_seen,
        "pages_skipped": reader.pages_skipped,
        "pages_scanned": pages_scanned,
        "records": records_total,
        "malformed_total": malformed_total,
        "duplicate_params": duplicate_params,
    }
    out.json("extract_summary.json", summary)
    out.manifest(args, inputs)
    print(
        f"extract: pages={pages_scanned} records={records_total} "
        f"malformed={malformed_total} skipped={reader.pages_skipped}",
        file=sys.stderr,
    )
    return EXIT_OK


def _summary_count(summary, key: str, summary_path: Path) -> int:
    value = summary.get(key) if isinstance(summary, dict) else None
    if type(value) is not int or value < 0:
        raise ValueError(f"{summary_path}: {key} must be a non-negative integer")
    return value


def _table_from_citations(path: str, registry: JournalRegistry) -> tuple[CountTable, dict]:
    """Tally an extract run's records, checked against its summary."""
    inputs: dict = {}
    malformed_total, expected_records = 0, None
    summary_path = Path(path).with_name("extract_summary.json")
    if summary_path.exists():
        try:
            summary, inputs["extract_summary"] = _read_input(str(summary_path), json.load)
        except RecursionError:  # json's C scanner recurses once per nesting level
            raise ValueError(f"{summary_path}: nested too deeply to parse") from None
        malformed_total = _summary_count(summary, "malformed_total", summary_path)
        expected_records = _summary_count(summary, "records", summary_path)
    else:
        print(
            "count: no extract_summary.json next to the citations file; "
            "malformed_total set to 0",
            file=sys.stderr,
        )
    table, inputs["citations"] = _read_input(
        path, lambda fp: tally(read_jsonl(fp), registry, malformed_total=malformed_total)
    )
    if expected_records is not None and table.template_total != expected_records:
        raise ValueError(
            f"{path} holds {table.template_total} records but "
            f"{summary_path} says {expected_records}: truncated or stale"
        )
    return table, inputs


def _table_from_dump(args, registry: JournalRegistry) -> tuple[CountTable, dict]:
    _, pages, dump_stream = _dump_pages(args)
    with dump_stream:
        table = tally_scans(_scan_stream(pages, args.jobs, journal_only=True), registry)
        return table, {"dump": dump_stream.manifest_entry()}


def _write_count_outputs(out: _Outputs, table: CountTable) -> None:
    with out.open("counts.csv") as fp:
        write_counts_csv(table, fp)
    with out.open("counts.json") as fp:
        write_counts_json(table, fp)
    with out.open("unknown.csv") as fp:
        write_unknown_csv(table, fp)


def cmd_count(args) -> int:
    out = _Outputs(args.out)
    registry, registry_entry = _load_registry_arg(args.registry)
    if args.citations is not None:
        table, inputs = _table_from_citations(args.citations, registry)
    else:
        table, inputs = _table_from_dump(args, registry)
    inputs["registry"] = registry_entry
    _write_count_outputs(out, table)
    if args.near_miss:
        out.csv("near_miss.csv", ["unknown", "candidate"], near_misses(table.unknown, registry))

    out.manifest(args, inputs)
    print(
        f"count: templates={table.template_total} journals={len(table.counts)} "
        f"excluded={table.excluded_count} unknown={len(table.unknown)} "
        f"malformed={table.malformed_total}",
        file=sys.stderr,
    )
    return EXIT_OK


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


def cmd_correlate(args) -> int:
    _check_correlate_options(args)
    _load("wikicite.bibliometrics")
    out = _Outputs(args.out)
    registry, registry_entry = _load_registry_arg(args.registry)
    if args.counts is not None:
        table, counts_entry = _read_input(args.counts, read_counts_json)
        inputs = {"counts": counts_entry}
    else:
        table, inputs = _table_from_dump(args, registry)
        _write_count_outputs(out, table)
    inputs["registry"] = registry_entry

    jcr_rows, inputs["jcr"] = _read_input(args.jcr, read_jcr_csv)

    joined = join(table, jcr_rows, registry)
    n_joined = len(joined.metrics)
    if n_joined < 2:
        raise InsufficientDataError(
            f"join produced {n_joined} row(s); at least 2 journals must appear "
            "in both the count table and the journal-statistics file"
        )

    sweep = parse_sweep(args.sweep, n_joined) if args.sweep else list(range(2, n_joined + 1))
    try:
        results = []
        for series_name in SERIES_NAMES:
            results.extend(topn_sweep(joined.metrics, series_name, sweep))
    except ValueError as exc:
        raise InsufficientDataError(str(exc)) from None

    overlap_k = args.overlap_k if args.overlap_k is not None else min(DEFAULT_OVERLAP_K, n_joined)
    overlap_m = args.overlap_m
    if overlap_m is None:
        overlap_m = min(max(DEFAULT_OVERLAP_M, overlap_k), n_joined)
    try:
        overlap = combined_top_overlap(joined.metrics, overlap_k, overlap_m)
    except ValueError as exc:
        raise InsufficientDataError(str(exc)) from None

    with out.open("correlations.csv") as fp:
        write_correlations_csv(results, fp)
    with out.open("scatter.csv") as fp:
        write_scatter_csv(scatter_export(joined.metrics, args.labels), fp)
    out.csv("overlap.csv", ["k", "m", "overlap"], [[overlap_k, overlap_m, overlap]])
    audit = {
        "joined": n_joined,
        "wiki_only": joined.wiki_only,
        "jcr_only": joined.jcr_only,
        "jcr_excluded": joined.jcr_excluded,
    }
    out.json("join_audit.json", audit)

    out.manifest(args, inputs)
    print(
        f"correlate: joined={n_joined} sweep_points={len(sweep)} "
        f"overlap({overlap_k},{overlap_m})={overlap}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_growth(args) -> int:
    _load("datetime")
    out = _Outputs(args.out)
    dated: list[tuple[date, CountTable]] = []
    inputs: dict = {}
    for index, spec in enumerate(args.table):
        date_text, sep, path = spec.partition("=")
        if not sep or not path:
            raise UsageError(f"--table wants DATE=COUNTS_JSON, got {spec!r}")
        try:
            when = date.fromisoformat(date_text)
        except ValueError:
            raise UsageError(f"bad date {date_text!r} in {spec!r}") from None
        table, inputs[f"table_{index}"] = _read_input(path, read_counts_json)
        dated.append((when, table))

    try:
        series = growth_report(dated)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    rows = [(when.isoformat(), total) for when, total in series]
    out.csv("growth.csv", ["date", "template_total"], rows)
    out.manifest(args, inputs)
    print(f"growth: points={len(series)}", file=sys.stderr)
    return EXIT_OK


def cmd_gen_fixture(args) -> int:
    _load("wikicite.fixtures")
    out = _Outputs(args.out)
    corpus = build_corpus(
        page_count=args.pages,
        citations=args.citations,
        nested=args.nested,
        comment_decoys=args.decoys,
        malformed=args.malformed,
        no_journal=args.no_journal,
        seed=args.seed,
    )
    with out.open("dump.xml") as fp:
        write_dump(corpus.pages, fp)
    out.json("truth.json", corpus.truth._asdict())
    data = default_registry_bytes()
    with out.open("registry.tsv") as fp:
        fp.write(data.decode("utf-8"))
    registry = load_registry(io.BytesIO(data))
    scored = sorted(registry.canonical - registry.exclusions)
    rows = ([r[0], r[1], repr(r[2]), r[3]] for r in synthetic_jcr_rows(scored, seed=args.seed))
    out.csv("jcr.csv", ["journal", "total_citations", "impact_factor", "articles"], rows)

    out.manifest(args, {})
    print(
        f"gen-fixture: pages={corpus.truth.page_count} "
        f"citations={corpus.truth.citations_total}",
        file=sys.stderr,
    )
    return EXIT_OK


# wiring -------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="wikicite",
        description="Extract journal citations from MediaWiki XML dumps and "
        "compare per-journal counts against journal statistics.",
    )
    parser.add_argument("--version", action="version", version=f"wikicite {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_dump(p, inputs=None):
        """``--dump`` and its scan options; with ``inputs``, a required
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
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for page scanning (default: 1)",
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
        if not hasattr(args, "func"):
            raise UsageError("a subcommand is required (see --help)")
        return args.func(args)
    except UsageError as exc:
        print(f"wikicite: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InsufficientDataError as exc:
        print(f"wikicite: insufficient data: {exc}", file=sys.stderr)
        return EXIT_DATA
    # Every input-format error except DumpParseError is a ValueError.
    except (DumpParseError, ValueError, OSError) as exc:
        print(f"wikicite: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
