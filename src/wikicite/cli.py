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

Exit codes: 0 success, 1 usage error, 2 input-format or output error,
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
# a command imports just what it runs: the process pool for count --jobs > 1,
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
    to make, open or rename an output is an OutputError."""

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
            pages = reader if namespaces is None else filter_namespaces(reader, namespaces)
            try:
                yield reader, pages
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
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        try:
            os.replace(partial, path)
        except OSError as exc:
            partial.unlink(missing_ok=True)
            raise OutputError(f"{path}: {exc}") from exc
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


def cmd_extract(args, run: _Run) -> None:
    records_total = 0
    malformed_total = 0
    duplicate_params = 0
    pages_scanned = 0
    with run.dump(args) as (reader, pages), run.open("citations.jsonl") as fp:
        for page in pages:
            scan = scan_page(page)
            pages_scanned += 1
            malformed_total += scan.malformed
            duplicate_params += scan.duplicate_params
            records_total += write_jsonl(scan.records, fp)

    summary = {
        "pages_seen": reader.pages_seen,
        "pages_skipped": reader.pages_skipped,
        "pages_scanned": pages_scanned,
        "records": records_total,
        "malformed_total": malformed_total,
        "duplicate_params": duplicate_params,
    }
    run.write("extract_summary.json", write_json, summary)
    print(
        f"extract: pages={pages_scanned} records={records_total} "
        f"malformed={malformed_total} skipped={reader.pages_skipped}",
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
    with run.dump(args) as (_, pages):
        return tally_scans(_scan_stream(pages, jobs), registry)


def _write_count_outputs(run: _Run, table: CountTable) -> None:
    run.write("counts.csv", write_counts_csv, table)
    run.write("counts.json", write_counts_json, table)
    run.write("unknown.csv", write_unknown_csv, table)


def cmd_count(args, run: _Run) -> None:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
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
        "--jobs", type=int, default=1, help="worker processes for --dump (default: 1)"
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
    # output that cannot be made, opened or renamed exits 2 as well.
    except (OutputError, DumpParseError, ValueError, OSError) as exc:
        kind = "output" if isinstance(exc, OutputError) else "input"
        print(f"wikicite: {kind} error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
