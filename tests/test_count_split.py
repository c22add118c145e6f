"""The dump commands split at page boundaries (``count --dump``,
``correlate --dump`` and ``extract``): the split writes what the serial
path writes, falls back to the serial path wherever a range does not
parse, and leaves no process, no output and no temporary file behind when
a part fails.

Each path is forced through ``cli._range_count``, whatever the host's CPU
count and the dump's size; ``os.fork`` is wrapped to count the parts,
``cli._split_dump`` to see whether the split's values came back, and
``cli._Run.dump`` to see whether the dump was read serially.
"""

from __future__ import annotations

import atexit
import errno
import functools
import io
import os
import shutil
import signal
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forks import deadline, record_forks
from launch import launch
from test_dump_reader import dumps
from wikicite import aggregate, cli
from wikicite.cli import main
from wikicite.dump_reader import WikiPage
from wikicite.fixtures import EXPORT_FOOTER, EXPORT_HEADER, StreamingDumpSource, dump_xml, page_xml

COUNT_OUTPUTS = ("counts.csv", "counts.json", "unknown.csv", "manifest.json")
OUTPUTS = {
    "count": COUNT_OUTPUTS,
    "correlate": COUNT_OUTPUTS
    + ("correlations.csv", "scatter.csv", "overlap.csv", "join_audit.json"),
    "extract": ("citations.jsonl", "extract_summary.json", "manifest.json"),
}
# The file each command writes its journals to.
JOURNALS = {"count": "counts.json", "extract": "citations.jsonl"}
# Both kinds of dump command: a table joined in order, and lines appended in order.
COMMANDS = ("count", "extract")

_SPLIT_DUMP = cli._split_dump
_SERIAL_DUMP = cli._Run.dump


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("split")
    argv = ["gen-fixture", "--pages", "200", "--citations", "1500", "--out", str(base)]
    assert main(argv) == 0
    return base


def _force(monkeypatch, ranges: int) -> tuple[list, list]:
    """Split into ``ranges`` (1: the serial path). Returns the list each
    part's pid lands in and the paths the run took, in order: "split" where
    the split's values came back, "serial" where the dump was read
    serially, as it is after a fallback."""
    monkeypatch.setattr(cli, "_range_count", lambda size: ranges)
    forks = record_forks(monkeypatch)
    paths: list = []

    def recording_split_dump(*args):
        values = _SPLIT_DUMP(*args)
        if values is not None:
            paths.append("split")
        return values

    def recording_serial_dump(run, args):
        paths.append("serial")
        return _SERIAL_DUMP(run, args)

    monkeypatch.setattr(cli, "_split_dump", recording_split_dump)
    monkeypatch.setattr(cli._Run, "dump", recording_serial_dump)
    return forks, paths


def _run(argv, out: Path, capsys) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stderr and every file of one run into ``out``, which is
    emptied first, so runs compare byte for byte, manifests too, and a
    ``.partial`` or temporary file left behind shows."""
    for path in out.glob("*"):
        path.unlink()
    with deadline(60):
        code = main([*argv, "--out", str(out)])
    files = {path.name: path.read_bytes() for path in out.glob("*")} if out.exists() else {}
    return code, capsys.readouterr().err, files


def _serial_and_split(monkeypatch, capsys, tmp_path, argv, ranges=2):
    """Both paths' runs, and the forks and paths of the split one."""
    _force(monkeypatch, 1)
    serial = _run(argv, tmp_path / "out", capsys)
    forks, paths = _force(monkeypatch, ranges)
    split = _run(argv, tmp_path / "out", capsys)
    return serial, split, forks, paths


@pytest.mark.parametrize("ranges", [2, 3])
@pytest.mark.parametrize("namespaces", ["0", "all"])
@pytest.mark.parametrize("command", ["count", "correlate", "extract"])
def test_split_and_serial_write_the_same_bytes(
    fixture_dir, tmp_path, monkeypatch, capsys, command, namespaces, ranges
):
    argv = [command, "--dump", str(fixture_dir / "dump.xml"), "--namespaces", namespaces]
    if command == "correlate":
        argv += ["--jcr", str(fixture_dir / "jcr.csv")]
    serial, split, forks, paths = _serial_and_split(monkeypatch, capsys, tmp_path, argv, ranges)
    assert (len(forks), paths) == (ranges - 1, ["split"])
    assert split == serial
    assert serial[0] == 0
    assert set(serial[2]) == set(OUTPUTS[command])


NESTED = "{{cite journal|journal=N" * 50 + "|title=T}}" + "}}" * 49

# Pages whose records are hard to get right, each dump cut between them.
PAGES = {
    "nested": [WikiPage("Nested", 0, f"Lead. {NESTED} tail {{{{cite journal|journal=After}}}}")],
    "hidden": [
        WikiPage(
            "Hidden",
            0,
            "{{cite journal|journal=A<!-- | journal=B -->|title=<nowiki>|x=}}</nowiki>}}\n"
            "{{cite journal <!-- name -->|journal=[[Nature (journal)|Nature]]"
            "|a=<nowiki a=\"1\"/>{{cite journal|journal=Inner<!-- }} -->}}|a=2}}\n"
            "<!-- {{cite journal|journal=Gone}} --> <nowiki>{{cite journal|journal=Gone}}",
        ),
    ],
    "non_ascii": [
        WikiPage(
            "Gödel – 日本 𝔑",
            0,
            "Ünïcode {{Cite_journal|journal=''Zeitschrift für Physik''"
            "|title=Über 𝔑 — “x”"
            "|autor=Ł Ó|journal=Acta Mathematica Sinica (数学学报)}}   "
            "{{cite　journal|journal=Kelvin}}",
        ),
        WikiPage("Ǆ", 0, "{{cite journal|journal=Nature}}" * 3),
    ],
    "namespaces": [
        WikiPage("A", 0, "{{cite journal|journal=Nature}}"),
        WikiPage("Talk:A", 1, "{{cite journal|journal=Science}} {{cite journal|journal=Cell}}"),
        WikiPage("User:B", 2, "no citations {{{{"),
        WikiPage("C", 0, "{{cite journal|journal=Lancet|journal=BMJ}}"),
    ],
}


@pytest.mark.parametrize("case", PAGES)
def test_split_and_serial_extract_the_same_records(tmp_path, monkeypatch, capsys, case):
    """Each case's pages twice over, so that the cut falls between them."""
    dump = tmp_path / "dump.xml"
    dump.write_text(dump_xml(PAGES[case] * 2), encoding="utf-8")
    argv = ["extract", "--dump", str(dump), "--namespaces", "all"]
    serial, split, forks, paths = _serial_and_split(monkeypatch, capsys, tmp_path, argv)
    assert (len(forks), paths) == (1, ["split"])
    assert split == serial
    assert serial[0] == 0 and serial[2]["citations.jsonl"]


def _unknown_page(title: str, journals: list[str]) -> WikiPage:
    """A page citing ``journals``, padded so that every such page of one
    dump is the same size and the midpoint falls inside the first."""
    cites = "".join(f"{{{{cite journal|journal={journal}}}}} " for journal in journals)
    return WikiPage(title, 0, cites + "x" * (400 - len(cites)))


@pytest.mark.parametrize(
    "second, used, kept",
    [
        (["Zq3", "Zq4", "Zq1"], True, "Zq1,2\nZq2,1\nZq3,1\n"),
        (["Zq3", "Zq4", "Zq5", "Zq6"], False, "Zq1,1\nZq2,1\nZq3,1\n"),
    ],
    ids=["later-within-cap", "later-overflows"],
)
def test_unknown_cap_holds_across_the_cut(tmp_path, monkeypatch, capsys, second, used, kept):
    """With a cap of 3, Zq1 and Zq2 before the cut and ``second`` after
    it: one pass keeps Zq1, Zq2 and Zq3 and spills the rest, and so does
    the split. Where the later range overflows its own cap, the join says
    it cannot, and the dump is tallied serially."""
    for name in ("tally_scans", "merge_in_order"):
        capped = functools.partial(getattr(aggregate, name), unknown_cap=3)
        monkeypatch.setattr(cli, name, capped)
    dump = tmp_path / "dump.xml"
    pages = [_unknown_page("A", ["Zq1", "Zq2"]), _unknown_page("B", second)]
    dump.write_text(dump_xml(pages), encoding="utf-8")
    argv = ["count", "--dump", str(dump)]
    serial, split, forks, paths = _serial_and_split(monkeypatch, capsys, tmp_path, argv)
    assert (len(forks), paths) == (1, ["split"] if used else ["split", "serial"])
    assert split == serial
    assert serial[2]["unknown.csv"].decode() == "journal_raw,count\n" + kept


def _padded(text: str) -> WikiPage:
    return WikiPage("Pad", 0, "{{cite journal|journal=Nature}} " + text)


def _dump_around(middle: str) -> str:
    """A dump whose midpoint falls inside ``middle``: small pages on either
    side of it, and a page after it that only a correct split counts."""
    before = page_xml(_padded("before"))
    after = page_xml(WikiPage("After", 0, "{{cite journal|journal=Science}}"))
    return EXPORT_HEADER + before + middle + after + EXPORT_FOOTER


_GHOSTS = 40 * (
    "<page><title>Ghost</title><revision><text>{{cite journal|journal=Ghost}}</text>"
    "</revision></page>"
)

# Valid dumps, each tallied by the serial path in the end.
VALID = {
    "cut-in-cdata": _dump_around(
        f"  <page><title>C</title><revision><text><![CDATA[{_GHOSTS}]]></text>"
        "</revision></page>\n"
    ),
    "cut-in-comment": _dump_around("  <!-- " + _GHOSTS + " -->\n"),
    "page-in-cdata-before-the-cut": _dump_around(
        "  <page><title>C</title><revision><text>"
        "<![CDATA[<page>{{cite journal|journal=Cell}}]]></text></revision></page>\n"
        + page_xml(_padded("y" * len(_GHOSTS)))
    ),
    "prefixed-root": EXPORT_HEADER.replace("<mediawiki ", '<mw:mediawiki xmlns:mw="x" ', 1)
    + "".join(page_xml(_padded(f"page {n}")) for n in range(20))
    + "</mw:mediawiki>\n",
}


@pytest.mark.parametrize("case", VALID)
def test_valid_dumps_the_split_cannot_cut_fall_back_to_serial(tmp_path, monkeypatch, capsys, case):
    dump = tmp_path / "dump.xml"
    dump.write_text(VALID[case], encoding="utf-8")
    for command in COMMANDS:
        argv = [command, "--dump", str(dump), "--namespaces", "all"]
        serial, split, forks, paths = _serial_and_split(monkeypatch, capsys, tmp_path, argv)
        assert split == serial, command
        assert serial[0] == 0
        assert set(serial[2]) == set(OUTPUTS[command])
        if case == "cut-in-comment":
            assert b"Ghost" not in b"".join(serial[2].values())
        if case == "page-in-cdata-before-the-cut":
            assert (len(forks), paths) == (1, ["split"])
            assert b'"Cell"' in serial[2][JOURNALS[command]]
        elif case == "prefixed-root":  # refused before any part is forked
            assert (len(forks), paths) == (0, ["serial"])
        else:
            assert (len(forks), paths) == (1, ["serial"])


def _truncated(fixture_dir: Path) -> str:
    data = (fixture_dir / "dump.xml").read_text(encoding="utf-8")
    return data[: data.index("{{cite journal", 3 * len(data) // 4) + 5]


def _invalid_dump(fixture_dir: Path, tmp_path: Path, case: str) -> Path:
    if case == "dtd":
        text = (fixture_dir / "dump.xml").read_text(encoding="utf-8")
        text = "<!DOCTYPE mediawiki>\n" + text
    else:
        text = _truncated(fixture_dir)
    dump = tmp_path / "dump.xml"
    dump.write_text(text, encoding="utf-8")
    return dump


def _fails_as_the_serial_path_fails(monkeypatch, capsys, tmp_path, command, dump, case):
    serial, split, forks, paths = _serial_and_split(
        monkeypatch, capsys, tmp_path, [command, "--dump", str(dump)]
    )
    assert split == serial
    assert serial[0] == 2 and serial[2] == {}
    assert f"wikicite: input error: {dump}: " in serial[1]
    assert (len(forks), paths) == ((0 if case == "dtd" else 1), ["serial"])


@pytest.mark.parametrize("case", ["dtd", "truncated"])
def test_invalid_dumps_fail_as_the_serial_path_fails(
    fixture_dir, tmp_path, monkeypatch, capsys, case
):
    dump = _invalid_dump(fixture_dir, tmp_path, case)
    _fails_as_the_serial_path_fails(monkeypatch, capsys, tmp_path, "count", dump, case)


@pytest.mark.parametrize("case", ["dtd", "truncated"])
def test_invalid_dumps_leave_no_extract_output(fixture_dir, tmp_path, monkeypatch, capsys, case):
    """On the truncated dump, the main process's records, written before
    the fallback, and the part's temporary file are gone: serial's error,
    and nothing in ``--out``."""
    dump = _invalid_dump(fixture_dir, tmp_path, case)
    _fails_as_the_serial_path_fails(monkeypatch, capsys, tmp_path, "extract", dump, case)


def _killed_part_fails(command, dump, tmp_path, monkeypatch, capsys):
    _force(monkeypatch, 2)
    fork = os.fork

    def killed_fork():
        pid = fork()
        if pid:
            os.kill(pid, signal.SIGKILL)
        return pid

    monkeypatch.setattr(os, "fork", killed_fork)
    code, err, files = _run([command, "--dump", str(dump)], tmp_path / "out", capsys)
    assert code == 2
    assert f"wikicite: output error: a dump part ended early (exit status {-signal.SIGKILL})" in err
    assert files == {}


def test_killed_part_fails_the_run(fixture_dir, tmp_path, monkeypatch, capsys):
    _killed_part_fails("count", fixture_dir / "dump.xml", tmp_path, monkeypatch, capsys)


def test_killed_part_fails_extract(fixture_dir, tmp_path, monkeypatch, capsys):
    _killed_part_fails("extract", fixture_dir / "dump.xml", tmp_path, monkeypatch, capsys)


def test_failing_part_fails_the_run(fixture_dir, tmp_path, monkeypatch, capfd):
    """A part that raises writes its traceback and exits 1."""
    parent = os.getpid()
    scan_page = cli.scan_page

    def failing_scan_page(*args, **kwargs):
        if os.getpid() != parent:
            raise ValueError("scan failed")
        return scan_page(*args, **kwargs)

    _force(monkeypatch, 2)
    monkeypatch.setattr(cli, "scan_page", failing_scan_page)
    for command in COMMANDS:
        argv = [command, "--dump", str(fixture_dir / "dump.xml")]
        code, err, files = _run(argv, tmp_path / "out", capfd)
        assert code == 2
        assert "ValueError: scan failed" in err
        assert "wikicite: output error: a dump part ended early (exit status 1)" in err
        assert files == {}


def test_changed_bytes_fail_the_run(fixture_dir, tmp_path, monkeypatch, capsys):
    """A part that parsed other bytes than this process digested: here one
    more newline after the header, which parses alike."""
    _force(monkeypatch, 2)
    part = cli._part
    monkeypatch.setattr(cli, "_part", lambda fd, header, *args: part(fd, header + b"\n", *args))
    dump = fixture_dir / "dump.xml"
    for command in COMMANDS:
        code, err, files = _run([command, "--dump", str(dump)], tmp_path / "out", capsys)
        assert code == 2
        assert f"wikicite: input error: {dump}: bytes " in err
        assert "changed while the dump was read" in err
        assert files == {}


def _failing_write_jsonl(records, fp):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("ranges", [1, 2], ids=["serial", "split"])
def test_failed_write_names_the_output(fixture_dir, tmp_path, monkeypatch, capsys, ranges):
    """An OSError while ``citations.jsonl`` is written is an output error
    naming it, on either path, and ``--out`` is left empty."""
    forks, _ = _force(monkeypatch, ranges)
    monkeypatch.setattr(cli, "write_jsonl", _failing_write_jsonl)
    out = tmp_path / "out"
    code, err, files = _run(["extract", "--dump", str(fixture_dir / "dump.xml")], out, capsys)
    assert code == 2
    assert f"wikicite: output error: {out / 'citations.jsonl'}: [Errno 28] No space left" in err
    assert len(forks) == ranges - 1
    assert files == {}


def test_failed_write_kills_and_reaps_every_part(fixture_dir, tmp_path, monkeypatch, capsys):
    """A write that fails in the main process leaves the parts' values
    unread: each part is killed and reaped."""
    forks, _ = _force(monkeypatch, 3)
    reaped = []
    waitpid = os.waitpid

    def recording_waitpid(pid, options):
        result = waitpid(pid, options)
        reaped.append(result[0])
        return result

    monkeypatch.setattr(cli, "write_jsonl", _failing_write_jsonl)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    argv = ["extract", "--dump", str(fixture_dir / "dump.xml")]
    code, err, files = _run(argv, tmp_path / "out", capsys)
    assert code == 2
    assert "No space left on device" in err
    assert len(forks) == 2
    assert reaped == forks
    assert files == {}


@pytest.mark.parametrize("ranges", [1, 2], ids=["serial", "split"])
def test_failed_dump_read_names_the_dump(fixture_dir, tmp_path, monkeypatch, capsys, ranges):
    """An OSError from the dump partway through the run, read inside the
    block that writes ``citations.jsonl``, is an input error naming the
    dump, and leaves ``--out`` empty. On the split, the main process's
    read fails once its own range is written."""
    dump = fixture_dir / "dump.xml"
    half = dump.stat().st_size // 2

    class FailingDump(io.FileIO):
        def read(self, n=-1):
            if self.tell() >= half:
                raise OSError(errno.EIO, "Input/output error")
            return super().read(n)

    def dump_open(file, *args, **kwargs):
        if os.fspath(file) == str(dump):
            return FailingDump(file)
        return open(file, *args, **kwargs)

    forks, _ = _force(monkeypatch, ranges)
    monkeypatch.setattr(cli, "open", dump_open, raising=False)
    written = []
    write_jsonl = cli.write_jsonl

    def recording_write_jsonl(records, fp):
        written.append(len(records))
        return write_jsonl(records, fp)

    monkeypatch.setattr(cli, "write_jsonl", recording_write_jsonl)
    code, err, files = _run(["extract", "--dump", str(dump)], tmp_path / "out", capsys)
    assert code == 2
    assert f"wikicite: input error: {dump}: [Errno 5] Input/output error" in err
    assert len(forks) == ranges - 1
    assert sum(written) > 0  # it failed partway, after some records were written
    assert files == {}


def test_part_leaves_without_running_exit_handlers(fixture_dir, tmp_path, monkeypatch, capsys):
    """A part ends by ``os._exit``: an interpreter exit would run the main
    process's exit handlers and flush files it inherited, the ``.partial``
    output among them."""
    parent = os.getpid()
    marker = tmp_path / "exit-handler-ran"

    def note_exit():
        if os.getpid() != parent:
            marker.touch()

    forks, _ = _force(monkeypatch, 2)
    atexit.register(note_exit)
    try:
        for command in COMMANDS:
            argv = [command, "--dump", str(fixture_dir / "dump.xml")]
            assert _run(argv, tmp_path / "out", capsys)[0] == 0
    finally:
        atexit.unregister(note_exit)
    assert len(forks) == len(COMMANDS)
    assert not marker.exists()


# The gate's inputs: the CPUs allowed, whether ``os.fork`` exists, whether
# the dump is read from stdin, and the parts it forks.
GATE = pytest.mark.parametrize(
    "cpus, has_fork, stdin, forked",
    [
        ({0}, True, False, 0),
        ({0, 1}, False, False, 0),
        ({0, 1}, True, True, 0),
        ({0, 1}, True, False, 1),
        ({0, 1, 2}, True, False, 2),
    ],
    ids=["one-cpu", "no-fork", "stdin", "two-cpus", "three-cpus"],
)


def _gate(command, dump, tmp_path, monkeypatch, capsys, cpus, has_fork, stdin, forked):
    """The gate itself, unpatched but for the minimum range size: one CPU,
    no ``os.fork`` or ``--dump -`` run serially; n CPUs fork n - 1 parts.
    The main process binds itself to the first CPU while the parts run,
    and gets its CPUs back after."""
    monkeypatch.setattr(cli, "_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    if not has_fork:
        monkeypatch.delattr(os, "fork")
    forks = record_forks(monkeypatch) if has_fork else []
    bound: list = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: bound.append(set(mask)))
    argv = [command, "--dump", "-" if stdin else str(dump)]
    with open(dump, "rb") as fp, mock.patch("sys.stdin", mock.Mock(buffer=fp)):
        code, _, files = _run(argv, tmp_path / "out", capsys)
    assert code == 0
    assert len(forks) == forked
    assert bound == ([{0}, cpus] if forked else [])
    assert files[JOURNALS[command]]


@GATE
def test_split_runs_where_fork_and_two_cpus_are(
    fixture_dir, tmp_path, monkeypatch, capsys, cpus, has_fork, stdin, forked
):
    gate = (cpus, has_fork, stdin, forked)
    _gate("count", fixture_dir / "dump.xml", tmp_path, monkeypatch, capsys, *gate)


@GATE
def test_extract_splits_where_fork_and_two_cpus_are(
    fixture_dir, tmp_path, monkeypatch, capsys, cpus, has_fork, stdin, forked
):
    gate = (cpus, has_fork, stdin, forked)
    _gate("extract", fixture_dir / "dump.xml", tmp_path, monkeypatch, capsys, *gate)


def test_small_dump_runs_serially(fixture_dir, tmp_path, monkeypatch, capsys):
    forks = record_forks(monkeypatch)
    size = (fixture_dir / "dump.xml").stat().st_size
    assert size < 2 * cli._MIN_RANGE_BYTES
    assert cli._range_count(size) == 1
    for command in COMMANDS:
        argv = [command, "--dump", str(fixture_dir / "dump.xml")]
        assert _run(argv, tmp_path / "out", capsys)[0] == 0
    assert forks == []


@settings(max_examples=60, deadline=None)
@given(dumps(), st.integers(2, 3))
def test_split_counts_generated_dumps_as_the_serial_path(data, ranges):
    """On the dump reader's generated dumps, valid or not for a cut, under
    ``--namespaces 0`` and ``all``: the split writes serial's
    ``counts.json`` and ``citations.jsonl``, and ``count --citations`` on
    either ``extract`` counts what ``count --dump`` counts."""
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "dump.xml"
        dump.write_bytes(data)

        def run(name: str, *argv: str) -> bytes:
            """The ``name`` file of the run's output."""
            out = Path(tmp) / "out"
            shutil.rmtree(out, ignore_errors=True)
            with deadline(60):
                assert main([*argv, "--out", str(out)]) == 0
            return (out / name).read_bytes()

        for namespaces in ("0", "all"):
            argv = ("--dump", str(dump), "--namespaces", namespaces)
            written = {}
            for forced in (1, ranges):
                with mock.patch.object(cli, "_range_count", lambda size: forced):
                    written["count", forced] = run("counts.json", "count", *argv)
                    written["extract", forced] = run("citations.jsonl", "extract", *argv)
                    citations = Path(tmp) / f"extract-{forced}"
                    shutil.rmtree(citations, ignore_errors=True)
                    (Path(tmp) / "out").rename(citations)
                    citations_argv = ("--citations", str(citations / "citations.jsonl"))
                    written["citations", forced] = run("counts.json", "count", *citations_argv)
            assert written["count", ranges] == written["count", 1]
            assert written["extract", ranges] == written["extract", 1]
            assert written["citations", 1] == written["citations", ranges] == written["count", 1]


def test_split_stays_inside_the_streaming_memory_bound(tmp_path):
    """C2's bound on the split path, which C2 itself, fed through a pipe,
    never takes: on a 64 MB file each command's main process ``VmHWM`` and
    its parts' peak stay under 64 MB plus the largest page."""
    source = StreamingDumpSource(64 << 20, seed=0)
    dump = tmp_path / "dump.xml"
    with open(dump, "wb") as fp:
        while chunk := source.read(1 << 20):
            fp.write(chunk)
    ranges = cli._range_count(dump.stat().st_size)
    bound_kb = (64 << 10) + source.largest_page_bytes // 1024
    try:
        for command in COMMANDS:
            out = tmp_path / command
            report = launch([command, "--dump", str(dump), "--out", str(out)])
            assert report["exit"] == 0, report["stderr"]
            assert report["peak_kb"] < bound_kb, (command, report)
            assert report["children_peak_kb"] < bound_kb, (command, report)
            if ranges > 1:
                assert report["children_peak_kb"] > 0, (command, report)
            shutil.rmtree(out)
    finally:
        dump.unlink()
