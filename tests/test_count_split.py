"""``count --dump`` and ``correlate --dump`` split at page boundaries: the
split writes what the serial path writes, falls back to the serial path
wherever a range does not parse, and leaves no process and no output
behind when a part fails.

Each path is forced through ``cli._range_count``, whatever the host's CPU
count and the dump's size; ``os.fork`` is wrapped to count the parts, and
``cli._split_table`` to see whether the split's table was used.
"""

from __future__ import annotations

import functools
import os
import signal
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from launch import launch
from test_dump_reader import dumps
from test_extract_worker import _deadline, _record_forks
from wikicite import aggregate, cli
from wikicite.cli import main
from wikicite.dump_reader import WikiPage
from wikicite.fixtures import EXPORT_FOOTER, EXPORT_HEADER, StreamingDumpSource, dump_xml, page_xml

COUNT_OUTPUTS = ("counts.csv", "counts.json", "unknown.csv", "manifest.json")
CORRELATE_OUTPUTS = COUNT_OUTPUTS + (
    "correlations.csv",
    "scatter.csv",
    "overlap.csv",
    "join_audit.json",
)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("split")
    argv = ["gen-fixture", "--pages", "200", "--citations", "1500", "--out", str(base)]
    assert main(argv) == 0
    return base


def _force(monkeypatch, ranges: int) -> tuple[list, list]:
    """Split into ``ranges`` (1: the serial path). Returns the list each
    part's pid lands in and the list of ``_split_table``'s verdicts: True
    where its table was used, False where it fell back."""
    monkeypatch.setattr(cli, "_range_count", lambda size: ranges)
    forks = _record_forks(monkeypatch)
    split_table = cli._split_table
    used: list = []

    def recording_split_table(*args):
        table = split_table(*args)
        used.append(table is not None)
        return table

    monkeypatch.setattr(cli, "_split_table", recording_split_table)
    return forks, used


def _run(argv, out: Path, capsys) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stderr and every output file of one run into ``out``,
    which is emptied first, so runs compare byte for byte, manifests too."""
    for path in out.glob("*"):
        path.unlink()
    with _deadline(60):
        code = main([*argv, "--out", str(out)])
    files = {path.name: path.read_bytes() for path in out.glob("*")} if out.exists() else {}
    return code, capsys.readouterr().err, files


def _serial_and_split(monkeypatch, capsys, tmp_path, argv, ranges=2):
    """Both paths' runs, and the forks and verdicts of the split one."""
    _force(monkeypatch, 1)
    serial = _run(argv, tmp_path / "out", capsys)
    forks, used = _force(monkeypatch, ranges)
    split = _run(argv, tmp_path / "out", capsys)
    return serial, split, forks, used


@pytest.mark.parametrize("ranges", [2, 3])
@pytest.mark.parametrize("namespaces", ["0", "all"])
@pytest.mark.parametrize("command", ["count", "correlate"])
def test_split_and_serial_write_the_same_bytes(
    fixture_dir, tmp_path, monkeypatch, capsys, command, namespaces, ranges
):
    argv = [command, "--dump", str(fixture_dir / "dump.xml"), "--namespaces", namespaces]
    if command == "correlate":
        argv += ["--jcr", str(fixture_dir / "jcr.csv")]
    serial, split, forks, used = _serial_and_split(monkeypatch, capsys, tmp_path, argv, ranges)
    assert (len(forks), used) == (ranges - 1, [True])
    assert split == serial
    assert serial[0] == 0
    assert set(serial[2]) == set(COUNT_OUTPUTS if command == "count" else CORRELATE_OUTPUTS)


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
    serial, split, forks, verdicts = _serial_and_split(monkeypatch, capsys, tmp_path, argv)
    assert (len(forks), verdicts) == (1, [used])
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
    argv = ["count", "--dump", str(dump), "--namespaces", "all"]
    serial, split, forks, used = _serial_and_split(monkeypatch, capsys, tmp_path, argv)
    assert split == serial
    assert serial[0] == 0
    if case == "cut-in-comment":
        assert b"Ghost" not in serial[2]["counts.json"] + serial[2]["unknown.csv"]
    if case == "page-in-cdata-before-the-cut":
        assert (len(forks), used) == (1, [True])
        assert b'"Cell"' in serial[2]["counts.json"]
    elif case == "prefixed-root":  # refused before any part is forked
        assert (len(forks), used) == (0, [False])
    else:
        assert (len(forks), used) == (1, [False])


def _truncated(fixture_dir: Path) -> str:
    data = (fixture_dir / "dump.xml").read_text(encoding="utf-8")
    return data[: data.index("{{cite journal", 3 * len(data) // 4) + 5]


@pytest.mark.parametrize("case", ["dtd", "truncated"])
def test_invalid_dumps_fail_as_the_serial_path_fails(
    fixture_dir, tmp_path, monkeypatch, capsys, case
):
    if case == "dtd":
        text = (fixture_dir / "dump.xml").read_text(encoding="utf-8")
        text = "<!DOCTYPE mediawiki>\n" + text
    else:
        text = _truncated(fixture_dir)
    dump = tmp_path / "dump.xml"
    dump.write_text(text, encoding="utf-8")
    serial, split, forks, used = _serial_and_split(
        monkeypatch, capsys, tmp_path, ["count", "--dump", str(dump)]
    )
    assert split == serial
    assert serial[0] == 2 and serial[2] == {}
    assert f"wikicite: input error: {dump}: " in serial[1]
    assert (len(forks), used) == ((0, [False]) if case == "dtd" else (1, [False]))


def test_killed_part_fails_the_run(fixture_dir, tmp_path, monkeypatch, capsys):
    _force(monkeypatch, 2)
    fork = os.fork

    def killed_fork():
        pid = fork()
        if pid:
            os.kill(pid, signal.SIGKILL)
        return pid

    monkeypatch.setattr(os, "fork", killed_fork)
    argv = ["count", "--dump", str(fixture_dir / "dump.xml")]
    code, err, files = _run(argv, tmp_path / "out", capsys)
    assert code == 2
    assert f"wikicite: output error: a dump part ended early (exit status {-signal.SIGKILL})" in err
    assert files == {}


def test_changed_bytes_fail_the_run(fixture_dir, tmp_path, monkeypatch, capsys):
    """A part that parsed other bytes than this process digested: here one
    more newline after the header, which parses alike."""
    _force(monkeypatch, 2)
    part = cli._part
    monkeypatch.setattr(cli, "_part", lambda fd, header, *args: part(fd, header + b"\n", *args))
    dump = fixture_dir / "dump.xml"
    code, err, files = _run(["count", "--dump", str(dump)], tmp_path / "out", capsys)
    assert code == 2
    assert f"wikicite: input error: {dump}: bytes " in err
    assert "changed while the dump was read" in err
    assert files == {}


@pytest.mark.parametrize(
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
def test_split_runs_where_fork_and_two_cpus_are(
    fixture_dir, tmp_path, monkeypatch, capsys, cpus, has_fork, stdin, forked
):
    """The gate itself, unpatched but for the minimum range size: one CPU,
    no ``os.fork`` or ``--dump -`` run serially; n CPUs fork n - 1 parts.
    The main process binds itself to the first CPU while the parts run,
    and gets its CPUs back after."""
    dump = fixture_dir / "dump.xml"
    monkeypatch.setattr(cli, "_MIN_RANGE_BYTES", 1)
    forks = _record_forks(monkeypatch)
    bound: list = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: bound.append(set(mask)))
    if not has_fork:
        monkeypatch.delattr(os, "fork")
    argv = ["count", "--dump", "-" if stdin else str(dump)]
    with open(dump, "rb") as fp, mock.patch("sys.stdin", mock.Mock(buffer=fp)):
        code, _, files = _run(argv, tmp_path / "out", capsys)
    assert code == 0
    assert len(forks) == forked
    assert bound == ([{0}, cpus] if forked else [])
    assert files["counts.json"]


def test_small_dump_runs_serially(fixture_dir, tmp_path, monkeypatch, capsys):
    forks = _record_forks(monkeypatch)
    size = (fixture_dir / "dump.xml").stat().st_size
    assert size < 2 * cli._MIN_RANGE_BYTES
    assert cli._range_count(size) == 1
    argv = ["count", "--dump", str(fixture_dir / "dump.xml")]
    assert _run(argv, tmp_path / "out", capsys)[0] == 0
    assert forks == []


@settings(max_examples=60, deadline=None)
@given(dumps(), st.integers(2, 3))
def test_split_counts_generated_dumps_as_the_serial_path(data, ranges):
    """On the dump reader's generated dumps, valid or not for a cut."""
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "dump.xml"
        dump.write_bytes(data)
        counts = []
        for forced in (1, ranges):
            out = Path(tmp) / f"out{forced}"
            argv = ["count", "--dump", str(dump), "--namespaces", "all", "--out", str(out)]
            with mock.patch.object(cli, "_range_count", lambda size: forced):
                with _deadline(60):
                    assert main(argv) == 0
            counts.append((out / "counts.json").read_bytes())
        assert counts[0] == counts[1]


def test_split_stays_inside_the_streaming_memory_bound(tmp_path):
    """C2's bound on the split path, which C2 itself, fed through a pipe,
    never takes: on a 64 MB file the main process's ``VmHWM`` and its
    parts' peak stay under 64 MB plus the largest page."""
    source = StreamingDumpSource(64 << 20, seed=0)
    dump = tmp_path / "dump.xml"
    with open(dump, "wb") as fp:
        while chunk := source.read(1 << 20):
            fp.write(chunk)
    ranges = cli._range_count(dump.stat().st_size)
    try:
        report = launch(["count", "--dump", str(dump), "--out", str(tmp_path / "out")])
    finally:
        dump.unlink()
    assert report["exit"] == 0, report["stderr"]
    bound_kb = (64 << 10) + source.largest_page_bytes // 1024
    assert report["peak_kb"] < bound_kb, report
    assert report["children_peak_kb"] < bound_kb, report
    if ranges > 1:
        assert report["children_peak_kb"] > 0, report
