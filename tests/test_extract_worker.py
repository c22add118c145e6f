"""``extract``'s citation worker: the forked path writes what the serial
path writes, ships little more than the citations' text, and leaves no
process and no output behind when the run fails.

Each path is forced through ``cli._use_worker``, whatever the host's CPU
count, and small batches (``cli._FIRST_BATCH_CHARS``, ``cli._BATCH_CHARS``)
make the worker take many of them.
"""

from __future__ import annotations

import atexit
import io
import marshal
import os
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from wikicite import cli
from wikicite.cli import main
from wikicite.dump_reader import WikiPage
from wikicite.fixtures import dump_xml

OUTPUTS = ("citations.jsonl", "extract_summary.json")

NESTED = "{{cite journal|journal=N" * 50 + "|title=T}}" + "}}" * 49

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
            "|autor=Ł Ó|journal=Acta Mathematica Sinica (数学学报)}}   "
            "{{cite　journal|journal=Kelvin}}",
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


@pytest.fixture(scope="module")
def fixture_dump(tmp_path_factory):
    base = tmp_path_factory.mktemp("worker")
    assert main(["gen-fixture", "--pages", "120", "--citations", "600", "--out", str(base)]) == 0
    return base / "dump.xml"


def _force(monkeypatch, worker: bool, batch_chars: int | None = None) -> list:
    """Force one path; for the worker, return the list its forks land in."""
    forks: list = []
    monkeypatch.setattr(cli, "_use_worker", lambda: worker)
    if batch_chars is not None:
        monkeypatch.setattr(cli, "_FIRST_BATCH_CHARS", batch_chars)
        monkeypatch.setattr(cli, "_BATCH_CHARS", batch_chars)
    init = cli._CitationWorker.__init__

    def recording_init(self):
        init(self)
        forks.append(self.pid)

    monkeypatch.setattr(cli._CitationWorker, "__init__", recording_init)
    return forks


def _outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in OUTPUTS}


@contextmanager
def _deadline(seconds: int):
    """Fail, rather than hang, when the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _both_paths(monkeypatch, tmp_path, argv, batch_chars, stdin: bytes | None = None):
    outputs = {}
    for worker in (False, True):
        forks = _force(monkeypatch, worker, batch_chars)
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
        out = tmp_path / ("worker" if worker else "serial")
        with _deadline(60):
            assert main([*argv, "--out", str(out)]) == 0
        assert len(forks) == worker
        outputs[worker] = _outputs(out)
    return outputs[False], outputs[True]


@pytest.mark.parametrize("batch_chars", [None, 1], ids=["default-batches", "page-batches"])
@pytest.mark.parametrize("case", ["fixture", *PAGES, "stdin"])
def test_worker_and_serial_write_the_same_bytes(
    fixture_dump, tmp_path, monkeypatch, case, batch_chars
):
    stdin = None
    if case == "fixture":
        argv = ["extract", "--dump", str(fixture_dump)]
    elif case == "stdin":
        argv = ["extract", "--dump", "-"]
        stdin = fixture_dump.read_bytes()
    else:
        dump = tmp_path / "dump.xml"
        dump.write_text(dump_xml(PAGES[case]), encoding="utf-8")
        argv = ["extract", "--dump", str(dump)]
        if case == "namespaces":
            argv += ["--namespaces", "all"]
    serial, worker = _both_paths(monkeypatch, tmp_path, argv, batch_chars, stdin)
    assert worker == serial
    assert serial["citations.jsonl"]


def test_nested_page_ships_at_most_twice_its_text(tmp_path, monkeypatch):
    """Each outermost citation is sent once, with the offsets of the
    citations inside it, not each citation's own text."""
    text = PAGES["nested"][0].text
    dump = tmp_path / "dump.xml"
    dump.write_text(dump_xml(PAGES["nested"]), encoding="utf-8")
    shipped = []
    send = cli._send

    def counting_send(fp, value):
        shipped.append(8 + len(marshal.dumps(value)))
        send(fp, value)

    _force(monkeypatch, True)
    monkeypatch.setattr(cli, "_send", counting_send)
    assert main(["extract", "--dump", str(dump), "--out", str(tmp_path / "out")]) == 0
    each_citation = sum(end - start for start, end in cli.find_citations(text)[1])
    assert each_citation > 20 * len(text)
    assert 0 < sum(shipped) <= 2 * len(text.encode("utf-8"))


def test_dump_cut_mid_page_leaves_no_output(fixture_dump, tmp_path, monkeypatch, capsys):
    data = fixture_dump.read_bytes()
    cut = tmp_path / "cut.xml"
    cut.write_bytes(data[: data.index(b"{{cite journal", len(data) // 2) + 5])
    forks = _force(monkeypatch, True, 1)
    out = tmp_path / "out"
    with _deadline(60):
        assert main(["extract", "--dump", str(cut), "--out", str(out)]) == 2
    assert len(forks) == 1
    assert f"wikicite: input error: {cut}: " in capsys.readouterr().err
    assert os.listdir(out) == []


def test_killed_worker_fails_the_run(fixture_dump, tmp_path, monkeypatch, capsys):
    forks = _force(monkeypatch, True, 1)
    write_jsonl = cli.write_jsonl

    def killing_write_jsonl(records, fp):
        if records:
            os.kill(forks[0], signal.SIGKILL)
        return write_jsonl(records, fp)

    monkeypatch.setattr(cli, "write_jsonl", killing_write_jsonl)
    out = tmp_path / "out"
    with _deadline(60):
        assert main(["extract", "--dump", str(fixture_dump), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    status = -signal.SIGKILL
    assert f"output error: the citation worker ended early (exit status {status})" in err
    assert os.listdir(out) == []


def test_failing_worker_fails_the_run(fixture_dump, tmp_path, monkeypatch, capfd):
    def failing_parse(*args):
        raise ValueError("parse failed")

    _force(monkeypatch, True, 1)
    monkeypatch.setattr(cli, "parse_citations", failing_parse)
    out = tmp_path / "out"
    with _deadline(60):
        assert main(["extract", "--dump", str(fixture_dump), "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert "ValueError: parse failed" in err
    assert "wikicite: output error: the citation worker ended early (exit status 1)" in err
    assert os.listdir(out) == []


def test_worker_leaves_without_running_exit_handlers(fixture_dump, tmp_path, monkeypatch):
    """The worker ends by ``os._exit``: an interpreter exit would run the
    parent's exit handlers and flush files it inherited, the ``.partial``
    output among them."""
    parent = os.getpid()
    marker = tmp_path / "exit-handler-ran"

    def note_exit():
        if os.getpid() != parent:
            marker.touch()

    _force(monkeypatch, True, 1)
    atexit.register(note_exit)
    try:
        assert main(["extract", "--dump", str(fixture_dump), "--out", str(tmp_path / "out")]) == 0
    finally:
        atexit.unregister(note_exit)
    assert not marker.exists()
