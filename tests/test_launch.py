"""The launcher that C2 runs each command under (``launch.py``) reports the
child's own peak memory and its worker's, never its spawner's."""

from __future__ import annotations

import pytest

from launch import launch
from wikicite import cli
from wikicite.fixtures import StreamingDumpSource

HELD_MB = 128


@pytest.mark.parametrize("command", ["count", "extract"])
def test_peaks_leave_out_the_spawning_process(tmp_path, command):
    """Spawned from a process holding 128 MB of touched memory, the child
    still reports its own ``VmHWM`` and its worker's peak under 64 MB,
    while ``wait4``'s figure for the same child carries the 128 MB."""
    held = b"\x01" * (HELD_MB << 20)  # written, so every page is resident
    source = StreamingDumpSource(1 << 20, seed=0)
    report = launch([command, "--dump", "-", "--out", str(tmp_path / "out")], source)
    del held  # only once the child has exited
    assert report["exit"] == 0, report["stderr"]
    assert report["spawned_maxrss_kb"] >= HELD_MB << 10, report
    assert report["peak_kb"] < 64 << 10, report
    assert report["children_peak_kb"] < 64 << 10, report
    if command == "extract" and cli._use_worker():
        assert report["children_peak_kb"] > 0, report
