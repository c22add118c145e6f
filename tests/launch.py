"""Run one ``wikicite`` command in a child process fed through a pipe, and
report what it cost.

:func:`launch` starts ``python launch.py ARGS...`` with a pipe as its stdin,
writes a byte stream into the pipe, and returns the child's report. Given no
stream, it starts the child with no stdin, for a command that reads a file
named in ``ARGS``. The
child runs ``wikicite.cli.main(ARGS)``, the function the installed
``wikicite`` script calls, and prints one JSON object on stdout:

- ``exit``: main's return value;
- ``elapsed_s``: the ``perf_counter`` time of main() alone, without the
  interpreter's start-up;
- ``peak_kb``: the child's own peak RSS, ``VmHWM`` in /proc/self/status.
  The kernel starts it afresh at exec, so unlike the child's ``ru_maxrss``
  it does not carry the RSS of the process that spawned the child;
- ``children_peak_kb``: ``ru_maxrss`` of the processes main started and
  waited for, the parts of a dump command's split; 0 where it started
  none. They are forked, not exec'd, so the figure counts
  what they share with the child and what they add.

:func:`launch` adds the child's stderr and ``spawned_maxrss_kb``, the
child's ``ru_maxrss`` as ``wait4`` gives it to the spawning process: the
figure that ``VmHWM`` is used to avoid.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def launch(argv: list[str], source=None, chunk_bytes: int = 1 << 20) -> dict:
    """Run ``wikicite argv`` in a child, writing ``source.read(chunk_bytes)``
    into its stdin until it returns ``b""``, or with no stdin where
    ``source`` is None. A child that stops reading early is left to its
    exit code and report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, __file__, *argv],
            stdin=subprocess.DEVNULL if source is None else subprocess.PIPE,
            stdout=out,
            stderr=err,
            env=env,
        )
        try:
            if source is not None:
                with proc.stdin:
                    while data := source.read(chunk_bytes):
                        proc.stdin.write(data)
        except BrokenPipeError:
            pass
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
        if proc.returncode != 0:
            raise RuntimeError(f"launcher exited {proc.returncode}: {stderr}")
        report = json.loads(out.read())
    return {**report, "stderr": stderr, "spawned_maxrss_kb": usage.ru_maxrss}


def _peak_rss_kb() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def _main(argv: list[str]) -> None:
    from wikicite.cli import main

    started = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - started
    report = {
        "exit": code,
        "elapsed_s": elapsed,
        "peak_kb": _peak_rss_kb(),
        "children_peak_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    print(json.dumps(report))


if __name__ == "__main__":
    _main(sys.argv[1:])
