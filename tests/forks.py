"""Helpers for tests that run commands which fork: count the forks, and fail
rather than hang when a forked process never answers."""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager


def record_forks(monkeypatch) -> list:
    """The list each child's pid lands in, as ``os.fork`` returns it."""
    forks: list = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


@contextmanager
def deadline(seconds: int):
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
