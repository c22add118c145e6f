"""Throughput and memory probe for the streaming pipeline.

Runs the reader, extractor, and tally over a synthesized dump of the
requested size and reports a JSON line with wall time and peak RSS. Run it
in a fresh process so the measurement belongs to this pipeline:

    python -m wikicite.bench --megabytes 100

Peak RSS is sampled from /proc/self/status while the pipeline runs; the
ru_maxrss value is reported alongside but can be inflated by fork
inheritance when the parent process is large.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time

from .aggregate import tally_scans
from .dump_reader import filter_namespaces, open_dump
from .extractor import scan_page
from .fixtures import StreamingDumpSource
from .registry import load_default_registry


def _read_vm_rss_kb() -> int | None:
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class _PeakRssSampler(threading.Thread):
    """Track the VmRSS high-water mark while the pipeline runs."""

    def __init__(self, interval_s: float = 0.02):
        super().__init__(daemon=True)
        self._interval = interval_s
        self._halt = threading.Event()
        self.peak_kb = 0

    def _sample(self) -> None:
        rss = _read_vm_rss_kb()
        if rss is not None and rss > self.peak_kb:
            self.peak_kb = rss

    def run(self) -> None:
        while not self._halt.is_set():
            self._sample()
            self._halt.wait(self._interval)

    def stop(self) -> int:
        self._halt.set()
        self.join()
        self._sample()
        return self.peak_kb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--megabytes", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--page-kb", type=int, default=128)
    args = parser.parse_args(argv)

    registry = load_default_registry()
    source = StreamingDumpSource(
        args.megabytes << 20, seed=args.seed, page_kb=args.page_kb
    )
    reader = open_dump(source)

    sampler = _PeakRssSampler()
    sampler.start()
    started = time.perf_counter()
    table = tally_scans(map(scan_page, filter_namespaces(reader, {0})), registry)
    elapsed = time.perf_counter() - started
    peak_kb = sampler.stop()

    # ru_maxrss is reported in kilobytes on Linux.
    ru_maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak_kb == 0:
        peak_kb = ru_maxrss_kb
    print(
        json.dumps(
            {
                "bytes": source.bytes_emitted,
                "pages": reader.pages_yielded,
                "citations": table.template_total,
                "elapsed_s": elapsed,
                "max_rss_kb": peak_kb,
                "ru_maxrss_kb": ru_maxrss_kb,
                "largest_page_bytes": source.largest_page_bytes,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
