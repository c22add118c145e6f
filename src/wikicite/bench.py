"""Throughput and memory probe for the streaming pipeline.

Runs the reader, the journal-only scan that ``count --dump`` uses, and the
tally over a synthesized dump of the requested size, and reports a JSON
line with wall time and peak RSS. Run it in a fresh process so the
measurement belongs to this pipeline:

    python -m wikicite.bench --megabytes 100

Peak RSS is the kernel's high-water mark for this process (``VmHWM`` in
/proc/self/status), read once after the run: unlike a polling sampler it
misses no short peak, and unlike ``ru_maxrss`` it does not carry over the
RSS of the process that spawned this one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .aggregate import tally_scans
from .dump_reader import filter_namespaces, open_dump
from .extractor import scan_page
from .fixtures import StreamingDumpSource
from .registry import load_default_registry


def _peak_rss_kb() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


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

    started = time.perf_counter()
    pages = filter_namespaces(reader, {0})
    table = tally_scans((scan_page(page, journal_only=True) for page in pages), registry)
    elapsed = time.perf_counter() - started
    print(
        json.dumps(
            {
                "bytes": source.bytes_emitted,
                "pages": reader.pages_seen - reader.pages_skipped,
                "citations": table.template_total,
                "elapsed_s": elapsed,
                "max_rss_kb": _peak_rss_kb(),
                "largest_page_bytes": source.largest_page_bytes,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
