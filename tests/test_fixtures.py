import hashlib

import pytest

from wikicite.dump_reader import open_dump
from wikicite.fixtures import StreamingDumpSource

# A 1 MB seed-0 stream of 128 KB pages. Benchmark figures are comparable
# only while the synthesizer emits the same bytes for a given seed and size.
_PINNED_SHA256 = "5b92b73de02c307cbee2c546f0c28cc826e64e7782db41aa77300a4029d2f997"
_PINNED_BYTES = 1_052_344


@pytest.mark.parametrize("chunk", [-1, 7919, 1 << 16, 1 << 22])
def test_streaming_source_bytes_are_pinned(chunk):
    """The emitted bytes, and the tallies the bench reports, depend on the
    seed and size alone, not on how the stream is read."""
    source = StreamingDumpSource(1 << 20, seed=0)
    digest = hashlib.sha256()
    while data := source.read(chunk):
        digest.update(data)
    assert digest.hexdigest() == _PINNED_SHA256
    assert source.bytes_emitted == _PINNED_BYTES
    assert source.pages_generated == 8
    assert source.largest_page_bytes == 131_677


def test_streaming_source_parses_as_a_dump():
    source = StreamingDumpSource(300_000, seed=0, page_kb=4)
    reader = open_dump(source)
    assert sum(1 for _ in reader) == source.pages_generated == 65
    assert source.read(1) == b""
