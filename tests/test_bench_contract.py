"""The traced benchmark's contract, checked at a tiny input size.

``perfbench/run.py --trace 1`` reports a per-layer metric only when its
probe finds its target and the program still calls it on the command's
path. A renamed function, a call that no longer goes through a probed
module attribute, or a layer that stops doing work would leave a traced run
without a result line. This runs each workload shape's commands through
``run.traced_pass`` and ``run.layer_metrics``, as the benchmark does, and
requires every per-layer metric to be present, finite and positive.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from wikicite import cli  # noqa: E402

# Set by measure_traced over a whole run, not by one traced pass.
_RUN_LEVEL = {"trace.overhead_frac", "bench.gen_s"}


@pytest.mark.parametrize("workload", sorted(gen.SHAPES))
def test_traced_pass_reports_every_layer(workload, tmp_path):
    shape = gen.SHAPES[workload]
    # Enough pages that some fall outside the scanned namespace.
    shape = dataclasses.replace(shape, dump_bytes=max(400_000, 24 * shape.page_bytes), joined=40)
    truth = gen.generate(tmp_path / "inputs", workload, 7, shape=shape)
    assert truth["pages_filtered"] > 0
    checker = check.Checker(truth, check.sha256_file(tmp_path / "inputs" / "dump.xml"))
    commands, setup = run.pipeline(tmp_path / "inputs", tmp_path / "out", truth, checker)
    tally = run.Tally()

    results, _ = run.traced_pass(cli, [setup, *commands], tally)

    assert (tally.attempted, tally.failed) == (len(commands) + 1, 0)
    absent = {target for installed, _, _ in results.values() for target in installed.absent}
    assert not absent, f"probes with no target: {sorted(absent)}"
    metrics = run.layer_metrics(results, tmp_path / "out")
    assert set(metrics) == set(run.PER_LAYER) - _RUN_LEVEL
    bad = {
        name: value
        for name, value in metrics.items()
        if value is None or not math.isfinite(value) or value <= 0
    }
    assert not bad, f"per-layer metrics missing or not positive: {bad}"
