"""Tests for the benchmark itself: its generator, its checks and its trace.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from wikicite import cli  # noqa: E402


@pytest.fixture(scope="module", params=sorted(gen.SHAPES))
def pipeline_run(request, tmp_path_factory):
    """A tiny input of each workload's shape, run through every command."""
    workload = request.param
    base = tmp_path_factory.mktemp(workload)
    shape = dataclasses.replace(gen.SHAPES[workload], dump_bytes=400_000, joined=40)
    truth = gen.generate(base / "inputs", workload, 7, shape=shape)
    checker = check.Checker(truth, check.sha256_file(base / "inputs" / "dump.xml"))
    commands, setup = run.pipeline(base / "inputs", base / "out", truth, checker)
    for command in [setup, *commands]:
        assert cli.main(list(command.args)) == 0, command.name
    return truth, checker, {c.name: c for c in [setup, *commands]}


def fresh(truth: dict, checker: check.Checker) -> check.Checker:
    return check.Checker(truth, checker.dump_sha256)


def test_ground_truth_matches_the_cli(pipeline_run):
    truth, checker, commands = pipeline_run
    if truth["workload"] == "dense_4k":  # enough pages for every planted case
        assert truth["unknown"] and truth["excluded_count"] and truth["malformed_total"]
        assert truth["pages_filtered"] and truth["no_journal_count"]
    for command in commands.values():
        assert command.check(command.out) == [], command.name
    table = json.loads((commands["count_dump"].out / "counts.json").read_text())
    assert table["counts"] == truth["counts"]
    assert table["unknown"] == truth["unknown"]
    assert table["template_total"] == truth["template_total"]


def test_counts_match_across_paths(pipeline_run):
    _, _, commands = pipeline_run
    outputs = {
        name: (commands[name].out / "counts.json").read_bytes()
        for name in ("count_citations", "count_dump", "count_dump_jobs2")
    }
    assert len(set(outputs.values())) == 1


def test_generator_is_seeded(tmp_path):
    shape = dataclasses.replace(gen.SHAPES["dense_4k"], dump_bytes=50_000, joined=10)
    first = gen.generate(tmp_path / "a", "dense_4k", 3, shape=shape)
    again = gen.generate(tmp_path / "b", "dense_4k", 3, shape=shape)
    other = gen.generate(tmp_path / "c", "dense_4k", 4, shape=shape)
    assert (tmp_path / "a" / "dump.xml").read_bytes() == (tmp_path / "b" / "dump.xml").read_bytes()
    assert first == again
    assert first["counts"] != other["counts"]


def corrupt_copy(src: Path, dst: Path, edit) -> Path:
    shutil.copytree(src, dst)
    edit(dst)
    return dst


def test_checker_rejects_corrupted_counts(pipeline_run, tmp_path):
    truth, checker, commands = pipeline_run

    def bump_a_count(out: Path):
        path = out / "counts.json"
        table = json.loads(path.read_text())
        name = next(iter(table["counts"]))
        table["counts"][name] += 1
        table["no_journal_count"] -= 1
        path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

    bad = corrupt_copy(commands["count_dump"].out, tmp_path / "bad", bump_a_count)
    assert fresh(truth, checker).count(bad, digests_dump=True)
    # Once a correct table has passed, a different one is refused too.
    judge = fresh(truth, checker)
    assert judge.count(commands["count_dump"].out, digests_dump=True) == []
    assert judge.count(bad, digests_dump=True)


def test_checker_rejects_truncated_citations(pipeline_run, tmp_path):
    truth, checker, commands = pipeline_run

    def cut_at_a_line(out: Path):
        path = out / "citations.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: len(lines) // 2]))

    bad = corrupt_copy(commands["extract"].out, tmp_path / "bad", cut_at_a_line)
    assert fresh(truth, checker).extract(bad)


def test_checker_rejects_a_wrong_correlation(pipeline_run, tmp_path):
    truth, checker, commands = pipeline_run
    n_max = len(truth["joined"])

    def shift_one_tau(out: Path):
        path = out / "correlations.csv"
        lines = path.read_text().splitlines()
        row = lines[n_max // 2].split(",")
        row[2] = repr(float(row[2]) + 1e-9)
        lines[n_max // 2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")

    bad = corrupt_copy(commands["correlate"].out, tmp_path / "bad", shift_one_tau)
    assert fresh(truth, checker).correlate(bad)


def test_reference_sweep_matches_pairwise_definition():
    x = [9.0, 7.0, 7.0, 5.0, 3.0, 3.0, 1.0]
    y = [2.0, 5.0, 1.0, 4.0, 4.0, 0.5, 3.0]
    sweep = check.brute_sweep(x, y)
    assert sorted(sweep) == list(range(2, len(x) + 1))
    # n = 4: pairs (9,2)(7,5)(7,1)(5,4): concordant 2, discordant 3, one x tie.
    tau, _, _ = sweep[4]
    assert tau == pytest.approx(-1 / (5 * 6) ** 0.5)


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    root = tracer.begin("root")
    a = tracer.begin("a")
    grandchild = tracer.begin("g")
    tracer.finish(grandchild)
    tracer.finish(a)
    b = tracer.begin("b")
    tracer.finish(b)
    tracer.finish(root)
    for index, (start, end) in zip((root, a, grandchild, b), ((0, 10), (1, 4), (2, 3), (5, 6))):
        tracer.start[index], tracer.end[index] = start, end
    totals = tracer.totals()
    assert totals["root"] == (10, 6)  # 10 - a(3) - b(1); g is a's child, not root's
    assert totals["a"] == (3, 2)
    assert totals["g"] == (1, 1)
    assert totals["b"] == (1, 1)
    assert list(tracer.parent) == [-1, root, a, root]


def test_probes_find_their_targets_and_restore_them():
    before = cli.scan_page
    installed = spans.install(spans.LAYER_PROBES, with_pool=True)
    try:
        assert installed.absent == []
        assert cli.scan_page is not before
    finally:
        installed.remove()
    assert cli.scan_page is before


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
