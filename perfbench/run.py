"""Pipeline benchmark for wikicite.

    python3 perfbench/run.py --workload dense_4k --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Run from anywhere inside a checkout; the program is taken from ``src/`` of
the checkout this file sits in. A run has three steps:

1. Set-up: generate the workload's inputs from ``--seed`` (``gen.py``).
2. ``--trace 0``: run each timed pipeline command as a ``wikicite`` child
   process, pass after pass, for ``--seconds``, then ``--jobs 2`` once; check
   every output; report the end-to-end metrics over the passes.
3. ``--trace 1``: run the same commands in-process, alternating an untraced
   pass with a pass traced through ``spans.py``, for ``--seconds``; report
   the per-layer metrics as medians over the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A readable summary,
with sample counts, goes to standard error.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
MB = 1e6
JOBS = 2
CHILD_TIMEOUT_S = 120.0
RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 3  # start-up probes before the first pass; each pass adds one

WORKLOADS = tuple(gen.SHAPES)

# name -> (unit, better); every workload reports every one.
END_TO_END = {
    "count_dump_mb_s": ("MB/s", "higher"),
    "extract_mb_s": ("MB/s", "higher"),
    "count_citations_krec_s": ("krec/s", "higher"),
    "correlate_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

PER_LAYER = {
    "dump_reader.self_s": ("s", "lower"),
    "dump_reader.pages": ("count", "higher"),
    "dump_reader.pages_filtered": ("count", "higher"),
    "cli.read_hash_s": ("s", "lower"),
    "cli.pool_cpu_s": ("s", "lower"),
    "cli.pool_util": ("ratio", "higher"),
    "cli.pool_ipc_mb": ("MB", "lower"),
    "extractor.scan_s": ("s", "lower"),
    "extractor.mask_s": ("s", "lower"),
    "extractor.spans_s": ("s", "lower"),
    "extractor.split_s": ("s", "lower"),
    "extractor.name_s": ("s", "lower"),
    "extractor.clean_s": ("s", "lower"),
    "extractor.params_self_s": ("s", "lower"),
    "extractor.templates": ("count", "higher"),
    "extractor.records": ("count", "higher"),
    "extractor.hit_ratio": ("ratio", "higher"),
    "extractor.write_jsonl_s": ("s", "lower"),
    "extractor.jsonl_mb": ("MB", "lower"),
    "extractor.read_jsonl_s": ("s", "lower"),
    "registry.load_s": ("s", "lower"),
    "registry.resolve_s": ("s", "lower"),
    "registry.resolve_calls": ("count", "lower"),
    "registry.distinct_raw": ("count", "higher"),
    "aggregate.tally_self_s": ("s", "lower"),
    "aggregate.unknown_distinct": ("count", "higher"),
    "aggregate.write_s": ("s", "lower"),
    "bibliometrics.join_s": ("s", "lower"),
    "bibliometrics.sweep_s": ("s", "lower"),
    "bibliometrics.sweep_points": ("count", "higher"),
    "bibliometrics.tau_calls": ("count", "lower"),
    "bibliometrics.write_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "bench.gen_s": ("s", "lower"),
}


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# The pipeline ------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its outputs must pass. ``rate`` turns
    its mean wall time into ``metric``; a command without a metric runs once
    per untraced run, checked but not timed."""

    name: str
    args: tuple[str, ...]
    out: Path
    check: Callable[[Path], list[str]]
    metric: str | None
    rate: Callable[[float], float] | None


def pipeline(inputs: Path, out: Path, truth: dict, checker: check.Checker) -> tuple[list[Command], Command]:
    """The timed commands of one pass, in order, and the start-up probe."""
    dump = str(inputs / "dump.xml")
    registry = str(inputs / "registry.tsv")
    dump_mb = truth["dump_bytes"] / MB
    krecords = truth["template_total"] / 1000

    def mb_s(wall: float) -> float:
        return dump_mb / wall

    commands = [
        Command("extract", ("extract", "--dump", dump, "--out", str(out / "extract")),
                out / "extract", checker.extract, "extract_mb_s", mb_s),
        Command("count_citations",
                ("count", "--citations", str(out / "extract" / "citations.jsonl"),
                 "--registry", registry, "--out", str(out / "count_citations")),
                out / "count_citations", lambda d: checker.count(d, digests_dump=False),
                "count_citations_krec_s", lambda wall: krecords / wall),
        Command("count_dump", ("count", "--dump", dump, "--registry", registry, "--out", str(out / "count_dump")),
                out / "count_dump", lambda d: checker.count(d, digests_dump=True), "count_dump_mb_s", mb_s),
        # Untimed: on a shared 2-vCPU host its wall time depends on whether
        # the second core is free; over ten runs its quartiles sat 44 % apart.
        # The pool is measured per layer (cli.pool_*) in traced runs instead.
        Command("count_dump_jobs2",
                ("count", "--dump", dump, "--registry", registry, "--jobs", str(JOBS),
                 "--out", str(out / "count_dump_jobs2")),
                out / "count_dump_jobs2", lambda d: checker.count(d, digests_dump=True), None, None),
        Command("correlate",
                ("correlate", "--counts", str(out / "count_dump" / "counts.json"), "--registry", registry,
                 "--jcr", str(inputs / "jcr.csv"), "--out", str(out / "correlate")),
                out / "correlate", checker.correlate, "correlate_s", lambda wall: wall),
    ]
    setup = Command("setup",
                    ("count", "--citations", str(inputs / "empty.jsonl"), "--registry", registry,
                     "--out", str(out / "setup")),
                    out / "setup", checker.empty, "setup_s", None)
    return commands, setup


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def judge(self, command: Command, code: int, detail: str = "") -> None:
        """Count one attempt; a non-zero exit or any failed check fails it."""
        self.attempted += 1
        problems = [f"exit code {code}{detail}"] if code != 0 else command.check(command.out)
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                log(f"{command.name}: FAILED: {problem}")


# Child processes ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _reap_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(command: Command, log_dir: Path, deadline: float) -> tuple[float, float, int, str]:
    """Run one command as a child process: (wall s, peak RSS MB, exit code,
    stderr tail). Peak RSS comes from wait4, which covers the child and
    every worker it reaped."""
    shutil.rmtree(command.out, ignore_errors=True)
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    log_path = log_dir / f"{command.name}.log"
    with open(log_path, "wb") as log_fp:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "wikicite.cli", *command.args],
            stdin=subprocess.DEVNULL, stdout=log_fp, stderr=log_fp,
            env=child_env(), cwd=ROOT, start_new_session=True,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], timeout)[0]
        finally:
            os.close(pidfd)
        if not exited:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    tail = ""
    if proc.returncode != 0:
        tail = "; " + log_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        if not exited:
            tail = f" (killed after {timeout:.0f} s)" + tail
    return wall, usage.ru_maxrss / 1024, proc.returncode, tail


def measure(commands: list[Command], setup: Command, seconds: float, deadline: float, work: Path) -> tuple[dict, Tally, dict]:
    """Untraced passes over child processes for ``seconds``.

    A command's metric comes from its mean wall time over the passes (for a
    rate: total work over total time). On a shared host one command's wall
    time flips between a fast and a slow level from one second to the next,
    and the median of a few samples jumps with it; the mean moves smoothly.
    ``setup_s`` and ``peak_rss_mb`` are medians over their samples."""
    tally = Tally()
    timed = [command for command in commands if command.metric]
    walls: dict[str, list[float]] = {command.name: [] for command in timed}
    setups: list[float] = []
    peaks: list[float] = []
    log_dir = work / "logs"
    log_dir.mkdir(exist_ok=True)

    def run(command: Command) -> tuple[float, float]:
        wall, rss_mb, code, tail = run_child(command, log_dir, deadline)
        tally.judge(command, code, tail)
        return wall, rss_mb

    run(setup)  # warm-up: byte-compile caches and the page cache, not timed
    setups.extend(run(setup)[0] for _ in range(SETUP_PROBES))
    started = time.monotonic()
    pass_times: list[float] = []
    while True:
        pass_started = time.monotonic()
        peak = 0.0
        for command in timed:
            wall, rss_mb = run(command)
            walls[command.name].append(wall)
            peak = max(peak, rss_mb)
        peaks.append(peak)
        setups.append(run(setup)[0])
        now = time.monotonic()
        pass_times.append(now - pass_started)
        expected = statistics.median(pass_times)
        if now - started + expected > seconds or now + 2 * expected > deadline:
            break
    for command in commands:
        if not command.metric:
            run(command)
    metrics = {command.metric: command.rate(statistics.fmean(walls[command.name])) for command in timed}
    metrics["peak_rss_mb"] = statistics.median(peaks)
    metrics["setup_s"] = statistics.median(setups)
    counts = {command.metric: len(walls[command.name]) for command in timed}
    counts.update(peak_rss_mb=len(peaks), setup_s=len(setups))
    return metrics, tally, counts


# Traced runs ----------------------------------------------------------------------


def import_program():
    sys.path.insert(0, str(SRC))
    import wikicite.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "wikicite":
        raise SystemExit(f"perfbench: imported wikicite from {cli.__file__}, not {SRC}")
    return cli


def run_inprocess(cli, command: Command) -> tuple[float, int, str]:
    shutil.rmtree(command.out, ignore_errors=True)
    started = time.perf_counter()
    try:
        code = cli.main(list(command.args))
        detail = ""
    except Exception as exc:  # a crash inside the program is a failed command
        code, detail = -1, f"; {type(exc).__name__}: {exc}"
    return time.perf_counter() - started, code, detail


def traced_pass(cli, commands: list[Command], tally: Tally) -> tuple[dict, float]:
    """Each command under its own probes: name -> (Installed, wall, pool CPU)."""
    results = {}
    wall_total = 0.0
    for command in commands:
        with_pool = command.name == "count_dump_jobs2"
        installed = spans.install(spans.POOL_PROBES if with_pool else spans.LAYER_PROBES, with_pool)
        cpu_before = spans.children_cpu_s()
        try:
            wall, code, detail = run_inprocess(cli, command)
        finally:
            installed.remove()
        tally.judge(command, code, detail)
        results[command.name] = (installed, wall, spans.children_cpu_s() - cpu_before)
        wall_total += wall
    return results, wall_total


def layer_metrics(results: dict, out: Path) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; ``None`` where a probe is gone."""
    totals = {name: installed.tracer.totals() for name, (installed, _, _) in results.items()}
    tracers = {name: installed.tracer for name, (installed, _, _) in results.items()}

    def total(command: str, span: str, own: bool = False) -> float | None:
        entry = totals[command].get(span)
        return None if entry is None else entry[1 if own else 0]

    def calls(command: str, span: str) -> int | None:
        return tracers[command].calls.get(span)

    def counted(command: str, name: str) -> float | None:
        return tracers[command].counts.get(name)

    def ratio(a, b):
        return None if a is None or not b else a / b

    def minus(a, b):
        return None if a is None or b is None else a - b

    dump = "count_dump"
    pages = minus(calls(dump, "dump_reader.next"), tracers[dump].raised.get("dump_reader.next", 0))
    templates = counted(dump, "extractor.templates")
    records = counted(dump, "extractor.records")
    installed_pool, _, pool_cpu = results["count_dump_jobs2"]
    pool = installed_pool.pool
    pool_absent = "wikicite.cli:ProcessPoolExecutor" in installed_pool.absent or not pool.jobs
    distinct = tracers[dump].seen.get("registry.distinct_raw")
    jsonl = out / "extract" / "citations.jsonl"
    return {
        "dump_reader.self_s": total(dump, "dump_reader.next", own=True),
        "dump_reader.pages": pages,
        "dump_reader.pages_filtered": minus(pages, calls(dump, "extractor.scan")),
        "cli.read_hash_s": total(dump, "cli.read_hash"),
        "cli.pool_cpu_s": None if pool_absent else pool_cpu,
        "cli.pool_util": None if pool_absent else ratio(pool_cpu, pool.wall_s * pool.jobs),
        "cli.pool_ipc_mb": None if pool_absent else pool.ipc_bytes / MB,
        "extractor.scan_s": total(dump, "extractor.scan"),
        "extractor.mask_s": total(dump, "extractor.mask"),
        "extractor.spans_s": total(dump, "extractor.spans"),
        "extractor.split_s": total(dump, "extractor.split"),
        "extractor.name_s": total(dump, "extractor.name"),
        "extractor.clean_s": total(dump, "extractor.clean"),
        "extractor.params_self_s": total(dump, "extractor.scan", own=True),
        "extractor.templates": templates,
        "extractor.records": records,
        "extractor.hit_ratio": ratio(records, templates),
        "extractor.write_jsonl_s": total("extract", "extractor.write_jsonl"),
        "extractor.jsonl_mb": jsonl.stat().st_size / MB if jsonl.is_file() else None,
        "extractor.read_jsonl_s": total("count_citations", "extractor.read_jsonl"),
        "registry.load_s": total("setup", "registry.load"),
        "registry.resolve_s": total(dump, "registry.resolve"),
        "registry.resolve_calls": calls(dump, "registry.resolve"),
        "registry.distinct_raw": None if distinct is None else len(distinct),
        "aggregate.tally_self_s": total("count_citations", "aggregate.tally", own=True),
        "aggregate.unknown_distinct": counted("count_citations", "aggregate.unknown_distinct"),
        "aggregate.write_s": total("count_citations", "aggregate.write"),
        "bibliometrics.join_s": total("correlate", "bibliometrics.join"),
        "bibliometrics.sweep_s": total("correlate", "bibliometrics.sweep"),
        "bibliometrics.sweep_points": counted("correlate", "bibliometrics.sweep_points"),
        "bibliometrics.tau_calls": calls("correlate", "bibliometrics.tau"),
        "bibliometrics.write_s": total("correlate", "bibliometrics.write"),
    }


def measure_traced(commands: list[Command], setup: Command, seconds: float, deadline: float,
                   out: Path, trace_path: Path) -> tuple[dict, Tally, dict]:
    """Pairs of an untraced and a traced in-process pass for ``seconds``,
    the order swapping from pair to pair so that neither side always runs
    first. The tracing overhead is total traced over total untraced time."""
    cli = import_program()
    tally = Tally()
    everything = [setup, *commands]
    per_pass: list[dict] = []
    untraced_total = traced_total = 0.0
    last = None
    started = time.monotonic()

    def untraced_pass() -> float:
        wall_total = 0.0
        for command in everything:
            wall, code, detail = run_inprocess(cli, command)
            tally.judge(command, code, detail)
            wall_total += wall
        return wall_total

    while True:
        pair_started = time.monotonic()
        if len(per_pass) % 2:
            last, traced = traced_pass(cli, everything, tally)
            untraced_total += untraced_pass()
        else:
            untraced_total += untraced_pass()
            last, traced = traced_pass(cli, everything, tally)
        traced_total += traced
        per_pass.append(layer_metrics(last, out))
        now = time.monotonic()
        if now - started + (now - pair_started) > seconds or now + 2 * (now - pair_started) > deadline:
            break
    with open(trace_path, "w", encoding="utf-8") as fp:
        for name, (installed, _, _) in last.items():
            installed.tracer.write(fp, name)
    absent = sorted({target for installed, _, _ in last.values() for target in installed.absent})
    if absent:
        log(f"probes with no target in this program: {', '.join(absent)}")
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass if m[name] is not None]
        if values:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = traced_total / untraced_total - 1
    return metrics, tally, {name: len(per_pass) for name in metrics}


# Driver -------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, out = work / "inputs", work / "out"
        started = time.perf_counter()
        truth = gen.generate(inputs, workload, seed)
        gen_s = time.perf_counter() - started
        checker = check.Checker(truth, check.sha256_file(inputs / "dump.xml"))
        log(f"{workload} seed {seed}: {truth['dump_bytes'] / MB:.1f} MB dump, "
            f"{truth['template_total']} templates, {len(truth['joined'])} joined journals, "
            f"generated in {gen_s:.2f} s")
        commands, setup = pipeline(inputs, out, truth, checker)
        compileall.compile_dir(SRC, quiet=1)
        if trace:
            metrics, tally, counts = measure_traced(
                commands, setup, seconds, deadline, out, RUNS / f"trace-{workload}.jsonl")
            metrics["bench.gen_s"] = gen_s
            counts["bench.gen_s"] = 1
            table = PER_LAYER
        else:
            metrics, tally, counts = measure(commands, setup, seconds, deadline, work)
            table = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, value in metrics.items():
        log(f"  {workload:12s} {name:28s} {value:14.6g} {table[name][0]:8s} n={counts[name]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": table[name][0]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wikicite pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wikicite" / "cli.py").is_file():
        log(f"no wikicite sources at {SRC}; run from a checkout of the repository")
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            result = {"workload": workload, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
