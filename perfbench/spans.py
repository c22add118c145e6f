"""Spans around the public functions of each wikicite layer.

The traced run imports the package in-process and rebinds module and class
attributes to timing wrappers for the length of one command; nothing under
``src/`` is edited. A span is (name, start, end, parent). Spans are kept in
flat arrays while the command runs and written out when it ends.

A layer's self time is its spans' duration minus the time covered by their
direct child spans. Calls in one thread nest strictly, so direct children
never overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import resource
import threading
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator


class Tracer:
    """Spans of one command, in the order they started."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.calls: dict[str, int] = {}  # completed calls per span name
        self.raised: dict[str, int] = {}  # of which ended by an exception
        self.counts: dict[str, float] = {}  # counters recorded at the same boundaries
        self.seen: dict[str, set] = {}  # distinct values seen at a boundary

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int, failed: bool = False) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()
        name = self.names[self.name_of[index]]
        self.calls[name] = self.calls.get(name, 0) + 1
        if failed:
            self.raised[name] = self.raised.get(name, 0) + 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def see(self, name: str, value) -> None:
        self.seen.setdefault(name, set()).add(value)

    def totals(self) -> dict[str, tuple[float, float]]:
        """Per span name: (total seconds, self seconds)."""
        covered = [0.0] * len(self.start)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        out: dict[str, list[float]] = {}
        for index, name_id in enumerate(self.name_of):
            duration = self.end[index] - self.start[index]
            entry = out.setdefault(self.names[name_id], [0.0, 0.0])
            entry[0] += duration
            entry[1] += duration - covered[index]
        return {name: (total, own) for name, (total, own) in out.items()}

    def write(self, fp, command: str) -> None:
        """One JSON line per span: command, id, name, start, end, parent."""
        base = self.start[0] if len(self.start) else 0.0
        for index, name_id in enumerate(self.name_of):
            fp.write(
                json.dumps(
                    [
                        command,
                        index,
                        self.names[name_id],
                        self.start[index] - base,
                        self.end[index] - base,
                        self.parent[index],
                    ]
                )
            )
            fp.write("\n")


# Probes ----------------------------------------------------------------------


def _wrap_call(tracer: Tracer, fn: Callable, name: str, on_result) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.finish(index, failed=True)
            raise
        tracer.finish(index)
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    return traced


def _wrap_iter(tracer: Tracer, fn: Callable, name: str, on_result) -> Callable:
    """For generator functions: one span per item pulled."""

    @functools.wraps(fn)
    def traced(*args, **kwargs) -> Iterator:
        inner = fn(*args, **kwargs)
        while True:
            index = tracer.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                tracer.finish(index, failed=True)
                return
            except BaseException:
                tracer.finish(index, failed=True)
                raise
            tracer.finish(index)
            yield item

    return traced


@dataclass(frozen=True)
class Probe:
    """A traced attribute: ``module:Owner.attr`` or ``module:attr``."""

    target: str
    span: str
    kind: str = "call"  # or "iter" for generator functions
    on_result: Callable | None = None

    def locate(self):
        module_name, _, path = self.target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        return owner, attr


def _count_templates(tracer, args, result):
    tracer.count("extractor.templates", len(result[0]))


def _count_records(tracer, args, result):
    tracer.count("extractor.records", len(result.records))


def _remember_raw(tracer, args, result):
    tracer.see("registry.distinct_raw", args[1])


def _count_unknown(tracer, args, result):
    tracer.count("aggregate.unknown_distinct", len(result.unknown))


def _count_points(tracer, args, result):
    tracer.count("bibliometrics.sweep_points", len(args[2]))


# With ``--jobs`` the pool forks the traced process, so per-page probes would
# run, unrecorded, inside the workers. The pool command keeps only these.
POOL_PROBES = (
    Probe("wikicite.dump_reader:DumpReader.__next__", "dump_reader.next"),
    Probe("wikicite.cli:_HashingReader.read", "cli.read_hash"),
)

# Each layer's public entry points, as the CLI reaches them. The CLI imports
# names into its own namespace, so those are rebound in ``wikicite.cli``.
LAYER_PROBES = POOL_PROBES + (
    Probe("wikicite.cli:scan_page", "extractor.scan", on_result=_count_records),
    Probe("wikicite.extractor:mask_hidden_spans", "extractor.mask"),
    Probe("wikicite.extractor:find_template_spans", "extractor.spans", on_result=_count_templates),
    Probe("wikicite.extractor:_split_top_level", "extractor.split"),
    Probe("wikicite.extractor:normalize_template_name", "extractor.name"),
    Probe("wikicite.extractor:clean_journal_value", "extractor.clean"),
    Probe("wikicite.cli:write_jsonl", "extractor.write_jsonl"),
    Probe("wikicite.cli:read_jsonl", "extractor.read_jsonl", kind="iter"),
    Probe("wikicite.cli:load_registry", "registry.load"),
    Probe("wikicite.registry:JournalRegistry.resolve", "registry.resolve", on_result=_remember_raw),
    Probe("wikicite.cli:tally", "aggregate.tally", on_result=_count_unknown),
    Probe("wikicite.cli:write_counts_csv", "aggregate.write"),
    Probe("wikicite.cli:write_counts_json", "aggregate.write"),
    Probe("wikicite.cli:write_unknown_csv", "aggregate.write"),
    Probe("wikicite.cli:join", "bibliometrics.join"),
    Probe("wikicite.cli:topn_sweep", "bibliometrics.sweep", on_result=_count_points),
    Probe("wikicite.bibliometrics:_tau_stats", "bibliometrics.tau"),
    Probe("wikicite.cli:write_correlations_csv", "bibliometrics.write"),
    Probe("wikicite.cli:write_scatter_csv", "bibliometrics.write"),
)


class PoolStats:
    """What the CLI's process pool costs: bytes pickled each way, its wall
    time, and CPU time of the workers it reaped."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ipc_bytes = 0
        self.wall_s = 0.0
        self.jobs = 0

    def executor_class(self):
        stats = self

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                stats.jobs = self._max_workers
                self._opened = time.perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                sent = len(pickle.dumps((fn, args, kwargs)))
                with stats.lock:
                    stats.ipc_bytes += sent
                future = super().submit(fn, *args, **kwargs)
                future.add_done_callback(self._returned)
                return future

            def _returned(self, future):
                if future.cancelled() or future.exception() is not None:
                    return
                size = len(pickle.dumps(future.result()))
                with stats.lock:
                    stats.ipc_bytes += size

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                stats.wall_s += time.perf_counter() - self._opened

        return CountingPool


@dataclass
class Installed:
    """Probes in place for one command; ``absent`` lists targets not found."""

    tracer: Tracer
    pool: PoolStats | None
    restore: list = field(default_factory=list)
    absent: list[str] = field(default_factory=list)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()


def install(probes, with_pool: bool = False) -> Installed:
    tracer = Tracer()
    installed = Installed(tracer=tracer, pool=PoolStats() if with_pool else None)
    for probe in probes:
        try:
            owner, attr = probe.locate()
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            installed.absent.append(probe.target)
            continue
        wrap = _wrap_iter if probe.kind == "iter" else _wrap_call
        installed.restore.append((owner, attr, original))
        setattr(owner, attr, wrap(tracer, original, probe.span, probe.on_result))
    if with_pool:
        try:
            cli = importlib.import_module("wikicite.cli")
            original = cli.ProcessPoolExecutor
        except (ImportError, AttributeError):
            installed.absent.append("wikicite.cli:ProcessPoolExecutor")
        else:
            installed.restore.append((cli, "ProcessPoolExecutor", original))
            cli.ProcessPoolExecutor = installed.pool.executor_class()
    return installed


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime
