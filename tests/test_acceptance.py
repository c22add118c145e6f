"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test's PASS/FAIL line is printed in the terminal summary (see
conftest). The historical-dump checks are optional and skip unless the
corresponding inputs are provided via environment variables.
"""

from __future__ import annotations

import bz2
import json
import os
import random
import time
from datetime import date

import pytest

from wikicite.aggregate import (
    CountTable,
    growth_report,
    merge,
    tally_scans,
)
from wikicite.bibliometrics import (
    SERIES_NAMES,
    DegenerateInputError,
    join,
    kendall_tau_b,
    read_jcr_csv,
    tau_p_value,
    topn_sweep,
    combined_top_overlap,
)
from wikicite.cli import main
from wikicite.dump_reader import filter_namespaces, open_dump
from wikicite.extractor import scan_page
from wikicite.fixtures import StreamingDumpSource, build_corpus
from wikicite.registry import load_registry

from launch import launch
from oracles import brute_pair_counts, brute_tau, exact_p_by_enumeration


@pytest.fixture(scope="module")
def acceptance_corpus():
    return build_corpus(
        page_count=500,
        citations=1000,
        nested=50,
        comment_decoys=30,
        malformed=20,
        no_journal=30,
        seed=20070402,
    )


def test_c1_extractor_fixture_suite(acceptance_corpus):
    """500 pages, 1000 planted instances (50 nested), 30 comment decoys,
    20 dangling fragments: exactly 1000 records, decoys ignored,
    malformed_total 20, in under five seconds."""
    corpus = acceptance_corpus
    decoys_present = sum(p.text.count("Decoy Journal") for p in corpus.pages)
    assert decoys_present == 30

    started = time.perf_counter()
    scans = [scan_page(page) for page in corpus.pages]
    elapsed = time.perf_counter() - started

    records = [r for scan in scans for r in scan.records]
    assert len(records) == 1000
    assert sum(scan.malformed for scan in scans) == 20
    assert all(r.journal_raw != "Decoy Journal" for r in records)
    assert sum(1 for r in records if "{{" in str(r.params.get("author", ""))) >= 50
    assert elapsed < 5.0


C2_COMMANDS = {
    "count --dump -": ["count", "--dump", "-"],
    "extract --dump -": ["extract", "--dump", "-"],
}


@pytest.mark.parametrize("sizes_mb", [(100, 500, 1024)])
def test_c2_streaming_bound_and_linearity(sizes_mb, tmp_path, record_property):
    """``count --dump -`` and ``extract --dump -``, each run as the shipped
    CLI in a child process fed a synthesized dump through a pipe at
    100 MB / 500 MB / 1 GB: every process, extract's worker included, peaks
    under 64 MB plus the largest page; each command's wall time per byte is
    constant within 20 percent; the outputs are not empty, and extract
    writes one record per template that count tallies."""
    budget = 64 << 20
    rates, outs = {}, {}
    for command, argv in C2_COMMANDS.items():
        for size in sizes_mb:
            source = StreamingDumpSource(size << 20, seed=0)
            out = tmp_path / f"{argv[0]}-{size}"
            report = launch([*argv, "--out", str(out)], source)
            bound = budget + source.largest_page_bytes
            worker = report["children_peak_kb"]
            record_property(
                f"{command} at {size} MB",
                f"{source.bytes_emitted / report['elapsed_s'] / (1 << 20):.1f} MB/s; peak "
                f"{report['peak_kb'] / 1024:.1f} MB, worker "
                + (f"{worker / 1024:.1f} MB" if worker else "none")
                + f"; bound {bound / (1 << 20):.1f} MB",
            )
            # Checked before the next, larger run starts.
            assert report["exit"] == 0, (command, size, report["stderr"])
            manifest = json.loads((out / "manifest.json").read_bytes())
            assert manifest["inputs"]["dump"]["bytes"] == source.bytes_emitted, (command, size)
            assert report["peak_kb"] * 1024 < bound, (command, size, report)
            assert worker * 1024 < bound, (command, size, report)
            rates[command, size] = report["elapsed_s"] / source.bytes_emitted
            outs[command, size] = out

    for size in sizes_mb:
        counts = json.loads((outs["count --dump -", size] / "counts.json").read_bytes())
        extract_out = outs["extract --dump -", size]
        summary = json.loads((extract_out / "extract_summary.json").read_bytes())
        assert counts["template_total"] > 0
        assert (extract_out / "citations.jsonl").stat().st_size > 0
        assert summary["records"] == counts["template_total"], size

    for command in C2_COMMANDS:
        command_rates = [rates[command, size] for size in sizes_mb]
        mean_rate = sum(command_rates) / len(command_rates)
        for rate in command_rates:
            assert abs(rate - mean_rate) / mean_rate <= 0.20, (command, command_rates)


def test_c3_kendall_oracle_equivalence():
    """1000 random tied pairs at n <= 7 match the all-pairs brute force to
    1e-12; tie-free P-values match exact enumeration (0.05 at n = 7 for the
    normal path, exactly at n <= 5 for the exact path)."""
    rng = random.Random(1234)
    checked = 0
    while checked < 1000:
        n = rng.randrange(2, 8)
        x = [rng.randrange(4) for _ in range(n)]
        y = [rng.randrange(4) for _ in range(n)]
        s, dx, dy = brute_pair_counts(x, y)
        if dx == 0 or dy == 0:
            continue
        assert abs(kendall_tau_b(x, y) - brute_tau(x, y)) <= 1e-12
        checked += 1

    for _ in range(60):
        x = list(range(7))
        y = rng.sample(range(7), 7)
        p_normal, _ = tau_p_value(x, y, method="normal")
        assert abs(p_normal - exact_p_by_enumeration(x, y)) < 0.05

    for n in (2, 3, 4, 5):
        for _ in range(40):
            x = rng.sample(range(100), n)
            y = rng.sample(range(100), n)
            p_exact, _ = tau_p_value(x, y, method="exact")
            assert abs(p_exact - exact_p_by_enumeration(x, y)) <= 1e-15


def test_c4_tau_property_suite():
    """Five invariants, each over 1000 randomized cases, zero failures."""
    rng = random.Random(77)

    def sample():
        while True:
            n = rng.randrange(2, 41)
            x = [rng.randrange(-10, 11) for _ in range(n)]
            y = [rng.randrange(-10, 11) for _ in range(n)]
            if len(set(x)) > 1 and len(set(y)) > 1:
                return x, y

    for _ in range(1000):
        x, y = sample()
        assert abs(kendall_tau_b(x, y)) <= 1.0 + 1e-12

    for _ in range(1000):
        x, _ = sample()
        assert kendall_tau_b(x, x) == pytest.approx(1.0, abs=1e-12)

    for _ in range(1000):
        x, y = sample()
        assert kendall_tau_b(x, [-v for v in y]) == -kendall_tau_b(x, y)

    for _ in range(1000):
        x, y = sample()
        order = list(range(len(x)))
        rng.shuffle(order)
        assert kendall_tau_b([x[i] for i in order], [y[i] for i in order]) == kendall_tau_b(x, y)

    for _ in range(1000):
        x, y = sample()
        tau = kendall_tau_b(x, y)
        p = tau_p_value(x, y)
        transformed = [5 * v + 3 for v in y]
        assert kendall_tau_b(x, transformed) == tau
        assert tau_p_value(x, transformed) == p


def test_c5_aggregation_conservation(acceptance_corpus, starter_registry):
    """Random partitions into 1..16 shards merge to exactly the single-pass
    table, field for field."""
    pages = acceptance_corpus.pages
    whole = tally_scans(map(scan_page, pages), starter_registry)
    rng = random.Random(55)
    for shard_count in range(1, 17):
        shards = [[] for _ in range(shard_count)]
        for page in pages:
            shards[rng.randrange(shard_count)].append(page)
        tables = [tally_scans(map(scan_page, shard), starter_registry) for shard in shards]
        rng.shuffle(tables)
        combined = CountTable.empty(starter_registry.fingerprint)
        for table in tables:
            combined = merge(combined, table)
        assert combined == whole


def test_c6_correlate_determinism(tmp_path):
    """Two runs of correlate on identical inputs produce byte-identical
    CSVs."""
    fixture_dir = tmp_path / "fx"
    assert main(
        ["gen-fixture", "--pages", "80", "--citations", "300", "--out", str(fixture_dir)]
    ) == 0

    csv_names = ("correlations.csv", "scatter.csv", "overlap.csv", "counts.csv")
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(
            ["correlate", "--dump", str(fixture_dir / "dump.xml"),
             "--registry", str(fixture_dir / "registry.tsv"),
             "--jcr", str(fixture_dir / "jcr.csv"), "--out", str(out)]
        )
        assert code == 0
        outputs.append({name: (out / name).read_bytes() for name in csv_names})
    assert outputs[0] == outputs[1]


def test_c8_growth_report_series():
    """Four dated tables with totals 0 / 19066 / 24656 / 30368 reproduce the
    series verbatim."""

    def with_total(total):
        return CountTable(
            counts={},
            excluded_count=0,
            unknown={},
            unknown_overflow=0,
            template_total=total,
            malformed_total=0,
            registry_fingerprint="fp",
        )

    dated = [
        (date(2005, 2, 1), with_total(0)),
        (date(2006, 11, 1), with_total(19066)),
        (date(2007, 2, 1), with_total(24656)),
        (date(2007, 4, 2), with_total(30368)),
    ]
    assert growth_report(dated) == [
        (date(2005, 2, 1), 0),
        (date(2006, 11, 1), 19066),
        (date(2007, 2, 1), 24656),
        (date(2007, 4, 2), 30368),
    ]


# optional, gated on historical inputs --------------------------------

DUMP_ENV = "WIKICITE_DUMP_2007"
JCR_ENV = "WIKICITE_JCR_2005"
REGISTRY_ENV = "WIKICITE_REGISTRY_2007"


def _open_historical_dump(path: str):
    if path.endswith(".bz2"):
        return open_dump(bz2.open(path, "rb"))
    return open_dump(path)


def test_c7_historical_dump_optional(starter_registry):
    """With the April 2007 snapshot: template total within 2 percent of
    30368; Nature/Science/NEJM within 5 percent of 787/669/446; with
    journal statistics: the combined series leads at most sweep points and
    the top-10-in-19 overlap is complete."""
    dump_path = os.environ.get(DUMP_ENV)
    jcr_path = os.environ.get(JCR_ENV)
    if not dump_path:
        pytest.skip(f"set {DUMP_ENV} (and optionally {JCR_ENV}, {REGISTRY_ENV}) to run")

    registry = (
        load_registry(os.environ[REGISTRY_ENV])
        if os.environ.get(REGISTRY_ENV)
        else starter_registry
    )
    reader = _open_historical_dump(dump_path)
    table = tally_scans(map(scan_page, filter_namespaces(reader, {0})), registry)

    assert abs(table.template_total - 30368) <= 0.02 * 30368

    for journal, expected in (
        ("Nature", 787),
        ("Science", 669),
        ("New England Journal of Medicine", 446),
    ):
        assert abs(table.counts.get(journal, 0) - expected) <= 0.05 * expected

    if not jcr_path:
        pytest.skip(f"set {JCR_ENV} for the correlation checks")
    with open(jcr_path, "r", encoding="utf-8") as fp:
        rows = read_jcr_csv(fp)
    joined = join(table, rows, registry)
    n = len(joined.metrics)
    assert n >= 19

    sweep = list(range(10, min(n, 200) + 1))
    by_series = {}
    for series in SERIES_NAMES:
        try:
            by_series[series] = topn_sweep(joined.metrics, series, sweep)
        except DegenerateInputError:
            pytest.fail(f"degenerate sweep for {series}")
    combined_wins = 0
    for index in range(len(sweep)):
        taus = {series: by_series[series][index].tau for series in SERIES_NAMES}
        if taus["combined"] >= max(taus.values()) - 1e-12:
            combined_wins += 1
    assert combined_wins > len(sweep) / 2

    assert combined_top_overlap(joined.metrics, 10, 19) == 10
