import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicite import bibliometrics
from wikicite.aggregate import CountTable, RegistryMismatchError
from wikicite.bibliometrics import (
    SERIES_NAMES,
    DegenerateInputError,
    JcrFormatError,
    JcrRecord,
    JournalMetrics,
    combined_top_overlap,
    correlate,
    join,
    read_jcr_csv,
    scatter_export,
    topn_sweep,
    write_correlations_csv,
    write_scatter_csv,
)

from oracles import brute_pair_counts, brute_tau, tie_sums


def make_table(counts: dict[str, int], fingerprint: str) -> CountTable:
    return CountTable(
        counts=counts,
        excluded_count=0,
        unknown={},
        unknown_overflow=0,
        template_total=sum(counts.values()),
        malformed_total=0,
        registry_fingerprint=fingerprint,
    )


def jcr(journal: str, total=1000, impact=2.5, articles=100) -> JcrRecord:
    return JcrRecord(journal, total, impact, articles)


# Each series' value for one joined journal, read from its attributes.
SERIES_VALUE = {
    "total_citations": lambda m: float(m.jcr.total_citations),
    "impact_factor": lambda m: m.jcr.impact_factor,
    "articles": lambda m: float(m.jcr.articles),
    "combined": lambda m: m.combined,
}


def metric(journal: str, wiki: int, total: int, impact: float, articles: int = 50):
    return JournalMetrics(
        journal=journal,
        wiki_count=wiki,
        jcr=JcrRecord(journal, total, impact, articles),
        combined=total * impact,
    )


class TestJoin:
    def test_single_row(self, starter_registry):
        table = make_table({"Nature": 787}, starter_registry.fingerprint)
        result = join(table, [jcr("Nature", 300000, 29.3, 800)], starter_registry)
        assert len(result.metrics) == 1
        row = result.metrics[0]
        assert row.journal == "Nature"
        assert row.wiki_count == 787
        assert row.combined == 300000 * 29.3

    def test_empty_jcr_gives_full_left_audit(self, starter_registry):
        table = make_table({"Nature": 3, "Science": 1}, starter_registry.fingerprint)
        result = join(table, [], starter_registry)
        assert result.metrics == []
        assert result.wiki_only == ["Nature", "Science"]
        assert result.jcr_only == []

    def test_partial_overlap_audits(self, starter_registry):
        counts = {"Nature": 5, "Science": 4, "Icarus": 3, "JAMA": 2, "Nuytsia": 1}
        table = make_table(counts, starter_registry.fingerprint)
        rows = [
            jcr("Nature"),
            jcr("Science"),
            jcr("Icarus"),
            jcr("The Lancet"),
            jcr("Annals of Internal Medicine"),
        ]
        result = join(table, rows, starter_registry)
        assert sorted(m.journal for m in result.metrics) == ["Icarus", "Nature", "Science"]
        assert result.wiki_only == ["JAMA", "Nuytsia"]
        assert result.jcr_only == ["Annals of Internal Medicine", "The Lancet"]

    def test_jcr_names_resolve_through_aliases(self, starter_registry):
        table = make_table(
            {"New England Journal of Medicine": 446}, starter_registry.fingerprint
        )
        result = join(table, [jcr("NEW ENGL J MED")], starter_registry)
        assert result.metrics[0].journal == "New England Journal of Medicine"

    def test_excluded_jcr_rows_never_join(self, starter_registry):
        table = make_table({"Nature": 1}, starter_registry.fingerprint)
        result = join(
            table, [jcr("Nature"), jcr("Scientific American")], starter_registry
        )
        assert [m.journal for m in result.metrics] == ["Nature"]
        assert result.jcr_excluded == ["Scientific American"]

    def test_unknown_jcr_rows_audited(self, starter_registry):
        table = make_table({"Nature": 1}, starter_registry.fingerprint)
        result = join(table, [jcr("Obscure Bulletin")], starter_registry)
        assert result.jcr_only == ["Obscure Bulletin"]

    def test_duplicate_jcr_row_raises(self, starter_registry):
        table = make_table({"Nature": 1}, starter_registry.fingerprint)
        with pytest.raises(JcrFormatError, match="Nature"):
            join(table, [jcr("Nature"), jcr("Nature")], starter_registry)

    def test_duplicate_via_alias_raises(self, starter_registry):
        table = make_table({"Nature": 1}, starter_registry.fingerprint)
        rows = [jcr("Nature"), jcr("Nature (journal)")]
        with pytest.raises(JcrFormatError, match="resolves to"):
            join(table, rows, starter_registry)

    def test_registry_fingerprint_checked(self, starter_registry):
        table = make_table({"Nature": 1}, "someone-elses-registry")
        with pytest.raises(RegistryMismatchError):
            join(table, [], starter_registry)

    @pytest.mark.parametrize(
        "counts, unknown, message",
        [
            ({"Nature": 1, "Totally Not A Journal": 2}, {}, "counts 'Totally Not A Journal'"),
            ({"Nature": 1, "Scientific American": 2}, {}, "counts 'Scientific American'"),
            ({"Nature": 1}, {"Science": 2}, "lists 'Science' as unknown"),
            ({"Nature": 1}, {"the nature (JOURNAL)": 2}, "resolves it to 'Nature'"),
            ({"Nature": 1}, {"Sci. Am.": 2}, "resolves it to 'Scientific American'"),
        ],
        ids=["not-a-name", "excluded-name", "canonical-unknown", "alias-unknown", "excluded-unknown"],
    )
    def test_table_must_agree_with_registry(self, starter_registry, counts, unknown, message):
        table = make_table(counts, starter_registry.fingerprint)._replace(
            unknown=unknown, template_total=sum(counts.values()) + sum(unknown.values())
        )
        with pytest.raises(RegistryMismatchError, match=message):
            join(table, [jcr("Nature")], starter_registry)

    def test_metrics_sorted_by_wiki_count_then_name(self, starter_registry):
        table = make_table(
            {"Nature": 5, "Science": 5, "Icarus": 9}, starter_registry.fingerprint
        )
        rows = [jcr("Nature"), jcr("Science"), jcr("Icarus")]
        result = join(table, rows, starter_registry)
        assert [m.journal for m in result.metrics] == ["Icarus", "Nature", "Science"]


class TestSweep:
    def _metrics(self, n=10, seed=5):
        rng = random.Random(seed)
        out = []
        for i in range(n):
            out.append(
                metric(
                    f"Journal {chr(65 + i)}",
                    wiki=rng.randrange(1, 40),
                    total=rng.randrange(100, 100000),
                    impact=round(rng.uniform(0.1, 40.0), 2),
                    articles=rng.randrange(10, 2000),
                )
            )
        return out

    def test_full_size_equals_direct_correlation(self):
        metrics = self._metrics()
        x = [float(m.wiki_count) for m in sorted(metrics, key=lambda m: (-m.wiki_count, m.journal))]
        y = [
            m.combined
            for m in sorted(metrics, key=lambda m: (-m.wiki_count, m.journal))
        ]
        (swept,) = topn_sweep(metrics, "combined", [len(metrics)])
        direct = correlate(x, y, "combined")
        assert swept == direct

    def test_sweep_matches_brute_force_at_each_n(self):
        metrics = self._metrics()
        ranked = sorted(metrics, key=lambda m: (-m.wiki_count, m.journal))
        for series in SERIES_NAMES:
            results = topn_sweep(metrics, series, list(range(2, 11)))
            for result in results:
                top = ranked[: result.n]
                x = [float(m.wiki_count) for m in top]
                y = [SERIES_VALUE[series](m) for m in top]
                assert result.tau == pytest.approx(brute_tau(x, y), abs=1e-12)

    def test_out_of_range_lists_offenders(self):
        metrics = self._metrics(n=5)
        with pytest.raises(ValueError, match=r"\[1, 9\]"):
            topn_sweep(metrics, "articles", [1, 3, 9])

    def test_unknown_series_rejected(self):
        with pytest.raises(ValueError, match="series"):
            topn_sweep(self._metrics(), "h_index", [3])

    def test_degenerate_subset_raises(self):
        metrics = [
            metric("A", 5, 10, 1.0),
            metric("B", 5, 20, 2.0),
        ]
        with pytest.raises(DegenerateInputError):
            topn_sweep(metrics, "combined", [2])


# sweep oracle ---------------------------------------------------------


@st.composite
def tied_sweeps(draw, max_size=24, values=4):
    """Journals with heavily tied counts and statistics, a possibly
    non-finite impact factor, and distinct sweep sizes, strictly increasing
    or in any order."""
    n = draw(st.integers(min_value=2, max_value=max_size))
    small = st.integers(min_value=0, max_value=values - 1)
    impacts = [float(v) / 2 for v in draw(st.lists(small, min_size=n, max_size=n))]
    broken = draw(st.none() | st.integers(min_value=0, max_value=n - 1))
    if broken is not None:
        impacts[broken] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    metrics = [
        metric(
            f"J{i:02d}",
            wiki=draw(small),
            total=draw(small),
            impact=impact,
            articles=draw(small),
        )
        for i, impact in enumerate(impacts)
    ]
    n_values = sorted(draw(st.sets(st.integers(min_value=2, max_value=n), min_size=1)))
    if draw(st.booleans()):
        n_values = draw(st.permutations(n_values))
    return metrics, n_values


def _ranked_pairs(metrics, series):
    ranked = sorted(metrics, key=lambda m: (-m.wiki_count, m.journal))
    return [float(m.wiki_count) for m in ranked], [SERIES_VALUE[series](m) for m in ranked]


def _per_prefix(x, y, series, n_values, method="normal"):
    """Rows of per-prefix ``correlate`` up to the first size that fails,
    and that size's exception (or None)."""
    rows = []
    for n in n_values:
        try:
            rows.append(correlate(x[:n], y[:n], series, method=method))
        except ValueError as exc:
            return rows, exc
    return rows, None


def _reprs(results):
    return [(r.series_name, r.n, repr(r.tau), repr(r.z), repr(r.p_value)) for r in results]


def _assert_sweep_matches_prefixes(metrics, n_values, method="normal"):
    for series in SERIES_NAMES:
        x, y = _ranked_pairs(metrics, series)
        rows, error = _per_prefix(x, y, series, n_values, method)
        if error is None:
            assert _reprs(topn_sweep(metrics, series, n_values, method)) == _reprs(rows)
            continue
        with pytest.raises(type(error)) as raised:
            topn_sweep(metrics, series, n_values, method)
        assert type(raised.value) is type(error)
        assert str(raised.value) == str(error)
        # the same sizes before the failing one still sweep
        before = n_values[: len(rows)]
        assert _reprs(topn_sweep(metrics, series, before, method)) == _reprs(rows)


@settings(max_examples=300, deadline=None)
@given(tied_sweeps())
def test_sweep_rows_equal_per_prefix_correlate(case):
    metrics, n_values = case
    _assert_sweep_matches_prefixes(metrics, n_values)


@settings(max_examples=300, deadline=None)
@given(tied_sweeps(max_size=12, values=12))
def test_exact_sweep_equals_per_prefix_exact(case):
    metrics, n_values = case
    _assert_sweep_matches_prefixes(metrics, n_values, method="exact")


def test_exact_sweep_rejects_n_above_limit():
    metrics = [metric(f"J{i}", wiki=20 - i, total=i * 7 % 11, impact=1.0) for i in range(12)]
    assert len(topn_sweep(metrics, "total_citations", [2, 8], method="exact")) == 2
    with pytest.raises(ValueError, match="n <= 8"):
        topn_sweep(metrics, "total_citations", [2, 8, 9], method="exact")


@settings(max_examples=300, deadline=None)
@given(tied_sweeps())
def test_prefix_stats_agree_with_pair_enumeration(case):
    metrics, _ = case
    for series in SERIES_NAMES:
        x, y = _ranked_pairs(metrics, series)
        finite = next((i for i, v in enumerate(y) if not math.isfinite(v)), len(y))
        stats = bibliometrics._tau_stats(x[:finite], y[:finite])
        assert [row.n for row in stats] == list(range(1, finite + 1))
        for row in stats:
            n = row.n
            s, x_pairs, y_pairs = brute_pair_counts(x[:n], y[:n])
            assert (row.s, row.n0 - row.x_ties.pairs, row.n0 - row.y_ties.pairs) == (
                s, x_pairs, y_pairs,
            )
            assert (tuple(row.x_ties), tuple(row.y_ties)) == (tie_sums(x[:n]), tie_sums(y[:n]))


def test_sweep_checks_pair_stats_once_per_series(monkeypatch):
    calls = []
    original = bibliometrics._tau_stats

    def counting(x, y):
        calls.append(len(x))
        return original(x, y)

    monkeypatch.setattr(bibliometrics, "_tau_stats", counting)
    metrics = TestSweep()._metrics()
    topn_sweep(metrics, "combined", [2, 5, 7])
    assert calls == [7]


class TestOverlap:
    def test_full_overlap_forced(self):
        metrics = [metric(f"J{i}", 10 - i, 1000 * (i + 1), 1.0) for i in range(4)]
        assert combined_top_overlap(metrics, 4, 4) == 4

    def test_reversed_orders_give_zero(self):
        # combined rank is the exact reverse of wiki rank
        metrics = [
            metric(f"J{i}", wiki=10 - i, total=100 * (i + 1), impact=1.0)
            for i in range(6)
        ]
        assert combined_top_overlap(metrics, 2, 2) == 0

    def test_bounds_checked(self):
        metrics = [metric("A", 1, 1, 1.0), metric("B", 2, 2, 1.0)]
        with pytest.raises(ValueError):
            combined_top_overlap(metrics, 3, 3)
        with pytest.raises(ValueError):
            combined_top_overlap(metrics, 2, 1)


class TestScatter:
    def test_empty_is_header_only(self):
        buffer = io.StringIO()
        write_scatter_csv(scatter_export([], 100), buffer)
        assert buffer.getvalue() == "journal,wiki_count,combined,labeled\n"

    def test_label_budget_marks_top_wiki_count(self):
        metrics = [metric("A", 3, 10, 1.0), metric("B", 9, 5, 1.0), metric("C", 1, 99, 1.0)]
        rows = scatter_export(metrics, top_label_count=1)
        assert [(r[0], r[3]) for r in rows] == [("B", True), ("A", False), ("C", False)]

    def test_values_raw(self):
        rows = scatter_export([metric("A", 787, 300000, 29.3)], 100)
        assert rows[0][1] == 787
        assert rows[0][2] == 300000 * 29.3


class TestJcrCsv:
    GOOD = (
        "journal,total_citations,impact_factor,articles\n"
        "Nature,300000,29.3,800\n"
        "Science,280000,27.1,750\n"
    )

    def test_happy_path(self):
        rows = read_jcr_csv(io.StringIO(self.GOOD))
        assert rows[0] == JcrRecord("Nature", 300000, 29.3, 800)
        assert len(rows) == 2

    def test_bad_header(self):
        with pytest.raises(JcrFormatError, match="header"):
            read_jcr_csv(io.StringIO("name,cites\nNature,1\n"))

    def test_empty_file(self):
        with pytest.raises(JcrFormatError, match="empty"):
            read_jcr_csv(io.StringIO(""))

    def test_wrong_field_count(self):
        with pytest.raises(JcrFormatError, match="line 2"):
            read_jcr_csv(
                io.StringIO("journal,total_citations,impact_factor,articles\nNature,1\n")
            )

    def test_negative_value_rejected(self):
        with pytest.raises(JcrFormatError, match="line 2"):
            read_jcr_csv(
                io.StringIO(
                    "journal,total_citations,impact_factor,articles\nNature,-1,2.0,3\n"
                )
            )

    def test_combined_overflow_rejected(self):
        """``join`` multiplies total_citations by impact_factor; a row whose
        product is not a finite float is named by line and journal."""
        with pytest.raises(JcrFormatError, match="line 3: 'Science': total_citations"):
            read_jcr_csv(io.StringIO(self.GOOD.replace("280000,27.1", f"{10**300},1e10")))

    def test_non_numeric_rejected(self):
        with pytest.raises(JcrFormatError, match="line 2"):
            read_jcr_csv(
                io.StringIO(
                    "journal,total_citations,impact_factor,articles\nNature,many,2.0,3\n"
                )
            )


def test_correlations_csv_roundtrips_floats():
    results = [correlate([1, 2, 3, 4], [1, 3, 2, 4], "articles")]
    buffer = io.StringIO()
    write_correlations_csv(results, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "series,n,tau,z,p_value"
    series, n, tau, z, p = lines[1].split(",")
    assert series == "articles"
    assert int(n) == 4
    assert float(tau) == results[0].tau
    assert float(z) == results[0].z
    assert float(p) == results[0].p_value
    assert math.isfinite(float(tau))
