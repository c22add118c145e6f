"""Join per-journal counts with external journal statistics and compare them.

The comparison suite: tie-corrected Kendall rank correlation (tau-b) with a
two-sided significance test, correlation sweeps over the N most-cited
journals, a combined citations-times-impact measure, top-list overlap, and
scatter-plot exports.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import sys
from typing import IO, Iterable, NamedTuple, Sequence

from .aggregate import CountTable, RegistryMismatchError, write_csv
from .registry import JournalRegistry, ResolutionKind, normalize_key

SERIES_NAMES = ("total_citations", "impact_factor", "articles", "combined")

MAX_EXACT_N = 8

_SQRT2 = math.sqrt(2.0)


class DegenerateInputError(ValueError):
    """A list is fully tied, so the rank correlation is undefined."""


class JcrFormatError(ValueError):
    """Journal-statistics CSV cannot be parsed or is inconsistent."""


class JcrRecord(NamedTuple):
    """One journal's external statistics: citations received across the
    literature, impact factor, and article count."""

    journal: str
    total_citations: int
    impact_factor: float
    articles: int


class JournalMetrics(NamedTuple):
    """Joined row: Wikipedia count next to the external statistics.

    ``combined`` is total_citations * impact_factor, computed once at join
    time so every consumer sees the identical value.
    """

    journal: str
    wiki_count: int
    jcr: JcrRecord
    combined: float


class CorrelationResult(NamedTuple):
    series_name: str
    n: int
    tau: float
    z: float
    p_value: float


class JoinResult(NamedTuple):
    """Joined metrics plus audit lists of everything that did not join."""

    metrics: list[JournalMetrics]
    wiki_only: list[str]
    jcr_only: list[str]
    jcr_excluded: list[str]


# Kendall tau-b ------------------------------------------------------


class _TieSums(NamedTuple):
    """Sums over the tie groups of one list, t being a group's size."""

    pairs: int  # sum t(t-1)/2: the tied pairs
    v: int  # sum t(t-1)(2t+5)
    v1: int  # sum t(t-1)
    v2: int  # sum t(t-1)(t-2)

    def joined(self, t: int) -> "_TieSums":
        """The sums once one more value joins a tie group of ``t``: each
        gains its term at t + 1 minus its term at t."""
        return _TieSums(
            self.pairs + t, self.v + 6 * t * (t + 2), self.v1 + 2 * t, self.v2 + 3 * t * (t - 1)
        )


class _TauStats(NamedTuple):
    n: int
    s: int  # concordant minus discordant pairs
    x_ties: _TieSums
    y_ties: _TieSums

    @property
    def n0(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def denominator(self) -> int:
        """(n0 - n1)(n0 - n2), n1 and n2 the tied pairs within x and y."""
        return (self.n0 - self.x_ties.pairs) * (self.n0 - self.y_ties.pairs)


def _validate_pair(x: Sequence[float], y: Sequence[float]) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    for value in itertools.chain(x, y):
        if not math.isfinite(value):
            raise ValueError("values must be finite")


def _fenwick_add(tree: list[int], i: int) -> None:
    while i < len(tree):
        tree[i] += 1
        i += i & -i


def _fenwick_prefix(tree: list[int], i: int) -> int:
    """How many values of rank 1..i the tree holds."""
    total = 0
    while i:
        total += tree[i]
        i &= i - 1
    return total


def _tau_stats(x: Sequence[float], y: Sequence[float]) -> list[_TauStats]:
    """Pair statistics of ``x[:n], y[:n]`` for every n, from one walk over
    the two lists; ``x`` must be non-increasing and every value finite.

    The value at position j adds to C - D the earlier values with a strictly
    larger x and a larger y, minus those with a smaller y. A Fenwick tree
    over y ranks (Fenwick 1994) holds the earlier values, and two prefix
    queries count both sets; the current run of tied x stays out of the tree
    until x changes. The tie sums grow as running integers (the incremental
    form of Christensen 2005), so the walk costs O(n log n) and every
    statistic is an exact integer.
    """
    rank = {value: r for r, value in enumerate(sorted(set(y)), start=1)}
    tree = [0] * (len(rank) + 1)
    tie_run: list[int] = []  # y ranks of the current run of tied x
    y_group: dict[int, int] = {}  # members so far per y rank
    x_ties = y_ties = _TieSums(0, 0, 0, 0)
    s = 0
    out = []
    for n, (x_value, y_value) in enumerate(zip(x, y), start=1):
        if n > 1 and x_value != x[n - 2]:
            for r in tie_run:
                _fenwick_add(tree, r)
            tie_run.clear()
        r = rank[y_value]
        in_tree = n - 1 - len(tie_run)
        not_above = _fenwick_prefix(tree, r)
        s += (in_tree - not_above) - _fenwick_prefix(tree, r - 1)
        x_ties = x_ties.joined(len(tie_run))
        tie_run.append(r)
        t = y_group.get(r, 0)
        y_ties = y_ties.joined(t)
        y_group[r] = t + 1
        out.append(_TauStats(n, s, x_ties, y_ties))
    return out


def _require_ordering(stats: _TauStats) -> _TauStats:
    if stats.denominator <= 0:
        raise DegenerateInputError("a fully tied list has no rank ordering")
    return stats


def _checked_stats(x: Sequence[float], y: Sequence[float]) -> _TauStats:
    """Validated pair statistics of two lists that both have an ordering:
    the last prefix of the walk over the pairs sorted by x, descending."""
    _validate_pair(x, y)
    pairs = sorted(zip(x, y), key=operator.itemgetter(0), reverse=True)
    return _require_ordering(_tau_stats(*zip(*pairs))[-1])


def _tau_b(stats: _TauStats) -> float:
    return stats.s / math.sqrt(stats.denominator)


def kendall_tau_b(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation.

    tau-b = (C - D) / sqrt((n0 - n1)(n0 - n2)) with n0 = n(n-1)/2 and
    n1, n2 the tie-pair counts within each list.
    """
    return _tau_b(_checked_stats(x, y))


def _s_variance(stats: _TauStats) -> float:
    """Null variance of C - D with the standard tie correction."""
    n = stats.n
    t = stats.x_ties
    u = stats.y_ties
    variance = (n * (n - 1) * (2 * n + 5) - t.v - u.v) / 18.0
    if n > 2:
        variance += (t.v2 * u.v2) / (9.0 * n * (n - 1) * (n - 2))
    variance += (t.v1 * u.v1) / (2.0 * n * (n - 1))
    return variance


def _exact_two_sided_p(stats: _TauStats) -> float:
    """Enumerate all n! orderings of y and count |C - D| at least as large
    as observed. Only valid without ties."""
    n = stats.n
    n0 = stats.n0
    target = abs(stats.s)
    hits = 0
    for perm in itertools.permutations(range(n)):
        inversions = 0
        for i in range(n):
            left = perm[i]
            for j in range(i + 1, n):
                if perm[j] < left:
                    inversions += 1
        if abs(n0 - 2 * inversions) >= target:
            hits += 1
    return hits / math.factorial(n)


def _p_value(stats: _TauStats, method: str) -> tuple[float, float]:
    variance = _s_variance(stats)
    if variance <= 0:
        raise DegenerateInputError("null variance is zero for this tie structure")
    sign = (stats.s > 0) - (stats.s < 0)
    z = sign * max(abs(stats.s) - 1, 0) / math.sqrt(variance)
    if method == "normal":
        p = math.erfc(abs(z) / _SQRT2)
    elif method == "exact":
        if stats.n > MAX_EXACT_N:
            raise ValueError(f"exact method supports n <= {MAX_EXACT_N}")
        if stats.x_ties.pairs or stats.y_ties.pairs:
            raise ValueError("exact method requires tie-free lists")
        p = _exact_two_sided_p(stats)
    else:
        raise ValueError(f"unknown method {method!r}")
    return p, z


def tau_p_value(
    x: Sequence[float], y: Sequence[float], method: str = "normal"
) -> tuple[float, float]:
    """Two-sided P-value and z score under the null of independence.

    ``normal`` uses the normal approximation on C - D with tie-corrected
    variance and a continuity correction of one (C - D moves in discrete
    steps, and the correction keeps small-n values close to the exact
    permutation distribution). ``exact`` enumerates all orderings; it
    requires n <= 8 and no ties, and exists mainly to check the
    approximation at small n. Either way p = erfc(|z| / sqrt(2)) holds for
    the returned z under the normal convention.
    """
    return _p_value(_checked_stats(x, y), method)


def _result(stats: _TauStats, series_name: str, method: str) -> CorrelationResult:
    p, z = _p_value(stats, method)
    return CorrelationResult(
        series_name=series_name, n=stats.n, tau=_tau_b(stats), z=z, p_value=p
    )


def correlate(
    x: Sequence[float],
    y: Sequence[float],
    series_name: str,
    method: str = "normal",
) -> CorrelationResult:
    return _result(_checked_stats(x, y), series_name, method)


# joining and sweeps -------------------------------------------------


def _by_wiki_count(metrics: Iterable[JournalMetrics]) -> list[JournalMetrics]:
    return sorted(metrics, key=lambda m: (-m.wiki_count, m.journal))


def join(
    counts: CountTable, jcr: Sequence[JcrRecord], registry: JournalRegistry
) -> JoinResult:
    """Inner join of wiki counts and external statistics on canonical names.

    Excluded journals never appear in the joined metrics; rows present on
    only one side land in the audit lists instead of vanishing. A table
    that does not agree with ``registry`` raises RegistryMismatchError: one
    tallied against another registry, one whose counts hold a name other
    than a canonical, non-excluded one, or one whose unknown strings hold
    one that the registry resolves.
    """
    if counts.registry_fingerprint != registry.fingerprint:
        raise RegistryMismatchError(
            "count table was built against a different registry"
        )
    stray = counts.counts.keys() - (registry.canonical - registry.exclusions)
    if stray:
        name = next(name for name in counts.counts if name in stray)
        raise RegistryMismatchError(
            f"count table counts {name!r}, which is not a counted journal of the registry"
        )
    for raw in counts.unknown:
        name = registry.key_to_name.get(normalize_key(raw))
        if name is not None:
            raise RegistryMismatchError(
                f"count table lists {raw!r} as unknown, but the registry resolves it to {name!r}"
            )
    seen_raw: set[str] = set()
    resolved: dict[str, JcrRecord] = {}
    jcr_only: list[str] = []
    jcr_excluded: list[str] = []
    for row in jcr:
        if row.journal in seen_raw:
            raise JcrFormatError(f"duplicate journal row: {row.journal!r}")
        seen_raw.add(row.journal)
        resolution = registry.resolve(row.journal)
        if resolution.kind is ResolutionKind.EXCLUDED:
            jcr_excluded.append(row.journal)
            continue
        if resolution.kind is ResolutionKind.UNKNOWN:
            jcr_only.append(row.journal)
            continue
        if resolution.name in resolved:
            raise JcrFormatError(
                f"duplicate journal row: {row.journal!r} resolves to "
                f"{resolution.name!r} which is already present"
            )
        resolved[resolution.name] = row

    metrics: list[JournalMetrics] = []
    wiki_only: list[str] = []
    for name, wiki_count in counts.counts.items():
        row = resolved.get(name)
        if row is None:
            wiki_only.append(name)
            continue
        metrics.append(
            JournalMetrics(
                journal=name,
                wiki_count=wiki_count,
                jcr=row,
                combined=row.total_citations * row.impact_factor,
            )
        )
    for name in resolved:
        if name not in counts.counts:
            jcr_only.append(name)

    return JoinResult(
        metrics=_by_wiki_count(metrics),
        wiki_only=sorted(wiki_only),
        jcr_only=sorted(jcr_only),
        jcr_excluded=sorted(jcr_excluded),
    )


_SERIES_GETTERS = {
    "total_citations": lambda m: float(m.jcr.total_citations),
    "impact_factor": lambda m: m.jcr.impact_factor,
    "articles": lambda m: float(m.jcr.articles),
    "combined": lambda m: m.combined,
}


def _series_getter(series_name: str):
    getter = _SERIES_GETTERS.get(series_name)
    if getter is None:
        raise ValueError(f"unknown series {series_name!r}")
    return getter


def topn_sweep(
    metrics: Sequence[JournalMetrics],
    series_name: str,
    n_values: Sequence[int],
    method: str = "normal",
) -> list[CorrelationResult]:
    """Correlate wiki counts against one series for the N most wiki-cited
    journals, for each N. Ties in wiki_count break by name, ascending.

    One O(N log N) walk down the ranked journals yields every prefix's pair
    statistics (see :func:`_tau_stats`). Each N gives the same result, or raises the same error, as
    :func:`correlate` on that prefix; the first N in ``n_values`` order that
    fails raises.
    """
    out_of_range = [n for n in n_values if n < 2 or n > len(metrics)]
    if out_of_range:
        raise ValueError(
            f"sweep sizes out of range (2..{len(metrics)}): {out_of_range}"
        )
    if not n_values:
        return []
    getter = _series_getter(series_name)
    top = _by_wiki_count(metrics)[: max(n_values)]
    x = [float(m.wiki_count) for m in top]
    y = [getter(m) for m in top]
    # x holds whole counts, so only y can be non-finite
    finite = next((i for i, value in enumerate(y) if not math.isfinite(value)), len(y))
    stats = _tau_stats(x[:finite], y[:finite])
    results = []
    for n in n_values:
        if n > finite:
            raise ValueError("values must be finite")
        results.append(_result(_require_ordering(stats[n - 1]), series_name, method))
    return results


def combined_top_overlap(
    metrics: Sequence[JournalMetrics], k: int, m: int
) -> int:
    """How many of the top-k journals by the combined measure sit inside the
    top-m by wiki count."""
    if not 0 <= k <= m <= len(metrics):
        raise ValueError(
            f"need 0 <= k <= m <= {len(metrics)}, got k={k}, m={m}"
        )
    by_combined = sorted(metrics, key=lambda metric: (-metric.combined, metric.journal))
    top_combined = {metric.journal for metric in by_combined[:k]}
    top_wiki = {metric.journal for metric in _by_wiki_count(metrics)[:m]}
    return len(top_combined & top_wiki)


def scatter_export(
    metrics: Sequence[JournalMetrics], top_label_count: int = 100
) -> list[tuple[str, int, float, bool]]:
    """(journal, wiki_count, combined, labeled) rows, most wiki-cited first.

    ``labeled`` marks the label budget for plotting; values stay raw, axis
    scaling is the consumer's choice.
    """
    rows = []
    for index, metric in enumerate(_by_wiki_count(metrics)):
        rows.append(
            (metric.journal, metric.wiki_count, metric.combined, index < top_label_count)
        )
    return rows


# CSV interfaces -----------------------------------------------------

JCR_HEADER = ["journal", "total_citations", "impact_factor", "articles"]


def read_jcr_csv(fp: IO[str]) -> list[JcrRecord]:
    """Rows of ``journal,total_citations,impact_factor,articles``."""
    reader = csv.reader(fp)
    try:
        header = next(reader)
    except StopIteration:
        raise JcrFormatError("empty file") from None
    if [h.strip() for h in header] != JCR_HEADER:
        raise JcrFormatError(
            f"bad header {header!r}, expected {','.join(JCR_HEADER)}"
        )
    records = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise JcrFormatError(f"line {line_no}: expected 4 fields, got {len(row)}")
        journal = row[0].strip()
        if not journal:
            raise JcrFormatError(f"line {line_no}: empty journal name")
        try:
            total_citations = int(row[1])
            impact_factor = float(row[2])
            articles = int(row[3])
        except ValueError as exc:
            raise JcrFormatError(f"line {line_no}: {exc}") from None
        if total_citations < 0 or articles < 0 or not impact_factor >= 0:
            raise JcrFormatError(f"line {line_no}: negative or non-finite value")
        if max(total_citations, articles) > sys.float_info.max:
            # the series and the combined measure read them as floats
            raise JcrFormatError(f"line {line_no}: value too large for a float")
        if not math.isfinite(impact_factor):
            raise JcrFormatError(f"line {line_no}: impact factor must be finite")
        if not math.isfinite(total_citations * impact_factor):
            raise JcrFormatError(
                f"line {line_no}: {journal!r}: total_citations * impact_factor "
                "(the combined measure) is too large for a float"
            )
        records.append(JcrRecord(journal, total_citations, impact_factor, articles))
    return records


def write_correlations_csv(results: Iterable[CorrelationResult], fp: IO[str]) -> None:
    rows = ([r.series_name, r.n, repr(r.tau), repr(r.z), repr(r.p_value)] for r in results)
    write_csv(["series", "n", "tau", "z", "p_value"], rows, fp)


def write_scatter_csv(
    rows: Iterable[tuple[str, int, float, bool]], fp: IO[str]
) -> None:
    formatted = (
        [journal, wiki_count, repr(combined), "true" if labeled else "false"]
        for journal, wiki_count, combined, labeled in rows
    )
    write_csv(["journal", "wiki_count", "combined", "labeled"], formatted, fp)
