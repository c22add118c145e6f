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
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .aggregate import CountTable, RegistryMismatchError
from .registry import JournalRegistry, ResolutionKind

SERIES_NAMES = ("total_citations", "impact_factor", "articles", "combined")

MAX_EXACT_N = 8

_SQRT2 = math.sqrt(2.0)


class DegenerateInputError(ValueError):
    """A list is fully tied, so the rank correlation is undefined."""


class JcrFormatError(ValueError):
    """Journal-statistics CSV cannot be parsed or is inconsistent."""


@dataclass(frozen=True)
class JcrRecord:
    """One journal's external statistics: citations received across the
    literature, impact factor, and article count."""

    journal: str
    total_citations: int
    impact_factor: float
    articles: int


@dataclass(frozen=True)
class JournalMetrics:
    """Joined row: Wikipedia count next to the external statistics.

    ``combined`` is total_citations * impact_factor, computed once at join
    time so every consumer sees the identical value.
    """

    journal: str
    wiki_count: int
    jcr: JcrRecord
    combined: float


@dataclass(frozen=True)
class CorrelationResult:
    series_name: str
    n: int
    tau: float
    z: float
    p_value: float


@dataclass(frozen=True)
class JoinResult:
    """Joined metrics plus audit lists of everything that did not join."""

    metrics: list[JournalMetrics]
    wiki_only: list[str]
    jcr_only: list[str]
    jcr_excluded: list[str]


# Kendall tau-b ------------------------------------------------------


@dataclass(frozen=True)
class _TauStats:
    n: int
    s: int  # concordant minus discordant pairs
    n0: int  # n(n-1)/2
    n1: int  # tie pairs within x
    n2: int  # tie pairs within y
    x_tie_sizes: tuple[int, ...]
    y_tie_sizes: tuple[int, ...]


def _validate_pair(x: Sequence[float], y: Sequence[float]) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    for value in itertools.chain(x, y):
        if not math.isfinite(value):
            raise ValueError("values must be finite")


def _inversions(values: list) -> int:
    """Strict inversions (later value smaller) via bottom-up merge sort."""
    n = len(values)
    src = list(values)
    dst = src[:]
    inversions = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if src[j] < src[i]:
                    inversions += mid - i
                    dst[k] = src[j]
                    j += 1
                else:
                    dst[k] = src[i]
                    i += 1
                k += 1
            if i < mid:
                dst[k:hi] = src[i:mid]
            else:
                dst[k:hi] = src[j:hi]
        src, dst = dst, src
        width *= 2
    return inversions


def _run_sizes(sorted_values: Iterable) -> tuple[int, ...]:
    sizes = []
    run = 0
    previous = object()
    for value in sorted_values:
        if value == previous:
            run += 1
        else:
            if run > 1:
                sizes.append(run)
            run = 1
            previous = value
    if run > 1:
        sizes.append(run)
    return tuple(sizes)


def _pair_sum(sizes: Iterable[int]) -> int:
    return sum(t * (t - 1) // 2 for t in sizes)


def _tau_stats(x: Sequence[float], y: Sequence[float]) -> _TauStats:
    """Pair statistics via sort-and-count rather than pair enumeration.

    Sorting by (x, y) makes the discordant count equal to the strict
    inversion count of the y sequence; tie corrections come from run
    lengths.
    """
    n = len(x)
    pairs = sorted(zip(x, y))
    ys = [p[1] for p in pairs]
    discordant = _inversions(ys)
    x_tie_sizes = _run_sizes(p[0] for p in pairs)
    y_tie_sizes = _run_sizes(sorted(y))
    joint_ties = _pair_sum(_run_sizes(pairs))
    n0 = n * (n - 1) // 2
    n1 = _pair_sum(x_tie_sizes)
    n2 = _pair_sum(y_tie_sizes)
    s = n0 - n1 - n2 + joint_ties - 2 * discordant
    return _TauStats(n, s, n0, n1, n2, x_tie_sizes, y_tie_sizes)


def _checked_stats(x: Sequence[float], y: Sequence[float]) -> _TauStats:
    """Validated pair statistics of two lists that both have an ordering."""
    _validate_pair(x, y)
    stats = _tau_stats(x, y)
    if (stats.n0 - stats.n1) * (stats.n0 - stats.n2) <= 0:
        raise DegenerateInputError("a fully tied list has no rank ordering")
    return stats


def _tau_b(stats: _TauStats) -> float:
    return stats.s / math.sqrt((stats.n0 - stats.n1) * (stats.n0 - stats.n2))


def kendall_tau_b(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation.

    tau-b = (C - D) / sqrt((n0 - n1)(n0 - n2)) with n0 = n(n-1)/2 and
    n1, n2 the tie-pair counts within each list.
    """
    return _tau_b(_checked_stats(x, y))


def _s_variance(stats: _TauStats) -> float:
    """Null variance of C - D with the standard tie correction."""
    n = stats.n
    t = stats.x_tie_sizes
    u = stats.y_tie_sizes
    vt = sum(a * (a - 1) * (2 * a + 5) for a in t)
    vu = sum(a * (a - 1) * (2 * a + 5) for a in u)
    variance = (n * (n - 1) * (2 * n + 5) - vt - vu) / 18.0
    if n > 2:
        variance += (
            sum(a * (a - 1) * (a - 2) for a in t)
            * sum(a * (a - 1) * (a - 2) for a in u)
        ) / (9.0 * n * (n - 1) * (n - 2))
    variance += (
        sum(a * (a - 1) for a in t) * sum(a * (a - 1) for a in u)
    ) / (2.0 * n * (n - 1))
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
        if stats.n1 or stats.n2:
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


def correlate(
    x: Sequence[float],
    y: Sequence[float],
    series_name: str,
    method: str = "normal",
) -> CorrelationResult:
    stats = _checked_stats(x, y)
    p, z = _p_value(stats, method)
    return CorrelationResult(
        series_name=series_name, n=stats.n, tau=_tau_b(stats), z=z, p_value=p
    )


# joining and sweeps -------------------------------------------------


def join(
    counts: CountTable, jcr: Sequence[JcrRecord], registry: JournalRegistry
) -> JoinResult:
    """Inner join of wiki counts and external statistics on canonical names.

    Excluded journals never appear in the joined metrics; rows present on
    only one side land in the audit lists instead of vanishing.
    """
    if counts.registry_fingerprint != registry.fingerprint:
        raise RegistryMismatchError(
            "count table was built against a different registry"
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

    metrics.sort(key=lambda m: (-m.wiki_count, m.journal))
    return JoinResult(
        metrics=metrics,
        wiki_only=sorted(wiki_only),
        jcr_only=sorted(jcr_only),
        jcr_excluded=sorted(jcr_excluded),
    )


def series_values(metrics: JournalMetrics, series_name: str) -> float:
    if series_name == "total_citations":
        return float(metrics.jcr.total_citations)
    if series_name == "impact_factor":
        return metrics.jcr.impact_factor
    if series_name == "articles":
        return float(metrics.jcr.articles)
    if series_name == "combined":
        return metrics.combined
    raise ValueError(f"unknown series {series_name!r}")


def _by_wiki_count(metrics: Iterable[JournalMetrics]) -> list[JournalMetrics]:
    return sorted(metrics, key=lambda m: (-m.wiki_count, m.journal))


def topn_sweep(
    metrics: Sequence[JournalMetrics],
    series_name: str,
    n_values: Sequence[int],
    method: str = "normal",
) -> list[CorrelationResult]:
    """Correlate wiki counts against one series for the N most wiki-cited
    journals, for each N. Ties in wiki_count break by name, ascending."""
    out_of_range = [n for n in n_values if n < 2 or n > len(metrics)]
    if out_of_range:
        raise ValueError(
            f"sweep sizes out of range (2..{len(metrics)}): {out_of_range}"
        )
    ranked = _by_wiki_count(metrics)
    results = []
    for n in n_values:
        top = ranked[:n]
        x = [float(m.wiki_count) for m in top]
        y = [series_values(m, series_name) for m in top]
        results.append(correlate(x, y, series_name, method=method))
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
        if not math.isfinite(impact_factor):
            raise JcrFormatError(f"line {line_no}: impact factor must be finite")
        records.append(JcrRecord(journal, total_citations, impact_factor, articles))
    return records


def write_correlations_csv(results: Iterable[CorrelationResult], fp: IO[str]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["series", "n", "tau", "z", "p_value"])
    for r in results:
        writer.writerow([r.series_name, r.n, repr(r.tau), repr(r.z), repr(r.p_value)])


def write_scatter_csv(
    rows: Iterable[tuple[str, int, float, bool]], fp: IO[str]
) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["journal", "wiki_count", "combined", "labeled"])
    for journal, wiki_count, combined, labeled in rows:
        writer.writerow([journal, wiki_count, repr(combined), "true" if labeled else "false"])
