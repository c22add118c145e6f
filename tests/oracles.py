"""Independent rank-correlation oracles.

These enumerate pairs and permutations, and count tie groups, directly; they
must stay independent of the Fenwick-tree walk they check.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from wikicite.registry import normalize_key


def brute_pair_counts(x, y) -> tuple[int, int, int]:
    """(C - D, n0 - n1, n0 - n2) by walking every pair."""
    n = len(x)
    s = 0
    x_ties = 0
    y_ties = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            s += dx * dy
            if dx == 0:
                x_ties += 1
            if dy == 0:
                y_ties += 1
    return s, total - x_ties, total - y_ties


def brute_tau(x, y) -> float:
    s, dx, dy = brute_pair_counts(x, y)
    return s / math.sqrt(dx * dy)


def tie_sums(values) -> tuple[int, int, int, int]:
    """Sums of t(t-1)/2, t(t-1)(2t+5), t(t-1) and t(t-1)(t-2) over the tie
    groups of ``values``, t being a group's size."""
    sizes = Counter(values).values()
    return (
        sum(t * (t - 1) // 2 for t in sizes),
        sum(t * (t - 1) * (2 * t + 5) for t in sizes),
        sum(t * (t - 1) for t in sizes),
        sum(t * (t - 1) * (t - 2) for t in sizes),
    )


def brute_z(x, y) -> float:
    """Continuity-corrected normal score of C - D under the tie-corrected
    null variance."""
    s = brute_pair_counts(x, y)[0]
    n = len(x)
    _, tv, tv1, tv2 = tie_sums(x)
    _, uv, uv1, uv2 = tie_sums(y)
    variance = (n * (n - 1) * (2 * n + 5) - tv - uv) / 18
    if n > 2:
        variance += tv2 * uv2 / (9 * n * (n - 1) * (n - 2))
    variance += tv1 * uv1 / (2 * n * (n - 1))
    return math.copysign(max(abs(s) - 1, 0), s) / math.sqrt(variance) if s else 0.0


def exact_p_by_enumeration(x, y) -> float:
    """Two-sided permutation P-value: enumerate every ordering of y."""
    s_obs = brute_pair_counts(x, y)[0]
    hits = 0
    total = 0
    for perm in itertools.permutations(y):
        total += 1
        if abs(brute_pair_counts(x, perm)[0]) >= abs(s_obs):
            hits += 1
    return hits / total


def near_misses_by_pairs(unknown, registry, min_prefix=6):
    """Near-miss hints by comparing every unknown key with every registry key."""
    hits = []
    keys = sorted(registry.key_to_name)
    for raw in sorted(set(unknown)):
        raw_key = normalize_key(raw)
        if not raw_key:
            continue
        for key in keys:
            if key == raw_key:
                continue
            prefix = min(len(key), len(raw_key), min_prefix)
            if prefix >= min_prefix and key[:prefix] == raw_key[:prefix]:
                hits.append((raw, registry.key_to_name[key]))
    return hits
