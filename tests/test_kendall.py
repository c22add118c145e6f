import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicite import bibliometrics
from wikicite.bibliometrics import (
    CorrelationResult,
    DegenerateInputError,
    correlate,
    kendall_tau_b,
    tau_p_value,
)

from oracles import brute_pair_counts, brute_tau, brute_z, exact_p_by_enumeration


class TestTau:
    def test_known_value_four_points(self):
        # all 6 pairs by hand: 5 concordant, 1 discordant
        assert kendall_tau_b([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6, abs=1e-15)

    def test_self_correlation_with_ties(self):
        x = [3, 1, 4, 1, 5]
        assert kendall_tau_b(x, x) == pytest.approx(1.0, abs=0)

    def test_full_reversal(self):
        assert kendall_tau_b([1, 2, 3], [3, 2, 1]) == -1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            kendall_tau_b([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError, match="two"):
            kendall_tau_b([1], [2])

    def test_fully_tied_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            kendall_tau_b([7, 7, 7], [1, 2, 3])
        with pytest.raises(DegenerateInputError):
            kendall_tau_b([1, 2, 3], [4, 4, 4])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            kendall_tau_b([1, 2, float("nan")], [1, 2, 3])

    def test_matches_brute_force_with_ties(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(2, 8)
            x = [rng.randrange(4) for _ in range(n)]
            y = [rng.randrange(4) for _ in range(n)]
            s, dx, dy = brute_pair_counts(x, y)
            if dx == 0 or dy == 0:
                with pytest.raises(DegenerateInputError):
                    kendall_tau_b(x, y)
                continue
            assert kendall_tau_b(x, y) == pytest.approx(brute_tau(x, y), abs=1e-12)


class TestPValue:
    def test_exact_reversal_n3(self):
        # 3! orderings; |S| >= 3 happens for the two monotone ones
        p, z = tau_p_value([1, 2, 3], [3, 2, 1], method="exact")
        assert p == pytest.approx(2 / 6, abs=1e-15)
        assert z < 0

    def test_tau_zero_gives_p_one(self):
        x = [1, 2, 3, 4]
        y = [2, 4, 1, 3]
        assert kendall_tau_b(x, y) == 0.0
        p, z = tau_p_value(x, y)
        assert p == 1.0
        assert z == 0.0

    def test_identical_rankings_n10_normal_value(self):
        x = list(range(10))
        # hand-derived for n=10, no ties: S = 45, var = 10*9*25/18 = 125,
        # continuity-corrected statistic 44
        expected = math.erfc(44 / math.sqrt(125) / math.sqrt(2))
        p, z = tau_p_value(x, x)
        assert p == pytest.approx(expected, rel=1e-12)
        assert z == pytest.approx(44 / math.sqrt(125), rel=1e-12)
        assert p == pytest.approx(math.erfc(abs(z) / math.sqrt(2)), rel=1e-12)

    def test_normal_close_to_exact_at_n7(self):
        rng = random.Random(23)
        for _ in range(30):
            x = list(range(7))
            y = rng.sample(range(7), 7)
            p_normal, _ = tau_p_value(x, y, method="normal")
            p_exact = exact_p_by_enumeration(x, y)
            assert abs(p_normal - p_exact) < 0.05

    def test_exact_path_matches_enumeration_up_to_n5(self):
        rng = random.Random(29)
        for n in (2, 3, 4, 5):
            for _ in range(40):
                x = [rng.uniform(0, 1) for _ in range(n)]
                y = [rng.uniform(0, 1) for _ in range(n)]
                p_lib, _ = tau_p_value(x, y, method="exact")
                assert p_lib == pytest.approx(exact_p_by_enumeration(x, y), abs=1e-15)

    def test_exact_requires_no_ties(self):
        with pytest.raises(ValueError, match="tie"):
            tau_p_value([1, 1, 2, 3], [1, 2, 3, 4], method="exact")

    def test_exact_requires_small_n(self):
        x = list(range(9))
        with pytest.raises(ValueError, match="n <="):
            tau_p_value(x, x, method="exact")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            tau_p_value([1, 2], [1, 2], method="bootstrap")

    def test_correlate_packs_result(self):
        result = correlate([1, 2, 3, 4], [1, 3, 2, 4], "articles")
        assert result.series_name == "articles"
        assert result.n == 4
        assert -1 <= result.tau <= 1
        assert 0 <= result.p_value <= 1

    def test_correlate_computes_pair_stats_once(self, monkeypatch):
        calls = []
        original = bibliometrics._tau_stats

        def counting(x, y):
            calls.append(len(x))
            return original(x, y)

        monkeypatch.setattr(bibliometrics, "_tau_stats", counting)
        correlate([1, 2, 2, 4, 5], [3, 1, 2, 2, 5], "articles")
        assert calls == [5]

    def test_correlate_equals_separate_calls_on_tied_inputs(self):
        rng = random.Random(47)
        checked = 0
        for _ in range(300):
            n = rng.randrange(2, 30)
            x = [rng.randrange(5) for _ in range(n)]
            y = [rng.randrange(5) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            result = correlate(x, y, "combined")
            p, z = tau_p_value(x, y)
            assert (result.tau, result.z, result.p_value) == (kendall_tau_b(x, y), z, p)
            checked += 1
        assert checked > 200


def test_scipy_cross_check_tau():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(3, 25)
        x = [rng.randrange(6) for _ in range(n)]
        y = [rng.randrange(6) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        expected = scipy_stats.kendalltau(x, y, method="asymptotic")
        assert kendall_tau_b(x, y) == pytest.approx(expected.statistic, abs=1e-12)


def test_scipy_cross_check_p_large_n():
    # scipy's asymptotic path has no continuity correction; at large n the
    # correction shifts p by well under 0.01, so both must agree closely.
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randrange(40, 120)
        x = [rng.randrange(12) for _ in range(n)]
        y = [rng.randrange(12) for _ in range(n)]
        expected = scipy_stats.kendalltau(x, y, method="asymptotic")
        p, _ = tau_p_value(x, y)
        assert p == pytest.approx(expected.pvalue, abs=0.01)


# randomized properties ----------------------------------------------

_int_lists = st.integers(min_value=-50, max_value=50)


@st.composite
def paired_lists(draw, min_size=2, max_size=30):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    x = draw(st.lists(_int_lists, min_size=n, max_size=n))
    y = draw(st.lists(_int_lists, min_size=n, max_size=n))
    return x, y


def _non_degenerate(x, y):
    return len(set(x)) > 1 and len(set(y)) > 1


@settings(max_examples=300, deadline=None)
@given(paired_lists())
def test_tau_bounded(pair):
    x, y = pair
    if not _non_degenerate(x, y):
        return
    assert abs(kendall_tau_b(x, y)) <= 1.0 + 1e-12


@settings(max_examples=300, deadline=None)
@given(paired_lists())
def test_antisymmetry_under_negation(pair):
    x, y = pair
    if not _non_degenerate(x, y):
        return
    assert kendall_tau_b(x, [-v for v in y]) == -kendall_tau_b(x, y)


@settings(max_examples=300, deadline=None)
@given(paired_lists(), st.randoms(use_true_random=False))
def test_joint_permutation_invariance(pair, rnd):
    x, y = pair
    if not _non_degenerate(x, y):
        return
    order = list(range(len(x)))
    rnd.shuffle(order)
    xp = [x[i] for i in order]
    yp = [y[i] for i in order]
    assert kendall_tau_b(xp, yp) == kendall_tau_b(x, y)
    assert tau_p_value(xp, yp) == tau_p_value(x, y)


@settings(max_examples=300, deadline=None)
@given(paired_lists())
def test_strictly_monotone_transform_invariance(pair):
    x, y = pair
    if not _non_degenerate(x, y):
        return
    tau = kendall_tau_b(x, y)
    p = tau_p_value(x, y)
    for transform in (lambda v: 3 * v + 7, lambda v: v**3):
        yt = [transform(v) for v in y]
        assert kendall_tau_b(x, yt) == tau
        assert tau_p_value(x, yt) == p


@settings(max_examples=300, deadline=None)
@given(paired_lists(max_size=7))
def test_oracle_equivalence_small_n(pair):
    x, y = pair
    if not _non_degenerate(x, y):
        return
    assert kendall_tau_b(x, y) == pytest.approx(brute_tau(x, y), abs=1e-12)


# ints and floats that compare equal, -0.0 next to 0.0, and few distinct
# values, so that ties are heavy
_tied_values = st.sampled_from([-2, -2.0, -0.5, -0.0, 0, 0.0, 1, 1.0, 2.5, 3])


@st.composite
def tied_pairs(draw, max_size=60):
    """Unsorted, heavily tied lists; sometimes one or both fully tied."""
    n = draw(st.integers(min_value=2, max_value=max_size))
    x = draw(st.lists(_tied_values, min_size=n, max_size=n))
    y = draw(st.lists(_tied_values, min_size=n, max_size=n))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        x = [x[0]] * n
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        y = [y[-1]] * n
    return x, y


@settings(max_examples=300, deadline=None)
@given(tied_pairs())
def test_single_pair_paths_match_pair_enumeration(pair):
    x, y = pair
    _, x_pairs, y_pairs = brute_pair_counts(x, y)
    if x_pairs == 0 or y_pairs == 0:
        for call in (kendall_tau_b, tau_p_value, lambda a, b: correlate(a, b, "combined")):
            with pytest.raises(DegenerateInputError):
                call(x, y)
        return
    tau = kendall_tau_b(x, y)
    p, z = tau_p_value(x, y)
    assert tau == pytest.approx(brute_tau(x, y), abs=1e-12)
    assert z == pytest.approx(brute_z(x, y), rel=1e-12, abs=1e-12)
    assert p == pytest.approx(math.erfc(abs(z) / math.sqrt(2)), rel=1e-12)
    assert correlate(x, y, "combined") == CorrelationResult("combined", len(x), tau, z, p)
