import math
import tracemalloc
from collections.abc import Mapping
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cforbit import zaremba
from cforbit.arith import coprime_array, euler_phi
from cforbit.zaremba import (
    HeightBoundError,
    HeightBoundReport,
    ZarembaCensus,
    brute_force_censuses,
    enumerate_bounded,
    exponent_fit,
    height_bound_check,
    members,
)


def test_census_validation():
    with pytest.raises(ValueError):
        ZarembaCensus(0, 10, {}, {})
    with pytest.raises(ValueError):
        ZarembaCensus(1, 1, {}, {})
    with pytest.raises(ValueError):
        ZarembaCensus(1, 10, {11: 1}, {})
    with pytest.raises(ValueError):
        ZarembaCensus(1, 10, {5: 1}, {5: 2})
    # every strict member is a relaxed member
    with pytest.raises(ValueError, match="strict count exceeds relaxed count at q=5"):
        ZarembaCensus(1, 10, {}, {5: 1})
    with pytest.raises(ValueError, match="bad census entry q=99"):
        ZarembaCensus(1, 10, {3: 1}, {99: 1, 4: -2})
    with pytest.raises(ValueError, match="bad census entry q=4"):
        ZarembaCensus(1, 10, {3: 1}, {4: -2, 99: 1})
    # the first offender in dict order
    with pytest.raises(ValueError, match="bad census entry q=7"):
        ZarembaCensus(1, 10, {3: 1, 7: 0, 1: 1}, {})
    with pytest.raises(ValueError, match="strict count exceeds relaxed count at q=8"):
        ZarembaCensus(1, 10, {3: 1, 5: 1, 8: 1}, {8: 2, 5: 2})
    with pytest.raises(ValueError, match="bad census entry"):
        ZarembaCensus(1, 10, {2**70: 1}, {})
    census = ZarembaCensus(2, 10, {5: 2, 3: 1}, {5: 2})
    assert list(census.rows()) == [(3, 1, 0), (5, 2, 2)]


def test_digit_one_chain_is_fibonacci():
    census = enumerate_bounded(50, 1)
    assert dict(census.counts) == {2: 1, 3: 1, 5: 1, 8: 1, 13: 1, 21: 1, 34: 1}
    # the canonical last digit is >= 2, so no strict level-1 members exist
    assert dict(census.strict_counts) == {}
    assert census.total() == 7
    assert census.total(10) == 4
    assert list(census.rows()) == [(q, 1, 0) for q in (2, 3, 5, 8, 13, 21, 34)]
    assert census.count(13) == 1 and census.count(14) == 0


def test_tree_walk_matches_digit_filter():
    brutes = brute_force_censuses(300, (1, 2, 3, 4, 5))
    for K in (1, 2, 3, 4, 5):
        tree = enumerate_bounded(300, K)
        assert dict(tree.counts) == dict(brutes[K].counts)
        assert dict(tree.strict_counts) == dict(brutes[K].strict_counts)


def test_first_digit_branches_merge_to_the_full_census():
    full = enumerate_bounded(200, 3)
    parts = [enumerate_bounded(200, 3, first_digit=a) for a in range(1, 5)]
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    assert dict(merged.counts) == dict(full.counts)
    assert dict(merged.strict_counts) == dict(full.strict_counts)
    with pytest.raises(ValueError):
        full.merge(enumerate_bounded(100, 3))
    with pytest.raises(ValueError):
        enumerate_bounded(200, 3, first_digit=5)
    with pytest.raises(ValueError):
        enumerate_bounded(200, 3, first_digit=0)


@lru_cache(maxsize=None)
def _oracle(Q):
    return brute_force_censuses(Q, (1, 2, 3, 4, 5))


@settings(max_examples=60, deadline=None)
@given(Q=st.integers(2, 400), K=st.integers(1, 5))
def test_blocked_walk_matches_the_digit_filter(Q, K):
    # seven states a block: the stack splits and regathers blocks all the time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zaremba, "_BLOCK", 7)
        tree = enumerate_bounded(Q, K)
        parts = [enumerate_bounded(Q, K, first_digit=a) for a in range(1, K + 2)]
    want = _oracle(Q)[K]
    assert tree == want
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    assert merged == want
    assert list(merged.rows()) == list(want.rows())


def test_census_holds_tallies_behind_read_only_views():
    census = enumerate_bounded(300, 2)
    assert isinstance(census.counts, Mapping) and isinstance(census.strict_counts, Mapping)
    assert census.counts.array.dtype == np.int64 and census.counts.array.size == 301
    with pytest.raises(ValueError):
        census.counts.array[5] = 1
    with pytest.raises(TypeError):
        census.counts[5] = 1
    assert 6 not in census.counts and census.counts.get(6) is None and census.counts.get(-1) is None
    assert census.counts[5] == 2 and census.counts.get("5") is None
    assert len(census.counts) == sum(1 for _ in census.rows())
    # a view is a mapping like any other: it equals the dict of its entries
    assert census.counts == dict(census.counts)
    assert census == ZarembaCensus(2, 300, dict(census.counts), dict(census.strict_counts))
    assert census != enumerate_bounded(300, 3)
    assert census.total(-3) == 0 and census.total(10**9) == census.total()


def test_walk_memory_is_its_two_tallies_and_a_few_blocks():
    # the two int64 tallies take 16 MB at Q = 10^6; with a level-wide
    # frontier, per-digit bincounts and {q: count} dicts the peak was 131.7 MB
    tracemalloc.start()
    try:
        census = enumerate_bounded(10**6, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census.total() == 2981112
    assert peak < 48 * 10**6, peak


def test_members_examples():
    assert list(members(8, 1)) == [5]
    assert list(members(5, 2)) == [2, 3]
    assert list(members(5, 2, strict=True)) == [2, 3]
    assert members(7, 1).size == 0
    with pytest.raises(ValueError):
        members(1, 1)
    with pytest.raises(ValueError):
        members(5, 0)


@pytest.mark.parametrize("q", [2, 3, 10, 97, 360])
def test_level_rule_at_its_extremes(q):
    # 1/q = [q] has the largest digit of any p/q: relaxed level q - 1, strict level q
    every = coprime_array(q)
    assert np.array_equal(members(q, q - 1), every)
    assert np.array_equal(members(q, q, strict=True), every)
    assert 1 not in members(q, q - 1, strict=True)
    if q > 2:
        assert 1 not in members(q, q - 2)


def test_digit_bounds_beyond_q():
    # levels are capped just past the largest bound, so a huge bound costs
    # no tally width; the tree's digit loops stop at Q
    brutes = brute_force_censuses(200, (1, 10**9))
    assert brutes[1] == enumerate_bounded(200, 1)
    every = {q: euler_phi(q) for q in range(2, 201)}
    assert dict(brutes[10**9].counts) == dict(brutes[10**9].strict_counts) == every
    assert enumerate_bounded(200, 10**9) == brutes[10**9]
    # 1/2 = [2] alone, and no state left to extend
    assert list(enumerate_bounded(2, 10**9).rows()) == [(2, 1, 1)]
    assert brute_force_censuses(200, (10**9,)) == {10**9: brutes[10**9]}


def test_exponent_fit():
    census = enumerate_bounded(4096, 2)
    assert census.total() == 8583
    assert exponent_fit(census) == 0.05991699739803159
    with pytest.raises(ValueError):
        exponent_fit(enumerate_bounded(8, 2))


def test_height_bound_reports():
    rep = height_bound_check(5, 2)
    assert isinstance(rep, HeightBoundReport)
    assert rep.checked == 2
    assert rep.bound == pytest.approx(math.sqrt(2) * 3**1.5, abs=1e-12)
    # 2/5 and 3/5 both peak at sqrt(5/4), 2/5 twice: the tie goes to the
    # smallest p, then to the earlier time ln(5 * 1/2) over ln(5 * 2/1)
    assert rep.max_height == math.sqrt(5 / 4)
    assert rep.argmax_p == 2
    assert rep.argmax_t == math.log(5 / 2)
    # 3/7 and 5/7 tie at sqrt(7/4) in the same round, 4/7 one round later
    rep = height_bound_check(7, 2)
    assert (rep.checked, rep.argmax_p) == (3, 3)
    assert (rep.max_height, rep.argmax_t) == (math.sqrt(7 / 4), math.log(14))
    rep = height_bound_check(8, 1)
    assert (rep.checked, rep.argmax_p) == (1, 5)
    assert rep.max_height == 1.1547005383792515
    assert rep.argmax_t == 0.9808292530117262
    assert issubclass(HeightBoundError, AssertionError)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_height_bound_maximum_in_closed_form(K):
    # (K+1)/(K+2) = [1, K+1] has q_1 = r_1 = 1: the highest possible peak
    rep = height_bound_check(K + 2, K)
    assert rep.max_height == math.sqrt((K + 2) / 2)
    assert rep.argmax_p == K + 1
    assert rep.argmax_t == math.log(K + 2)


def test_height_bound_validation():
    with pytest.raises(ValueError):
        height_bound_check(1, 1)
    with pytest.raises(ValueError):
        height_bound_check(10**6 + 1, 1)


def test_census_members_are_consistent():
    census = enumerate_bounded(120, 2)
    for q in range(2, 121):
        assert census.count(q) == members(q, 2).size
        assert census.strict_count(q) == members(q, 2, strict=True).size
