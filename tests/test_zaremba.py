import gc
import hashlib
import math
import tracemalloc
from collections.abc import Mapping
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cforbit import zaremba
from cforbit.arith import coprime_array, euler_phi
from cforbit.cfe import ReducedFraction, cfe_digits
from cforbit.zaremba import (
    _PAIR_CHUNK,
    HeightBoundError,
    HeightBoundReport,
    ZarembaCensus,
    _Tally,
    _block_span,
    _coprime_pairs,
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
    want = _oracle(Q)[K]
    assert tree == want
    assert list(tree.rows()) == list(want.rows())


@pytest.mark.parametrize("call, message", [
    (lambda: enumerate_bounded(10, 0), "K must be >= 1"),
    (lambda: enumerate_bounded(1, 2), "Q must be >= 2"),
    (lambda: brute_force_censuses(1, [2]), "Q must be >= 2"),
    (lambda: brute_force_censuses(10, []), "digit bounds must be >= 1"),
    (lambda: brute_force_censuses(10, [2, 0]), "digit bounds must be >= 1"),
    (
        lambda: ZarembaCensus(1, 5, _Tally(np.array([0, 0, 1, 1, 0, 0])), _Tally(np.array([0, 0, 1, 0, 0, 2]))),
        "strict count exceeds relaxed count at q=5",
    ),
], ids=["K<1", "Q<2", "filter Q<2", "no bounds", "bound<1", "tally views"])
def test_census_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    # a non-integer key, a negative q, a zero entry, and q past Q (even past int64) are all missing
    for q in ("5", 5.0, -1, 6, 301, 10**30):
        with pytest.raises(KeyError):
            census.counts[q]
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
    # a q past the ceiling would be a block of one q, all phi(q) pairs at once
    with pytest.raises(ValueError, match=r"q must lie in \[2, 10\^6\]"):
        members(zaremba.HEIGHT_Q_MAX + 1, 2)


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


@pytest.mark.parametrize("K", [2**63, 10**20])
def test_digit_bounds_past_int64_are_the_bound_q(K):
    # no digit of p/q exceeds q, so the bound is clamped before any int64 array holds it
    for q in (7, 100, 5000):
        for strict in (False, True):
            assert np.array_equal(members(q, K, strict), members(q, q, strict))
        got, want = height_bound_check(q, K), height_bound_check(q, q)
        assert (got.K, got.bound) == (K, math.sqrt(2.0) * (K + 1) ** 1.5)
        assert (got.checked, got.max_height, got.argmax_t, got.argmax_p) == (
            want.checked, want.max_height, want.argmax_t, want.argmax_p
        )
    brutes = brute_force_censuses(50, (2, K))
    assert brutes[2] == enumerate_bounded(50, 2)
    every = brute_force_censuses(50, (50,))[50]
    assert (brutes[K].K, brutes[K].counts, brutes[K].strict_counts) == (K, every.counts, every.strict_counts)


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
    # sqrt(2) times (K+1)^{3/2} is inf; (K+1)^{3/2} overflows; K + 1 is past the float range
    for K in (3 * 10**205, 10**206, 10**400):
        with pytest.raises(ValueError, match="not a finite float"):
            height_bound_check(100, K)


def test_census_members_are_consistent():
    census = enumerate_bounded(120, 2)
    for q in range(2, 121):
        assert census.count(q) == members(q, 2).size
        assert census.strict_count(q) == members(q, 2, strict=True).size


# sha256 of repr([height_bound_check(q, K) for every q of enumerate_bounded(3000, K)]),
# and of repr([members(q, K, strict).tolist() for q in range(2, 3000)]), captured
# from the per-q kernel runs that predate the blocks of consecutive q
FROZEN_HEIGHTS = {
    1: (16, "f1fbd35eab41839bb40282786c5223d7a6b8b2382f6ad1f47e1cd96212184863"),
    2: (1555, "041fa52fed7503cd3b1e062e81f6988a1bf98dcfe3f469701f88c86c14725590"),
    3: (2974, "f026c05584b444acb697bc74132206a4d890c5ba7a4a8c5880c80c747aae4a35"),
}
FROZEN_MEMBERS = {
    1: ("a8d97c9197fc1491a2552354e8ce3ead36829cbedf02a55853ab18a3aa175ee1",
        "fe46b988b29b4247ca0c6b227d2a172436a173f15b1a8b88a2a002e86587b6a6"),
    2: ("ba7d773c1f3539ba8f3832b6534583659e28f9513be643cef9173d6703b320c5",
        "9840e16150621ed53626f22d5d75c83b24988f9ccaa2f0a6ce7d8bf9d1a52d5d"),
    3: ("60a4cc9249b2808f79207a1d5bd161c1daefab875741b4c1a496bd334bbef396",
        "6cfdc76601599393eb351bb12479d31fc28e69c65fb0736e50dc7b4a2c448c7b"),
    7: ("220c77f70836f0d9a6911d8eca2ba3a5253c02f6e8f09ba9a32ad72ac3178949",
        "e46850c6e10c093c05cad3e0173d89ddf57c265b437ec1c5c8ea35835c4f2c5e"),
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("K", sorted(FROZEN_MEMBERS))
def test_members_and_heights_are_frozen(K):
    relaxed, strict = zip(*((members(q, K).tolist(), members(q, K, strict=True).tolist()) for q in range(2, 3000)))
    assert (_sha(list(relaxed)), _sha(list(strict))) == FROZEN_MEMBERS[K]
    if K in FROZEN_HEIGHTS:
        reports = [height_bound_check(q, K) for q, _, _ in enumerate_bounded(3000, K).rows()]
        assert (len(reports), _sha(reports)) == FROZEN_HEIGHTS[K]


def _scalar_levels(p, q):
    """Relaxed and strict level of p/q from its canonical word."""
    word = cfe_digits(ReducedFraction(p, q)).digits
    return max([*word[:-1], word[-1] - 1]), max(word)


def _reference(q, K):
    """Relaxed and strict members of q alone, and its height report from a scalar walk of every chain."""
    every = coprime_array(q)
    relaxed, strict = np.array([_scalar_levels(p, q) for p in every.tolist()]).T
    ps, strict_ps = every[relaxed <= K], every[strict <= K]
    bound = math.sqrt(2.0) * (K + 1) ** 1.5
    if not ps.size:
        return ps, strict_ps, HeightBoundReport(q, K, bound, 0, 0.0, 0.0, 0)
    least = []
    for i, p in enumerate(ps.tolist()):
        a, b, qk1, qk = q, p, 0, 1
        while b:
            least.append((qk * b, i, qk, b))
            d, r = divmod(a, b)
            a, b, qk1, qk = b, r, qk, d * qk + qk1
    prod, i, qk, rk = min(least)
    report = HeightBoundReport(
        q, K, bound, int(ps.size), math.sqrt(q / (2.0 * prod)), math.log(q * qk / rk), int(ps[i])
    )
    return ps, strict_ps, report


_CALLS = st.lists(
    st.tuples(st.sampled_from(("relaxed", "strict", "height")), st.integers(2, 300), st.integers(1, 6)),
    min_size=1,
    max_size=25,
)


@pytest.mark.parametrize("chunk", [1, 7, 64])
@settings(max_examples=30, deadline=None)
@given(calls=_CALLS, order=st.sampled_from(("drawn", "descending", "twice")))
def test_blocks_serve_any_call_order(chunk, calls, order):
    if order == "descending":
        calls = sorted(calls, key=lambda c: -c[1])
    elif order == "twice":
        calls = calls + calls[::-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zaremba, "_PAIR_CHUNK", chunk)
        for kind, q, K in calls:
            relaxed, strict, report = _reference(q, K)
            if kind == "height":
                assert height_bound_check(q, K) == report
            else:
                got = members(q, K, strict=kind == "strict")
                assert got.dtype == np.int64
                assert np.array_equal(got, strict if kind == "strict" else relaxed)


def test_block_span_rule():
    c = _PAIR_CHUNK.bit_length() - 1
    lo, seen = 2, 0
    while lo < 3 * _PAIR_CHUNK:
        span = _block_span(lo)
        assert span[0] == lo  # blocks tile the q axis
        j = lo.bit_length() - 1
        width = span[1] - lo
        assert width == 2 ** min(j, max(0, c - j)) and lo % width == 0
        assert all(_block_span(q) == span for q in range(*span))
        if width > 1:
            seen = max(seen, sum(euler_phi(q) for q in range(*span)))
        lo = span[1]
    assert _PAIR_CHUNK / 2 < seen < 2 * _PAIR_CHUNK
    assert _block_span(2) == (2, 4) and _block_span(_PAIR_CHUNK) == (_PAIR_CHUNK, _PAIR_CHUNK + 1)


def test_coprime_pairs_of_a_range():
    # the window q/(top + 2) < p < q/2, p >= 2, of the coprime residues
    for lo, hi in ((2, 3), (2, 40), (2, 400), (64, 128), (2000, 2003), (5000, 5001), (8190, 8194)):
        for top in (1, 3, 8, 10**9):
            chunks = list(_coprime_pairs(lo, hi, top))
            want = [(x, y) for x in range(lo, hi) for y in coprime_array(x).tolist() if 2 <= y < x / 2 and x < y * (top + 2)]
            assert [(x, y) for q, p in chunks for x, y in zip(q.tolist(), p.tolist())] == want
            assert all(q.dtype == p.dtype == np.int64 for q, p in chunks)
            # every chunk but the last holds at least _PAIR_CHUNK pairs, and no q is split
            assert all(p.size >= _PAIR_CHUNK for _, p in chunks[:-1])
            assert all(a[0][-1] < b[0][0] for a, b in zip(chunks, chunks[1:]))


@pytest.mark.parametrize("Q", range(2, 9))
def test_digit_filter_of_the_smallest_q_against_scalar_words(Q):
    # 1/q, (q - 1)/q and 1/2, its own mirror, sit outside the folded window
    Ks = (1, 2, 3, Q, 10**9)
    censuses = brute_force_censuses(Q, Ks)
    for K in Ks:
        for kind, counts in enumerate((censuses[K].counts, censuses[K].strict_counts)):
            want = {}
            for q in range(2, Q + 1):
                n = sum(_scalar_levels(p, q)[kind] <= K for p in coprime_array(q).tolist())
                if n:
                    want[q] = n
            assert dict(counts) == want, (K, kind)


def test_digit_filter_does_not_read_the_tree(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle ran the digit-tree walk")

    want = enumerate_bounded(300, 2)
    monkeypatch.setattr(zaremba, "enumerate_bounded", refuse)
    assert brute_force_censuses(300, (1, 2, 3))[2] == want


@pytest.mark.parametrize("q", [100, 3001, 4099, _PAIR_CHUNK + 3])  # blocks of 64, 4, 2 and 1 q
def test_returned_members_are_the_callers_own(q):
    for strict in (False, True):
        want = members(q, 3, strict).copy()
        got = members(q, 3, strict)
        got[:] = 1
        assert np.array_equal(members(q, 3, strict), want)
    want = height_bound_check(q, 3)
    members(q, 3)[:] = 1
    assert height_bound_check(q, 3) == want


def test_members_keep_nothing_of_a_large_q():
    # a q past _PAIR_CHUNK is a block of its own; its phi(q) int64 residues (8 MB) are not kept
    q = 999983
    members(q - 2, 2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert members(q, 2).size and height_bound_check(q, 2).checked
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024, held
