"""The vectorized Euclid kernel and the sweeps built on it.

The frozen values were captured from the two-loop sweep that predates the
shared kernel; they pin the float results bit for bit, so a reordered
float sum or a changed bin formula fails here and not only in the
rounded CLI output.
"""
import hashlib
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cforbit import stats
from cforbit.arith import _euclid_rounds, coprime_array, euler_phi
from cforbit.cfe import ReducedFraction, cfe_digits, cfe_len
from cforbit.stats import (
    _CHUNK,
    DEFAULT_BINS,
    DIGIT_CAP,
    _sweep,
    digit_one_frequency,
    len_stats,
    mass_escape_count,
    nu_bar,
)
from cforbit.zaremba import _PAIR_CHUNK, _levels, brute_force_censuses, enumerate_bounded, height_bound_check

# (q, bins): sha256 of nu_bar weights, sha256 of (sorted digit counts, overflow)
FROZEN_BITS = {
    (1009, 64): (
        "f3252a62b84bb2eb13fa3f94b7823f3bb489daaf04ebc8653626206a1ebfa0ac",
        "d521d1cc1b30ec7ff7fbe5243f436840ecb86504c4284e3da44f1440c07d1f9e",
    ),
    (1009, 256): (
        "8e34d0ddc098e15242f4b8eec3c67a4f25f006a31096e5a86932855f6cdbba41",
        "d521d1cc1b30ec7ff7fbe5243f436840ecb86504c4284e3da44f1440c07d1f9e",
    ),
    (10007, 64): (
        "11736b1bffdddabc9c2ca05e978e8af43e569031e968c7d24e72852dfe2866f9",
        "330c6024c6ca92fc4dff737b6fd499a83246fd438407f79caa721cdb2e7e60f7",
    ),
    (10007, 256): (
        "cc544d0f062d07fa3b76785236af8bc49258e188c18bbf49856b5a33f3ade5e5",
        "330c6024c6ca92fc4dff737b6fd499a83246fd438407f79caa721cdb2e7e60f7",
    ),
    (100003, 64): (
        "595dffdd8dfb30a374953ab5c7cf3cd291a1ee447e9b3f50faa9107f9b519c47",
        "1225a871acd1a90f85f2c6d40ab4bfa9df534ba69e0567ed7892975537451ad9",
    ),
    (100003, 256): (
        "1e5e863484ec35cbaa8a6daf68a25fe1ce6773d5974e93fb4a2665ec4345bde4",
        "1225a871acd1a90f85f2c6d40ab4bfa9df534ba69e0567ed7892975537451ad9",
    ),
}

# q: (mean_len, var_len, digit total, overflow)
FROZEN_MOMENTS = {
    1009: ("3169/504", "808559/254016", 6338, 78),
    10007: ("82357/10006", "440525873/100120036", 82357, 1172),
    100003: ("1017059/100002", "56022098705/10000400004", 1017059, 16027),
}

# q: (weighted, unweighted) digit-1 frequency at the default binning
FROZEN_DIGIT_ONE = {
    1009: ("0.35798671951945754", "0.39255285579047017"),
    10007: ("0.3740820403972513", "0.3993224619643746"),
    100003: ("0.3819943946110627", "0.4029540075846141"),
}


# q: sha256 of hist, len_counts and digit_counts, repr of digit1_weighted, at the
# default binning, captured from the sweep that sliced one whole coprime_array
# into chunks; these moduli span several chunks, so the chunk boundaries are
# pinned too (1531530 = 2*3^2*5*7*11*13*17 ends in a partial chunk)
FROZEN_CHUNKED = {
    500009: (
        "d3aab856c7da5670996a54702044d885bc13e60e59f0eba6bc218bf7a8c760a1",
        "172492172c2055db45a4bcbbbff99ffd4c0d377b43592298304cbde3a6ff163b",
        "cbfcc9e6dbfbf174a68165087e22e073f159e3b9b9560bfdfbe9a5e6539aeba3",
        "193048.36757535604",
    ),
    1000003: (
        "0b589f623955796c1d304126b5e2ab9f3a28d728277cb9a528f7722388e9149f",
        "7f7135269874f95f9c869f430dd209f896116154b18a1f8db1bde672340e57ba",
        "e49acd0420da2018effddeb6ccd6c1ee2523bb5bbda912d2af117e0beac9d6b5",
        "387256.21398474113",
    ),
    1531530: (
        "1d42c200d293e4995c10e19d29b5568350e2a84ccf42de4c61c20c35765d8f23",
        "3149b584ef89e2482327f19ab5319deee98de0f8b62f46170d02a8559a246911",
        "0709de075de4e521947c366c4ab369d613cd4631ebeb36a18ae88639aa7609e0",
        "107387.5311381134",
    ),
}


@pytest.mark.parametrize("q", sorted(FROZEN_CHUNKED))
def test_multi_chunk_sweeps_are_frozen(q):
    sd = _sweep(q, DEFAULT_BINS)
    assert sd.phi == euler_phi(q) > _CHUNK
    digests = tuple(
        hashlib.sha256(a.tobytes()).hexdigest() for a in (sd.hist, sd.len_counts, sd.digit_counts)
    )
    assert (*digests, repr(sd.digit1_weighted)) == FROZEN_CHUNKED[q]


# multiples of a product of distinct small primes, so omega(q) reaches 6 (30030 * k)
_smooth_moduli = st.sets(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1).flatmap(
    lambda ps: st.integers(1, 10**5 // math.prod(ps)).map(lambda k: k * math.prod(ps))
)


@pytest.mark.parametrize("size", (1, 7, 64))
@settings(max_examples=12)
@given(q=st.one_of(st.integers(min_value=2, max_value=10**5), _smooth_moduli))
def test_residue_chunks_tile_the_coprime_array(size, q):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_CHUNK", size)
        chunks = list(stats._residue_chunks(q))
    assert all(c.size == size for c in chunks[:-1])
    assert 1 <= chunks[-1].size <= size
    assert np.concatenate(chunks).tolist() == coprime_array(q).tolist()


@pytest.mark.parametrize("q, dtype", [(2**31 - 1, np.int32), (2**31 + 11, np.int64)])
def test_residue_chunk_columns_are_int32_below_2_to_31(q, dtype):
    first = next(stats._residue_chunks(q))
    assert first.dtype == dtype and first.size == _CHUNK
    assert first[0] == 1 and np.all(np.diff(first) > 0)
    assert np.all(np.gcd(first, q) == 1)


@given(
    q=st.integers(min_value=2, max_value=10**5),
    sample_size=st.integers(min_value=1, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    chunk=st.sampled_from((97, _CHUNK)),
)
def test_residue_sample_is_the_choice_over_the_coprime_array(q, sample_size, seed, chunk):
    residues = coprime_array(q)
    if residues.size > sample_size:
        residues = np.sort(np.random.default_rng(seed).choice(residues, size=sample_size, replace=False))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_CHUNK", chunk)
        sample = stats._residue_sample(q, sample_size, seed)
    assert sample.dtype == residues.dtype
    assert np.array_equal(sample, residues)


def _dropping_rounds(a, b, carry):
    """Euclid rounds that drop the ended columns after every round, with one carried array."""
    while b.size:
        d, r = np.divmod(a, b)
        yield a, b, d, r, carry
        keep = r > 0
        a, b, carry = b[keep], r[keep], carry[keep]


def _dropping_sweep(q, bins):
    """The reference: the sweep that drops ended columns every round, through its own rounds.

    Same chunks, same int64 bin index and same float sums per round as
    the parked sweep must reproduce, with no parked column ever present.
    """
    len_counts = np.zeros(q.bit_length() * 3 // 2 + 2, dtype=np.int64)
    hist = np.zeros(bins, dtype=np.float64)
    digit_counts = np.zeros(DIGIT_CAP + 2, dtype=np.int64)
    digit1_weighted = 0.0
    for chunk in stats._residue_chunks(q):
        qs = np.full(chunk.size, q, dtype=chunk.dtype)
        lens = np.zeros_like(chunk)
        rounds = _dropping_rounds(qs, chunk, np.arange(chunk.size, dtype=chunk.dtype))
        for k, (_, _, _, r, idx) in enumerate(rounds, 1):
            lens[idx[r == 0]] = k
        len_counts += np.bincount(lens, minlength=len_counts.size)
        for a, b, d, _, w in _dropping_rounds(qs, chunk, 1.0 / lens):
            hist += np.bincount(np.multiply(b, bins, dtype=np.int64) // a, weights=w, minlength=bins)
            digit_counts += np.bincount(np.minimum(d, DIGIT_CAP + 1), minlength=DIGIT_CAP + 2)
            digit1_weighted += float(w[d == 1].sum())
    return hist, len_counts, digit_counts, digit1_weighted


def _bits(hist, len_counts, digit_counts, digit1_weighted):
    arrays = (hist, len_counts, digit_counts)
    return (*((a.dtype.str, a.tobytes()) for a in arrays), repr(digit1_weighted))


def _sweep_bits(q, bins):
    sd = _sweep.__wrapped__(q, bins)
    return _bits(sd.hist, sd.len_counts, sd.digit_counts, sd.digit1_weighted)


@settings(max_examples=60)
@given(
    q=st.integers(min_value=3, max_value=20000),
    bins=st.sampled_from((1, 7, 64, 256)),
    chunk=st.sampled_from((97, _CHUNK)),
    columns=st.sampled_from((10, 1000, stats._COLUMNS)),
)
def test_parked_sweep_equals_the_dropping_sweep_bit_for_bit(q, bins, chunk, columns):
    # the reference runs whole chunks; the sweep runs them in column slices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_CHUNK", chunk)
        mp.setattr(stats, "_COLUMNS", columns)
        assert _sweep_bits(q, bins) == _bits(*_dropping_sweep(q, bins))


# one chunk each; (q - 1) * 2^18 passes 2^31, so the last case takes the int64 bin index
@pytest.mark.parametrize("q, bins", [(10007, 256), (20011, 7), (10007, 2**18)])
def test_int64_columns_give_the_int32_bits(q, bins, monkeypatch):
    assert euler_phi(q) <= _CHUNK
    want = _sweep_bits(q, bins)
    assert want == _bits(*_dropping_sweep(q, bins))
    sieve = stats._residue_chunks
    monkeypatch.setattr(stats, "_residue_chunks", lambda q: (c.astype(np.int64) for c in sieve(q)))
    assert next(stats._residue_chunks(q)).dtype == np.int64
    assert _sweep_bits(q, bins) == want


def test_parked_division_warns_nothing_and_restores_the_error_state():
    # a parked column divides by b = 0 every round it stays parked, in every caller of the kernel
    runs = (
        lambda: _sweep.__wrapped__(100003, 64),
        lambda: brute_force_censuses(300, (1, 3)),
        lambda: height_bound_check(2003, 3),
        lambda: mass_escape_count(100003, 8.0, 2.0),
    )
    for run in runs:
        for state in ({}, {"all": "raise"}):
            with np.errstate(**state), warnings.catch_warnings():
                warnings.simplefilter("error")
                before = np.geterr()
                run()
                assert np.geterr() == before


_pairs = st.integers(min_value=2, max_value=10**6).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(min_value=1, max_value=a - 1))
)


@settings(max_examples=40)
@given(pairs=st.lists(_pairs, min_size=1, max_size=60), dtype=st.sampled_from((np.int32, np.int64)))
def test_kernel_parks_ended_columns_and_keeps_the_live_ones_in_order(pairs, dtype):
    a, b = np.array(pairs, dtype=dtype).T.copy()
    ref = _dropping_rounds(a, b, np.arange(a.size))
    for (ka, kb, kd, kr, (idx,)), (ra, rb, rd, rr, ridx) in zip(_euclid_rounds(a, b, np.arange(a.size)), ref):
        assert {x.dtype for x in (ka, kb, kd, kr)} == {np.dtype(dtype)}
        live = kb > 0
        # parked columns divide to zeros, and they are compacted away by the time half are parked
        assert not kd[~live].any() and not kr[~live].any()
        assert 2 * np.count_nonzero(live) > kb.size
        for got, want in ((ka, ra), (kb, rb), (kd, rd), (kr, rr), (idx, ridx)):
            assert got[live].tolist() == want.tolist()
    assert next(ref, None) is None


def test_sweep_refuses_bin_indices_past_the_int64_ceiling():
    # raised before any work: factorizing 2^55 + 1 by trial division would take minutes
    with pytest.raises(ValueError, match="2\\^63"):
        nu_bar(2**61, 8)
    with pytest.raises(ValueError, match="2\\^63"):
        len_stats(2**55 + 1)  # (q - 1) * 256 is exactly 2^63


def test_sweep_memory_does_not_grow_with_q():
    peaks = []
    for q in (1000003, 3145729):  # 4 and 12 chunks
        tracemalloc.start()
        try:
            _sweep.__wrapped__(q, DEFAULT_BINS)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def test_sweep_traced_peak_is_bounded():
    # at this q whole 2^18-column chunks peaked at 12.3 MB traced, 2^15-column slices at about 5 MB
    tracemalloc.start()
    try:
        _sweep.__wrapped__(10**6 + 3, DEFAULT_BINS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


@pytest.mark.parametrize("q, bins", sorted(FROZEN_BITS))
def test_sweep_bits_are_frozen(q, bins):
    weights_sha, digits_sha = FROZEN_BITS[q, bins]
    assert hashlib.sha256(nu_bar(q, bins).weights.tobytes()).hexdigest() == weights_sha
    s = len_stats(q, bins)
    mean, var, total, overflow = FROZEN_MOMENTS[q]
    assert (str(s.mean_len), str(s.var_len)) == (mean, var)
    assert (s.digit_hist.total, s.digit_hist.overflow) == (total, overflow)
    digits = repr((sorted(s.digit_hist.counts.items()), s.digit_hist.overflow))
    assert hashlib.sha256(digits.encode()).hexdigest() == digits_sha


@pytest.mark.parametrize("q", sorted(FROZEN_DIGIT_ONE))
def test_digit_one_frequency_is_frozen(q):
    weighted, pooled = FROZEN_DIGIT_ONE[q]
    assert (repr(digit_one_frequency(q, True)), repr(digit_one_frequency(q, False))) == (
        weighted,
        pooled,
    )


@pytest.mark.parametrize("columns, chunked", [(1000, (500009, 1531530)), (4097, (1000003,))])
def test_column_slices_keep_the_frozen_bits(columns, chunked, monkeypatch):
    # slice sizes that do not divide the 2^18 chunk: the chunk, not the slice, groups every float sum
    monkeypatch.setattr(stats, "_COLUMNS", columns)
    _sweep.cache_clear()
    try:
        for q, bins in sorted(FROZEN_BITS):
            test_sweep_bits_are_frozen(q, bins)
        for q in chunked:
            test_multi_chunk_sweeps_are_frozen(q)
    finally:
        _sweep.cache_clear()


@settings(max_examples=60)
@given(st.integers(min_value=3, max_value=5000), st.integers(min_value=1, max_value=8))
def test_levels_and_length_histogram_match_the_scalar_chain(q, top):
    ps = coprime_array(q)
    fractions = [ReducedFraction(p, q) for p in ps.tolist()]
    words = [cfe_digits(x).digits for x in fractions]
    qs = np.full(ps.size, q, dtype=np.int64)
    for cap in (top, q):
        relaxed, strict = _levels(qs, ps, cap)
        assert relaxed.tolist() == [min(max([*w[:-1], w[-1] - 1]), cap + 1) for w in words]
        assert strict.tolist() == [min(max(w), cap + 1) for w in words]
    counts = _sweep(q, 16).len_counts
    assert {n: int(c) for n, c in enumerate(counts) if c} == dict(Counter(map(cfe_len, fractions)))


def test_batched_census_matches_the_tree_across_chunks():
    # about 304k coprime pairs with q <= 1000: many kernel chunks
    assert sum(euler_phi(q) for q in range(2, 1001)) > 2 * _PAIR_CHUNK
    Ks = (1, 2, 3, 4, 5)
    for K, census in brute_force_censuses(1000, Ks).items():
        tree = enumerate_bounded(1000, K)
        assert dict(census.counts) == dict(tree.counts)
        assert dict(census.strict_counts) == dict(tree.strict_counts)
    # a repeated bound is tallied once
    assert brute_force_censuses(300, (2, 2)) == {2: enumerate_bounded(300, 2)}


def test_sweep_cache_entries_are_small():
    sd = _sweep(100003, 256)
    held = sum(v.nbytes for v in vars(sd).values() if isinstance(v, np.ndarray))
    assert held < 4096
