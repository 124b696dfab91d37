"""The vectorized Euclid kernel and the sweeps built on it.

The integer pins (length moments, digit counts, length and digit
histograms) were captured from the two-loop sweep that predates the
shared kernel. The float pins are the exact rationals of the sweep
rounded once, each checked against a scalar Fraction sum when it was
captured; they pin the results bit for bit, so a changed bin formula or
a sum that rounds more than once fails here and not only in the rounded
CLI output.
"""
import hashlib
import math
import os
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cforbit import stats
from cforbit.arith import _euclid_rounds, coprime_array, euler_phi
from cforbit.cfe import CfeWord, ReducedFraction, cfe_digits, cfe_len, word_frequency
from cforbit.lattice import _excursions
from cforbit.stats import (
    _CHUNK,
    DEFAULT_BINS,
    DIGIT_CAP,
    _SweepData,
    _sweep,
    _weighted_means,
    digit_one_frequency,
    len_stats,
    mass_escape_count,
    nu_bar,
    nu_pq,
)
from cforbit.zaremba import _PAIR_CHUNK, _levels, brute_force_censuses, enumerate_bounded, height_bound_check

# (q, bins): sha256 of nu_bar weights, sha256 of (sorted digit counts, overflow)
FROZEN_BITS = {
    (1009, 64): (
        "7c41c323abd6c1a313d1f7d59d6c102f4a6ac96c519f3c4b119591e54e85c72f",
        "d521d1cc1b30ec7ff7fbe5243f436840ecb86504c4284e3da44f1440c07d1f9e",
    ),
    (1009, 256): (
        "5d591e1a19f806300df88062fb99dc3b0e4380860eb76b43b2a2ccc890bcf4df",
        "d521d1cc1b30ec7ff7fbe5243f436840ecb86504c4284e3da44f1440c07d1f9e",
    ),
    (10007, 64): (
        "b24ec11fd4a5e82aad878ca61a177cc26ec4c45447071fa8793267eed8cc2196",
        "330c6024c6ca92fc4dff737b6fd499a83246fd438407f79caa721cdb2e7e60f7",
    ),
    (10007, 256): (
        "9127d224340a8fed5121cbcad8e05d1deed3be625d3ae38714e02a9300874972",
        "330c6024c6ca92fc4dff737b6fd499a83246fd438407f79caa721cdb2e7e60f7",
    ),
    (100003, 64): (
        "d65f24271242015f85e66f89c597d08fb7af3a373da636f57b26d95de8f7513b",
        "1225a871acd1a90f85f2c6d40ab4bfa9df534ba69e0567ed7892975537451ad9",
    ),
    (100003, 256): (
        "496cb471a0d789790eeeb3947aa839bd3225a8b3b7ea2919202732b308a86400",
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
    1009: ("0.3579867195194576", "0.39255285579047017"),
    10007: ("0.3740820403972513", "0.3993224619643746"),
    100003: ("0.38199439461106255", "0.4029540075846141"),
}


# q: sha256 of nu_bar weights, len_counts and digit_counts, repr of the weighted
# digit-1 frequency, at the default binning; the integer digests were captured
# from the sweep that sliced one whole coprime_array into chunks. These moduli
# span many chunks (1531530 = 2*3^2*5*7*11*13*17 ends in a partial chunk)
FROZEN_CHUNKED = {
    500009: (
        "cc40cbc6962694873c57095109a594dd4d738aa1f8dafac6847f9d734528ca34",
        "172492172c2055db45a4bcbbbff99ffd4c0d377b43592298304cbde3a6ff163b",
        "cbfcc9e6dbfbf174a68165087e22e073f159e3b9b9560bfdfbe9a5e6539aeba3",
        "0.3860905577017889",
    ),
    1000003: (
        "d018619246abbfdfdf2a12c3a0bee481e0e5a7adc9aa0e09568fd93bacf518f4",
        "7f7135269874f95f9c869f430dd209f896116154b18a1f8db1bde672340e57ba",
        "e49acd0420da2018effddeb6ccd6c1ee2523bb5bbda912d2af117e0beac9d6b5",
        "0.3872554394738624",
    ),
    1531530: (
        "8c598029632a4fd77f44ee7d952e16cada5695c63ccee7d07ed3d19de86a0715",
        "3149b584ef89e2482327f19ab5319deee98de0f8b62f46170d02a8559a246911",
        "0709de075de4e521947c366c4ab369d613cd4631ebeb36a18ae88639aa7609e0",
        "0.3884097625076439",
    ),
}


@pytest.mark.parametrize("q", sorted(FROZEN_CHUNKED))
def test_multi_chunk_sweeps_are_frozen(q):
    sd = _sweep(q, DEFAULT_BINS)
    assert sd.phi == euler_phi(q) > _CHUNK
    digests = tuple(
        hashlib.sha256(a.tobytes()).hexdigest() for a in (sd.nu, sd.len_counts, sd.digit_counts)
    )
    assert (*digests, repr(sd.digit1)) == FROZEN_CHUNKED[q]


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


@pytest.mark.parametrize("size", (1, 7, 64))
@settings(max_examples=12)
@given(q=st.one_of(st.integers(min_value=2, max_value=10**5), _smooth_moduli), cut=st.floats(0.0, 1.0))
@example(q=2, cut=0.0)  # top = 1: no residue
@example(q=6, cut=0.6)  # top = 4: past the residue 1, the block [2, 4) holds none
@example(q=30030, cut=0.5)
def test_residue_chunks_below_top_tile_the_coprime_residues_below_it(size, q, cut):
    top = 1 + round(cut * (q - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_CHUNK", size)
        chunks = list(stats._residue_chunks(q, top))
    assert all(c.size == size for c in chunks[:-1])
    assert all(1 <= c.size <= size for c in chunks)
    residues = coprime_array(q)
    assert [p for c in chunks for p in c.tolist()] == residues[residues < top].tolist()


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


def _sweep_bits(q, bins, threads=1):
    sd = _sweep.__wrapped__(q, bins, threads)
    arrays = (sd.nu, sd.len_counts, sd.digit_counts)
    return (*((a.dtype.str, a.tobytes()) for a in arrays), repr(sd.digit1))


@settings(max_examples=20, deadline=None)
@given(q=st.integers(min_value=3, max_value=2000), bins=st.sampled_from((1, 7, 64, 256)))
def test_sweep_does_not_depend_on_the_chunk(q, bins):
    # integer tallies, rounded once: any grouping of the residues gives the same bits
    bits = []
    for chunk in (1, 97, 2**15):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "_CHUNK", chunk)
            bits.append(_sweep_bits(q, bins))
    assert bits[0] == bits[1] == bits[2]


@settings(max_examples=20, deadline=None)
@given(q=st.integers(min_value=3, max_value=20000), bins=st.sampled_from((1, 7, 64, 256)))
def test_sweep_does_not_depend_on_the_thread_count(q, bins):
    # chunks of 97 residues, so up to about a hundred of them go to three workers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_CHUNK", 97)
        mp.setattr(os, "cpu_count", lambda: 8)
        assert _sweep_bits(q, bins, 3) == _sweep_bits(q, bins, 1)


@pytest.mark.parametrize("threads", (2, 3))
def test_frozen_sweeps_hold_on_more_threads(threads, monkeypatch):
    # at one thread the frozen tests above hold them; more cores than workers here, so
    # the workers start on any machine, and every sweep is computed, not read from the cache
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(stats, "_sweep", lambda q, bins, _=1: _sweep.__wrapped__(q, bins, threads))
    for q, want in FROZEN_CHUNKED.items():
        sd = stats._sweep(q, DEFAULT_BINS)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (sd.nu, sd.len_counts, sd.digit_counts))
        assert (*digests, repr(sd.digit1)) == want
    for (q, bins), (weights_sha, digits_sha) in FROZEN_BITS.items():
        assert hashlib.sha256(nu_bar(q, bins).weights.tobytes()).hexdigest() == weights_sha
        s = len_stats(q, bins)
        digits = repr((sorted(s.digit_hist.counts.items()), s.digit_hist.overflow))
        assert hashlib.sha256(digits.encode()).hexdigest() == digits_sha
        mean, var, total, overflow = FROZEN_MOMENTS[q]
        assert (str(s.mean_len), str(s.var_len)) == (mean, var)
        assert (s.digit_hist.total, s.digit_hist.overflow) == (total, overflow)


def test_workers_are_bounded_by_the_cores_and_the_chunks(monkeypatch, thread_starts):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    want = _sweep_bits(1000003, 64)  # 16 chunks
    assert _sweep_bits(1000003, 64, 10**6) == want and len(thread_starts) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _sweep_bits(1000003, 64, 10**6) == want and len(thread_starts) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    _sweep_bits(65537, 64, 10**6)  # phi / 2 = 2^15 residues, one chunk
    _sweep_bits(65539, 64, 10**6)  # one residue more, two chunks
    assert len(thread_starts) == 2
    with pytest.raises(ValueError, match="threads must be >= 1"):
        _sweep.__wrapped__(1009, 64, 0)


def test_a_worker_error_is_raised_after_the_join(monkeypatch, thread_starts):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    tally = stats._chunk_tallies

    def failing(q, chunk, *tallies):
        if chunk[0] > 1:
            raise MemoryError("second chunk")
        tally(q, chunk, *tallies)

    monkeypatch.setattr(stats, "_chunk_tallies", failing)
    with pytest.raises(MemoryError, match="second chunk"):
        _sweep.__wrapped__(100003, 64, 2)
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()


def test_sweep_cache_does_not_key_on_the_thread_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    sd = _sweep(100019, 5, 2)
    assert _sweep(100019, 5, 1) is sd and _sweep(100019, 5) is sd


# one chunk each; (q - 1) * 2^18 passes 2^31, so the last case takes the int64 bin index
@pytest.mark.parametrize("q, bins", [(10007, 256), (20011, 7), (10007, 2**18)])
def test_int64_columns_give_the_int32_bits(q, bins, monkeypatch):
    assert euler_phi(q) <= _CHUNK
    want = _sweep_bits(q, bins)
    sieve = stats._residue_chunks
    monkeypatch.setattr(stats, "_residue_chunks", lambda q, top=None: (c.astype(np.int64) for c in sieve(q, top)))
    assert next(stats._residue_chunks(q)).dtype == np.int64
    assert _sweep_bits(q, bins) == want


def _unfolded_sweep(q, bins):
    """_sweep without the p <-> q - p fold: both Euclid runs go over every coprime residue."""
    rows = q.bit_length() * 3 // 2 + 2
    len_counts = np.zeros(rows, dtype=np.int64)
    bin_tally = np.zeros((rows, bins), dtype=np.int64)
    digit_tally = np.zeros((rows, DIGIT_CAP + 2), dtype=np.int64)
    chunk = coprime_array(q).astype(np.int32)
    lens = np.zeros_like(chunk)
    rounds = _euclid_rounds(np.full_like(chunk, q), chunk, np.arange(chunk.size, dtype=chunk.dtype))
    for k, (_, b, _, r, (idx,)) in enumerate(rounds, 1):
        lens[idx[(r == 0) & (b > 0)]] = k
    len_counts += np.bincount(lens, minlength=rows)
    for a, b, d, r, (n,) in _euclid_rounds(np.full_like(chunk, q), chunk, lens):
        with np.errstate(divide="ignore"):
            cell = np.multiply(b, bins, dtype=np.int64) // a
        cell += np.multiply(n, bins, dtype=np.int64)
        np.add.at(bin_tally.reshape(-1), cell, 1)
        np.add.at(digit_tally.reshape(-1), n * (DIGIT_CAP + 2) + np.minimum(d, DIGIT_CAP + 1), 1)
        n[r == 0] = 0
    phi = int(len_counts.sum())
    nu = _weighted_means(bin_tally, phi)
    digit1 = float(_weighted_means(digit_tally[:, 1:2], phi)[0])
    return _SweepData(phi, len_counts, digit_tally[1:].sum(axis=0), nu, digit1)


def _unfolded_escape(q, M, t, residues):
    """mass_escape_count's (count, escalations) without the fold: one pass over every residue given."""
    inv_m2, emt = 1.0 / (M * M), math.exp(-t)
    ept = math.exp(t) if t <= 709.0 else math.inf
    tol = 2.0**-40 * inv_m2

    def exact(m, r):
        with mpmath.workdps(50):
            return m * m * mpmath.exp(-t) + (mpmath.mpf(r) / q) ** 2 * mpmath.exp(t) <= 1 / mpmath.mpf(M) ** 2

    hit = np.zeros(residues.size, dtype=bool)
    escalations = 0
    for idx, qk, rk, rem in _excursions(q, residues):
        head = np.square(qk, dtype=np.float64) * emt
        gap = head + (rk / q) ** 2 * ept - inv_m2
        hit[idx[gap < -tol]] = True
        near = np.flatnonzero(np.abs(gap) <= tol)
        escalations += near.size
        for i in near:
            hit[idx[i]] |= exact(int(qk[i]), int(rk[i]))
        rem[head - inv_m2 > tol] = 0
    count = int(np.count_nonzero(hit))
    gap = q * q * emt - inv_m2
    if abs(gap) <= tol:
        escalations += euler_phi(q)
    if gap < -tol or (abs(gap) <= tol and exact(q, 0)):
        count = euler_phi(q)
    return count, escalations


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(min_value=2, max_value=5000),
    bins=st.sampled_from((1, 7, 256)),
    M=st.floats(1.01, 6.0),
    t=st.floats(0.0, 2 * math.log(5000) + 3),
)
@example(q=2, bins=1, M=2.0, t=2.0)  # q = 2: its one residue is its own mirror
@example(q=3, bins=7, M=1.5, t=1.0)
@example(q=4, bins=256, M=1.5, t=1.0)
@example(q=5, bins=1, M=1.2, t=0.5)
@example(q=6, bins=7, M=2.0, t=2 * math.log(12.0) + 0.01)
@example(q=97, bins=256, M=2.0, t=2 * math.log(194.0))  # (q, 0) has norm 1/M: every residue escalates
@example(q=1000, bins=7, M=3.0, t=4.0)
@example(q=2310, bins=256, M=2.0, t=3.0)
@example(q=6765, bins=7, M=5.0, t=11.8)  # F_20: the mirror 4181/6765 = [1, ..., 1, 2] is Lame's longest word
def test_folded_passes_equal_the_unfolded_reference(q, bins, M, t):
    if q >= 3:
        got, want = _sweep.__wrapped__(q, bins), _unfolded_sweep(q, bins)
        assert got.phi == want.phi
        for name in ("len_counts", "digit_counts", "nu"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert repr(got.digit1) == repr(want.digit1)
    rep = mass_escape_count(q, M, t, checked=False)
    assert (rep.count, rep.escalations) == _unfolded_escape(q, M, t, coprime_array(q).astype(np.int64))


def test_mass_escape_counts_the_margin_hits_of_the_mirror_lead(monkeypatch):
    # 2 p = q - 1: at e^t = q/(q - p), the mirror's leading vector (1, (q - p)/q) has squared
    # norm 1 + 1/q, inside the 2^-40 margin of 1/M^2 past q = 2^40 with M this near 1;
    # one residue stands in for a half pass, which would take days here
    q = 2**41 + 1
    p = (q - 1) // 2
    M, t = 1.0 + 2.0**-44, math.log(q / (q - p))
    monkeypatch.setattr(stats, "_residue_chunks", lambda q, top=None: iter([np.array([p], dtype=np.int64)]))
    rep = mass_escape_count(q, M, t, checked=False)
    want = _unfolded_escape(q, M, t, np.array([p, q - p], dtype=np.int64))
    assert want == (2, 3)
    assert (rep.count, rep.escalations) == want


@settings(max_examples=25, deadline=None)
@given(q=st.integers(min_value=3, max_value=2000), bins=st.sampled_from((1, 7, 64)))
def test_sweep_rounds_the_exact_rationals_once(q, bins):
    ps = [p for p in range(1, q) if math.gcd(p, q) == 1]
    fractions = [ReducedFraction(p, q) for p in ps]
    total = sum((nu_pq(x, bins).weights for x in fractions), np.zeros(bins, dtype=object))
    want = [float(Fraction(w) / len(ps)) for w in total]
    assert nu_bar(q, bins).weights.tolist() == want
    ones = sum((word_frequency(x, CfeWord((1,))) for x in fractions), Fraction(0))
    assert digit_one_frequency(q) == float(ones / len(ps))


@pytest.mark.parametrize("q", (1531, 10007, 100003))
def test_one_bin_holds_exactly_the_unit_mass(q):
    # float sums per round read 0.9999999999999921 at 1531 and 1.0000000000003748 at 100003
    assert nu_bar(q, 1).weights.tolist() == [1.0]


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


def _traced_sweep_peak(q, bins, threads=1):
    tracemalloc.start()
    try:
        _sweep.__wrapped__(q, bins, threads)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_q():
    peaks = [_traced_sweep_peak(q, DEFAULT_BINS) for q in (1000003, 3145729)]  # 31 and 96 chunks
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def test_sweep_traced_peak_is_bounded():
    # at this q whole 2^18-column chunks peaked at 12.3 MiB traced, 2^15-column slices
    # of them with per-round float sums at 5.05 MiB, integer tallies at about 1.6 MiB
    peak = _traced_sweep_peak(10**6 + 3, DEFAULT_BINS)
    assert peak <= 4 * 2**20, peak


def test_two_thread_sweep_traced_peak_is_bounded(monkeypatch, thread_starts):
    # each worker holds its own tallies and one chunk's columns: 3.2 MiB against 1.6 on one thread
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    peak = _traced_sweep_peak(10**6 + 3, DEFAULT_BINS, 2)
    assert len(thread_starts) == 1
    assert peak <= 4 * 2**20, peak


def test_wide_binning_sweep_traced_peak_is_bounded():
    # the (length, bin) tally alone takes 32 x 2^16 int64, 16 MiB, so the rounding
    # must not hold an object array of its size; the per-round float sums peaked at 18.0 MiB
    peak = _traced_sweep_peak(10**6 + 3, 2**16)
    assert peak <= 24 * 2**20, peak


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
    digits = len_stats(q).digit_hist
    assert (repr(digit_one_frequency(q)), repr(digits.counts[1] / digits.total)) == (weighted, pooled)


@settings(max_examples=60)
@given(st.integers(min_value=3, max_value=5000), st.integers(min_value=1, max_value=8))
def test_levels_and_length_histogram_match_the_scalar_chain(q, top):
    every = coprime_array(q)
    fractions = [ReducedFraction(p, q) for p in every.tolist()]
    words = {x.p: cfe_digits(x).digits for x in fractions}

    def levels(p, cap):
        w = words[p]
        return min(max([*w[:-1], w[-1] - 1]), cap + 1), min(max(w), cap + 1)

    for cap in (top, q):
        # the folded window: each p with q/(cap + 2) < p < q/2 stands for itself and q - p
        ps = every[(every >= 2) & (2 * every < q) & (every * (cap + 2) > q)]
        relaxed, strict, mirror_relaxed, mirror_strict = _levels(np.full(ps.size, q, dtype=np.int64), ps, cap)
        assert list(zip(relaxed.tolist(), strict.tolist())) == [levels(p, cap) for p in ps.tolist()]
        assert list(zip(mirror_relaxed.tolist(), mirror_strict.tolist())) == [levels(q - p, cap) for p in ps.tolist()]
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
