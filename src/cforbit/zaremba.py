"""Bounded-digit censuses and the orbit-height compactness bound.

A residue p coprime to q is a level-K member when p/q admits a
continued-fraction representation with every digit at most K. In terms
of the canonical word (which never ends in 1) that reads: a_i <= K for
i < n and a_n <= K + 1, since [.., a_n] = [.., a_n - 1, 1]. The strict
count additionally caps the last canonical digit at K.

A census stores its relaxed and strict member counts as two int64
tallies indexed by q <= Q and reads them back as read-only {q: count}
views. Censuses are built two independent ways. The first is a pruned
walk of the digit tree through the continuant recursion
q_{k+1} = a*q_k + q_{k-1}: it pops its states from a stack one fixed
block at a time and tallies each block's closures into the arrays, so
it holds the two tallies and a few blocks of states, however many
members there are. The second is a direct digit filter kept as
the oracle. It reads the level of p/q, max(interior digits, last - 1)
relaxed or max(digits) strict, and p is a member when its level is at
most K. The filter is folded by p <-> q - p, as the sweeps are: for
p < q/2, (q - p)/q = [1, a_1 - 1, a_2, ..., a_n], so one run of
arith._euclid_rounds (the Euclid kernel that the sweeps and the orbit
excursions run too) over the chain of p/q after its first digit serves
p and its mirror alike (_levels). A p <= q/(top + 2), top the largest
bound, has a_1 - 1 > top, so neither it nor its mirror is a member and
it is never run, and a chain ends early at an interior digit past top.
Only the words 1/q = [q] and (q - 1)/q = [1, q - 1] are read off q
directly (_level_columns). Orbits of
members must stay below height sqrt(2)*(K+1)^{3/2} over their whole
lifetime; height_bound_check checks that against the exact largest
height, read in closed form from the Euclid chains of the members.

members and height_bound_check read q off a block of consecutive
denominators: q in [2^j, 2^{j+1}) lies in the aligned block of width
2^min(j, max(0, c - j)), c = floor(log2 _PAIR_CHUNK), about _PAIR_CHUNK
coprime pairs, and from q = 2^c on every q is a block of its own. The
_levels runs over the block's folded pairs (one per _PAIR_CHUNK of them)
and one _excursions run over its members serve every q of it, and the last few blocks are cached, so an
ascending loop over q pays one kernel run per block. A single call pays
for its whole block: on a cold cache at q < 8192 and K = 3, a members or
height_bound_check call takes 0.5-0.75 ms against 0.27-0.46 ms for a
block of q alone (10th to 90th percentile over 150 random q, best of 7
calls, 2 cores). A block of one q is not kept.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .arith import _coprime_mask, _euclid_rounds, factorize
from .gaussmeasure import LN2
from .lattice import _excursions

# folded pairs per kernel run: small enough that the live columns stay in
# cache (runs of 2^18 pairs, the width the sweeps' chunks once had, took
# the Q = 10^4 census about 25% longer), large enough to batch many small
# q; 2^13 beat 2^12 and 2^14 on the Q = 1500 census
_PAIR_CHUNK = 1 << 13

# (q_{k-1}, q_k) states per block of the digit-tree walk; besides its two
# tallies the walk holds a few blocks per tree level, and the tree is
# less than 1.45 log2 Q levels deep
_BLOCK = 1 << 16

# rows read per slice of a tally: whole-tally index lists cost MBs at large Q
_ROW_BLOCK = 1 << 12

#: largest q that members and height_bound_check take: a block of one q
#: sends up to phi(q)/2 coprime pairs through _levels at once
HEIGHT_Q_MAX = 10**6


class _Tally(Mapping[int, int]):
    """Read-only {q: count} view of the nonzero entries of a count array indexed by q, ascending in q."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        array.flags.writeable = False
        self.array = array

    def __getitem__(self, q: object) -> int:
        try:
            i = operator.index(q)
        except TypeError:
            raise KeyError(q) from None
        count = self.array.item(i) if 0 <= i < self.array.size else 0
        if count:
            return count
        raise KeyError(q)

    def __iter__(self) -> Iterator[int]:
        for qs in _nonzero(self.array):
            yield from qs.tolist()

    def __len__(self) -> int:
        return int(np.count_nonzero(self.array))

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class ZarembaCensus:
    """Member counts per denominator q <= Q at digit bound K.

    counts holds the relaxed membership (last canonical digit allowed
    up to K+1), strict_counts the all-digits-at-most-K variant. Both are
    given as {q: count} mappings and held as two int64 tallies indexed by
    q <= Q, read back through read-only views of their nonzero entries.
    """

    K: int
    Q: int
    counts: Mapping[int, int]
    strict_counts: Mapping[int, int]

    def __post_init__(self) -> None:
        if self.K < 1 or self.Q < 2:
            raise ValueError("census needs K >= 1 and Q >= 2")
        views = (self.counts, self.strict_counts)
        if all(isinstance(v, _Tally) and v.array.size == self.Q + 1 for v in views):
            relaxed, strict = (v.array for v in views)
            if (strict > relaxed).any():
                raise ValueError(f"strict count exceeds relaxed count at q={(strict > relaxed).argmax()}")
        else:  # the first bad entry in the mapping's order is reported
            (q, c), (sq, sc) = _entries(self.counts), _entries(self.strict_counts)
            for keys, values in ((q, c), (sq, sc)):
                bad = (keys < 2) | (keys > self.Q) | (values <= 0)
                if bad.any():
                    raise ValueError(f"bad census entry q={keys[bad.argmax()]}")
            relaxed, strict = np.zeros((2, self.Q + 1), dtype=np.int64)
            relaxed[q], strict[sq] = c, sc
            over = sc > relaxed[sq]
            if over.any():
                raise ValueError(f"strict count exceeds relaxed count at q={sq[over.argmax()]}")
        object.__setattr__(self, "counts", _Tally(relaxed))
        object.__setattr__(self, "strict_counts", _Tally(strict))

    def count(self, q: int) -> int:
        return self.counts.get(q, 0)

    def strict_count(self, q: int) -> int:
        return self.strict_counts.get(q, 0)

    def total(self, upto: Optional[int] = None) -> int:
        """Relaxed members with denominator at most upto (all of them by default)."""
        stop = self.Q if upto is None else min(upto, self.Q)
        return int(self.counts.array[: max(stop + 1, 0)].sum())

    def row_blocks(self) -> Iterator[tuple[list[int], list[int], list[int]]]:
        """The populated rows as (q, count_relaxed, count_strict) columns, one _ROW_BLOCK slice of q at a time."""
        relaxed, strict = self.counts.array, self.strict_counts.array
        for qs in _nonzero(relaxed):
            yield qs.tolist(), relaxed[qs].tolist(), strict[qs].tolist()

    def rows(self) -> Iterator[tuple[int, int, int]]:
        """(q, count_relaxed, count_strict) in ascending q, populated rows only."""
        for columns in self.row_blocks():
            yield from zip(*columns)


def _nonzero(tally: np.ndarray) -> Iterator[np.ndarray]:
    """Indices of the nonzero entries of a tally, ascending, read one _ROW_BLOCK slice at a time."""
    for lo in range(0, tally.size, _ROW_BLOCK):
        yield lo + np.flatnonzero(tally[lo : lo + _ROW_BLOCK])


def _entries(counts: Mapping[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Keys and values of a {q: count} mapping as int64 arrays, in its order."""
    n = len(counts)
    try:
        return np.fromiter(counts.keys(), np.int64, n), np.fromiter(counts.values(), np.int64, n)
    except OverflowError:
        raise ValueError("bad census entry beyond int64") from None


def enumerate_bounded(Q: int, K: int) -> ZarembaCensus:
    """Census of every level-K fraction with denominator at most Q.

    Walks the digit tree depth-first over (q_{k-1}, q_k) states, popped
    from a stack _BLOCK at a time. Each state of a block is closed with
    final digits 2..K+1 and extended with interior digits 1..K, none past
    Q (no digit of p/q exceeds q); the closures are tallied into the two
    count arrays and the extensions pushed. A state is pruned once even
    the cheapest closure (final digit 2) overshoots Q, so the walk touches
    each admissible word exactly once. The digits of a block are tried in
    increasing order, q_k + q_{k-1} first and one more q_k each time, and
    a state leaves the block once its q passes Q; every value then stays
    below 3Q, so the columns are int32 when 3Q < 2^31.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if Q < 2:
        raise ValueError("Q must be >= 2")
    dtype = np.int32 if 3 * Q < 2**31 else np.int64
    # strict takes the final digits 2..K and last the final digit K + 1;
    # their sum is the relaxed tally
    strict = np.zeros(Q + 1, dtype=np.int64)
    last = np.zeros(Q + 1, dtype=np.int64)
    # the walk starts at the empty word (q_{-1}, q_0) = (0, 1)
    stack = [(np.zeros(1, dtype=dtype), np.ones(1, dtype=dtype))]
    while stack:
        parts, size = [], 0
        while stack and size < _BLOCK:
            parts.append(stack.pop())
            size += parts[-1][0].size
        prev, cur = (np.concatenate(col) for col in zip(*parts))
        if size > _BLOCK:
            stack.append((prev[_BLOCK:], cur[_BLOCK:]))
            prev, cur = prev[:_BLOCK], cur[:_BLOCK]
        q = cur + prev
        for a in range(1, K + 2):
            if a >= 2:
                np.add.at(strict if a <= K else last, q, 1)
            if a > K:
                break
            alive = np.flatnonzero(2 * q + cur <= Q)
            if alive.size:
                stack.append((cur.take(alive), q.take(alive)))
            q += cur
            inside = np.flatnonzero(q <= Q)
            if inside.size < q.size:
                cur, q = cur.take(inside), q.take(inside)
                if not q.size:
                    break
    last += strict
    return ZarembaCensus(K, Q, _Tally(last), _Tally(strict))


def _levels(q: np.ndarray, p: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Relaxed and strict level of each p/q and of its mirror (q - p)/q, all capped at top + 1, by one Euclid-kernel run.

    Takes the coprime pairs with q/(top + 2) < p < q/2 (see
    _coprime_pairs). a_1 = q // p is read arithmetically and the kernel
    runs from (p, q mod p), whose digits are a_2, ..., a_n. With m the
    largest interior digit a_2..a_{n-1} (0 when n = 2):
    p/q = [a_1, ..., a_n] has relaxed level max(a_1, m, a_n - 1) and
    strict level max(a_1, m, a_n); (q - p)/q = [1, a_1 - 1, a_2, ..., a_n]
    has max(a_1 - 1, m, a_n - 1) and max(a_1 - 1, m, a_n) (its leading 1
    never counts, as a_n >= 2). The window gives a_1 - 1 <= top, so a chain
    ends once its running maximum over a_2, ... passes top.
    """
    n = p.size
    a1 = q // p
    inner = np.full(n, top + 1, dtype=np.int64)  # m; top + 1 once ended early
    last = np.zeros(n, dtype=np.int64)
    for _, b, d, r, (idx, mx) in _euclid_rounds(p, q - a1 * p, np.arange(n), np.zeros(n, dtype=np.int64)):
        fin = np.flatnonzero((r == 0) & (b > 0))
        i = idx[fin]
        inner[i] = mx[fin]
        last[i] = d[fin]
        np.maximum(mx, d, out=mx)
        np.putmask(r, mx > top, 0)
    mirror_inner = np.maximum(inner, a1 - 1)
    np.maximum(inner, a1, out=inner)
    ends = (last - 1, last)  # the relaxed and the strict rule
    return tuple(np.minimum(np.maximum(head, end), top + 1) for head in (inner, mirror_inner) for end in ends)


def _coprime_pairs(lo: int, hi: int, top: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(q, p) columns of the coprime pairs that _levels takes, lo <= q < hi, in chunks of at least _PAIR_CHUNK pairs.

    Those are the p with max(1, q/(top + 2)) < p < q/2, sieved per q over
    that window alone (arith._coprime_mask); each stands for itself and its
    mirror q - p. Of the other p < q/2, p = 1 gives 1/q and (q - 1)/q (see
    _level_columns), and the rest have a_1 - 1 > top, so neither they nor
    their mirrors are within top. A q is never split across chunks.
    """
    qs: list[int] = []
    ps: list[np.ndarray] = []
    size = 0
    for q in range(lo, hi):
        start, stop = max(2, q // (top + 2) + 1), (q + 1) // 2
        if start < stop:
            qs.append(q)
            ps.append(start + np.flatnonzero(_coprime_mask(factorize(q).primes, start, stop)))
            size += ps[-1].size
        if ps and (size >= _PAIR_CHUNK or q == hi - 1):
            yield np.repeat(np.array(qs, dtype=np.int64), [p.size for p in ps]), np.concatenate(ps)
            qs, ps, size = [], [], 0


def _level_columns(lo: int, hi: int, top: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(q, p, relaxed, strict) columns of every coprime p/q, lo <= q < hi, whose level can be at most top; levels capped at top + 1.

    The first chunk holds 1/q = [q] (levels q - 1 and q) and
    (q - 1)/q = [1, q - 1] (levels max(1, q - 2) and q - 1) for the
    q <= top + 2, past which neither is within top. Each later chunk is one
    _levels run over a _coprime_pairs chunk, its pairs p/q followed by
    their mirrors. Every pair left out has both levels past top.
    """
    q = np.arange(lo, min(hi, top + 3), dtype=np.int64)
    m = q[q > 2]  # 1/2 is its own mirror
    yield (
        np.concatenate((q, m)),
        np.concatenate((np.ones_like(q), m - 1)),
        np.minimum(np.concatenate((q - 1, np.maximum(m - 2, 1))), top + 1),
        np.minimum(np.concatenate((q, m - 1)), top + 1),
    )
    for q, p in _coprime_pairs(lo, hi, top):
        relaxed, strict, mirror_relaxed, mirror_strict = _levels(q, p, top)
        yield (
            np.concatenate((q, q)),
            np.concatenate((p, q - p)),
            np.concatenate((relaxed, mirror_relaxed)),
            np.concatenate((strict, mirror_strict)),
        )


def _block_span(q: int) -> tuple[int, int]:
    """The aligned block [lo, hi) of consecutive denominators that q is served from (see the module docstring)."""
    j = q.bit_length() - 1
    width = 1 << min(j, max(0, _PAIR_CHUNK.bit_length() - 1 - j))
    lo = q - q % width
    return lo, lo + width


def _peaks(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each p[j]/q[j]'s least q_k r_k over its convergents, and the first q_k that attains it, from one _excursions run.

    The least q_k r_k is the orbit's highest peak, and q_k grows from one
    convergent to the next, so the first q_k is the earliest peak on a
    tie. q_k r_k < q for every convergent, so q is above every product.
    """
    prod, at = q.copy(), np.zeros_like(q)
    for idx, qk, rk, _ in _excursions(q, p):
        qr = qk * rk
        lower = qr < prod[idx]
        i = idx[lower]
        prod[i], at[i] = qr[lower], qk[lower]
    return prod, at


class _Block(NamedTuple):
    """The level-K members of the denominators lo <= q < lo + starts.size - 1.

    The relaxed members of q = lo + i are ps[starts[i] : starts[i + 1]],
    ascending, and strict flags the ones whose strict level is at most K
    too. prod and qk are their peaks (see _peaks).
    """

    lo: int
    starts: np.ndarray
    ps: np.ndarray
    strict: np.ndarray
    prod: np.ndarray
    qk: np.ndarray


def _build_block(lo: int, hi: int, K: int) -> _Block:
    """The level-K members of lo <= q < hi, then one _excursions run over them.

    The members are read off _level_columns at top = K, one folded _levels
    run per pair chunk, and sorted by (q, p): each folded chunk lists p
    ascending and its mirrors q - p after it.
    """
    q, p, relaxed, strict = map(np.concatenate, zip(*_level_columns(lo, hi, K)))
    keep = np.flatnonzero(relaxed <= K)
    keep = keep[np.lexsort((p[keep], q[keep]))]
    q, p = q[keep], p[keep]
    starts = np.searchsorted(q, np.arange(lo, hi + 1))
    return _Block(lo, starts, p, strict[keep] <= K, *_peaks(q, p))


@functools.lru_cache(maxsize=4)  # ascending loops over q need one entry
def _cached_block(lo: int, hi: int, K: int) -> _Block:
    """_build_block with read-only arrays, kept by (lo, hi, K) so a patched _PAIR_CHUNK gets fresh blocks."""
    block = _build_block(lo, hi, K)
    for a in block[1:]:
        a.flags.writeable = False
    return block


def _block(q: int, K: int) -> _Block:
    """The block that serves q, for q <= HEIGHT_Q_MAX; a block of one q is built for the call and not kept."""
    if not 2 <= q <= HEIGHT_Q_MAX:
        raise ValueError("q must lie in [2, 10^6]")
    if K < 1:
        raise ValueError("K must be >= 1")
    lo, hi = _block_span(q)
    K = min(K, hi - 1)  # no digit of p/q exceeds q, and a K past int64 would not fit _levels
    if hi - lo == 1:
        return _build_block(lo, hi, K)
    return _cached_block(lo, hi, K)


def members(q: int, K: int, strict: bool = False) -> np.ndarray:
    """Residues of q whose relaxed (or strict) level is at most K; chains end at a digit past K.

    The residues are read off the block of consecutive q that q lies in
    (see the module docstring), so q must lie in [2, HEIGHT_Q_MAX] as for
    height_bound_check. The array returned is the caller's own.
    """
    block = _block(q, K)
    i = q - block.lo
    cut = slice(block.starts[i], block.starts[i + 1])
    return block.ps[cut][block.strict[cut]] if strict else block.ps[cut].copy()


def brute_force_censuses(Q: int, Ks: Sequence[int]) -> dict[int, ZarembaCensus]:
    """Censuses at several digit bounds from one folded digit-filter pass over the p/q with q <= Q.

    _level_columns reads the levels of every p/q that can be a member at
    the largest bound: one _levels run per chunk of folded pairs yields p
    and its mirror q - p. Pairs are tallied by q and by the least bound at
    or above their level (len(set(Ks)) + 1 columns, the last for a level
    above every bound), and cumulative sums give every census. The pairs
    never run have a level above every bound, so they would land only in
    that last column, which no census reads.
    """
    if Q < 2:
        raise ValueError("Q must be >= 2")
    if not Ks or any(K < 1 for K in Ks):
        raise ValueError("digit bounds must be >= 1")
    # no digit of p/q exceeds q, so a bound past Q (even past int64) counts as Q
    bounds = np.array(sorted({min(K, Q) for K in Ks}), dtype=np.int64)
    width = bounds.size + 1
    tallies = np.zeros((2, (Q + 1) * width), dtype=np.int64)
    for q, _, *levels in _level_columns(2, Q + 1, int(bounds[-1])):
        for tally, level in zip(tallies, levels):
            np.add.at(tally, q * width + np.searchsorted(bounds, level), 1)
    relaxed, strict = tallies.reshape(2, Q + 1, width).cumsum(axis=2)
    col = {K: int(np.searchsorted(bounds, min(K, Q))) for K in Ks}
    return {
        K: ZarembaCensus(K, Q, _Tally(relaxed[:, col[K]].copy()), _Tally(strict[:, col[K]].copy()))
        for K in Ks
    }


def exponent_fit(census: ZarembaCensus) -> float:
    """Fitted growth exponent of the per-q mean member count.

    Least-squares slope of ln(mean count over q in [2^j, 2^{j+1})) vs
    ln q, one point per complete dyadic window, taken at the window's
    geometric midpoint. Window means smooth the heavy q-to-q
    fluctuation of the raw counts; empty windows are skipped.
    """
    jmax = (census.Q + 1).bit_length() - 2
    tally = census.counts.array
    # window j holds the q of bit length j + 1, tally[2^j : 2^{j+1}]
    sums = {j: int(tally[1 << j : 2 << j].sum()) for j in range(1, jmax + 1)}
    js = [j for j, s in sums.items() if s]
    if len(js) < 4:
        raise ValueError("need at least 4 complete dyadic windows")
    ys = [math.log(sums[j] / float(1 << j)) for j in js]
    return float(np.polyfit((np.array(js) + 0.5) * LN2, np.array(ys), 1)[0])


class HeightBoundError(AssertionError):
    """An orbit of a bounded-digit fraction left the compact part it must stay in."""


@dataclass(frozen=True)
class HeightBoundReport:
    q: int
    K: int
    bound: float
    checked: int
    max_height: float
    argmax_t: float
    argmax_p: int


def height_bound_check(q: int, K: int) -> HeightBoundReport:
    """Exact largest orbit height over every level-K member of q, against the bound.

    The orbit of p/q peaks at height sqrt(q / (2 q_k r_k)) at time
    ln(q q_k / r_k) for each convergent (see lattice._excursions), so
    the maximum over the members is the least q_k r_k; ties go to the
    smallest p, then the earliest time. It is read off the block of
    consecutive q that members serves q from (see the module docstring),
    which caps q at HEIGHT_Q_MAX. A maximum above sqrt(2)*(K+1)^{3/2}
    raises with the witness (p, t, ht); otherwise the report carries it.
    """
    block = _block(q, K)  # checks q and K first
    try:
        bound = math.sqrt(2.0) * (K + 1) ** 1.5
    except OverflowError:
        bound = math.inf
    if math.isinf(bound):
        raise ValueError(f"K={K}: the height bound sqrt(2)*(K+1)^(3/2) is not a finite float")
    start, stop = block.starts.item(q - block.lo), block.starts.item(q - block.lo + 1)
    if start == stop:
        return HeightBoundReport(q, K, bound, 0, 0.0, 0.0, 0)
    at = start + block.prod[start:stop].argmin().item()  # the first least product, so the smallest p
    prod, qk, best_p = block.prod.item(at), block.qk.item(at), block.ps.item(at)
    best = math.sqrt(q / (2.0 * prod))
    best_t = math.log(q * qk / (prod // qk))
    if best > bound:
        raise HeightBoundError(
            f"p={best_p}, t={best_t:.6f}, ht={best:.6f} exceeds "
            f"bound {bound:.6f} at K={K}, q={q}"
        )
    return HeightBoundReport(q, K, bound, stop - start, best, best_t, best_p)
