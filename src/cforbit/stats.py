"""Empirical measures and the equidistribution experiments.

Everything here reduces to sweeps over the coprime residues p of a
modulus q: digit statistics of p/q under the Gauss map, orbit height
tails against the Haar reference, fundamental-domain histograms, and
the exact no-escape-of-mass counting bound.

Full sweeps never hold all phi(q) residues at once. They build the
coprime residues per chunk of 2^18 with the block sieve of arith, run
Euclid rounds on int32 columns below q = 2^31 (int64 above) over
slices of 2^15 columns of each chunk, and merge the chunks in
ascending order. So memory is bounded whatever q is (about 5 MB traced
for a sweep, 6 MB for the mass-escape count), and results are
deterministic down to the last bit for a given q and binning: the 2^18
chunk, not the slice, is the unit of every float sum. They run the one
Euclid kernel, arith._euclid_rounds, which the census oracle of zaremba
and the excursions of lattice run too; a parked column adds exact
zeros, so every float sum equals the one of a sweep that drops ended
columns every round. They keep histograms only: the length statistics
read a histogram of len(p/q), not one length per residue. Gauss-map
points are binned exactly: the bin of B/A with nbins bins is
(B * nbins) // A, never a float comparison.

Orbit heights and the no-escape-of-mass count are exact: each excursion
toward the cusp, its peak, its time above a height M and the norm of its
vector at a time t are read in closed form off the Euclid chain
(lattice._excursions). Only the fundamental-domain histogram reads
orbits on a time grid here: the (residue, time) points of a seeded
residue sample go through lattice._fd_points, the kernel that
lattice.orbit_samples runs over the grid of one orbit, in bounded chunks,
and the cell weights are exact sums of 1/2 and 1, so they do not depend
on the chunking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Union

import numpy as np

from .arith import Modulus, _coprime_mask, _euclid_rounds, euler_phi, factorize, omega
from .cfe import DigitHistogram, ReducedFraction, cfe_len
from .gaussmeasure import LN2, gauss_cdf
from .lattice import _FD_CHUNK, _excursions, _fd_points, haar_fd_sample

DEFAULT_BINS = 256
DIGIT_CAP = 64
ZETA2 = math.pi * math.pi / 6.0
#: limit of mean_len / (2 ln q) over coprime numerators, ln 2 / zeta(2)
LEN_RATE = LN2 / ZETA2

_CHUNK = 1 << 18
_COLUMNS = 1 << 15  # columns per Euclid run; the float sums stay per _CHUNK

#: smallest modulus the full sweeps (nu_bar, len_stats, dispersion, digit_one_frequency) accept
SWEEP_Q_MIN = 3


def _q_int(m: Union[int, Modulus]) -> int:
    return m.q if isinstance(m, Modulus) else int(m)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted histogram over [0,1]; weights may be floats or exact Fractions."""

    edges: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if len(self.weights) != edges.size - 1:
            raise ValueError("need one weight per bin")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", np.asarray(self.weights))

    @property
    def total_weight(self):
        return self.weights.sum()

    def cdf_at_edges(self) -> np.ndarray:
        w = self.weights.astype(np.float64) / float(self.total_weight)
        return np.concatenate(([0.0], np.cumsum(w)))


def uniform_edges(bins: int) -> np.ndarray:
    if bins < 1:
        raise ValueError("bins must be >= 1")
    return np.arange(bins + 1, dtype=np.float64) / bins


def ks_distance(e: EmpiricalMeasure, cdf: Callable[[float], float] = gauss_cdf) -> float:
    """Largest |CDF_e - cdf| over the bin edges."""
    emp = e.cdf_at_edges()
    ref = np.array([cdf(v) for v in e.edges])
    return float(np.max(np.abs(emp - ref)))


def nu_pq(x: ReducedFraction, bins: int = DEFAULT_BINS) -> EmpiricalMeasure:
    """The orbit measure of x: mass 1/len on each Gauss iterate, exact weights."""
    n = cfe_len(x)
    w = np.full(bins, Fraction(0), dtype=object)
    atom = Fraction(1, n)
    a, b = x.q, x.p
    while b:
        w[(b * bins) // a] += atom
        a, b = b, a % b
    return EmpiricalMeasure(uniform_edges(bins), w)


@dataclass(frozen=True)
class _SweepData:
    phi: int
    len_counts: np.ndarray  # len_counts[n] = number of residues p with len(p/q) = n
    hist: np.ndarray
    digit_counts: np.ndarray
    digit1_weighted: float

    def len_moment(self, k: int) -> int:
        """Exact sum of len(p/q)^k over the coprime residues p."""
        return int(np.arange(self.len_counts.size, dtype=np.int64) ** k @ self.len_counts)


def _residue_chunks(q: int) -> Iterator[np.ndarray]:
    """The coprime residues of q in increasing order, _CHUNK at a time (the last chunk may be short).

    Each chunk is sieved from a block of integers that holds at least
    _CHUNK residues: an interval of length L holds L phi(q)/q of them up
    to an error below 2^omega(q). The next block starts past the last
    residue taken. Columns are int32 when q < 2^31 and int64 above.
    """
    m = factorize(q)
    dtype = np.int32 if q < 2**31 else np.int64
    span = -(-(_CHUNK + 2 ** omega(m)) * q // euler_phi(m))
    lo = 1
    while lo < q:
        hi = min(q, lo + span)
        chunk = np.flatnonzero(_coprime_mask(m.primes, lo, hi))[:_CHUNK].astype(dtype)
        chunk += lo
        yield chunk
        lo = int(chunk[-1]) + 1 if chunk.size == _CHUNK else hi


def _chunk_rounds(
    q: int, chunk: np.ndarray, bins: int, len_counts: np.ndarray, digit_counts: np.ndarray
) -> list[tuple[np.ndarray, float]]:
    """One chunk's 1/len-weighted histogram and digit-1 mass per Euclid round, run _COLUMNS columns at a time.

    Each slice runs both Euclid passes and adds its round-k cells into the
    round-k accumulator with np.add.at, which adds in index order as
    bincount does; so after the last slice every bin holds the sequential
    sum that one bincount over the whole chunk's round gives. The uint8
    lengths of each round's digit-1 columns are kept (len <= 93 below
    2^63, by Lame), and their weights 1/len are summed once per round at
    the end: the same values in the same order, so the same pairwise sum,
    as over the whole chunk. The integer tallies len_counts and
    digit_counts are added into in place. The slices' state is freed on
    return, before the next chunk is sieved; what stays per chunk is one
    byte per digit 1 and rounds x bins accumulator floats (about 70 KB
    at the default 256 bins, but more than the columns past about 2^15
    bins).
    """
    bin_dtype = np.int32 if (q - 1) * bins < 2**31 else np.int64
    hists: list[np.ndarray] = []
    d1_lens: list[list[np.ndarray]] = []
    for lo in range(0, chunk.size, _COLUMNS):
        cols = chunk[lo : lo + _COLUMNS]
        lens = np.zeros_like(cols)
        rounds = _euclid_rounds(np.full_like(cols, q), cols, np.arange(cols.size, dtype=cols.dtype))
        for k, (_, b, _, r, (idx,)) in enumerate(rounds, 1):
            lens[idx[(r == 0) & (b > 0)]] = k
        len_counts += np.bincount(lens, minlength=len_counts.size)
        rounds = _euclid_rounds(np.full_like(cols, q), cols, 1.0 / lens, lens.astype(np.uint8))
        for k, (a, b, d, r, (w, n)) in enumerate(rounds):
            if k == len(hists):
                hists.append(np.zeros(bins))
                d1_lens.append([])
            with np.errstate(divide="ignore"):  # a column parked for two rounds has a = 0 too
                cell = np.multiply(b, bins, dtype=bin_dtype) // a
            np.add.at(hists[k], cell, w)
            digit_counts += np.bincount(np.minimum(d, DIGIT_CAP + 1), minlength=DIGIT_CAP + 2)
            d1_lens[k].append(np.compress(d == 1, n))  # a parked column has d = 0
            w[r == 0] = 0.0  # a parked column's weight is 0 already
    return [(h, float((1.0 / np.concatenate(n)).sum())) for h, n in zip(hists, d1_lens)]


@lru_cache(maxsize=16)
def _sweep(q: int, bins: int) -> _SweepData:
    """Two Euclid runs per slice of coprime p: lengths first, then the 1/len-weighted statistics.

    The residues are sieved per chunk of 2^18 (_residue_chunks), and each
    chunk is run _COLUMNS = 2^15 columns at a time (_chunk_rounds), on
    int32 columns below q = 2^31, so memory is bounded whatever q is
    (about 5 MB traced at the default binning). The chunk stays the unit
    of every float sum: its per-round histograms and digit-1 masses are
    added in chunk order, then round order. The bin index b * bins is
    int32 while (q - 1) * bins < 2^31 and int64 above; a (q, bins) whose
    bin index could pass the int64 ceiling is refused up front.

    Both runs read arith._euclid_rounds, which parks ended columns. Pass
    2 zeroes a column's weight once it ends, so a parked column adds +0.0
    to bin 0 of each round's histogram (a sequential sum per bin, so
    every bin keeps its bits), its digit 0 lands in a bin no live column
    reaches, and the digit-1 mass sums the same live weights in the same
    order as with the parked columns dropped. So every result equals, bit
    for bit, the sweep that drops ended columns every round, over whole
    chunks.

    An entry holds histograms only (about 3 KB at the default binning),
    so the cache can keep every (q, bins) a run revisits.
    """
    if q < SWEEP_Q_MIN:
        raise ValueError(f"q must be >= {SWEEP_Q_MIN}")
    if (q - 1) * bins >= 2**63:
        raise ValueError(f"q={q}, bins={bins}: the bin index b * bins can reach the int64 ceiling 2^63")
    # Lame's theorem: n rounds from q need q >= F_{n+2} >= golden^n, so n < 1.45 log2 q
    len_counts = np.zeros(q.bit_length() * 3 // 2 + 2, dtype=np.int64)
    hist = np.zeros(bins, dtype=np.float64)
    digit_counts = np.zeros(DIGIT_CAP + 2, dtype=np.int64)
    digit1_weighted = 0.0
    for chunk in _residue_chunks(q):
        for h, mass in _chunk_rounds(q, chunk, bins, len_counts, digit_counts):
            hist += h
            digit1_weighted += mass
    digit_counts[0] = 0  # the parked columns' d = 0
    return _SweepData(int(len_counts.sum()), len_counts, hist, digit_counts, digit1_weighted)


def nu_bar(q: Union[int, Modulus], bins: int = DEFAULT_BINS) -> EmpiricalMeasure:
    """Average of nu_pq over all residues coprime to q; total weight 1."""
    sd = _sweep(_q_int(q), bins)
    return EmpiricalMeasure(uniform_edges(bins), sd.hist / sd.phi)


@dataclass(frozen=True)
class SweepSummary:
    q: int
    phi: int
    mean_len: Fraction
    var_len: Fraction
    digit_hist: DigitHistogram
    ks_to_gauss: float

    def __post_init__(self) -> None:
        if self.mean_len > 2 * math.log2(self.q):
            raise ValueError("mean_len exceeds the 2 log2 q ceiling")


def len_stats(q: Union[int, Modulus], bins: int = DEFAULT_BINS) -> SweepSummary:
    """Exact mean and variance of len(p/q) over coprime p, with the digit census of the sweep."""
    qi = _q_int(q)
    sd = _sweep(qi, bins)
    mean = Fraction(sd.len_moment(1), sd.phi)
    var = Fraction(sd.len_moment(2), sd.phi) - mean * mean
    counts = {d: int(sd.digit_counts[d]) for d in range(1, DIGIT_CAP + 1) if sd.digit_counts[d]}
    dh = DigitHistogram(DIGIT_CAP, counts, int(sd.digit_counts[DIGIT_CAP + 1]))
    ks = ks_distance(EmpiricalMeasure(uniform_edges(bins), sd.hist / sd.phi))
    return SweepSummary(qi, sd.phi, mean, var, dh, ks)


def dispersion(q: Union[int, Modulus], delta: float) -> float:
    """Fraction of residues whose len/(2 ln q) misses the limit constant by more than delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    qi = _q_int(q)
    sd = _sweep(qi, DEFAULT_BINS)
    ratios = np.arange(sd.len_counts.size, dtype=np.float64) / (2.0 * math.log(qi))
    return int(sd.len_counts[np.abs(ratios - LEN_RATE) > delta].sum()) / sd.phi


def digit_one_frequency(q: Union[int, Modulus], weighted: bool = True) -> float:
    """Aggregated frequency of partial quotient 1 across the sweep.

    weighted=True is the mass the averaged orbit measure puts on digit 1
    (each orbit counts with weight 1/len); weighted=False pools every
    digit of every orbit with equal weight.
    """
    sd = _sweep(_q_int(q), DEFAULT_BINS)
    if weighted:
        return sd.digit1_weighted / sd.phi
    return int(sd.digit_counts[1]) / sd.len_moment(1)


def _height_tails(q: int, ps: np.ndarray, M: float) -> np.ndarray:
    """Exact fraction of [0, 2 ln q] the orbit of each p/q in ps spends at height >= M."""
    if M < 1:
        raise ValueError("M must be >= 1")
    tails = np.zeros(ps.size)
    for idx, qk, rk, _ in _excursions(q, ps):
        tails[idx] += np.arccosh(np.maximum(1.0, q / (2.0 * M * M * (qk * rk))))
    return tails / math.log(q)


def orbit_height_tail(x: ReducedFraction, M: float) -> float:
    """Fraction of the life span [0, 2 ln q] the orbit of x spends at height >= M.

    Exact: the excursions above M are disjoint, and the one of the k-th
    convergent lasts 2 arccosh(q / (2 M^2 q_k r_k)) (see lattice._excursions).
    """
    return float(_height_tails(x.q, np.array([x.p], dtype=np.int64), M)[0])


def _residue_sample(q: int, sample_size: int, seed: int) -> np.ndarray:
    """The coprime residues of q, or a sorted seeded subsample of sample_size of them.

    The sample is the one rng.choice(coprime_array(q), sample_size,
    replace=False) draws: choice picks positions first, and these are
    read off the sieve chunks of _residue_chunks, so only the chunks
    are ever held.
    """
    if sample_size < 1:
        raise ValueError("sample-size must be >= 1")
    phi = euler_phi(q)
    if phi > sample_size:
        picks = np.sort(np.random.default_rng(seed).choice(phi, size=sample_size, replace=False))
    else:
        picks = np.arange(phi)
    residues = np.empty(picks.size, dtype=np.int64)
    start = 0
    for chunk in _residue_chunks(q):
        lo, hi = np.searchsorted(picks, (start, start + chunk.size))
        residues[lo:hi] = chunk[picks[lo:hi] - start]
        start += chunk.size
    return residues


def averaged_height_tail(
    q: Union[int, Modulus],
    M: float,
    sample_size: int = 2000,
    seed: int = 0,
) -> float:
    """Mean of orbit_height_tail over a seeded subsample of the coprime residues."""
    qi = _q_int(q)
    return float(np.mean(_height_tails(qi, _residue_sample(qi, sample_size, seed), M)))


def haar_height_tail(rng: np.random.Generator, n: int, M: float) -> float:
    """Monte Carlo estimate of the Haar probability of height >= M (uses ht^2 = y on the domain)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    _, y = haar_fd_sample(rng, n)
    return float(np.mean(y >= M * M))


class MassEscapeBoundError(AssertionError):
    """The exact counting bound (4/M^2) phi(q) failed; this is a theorem, so it means a bug."""


@dataclass(frozen=True)
class MassEscapeReport:
    q: int
    M: float
    t: float
    count: int
    bound: Fraction
    in_hypothesis: bool
    escalations: int


def mass_escape_count(
    q: Union[int, Modulus], M: float, t: float, checked: bool = True
) -> MassEscapeReport:
    """Exact count of residues p whose orbit lattice at time t holds a vector of norm <= 1/M.

    Only convergent vectors (q_k, r_k/q) can be that short (see
    lattice._excursions): one Euclid pass over the coprime residues tests
    q_k^2 e^{-t} + (r_k/q)^2 e^t <= 1/M^2 until q_k alone is too long, and
    the last vector (q, 0) counts every residue once t >= 2 ln(qM).
    Doubles decide outside a 2^-40 relative margin and 50 digits inside
    it; escalations counts the margin hits per (vector, residue). The
    count is asserted against (4/M^2) phi(q), a bound proven in the range
    0 <= t <= ln q - 2 omega(q); checked=False skips that range guard.
    The residues are taken per chunk of _residue_chunks and run _COLUMNS
    at a time, so memory is bounded whatever q is (about 6 MB traced).
    """
    qi = _q_int(q)
    if M <= 1:
        raise ValueError("M must be > 1")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError("t must be >= 0")
    window = math.log(qi) - 2 * omega(qi)
    in_hyp = t <= window
    if checked and not in_hyp:
        raise ValueError(f"t={t} outside the hypothesis range [0, {window:.4f}] for q={qi}")
    inv_m2 = 1.0 / (M * M)
    emt = math.exp(-t)
    ept = math.exp(t) if t <= 709.0 else math.inf  # past 709 only (q, 0) can be short
    tol = 2.0**-40 * inv_m2
    escalations = 0

    def exact(m: int, r: int) -> bool:
        import mpmath  # only a margin hit needs it, so import cforbit does not load it

        with mpmath.workdps(50):
            lhs = m * m * mpmath.exp(-t) + (mpmath.mpf(r) / qi) ** 2 * mpmath.exp(t)
            return lhs <= 1 / mpmath.mpf(M) ** 2

    count = residues = 0
    for chunk in _residue_chunks(qi):
        for lo in range(0, chunk.size, _COLUMNS):
            ps = chunk[lo : lo + _COLUMNS].astype(np.int64)  # int64 like every other column of _excursions
            hit = np.zeros(ps.size, dtype=bool)
            for idx, qk, rk, rem in _excursions(qi, ps):
                # squared in float64: q_k runs up to q/2, so an int64 q_k^2 wraps
                # past q ~ 6.07e9; where it does not, both round q_k^2 once to nearest
                head = np.square(qk, dtype=np.float64) * emt
                gap = head + (rk / qi) ** 2 * ept - inv_m2
                hit[idx[gap < -tol]] = True
                near = np.flatnonzero(np.abs(gap) <= tol)
                escalations += near.size
                for i in near:
                    hit[idx[i]] |= exact(int(qk[i]), int(rk[i]))
                # later convergents have larger q_k, so none of them can be short
                rem[head - inv_m2 > tol] = 0
            count += int(np.count_nonzero(hit))
            residues += ps.size
    # every chain ends in the vector (q, 0), short for every residue or for none
    gap = qi * qi * emt - inv_m2
    if abs(gap) <= tol:
        escalations += residues
    if gap < -tol or (abs(gap) <= tol and exact(qi, 0)):
        count = residues
    bound = Fraction(4 * euler_phi(qi)) / (Fraction(M) ** 2)
    if in_hyp and count > bound:
        raise MassEscapeBoundError(
            f"count {count} exceeds (4/M^2) phi = {float(bound):.3f} at q={qi}, M={M}, t={t}"
        )
    return MassEscapeReport(qi, M, t, count, bound, in_hyp, escalations)


@dataclass(frozen=True)
class FdHistogram:
    """Probability histogram over the fundamental domain in (x, 1/y) cells, with Haar cell masses.

    The coordinate v = 1/y makes the Haar measure uniform (density
    3/pi), so expected masses have a closed form and every cell of the
    domain carries comparable weight.
    """

    grid: int
    weights: np.ndarray
    expected: np.ndarray

    def discrepancy(self) -> float:
        """Chi-square style score: sum of (observed - expected)^2 / expected over the domain cells."""
        mask = self.expected > 0
        obs = self.weights / self.weights.sum()
        d = obs[mask] - self.expected[mask]
        return float(np.sum(d * d / self.expected[mask]))


V_MAX = 2.0 / math.sqrt(3.0)


def fd_cell_masses(grid: int) -> np.ndarray:
    """Exact Haar mass of each (x, v) cell on the grid x in [-1/2,1/2], v in [0, 2/sqrt(3)]."""

    def strip(vcap: float, x0: float, x1: float) -> float:
        # integral over [x0, x1] of min(vcap, 1/sqrt(1-x^2)) dx
        if vcap <= 1.0:
            return vcap * (x1 - x0)
        xv = math.sqrt(1.0 - 1.0 / (vcap * vcap))
        lo, hi = max(x0, -xv), min(x1, xv)
        inner = math.asin(hi) - math.asin(lo) if hi > lo else 0.0
        right = max(0.0, x1 - max(x0, xv))
        left = max(0.0, min(x1, -xv) - x0)
        return inner + (left + right) * vcap

    xs = np.linspace(-0.5, 0.5, grid + 1)
    vs = np.linspace(0.0, V_MAX, grid + 1)
    out = np.zeros((grid, grid))
    for i in range(grid):
        for j in range(grid):
            out[i, j] = strip(vs[j + 1], xs[i], xs[i + 1]) - strip(vs[j], xs[i], xs[i + 1])
    return out * (3.0 / math.pi)


def _fd_accumulate(xs: np.ndarray, vs: np.ndarray, w: np.ndarray, grid: int) -> np.ndarray:
    ix = np.clip(((xs + 0.5) * grid).astype(np.int64), 0, grid - 1)
    iv = np.clip((vs / V_MAX * grid).astype(np.int64), 0, grid - 1)
    return np.bincount(ix * grid + iv, weights=w, minlength=grid * grid).reshape(grid, grid)


def orbit_fd_histogram(
    q: Union[int, Modulus],
    dt: float = 0.05,
    grid: int = 24,
    sample_size: int = 600,
    seed: int = 0,
) -> FdHistogram:
    """Fundamental-domain occupation histogram of the orbits of a residue subsample.

    Every (residue, grid time) point goes through the array kernel of
    lattice, at most _FD_CHUNK points per call, and each call's points
    are added into the cells at once, so memory does not grow with
    sample_size. The weights are sums of the trapezoid end weights 1/2
    and 1, so they are exact and do not depend on the chunking.
    """
    if not 0 < dt <= 0.1:
        raise ValueError("dt must lie in (0, 0.1]")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    qi = _q_int(q)
    residues = _residue_sample(qi, sample_size, seed)
    span = 2.0 * math.log(qi)
    n = max(1, int(math.ceil(span / dt)))
    ts = np.linspace(0.0, span, n + 1)
    half = np.exp(ts / 2.0)
    tw = np.ones(n + 1)
    tw[0] = tw[-1] = 0.5
    xf = residues / qi
    weights = np.zeros((grid, grid))
    rows = max(1, _FD_CHUNK // (n + 1))
    for lo in range(0, xf.size, rows):
        x = xf[lo : lo + rows, None]
        fx, fy = _fd_points(1.0 / half, x * half, 0.0, half)
        weights += _fd_accumulate(fx, 1.0 / fy, np.tile(tw, x.size), grid)
    return FdHistogram(grid, weights, fd_cell_masses(grid))


def haar_fd_histogram(rng: np.random.Generator, n: int, grid: int = 24) -> FdHistogram:
    """Reference histogram of haar_sample points on the same cells."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    xs, ys = haar_fd_sample(rng, n)
    weights = _fd_accumulate(xs, 1.0 / ys, np.ones(n), grid)
    return FdHistogram(grid, weights, fd_cell_masses(grid))
