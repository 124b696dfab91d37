"""Empirical measures and the equidistribution experiments.

Everything here reduces to sweeps over the coprime residues p of a
modulus q: digit statistics of p/q under the Gauss map, orbit height
tails against the Haar reference, fundamental-domain histograms, and
the exact no-escape-of-mass counting bound.

Full sweeps never hold all phi(q) residues at once. They build the
coprime residues per chunk of 2^15 with the block sieve of arith and
run Euclid rounds on int32 columns below q = 2^31 (int64 above), so
memory is bounded whatever q is (under 2 MB traced for a sweep at the
default binning, about 5 MB for the mass-escape count). They run the
one Euclid kernel, arith._euclid_rounds, which the census oracle of
zaremba and the excursions of lattice run too. They keep integer
tallies only: the length statistics read a histogram of len(p/q), not
one length per residue, and the averaged orbit measure and its digit-1
mass read counts of (length, bin) and (length, digit) pairs, so every
result is an exact rational rounded once to a float, whatever the
chunking. Gauss-map points are binned exactly: the bin of B/A with
nbins bins is (B * nbins) // A, never a float comparison.

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

_CHUNK = 1 << 15  # residues per sieve block and per Euclid run

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
    digit_counts: np.ndarray  # digit_counts[d] = number of digits d, DIGIT_CAP + 1 for larger ones
    nu: np.ndarray  # the nu_bar weights
    digit1: float  # the weighted digit-1 frequency

    def len_moment(self, k: int) -> int:
        """Exact sum of len(p/q)^k over the coprime residues p."""
        return int(np.arange(self.len_counts.size, dtype=np.int64) ** k @ self.len_counts)


def _residue_chunks(q: int) -> Iterator[np.ndarray]:
    """The coprime residues of q in increasing order, _CHUNK at a time (the last chunk may be short).

    Each chunk is sieved from a block of integers that holds at least
    _CHUNK residues: an interval of length L holds L phi(q)/q of them up
    to an error below 2^omega(q). The next block starts past the last
    residue taken. Columns are int32 when q < 2^31 and int64 above.
    Every full-residue pass runs each chunk whole through the Euclid
    kernel, so _CHUNK sets its working set.
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


def _chunk_tallies(
    q: int, chunk: np.ndarray, len_counts: np.ndarray, bin_tally: np.ndarray, digit_tally: np.ndarray
) -> None:
    """Add one chunk's lengths to len_counts and its (length, bin) and (length, digit) pairs to the tallies.

    The first Euclid run finds each column's length n; the second carries
    n and counts every round of the column at row n of both tallies,
    column (b * bins) // a of bin_tally and min(d, DIGIT_CAP + 1) of
    digit_tally. Once a column ends its n is 0, so the rounds it stays
    parked for (b = d = 0) land in row 0, which no live column reaches.
    """
    rows, bins = bin_tally.shape
    index_dtype = np.int32 if max(q - 1, rows) * bins < 2**31 else np.int64
    lens = np.zeros_like(chunk)
    rounds = _euclid_rounds(np.full_like(chunk, q), chunk, np.arange(chunk.size, dtype=chunk.dtype))
    for k, (_, b, _, r, (idx,)) in enumerate(rounds, 1):
        lens[idx[(r == 0) & (b > 0)]] = k
    len_counts += np.bincount(lens, minlength=rows)
    for a, b, d, r, (n,) in _euclid_rounds(np.full_like(chunk, q), chunk, lens):
        with np.errstate(divide="ignore"):  # a column parked for two rounds has a = 0 too
            cell = np.multiply(b, bins, dtype=index_dtype) // a
        cell += np.multiply(n, bins, dtype=index_dtype)
        np.add.at(bin_tally.reshape(-1), cell, 1)
        np.add.at(digit_tally.reshape(-1), n * (DIGIT_CAP + 2) + np.minimum(d, DIGIT_CAP + 1), 1)
        n[r == 0] = 0


def _weighted_means(tally: np.ndarray, phi: int) -> np.ndarray:
    """The exact sum over n >= 1 of tally[n, j] / (n phi) for each column j, rounded once to a float.

    With L = lcm(1, ..., rows - 1) each sum is the integer
    sum_n tally[n, j] (L / n) over L phi, and Python's integer true
    division rounds it correctly. Only the nonzero columns are summed,
    about _CHUNK entries at a time, so the object arrays stay small
    whatever the tally's size.
    """
    rows, cols = tally.shape
    lcm = math.lcm(*range(1, rows))
    scale = np.array([lcm // n for n in range(1, rows)], dtype=object)
    out = np.zeros(cols)
    step = -(-_CHUNK // rows)
    for lo in range(0, cols, step):
        block = tally[1:, lo : lo + step]
        nz = np.flatnonzero(block.any(axis=0))
        out[lo + nz] = (scale @ block[:, nz].astype(object)) / (lcm * phi)
    return out


@lru_cache(maxsize=16)
def _sweep(q: int, bins: int) -> _SweepData:
    """Integer tallies of one full sweep over the coprime p, rounded once at the end.

    The residues come per chunk of 2^15 (_residue_chunks), each run twice
    through the Euclid kernel (_chunk_tallies): a column's length is
    known only once it ends, and each of its rounds is counted against
    that length. The int64 tallies do not depend on how the residues
    are grouped, so nu_bar's weight of bin j, sum_n T[n, j] / (n phi),
    and the weighted digit-1 frequency, sum_n D[n, 1] / (n phi), are
    exact rationals, each rounded once (_weighted_means). The products
    b * bins and n * bins are int32 while both stay below 2^31 and int64
    above; a (q, bins) whose bin index could pass the int64 ceiling is
    refused up front. The (length, bin) tally holds 8 (1.5 log2 q + 2) bins bytes
    while the sweep runs (about 64 KB at the default binning at q = 10^6).

    An entry holds the rounded weights and the integer histograms only
    (about 3 KB at the default binning), so the cache can keep every
    (q, bins) a run revisits.
    """
    if q < SWEEP_Q_MIN:
        raise ValueError(f"q must be >= {SWEEP_Q_MIN}")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if (q - 1) * bins >= 2**63:
        raise ValueError(f"q={q}, bins={bins}: the bin index b * bins can reach the int64 ceiling 2^63")
    # Lame's theorem: n rounds from q need q >= F_{n+2} >= golden^n, so n < 1.45 log2 q
    rows = q.bit_length() * 3 // 2 + 2
    len_counts = np.zeros(rows, dtype=np.int64)
    bin_tally = np.zeros((rows, bins), dtype=np.int64)
    digit_tally = np.zeros((rows, DIGIT_CAP + 2), dtype=np.int64)
    for chunk in _residue_chunks(q):
        _chunk_tallies(q, chunk, len_counts, bin_tally, digit_tally)
    phi = int(len_counts.sum())
    nu = _weighted_means(bin_tally, phi)
    digit1 = float(_weighted_means(digit_tally[:, 1:2], phi)[0])
    return _SweepData(phi, len_counts, digit_tally[1:].sum(axis=0), nu, digit1)


def nu_bar(q: Union[int, Modulus], bins: int = DEFAULT_BINS) -> EmpiricalMeasure:
    """Average of nu_pq over all residues coprime to q; total weight 1."""
    return EmpiricalMeasure(uniform_edges(bins), _sweep(_q_int(q), bins).nu.copy())


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
    ks = ks_distance(EmpiricalMeasure(uniform_edges(bins), sd.nu))
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
        return sd.digit1
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
    if q < 2:
        raise ValueError("q must be >= 2")
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
    """Mean of orbit_height_tail over a seeded subsample of the coprime residues.

    A sample_size of at least phi(q) takes every residue: those stream
    through _residue_chunks, one Euclid run per chunk, so memory is
    bounded whatever q is.
    """
    qi = _q_int(q)
    if qi >= 2 and sample_size >= (phi := euler_phi(qi)):
        total = sum(_height_tails(qi, chunk.astype(np.int64), M).sum() for chunk in _residue_chunks(qi))
        return float(total / phi)
    # a bad q or an empty sample is refused by _residue_sample
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
    The residues are taken per chunk of _residue_chunks, one Euclid run
    each, so memory is bounded whatever q is (about 5 MB traced).
    """
    qi = _q_int(q)
    if qi < 2:
        raise ValueError("q must be >= 2")
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

    phi = euler_phi(qi)
    count = 0
    for chunk in _residue_chunks(qi):
        ps = chunk.astype(np.int64)  # int64 like every other column of _excursions
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
    # every chain ends in the vector (q, 0), short for every residue or for none
    gap = qi * qi * emt - inv_m2
    if abs(gap) <= tol:
        escalations += phi
    if gap < -tol or (abs(gap) <= tol and exact(qi, 0)):
        count = phi
    bound = Fraction(4 * phi) / (Fraction(M) ** 2)
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
