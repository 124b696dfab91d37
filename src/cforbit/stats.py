"""Empirical measures and the equidistribution experiments.

Everything here reduces to sweeps over the coprime residues p of a
modulus q: digit statistics of p/q under the Gauss map, orbit height
tails against the Haar reference, fundamental-domain histograms, and
the exact no-escape-of-mass counting bound.

Full sweeps run the Euclid kernel of arith over p in fixed-size chunks
merged in ascending order, so results are deterministic down to the
last bit for a given q and binning. They keep histograms only: the
length statistics read a histogram of len(p/q), not one length per
residue. Gauss-map points are binned exactly: the bin of B/A with nbins
bins is (B * nbins) // A, never a float comparison.

The lattice orbits of a seeded residue sample are read on a time grid.
The fundamental-domain histogram sends all of their (residue, time)
points through the array kernel of lattice in bounded chunks. Its cell
weights are exact sums of 1/2 and 1, so they do not depend on the chunking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

import mpmath
import numpy as np

from .arith import Modulus, _euclid_rounds, coprime_array, euler_phi, omega
from .cfe import DigitHistogram, ReducedFraction, cfe_len
from .gaussmeasure import LN2, gauss_cdf
from .lattice import _fd_points, haar_fd_sample

DEFAULT_BINS = 256
DIGIT_CAP = 64
ZETA2 = math.pi * math.pi / 6.0
#: limit of mean_len / (2 ln q) over coprime numerators, ln 2 / zeta(2)
LEN_RATE = LN2 / ZETA2

_CHUNK = 1 << 18
#: orbit points per call of the fundamental-domain kernel, which bounds its temporaries
_FD_CHUNK = 1 << 16

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

    def merge(self, other: "EmpiricalMeasure") -> "EmpiricalMeasure":
        if not np.array_equal(self.edges, other.edges):
            raise ValueError("cannot merge measures with different binnings")
        if self.weights.dtype != other.weights.dtype:
            raise ValueError("cannot merge exact and float measures")
        return EmpiricalMeasure(self.edges, self.weights + other.weights)

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


@lru_cache(maxsize=16)
def _sweep(q: int, bins: int) -> _SweepData:
    """Two Euclid-kernel runs per chunk of coprime p: lengths first, then the 1/len-weighted statistics.

    An entry holds histograms only (about 3 KB at the default binning),
    so the cache can keep every (q, bins) a run revisits.
    """
    if q < SWEEP_Q_MIN:
        raise ValueError(f"q must be >= {SWEEP_Q_MIN}")
    residues = coprime_array(q)
    phi = residues.size
    # Lame's theorem: n rounds from q need q >= F_{n+2} >= golden^n, so n < 1.45 log2 q
    len_counts = np.zeros(q.bit_length() * 3 // 2 + 2, dtype=np.int64)
    hist = np.zeros(bins, dtype=np.float64)
    digit_counts = np.zeros(DIGIT_CAP + 2, dtype=np.int64)
    digit1_weighted = 0.0
    for lo in range(0, phi, _CHUNK):
        chunk = residues[lo : lo + _CHUNK]
        n = chunk.size
        qs = np.full(n, q, dtype=np.int64)
        lens = np.zeros(n, dtype=np.int64)
        for k, (_, _, _, r, (idx,)) in enumerate(_euclid_rounds(qs, chunk, np.arange(n)), 1):
            lens[idx[r == 0]] = k
        len_counts += np.bincount(lens, minlength=len_counts.size)
        for a, b, d, _, (w,) in _euclid_rounds(qs, chunk, 1.0 / lens):
            hist += np.bincount((b * bins) // a, weights=w, minlength=bins)
            digit_counts += np.bincount(np.minimum(d, DIGIT_CAP + 1), minlength=DIGIT_CAP + 2)
            digit1_weighted += float(w[d == 1].sum())
    return _SweepData(phi, len_counts, hist, digit_counts, digit1_weighted)


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


def _convergent_norm_pairs(x: ReducedFraction) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (m, |m x - n|) over the candidate short vectors of the orbit lattices of x.

    By best approximation, the vector of least norm m^2 e^{-t} + (mx-n)^2 e^t
    always has m a convergent denominator of x (or m = 0, n = 1).
    """
    p, q = x.p, x.q
    ms = [0, 1]
    ds = [1.0, p / q]
    pk1, pk = 1, 0
    qk1, qk = 0, 1
    a, b = q, p
    while b:
        d, r = divmod(a, b)
        pk1, pk = pk, d * pk + pk1
        qk1, qk = qk, d * qk + qk1
        ms.append(qk)
        ds.append(abs(qk * p - pk * q) / q)
        a, b = b, r
    return np.array(ms, dtype=np.float64), np.array(ds)


def orbit_height_tail(x: ReducedFraction, M: float, dt: float) -> float:
    """Fraction of the life span [0, 2 ln q] the orbit of x spends at height >= M.

    Grid average with trapezoid end weights; the height at each grid
    time comes from the exact candidate list of short vectors, not from
    a generic reduction.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0 < dt <= 0.1:
        raise ValueError("dt must be in (0, 0.1]")
    span = 2.0 * math.log(x.q)
    n = max(1, int(math.ceil(span / dt)))
    ts = np.linspace(0.0, span, n + 1)
    ms, ds = _convergent_norm_pairs(x)
    lam2 = np.min(
        np.square(ms)[:, None] * np.exp(-ts)[None, :] + np.square(ds)[:, None] * np.exp(ts)[None, :],
        axis=0,
    )
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    return float(np.sum(w * (lam2 * M * M <= 1.0)) / np.sum(w))


def _residue_sample(q: int, sample_size: int, seed: int) -> np.ndarray:
    """The coprime residues of q, or a sorted seeded subsample of sample_size of them."""
    if sample_size < 1:
        raise ValueError("sample-size must be >= 1")
    residues = coprime_array(q)
    if residues.size > sample_size:
        rng = np.random.default_rng(seed)
        residues = np.sort(rng.choice(residues, size=sample_size, replace=False))
    return residues


def averaged_height_tail(
    q: Union[int, Modulus],
    M: float,
    dt: float = 0.05,
    sample_size: int = 2000,
    seed: int = 0,
) -> float:
    """Mean of orbit_height_tail over a seeded subsample of the coprime residues."""
    qi = _q_int(q)
    residues = _residue_sample(qi, sample_size, seed)
    vals = [orbit_height_tail(ReducedFraction(int(p), qi), M, dt) for p in residues]
    return float(np.mean(vals))


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

    The membership test m^2 e^{-t} + dist(m p/q, Z)^2 e^t <= 1/M^2 runs
    over 1 <= m <= e^{t/2}/M and the two integers nearest -m p/q.
    Comparisons use doubles with a 2^-40 relative margin and escalate to
    50-digit arithmetic on margin hits. The count is asserted against
    the bound (4/M^2) phi(q), which is exact in the hypothesis range
    0 <= t <= ln q - 2 omega(q); checked=False skips the range guard for
    exploration outside it.
    """
    qi = _q_int(q)
    if M <= 1:
        raise ValueError("M must be > 1")
    window = math.log(qi) - 2 * omega(qi)
    in_hyp = 0 <= t <= window
    if checked and not in_hyp:
        raise ValueError(f"t={t} outside the hypothesis range [0, {window:.4f}] for q={qi}")
    phi = euler_phi(qi)
    inv_m2 = 1.0 / (M * M)
    emt = math.exp(-t)
    ept = math.exp(t)
    margin = 2.0**-40
    escalations = 0
    hits: set[int] = set()

    def accept(m: int, r: int) -> bool:
        nonlocal escalations
        val = m * m * emt + (r / qi) ** 2 * ept
        if abs(val - inv_m2) > margin * inv_m2:
            return val <= inv_m2
        escalations += 1
        with mpmath.workdps(50):
            lhs = m * m * mpmath.exp(-t) + (mpmath.mpf(r) / qi) ** 2 * mpmath.exp(t)
            return lhs <= mpmath.mpf(1) / (M * M)

    m_max = int(math.exp(t / 2.0) / M)
    for m in range(1, m_max + 1):
        rad2 = (inv_m2 - m * m * emt) * emt
        if rad2 < 0:
            continue
        w_int = int(qi * math.sqrt(rad2) * (1 + 1e-12)) + 1
        g = math.gcd(m, qi)
        qg = qi // g
        inv = pow(m // g, -1, qg) if qg > 1 else 0
        for r in range(0, min(w_int, qi - 1) + 1):
            for rr in {r, qi - r} if r else {0}:
                if rr % g:
                    continue
                if rr == 0 and m % qi:
                    continue
                base = (inv * ((rr % qi) // g)) % qg if qg > 1 else 1
                for j in range(g):
                    pp = base + j * qg
                    if 0 < pp < qi and math.gcd(pp, qi) == 1 and (pp * m - rr) % qi == 0:
                        if accept(m, min(rr, qi - rr)):
                            hits.add(pp)
    count = len(hits)
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
    lattice, at most _FD_CHUNK points per call. The weights are sums of
    the trapezoid end weights 1/2 and 1, so they are exact.
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
    xs = np.empty((xf.size, n + 1))
    ys = np.empty((xf.size, n + 1))
    rows = max(1, _FD_CHUNK // (n + 1))
    for lo in range(0, xf.size, rows):
        fx, fy = _fd_points(1.0 / half, xf[lo : lo + rows, None] * half, 0.0, half)
        xs[lo : lo + rows] = fx.reshape(-1, n + 1)
        ys[lo : lo + rows] = fy.reshape(-1, n + 1)
    weights = _fd_accumulate(xs.ravel(), 1.0 / ys.ravel(), np.tile(tw, xf.size), grid)
    return FdHistogram(grid, weights, fd_cell_masses(grid))


def haar_fd_histogram(rng: np.random.Generator, n: int, grid: int = 24) -> FdHistogram:
    """Reference histogram of haar_sample points on the same cells."""
    xs, ys = haar_fd_sample(rng, n)
    weights = _fd_accumulate(xs, 1.0 / ys, np.ones(n), grid)
    return FdHistogram(grid, weights, fd_cell_masses(grid))
