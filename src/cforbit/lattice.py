"""Unimodular 2D lattices: orbit points, reduction, height, duality,
fundamental-domain mapping, and Haar sampling.

A lattice is the integer row span of a 2x2 basis with |det| = 1. The
orbit of a rational x is t -> span of rows (e^{-t/2}, x e^{t/2}) and
(0, e^{t/2}); it lives near the compact part only for t in [0, 2 ln q].
Height is the reciprocal of the shortest nonzero vector length
(Euclidean norm throughout). Excursions toward the cusp are read off
the Euclid chain of p/q, run by arith._euclid_rounds, the one kernel.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .arith import _euclid_rounds, dual_residue
from .cfe import ReducedFraction

ExactMatrix = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

_MAX_REDUCE_IT = 100000  # in practice a handful of steps suffice
#: points per call of the fundamental-domain walk, which bounds its temporaries
_FD_CHUNK = 1 << 16


class LatticeError(Exception):
    pass


class SymmetryError(LatticeError):
    """Raised when the exact duality identity fails; carries the residual when there is one."""

    def __init__(self, message: str, residual: Optional[ExactMatrix] = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class LatticeBasis:
    """Row-major 2x2 float basis."""

    m: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.m, dtype=np.float64)
        if arr.shape != (2, 2):
            raise ValueError("basis must be 2x2")
        object.__setattr__(self, "m", arr)
        if abs(abs(self.det()) - 1.0) > 1e-10:
            raise ValueError(f"|det| = {abs(self.det())}, need 1 within 1e-10")

    def det(self) -> float:
        return float(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0])


def orbit_point(x: ReducedFraction, t: float) -> LatticeBasis:
    """Basis of the lattice spanned by (e^{-t/2}, x e^{t/2}) and (0, e^{t/2})."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    span = 2.0 * math.log(x.q)
    if t < -100.0 or t > span + 100.0:
        warnings.warn(f"t={t} is far outside the lifespan [0, {span:.3f}] of {x}", stacklevel=2)
    e = math.exp(t / 2.0)
    return LatticeBasis(np.array([[1.0 / e, (x.p / x.q) * e], [0.0, e]]))


def _reduce_rows_float(m: np.ndarray) -> np.ndarray:
    v1, v2 = m[0].copy(), m[1].copy()
    for _ in range(_MAX_REDUCE_IT):
        if v1 @ v1 > v2 @ v2:
            v1, v2 = v2, v1
        mu = round((v1 @ v2) / (v1 @ v1))
        if mu == 0:
            return np.array([v1, v2])
        v2 = v2 - mu * v1
    raise LatticeError("reduction did not terminate")


def reduce_basis(B: LatticeBasis) -> LatticeBasis:
    """Same lattice, basis with v1 the shortest nonzero vector and |<v1,v2>| <= |v1|^2/2."""
    if abs(abs(B.det()) - 1.0) > 1e-6:
        raise LatticeError(f"basis is near-singular or far from unimodular: |det|={abs(B.det())}")
    return LatticeBasis(_reduce_rows_float(B.m))


def height(B: LatticeBasis) -> float:
    """1 / (shortest nonzero vector length).

    For unimodular lattices this is at least (3/4)^(1/4) ~ 0.9306, with
    the hexagonal lattice extremal; it equals sqrt(y) of the
    fundamental-domain point.
    """
    R = reduce_basis(B)
    return 1.0 / math.sqrt(float(R.m[0] @ R.m[0]))


def dual_point(B: LatticeBasis) -> LatticeBasis:
    """Transpose of the inverse basis: the dual lattice."""
    a, b = B.m[0]
    c, d = B.m[1]
    det = B.det()
    return LatticeBasis(np.array([[d, -c], [-b, a]]) / det)


def verify_symmetry(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Exact witness gamma in SL2(Z) with gamma * [[1/q, p], [0, q]] = [[1, 0], [-p'/q, 1]].

    p' is the dual residue of p. The identity glues the far end of the
    orbit of p/q to the dual of the orbit start of p'/q. Returns gamma;
    raises SymmetryError with the residual if the identity fails.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    pp = dual_residue(p, q)
    num = 1 + p * pp
    if num % q != 0:
        raise SymmetryError(
            f"(1 + p*p')/q is not an integer for p={p}, q={q}",
            ((Fraction(num, q), Fraction(0)), (Fraction(0), Fraction(0))),
        )
    qp = num // q
    gamma = ((q, -p), (-pp, qp))
    det = q * qp - p * pp
    # Product comparison with denominators cleared by q: q*lhs = ((1, pq), (0, q^2))
    # and q*want = ((q, 0), (-pp, q)), so every entry stays an integer.
    prod = (
        (gamma[0][0], gamma[0][0] * p * q + gamma[0][1] * q * q),
        (gamma[1][0], gamma[1][0] * p * q + gamma[1][1] * q * q),
    )
    want = ((q, 0), (-pp, q))
    # cannot fire: q*qp - p*pp = 1 by the choice of qp, and both products then agree term by term
    if det != 1 or prod != want:  # pragma: no cover
        residual = tuple(
            tuple(Fraction(prod[i][j] - want[i][j], q) for j in range(2))
            for i in range(2)
        )
        raise SymmetryError(f"duality identity failed for p={p}, q={q}", residual)
    return gamma


def shape_point(B: LatticeBasis) -> complex:
    """Upper-half-plane shape v2/v1 of an oriented representative of the lattice."""
    m = B.m if B.det() > 0 else B.m[::-1]
    v1 = complex(m[0, 0], m[0, 1])
    v2 = complex(m[1, 0], m[1, 1])
    z = v2 / v1
    if z.imag <= 0:
        raise LatticeError("degenerate shape")
    return z


def to_fundamental_domain(B: LatticeBasis) -> tuple[float, float, str]:
    """Map the lattice shape into {|x| <= 1/2, x^2 + y^2 >= 1}.

    Returns (x, y, word); the word lists the moves applied ("T{n}" is
    x -> x - n, "S" is z -> -1/z). Boundary ties go to x = -1/2 and the
    left arc. For interior points y equals height(B)^2.
    """
    z = shape_point(reduce_basis(B))
    word = []
    for _ in range(10000):
        n = math.floor(z.real + 0.5)
        if n != 0:
            z -= n
            word.append(f"T{n}")
        r2 = z.real * z.real + z.imag * z.imag
        if r2 < 1.0 - 1e-15:
            z = -1.0 / z
            word.append("S")
            continue
        if r2 <= 1.0 + 1e-15 and z.real > 0:
            z = -1.0 / z
            word.append("S")
        if z.real == 0.5:
            z -= 1
            word.append("T1")
        return z.real, z.imag, " ".join(word)
    raise LatticeError("fundamental-domain reduction did not terminate")


def _swap_rows(m: np.ndarray, a, b, c, d) -> tuple[np.ndarray, ...]:
    """Rows (a, b), (c, d) with the two rows exchanged in the columns where m holds."""
    return np.where(m, c, a), np.where(m, d, b), np.where(m, a, c), np.where(m, b, d)


def _fd_rounds(x, y, *carry) -> Iterator[tuple[np.ndarray, ...]]:
    """The nearest-integer T/S walk of the points x + iy into the fundamental domain, one round at a time.

    Each round translates x by the nearest integer n and yields (x, y, r2, n, out, carry) over the
    live columns; out marks the columns that are done, r2 = x^2 + y^2 >= 1 - 1e-15. It then drops
    them from x, y and every carried array by one mask, and inverts the rest (z -> -1/z). The caller
    may update the carried arrays in place before the next round.
    """
    for _ in range(64):
        n = np.floor(x + 0.5)
        x = x - n
        r2 = x * x + y * y
        keep = r2 < 1.0 - 1e-15
        yield x, y, r2, n, ~keep, carry
        x, y, r2, *carry = (v[keep] for v in (x, y, r2, *carry))
        if not x.size:
            return
        x, y = -x / r2, y / r2
    # cannot fire: a point with y >= 1e-15 reaches the domain in about 20 rounds (Fibonacci ratios are worst)
    raise LatticeError("fundamental-domain reduction did not terminate")  # pragma: no cover


def _fd_words(x, y) -> list[np.ndarray]:
    """Int64 columns a, b, c, d of the words that walk the points x + iy into the fundamental domain.

    Each column is the word of _fd_rounds' walk of its own point, whatever batch it runs in.
    """
    words = [np.empty(x.size, dtype=np.int64) for _ in range(4)]
    start = (np.full(x.size, v, dtype=np.int64) for v in (1, 0, 0, 1))
    rounds = _fd_rounds(x, y, np.arange(x.size), *start)
    for k, (_, _, _, n, out, (col, a, b, c, d)) in enumerate(rounds):
        if k:  # the walk applied S, z -> -1/z, to every live column
            a[:], b[:], c[:], d[:] = -c, -d, a.copy(), b.copy()
        n = n.astype(np.int64)
        a -= n * c
        b -= n * d
        for w, v in zip(words, (a, b, c, d)):
            w[col[out]] = v[out]
    return words


def _fd_points(a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental-domain points (x, y) of the lattices with rows (a, b), (c, d), one per column.

    The arguments broadcast to one shape and the results come out flat.
    Each column goes through the float operations of a scalar Gauss
    reduction (round half to even) and the walk of _fd_rounds, in the
    same order, so its result does not depend on the batch it runs in.
    Finished columns are dropped by a keep mask after every round. Its
    callers are orbit_samples and stats.orbit_fd_histogram; the crossing
    detector walks with _fd_words.
    """
    a, b, c, d = (np.asarray(v, dtype=np.float64).ravel() for v in np.broadcast_arrays(a, b, c, d))
    size = a.size
    ra, rb, rc, rd, fx, fy = (np.empty(size) for _ in range(6))
    if not size:
        return fx, fy
    col = np.arange(size)
    n1 = a * a + b * b
    n2 = c * c + d * d
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_REDUCE_IT):
            swap = n1 > n2
            a, b, c, d = _swap_rows(swap, a, b, c, d)
            n1 = np.minimum(n1, n2)
            mu = np.round((a * c + b * d) / n1)
            if not np.isfinite(mu).all():
                raise LatticeError("basis is degenerate or not finite")
            done = mu == 0
            idx = col[done]
            ra[idx], rb[idx], rc[idx], rd[idx] = a[done], b[done], c[done], d[done]
            keep = ~done
            a, b, c, d, n1, mu, col = (v[keep] for v in (a, b, c, d, n1, mu, col))
            if not col.size:
                break
            c = c - mu * a
            d = d - mu * b
            n2 = c * c + d * d
        else:
            # cannot fire: Gauss reduction of finite rows ends in O(log of their length ratio) rounds
            raise LatticeError("reduction did not terminate")  # pragma: no cover
    a, b, c, d = _swap_rows(ra * rd - rb * rc < 0, ra, rb, rc, rd)
    den = a * a + b * b
    x = (c * a + d * b) / den
    y = (d * a - c * b) / den
    for x, y, r2, _, out, (col,) in _fd_rounds(x, y, np.arange(size)):
        idx = col[out]
        xo = x[out]
        fx[idx] = np.where((r2[out] <= 1.0 + 1e-15) & (xo > 0), -xo, xo)
        fy[idx] = y[out]
    fx[fx == 0.5] = -0.5
    return fx, fy


def _excursions(q: int | np.ndarray, ps: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The excursions of the orbits of p/q toward the cusp, one Euclid round at a time.

    q is one denominator for every p in ps, or an int64 column of them.
    Each round yields (idx, q_k, r_k, rem) over the live columns: the index
    of p in ps, the k-th continuant, the k-th Euclid divisor and remainder.
    The orbit vector (q_k e^{-t/2}, (r_k/q) e^{t/2}) is shortest at
    e^t = q q_k/r_k, where the height peaks at sqrt(q/(2 q_k r_k)), and it
    stays shorter than 1/M for 2 arccosh(q/(2 M^2 q_k r_k)) time units. By
    Legendre's theorem every primitive vector shorter than 1 is one of
    these, and a unimodular lattice holds at most one such vector up to
    sign, so the excursions above any M >= 1 are disjoint. The arrays hold
    until the next round; setting rem to 0 ends a column, as
    stats.mass_escape_count does once q_k alone is too long.
    """
    n = ps.size
    qs = np.full(n, q, dtype=np.int64)
    # q_{k+1} = d q_k + q_{k-1} is written over q_{k-1}, so the two carried
    # continuants swap roles every round
    rounds = _euclid_rounds(qs, ps, np.arange(n), np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    for k, (_, b, d, r, (idx, *pair)) in enumerate(rounds):
        qk, qk1 = pair[k & 1], pair[~k & 1]
        # hand on the columns the kernel has not parked, and take their rem back
        live = slice(None) if np.count_nonzero(b) == b.size else np.flatnonzero(b)
        rem = r[live]
        yield idx[live], qk[live], b[live], rem
        r[live] = rem
        qk1 += d * qk


def haar_fd_sample(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n shape points (x, y) with density (3/pi) dx dy / y^2 on the fundamental domain.

    Rejection from the strip y > sqrt(3)/2 (proposal y = (sqrt(3)/2)/u with
    u uniform, x uniform in [-1/2, 1/2]); acceptance rate pi/(2 sqrt 3).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    got = 0
    while got < n:
        k = max(1024, int(1.2 * (n - got)))
        x = rng.uniform(-0.5, 0.5, k)
        y = (math.sqrt(3.0) / 2.0) / rng.uniform(0.0, 1.0, k)
        keep = x * x + y * y >= 1.0
        xs.append(x[keep])
        ys.append(y[keep])
        got += int(keep.sum())
    x = np.concatenate(xs)[:n]
    y = np.concatenate(ys)[:n]
    return x, y


def haar_sample(rng: np.random.Generator) -> LatticeBasis:
    """One Haar-distributed lattice: random fundamental-domain shape, random frame angle."""
    x, y = haar_fd_sample(rng, 1)
    xf, yf = float(x[0]), float(y[0])
    theta = rng.uniform(0.0, 2.0 * math.pi)
    w1 = cmath.rect(1.0 / math.sqrt(yf), theta)
    w2 = complex(xf, yf) * w1
    return LatticeBasis(np.array([[w1.real, w1.imag], [w2.real, w2.imag]]))


def orbit_samples(
    x: ReducedFraction, dt: float, t_max: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (t, height, fd_x, fd_y) along the orbit grid t = 0, dt, ..., t_max.

    t_max defaults to the lifespan 2 ln q. The grid up to 2 ln q goes
    through _fd_points in one pass. Past it the lattice is spanned by
    q (e^{-t/2}, 0) and (s e^{-t/2}, e^{t/2}/q), s = p^{-1} mod q, so its
    point is s/q less its nearest integer, at height e^t/q^2 > 1, with the
    tie rules of _fd_points. height is sqrt(fd_y). Raises ValueError naming
    the first t whose point is not finite in float64.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    life = 2.0 * math.log(x.q)
    if t_max is None:
        t_max = life
    n = int(math.ceil(t_max / dt))
    t = np.minimum(np.arange(n + 1) * dt, t_max)
    fd_x, fd_y = np.full(t.size, np.nan), np.full(t.size, np.nan)
    with np.errstate(all="ignore"):
        e = np.exp(t / 2.0)
        # once e^t overflows, so do the squared rows in _fd_points, which may
        # then raise; those grid points stay nan and count as not finite below
        ok = np.isfinite(e * e)
        grid, late = ok & (t <= life), ok & (t > life)
        fd_x[grid], fd_y[grid] = _fd_points(1.0 / e[grid], (x.p / x.q) * e[grid], 0.0, e[grid])
        if late.any():  # then q < e^{t/2}, so q^2 is a finite float
            s = pow(x.p, -1, x.q)
            fx = (s - (2 * s + x.q) // (2 * x.q) * x.q) / x.q  # a tie s/q = 1/2 goes to -1/2
            fd_y[late] = np.exp(t[late]) / x.q**2
            fd_x[late] = np.where((fx > 0) & (fx * fx + fd_y[late] ** 2 <= 1.0 + 1e-15), -fx, fx)
    bad = ~(np.isfinite(fd_x) & np.isfinite(fd_y))
    if bad.any():
        raise ValueError(f"the orbit of {x} leaves the float range at t={t[bad][0]:.12g}")
    return t, np.sqrt(fd_y), fd_x, fd_y
