"""Unimodular 2D lattices: orbit points in the fundamental domain, the
exact duality witness, excursions toward the cusp, and Haar sampling.

A lattice is the integer row span of a 2x2 basis with |det| = 1. The
orbit of a rational x is t -> span of rows (e^{-t/2}, x e^{t/2}) and
(0, e^{t/2}); it lives near the compact part only for t in [0, 2 ln q].
Height is the reciprocal of the shortest nonzero vector length
(Euclidean norm throughout). Orbit points go through one float64 array
kernel, _fd_points. Excursions toward the cusp are read off the Euclid
chain of p/q, run by arith._euclid_rounds, the one kernel.
"""
from __future__ import annotations

import math
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
    Each column is Gauss-reduced: the shorter row, times the projection
    of the other onto it rounded half to even, is taken from the longer
    until that projection rounds to 0, or until a step would undo the
    last with no swap between (a tie |w| = |w - u|, where float noise
    would step +1, -1, ... for ever: the two-cycle stop). The pair is then
    oriented and its shape walked by _fd_rounds into {|x| <= 1/2,
    x^2 + y^2 >= 1}. Ties go left by the walk's two rules: each translate
    x - floor(x + 1/2) is below 1/2, and a point within 1e-15 of the unit
    circle with x > 0 is reflected to -x. An edge x a few ulps short of
    1/2 escapes both: 1/2 at t = 0.1 and 1.35 prints as fd_x = 0.5 and
    falls in a histogram's rightmost x cell (ROADMAP item 2 fixes it).
    y is the squared height, so at least sqrt(3)/2, the hexagonal
    lattice's. Every column takes the same float operations in the same
    order, so its result does not depend on the batch it runs in. Finished
    columns are dropped by a keep mask after every round. Its callers are
    orbit_samples and stats.orbit_fd_histogram; the crossing detector
    walks a stride of its grid with _fd_words and lends each walked word
    to the points between two equal ones.
    """
    a, b, c, d = (np.asarray(v, dtype=np.float64).ravel() for v in np.broadcast_arrays(a, b, c, d))
    size = a.size
    ra, rb, rc, rd, fx, fy = (np.empty(size) for _ in range(6))
    col = np.arange(size)
    n1 = a * a + b * b
    n2 = c * c + d * d
    last = np.zeros(size)  # each live column's last multiplier; a swap since voids it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_REDUCE_IT):
            swap = n1 > n2
            a, b, c, d = _swap_rows(swap, a, b, c, d)
            n1 = np.minimum(n1, n2)
            mu = np.round((a * c + b * d) / n1)
            if not np.isfinite(mu).all():
                raise LatticeError("basis is degenerate or not finite")
            done = (mu == 0) | ((mu == -last) & ~swap)
            idx = col[done]
            ra[idx], rb[idx], rc[idx], rd[idx] = a[done], b[done], c[done], d[done]
            keep = ~done
            a, b, c, d, n1, mu, col = (v[keep] for v in (a, b, c, d, n1, mu, col))
            if not col.size:
                break
            c = c - mu * a
            d = d - mu * b
            n2 = c * c + d * d
            last = mu
        else:
            # finite rows reduce in O(log of their length ratio) rounds; the two-cycle stop ends a tie
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
    return fx, fy


def _excursions(q: int | np.ndarray, ps: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The excursions of the orbits of p/q toward the cusp, one Euclid round at a time.

    q is one denominator for every p in ps, or an int64 column of them;
    ps may be any integer column, and every yielded column is int64.
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
    ps = np.asarray(ps, dtype=np.int64)
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


def _grid_steps(span: float, dt: float) -> int:
    """ceil(span / dt), the step count of a time grid; ValueError naming dt for one numpy cannot index."""
    steps = span / dt
    if not steps < np.iinfo(np.intp).max:
        raise ValueError(f"dt={dt} gives {steps:.3g} grid steps over t <= {span:.6g}, more than numpy can index")
    return int(math.ceil(steps))


def orbit_samples(
    x: ReducedFraction, dt: float, t_max: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (t, height, fd_x, fd_y) along the orbit grid t = 0, dt, ..., t_max.

    t_max defaults to the lifespan 2 ln q. The grid up to 2 ln q goes
    through _fd_points in one pass. Past it the lattice is spanned by
    q (e^{-t/2}, 0) and (s e^{-t/2}, e^{t/2}/q), s = p^{-1} mod q, so its
    point is s/q less its nearest integer, at height e^t/q^2 > 1, with the
    tie rules of _fd_points. height is sqrt(fd_y). Raises ValueError for a
    dt that is not finite and positive, a t_max that is not finite and
    >= 0, a grid too long for numpy to index (naming dt), and naming the
    first t whose point is not finite in float64.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if t_max is not None and not 0 <= t_max < math.inf:
        raise ValueError(f"t_max must be None or finite and >= 0, got {t_max}")
    life = 2.0 * math.log(x.q)
    if t_max is None:
        t_max = life
    n = _grid_steps(t_max, dt)
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
