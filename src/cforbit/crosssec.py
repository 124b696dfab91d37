"""Cross-section of the geodesic flow on the space of lattices.

The section is parametrized by (y, z, eps) with 0 < y < 1 and
0 < z <= 1/(1+y); y and z are the forward endpoint distance and the
reciprocal endpoint gap of the crossing geodesic, eps the side it
crosses from. The return map acts as the Gauss map on y, so rational
orbits reach the section finitely many times and the y-itinerary is
the continued-fraction orbit of the first y.

Section points are exact: y and z are Fractions, and a point refuses a
coordinate of any other type. Crossing times are the only floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .cfe import ReducedFraction
from .lattice import _FD_CHUNK, _fd_words

#: largest modulus the numeric detector accepts (see detect_events_numeric)
_DETECT_Q_MAX = 10**7
#: the detector walks every _WALK_STRIDE-th grid point first (see _grid_words)
_WALK_STRIDE = 32


class DegenerateStartError(ValueError):
    """The orbit of x touches the section too early or never cleanly: x = 1/n or 1 - 1/n."""


class SectionDomainError(RuntimeError):
    """Internal invariant z <= 1/(1+y) violated; indicates a bug, not bad input."""


@dataclass(frozen=True)
class CrossSectionPoint:
    y: Fraction
    z: Fraction
    eps: int

    def __post_init__(self) -> None:
        if self.eps not in (-1, 1):
            raise ValueError("eps must be +1 or -1")
        y, z = self.y, self.z
        if not (isinstance(y, Fraction) and isinstance(z, Fraction)):
            raise TypeError(f"section coordinates must be Fractions, not ({y!r}, {z!r})")
        if not (0 < y < 1 and 0 < z and z * (1 + y) <= 1):
            raise ValueError(f"({y}, {z}) outside the section domain")


@dataclass(frozen=True)
class CrossingRecord:
    point: CrossSectionPoint
    t: float


def _log(v: Fraction) -> float:
    return math.log(v.numerator) - math.log(v.denominator)


def _s(pt: CrossSectionPoint) -> float:
    """Half-log of (z/y)(1 - yz); the time offset of the section point within its crossing."""
    arg = (pt.z / pt.y) * (1 - pt.y * pt.z)
    return 0.5 * _log(arg)


def first_crossing(x: ReducedFraction) -> CrossSectionPoint:
    """First section point on the orbit of x: (T(x), x, -1) for x < 1/2, (T(1-x), 1-x, +1) for x > 1/2.

    Rejects x = 1/n and x = 1 - 1/n (p = 1 or q - p = 1): those orbits
    start on or beyond the section and have no clean first crossing.
    """
    p, q = x.p, x.q
    if p == 1 or q - p == 1:
        raise DegenerateStartError(f"{x} is of the form 1/n or 1-1/n")
    if 2 * p > q:
        p = q - p
    y = Fraction(q % p, p)
    return CrossSectionPoint(y, Fraction(p, q), -1 if 2 * x.p < x.q else 1)


def return_map(pt: CrossSectionPoint) -> Optional[CrossSectionPoint]:
    """One section return: (y, z, eps) -> (T(y), y(1 - yz), -eps); None once T(y) = 0."""
    y, z = pt.y, pt.z
    a, b = y.numerator, y.denominator
    if a == 1:
        return None
    y2 = Fraction(b % a, a)
    z2 = y * (1 - y * z)
    if z2 * (1 + y2) > 1:
        raise SectionDomainError(f"return of ({y}, {z}) left the domain")
    return CrossSectionPoint(y2, z2, -pt.eps)


def return_time(pt: CrossSectionPoint) -> float:
    """Flow time to the next crossing: -2 ln y - s(y,z) + s(y',z')."""
    nxt = return_map(pt)
    if nxt is None:
        raise ValueError("orbit leaves the section forever; no return time")
    return -2.0 * _log(pt.y) - _s(pt) + _s(nxt)


def crossing_sequence(x: ReducedFraction) -> list[CrossingRecord]:
    """All section crossings of the orbit of x, with absolute flow times.

    The first time is s(y1,z1) - 2 ln z1; subsequent times accumulate
    return_time. The y-itinerary is the Gauss orbit of y1 and the count
    is len(x)-1 for x < 1/2, len(x)-2 for x > 1/2.
    """
    cur = first_crossing(x)
    s_cur = _s(cur)
    t = s_cur - 2.0 * _log(cur.z)
    records = [CrossingRecord(cur, t)]
    while True:
        nxt = return_map(cur)
        if nxt is None:
            return records
        s_nxt = _s(nxt)
        t += -2.0 * _log(cur.y) - s_cur + s_nxt
        records.append(CrossingRecord(nxt, t))
        cur, s_cur = nxt, s_nxt


@dataclass(frozen=True)
class NumericEvent:
    """One axis crossing found by the numeric detector.

    Endpoints are exact rationals, so the section membership test has no
    tolerance. boundary marks the structural graze with |alpha| = 1
    exactly (backward endpoint on a corner cusp); every orbit shows one
    on entry, and grazes are not counted as section crossings.
    """

    t: float
    point: CrossSectionPoint
    boundary: bool


def _classify_event(a: int, b: int, c: int, d: int, p: int, q: int) -> Optional[tuple[CrossSectionPoint, bool]]:
    """Section test for exact endpoints alpha = gamma(inf), omega = gamma(p/q) of one representative.

    The endpoint inequalities are integer comparisons; Fractions are built for an accepted event only.
    """
    wnum, wden = a * p + b * q, c * p + d * q
    if c == 0 or wden == 0:
        return None
    if c < 0:
        a, c = -a, -c
    if wden < 0:
        wnum, wden = -wnum, -wden
    if a <= -c and 0 < wnum < wden:
        eps = 1
    elif a >= c and -wden < wnum < 0:
        eps = -1
    else:
        return None
    alpha, omega = Fraction(a, c), Fraction(wnum, wden)
    pt = CrossSectionPoint(abs(omega), 1 / abs(omega - alpha), eps)
    return pt, abs(a) == c


def _grid_words(xf: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Words of the grid points xf + i u as int64 rows a, b, c, d, and each point's owner column.

    Walks every _WALK_STRIDE-th point and the last one with _fd_words. A
    stretch whose two walked ends carry the identical word lends it to every
    point between: the cell gamma^-1 F is geodesically convex, so the vertical
    geodesic meets it in one interval. The inner points of every other
    stretch are walked in one more call. A point's owner word is then its own
    walked word up to sign, which leaves the Moebius map unchanged.
    """
    step = np.arange(u.size - 1)
    ends = np.append(step[::_WALK_STRIDE], u.size - 1)
    words = np.stack(_fd_words(np.full(ends.size, xf), u[ends]))
    same = (words[:, 1:] == words[:, :-1]).all(axis=0)
    owner = np.append(step // _WALK_STRIDE, ends.size - 1)
    inner = step[~same[owner[:-1]] & (step % _WALK_STRIDE > 0)]
    owner[inner] = ends.size + np.arange(inner.size)
    words = np.concatenate([words, np.stack(_fd_words(np.full(inner.size, xf), u[inner]))], axis=1)
    return words, owner


def detect_events_numeric(x: ReducedFraction, dt: float) -> list[NumericEvent]:
    """All section-set touches of the orbit of x, found on a time grid of the geodesic.

    The grid is the points xf + i e^{-i dt}, 0 <= i <= (2 ln q + 0.25)/dt, of
    the vertical geodesic ending at x, in chunks of lattice._FD_CHUNK points
    that overlap by one. Each point gets the unimodular word gamma_i that
    walks it from the identity into the fundamental domain (lattice._fd_words).
    Only every _WALK_STRIDE-th point of a chunk and its last are walked at
    first: each cell gamma^-1 F is geodesically convex, so the geodesic meets
    it in one interval, and a stretch whose two walked ends carry the same
    word carries it throughout. The points of every other stretch are walked
    too (_grid_words). A sign change of Re(gamma_{i-1}(point)) between steps
    i-1 and i flags a candidate; it counts when the exact rational endpoints
    of gamma_{i-1} (or of S gamma_{i-1}, the other representative on the unit
    circle) satisfy the section's endpoint inequalities, and the reported
    time is the closed-form root of Re = 0, not the step time. Events on the
    exact domain boundary are returned flagged, never dropped silently.

    Accepts any 0 < x < 1 with q <= 10^7, including the degenerate starts;
    x = 1/2 yields no crossings. The grid ends at u ~ 0.78/q^2, which must
    stay far above the ~1e-16 float error of p/q; past q ~ 10^8 crossings
    are silently lost, so larger q raise ValueError. Used as an oracle for
    crossing_sequence.
    """
    if not 0 < dt <= 1e-3:
        raise ValueError("dt must be in (0, 1e-3]")
    p, q = x.p, x.q
    if q > _DETECT_Q_MAX:
        raise ValueError(f"q must be <= {_DETECT_Q_MAX}: the float grid cannot resolve the end of the orbit")
    xf = p / q
    n_steps = int(math.ceil((2.0 * math.log(q) + 0.25) / dt))
    events: list[NumericEvent] = []
    for lo in range(0, n_steps, _FD_CHUNK - 1):
        u = np.exp(-np.arange(lo, min(lo + _FD_CHUNK - 1, n_steps) + 1) * dt)
        # Below _DETECT_Q_MAX the word entries stay near q, so B = a c stays
        # below about q^2 and the int64 columns cannot overflow.
        words, owner = _grid_words(xf, u)
        a, b, c, d = words
        # the numerator of Re(gamma(xf + i u)) is A + B u u, with the float
        # operations of the Moebius image; its denominator is positive
        w = owner[:-1]
        A, B = ((a * xf + b) * (c * xf + d))[w], (a * c)[w]
        u0, u1 = u[:-1], u[1:]
        flagged = w[(A + B * u0 * u0) * (A + B * u1 * u1) < 0.0]
        for a0, b0, c0, d0 in words[:, flagged].T.tolist():
            for ha, hb, hc, hd in ((a0, b0, c0, d0), (-c0, -d0, a0, b0)):
                got = _classify_event(ha, hb, hc, hd, p, q)
                if got is None:
                    continue
                u2 = -Fraction((ha * p + hb * q) * (hc * p + hd * q), ha * hc * q * q)
                if u2 > 0:
                    tc = -0.5 * (math.log(u2.numerator) - math.log(u2.denominator))
                    # one crossing can flag under both gamma and S gamma on
                    # adjacent steps; their closed-form times are identical
                    if not events or tc != events[-1].t:
                        events.append(NumericEvent(tc, got[0], got[1]))
                break
    return events


def detect_crossings_numeric(x: ReducedFraction, dt: float) -> list[float]:
    """Crossing times only: detect_events_numeric with boundary grazes filtered out."""
    return [e.t for e in detect_events_numeric(x, dt) if not e.boundary]


def kappa_quadrature() -> float:
    """The section-measure normalizing constant: reciprocal of -4 * integral of ln(y)/(1+y) on (0,1)."""
    import mpmath  # the one use of mpmath in cforbit, so import cforbit does not load it

    with mpmath.workdps(30):
        integral = mpmath.quad(lambda y: mpmath.log(y) / (1 + y), [0, 1])
        return float(-1 / (4 * integral))


def sample_section(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n points of the return map's stationary measure: uniform on the (y, z) domain, fair sign.

    The y-marginal has density 1/((1+y) ln 2); z is uniform on
    (0, 1/(1+y)] given y.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    y = np.exp2(rng.uniform(0.0, 1.0, n)) - 1.0
    z = rng.uniform(0.0, 1.0, n) / (1.0 + y)
    eps = rng.choice((-1, 1), n)
    return y, z, eps


def mean_return_time(rng: np.random.Generator, n: int) -> float:
    """Monte Carlo mean of the return time under the stationary section measure."""
    y, z, _ = sample_section(rng, n)
    f = 1.0 / y
    y2 = f - np.floor(f)
    ok = y2 > 0
    y, z, y2 = y[ok], z[ok], y2[ok]
    z2 = y * (1.0 - y * z)
    s1 = 0.5 * np.log((z / y) * (1.0 - y * z))
    s2 = 0.5 * np.log((z2 / y2) * (1.0 - y2 * z2))
    return float(np.mean(-2.0 * np.log(y) - s1 + s2))
