"""Frozen event lists of the numeric crossing detector.

The digests below were taken from the scalar march that preceded the
array walk: criterion 06's orbits at two time steps and every degenerate
start. Each event enters as (repr(t), y, z, eps, boundary), so a changed
time bit, section point or boundary flag shows up as a changed digest.
"""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cforbit import crosssec
from cforbit.cfe import ReducedFraction
from cforbit.crosssec import _WALK_STRIDE, _grid_words, detect_events_numeric
from cforbit.lattice import _fd_words
from conftest import reduced_fractions

CRITERION_06_SHA256 = "b8d5d87657b9d032f2c0f1983b9ae19963be01128b0f281d7865bb6a7deb90e0"
FINE_STEP_SHA256 = "e024debca390440b344d92ae2163a162deccbea84678a269a567f26abe458388"
DEGENERATE_SHA256 = "b70af385576e74fa5cedf2ded4aa2ddc3fabfe1d326dae82d3773f812b6abaab"


def criterion_06_orbits() -> list[ReducedFraction]:
    """Criterion 06's draw: 500 fractions p/q, q in [5, 10^4], p in [2, q-2]."""
    rng = np.random.default_rng(20250817)
    out = []
    while len(out) < 500:
        q = int(rng.integers(5, 10**4 + 1))
        p = int(rng.integers(2, q - 1))
        if math.gcd(p, q) == 1:
            out.append(ReducedFraction(p, q))
    return out


def degenerate_starts() -> list[ReducedFraction]:
    """1/2, and 1/n and 1 - 1/n for 3 <= n < 200."""
    out = [ReducedFraction(1, 2)]
    for n in range(3, 200):
        out += [ReducedFraction(1, n), ReducedFraction(n - 1, n)]
    return out


def events(x: ReducedFraction, dt: float) -> list[tuple]:
    return [(repr(e.t), e.point.y, e.point.z, e.point.eps, e.boundary) for e in detect_events_numeric(x, dt)]


def digest(orbits, dt: float) -> str:
    h = hashlib.sha256()
    for x in orbits:
        h.update(repr(events(x, dt)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "orbits, dt, want",
    [
        (criterion_06_orbits, 1e-3, CRITERION_06_SHA256),
        (lambda: criterion_06_orbits()[:50], 4e-4, FINE_STEP_SHA256),
        (degenerate_starts, 1e-3, DEGENERATE_SHA256),
    ],
    ids=["criterion-06", "fine-step", "degenerate"],
)
def test_event_lists_are_frozen(orbits, dt, want):
    assert digest(orbits(), dt) == want


# chunks of _WALK_STRIDE + 0, 1, 2 points end inside a stretch of the stride walk
@pytest.mark.parametrize("chunk", [2, _WALK_STRIDE, _WALK_STRIDE + 1, _WALK_STRIDE + 2, 97, 1 << 20])
def test_chunk_size_changes_no_event(monkeypatch, chunk):
    cases = [ReducedFraction(5, 8), ReducedFraction(1, 5), ReducedFraction(2, 9)]
    if chunk > 2:
        cases += [ReducedFraction(113, 355), ReducedFraction(5702887, 9227465)]
    want = [events(x, 1e-3) for x in cases]
    monkeypatch.setattr(crosssec, "_FD_CHUNK", chunk)
    assert [events(x, 1e-3) for x in cases] == want


def grid(x: ReducedFraction, dt: float) -> np.ndarray:
    """The detector's u = e^{-i dt} over its whole grid, 0 <= i <= (2 ln q + 0.25)/dt."""
    return np.exp(-np.arange(math.ceil((2.0 * math.log(x.q) + 0.25) / dt) + 1) * dt)


@settings(max_examples=100)
@given(x=reduced_fractions(max_q=10**4), dt=st.floats(1e-4, 1e-3))
@example(x=ReducedFraction(760940, 3000017), dt=1e-3)
@example(x=ReducedFraction(5669773, 9999991), dt=1e-3)
@example(x=ReducedFraction(5702887, 9227465), dt=1e-3)
@example(x=ReducedFraction(3008, 8271), dt=1e-3)  # 204 word changes
@example(x=ReducedFraction(1, 97), dt=1e-3)
@example(x=ReducedFraction(96, 97), dt=1e-3)
@example(x=ReducedFraction(1, 9999991), dt=1e-4)
@example(x=ReducedFraction(9999990, 9999991), dt=1e-4)
def test_owner_word_is_the_word_of_the_point_walked_alone(x, dt):
    # The geodesic of 1/2 runs along the edge Re = 1/2 of F, where the walk of
    # a point alone picks gamma or T gamma by float noise; its events are
    # frozen in DEGENERATE_SHA256. No other 0 < x < 1 lies on a cell edge.
    assume(x.q > 2)
    u = grid(x, dt)
    xf = x.p / x.q
    words, owner = _grid_words(xf, u)
    got = words[:, owner]
    alone = np.stack(_fd_words(np.full(u.size, xf), u))
    assert ((got == alone).all(axis=0) | (got == -alone).all(axis=0)).all()


def test_stride_walk_visits_a_fifth_of_the_grid(monkeypatch):
    walked = 0

    def counted(x, y):
        nonlocal walked
        walked += x.size
        return _fd_words(x, y)

    monkeypatch.setattr(crosssec, "_fd_words", counted)
    orbits = criterion_06_orbits()
    for x in orbits:
        detect_events_numeric(x, 1e-3)
    # one chunk per orbit at dt = 1e-3, so the grid points are the chunk points
    assert walked <= sum(grid(x, 1e-3).size for x in orbits) / 5
