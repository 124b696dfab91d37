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

from cforbit import crosssec
from cforbit.cfe import ReducedFraction
from cforbit.crosssec import detect_events_numeric

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


@pytest.mark.parametrize("chunk", [2, 97, 1 << 20])
def test_chunk_size_changes_no_event(monkeypatch, chunk):
    cases = [ReducedFraction(5, 8), ReducedFraction(1, 5), ReducedFraction(2, 9)]
    if chunk > 2:
        cases += [ReducedFraction(113, 355), ReducedFraction(5702887, 9227465)]
    want = [events(x, 1e-3) for x in cases]
    monkeypatch.setattr(crosssec, "_FD_CHUNK", chunk)
    assert [events(x, 1e-3) for x in cases] == want
