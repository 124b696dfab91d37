"""Frozen bits of the fundamental-domain float path.

The digests below were taken from the scalar reduction, since removed,
that preceded the array kernel: the points of a seeded set of orbit
lattices plus boundary ties, and the fd-hist weights at criterion 07's
moduli. Any change in the order of the float operations shows up here
as a changed digest.
"""
import hashlib
import math

import numpy as np
import pytest

from cforbit import stats
from cforbit.lattice import LatticeError, _fd_points
from cforbit.stats import orbit_fd_histogram

ORBIT_POINTS_SHA256 = "415a2e46e5e59e85f02fb0e63d4bd62060bd9b01c0190df9fedbcf1013fbd222"
TIE_POINTS_SHA256 = "d8516655ec269fc1f4c503b465d14d665ad35b06efba541a14cce8e017f0c2b8"
FD_HIST_WEIGHTS_SHA256 = {
    10007: "b04697c720f4805c2edd7190494f09ed8db6a48499cdc10946e7ad2b66ae0a2f",
    1000003: "761e63b8f0422e773cd573657af5ab043811adc37009889778ee874ff4b9f99f",
}


def orbit_rows(n: int = 4000, seed: int = 20261018) -> np.ndarray:
    """Rows (a, b, c, d) of orbit lattices of random p/q, q < 10^7, at random times of their life span."""
    rng = np.random.default_rng(seed)
    q = rng.integers(2, 10**7, size=n)
    p = rng.integers(1, q)
    t = rng.uniform(0.0, 1.0, size=n) * 2.0 * np.log(q)
    half = np.exp(t / 2.0)
    return np.stack([1.0 / half, (p / q) * half, np.zeros(n), half], axis=1)


def tie_rows() -> np.ndarray:
    """Lattices whose shape lands on the boundary of the fundamental domain, and orbit ends."""
    hexa = math.sqrt(2.0 / math.sqrt(3.0))
    rows = [
        (1.0, 0.0, 0.0, 1.0),  # z = i
        (0.0, 1.0, 1.0, 0.0),  # z = i, opposite orientation
        (1.0, 0.0, 0.5, 1.0),  # x = 1/2 goes to -1/2
        (1.0, 0.0, -0.5, 1.0),  # x = -1/2 stays
        (1.0, 0.0, 1.5, 2.0),  # x = 1/2 after one T move
        (hexa, 0.0, hexa / 2.0, hexa * math.sqrt(3.0) / 2.0),  # the corner rho
        (1.0, 0.0, 0.28, 0.96),  # right arc goes to the left arc
        (1.0, 0.0, -0.28, 0.96),  # left arc stays
        (1.0, 0.0, 0.6, 0.8),  # |z| = 1 outside the strip
    ]
    for p, q in ((1, 2), (1, 3), (2, 3), (3, 4), (2, 5), (5, 8), (13, 21)):
        for t in (0.0, math.log(q), 2.0 * math.log(q)):
            e = math.exp(t / 2.0)
            rows.append((1.0 / e, (p / q) * e, 0.0, e))
    return np.array(rows)


def digest(x, y) -> str:
    pts = np.stack([np.asarray(x, dtype="<f8"), np.asarray(y, dtype="<f8")], axis=1)
    return hashlib.sha256(pts.tobytes()).hexdigest()


@pytest.mark.parametrize("rows, want", [(orbit_rows, ORBIT_POINTS_SHA256), (tie_rows, TIE_POINTS_SHA256)])
def test_points_are_frozen_in_batch_and_one_by_one(rows, want):
    r = rows()
    assert digest(*_fd_points(*r.T)) == want
    pts = [_fd_points(*row) for row in r]
    assert digest([x[0] for x, _ in pts], [y[0] for _, y in pts]) == want


def test_boundary_ties_go_left():
    x, y = _fd_points(*tie_rows()[:8].T)
    assert x.tolist() == [0.0, 0.0, -0.5, -0.5, -0.5, -0.5, -0.28, -0.28]
    assert y.tolist()[:5] == [1.0, 1.0, 1.0, 1.0, 2.0]


@pytest.mark.parametrize("q", sorted(FD_HIST_WEIGHTS_SHA256))
def test_fd_hist_weights_are_frozen(q):
    w = orbit_fd_histogram(q).weights
    assert hashlib.sha256(np.ascontiguousarray(w, dtype="<f8").tobytes()).hexdigest() == FD_HIST_WEIGHTS_SHA256[q]


@pytest.mark.parametrize("chunk", [1, 97, 1 << 20])
def test_kernel_chunk_size_changes_no_bit(monkeypatch, chunk):
    want = orbit_fd_histogram(2003, sample_size=40).weights
    monkeypatch.setattr(stats, "_FD_CHUNK", chunk)
    got = orbit_fd_histogram(2003, sample_size=40).weights
    assert got.tobytes() == want.tobytes()


def test_empty_batch_and_degenerate_bases():
    x, y = _fd_points(np.empty(0), np.empty(0), np.empty(0), np.empty(0))
    assert x.size == y.size == 0
    for row in ((1.0, 0.0, 2.0, 0.0), (0.0, 0.0, 0.0, 1.0), (math.nan, 0.0, 0.0, 1.0)):
        with pytest.raises(LatticeError):
            _fd_points(*row)


def test_orbit_peaks_of_the_end_residues_end_on_the_edge():
    # at e^{t/2} = sqrt(q) the orbits of 1/q and (q - 1)/q peak at y = q/2 with x = q/2 mod 1:
    # for odd q a tie on the edge x = +-1/2, where float noise cycles the Gauss loop without the two-cycle stop
    q = np.tile(np.arange(3, 200001, dtype=np.float64), 2)
    p = np.concatenate([np.ones(q.size // 2), q[: q.size // 2] - 1])
    e = np.sqrt(q)
    x, y = _fd_points(1.0 / e, (p / q) * e, 0.0, e)
    assert np.abs(y / (q / 2) - 1).max() < 1e-9
    assert np.abs(np.abs(x) - (q % 2) / 2).max() < 1e-9
