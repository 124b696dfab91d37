import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from cforbit.arith import coprime_array
from cforbit.cfe import ReducedFraction, cfe_digits
from cforbit.lattice import (
    LatticeError,
    SymmetryError,
    _excursions,
    _fd_points,
    _fd_words,
    haar_fd_sample,
    orbit_samples,
    verify_symmetry,
)
from conftest import reduced_fractions

HEIGHT_FLOOR = (3 / 4) ** 0.25  # hexagonal lattice, the extremal case


def exact_fd_point(p: int, q: int, t: float, dps: int = 60) -> tuple[float, float]:
    """Fundamental-domain point of the orbit of p/q at time t, reduced and walked in dps digits."""
    with mpmath.workdps(dps):
        e = mpmath.exp(mpmath.mpf(t) / 2)
        v1, v2 = (1 / e, mpmath.mpf(p) / q * e), (mpmath.mpf(0), e)

        def dot(a, b):
            return a[0] * b[0] + a[1] * b[1]

        while True:
            if dot(v1, v1) > dot(v2, v2):
                v1, v2 = v2, v1
            mu = mpmath.nint(dot(v1, v2) / dot(v1, v1))
            if mu == 0:
                break
            v2 = (v2[0] - mu * v1[0], v2[1] - mu * v1[1])
        if v1[0] * v2[1] - v1[1] * v2[0] < 0:
            v1, v2 = v2, v1
        z = mpmath.mpc(*v2) / mpmath.mpc(*v1)
        while True:
            z -= mpmath.nint(z.real)
            if abs(z) >= 1:
                return float(z.real), float(z.imag)
            z = -1 / z


def away_from_ties(gx: float, gy: float) -> bool:
    """True unless (gx, gy) lies within 1e-7 of the edges |x| = 1/2 or the arc |z| = 1."""
    return abs(abs(gx) - 0.5) > 1e-7 and abs(gx * gx + gy * gy - 1) > 1e-7


def orbit_fd_points(p, q, t) -> tuple[np.ndarray, np.ndarray]:
    """_fd_points of the orbits of p/q at times t; p, q and t broadcast to one column each."""
    e = np.exp(np.asarray(t, dtype=np.float64) / 2)
    return _fd_points(1.0 / e, np.asarray(p) / np.asarray(q) * e, 0.0, e)


def coprime_pairs(q_end: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns p, q of every reduced fraction p/q in (0, 1) with q < q_end."""
    ps = [coprime_array(q) for q in range(2, q_end)]
    return np.concatenate(ps), np.repeat(np.arange(2, q_end), [p.size for p in ps])


def test_orbit_height_at_time_zero_is_at_least_one():
    # the lattice contains (0, 1) at t = 0, so its shortest vector is no longer
    _, fy = orbit_fd_points(*coprime_pairs(40), 0.0)
    assert (fy >= 1.0 - 1e-12).all()


def test_reduction_of_the_orbit_start():
    # the 60-digit reduction of the same lattices: the shortest vector, of
    # squared length 1/fd_y, is no longer than (0, 1)
    for p, q in zip(*(c.tolist() for c in coprime_pairs(40))):
        assert 1.0 / exact_fd_point(p, q, 0.0)[1] <= 1.0 + 1e-12, (p, q)


def test_fundamental_domain_walk_is_continuous_at_the_orbit_start():
    # t = 0 takes the float path of every other t. x is compared with the
    # edges x = -1/2 and x = 1/2 identified: the orbit of 1/2 runs along the
    # edge, and the kernel lands on -0.49999999999999994 at t = 0 but on
    # 0.4999999999999999 at t = 1e-12, which its tie rule (x == 0.5 only) keeps
    ps, qs = coprime_pairs(300)
    x0, y0 = orbit_fd_points(ps, qs, 0.0)
    x1, y1 = orbit_fd_points(ps, qs, 1e-12)
    assert (np.abs((x0 - x1 + 0.5) % 1.0 - 0.5) <= 1e-9).all()
    np.testing.assert_allclose(y0, y1, rtol=0, atol=1e-9)


def test_height_floor_and_hexagonal_extremal():
    # the hexagonal lattice is the corner tie 1/2 + i sqrt(3)/2, which goes to x = -1/2
    a = math.sqrt(2 / math.sqrt(3))
    fx, fy = _fd_points([a, 1.0], 0.0, [a / 2, 0.0], [a * math.sqrt(3) / 2, 1.0])
    assert fx == pytest.approx([-0.5, 0.0], abs=1e-12)
    assert np.sqrt(fy) == pytest.approx([HEIGHT_FLOOR, 1.0], abs=1e-12)


def test_orbit_heights_can_dip_below_one():
    # x = 5/8 at t = 2.2: the shortest vector is longer than 1
    _, (fy,) = orbit_fd_points(5, 8, 2.2)
    assert HEIGHT_FLOOR - 1e-12 <= math.sqrt(fy) < 1.0


def test_orbit_diverges_at_both_ends():
    rng = np.random.default_rng(5)
    pairs = []
    for q in list(range(2, 151)) + [int(v) for v in rng.integers(151, 1001, size=120)]:
        ps = [p for p in range(1, q) if math.gcd(p, q) == 1]
        pairs += [(p, q) for p in (ps if q <= 150 else [ps[int(rng.integers(len(ps)))]])]
    ps, qs = np.array(pairs).T
    for t in (-10.0, 2 * np.log(qs) + 10.0):
        _, fy = orbit_fd_points(ps, qs, t)
        assert (fy >= 100.0).all()  # height >= 10


def test_fundamental_domain_output_ranges():
    for (p, q, t) in ((2, 5, 0.7), (3, 7, 2.0), (113, 355, 5.0)):
        (fx,), (fy,) = orbit_fd_points(p, q, t)
        assert -0.5 - 1e-12 <= fx <= 0.5
        assert fx * fx + fy * fy >= 1 - 1e-9
        assert fy == pytest.approx(exact_fd_point(p, q, t)[1], rel=1e-9)


@given(reduced_fractions(), st.floats(min_value=0.0, max_value=14.0))
def test_float_fd_path_agrees_with_the_reference(x, t):
    e = math.exp(t / 2)
    (fx,), (fy,) = _fd_points(1.0 / e, (x.p / x.q) * e, 0.0, e)
    gx, gy = exact_fd_point(x.p, x.q, t)
    assert fy == pytest.approx(gy, rel=1e-6)
    if away_from_ties(gx, gy):
        assert fx == pytest.approx(gx, abs=1e-6)


@given(st.lists(st.tuples(reduced_fractions(), st.floats(min_value=0.0, max_value=14.0)), min_size=2, max_size=40))
def test_batched_fd_path_equals_the_per_point_results(points):
    # columns of one batch finish in different rounds and are compacted away
    e = np.exp(np.array([t for _, t in points]) / 2)
    xf = np.array([x.p / x.q for x, _ in points])
    bx, by = _fd_points(1.0 / e, xf * e, 0.0, e)
    for i in range(len(points)):
        (ox,), (oy,) = _fd_points(1.0 / e[i], xf[i] * e[i], 0.0, e[i])
        assert (bx[i], by[i]) == (ox, oy)


@given(st.lists(st.tuples(reduced_fractions(), st.floats(min_value=0.0, max_value=14.0)), min_size=2, max_size=40))
def test_batched_fd_words_equal_the_per_point_words(points):
    # the detector's points x + i e^{-t}: columns of one batch end in different rounds
    x = np.array([f.p / f.q for f, _ in points])
    y = np.exp(-np.array([t for _, t in points]))
    words = np.array(_fd_words(x, y))
    for i in range(x.size):
        assert words[:, i].tolist() == np.array(_fd_words(x[i : i + 1], y[i : i + 1]))[:, 0].tolist()
    a, b, c, d = (w.tolist() for w in words)
    assert all(ai * di - bi * ci == 1 for ai, bi, ci, di in zip(a, b, c, d))


def test_haar_sample_region_and_mean_reciprocal_y():
    rng = np.random.default_rng(11)
    xs, ys = haar_fd_sample(rng, 10**6)
    assert xs.size == ys.size == 10**6
    assert np.all(np.abs(xs) <= 0.5)
    assert np.all(xs * xs + ys * ys >= 1.0)
    with mpmath.workdps(30):
        inner = mpmath.quad(
            lambda y: (1 - 2 * mpmath.sqrt(1 - y**2)) / y**3, [mpmath.sqrt(3) / 2, 1]
        )
        want = float(3 / mpmath.pi * (inner + mpmath.mpf(1) / 2))
    got = float(np.mean(1.0 / ys))
    assert abs(got - want) / want < 0.01


def test_orbit_samples_grid():
    x = ReducedFraction(2, 5)
    t, ht, fx, fy = orbit_samples(x, 0.25)
    span = 2 * math.log(5)
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(span)
    assert t.size == ht.size == fx.size == fy.size == math.ceil(span / 0.25) + 1
    assert orbit_samples(x, 0.5, t_max=1.0)[0][-1] == 1.0
    with pytest.raises(ValueError):
        orbit_samples(x, 0.0)


@given(reduced_fractions(), st.floats(min_value=0.05, max_value=1.0))
def test_orbit_samples_agree_with_the_reference_over_the_lifespan(x, dt):
    t, ht, fx, fy = orbit_samples(x, dt)
    assert np.array_equal(ht, np.sqrt(fy))
    for i in np.flatnonzero(t <= 2 * math.log(x.q)):
        gx, gy = exact_fd_point(x.p, x.q, float(t[i]))
        assert fy[i] == pytest.approx(gy, rel=1e-6)
        if away_from_ties(gx, gy):
            assert fx[i] == pytest.approx(gx, abs=1e-6)


def test_orbit_samples_match_the_exact_orbit():
    # against 60 digits, the array path was off by at most 6.2e-9 (absolute)
    # and 2.9e-9 (relative in fd_y) over all 1844 grid points of 3571/10007 at dt 0.01
    x = ReducedFraction(3571, 10007)
    t, _, fx, fy = orbit_samples(x, 0.01)
    for i in range(0, t.size, 150):
        gx, gy = exact_fd_point(x.p, x.q, float(t[i]))
        assert away_from_ties(gx, gy)
        assert fx[i] == pytest.approx(gx, abs=2e-8)
        assert fy[i] == pytest.approx(gy, rel=1e-8)


@pytest.mark.parametrize("p, q", [(1, 3), (7, 19), (2, 5), (5, 8), (3571, 10007)])
def test_orbit_rows_past_the_lifespan_are_exact(p, q):
    # 400 digits resolve the reduction out to t = 374.7, where e^{t/2} ~ 10^81
    life = 2 * math.log(q)
    for t_max in (life + 1e-9, life + 0.7, 40.0, 120.3, 374.7):
        t, ht, fx, fy = orbit_samples(ReducedFraction(p, q), 1.0, t_max)
        gx, gy = exact_fd_point(p, q, float(t[-1]), dps=400)
        assert fx[-1] == pytest.approx(gx, abs=1e-12)
        assert fy[-1] == pytest.approx(gy, rel=1e-12)
        assert ht[-1] == math.sqrt(fy[-1])


def test_orbit_rows_past_the_lifespan_keep_the_tie_rule():
    # 1/2: s/q = 1/2 lies on both sides of the domain, and x = 1/2 goes to -1/2
    t, _, fx, fy = orbit_samples(ReducedFraction(1, 2), 0.5, 5.0)
    late = t > 2 * math.log(2)
    assert late.sum() == 8 and (fx[late] == -0.5).all() and (fy[late] > 1).all()


@pytest.mark.parametrize("t_max", [400.0, 1500.0])
def test_orbit_samples_refuse_points_past_the_float_range(t_max):
    # rows past 2 ln 3 are closed-form, so at 1/3 only e^t itself overflows, first at t = 709.8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if t_max < 709.7:
            _, _, _, fy = orbit_samples(ReducedFraction(1, 3), 0.1, t_max)
            assert np.isfinite(fy).all() and fy[-1] == pytest.approx(math.exp(t_max) / 9, rel=1e-12)
        else:
            with pytest.raises(ValueError, match=r"leaves the float range at t=709\.8$"):
                orbit_samples(ReducedFraction(1, 3), 0.1, t_max)
    t, _, _, fy = orbit_samples(ReducedFraction(1, 3), 0.1, 709.7)
    assert np.isfinite(fy).all()


def test_symmetry_witness_examples():
    assert verify_symmetry(2, 5) == ((5, -2), (-2, 1))
    g = verify_symmetry(113, 355)
    assert g[0] == (355, -113)
    assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1
    with pytest.raises(ValueError):
        verify_symmetry(1, 1)


@given(st.integers(min_value=2, max_value=4000), st.integers(min_value=1, max_value=4000))
def test_symmetry_witness_is_always_exact(q, p):
    p %= q
    if p == 0 or math.gcd(p, q) != 1:
        p = 1
    g = verify_symmetry(p, q)
    assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1


def test_symmetry_error_carries_a_residual_slot():
    err = SymmetryError("synthetic", ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))))
    assert err.residual[0][0] == 1
    assert SymmetryError("no witness").residual is None
    assert issubclass(SymmetryError, LatticeError)


def _chains(q, ps, cap=None):
    """Per column of ps, the (q_k, r_k) of every round of _excursions; a column ends early once q_k > cap."""
    chains = [[] for _ in range(ps.size)]
    for idx, qk, rk, rem in _excursions(q, ps):
        for i, a, b in zip(idx.tolist(), qk.tolist(), rk.tolist()):
            chains[i].append((a, b))
        if cap is not None:
            rem[qk > cap] = 0
    return chains


def _dropping_chains(q, ps, cap):
    """The reference of _chains: the Euclid rounds with ended columns dropped every round."""
    chains = [[] for _ in range(ps.size)]
    a, b, idx = q.copy(), ps.copy(), np.arange(ps.size)
    qk, qk1 = np.ones_like(ps), np.zeros_like(ps)
    while b.size:
        d, r = np.divmod(a, b)
        for i, x, y in zip(idx.tolist(), qk.tolist(), b.tolist()):
            chains[i].append((x, y))
        r[qk > cap] = 0
        keep = r > 0
        a, b, idx, qk, qk1 = b[keep], r[keep], idx[keep], (d * qk + qk1)[keep], qk[keep]
    return chains


@given(
    qs=st.lists(st.integers(min_value=2, max_value=400), min_size=1, max_size=8),
    cap=st.integers(min_value=1, max_value=500),
)
def test_excursions_hand_on_the_live_columns_of_the_parking_kernel(qs, cap):
    ps = [coprime_array(q) for q in qs]
    column = np.repeat(np.array(qs, dtype=np.int64), [p.size for p in ps])
    ps = np.concatenate(ps)
    assert _chains(column, ps, cap) == _dropping_chains(column, ps, cap)
    assert _chains(column, ps) == _dropping_chains(column, ps, max(qs))


@pytest.mark.parametrize("q", [2, 97, 360, 10007])
def test_excursions_cast_any_integer_column_to_int64(q):
    ps = coprime_array(q)
    # (idx, q_k, r_k) of every round, copied: the kernel updates its columns in place
    rounds64, rounds32 = (
        [tuple(v.copy() for v in rnd[:3]) for rnd in _excursions(q, p)] for p in (ps, ps.astype(np.int32))
    )
    assert len(rounds32) == len(rounds64)
    for got, want in zip(rounds32, rounds64):
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)


def test_excursions_take_one_q_or_a_column():
    qs = (2, 7, 30, 101, 360)
    ps = [coprime_array(q) for q in qs]
    column = np.repeat(np.array(qs, dtype=np.int64), [p.size for p in ps])
    assert _chains(column, np.concatenate(ps)) == [c for q, p in zip(qs, ps) for c in _chains(q, p)]
    # q_k are the continuants of the digits of p/q and r_k its Euclid divisors p, q mod p, ...; q_k r_k <= q
    for q, p in zip(qs, ps):
        for x, chain in zip(p.tolist(), _chains(q, p)):
            digits = cfe_digits(ReducedFraction(x, q)).digits
            cont, prev = [1], 0
            for d in digits[:-1]:
                cont, prev = cont + [d * cont[-1] + prev], cont[-1]
            assert [a for a, _ in chain] == cont
            assert chain[0][1] == x and all(a * b <= q for a, b in chain)
