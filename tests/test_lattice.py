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
    LatticeBasis,
    LatticeError,
    SymmetryError,
    _excursions,
    _fd_points,
    _fd_words,
    dual_point,
    haar_fd_sample,
    haar_sample,
    height,
    orbit_point,
    orbit_samples,
    reduce_basis,
    shape_point,
    to_fundamental_domain,
    verify_symmetry,
)
from conftest import reduced_fractions

HEIGHT_FLOOR = (3 / 4) ** 0.25  # hexagonal lattice, the extremal case


def hexagonal_basis() -> LatticeBasis:
    a = math.sqrt(2 / math.sqrt(3))
    return LatticeBasis(np.array([[a, 0.0], [a / 2, a * math.sqrt(3) / 2]]))


def away_from_ties(gx: float, gy: float) -> bool:
    """True unless (gx, gy) lies within 1e-7 of the edges |x| = 1/2 or the arc |z| = 1."""
    return abs(abs(gx) - 0.5) > 1e-7 and abs(gx * gx + gy * gy - 1) > 1e-7


def test_basis_validation():
    with pytest.raises(ValueError):
        LatticeBasis(np.eye(3))
    with pytest.raises(ValueError):
        LatticeBasis(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_orbit_point_basics():
    x = ReducedFraction(2, 5)
    B = orbit_point(x, 0.0)
    assert B.det() == pytest.approx(1.0, abs=1e-12)
    B2 = orbit_point(x, 1.7)
    assert B2.det() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        orbit_point(x, math.inf)


def test_orbit_point_warns_far_outside_lifespan():
    with pytest.warns(UserWarning):
        orbit_point(ReducedFraction(2, 5), -150.0)


@given(reduced_fractions(), st.floats(min_value=-5.0, max_value=12.0))
def test_reduction_invariants(x, t):
    B = orbit_point(x, t)
    R = reduce_basis(B)
    n1 = float(R.m[0] @ R.m[0])
    n2 = float(R.m[1] @ R.m[1])
    assert n1 <= n2 * (1 + 1e-12)
    assert abs(float(R.m[0] @ R.m[1])) <= 0.5 * n1 * (1 + 1e-12)
    assert abs(R.det()) == pytest.approx(1.0, abs=1e-9)
    # same lattice: change of basis has integer entries and determinant +-1
    U = R.m @ np.linalg.inv(B.m)
    assert np.allclose(U, np.round(U), atol=1e-6)
    assert round(abs(float(np.linalg.det(U)))) == 1


def test_reduction_of_the_orbit_start():
    # the lattice holds (0, 1) at t = 0, so the shortest vector is no longer
    for q in range(2, 40):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                R = reduce_basis(orbit_point(ReducedFraction(p, q), 0.0))
                assert float(R.m[0] @ R.m[0]) <= 1.0 + 1e-12


def test_fundamental_domain_walk_is_continuous_at_the_orbit_start():
    # t = 0 takes the float path of every other t, so a boundary tie
    # (the orbit of 1/2 starts on the edge x = -1/2) rounds the same way
    for q in range(2, 300):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                x = ReducedFraction(p, q)
                x0, y0, w0 = to_fundamental_domain(orbit_point(x, 0.0))
                x1, y1, w1 = to_fundamental_domain(orbit_point(x, 1e-12))
                assert w0 == w1, x
                assert (x0, y0) == pytest.approx((x1, y1), abs=1e-9), x


def test_height_floor_and_hexagonal_extremal():
    assert height(hexagonal_basis()) == pytest.approx(HEIGHT_FLOOR, abs=1e-12)
    assert height(LatticeBasis(np.eye(2))) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(200):
        assert height(haar_sample(rng)) >= HEIGHT_FLOOR - 1e-9


def test_orbit_height_at_time_zero_is_at_least_one():
    # the lattice contains (0, 1) at t = 0
    for q in range(2, 40):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                assert height(orbit_point(ReducedFraction(p, q), 0.0)) >= 1.0 - 1e-12


def test_orbit_heights_can_dip_below_one():
    # x = 5/8 at t = 2.2: the shortest vector is longer than 1
    ht = height(orbit_point(ReducedFraction(5, 8), 2.2))
    assert ht < 1.0
    assert ht >= HEIGHT_FLOOR - 1e-12


def test_orbit_diverges_at_both_ends():
    qs = list(range(2, 151))
    rng = np.random.default_rng(5)
    for q in qs + [int(v) for v in rng.integers(151, 1001, size=120)]:
        ps = [p for p in range(1, q) if math.gcd(p, q) == 1]
        for p in ps if q <= 150 else [ps[int(rng.integers(len(ps)))]]:
            x = ReducedFraction(p, q)
            assert height(orbit_point(x, -10.0)) >= 10.0
            assert height(orbit_point(x, 2 * math.log(q) + 10.0)) >= 10.0


def test_dual_point_is_an_involution():
    B = orbit_point(ReducedFraction(3, 7), 1.3)
    D = dual_point(dual_point(B))
    assert np.allclose(D.m, B.m, atol=1e-12)
    E = dual_point(orbit_point(ReducedFraction(3, 7), 0.0))
    assert abs(E.det()) == pytest.approx(1.0, abs=1e-12)


def test_shape_point_is_in_the_upper_half_plane():
    z = shape_point(reduce_basis(hexagonal_basis()))
    assert z.imag > 0
    assert abs(z) == pytest.approx(1.0, abs=1e-9)


def test_fundamental_domain_output_ranges():
    for (p, q, t) in ((2, 5, 0.7), (3, 7, 2.0), (113, 355, 5.0)):
        B = orbit_point(ReducedFraction(p, q), t)
        fx, fy, word = to_fundamental_domain(B)
        assert -0.5 - 1e-12 <= fx <= 0.5
        assert fx * fx + fy * fy >= 1 - 1e-9
        assert fy == pytest.approx(height(B) ** 2, rel=1e-9)
        assert isinstance(word, str)


@given(reduced_fractions(), st.floats(min_value=0.0, max_value=14.0))
def test_float_fd_path_agrees_with_the_reference(x, t):
    e = math.exp(t / 2)
    (fx,), (fy,) = _fd_points(1.0 / e, (x.p / x.q) * e, 0.0, e)
    gx, gy, _ = to_fundamental_domain(orbit_point(x, t))
    assert fy == pytest.approx(gy, rel=1e-6)
    if away_from_ties(gx, gy):
        assert fx == pytest.approx(gx, abs=1e-6)


@given(st.lists(st.tuples(reduced_fractions(), st.floats(min_value=0.0, max_value=14.0)), min_size=2, max_size=40))
def test_batched_fd_path_equals_the_per_point_results(points):
    # columns of one batch finish in different rounds and are compacted away
    e = np.exp(np.array([t for _, t in points]) / 2)
    xf = np.array([x.p / x.q for x, _ in points])
    bx, by = _fd_points(1.0 / e, xf * e, 0.0, e)
    for i, (x, t) in enumerate(points):
        (ox,), (oy,) = _fd_points(1.0 / e[i], xf[i] * e[i], 0.0, e[i])
        assert (bx[i], by[i]) == (ox, oy)
        gx, gy, _ = to_fundamental_domain(orbit_point(x, t))
        assert by[i] == pytest.approx(gy, rel=1e-6)
        if away_from_ties(gx, gy):
            assert bx[i] == pytest.approx(gx, abs=1e-6)


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


def test_haar_sample_basis_is_unimodular():
    rng = np.random.default_rng(2)
    for _ in range(50):
        B = haar_sample(rng)
        assert abs(abs(B.det()) - 1.0) < 1e-9


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
        gx, gy, _ = to_fundamental_domain(orbit_point(x, float(t[i])))
        assert fy[i] == pytest.approx(gy, rel=1e-6)
        if away_from_ties(gx, gy):
            assert fx[i] == pytest.approx(gx, abs=1e-6)


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


def test_orbit_samples_match_the_exact_orbit():
    # against 60 digits, the array and the scalar path were both off by at most 6.2e-9
    # (absolute) and 2.9e-9 (relative in fd_y) over all 1844 grid points of 3571/10007 at dt 0.01
    x = ReducedFraction(3571, 10007)
    t, _, fx, fy = orbit_samples(x, 0.01)
    for i in range(0, t.size, 150):
        gx, gy = exact_fd_point(x.p, x.q, float(t[i]))
        assert away_from_ties(gx, gy)
        sx, sy, _ = to_fundamental_domain(orbit_point(x, float(t[i])))
        for px, py in ((fx[i], fy[i]), (sx, sy)):
            assert px == pytest.approx(gx, abs=2e-8)
            assert py == pytest.approx(gy, rel=1e-8)


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
