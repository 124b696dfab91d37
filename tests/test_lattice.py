import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from cforbit.cfe import ReducedFraction
from cforbit.lattice import (
    LatticeBasis,
    LatticeError,
    SymmetryError,
    _fd_points,
    dual_point,
    fd_point_floats,
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


def test_basis_validation():
    with pytest.raises(ValueError):
        LatticeBasis(np.eye(3))
    with pytest.raises(ValueError):
        LatticeBasis(np.array([[2.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        LatticeBasis(np.eye(2), ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))


def test_orbit_point_basics():
    x = ReducedFraction(2, 5)
    B = orbit_point(x, 0.0)
    assert B.exact is not None
    assert B.det() == pytest.approx(1.0, abs=1e-12)
    B2 = orbit_point(x, 1.7)
    assert B2.exact is None
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


def test_exact_reduction_of_the_orbit_start():
    R = reduce_basis(orbit_point(ReducedFraction(2, 5), 0.0))
    assert R.exact is not None
    n2 = R.exact[0][0] ** 2 + R.exact[0][1] ** 2
    assert n2 <= Fraction(1)  # (0,1) or shorter must win at t = 0


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
    assert E.exact is not None
    assert abs(E.exact[0][0] * E.exact[1][1] - E.exact[0][1] * E.exact[1][0]) == 1


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
    fx, fy = fd_point_floats(1.0 / e, (x.p / x.q) * e, 0.0, e)
    gx, gy, _ = to_fundamental_domain(orbit_point(x, t))
    assert fy == pytest.approx(gy, rel=1e-6)
    # x is only pinned away from the boundary ties
    if abs(abs(gx) - 0.5) > 1e-7 and abs(gx * gx + gy * gy - 1) > 1e-7:
        assert fx == pytest.approx(gx, abs=1e-6)


@given(st.lists(st.tuples(reduced_fractions(), st.floats(min_value=0.0, max_value=14.0)), min_size=2, max_size=40))
def test_batched_fd_path_equals_the_per_point_results(points):
    # columns of one batch finish in different rounds and are compacted away
    e = np.exp(np.array([t for _, t in points]) / 2)
    xf = np.array([x.p / x.q for x, _ in points])
    bx, by = _fd_points(1.0 / e, xf * e, 0.0, e)
    for i, (x, t) in enumerate(points):
        assert (bx[i], by[i]) == fd_point_floats(1.0 / e[i], xf[i] * e[i], 0.0, e[i])
        gx, gy, _ = to_fundamental_domain(orbit_point(x, t))
        assert by[i] == pytest.approx(gy, rel=1e-6)
        if abs(abs(gx) - 0.5) > 1e-7 and abs(gx * gx + gy * gy - 1) > 1e-7:
            assert bx[i] == pytest.approx(gx, abs=1e-6)


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
    samples = orbit_samples(x, 0.25)
    span = 2 * math.log(5)
    assert samples[0].t == 0.0
    assert samples[-1].t == pytest.approx(span)
    assert len(samples) == math.ceil(span / 0.25) + 1
    for s in samples[:: len(samples) // 4]:
        assert s.height == pytest.approx(height(orbit_point(x, s.t)), rel=1e-9)
        assert s.fd_point[1] == pytest.approx(s.height**2, rel=1e-9)
    short = orbit_samples(x, 0.5, t_max=1.0)
    assert short[-1].t == 1.0
    with pytest.raises(ValueError):
        orbit_samples(x, 0.0)


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
