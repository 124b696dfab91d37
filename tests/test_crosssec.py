import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from cforbit.cfe import ReducedFraction, cfe_len
from cforbit.crosssec import (
    CrossSectionPoint,
    DegenerateStartError,
    SectionDomainError,
    crossing_sequence,
    detect_crossings_numeric,
    detect_events_numeric,
    first_crossing,
    kappa_quadrature,
    mean_return_time,
    return_map,
    return_time,
    sample_section,
)
from conftest import reduced_fractions


def exit_offset(pt: CrossSectionPoint) -> float:
    # time from the last crossing to the far cusp: -2 ln y - s(y, z)
    y, z = float(pt.y), float(pt.z)
    return -2.0 * math.log(y) - 0.5 * math.log((z / y) * (1.0 - y * z))


def test_point_validation():
    with pytest.raises(ValueError):
        CrossSectionPoint(Fraction(1, 2), Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        CrossSectionPoint(Fraction(3, 2), Fraction(1, 3), 1)
    with pytest.raises(ValueError):
        CrossSectionPoint(Fraction(1, 2), Fraction(0), 1)
    # z <= 1/(1+y) is a hard wall, with no tolerance
    with pytest.raises(ValueError):
        CrossSectionPoint(Fraction(1, 2), Fraction(2, 3) + Fraction(1, 10**9), 1)
    # section points are Fractions only; a float is refused, inside the domain or not
    for y, z in ((0.5, 0.67), (0.5, 0.5), (Fraction(1, 2), 0.5)):
        with pytest.raises(TypeError):
            CrossSectionPoint(y, z, -1)


def test_first_crossing_examples():
    pt = first_crossing(ReducedFraction(2, 5))
    assert (pt.y, pt.z, pt.eps) == (Fraction(1, 2), Fraction(2, 5), -1)
    pt = first_crossing(ReducedFraction(3, 5))
    assert (pt.y, pt.z, pt.eps) == (Fraction(1, 2), Fraction(2, 5), 1)
    pt = first_crossing(ReducedFraction(5, 8))
    assert (pt.y, pt.z, pt.eps) == (Fraction(2, 3), Fraction(3, 8), 1)
    for bad in ((1, 3), (2, 3), (1, 7), (9, 10)):
        with pytest.raises(DegenerateStartError):
            first_crossing(ReducedFraction(*bad))


def test_return_map_examples():
    nxt = return_map(CrossSectionPoint(Fraction(2, 5), Fraction(1, 3), 1))
    assert (nxt.y, nxt.z, nxt.eps) == (Fraction(1, 2), Fraction(26, 75), -1)
    nxt = return_map(CrossSectionPoint(Fraction(2, 5), Fraction(2, 5), -1))
    assert (nxt.y, nxt.z, nxt.eps) == (Fraction(1, 2), Fraction(42, 125), 1)
    assert return_map(CrossSectionPoint(Fraction(1, 2), Fraction(1, 3), 1)) is None
    assert return_map(CrossSectionPoint(Fraction(1, 7), Fraction(1, 3), -1)) is None


def test_return_time_against_high_precision():
    pt = CrossSectionPoint(Fraction(2, 5), Fraction(1, 3), 1)
    got = return_time(pt)
    with mpmath.workdps(50):
        y, z = mpmath.mpf(2) / 5, mpmath.mpf(1) / 3
        y2, z2 = mpmath.mpf(1) / 2, mpmath.mpf(26) / 75
        want = float(
            -2 * mpmath.log(y)
            - mpmath.log((z / y) * (1 - y * z)) / 2
            + mpmath.log((z2 / y2) * (1 - y2 * z2)) / 2
        )
    assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        return_time(CrossSectionPoint(Fraction(1, 2), Fraction(1, 3), 1))


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda v: 0 < v < 1),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda v: v > 0),
)
def test_return_time_is_positive(y, u):
    z = u / (1 + y)  # so 0 < z <= 1/(1+y)
    pt = CrossSectionPoint(y, z, 1)
    if return_map(pt) is not None:
        assert return_time(pt) > 0.0


def test_crossing_sequence_structure():
    for q in range(5, 61):
        for p in range(2, q - 1):
            if math.gcd(p, q) != 1:
                continue
            x = ReducedFraction(p, q)
            recs = crossing_sequence(x)
            drop = 1 if 2 * p < q else 2
            assert len(recs) == cfe_len(x) - drop
            # y-itinerary is the exact Gauss orbit of y1
            y = recs[0].point.y
            for r in recs:
                assert r.point.y == y
                y = Fraction(y.denominator % y.numerator, y.numerator)
            ts = [r.t for r in recs]
            assert all(a < b for a, b in zip(ts, ts[1:]))
            assert [r.point.eps for r in recs] == [recs[0].point.eps * (-1) ** i for i in range(len(recs))]
            assert ts[-1] + exit_offset(recs[-1].point) == pytest.approx(2 * math.log(q), abs=1e-9)


def test_crossing_sequence_example_itinerary():
    recs = crossing_sequence(ReducedFraction(113, 355))
    assert [r.point.y for r in recs] == [Fraction(16, 113), Fraction(1, 16)]
    assert recs[0].point.z == Fraction(113, 355)


def test_detector_validation_and_degenerate_inputs():
    with pytest.raises(ValueError):
        detect_events_numeric(ReducedFraction(2, 5), 0.0)
    with pytest.raises(ValueError):
        detect_events_numeric(ReducedFraction(2, 5), 0.01)
    assert detect_crossings_numeric(ReducedFraction(1, 2), 1e-3) == []
    # past q = 10^7 the grid's end falls below what floats resolve of p/q
    with pytest.raises(ValueError, match="q must be <="):
        detect_events_numeric(ReducedFraction(314159265, 10**9 + 7), 1e-3)


def test_detector_matches_symbolic_path():
    rng = np.random.default_rng(17)
    cases = [(2, 5), (3, 5), (113, 355)]
    while len(cases) < 30:
        q = int(rng.integers(5, 401))
        p = int(rng.integers(2, q - 1))
        if math.gcd(p, q) == 1:
            cases.append((p, q))
    # the scalar march that preceded the array walk stalled on these; the
    # last is a Fibonacci ratio, the worst case for the nearest-integer walk
    cases += [(760940, 3000017), (5669773, 9999991), (5702887, 9227465)]
    for (p, q) in cases:
        x = ReducedFraction(p, q)
        recs = crossing_sequence(x)
        times = detect_crossings_numeric(x, 1e-3)
        assert len(times) == len(recs)
        for got, want in zip(times, (r.t for r in recs)):
            assert got == pytest.approx(want, abs=5e-3)


def test_detector_flags_one_entry_graze():
    events = detect_events_numeric(ReducedFraction(2, 5), 1e-3)
    assert [e.boundary for e in events].count(True) == 1
    assert len(events) == 2
    pt = next(e.point for e in events if not e.boundary)
    assert (pt.y, pt.z) == (Fraction(1, 2), Fraction(2, 5))


def test_kappa_quadrature_value():
    assert kappa_quadrature() == pytest.approx(3 / math.pi**2, abs=1e-9)


def test_sample_section_marginals():
    rng = np.random.default_rng(9)
    y, z, eps = sample_section(rng, 20000)
    assert np.all((0 < y) & (y < 1))
    assert np.all((0 < z) & (z * (1 + y) <= 1.0))
    assert set(np.unique(eps)) == {-1, 1}
    assert abs(float(np.mean(eps))) < 0.05
    # y-marginal has cdf log2(1 + y)
    ys = np.sort(y)
    cdf = np.log2(1.0 + ys)
    hi = np.arange(1, ys.size + 1) / ys.size
    lo = np.arange(0, ys.size) / ys.size
    ks = max(float(np.max(np.abs(hi - cdf))), float(np.max(np.abs(lo - cdf))))
    assert ks < 0.02


def test_mean_return_time_matches_the_constant():
    want = math.pi**2 / 6 / math.log(2)
    got = mean_return_time(np.random.default_rng(1), 200000)
    assert abs(got - want) / want < 0.01


def test_error_hierarchy():
    assert issubclass(DegenerateStartError, ValueError)
    assert issubclass(SectionDomainError, RuntimeError)
