import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cforbit.cfe import DigitHistogram, ReducedFraction
from cforbit.lattice import height, orbit_point
from cforbit.stats import (
    LEN_RATE,
    V_MAX,
    EmpiricalMeasure,
    FdHistogram,
    MassEscapeBoundError,
    SweepSummary,
    averaged_height_tail,
    digit_one_frequency,
    dispersion,
    fd_cell_masses,
    haar_fd_histogram,
    haar_height_tail,
    ks_distance,
    len_stats,
    mass_escape_count,
    nu_bar,
    nu_pq,
    orbit_fd_histogram,
    orbit_height_tail,
    uniform_edges,
)


def test_measure_validation_and_merge_rules():
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        uniform_edges(0)
    a = EmpiricalMeasure(uniform_edges(4), np.ones(4))
    b = EmpiricalMeasure(uniform_edges(8), np.ones(8))
    with pytest.raises(ValueError):
        a.merge(b)
    exact = EmpiricalMeasure(uniform_edges(4), np.full(4, Fraction(1), dtype=object))
    with pytest.raises(ValueError):
        a.merge(exact)
    m = a.merge(a)
    assert m.total_weight == 8.0
    cdf = m.cdf_at_edges()
    assert cdf[0] == 0.0 and cdf[-1] == pytest.approx(1.0)
    assert np.all(np.diff(cdf) >= 0)


def test_orbit_measure_is_exact():
    m = nu_pq(ReducedFraction(2, 5), bins=4)
    assert list(m.weights) == [Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0)]
    assert m.total_weight == 1
    both = m.merge(nu_pq(ReducedFraction(3, 5), bins=4))
    assert both.total_weight == 2


def test_len_stats_exact_moments():
    ss = len_stats(5)
    # lens over p=1..4 are 1, 2, 3, 2
    assert (ss.phi, ss.mean_len, ss.var_len) == (4, Fraction(2), Fraction(1, 2))
    assert ss.digit_hist.counts == {1: 3, 2: 3, 4: 1, 5: 1}
    assert ss.digit_hist.overflow == 0
    assert ss.digit_hist.total == 8
    assert ss.ks_to_gauss == 0.2620948453701794
    with pytest.raises(ValueError):
        len_stats(2)


def test_summary_rejects_impossible_mean():
    dh = DigitHistogram(64, {1: 1}, 0)
    with pytest.raises(ValueError):
        SweepSummary(5, 4, Fraction(10), Fraction(0), dh, 0.1)


def test_averaged_measure_normalization():
    m = nu_bar(5)
    assert float(m.total_weight) == pytest.approx(1.0, abs=1e-12)
    assert ks_distance(m) == len_stats(5).ks_to_gauss
    with pytest.raises(ValueError):
        nu_bar(2)


@pytest.mark.parametrize(
    "reader",
    [nu_bar, len_stats, lambda q: dispersion(q, 0.05), digit_one_frequency],
    ids=["nu_bar", "len_stats", "dispersion", "digit_one_frequency"],
)
def test_sweep_readers_share_one_modulus_guard(reader):
    for q in (2, 1):
        with pytest.raises(ValueError, match="q must be >= 3"):
            reader(q)
    reader(3)


def test_dispersion_values_and_monotonicity_in_delta():
    assert dispersion(101, 0.5) == 0.0
    assert dispersion(1009, 0.5) == 0.0
    assert dispersion(1009, 0.02) > dispersion(1009, 0.1)
    with pytest.raises(ValueError):
        dispersion(101, 0.0)


def test_digit_one_frequency_variants():
    assert digit_one_frequency(1009) == 0.35798671951945754
    assert digit_one_frequency(1009, weighted=False) == 0.39255285579047017


def test_orbit_height_tail_value_and_validation():
    assert orbit_height_tail(ReducedFraction(5, 8), 1.0, 0.05) == 0.7797619047619048
    with pytest.raises(ValueError):
        orbit_height_tail(ReducedFraction(5, 8), 0.9, 0.05)
    with pytest.raises(ValueError):
        orbit_height_tail(ReducedFraction(5, 8), 2.0, 0.2)


def test_orbit_height_tail_matches_generic_reduction():
    # same grid, heights from the generic basis reduction instead of the candidate list
    x, M, dt = ReducedFraction(3, 7), 1.2, 0.05
    span = 2 * math.log(x.q)
    n = max(1, math.ceil(span / dt))
    ts = np.linspace(0.0, span, n + 1)
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    ind = np.array([1.0 if height(orbit_point(x, float(t))) >= M else 0.0 for t in ts])
    assert orbit_height_tail(x, M, dt) == float(np.sum(w * ind) / np.sum(w))


def test_averaged_height_tail_is_deterministic():
    assert averaged_height_tail(1009, 2.0) == 0.1873388344507478


def test_haar_height_tail_near_closed_form():
    got = haar_height_tail(np.random.default_rng(7), 200000, 2.0)
    assert got == 0.240705
    assert abs(got - 3.0 / (4.0 * math.pi)) < 0.005
    with pytest.raises(ValueError):
        haar_height_tail(np.random.default_rng(0), 10, 0.5)


def brute_force_escape_count(q: int, M: float, t: float) -> int:
    cnt = 0
    m_max = int(math.exp(t / 2) / M)
    for p in range(1, q):
        if math.gcd(p, q) != 1:
            continue
        for m in range(1, m_max + 1):
            r = (m * p) % q
            d = min(r, q - r) / q
            if m * m * math.exp(-t) + d * d * math.exp(t) <= 1 / (M * M):
                cnt += 1
                break
    return cnt


def test_mass_escape_count_matches_brute_force():
    for (q, M, t) in ((59, 1.5, 1.5), (97, 2.0, 2.5), (211, 3.0, 3.3)):
        rep = mass_escape_count(q, M, t)
        assert rep.count == brute_force_escape_count(q, M, t)
        assert rep.count <= float(rep.bound)
        assert rep.in_hypothesis


def test_mass_escape_report_fields():
    rep = mass_escape_count(997, 3.0, 4.0)
    assert (rep.count, rep.in_hypothesis, rep.escalations) == (108, True, 0)
    assert rep.bound == Fraction(4 * 996, 9)
    assert mass_escape_count(97, 2.0, 0.0).count == 0


def test_mass_escape_hypothesis_guard():
    with pytest.raises(ValueError):
        mass_escape_count(97, 2.0, 12.0)
    rep = mass_escape_count(97, 2.0, 12.0, checked=False)
    assert not rep.in_hypothesis
    with pytest.raises(ValueError):
        mass_escape_count(97, 1.0, 1.0)
    assert issubclass(MassEscapeBoundError, AssertionError)


def test_fd_cell_masses_sum_and_one_cell_quadrature():
    masses = fd_cell_masses(4)
    assert float(masses.sum()) == pytest.approx(1.0, abs=1e-12)
    with mpmath.workdps(30):
        v0, v1 = 3 * mpmath.mpf(V_MAX) / 4, mpmath.mpf(V_MAX)
        f = lambda x: min(v1, 1 / mpmath.sqrt(1 - x**2)) - min(v0, 1 / mpmath.sqrt(1 - x**2))
        want = float(3 / mpmath.pi * mpmath.quad(f, [0, mpmath.mpf(1) / 4]))
    assert float(masses[2, 3]) == pytest.approx(want, abs=1e-12)
    assert V_MAX == 2 / math.sqrt(3)


def test_discrepancy_is_zero_at_the_reference():
    expected = fd_cell_masses(6)
    assert FdHistogram(6, expected.copy(), expected).discrepancy() == pytest.approx(0.0, abs=1e-15)


def test_haar_histogram_sits_at_the_noise_floor():
    fd = haar_fd_histogram(np.random.default_rng(5), 100000)
    assert fd.discrepancy() == pytest.approx(0.005597062420607342, rel=1e-9)
    assert fd.discrepancy() < 0.02


def test_orbit_histogram_smoke():
    fd = orbit_fd_histogram(101, dt=0.1, grid=12, sample_size=20)
    assert fd.weights.shape == (12, 12)
    assert float(fd.weights.sum()) > 0
    assert math.isfinite(fd.discrepancy())


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(dt=-1.0), "dt must lie in"),
        (dict(dt=0.0), "dt must lie in"),
        (dict(dt=0.2), "dt must lie in"),
        (dict(grid=0), "grid must be >= 2"),
        (dict(grid=1), "grid must be >= 2"),
        (dict(sample_size=0), "sample-size must be >= 1"),
    ],
)
def test_orbit_histogram_rejects_bad_arguments(kw, message):
    with pytest.raises(ValueError, match=message):
        orbit_fd_histogram(1009, **kw)


def test_averaged_height_tail_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="sample-size must be >= 1"):
        averaged_height_tail(1009, 2.0, sample_size=0)


def test_len_rate_constant_identity():
    assert LEN_RATE == pytest.approx(2 * math.log(2) * 3 / math.pi**2, abs=1e-15)
