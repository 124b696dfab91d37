import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from cforbit import stats
from cforbit.arith import euler_phi, factorize, omega
from cforbit.cfe import DigitHistogram, ReducedFraction, cfe_digits, cfe_len, convergents
from cforbit.lattice import _fd_points
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
from cforbit.zaremba import height_bound_check, members


def test_measure_validation_and_cdf():
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        uniform_edges(0)
    m = EmpiricalMeasure(uniform_edges(4), np.full(4, 2.0))
    assert m.total_weight == 8.0
    cdf = m.cdf_at_edges()
    assert cdf[0] == 0.0 and cdf[-1] == pytest.approx(1.0)
    assert np.all(np.diff(cdf) >= 0)


def test_orbit_measure_is_exact():
    m = nu_pq(ReducedFraction(2, 5), bins=4)
    assert list(m.weights) == [Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0)]
    assert m.total_weight == 1


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
    dh = DigitHistogram({1: 1}, 0)
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


@pytest.mark.parametrize("reader, q", [
    (len_stats, 101.7),
    (lambda q: dispersion(q, 0.05), 101.7),
    (nu_bar, 101.7),
    (digit_one_frequency, 101.7),
    (lambda q: averaged_height_tail(q, 2.0), 101.7),
    (lambda q: mass_escape_count(q, 2.0, 6.0), 101.7),
    (orbit_fd_histogram, 101.7),
    (factorize, 10.5),
    (euler_phi, 10.5),
    (lambda q: members(q, 3), 600.0),
    (lambda q: height_bound_check(q, 3), 600.0),
    (lambda q: members(q, 3), np.int64(600)),
    (lambda q: height_bound_check(q, 3), np.int64(600)),
], ids=[
    "len_stats", "dispersion", "nu_bar", "digit_one_frequency", "averaged_height_tail",
    "mass_escape_count", "orbit_fd_histogram", "factorize", "euler_phi",
    "members-float", "height_bound_check-float", "members-int64", "height_bound_check-int64",
])
def test_q_is_read_as_an_integer_never_truncated(reader, q):
    # a float q is refused; a numpy integer reads as the int it holds
    if isinstance(q, float):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            reader(q)
    else:
        got, want = reader(q), reader(int(q))
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def test_dispersion_values_and_monotonicity_in_delta():
    assert dispersion(101, 0.5) == 0.0
    assert dispersion(1009, 0.5) == 0.0
    assert dispersion(1009, 0.02) > dispersion(1009, 0.1)
    with pytest.raises(ValueError):
        dispersion(101, 0.0)


def test_digit_one_frequency_variants():
    assert digit_one_frequency(1009) == 0.3579867195194576
    digits = len_stats(1009).digit_hist
    assert digits.counts[1] / digits.total == 0.39255285579047017


def test_orbit_height_tail_value_and_validation():
    assert orbit_height_tail(ReducedFraction(5, 8), 1.0) == 0.7649798710680611
    with pytest.raises(ValueError):
        orbit_height_tail(ReducedFraction(5, 8), 0.9)


@pytest.mark.parametrize("q, M", [(7, 1.0), (101, 1.5), (1009, 2.0), (10**6 + 3, 3.5)])
def test_orbit_height_tail_of_one_over_q_is_one_excursion(q, M):
    # 1/q = [q] makes one Euclid round, with q_0 = r_0 = 1: a single excursion
    want = math.acosh(q / (2 * M * M)) / math.log(q)
    assert orbit_height_tail(ReducedFraction(1, q), M) == pytest.approx(want, rel=1e-14)


def test_orbit_height_tail_matches_generic_reduction():
    # trapezoid grid over [0, 2 ln q] with heights from the generic basis
    # reduction, one batch of _fd_points; each of the at most len(x)
    # excursions moves it by <= dt
    dt = 1e-3
    for x, M in ((ReducedFraction(3, 7), 1.2), (ReducedFraction(5, 8), 1.0), (ReducedFraction(13, 31), 1.1)):
        span = 2 * math.log(x.q)
        n = max(1, math.ceil(span / dt))
        ts = np.linspace(0.0, span, n + 1)
        w = np.ones(n + 1)
        w[0] = w[-1] = 0.5
        e = np.exp(ts / 2)
        ind = np.sqrt(_fd_points(1.0 / e, (x.p / x.q) * e, 0.0, e)[1]) >= M
        grid = float(np.sum(w * ind) / np.sum(w))
        assert abs(orbit_height_tail(x, M) - grid) <= (cfe_len(x) + 1) * dt / span


def test_averaged_height_tail_is_deterministic():
    assert averaged_height_tail(1009, 2.0) == 0.18715997277417235


def test_full_height_tail_does_not_depend_on_the_chunk(monkeypatch):
    # sample_size >= phi(q) streams every residue; a short chunk only regroups the sum
    cases = [(q, M) for q in range(2, 5001, 101) for M in (1.0, 2.0, 3.5)] + [(4999, 2.0), (5000, 2.0)]
    want = [averaged_height_tail(q, M, sample_size=q) for q, M in cases]
    monkeypatch.setattr(stats, "_CHUNK", 97)
    got = [averaged_height_tail(q, M, sample_size=q) for q, M in cases]
    assert all(isinstance(v, float) for v in got)
    assert got == pytest.approx(want, rel=1e-14)


def test_full_height_tail_traced_peak_is_bounded():
    # every residue of 10^6+3: two phi-long arrays peaked at 145 MB traced, residue chunks at about 5 MB
    tracemalloc.start()
    try:
        tail = averaged_height_tail(10**6 + 3, 2.0, sample_size=10**6 + 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tail == pytest.approx(0.21318760854149957, rel=1e-14)
    assert peak <= 10 * 2**20, peak


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
    cases = (
        (59, 1.5, 1.5, True),
        (97, 2.0, 2.5, True),
        (211, 3.0, 3.3, True),
        # M near 1
        (97, 1.01, 0.5, True),
        (211, 1.01, 3.0, True),
        # just under 2 ln M no vector with m >= 1 fits, so nothing counts
        (97, 2.0, 2 * math.log(2.0) - 1e-9, True),
        # past 2 ln(qM) the vector (q, 0) is short for every residue
        (59, 1.5, 2 * math.log(59 * 1.5) + 0.01, False),
        (60, 1.01, 2 * math.log(60 * 1.01) + 1.0, False),
    )
    for q, M, t, checked in cases:
        rep = mass_escape_count(q, M, t, checked)
        assert rep.count == brute_force_escape_count(q, M, t)
        assert rep.in_hypothesis == checked
        if checked:
            assert rep.count <= float(rep.bound)
        if t < 2 * math.log(M):
            assert rep.count == 0
        if t > 2 * math.log(q * M):
            assert rep.count == euler_phi(q)


def _threshold_cases():
    """(M, t, escalations) at q = 97 where orbit vectors have norm 1/M up to float error."""
    # 35/97 and 62/97 hold the convergent vector (q_k, r_k/q) = (3, 8/97);
    # at e^t = u, a root of (r_k/q)^2 u^2 - u/M^2 + q_k^2 = 0, its norm is
    # 1/M up to float error, so both residues escalate to 50 digits; at the
    # second M the squared norm lies between 1/M^2 and the rounded 1/(M*M)
    q, qk, rk = 97, 3, 8
    cases = []
    for M in (1.2, 1.230638758419904):
        a, b = (rk / q) ** 2, 1 / (M * M)
        cases.append((M, math.log((b - math.sqrt(b * b - 4 * a * qk * qk)) / (2 * a)), 2))
    # at t = 2 ln(qM) the last vector (q, 0) of every residue has norm 1/M
    cases.append((2.0, 2 * math.log(q * 2.0), q - 1))
    return cases


def test_mass_escape_escalates_on_the_threshold():
    q = 97
    for M, t, escalations in _threshold_cases():
        rep = mass_escape_count(q, M, t, checked=False)
        assert rep.escalations == escalations
        with mpmath.workdps(50):
            eu, lim = mpmath.exp(t), 1 / mpmath.mpf(M) ** 2
            want = sum(
                any(
                    m * m / eu + (mpmath.mpf(min(m * p % q, q - m * p % q)) / q) ** 2 * eu <= lim
                    for m in range(1, int(math.exp(t / 2) / M) + 2)
                )
                for p in range(1, q)
            )
        assert rep.count == want


def _criterion_01_draws():
    rng = np.random.default_rng(20250817)
    out = []
    while len(out) < 200:
        q = int(rng.integers(3, 10**4 + 1))
        window = math.log(q) - 2 * omega(q)
        if window <= 0:
            continue
        M = float(rng.choice((2.0, 3.0, 5.0)))
        out.append((q, M, float(rng.uniform(0.0, window))))
    return out


def _window_grid():
    return [
        (q, M, t)
        for q in (1009, 10007, 100003)
        for M in (1.5, 2.0, 5.0)
        for t in (0.5, 3.0, math.log(q) - 2 * omega(q))
    ]


def _unchecked_draws():
    rng = np.random.default_rng(9)
    out = []
    for _ in range(300):
        q = int(rng.integers(2, 3000))
        M = float(rng.uniform(1.01, 6.0))
        out.append((q, M, float(rng.uniform(0.0, 2 * math.log(q) + 3))))
    return out


# sha256 of repr([(count, escalations), ...]), captured from the (m, r, j)
# enumeration over modular inverses that predates the Euclid-chain count
FROZEN_ESCAPE = {
    "criterion_01": (_criterion_01_draws, True, "30828d0914c57bf520c749ccd2414b312b9966259b500b9f701d2ec74fd6c03c"),
    "window_grid": (_window_grid, True, "d0517695c204d49a03f370766703a9ffd60dd974cde4c2eff50d981218dac778"),
    "unchecked": (_unchecked_draws, False, "31456266272c160fd5e8cfefa2bec60dcb602018da12ad97ec597a7612ede9f3"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_ESCAPE))
def test_mass_escape_counts_are_frozen(name):
    draws, checked, sha = FROZEN_ESCAPE[name]
    got = [(r.count, r.escalations) for r in (mass_escape_count(q, M, t, checked) for q, M, t in draws())]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == sha


def test_mass_escape_counts_at_a_million_are_frozen():
    # four residue chunks; captured from the single-pass count over coprime_array(q)
    for M, t, want in ((2.0, 3.0, (249996, 0)), (5.0, 11.8, (38154, 0))):
        rep = mass_escape_count(10**6 + 3, M, t)
        assert (rep.count, rep.escalations) == want


def test_mass_escape_counts_do_not_depend_on_the_chunk(monkeypatch):
    # the last case escalates the final vector (q, 0) of all 96 residues
    draws = [(q, M, t, False) for q, M, t in _unchecked_draws()[:100]] + [(97, 2.0, 2 * math.log(194.0), False)]
    want = [(r.count, r.escalations) for r in (mass_escape_count(*d) for d in draws)]
    assert want[-1] == (96, 96)
    monkeypatch.setattr(stats, "_CHUNK", 7)
    assert [(r.count, r.escalations) for r in (mass_escape_count(*d) for d in draws)] == want


@pytest.mark.parametrize("threads", (2, 3))
def test_mass_escape_counts_do_not_depend_on_the_thread_count(threads, monkeypatch):
    # chunks of 97 residues (7 at q = 97), so the workers share the draws' chunks and
    # margin hits, and each decides its own in 50 digits
    want = [(r.count, r.escalations) for r in (mass_escape_count(97, M, t, False) for M, t, _ in _threshold_cases())]
    assert [e for _, e in want] == [e for _, _, e in _threshold_cases()]
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(stats, "_CHUNK", 7)
    reports = (mass_escape_count(97, M, t, False, threads=threads) for M, t, _ in _threshold_cases())
    assert [(r.count, r.escalations) for r in reports] == want
    monkeypatch.setattr(stats, "_CHUNK", 97)
    for draws, checked, sha in FROZEN_ESCAPE.values():
        reports = (mass_escape_count(q, M, t, checked, threads=threads) for q, M, t in draws())
        got = [(r.count, r.escalations) for r in reports]
        assert hashlib.sha256(repr(got).encode()).hexdigest() == sha


def test_mass_escape_margin_checks_on_workers_do_not_load_mpmath():
    # two workers over chunks of 7 decide the threshold cases' margin hits in 50 digits
    want = [(r.count, r.escalations) for r in (mass_escape_count(97, M, t, False) for M, t, _ in _threshold_cases())]
    code = (
        "import os, sys\n"
        "from cforbit import stats\n"
        "stats._CHUNK, os.cpu_count = 7, lambda: 2\n"
        f"cases = {[(M, t) for M, t, _ in _threshold_cases()]!r}\n"
        "reports = [stats.mass_escape_count(97, M, t, False, threads=2) for M, t in cases]\n"
        "print([(r.count, r.escalations) for r in reports], 'mpmath' in sys.modules)\n"
    )
    src = str(Path(stats.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True, cwd=src, capture_output=True, text=True).stdout
    assert out == f"{want!r} False\n"


def test_mass_escape_squares_continuants_without_wrapping(monkeypatch):
    # 2/q has q_1 = (q - 1)/2 > sqrt(2^63), whose int64 square wraps negative;
    # three residues stand in for a half pass, which would take hours here,
    # and the count holds their mirrors q - 1, q - 2 and q - 3 too
    q, M, t = 7 * 10**9 + 1, 2.0, 44.0
    monkeypatch.setattr(stats, "_residue_chunks", lambda q, top=None: iter([np.array([1, 2, 3], dtype=np.int64)]))
    rep = mass_escape_count(q, M, t, checked=False)
    with mpmath.workdps(50):
        lim = 1 / mpmath.mpf(M) ** 2
        want = sum(
            any(
                qk * qk * mpmath.exp(-t) + (mpmath.mpf(abs(qk * p - pk * q)) / q) ** 2 * mpmath.exp(t) <= lim
                for pk, qk in convergents(cfe_digits(ReducedFraction(p, q))).pairs[1:]
            )
            for p in (1, 2, 3, q - 1, q - 2, q - 3)
        )
    assert (q - 1) // 2 > math.isqrt(2**63)
    assert rep.count == want


def test_mass_escape_memory_does_not_grow_with_q():
    # per residue chunk: a full pass held about 130 bytes a residue
    peaks = []
    for q in (1000003, 3145729):
        tracemalloc.start()
        try:
            mass_escape_count(q, 2.0, 3.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def test_mass_escape_traced_peak_is_bounded():
    # at this q whole 2^18-residue chunks peaked at 41.0 MB traced, 2^15-residue chunks at about 5 MB
    tracemalloc.start()
    try:
        rep = mass_escape_count(10**6 + 3, 5.0, 11.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.count, rep.escalations) == (38154, 0)
    assert peak <= 10 * 2**20, peak


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
    # at t = -3 every orbit lattice holds (0, e^{-3/2}), so no count is right
    for checked in (True, False):
        with pytest.raises(ValueError, match="t must be >= 0"):
            mass_escape_count(97, 2.0, -3.0, checked)
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="t must be finite"):
                mass_escape_count(97, 2.0, t, checked)
    assert issubclass(MassEscapeBoundError, AssertionError)


_X = ReducedFraction(2, 5)
_REFUSED = {
    "orbit_height_tail-nan": (orbit_height_tail, (_X, math.nan), "M must be finite and >= 1"),
    "orbit_height_tail-inf": (orbit_height_tail, (_X, math.inf), "M must be finite and >= 1"),
    "averaged_height_tail-nan": (averaged_height_tail, (1009, math.nan), "M must be finite and >= 1"),
    "averaged_height_tail-inf": (averaged_height_tail, (10**6 + 3, math.inf), "M must be finite and >= 1"),
    "haar_height_tail-nan": (haar_height_tail, (np.random.default_rng(0), 10, math.nan), "M must be finite and >= 1"),
    "haar_height_tail-inf": (haar_height_tail, (np.random.default_rng(0), 10, math.inf), "M must be finite and >= 1"),
    "dispersion-nan": (dispersion, (101, math.nan), "delta must be finite and positive"),
    "dispersion-inf": (dispersion, (10**4 + 7, math.inf), "delta must be finite and positive"),
    "mass_escape_count-inf": (mass_escape_count, (97, math.inf, 1.0), "M must be finite and > 1"),
    "mass_escape_count-nan": (mass_escape_count, (97, math.nan, 1.0), "M must be finite and > 1"),
    "nu_pq-no-bins": (nu_pq, (_X, 0), "bins must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_non_finite_thresholds_are_refused_before_any_work(case, monkeypatch):
    # the rule of the CLI's float cast: a NaN or infinite threshold is never computed with
    reader, args, message = _REFUSED[case]

    def no_work(*_):
        raise AssertionError("work began before the threshold was checked")

    for name in ("_residue_chunks", "_excursions", "haar_fd_sample"):
        monkeypatch.setattr(stats, name, no_work)
    with pytest.raises(ValueError, match=message):
        reader(*args)


@pytest.mark.parametrize("t", [700.0, 709.0, 709.5, 800.0, 1e6])
def test_mass_escape_count_at_large_t(t):
    # e^t overflows a double past t = 709.78; far past 2 ln(qM) every residue counts
    rep = mass_escape_count(97, 2.0, t, checked=False)
    assert (rep.count, rep.escalations, rep.in_hypothesis) == (euler_phi(97), 0, False)


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


def test_orbit_histogram_memory_does_not_grow_with_the_sample():
    # each call of the fundamental-domain kernel is binned before the next; 600
    # residues already take four calls at q = 10007, 3000 take 17
    orbit_fd_histogram(10007, sample_size=20)  # one-time allocations stay out of the trace
    peaks = []
    for size in (600, 3000):
        tracemalloc.start()
        try:
            orbit_fd_histogram(10007, sample_size=size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rng: haar_fd_histogram(rng, 100, grid=1), "grid must be >= 2"),
        (lambda rng: haar_fd_histogram(rng, 100, grid=0), "grid must be >= 2"),
        (lambda rng: haar_fd_histogram(rng, 0), "n must be >= 1"),
        (lambda rng: haar_height_tail(rng, 0, 2.0), "n must be >= 1"),
    ],
)
def test_haar_references_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call(np.random.default_rng(0))


def test_averaged_height_tail_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="sample-size must be >= 1"):
        averaged_height_tail(1009, 2.0, sample_size=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda q: averaged_height_tail(q, 2.0),
        lambda q: orbit_fd_histogram(q),
        lambda q: mass_escape_count(q, 2.0, 0.0, checked=False),
    ],
    ids=["averaged_height_tail", "orbit_fd_histogram", "mass_escape_count"],
)
def test_residue_passes_reject_a_modulus_without_residues(call):
    # phi(1) = 1, but 1 has no residue p with 1 <= p < q to read
    for q in (1, 0, -5):
        with pytest.raises(ValueError, match="q must be >= 2"):
            call(q)
    call(2)


@pytest.mark.parametrize("bins", [0, -3])
def test_sweeps_reject_an_empty_binning(bins):
    for reader in (nu_bar, len_stats):
        with pytest.raises(ValueError, match="bins must be >= 1"):
            reader(1009, bins)


def test_len_rate_constant_identity():
    assert LEN_RATE == pytest.approx(2 * math.log(2) * 3 / math.pi**2, abs=1e-15)
