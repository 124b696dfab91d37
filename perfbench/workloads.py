"""The four benchmark workloads and the layer targets the traced run wraps.

Each workload is built by ``prepare(size, seed)``, which draws its seeded
inputs and returns two closures: ``batch(tally)``, the timed work, and
``verify(tally)``, the untimed checks that run after the tracer is gone.
Both count operations and failures in the tally. Seeded parts check
themselves against a second path through the program; deterministic
parts compare with the values pinned in ``pins.py``.

All calls go through module attributes (``cfe.cfe_digits``), so the
tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
from fractions import Fraction

import numpy as np

from cforbit import arith, cfe, cli, crosssec, lattice, stats, zaremba
from pins import PINS
from tracer import Target

SIZES = {
    "full": {
        "exact-words": dict(
            roundtrip_q=560, shift_q=560, symmetry_q=500, coprime_q=1500, crossings=250, escapes=100
        ),
        "full-sweep": dict(moduli=(1009, 10007, 100003, 500009, 1000003)),
        "orbit-geometry": dict(
            fd_q=(10007, 1000003), fd_sample=75, detect=15, tail_q=1000003, height_q=700
        ),
        "census": dict(brute_q=1500, census_q=125000),
    },
    "toy": {
        "exact-words": dict(
            roundtrip_q=60, shift_q=60, symmetry_q=60, coprime_q=200, crossings=20, escapes=10
        ),
        "full-sweep": dict(moduli=(101, 211, 307, 401, 503)),
        "orbit-geometry": dict(fd_q=(1009, 2003), fd_sample=4, detect=2, tail_q=10007, height_q=100),
        "census": dict(brute_q=200, census_q=2000),
    },
}

DETECT_DT = 1e-3
CENSUS_KS = (1, 2, 3, 4, 5)
TAIL_TOLERANCE = 1e-3

# Captured before the tracer patches anything, for use inside item counters.
_phi = arith.euler_phi


class Tally:
    """Operations attempted and failed; keeps the first few failure messages."""

    def __init__(self, pins: dict):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pins = pins

    def check(self, ok: bool, what: str, *detail) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(" ".join([what, *map(str, detail)]))

    def pin(self, key: str, value, tol: float = 0.0) -> None:
        """value equals the pinned one, or lies within tol of it when tol is given."""
        want = self.pins.get(key)
        if tol:
            ok = value is not None and want is not None and abs(value - want) <= tol
        else:
            ok = want == value
        self.check(ok, "pin", key, "got", repr(value), "pinned", repr(want))

    @contextlib.contextmanager
    def step(self, name: str):
        """Count an exception out of the block as one failed operation, and go on."""
        try:
            yield
        except Exception as e:  # the program under test may raise anything
            self.check(False, name, "raised", f"{type(e).__name__}: {e}")


def _cli(*argv: str) -> str:
    """One CLI experiment in this process: build_config, run, emit to memory."""
    cfg = cli.build_config(list(argv))
    records = list(cli.run(cfg))
    buf = io.StringIO()
    cli.emit(records, cfg, buf)
    return buf.getvalue()


def _rows(text: str) -> str:
    """CLI output without its ``# config`` line, which echoes the thread count."""
    return "".join(line for line in text.splitlines(True) if not line.startswith("# config "))


def _digest(text: str) -> str:
    return hashlib.sha256(_rows(text).encode()).hexdigest()


def _draw_fractions(rng: np.random.Generator, n: int) -> list:
    """Criterion 06's draw: q in [5, 10^4], p in [2, q-2], gcd(p, q) = 1."""
    out = []
    while len(out) < n:
        q = int(rng.integers(5, 10**4 + 1))
        p = int(rng.integers(2, q - 1))
        if math.gcd(p, q) == 1:
            out.append(cfe.ReducedFraction(p, q))
    return out


def _draw_escapes(rng: np.random.Generator, n: int) -> list:
    """Criterion 01's draw of (q, M, t) inside the hypothesis window."""
    out = []
    while len(out) < n:
        q = int(rng.integers(3, 10**4 + 1))
        window = math.log(q) - 2 * arith.omega(q)
        if window <= 0:
            continue
        M = float(rng.choice((2.0, 3.0, 5.0)))
        out.append((q, M, float(rng.uniform(0.0, window))))
    return out


def _coprime_pairs(q_lo: int, q_hi: int, half: bool = False):
    for q in range(q_lo, q_hi + 1):
        for p in range(q // 2 + 1 if half else 1, q):
            if math.gcd(p, q) == 1:
                yield p, q


def exact_words(sz: dict, rng: np.random.Generator):
    crossings = _draw_fractions(rng, sz["crossings"])
    escapes = _draw_escapes(rng, sz["escapes"])
    seen: dict[str, int] = {}

    def batch(t: Tally) -> None:
        with t.step("roundtrip"):
            n = 0
            for p, q in _coprime_pairs(2, sz["roundtrip_q"]):
                x = cfe.ReducedFraction(p, q)
                w = cfe.cfe_digits(x)
                t.check(len(w.digits) <= 2 * math.log2(q) and cfe.from_digits(w) == x, "roundtrip", x)
                n += 1
            seen["roundtrip"] = n
        with t.step("two-step shift"):
            n = 0
            for p, q in _coprime_pairs(3, sz["shift_q"], half=True):
                x = cfe.ReducedFraction(p, q)
                t.check(cfe.gauss_map(cfe.gauss_map(x)) == cfe.gauss_map(x.complement()), "shift", x)
                n += 1
            seen["shift"] = n
        with t.step("symmetry"):
            n = 0
            for p, q in _coprime_pairs(2, sz["symmetry_q"]):
                (a, b), (c, d) = lattice.verify_symmetry(p, q)
                t.check((a, b) == (q, -p) and a * d - b * c == 1 and (1 - p * c) % q == 0, "symmetry", p, q)
                n += 1
            seen["symmetry"] = n
        with t.step("crossings"):
            for x in crossings:
                recs = crosssec.crossing_sequence(x)
                drop = 1 if 2 * x.p < x.q else 2
                ok = len(recs) == len(cfe.cfe_digits(x).digits) - drop
                y = recs[0].point.y
                for rec in recs:
                    ok = ok and rec.point.y == y
                    y = Fraction(y.denominator % y.numerator, y.numerator)
                yf, zf = float(recs[-1].point.y), float(recs[-1].point.z)
                exit_t = recs[-1].t - 2.0 * math.log(yf) - 0.5 * math.log((zf / yf) * (1.0 - yf * zf))
                t.check(ok and abs(exit_t - 2.0 * math.log(x.q)) < 1e-6, "crossings", x)
        with t.step("coprime counts"):
            spf = arith.smallest_prime_factors(sz["coprime_q"] + 1)
            alphas = [Fraction(k, 16) for k in range(17)]
            total = 0
            for q in range(2, sz["coprime_q"] + 1):
                m = arith.factorize_with_spf(q, spf)
                phi = arith.euler_phi(m)
                slack = 2 ** arith.omega(m)
                for a in alphas:
                    c = arith.count_coprime_upto(m, a)
                    t.check(abs(c - a * phi) <= slack, "coprime count", q, a)
                    total += c
            seen["coprime_total"] = total
        with t.step("mass escape"):
            for q, M, tt in escapes:
                rep = stats.mass_escape_count(q, M, tt)
                t.check(rep.in_hypothesis and rep.count <= rep.bound, "mass escape", q, M, tt)

    def verify(t: Tally) -> None:
        for key in ("roundtrip", "shift", "symmetry", "coprime_total"):
            t.pin(key, seen.get(key))

    return batch, verify


def full_sweep(sz: dict, rng: np.random.Generator):
    moduli = sz["moduli"]
    qs = ",".join(map(str, moduli))
    out: dict[str, str] = {}

    def batch(t: Tally) -> None:
        for sub in ("sweep-len", "sweep-digits", "dispersion"):
            with t.step(sub):
                out[sub] = _cli(sub, "--q", qs)
        with t.step("phi column"):
            for line in out["sweep-len"].splitlines()[4:]:
                q, phi = map(int, line.split(",")[:2])
                t.check(arith.euler_phi(q) == phi, "phi column", q)

    def verify(t: Tally) -> None:
        for sub in ("sweep-len", "sweep-digits", "dispersion"):
            t.pin(sub, _digest(out[sub]) if sub in out else None)
        # descending, so that today's four-entry sweep cache serves all but one
        for q in reversed(moduli):
            with t.step(f"len_stats {q}"):
                s = stats.len_stats(q)
                t.pin(f"len_stats {q}", f"{s.mean_len} {s.var_len}")

    return batch, verify


def orbit_geometry(sz: dict, rng: np.random.Generator):
    fractions = _draw_fractions(rng, sz["detect"])
    height_qs = [q for q, _, _ in zaremba.enumerate_bounded(sz["height_q"], 3).rows()]
    out: dict = {}
    found: dict = {}

    def batch(t: Tally) -> None:
        for q in sz["fd_q"]:
            with t.step(f"fd-hist {q}"):
                out[q] = _cli("fd-hist", "--q", str(q), "--sample-size", str(sz["fd_sample"]), "--seed", "0")
        with t.step("numeric detector"):
            for x in fractions:
                found[x] = crosssec.detect_crossings_numeric(x, DETECT_DT)
        with t.step("height tail"):
            out["tail"] = stats.averaged_height_tail(sz["tail_q"], 2.0)
        with t.step("height bound"):
            checked = 0
            for q in height_qs:
                r = zaremba.height_bound_check(q, 3)
                t.check(r.max_height <= r.bound, "height bound", q)
                checked += r.checked
            out["checked"] = checked

    def verify(t: Tally) -> None:
        for q in sz["fd_q"]:
            t.pin(f"fd-hist {q}", _digest(out[q]) if q in out else None)
        t.pin("tail", out.get("tail"), tol=TAIL_TOLERANCE)
        t.pin("checked", out.get("checked"))
        for x in fractions:
            with t.step(f"symbolic crossings {x}"):
                t.check(len(found.get(x, ())) == len(crosssec.crossing_sequence(x)), "detector", x)

    return batch, verify


def census(sz: dict, rng: np.random.Generator):
    Q = sz["brute_q"]
    out: dict = {}

    def batch(t: Tally) -> None:
        with t.step("brute-force census"):
            brutes = zaremba.brute_force_censuses(Q, CENSUS_KS)
            totals = []
            for K in CENSUS_KS:
                tree = zaremba.enumerate_bounded(Q, K)
                same = dict(tree.counts) == dict(brutes[K].counts)
                t.check(same and dict(tree.strict_counts) == dict(brutes[K].strict_counts), "census", K)
                totals.append(tree.total())
            out["totals"] = totals
        for threads in (2, 1):
            with t.step(f"zaremba-census threads={threads}"):
                out[threads] = _cli(
                    "zaremba-census", "--q-max", str(sz["census_q"]), "--K", "2", "--threads", str(threads)
                )

    def verify(t: Tally) -> None:
        t.pin("totals", out.get("totals"))
        t.check(1 in out and 2 in out and _rows(out[1]) == _rows(out[2]), "threads 2 rows differ from threads 1")
        t.pin("zaremba-census", _digest(out[1]) if 1 in out else None)

    return batch, verify


WORKLOADS = {
    "exact-words": exact_words,
    "full-sweep": full_sweep,
    "orbit-geometry": orbit_geometry,
    "census": census,
}


def prepare(workload: str, size: str, seed: int):
    """Seeded inputs for one batch, and its (batch, verify) closures."""
    rng = np.random.default_rng(seed)
    batch, verify = WORKLOADS[workload](SIZES[size][workload], rng)
    return batch, verify, PINS[size][workload]


# ------------------------------------------------------------ layer targets

def _one(a, kw, out):
    return {"items": 1}


def _brute_items(a, kw, out):
    # a residue within the largest digit bound is a member at some bound asked for
    scanned = sum(_phi(q) for q in range(2, a[0] + 1))
    return {"items": scanned, "members": out[max(a[1])].total()}


def _tail_items(a, kw, out):
    size = kw.get("sample_size", a[3] if len(a) > 3 else 2000)
    return {"items": min(size, _phi(a[0]))}


def _steps(a, kw, out):
    return {"items": int(math.ceil((2.0 * math.log(a[0].q) + 0.25) / a[1])) + 1}


TARGETS = [
    # per-fraction calls: counters and latency histograms only
    Target("cfe.ReducedFraction", "cfe", "ReducedFraction.__init__", False, _one),
    Target("cfe.cfe_digits", "cfe", "cfe_digits", False, lambda a, kw, out: {"items": len(out.digits)}),
    Target("cfe.from_digits", "cfe", "from_digits", False, lambda a, kw, out: {"items": len(a[0].digits)}),
    Target("cfe.gauss_map", "cfe", "gauss_map", False, _one),
    Target("arith.count_coprime_upto", "arith", "count_coprime_upto", False,
           lambda a, kw, out: {"items": 2 ** len(a[0].prime_factors)}),
    Target("arith.factorize_with_spf", "arith", "factorize_with_spf", False,
           lambda a, kw, out: {"items": len(out.prime_factors)}),
    Target("arith.euler_phi", "arith", "euler_phi", False, _one),
    Target("lattice.verify_symmetry", "lattice", "verify_symmetry", False, _one),
    Target("lattice.fd_point_floats", "lattice", "fd_point_floats", False, _one),
    Target("crosssec.crossing_sequence", "crosssec", "crossing_sequence", False,
           lambda a, kw, out: {"items": len(out)}),
    # coarse calls: spans as well
    Target("crosssec.detect_crossings_numeric", "crosssec", "detect_crossings_numeric", True, _steps),
    Target("stats.len_stats", "stats", "len_stats", True, lambda a, kw, out: {"items": out.phi}),
    Target("stats.dispersion", "stats", "dispersion", True, lambda a, kw, out: {"items": _phi(a[0])}),
    Target("stats.orbit_fd_histogram", "stats", "orbit_fd_histogram", True,
           lambda a, kw, out: {"items": int(round(float(out.weights.sum())))}),
    Target("stats.averaged_height_tail", "stats", "averaged_height_tail", True, _tail_items),
    Target("stats.mass_escape_count", "stats", "mass_escape_count", True,
           lambda a, kw, out: {"items": out.count, "escalations": out.escalations}),
    Target("zaremba.brute_force_censuses", "zaremba", "brute_force_censuses", True, _brute_items),
    Target("zaremba.enumerate_bounded", "zaremba", "enumerate_bounded", True,
           lambda a, kw, out: {"items": out.total()}),
    Target("zaremba.ZarembaCensus.merge", "zaremba", "ZarembaCensus.merge", True,
           lambda a, kw, out: {"items": len(a[1].counts)}),
    Target("zaremba.height_bound_check", "zaremba", "height_bound_check", True,
           lambda a, kw, out: {"items": out.checked}),
    Target("zaremba.members", "zaremba", "members", True, lambda a, kw, out: {"items": len(out)}),
    Target("cli.build_config", "cli", "build_config", True, lambda a, kw, out: {},
           key=lambda a: f"cli.build_config.{a[0][0]}"),
    Target("cli.run", "cli", "run", True, lambda a, kw, out: {},
           key=lambda a: f"cli.run.{a[0].subcommand}", generator=True),
    Target("cli.emit", "cli", "emit", True, lambda a, kw, out: {"rows": out, "bytes": a[2].tell()},
           key=lambda a: f"cli.emit.{a[1].subcommand}"),
]
