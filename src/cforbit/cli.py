"""Command-line entry point: one experiment per subcommand, deterministic output.

Every run resolves to an ExperimentConfig (flags override an optional
key=value config file), dispatches to the owning module, and emits a
stream of rows as CSV or JSON lines. Identical config and seed give
byte-identical output; wall-clock goes to stderr only, never into the
output stream. Column schemas are fixed per subcommand and documented
in docs/cli.md.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import secrets
import shlex
import sys
import time
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .cfe import ReducedFraction, cfe_digits
from .crosssec import crossing_sequence, kappa_quadrature
from .lattice import LatticeError, SymmetryError, orbit_samples, verify_symmetry
from .stats import (
    DEFAULT_BINS,
    SWEEP_Q_MIN,
    FdHistogram,
    dispersion,
    haar_fd_histogram,
    len_stats,
    mass_escape_count,
    orbit_fd_histogram,
)
from .zaremba import HEIGHT_Q_MAX, enumerate_bounded, height_bound_check


class ConfigError(ValueError):
    """Bad flag, config-file entry, or field combination; exit code 1."""


class SelfTestError(AssertionError):
    """A built-in sanity experiment landed outside its own tolerance; exit code 2."""


# ---------------------------------------------------------------- config

def _cast_int(s: str) -> int:
    return int(s, 10)


def _cast_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"{s!r} is not finite")
    return v


def _cast_list(cast: Callable[[str], object], kind: str) -> Callable[[str], tuple]:
    """The cast of a comma-separated list of `cast` values; blank items are skipped."""

    def cast_list(s: str) -> tuple:
        parts = [p for p in s.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"empty {kind} list")
        return tuple(map(cast, parts))

    return cast_list


def _param(
    cast: Callable[[str], object],
    help: str,
    ok: Optional[Callable[[object], bool]] = None,
    message: str = "",
    default: object = None,
    factory: Optional[Callable[[], object]] = None,
):
    """Declare one CLI parameter as an ExperimentConfig field.

    `cast` turns flag or config-file text into the value, `ok` is the
    check every value passes (failing it raises ConfigError(message)),
    and `help` is the flag's help text. The field default serves direct
    construction and the common parameters; each subcommand names the
    defaults of its own parameters.
    """
    meta = {"cast": cast, "help": help, "ok": ok, "message": message}
    if factory is not None:
        return field(default_factory=factory, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved, validated parameters of one experiment.

    Every field but `subcommand` is a CLI parameter declared by `_param`;
    that one declaration drives the flag, the config-file key, the check
    and the config echo. The seed is always present and always echoed
    into the output, even for experiments that draw no randomness.
    """

    subcommand: str
    seed: int = _param(
        _cast_int, "RNG seed (default 0)", lambda v: v >= 0, "seed must be >= 0", default=0
    )
    threads: int = _param(
        _cast_int,
        "worker threads for the sweeps and mass-escape, at most one per core and per chunk of"
        " 2^15 residues; recorded in the output, no row depends on it"
        " (default: os.cpu_count(), the number of cores)",
        lambda v: v >= 1,
        "threads must be >= 1",
        factory=lambda: os.cpu_count() or 1,
    )
    output: Optional[str] = _param(str, "output path (default stdout)")
    format: str = _param(
        str,
        "output format, csv or json (default csv)",
        lambda v: v in ("csv", "json"),
        "format must be csv or json",
        default="csv",
    )
    p: Optional[int] = _param(_cast_int, "numerator", lambda v: v >= 1, "p must be >= 1")
    q: Optional[tuple[int, ...]] = _param(
        _cast_list(_cast_int, "integer"),
        "denominator(s), comma separated",
        lambda v: all(x >= 2 for x in v),
        "every q must be >= 2",
    )
    q_max: Optional[int] = _param(
        _cast_int, "largest denominator", lambda v: v >= 2, "q-max must be >= 2"
    )
    K: Optional[int] = _param(_cast_int, "digit bound", lambda v: v >= 1, "K must be >= 1")
    M: Optional[tuple[float, ...]] = _param(
        _cast_list(_cast_float, "number"),
        "height threshold(s), comma separated",
        lambda v: all(x > 1 for x in v),
        "every M must be > 1",
    )
    t: Optional[float] = _param(_cast_float, "flow time", lambda v: v >= 0, "t must be >= 0")
    t_max: Optional[float] = _param(
        _cast_float, "grid end (0 = full life span)", lambda v: v > 0, "t-max must be positive"
    )
    dt: Optional[float] = _param(
        _cast_float, "time step", lambda v: 0 < v <= 0.1, "dt must lie in (0, 0.1]"
    )
    delta: Optional[float] = _param(
        _cast_float, "deviation threshold", lambda v: v > 0, "delta must be positive"
    )
    bins: Optional[int] = _param(
        _cast_int, "digit-measure bins", lambda v: v >= 2, "bins must be >= 2"
    )
    grid: Optional[int] = _param(
        _cast_int, "cells per axis", lambda v: v >= 2, "grid must be >= 2"
    )
    n: Optional[int] = _param(_cast_int, "sample count", lambda v: v >= 1, "n must be >= 1")
    sample_size: Optional[int] = _param(
        _cast_int, "residues sampled", lambda v: v >= 1, "sample-size must be >= 1"
    )

    def __post_init__(self) -> None:
        if self.subcommand not in _SUBCOMMANDS:
            raise ConfigError(f"unknown subcommand {self.subcommand!r}")
        for name, meta in _PARAMS.items():
            v = getattr(self, name)
            if v is not None and meta["ok"] is not None and not meta["ok"](v):
                raise ConfigError(meta["message"])
        if self.subcommand in _SWEEPS and any(x < SWEEP_Q_MIN for x in self.q or ()):
            raise ConfigError(f"every q must be >= {SWEEP_Q_MIN} for {self.subcommand}")
        if self.subcommand == "zaremba-height" and any(x > HEIGHT_Q_MAX for x in self.q or ()):
            raise ConfigError(f"every q must be <= {HEIGHT_Q_MAX} for {self.subcommand}")

    def echo(self) -> dict[str, object]:
        """Config as an ordered mapping, embedded into every output.

        The subcommand's parameters come in its own order, then the
        common ones; unset (None) values are left out.
        """
        out: dict[str, object] = {"subcommand": self.subcommand}
        for name in (*_SUBCOMMANDS[self.subcommand].params, *_COMMON):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out


_PARAMS = {f.name: f.metadata for f in dataclass_fields(ExperimentConfig) if f.metadata}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def read_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


# ---------------------------------------------------------------- rows

# The runner contract. A runner yields column blocks: ({column: cells}, histogram),
# every column of the subcommand's schema present as a sequence of cells, all
# of one length. A block may hold any number of rows, none included; the
# JSON-only histogram rides only on a one-row block. `run` checks each block's
# shape and yields it as an OutputBlock, the columns in schema order; `emit`
# refuses a float cell that is inf or nan as it turns the column into text.
Block = tuple[Mapping[str, Sequence[object]], Optional[Mapping[str, object]]]
OutputBlock = tuple[tuple[Sequence[object], ...], Optional[Mapping[str, object]]]

# the exact types every runner yields; numpy scalars and subclasses take the chain
_FMT_BY_TYPE: dict[type, Callable[[object], str]] = {
    bool: lambda v: "true" if v else "false",
    int: repr,
    float: lambda v: f"{v:.12g}",
    str: str.__str__,
}


def _fmt(v: object) -> str:
    """Fixed plain-text form: 12 significant digits for floats."""
    exact = _FMT_BY_TYPE.get(type(v))
    if exact is not None:
        return exact(v)
    # bool cannot be subclassed, so the table has taken every bool by now
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    if isinstance(v, str):
        return v
    raise TypeError(f"cannot format {type(v).__name__}")


def _column_text(column: str, cells: Sequence[object], by_type: dict, fallback: Callable) -> Iterator[str]:
    """The text of each cell, from one scan of the column's types.

    A column of one exact type maps that type's formatter from by_type, any
    other maps fallback; a float cell that is inf or nan raises ValueError first.
    """
    kinds = set(map(type, cells))
    floats = any(issubclass(t, float) for t in kinds)
    if floats and not all(math.isfinite(v) for v in cells if isinstance(v, float)):
        raise ValueError(f"metric {column} is not finite")
    exact = by_type.get(kinds.pop()) if len(kinds) == 1 else None
    return map(exact or fallback, cells)


def _json_value(v: object) -> str:
    """JSON text with the plain-text numbers of _fmt."""
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, Mapping):
        inner = ",".join(f"{json.dumps(str(k))}:{_json_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    return _fmt(v)


def emit(blocks: Iterable[OutputBlock], config: ExperimentConfig, stream: TextIO) -> int:
    """Write the block stream of `run`; returns the number of rows.

    CSV: comment preamble (version, schema, config), header, one line per
    row, fixed column order. JSON: a meta object line, then one object per
    row. A block is written at once: _column_text turns each column into
    text, and a row's cells are joined (CSV) or fill a %-template (JSON).
    Histogram payloads appear in JSON only. The first block is taken
    before the preamble is written, so a run that fails before it
    writes nothing.
    """
    blocks = iter(blocks)
    first = next(blocks, None)
    sub = _SUBCOMMANDS[config.subcommand]
    echo = config.echo()
    if config.format == "csv":
        stream.write(f"# cforbit {__version__}\n")
        stream.write(f"# schema {sub.schema}\n")
        cfg_text = " ".join(f"{k}={shlex.quote(_config_value(v))}" for k, v in echo.items())
        stream.write(f"# config {cfg_text}\n")
        stream.write(",".join(sub.columns) + "\n")
        by_type, fallback = _FMT_BY_TYPE, _fmt
        row_text = lambda histogram: ",".join
    else:
        meta = {
            "record": "meta",
            "schema": sub.schema,
            "version": __version__,
            "columns": list(sub.columns),
            "config": echo,
        }
        stream.write(_json_value(meta) + "\n")
        by_type, fallback = {**_FMT_BY_TYPE, str: json.dumps}, _json_value
        # one %-template per row object: the cells are its arguments, every other % is escaped
        keys = "".join(f",{json.dumps(c).replace('%', '%%')}:%s" for c in sub.columns)

        def row_text(histogram):
            tail = "" if histogram is None else ',"histogram":' + _json_value(histogram).replace("%", "%%")
            return f'{{"record":"row"{keys}{tail}}}'.__mod__
    n = 0
    for columns, histogram in itertools.chain(() if first is None else (first,), blocks):
        texts = [_column_text(c, cells, by_type, fallback) for c, cells in zip(sub.columns, columns)]
        rows = len(columns[0])
        if rows:
            stream.write("\n".join(map(row_text(histogram), zip(*texts))) + "\n")
            n += rows
    return n


def _config_value(v: object) -> str:
    return ",".join(map(_fmt, v)) if isinstance(v, tuple) else _fmt(v)


# ---------------------------------------------------------------- runners

def _one_row(cells: Mapping[str, object]) -> dict[str, tuple[object]]:
    """The one-row block of {column: value}."""
    return {c: (v,) for c, v in cells.items()}


def _single_q(cfg: ExperimentConfig) -> int:
    assert cfg.q is not None
    if len(cfg.q) != 1:
        raise ConfigError(f"{cfg.subcommand} takes a single q")
    return cfg.q[0]


def _run_cfe(cfg: ExperimentConfig) -> Iterator[Block]:
    x = ReducedFraction(cfg.p, _single_q(cfg))
    w = cfe_digits(x)
    yield _one_row({
        "p": x.p,
        "q": x.q,
        "len": len(w.digits),
        "digits": " ".join(str(d) for d in w.digits),
    }), None


def _run_sweep_len(cfg: ExperimentConfig) -> Iterator[Block]:
    for q in cfg.q or ():
        s = len_stats(q, cfg.bins, threads=cfg.threads)
        yield _one_row({
            "q": s.q,
            "phi": s.phi,
            "mean_len": float(s.mean_len),
            "var_len": float(s.var_len),
            "mean_ratio": float(s.mean_len) / (2.0 * math.log(s.q)),
            "ks_to_gauss": s.ks_to_gauss,
        }), None


def _run_sweep_digits(cfg: ExperimentConfig) -> Iterator[Block]:
    # digit 0 stands for the overflow bucket (values above the cap)
    for q in cfg.q or ():
        h = len_stats(q, cfg.bins, threads=cfg.threads).digit_hist
        digits = sorted(h.counts)
        counts = [h.counts[d] for d in digits]
        if h.overflow:
            digits.append(0)
            counts.append(h.overflow)
        pool = h.total
        yield {
            "q": [q] * len(digits),
            "digit": digits,
            "count": counts,
            "frequency": [c / pool for c in counts],
        }, None


def _run_dispersion(cfg: ExperimentConfig) -> Iterator[Block]:
    for q in cfg.q or ():
        d = dispersion(q, cfg.delta, threads=cfg.threads)
        yield _one_row({"q": q, "delta": cfg.delta, "dispersion": d}), None


def _run_orbit(cfg: ExperimentConfig) -> Iterator[Block]:
    x = ReducedFraction(cfg.p, _single_q(cfg))
    columns = _SUBCOMMANDS["orbit"].columns
    yield dict(zip(columns, (c.tolist() for c in orbit_samples(x, cfg.dt, cfg.t_max)))), None


def _run_cross_section(cfg: ExperimentConfig) -> Iterator[Block]:
    records = crossing_sequence(ReducedFraction(cfg.p, _single_q(cfg)))
    yield {
        "k": list(range(1, len(records) + 1)),
        "y": [float(rec.point.y) for rec in records],
        "z": [float(rec.point.z) for rec in records],
        "eps": [rec.point.eps for rec in records],
        "t": [rec.t for rec in records],
    }, None


def _run_kappa(cfg: ExperimentConfig) -> Iterator[Block]:
    k = kappa_quadrature()
    target = 3.0 / (math.pi * math.pi)
    yield _one_row({"kappa": k, "target": target, "abs_err": abs(k - target)}), None


def _run_mass_escape(cfg: ExperimentConfig) -> Iterator[Block]:
    q = _single_q(cfg)
    for M in cfg.M or ():
        r = mass_escape_count(q, M, cfg.t, threads=cfg.threads)
        # the bound underflows to 0.0 only at a huge M, where the count is 0
        ratio = r.count / float(r.bound) if r.count else 0.0
        yield _one_row({**asdict(r), "bound": float(r.bound), "ratio": ratio}), None


def _histogram_payload(h: FdHistogram) -> dict[str, object]:
    """The JSON-only payload: grid, observed cell shares, Haar cell masses."""
    return {"grid": h.grid, "observed": (h.weights / h.weights.sum()).ravel(), "expected": h.expected.ravel()}


def _run_fd_hist(cfg: ExperimentConfig) -> Iterator[Block]:
    q = _single_q(cfg)
    h = orbit_fd_histogram(
        q, dt=cfg.dt, grid=cfg.grid, sample_size=cfg.sample_size, seed=cfg.seed
    )
    cells = int(np.count_nonzero(h.expected > 0))
    yield _one_row({
        "q": q,
        "dt": cfg.dt,
        "grid": cfg.grid,
        "sample_size": cfg.sample_size,
        "seed": cfg.seed,
        "cells": cells,
        "discrepancy": h.discrepancy(),
    }), _histogram_payload(h)


def _run_haar_selftest(cfg: ExperimentConfig) -> Iterator[Block]:
    rng = np.random.default_rng(cfg.seed)
    h = haar_fd_histogram(rng, cfg.n, cfg.grid)
    cells = int(np.count_nonzero(h.expected > 0))
    disc = h.discrepancy()
    floor = (cells - 1) / cfg.n
    # five sigmas above the multinomial expectation (K-1)/n
    gate = (cells - 1 + 5.0 * math.sqrt(2.0 * (cells - 1))) / cfg.n
    ok = disc < gate
    yield _one_row({
        "n": cfg.n,
        "grid": cfg.grid,
        "seed": cfg.seed,
        "cells": cells,
        "discrepancy": disc,
        "noise_floor": floor,
        "ok": ok,
    }), _histogram_payload(h)
    if not ok:
        raise SelfTestError(
            f"haar self-test discrepancy {disc:.6g} above gate {gate:.6g}"
        )


def _run_zaremba_census(cfg: ExperimentConfig) -> Iterator[Block]:
    assert cfg.q_max is not None and cfg.K is not None
    for q, relaxed, strict in enumerate_bounded(cfg.q_max, cfg.K).row_blocks():
        yield {"q": q, "count_relaxed": relaxed, "count_strict": strict}, None


def _run_zaremba_height(cfg: ExperimentConfig) -> Iterator[Block]:
    for q in cfg.q or ():
        yield _one_row(asdict(height_bound_check(q, cfg.K))), None


def _run_symmetry_check(cfg: ExperimentConfig) -> Iterator[Block]:
    assert cfg.q_max is not None
    pairs = 0
    failures = 0
    for q in range(2, cfg.q_max + 1):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            pairs += 1
            try:
                verify_symmetry(p, q)
            except SymmetryError:
                failures += 1
    yield _one_row({"q_max": cfg.q_max, "pairs_checked": pairs, "failures": failures}), None
    if failures:
        raise SymmetryError(f"{failures} of {pairs} pairs failed the exact symmetry check")


# ------------------------------------------------------------- registry

_REQUIRED = object()  # a subcommand parameter without a default

# parameters every subcommand takes, in echo order; defaults are the field defaults
_COMMON = ("seed", "threads", "format", "output")

# subcommands that run full sweeps; their q list is checked whole before any output
_SWEEPS = ("sweep-len", "sweep-digits", "dispersion")


@dataclass(frozen=True)
class _SubSpec:
    name: str
    help: str
    params: Mapping[str, object]  # name -> default or _REQUIRED, in flag and echo order
    columns: tuple[str, ...]
    runner: Callable[[ExperimentConfig], Iterator[Block]]
    version: int = 1  # bumped when a column changes meaning

    @property
    def schema(self) -> str:
        return f"cforbit.{self.name}.v{self.version}"


_SUBCOMMANDS: dict[str, _SubSpec] = {
    s.name: s
    for s in (
        _SubSpec(
            "cfe",
            "digit word of one reduced fraction",
            {"p": _REQUIRED, "q": _REQUIRED},
            ("p", "q", "len", "digits"),
            _run_cfe,
        ),
        _SubSpec(
            "sweep-len",
            "exact length statistics of the full coprime sweep",
            {"q": _REQUIRED, "bins": DEFAULT_BINS},
            ("q", "phi", "mean_len", "var_len", "mean_ratio", "ks_to_gauss"),
            _run_sweep_len,
        ),
        _SubSpec(
            "sweep-digits",
            "digit census of the full coprime sweep (digit 0 = overflow)",
            {"q": _REQUIRED, "bins": DEFAULT_BINS},
            ("q", "digit", "count", "frequency"),
            _run_sweep_digits,
        ),
        _SubSpec(
            "dispersion",
            "fraction of residues with len ratio off the limit by more than delta",
            {"q": _REQUIRED, "delta": 0.05},
            ("q", "delta", "dispersion"),
            _run_dispersion,
        ),
        _SubSpec(
            "orbit",
            "height and fundamental-domain track of one orbit",
            {"p": _REQUIRED, "q": _REQUIRED, "dt": 0.05, "t_max": 0.0},
            ("t", "height", "fd_x", "fd_y"),
            _run_orbit,
            version=2,
        ),
        _SubSpec(
            "cross-section",
            "exact section crossings of one orbit",
            {"p": _REQUIRED, "q": _REQUIRED},
            ("k", "y", "z", "eps", "t"),
            _run_cross_section,
        ),
        _SubSpec(
            "kappa",
            "normalizing constant by quadrature",
            {},
            ("kappa", "target", "abs_err"),
            _run_kappa,
        ),
        _SubSpec(
            "mass-escape",
            "exact high-excursion counts against the totient bound",
            {"q": _REQUIRED, "M": _REQUIRED, "t": _REQUIRED},
            ("q", "M", "t", "count", "bound", "ratio", "in_hypothesis", "escalations"),
            _run_mass_escape,
        ),
        _SubSpec(
            "fd-hist",
            "fundamental-domain histogram of orbit time against Haar cell masses",
            {"q": _REQUIRED, "dt": 0.05, "grid": 24, "sample_size": 600},
            ("q", "dt", "grid", "sample_size", "seed", "cells", "discrepancy"),
            _run_fd_hist,
        ),
        _SubSpec(
            "haar-selftest",
            "Monte-Carlo Haar sampler against the analytic cell masses",
            {"n": 100000, "grid": 24},
            ("n", "grid", "seed", "cells", "discrepancy", "noise_floor", "ok"),
            _run_haar_selftest,
        ),
        _SubSpec(
            "zaremba-census",
            "bounded-digit census rows (q, count_relaxed, count_strict)",
            {"q_max": _REQUIRED, "K": _REQUIRED},
            ("q", "count_relaxed", "count_strict"),
            _run_zaremba_census,
        ),
        _SubSpec(
            "zaremba-height",
            "orbit-height bound check over the bounded-digit members of q",
            {"q": _REQUIRED, "K": _REQUIRED},
            ("q", "K", "checked", "bound", "max_height", "argmax_t", "argmax_p"),
            _run_zaremba_height,
            version=2,
        ),
        _SubSpec(
            "symmetry-check",
            "exact duality-symmetry identity over all reduced fractions up to q-max",
            {"q_max": _REQUIRED},
            ("q_max", "pairs_checked", "failures"),
            _run_symmetry_check,
        ),
    )
}


def run(config: ExperimentConfig) -> Iterator[OutputBlock]:
    """Dispatch to the owning module; yields (columns in schema order, histogram) per block.

    Checks each block's shape (no dropped column, equal lengths); `emit` checks its cells.
    """
    sub = _SUBCOMMANDS[config.subcommand]
    for block, histogram in sub.runner(config):
        try:
            columns = tuple(block[c] for c in sub.columns)
        except KeyError:
            missing = [c for c in sub.columns if c not in block]
            raise RuntimeError(f"runner dropped columns {missing}") from None
        lengths = {c: len(cells) for c, cells in zip(sub.columns, columns)}
        if len(set(lengths.values())) != 1:
            raise RuntimeError(f"runner columns differ in length: {lengths}")
        yield columns, histogram


# ----------------------------------------------------------------- main

@functools.lru_cache(maxsize=1)  # parse_args leaves the parser as it was: build it once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cforbit",
        description="continued-fraction orbit laboratory",
    )
    parser.add_argument("--version", action="version", version=f"cforbit {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for sub in _SUBCOMMANDS.values():
        sp = subparsers.add_parser(sub.name, help=sub.help)
        for name in (*sub.params, *_COMMON):
            sp.add_argument(
                _flag(name),
                dest=name,
                type=_PARAMS[name]["cast"],
                default=argparse.SUPPRESS,
                help=_PARAMS[name]["help"],
            )
        sp.add_argument("--config", default=argparse.SUPPRESS, help="key=value file; flags override it")
    return parser


def build_config(argv: Optional[Sequence[str]] = None) -> ExperimentConfig:
    """Parse flags, fold in the optional config file, validate everything.

    A config-file value goes through the same cast and check as its flag.
    """
    flags = vars(_build_parser().parse_args(argv))
    sub = _SUBCOMMANDS[flags.pop("subcommand")]

    values: dict[str, object] = {}
    if "config" in flags:
        for key, text in read_config_file(flags.pop("config")).items():
            if key not in sub.params and key not in _COMMON:
                raise ConfigError(f"config key {key!r} is not a {sub.name} parameter")
            try:
                values[key] = _PARAMS[key]["cast"](text)
            except ValueError as e:
                raise ConfigError(f"config key {key}: {e}") from e
    values.update(flags)  # flags override the file
    for name, default in sub.params.items():
        if name not in values:
            if default is _REQUIRED:
                raise ConfigError(f"{sub.name} requires {_flag(name)}")
            values[name] = default
    if values.get("t_max") == 0.0:
        values["t_max"] = None  # t-max 0 means the full life span
    return ExperimentConfig(subcommand=sub.name, **values)


def _open_output(path: str) -> tuple[TextIO, Optional[str]]:
    """Open a run's output: a new file beside path, or path itself when it is not a regular file.

    Returns the handle and the temporary path that main renames onto path
    once the run has succeeded and removes on any error, so a failed run
    creates no file and leaves an existing one as it was. A device or pipe
    (/dev/null) is written in place (the temporary path is None), as a
    rename would replace it.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        return open(path, "w", encoding="utf-8", newline=""), None
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    return open(tmp, "x", encoding="utf-8", newline=""), tmp


def _error_line(kind: str, message: str) -> None:
    print(_json_value({"error": kind, "message": message}), file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = build_config(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
        if code == 0:
            return 0
        _error_line("config", "invalid command line")
        return 1
    except (ConfigError, ValueError, OSError) as e:
        _error_line("config", str(e))
        return 1

    start = time.perf_counter()
    try:
        if config.output is None or config.output == "-":
            rows = emit(run(config), config, sys.stdout)
        else:
            try:
                fh, tmp = _open_output(config.output)
            except OSError as e:
                _error_line("io", f"{config.output}: {e.strerror or e}")
                return 3
            try:
                with fh:
                    rows = emit(run(config), config, fh)
                if tmp is not None:
                    os.replace(tmp, config.output)
            except BaseException:
                if tmp is not None:
                    os.unlink(tmp)
                raise
    except (AssertionError, LatticeError, RuntimeError) as e:
        _error_line("invariant", str(e))
        return 2
    except ValueError as e:
        _error_line("config", str(e))
        return 1
    except MemoryError as e:
        _error_line("config", f"out of memory: {e}")
        return 1
    except OSError as e:
        _error_line("io", str(e))
        return 3
    elapsed = time.perf_counter() - start
    print(
        f"{config.subcommand}: {rows} rows, seed {config.seed}, {elapsed:.3f}s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
