import dataclasses
import inspect
import io
import json
import math
import os

import numpy as np
import pytest

from cforbit import __version__, stats, zaremba
from cforbit.arith import euler_phi
from cforbit.cli import (
    _SUBCOMMANDS,
    ConfigError,
    ExperimentConfig,
    _build_parser,
    _fmt,
    _json_value,
    build_config,
    emit,
    main,
    read_config_file,
    run,
)
from cforbit.lattice import LatticeError
from cforbit.stats import DEFAULT_BINS, haar_fd_histogram, orbit_fd_histogram
from conftest import read_rows


def capture(argv) -> ExperimentConfig:
    return build_config(argv)


def emit_text(argv) -> str:
    cfg = build_config(argv)
    buf = io.StringIO()
    emit(run(cfg), cfg, buf)
    return buf.getvalue()


def test_build_config_defaults_and_sentinels():
    cfg = capture(["cfe", "--p", "2", "--q", "5", "--threads", "1"])
    assert (cfg.subcommand, cfg.p, cfg.q) == ("cfe", 2, (5,))
    assert (cfg.seed, cfg.format, cfg.output) == (0, "csv", None)
    cfg = capture(["dispersion", "--q", "101,1009", "--threads", "1"])
    assert cfg.q == (101, 1009)
    assert cfg.delta == 0.05
    # t-max 0 means the full life span
    cfg = capture(["orbit", "--p", "2", "--q", "5", "--threads", "1"])
    assert cfg.t_max is None
    cfg = capture(["orbit", "--p", "2", "--q", "5", "--t-max", "1.5", "--threads", "1"])
    assert cfg.t_max == 1.5


def test_cli_defaults_track_the_library_defaults():
    def library_default(fn, name):
        return inspect.signature(fn).parameters[name].default

    fd_hist = _SUBCOMMANDS["fd-hist"].params
    for name in ("dt", "grid", "sample_size"):
        assert fd_hist[name] == library_default(orbit_fd_histogram, name), name
    assert _SUBCOMMANDS["haar-selftest"].params["grid"] == library_default(haar_fd_histogram, "grid")
    for sub in ("sweep-len", "sweep-digits"):
        assert _SUBCOMMANDS[sub].params["bins"] == DEFAULT_BINS, sub


def test_build_config_rejections():
    with pytest.raises(ConfigError):
        capture(["cfe", "--p", "0", "--q", "5"])
    with pytest.raises(ConfigError):
        capture(["cfe", "--p", "2"])
    with pytest.raises(ConfigError):
        capture(["mass-escape", "--q", "97", "--M", "0.5", "--t", "1"])
    with pytest.raises(ConfigError):
        capture(["orbit", "--p", "2", "--q", "5", "--dt", "0.5"])
    with pytest.raises(ConfigError):
        capture(["cfe", "--p", "2", "--q", "5", "--seed", "-1"])
    with pytest.raises(ConfigError):
        ExperimentConfig("no-such-experiment")


def test_config_file_merging(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nq=101\ndelta=0.1\nseed=7\n")
    cfg = capture(["dispersion", "--config", str(path), "--threads", "1"])
    assert (cfg.q, cfg.delta, cfg.seed) == ((101,), 0.1, 7)
    # flags override the file
    cfg = capture(["dispersion", "--config", str(path), "--delta", "0.2", "--threads", "1"])
    assert cfg.delta == 0.2
    path.write_text("sample-size=50\nq=101\n")
    cfg = capture(["fd-hist", "--config", str(path), "--threads", "1"])
    assert cfg.sample_size == 50
    path.write_text("no equals sign\n")
    with pytest.raises(ConfigError):
        read_config_file(str(path))
    path.write_text("qq=5\n")
    with pytest.raises(ConfigError):
        capture(["dispersion", "--config", str(path)])
    # common keys are cast like their flags, and a bad value names its key
    for text, key in (("seed=abc\n", "seed"), ("threads=x\n", "threads")):
        path.write_text("q=101\n" + text)
        with pytest.raises(ConfigError, match=f"config key {key}:"):
            capture(["dispersion", "--config", str(path)])
    path.write_text("q=101\nformat=xml\n")
    with pytest.raises(ConfigError, match="format must be csv or json"):
        capture(["dispersion", "--config", str(path), "--threads", "1"])


def test_one_parser_serves_every_call(tmp_path):
    assert _build_parser() is _build_parser()
    with pytest.raises(SystemExit) as failed:
        capture(["dispersion", "--q", "101", "--no-such-flag"])
    assert failed.value.code == 2
    # nothing of an earlier parse, failed or not, carries over to the next
    assert capture(["dispersion", "--q", "1009", "--delta", "0.3", "--threads", "1"]).delta == 0.3
    cfg = capture(["dispersion", "--q", "101", "--threads", "1"])
    assert (cfg.subcommand, cfg.q, cfg.delta, cfg.threads) == ("dispersion", (101,), 0.05, 1)
    path = tmp_path / "run.cfg"
    path.write_text("q=211\ndelta=0.1\n")
    cfg = capture(["dispersion", "--config", str(path), "--delta", "0.2", "--threads", "1"])
    assert (cfg.q, cfg.delta) == ((211,), 0.2)
    assert capture(["dispersion", "--config", str(path), "--threads", "1"]).delta == 0.1


def test_threads_default_is_the_core_count(monkeypatch, tmp_path):
    # only the flag and the config key set the worker count, never the environment
    monkeypatch.setenv("CFORBIT_THREADS", "3")
    assert build_config(["kappa"]).threads == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert build_config(["kappa"]).threads == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_config(["kappa"]).threads == 1
    path = tmp_path / "run.cfg"
    path.write_text("threads=2\n")
    assert build_config(["kappa", "--config", str(path)]).threads == 2
    assert build_config(["kappa", "--config", str(path), "--threads", "4"]).threads == 4


def test_csv_shape():
    text = emit_text(["cfe", "--p", "113", "--q", "355", "--threads", "1"])
    lines = text.splitlines()
    assert lines[0] == f"# cforbit {__version__}"
    assert lines[1] == "# schema cforbit.cfe.v1"
    assert lines[2] == "# config subcommand=cfe p=113 q=355 seed=0 threads=1 format=csv"
    assert lines[3] == "p,q,len,digits"
    assert lines[4] == "113,355,3,3 7 16"
    assert len(lines) == 5


def test_json_shape():
    text = emit_text(["cfe", "--p", "113", "--q", "355", "--format", "json", "--threads", "1"])
    meta, row = (json.loads(line) for line in text.splitlines())
    assert meta["record"] == "meta"
    assert meta["schema"] == "cforbit.cfe.v1"
    assert meta["columns"] == ["p", "q", "len", "digits"]
    assert meta["config"]["q"] == [355]
    assert row == {"record": "row", "p": 113, "q": 355, "len": 3, "digits": "3 7 16"}


def test_cross_section_rows():
    columns, rows = read_rows(emit_text(["cross-section", "--p", "113", "--q", "355", "--threads", "1"]))
    assert columns == ("k", "y", "z", "eps", "t")
    assert [r["k"] for r in rows] == [1, 2]
    assert rows[0]["y"] == pytest.approx(16 / 113, abs=1e-12)
    assert [r["eps"] for r in rows] == [-1, 1]
    assert rows[0]["t"] < rows[1]["t"]


def test_sweep_digits_rows():
    columns, rows = read_rows(emit_text(["sweep-digits", "--q", "5", "--threads", "1"]))
    assert columns == ("q", "digit", "count", "frequency")
    assert [(r["digit"], r["count"]) for r in rows] == [(1, 3), (2, 3), (4, 1), (5, 1)]
    assert rows[0]["frequency"] == pytest.approx(3 / 8)


def test_orbit_rows_cover_the_lifespan():
    _, rows = read_rows(emit_text(["orbit", "--p", "2", "--q", "5", "--threads", "1"]))
    span = 2 * math.log(5)
    assert len(rows) == math.ceil(span / 0.05) + 1
    assert rows[0]["t"] == 0
    assert rows[-1]["t"] == pytest.approx(span, abs=1e-9)
    _, short = read_rows(
        emit_text(["orbit", "--p", "2", "--q", "5", "--t-max", "1.0", "--threads", "1"])
    )
    assert short[-1]["t"] == 1.0


@pytest.mark.parametrize("t_max", ["400", "1500"])
def test_orbit_past_the_float_range_is_one_config_error(t_max, capsys, tmp_path):
    # rows past 2 ln 3 are closed-form, so t-max 400 runs; only e^t overflowing (t = 709.8) is refused
    target = tmp_path / "out.csv"
    argv = ["orbit", "--p", "1", "--q", "3", "--dt", "0.1", "--t-max", t_max, "--threads", "1"]
    code = main([*argv, "--output", str(target)])
    out, err = capsys.readouterr()
    assert out == ""
    if t_max == "400":
        assert code == 0
        _, rows = read_rows(target.read_text())
        assert rows[-1]["t"] == 400 and rows[-1]["fd_y"] == pytest.approx(math.exp(400) / 9, rel=1e-11)
    else:
        assert code == 1
        assert json.loads(err) == {
            "error": "config", "message": "the orbit of 1/3 leaves the float range at t=709.8"
        }
        assert list(tmp_path.iterdir()) == []


def test_mass_escape_rows():
    columns, rows = read_rows(
        emit_text(["mass-escape", "--q", "97", "--M", "2,3", "--t", "0", "--threads", "1"])
    )
    assert columns == ("q", "M", "t", "count", "bound", "ratio", "in_hypothesis", "escalations")
    assert len(rows) == 2
    for row in rows:
        assert row["count"] == 0 and row["in_hypothesis"] is True


def test_mass_escape_with_an_underflowing_bound(capsys):
    # 4 phi / M^2 underflows to 0.0 at M = 1e300, and the count is 0
    argv = ["mass-escape", "--q", "101", "--M", "1e300", "--t", "1", "--threads", "1"]
    _, (row,) = read_rows(emit_text(argv))
    assert (row["count"], row["bound"], row["ratio"]) == (0, 0.0, 0.0)
    assert main(argv) == 0


def test_zaremba_height_digit_bounds_past_int64(capsys):
    def row(K):
        _, (r,) = read_rows(emit_text(["zaremba-height", "--q", "100", "--K", str(K), "--threads", "1"]))
        return r["checked"], r["max_height"], r["argmax_t"], r["argmax_p"]

    assert row(2**63) == row(10**20) == row(100)
    assert main(["zaremba-height", "--q", "100", "--K", str(10**400), "--threads", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert json.loads(err[-1])["error"] == "config" and "not a finite float" in err[-1]


def test_haar_selftest_passes_at_default_size():
    _, (row,) = read_rows(emit_text(["haar-selftest", "--threads", "1"]))
    assert row["n"] == 100000
    assert row["ok"] is True
    assert row["noise_floor"] > 0
    assert row["discrepancy"] < 10 * row["noise_floor"]  # within an order of the noise floor


def test_fd_hist_payload_is_json_only():
    argv = ["fd-hist", "--q", "101", "--dt", "0.1", "--grid", "8",
            "--sample-size", "20", "--threads", "1"]
    columns, rows = read_rows(emit_text(argv))
    assert columns == ("q", "dt", "grid", "sample_size", "seed", "cells", "discrepancy")
    assert len(rows) == 1 and "histogram" not in rows[0]
    _, json_rows = read_rows(emit_text(argv + ["--format", "json"]))
    hist = json_rows[0]["histogram"]
    assert len(hist["observed"]) == len(hist["expected"]) == 64
    assert sum(hist["observed"]) == pytest.approx(1.0, abs=1e-9)
    assert sum(hist["expected"]) == pytest.approx(1.0, abs=1e-9)


def test_census_is_thread_count_invariant(capsys):
    assert main(["zaremba-census", "--q-max", "500", "--K", "3", "--threads", "1"]) == 0
    single = capsys.readouterr().out
    assert main(["zaremba-census", "--q-max", "500", "--K", "3", "--threads", "4"]) == 0
    multi = capsys.readouterr().out
    # the config echo differs by the thread count; the data must not
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
    assert strip(single) == strip(multi)
    assert single.splitlines()[2] != multi.splitlines()[2]


def _rows(text):
    return [line for line in text.splitlines() if not line.startswith("# config ")]


@pytest.mark.parametrize("argv", [
    ["sweep-len", "--q", "1009,100003,500009"],
    ["sweep-digits", "--q", "100003,500009"],
    ["dispersion", "--q", "100003,500009"],
    ["mass-escape", "--q", "1000003", "--M", "2,5", "--t", "3"],
])
def test_threads_change_no_row(argv, monkeypatch):
    # every sweep is computed, not served by the cache, and two workers start on any machine
    monkeypatch.setattr(stats, "_sweep", stats._sweep.__wrapped__)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    single, double = (emit_text(argv + ["--threads", n]) for n in ("1", "2"))
    assert _rows(single) == _rows(double)
    assert single != double  # the config line echoes the thread count


def test_a_huge_thread_count_starts_one_thread_per_extra_chunk(monkeypatch, thread_starts):
    # 1009 sweeps in one chunk and 100003 in two, so the one thread started is
    # the second worker of 100003
    monkeypatch.setattr(stats, "_sweep", stats._sweep.__wrapped__)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    argv = ["sweep-len", "--q", "1009,100003"]
    huge = emit_text(argv + ["--threads", "1000000"])
    assert len(thread_starts) == 1
    assert _rows(huge) == _rows(emit_text(argv + ["--threads", "1"]))


def test_census_branches_stop_at_q_max(capsys):
    # K = 1000 admits every p/q with q <= 60, and no digit there exceeds 60
    rows = {}
    for threads in ("2", "1"):
        assert main(["zaremba-census", "--q-max", "60", "--K", "1000", "--threads", threads]) == 0
        rows[threads] = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert rows["2"] == rows["1"]
    assert rows["1"][1:] == [f"{q},{euler_phi(q)},{euler_phi(q)}" for q in range(2, 61)]


def test_main_exit_codes(capsys, tmp_path):
    assert main(["kappa", "--threads", "1"]) == 0
    out, err = capsys.readouterr()
    assert "kappa: 1 rows, seed 0" in err
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert main(["cfe", "--p", "2"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert main(["no-such-subcommand"]) == 1
    capsys.readouterr()
    # runtime domain error from a module, not from flag parsing
    assert main(["mass-escape", "--q", "97", "--M", "2", "--t", "50", "--threads", "1"]) == 1
    assert json.loads(capsys.readouterr().err.splitlines()[0])["error"] == "config"
    target = tmp_path / "out.csv"
    assert main(["cfe", "--p", "2", "--q", "5", "--output", str(target), "--threads", "1"]) == 0
    capsys.readouterr()
    assert target.read_text().endswith("2,5,2,2 2\n")
    assert main(["cfe", "--p", "2", "--q", "5", "--output", str(tmp_path / "no" / "x.csv")]) == 3
    assert json.loads(capsys.readouterr().err.splitlines()[0])["error"] == "io"


@pytest.mark.parametrize("sub", ["sweep-len", "sweep-digits", "dispersion"])
def test_sweeps_check_every_q_before_any_output(sub, capsys, tmp_path):
    target = tmp_path / "out.csv"
    assert main([sub, "--q", "1009,2", "--output", str(target), "--threads", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "config", "message": f"every q must be >= 3 for {sub}"}
    assert not target.exists()
    path = tmp_path / "run.cfg"
    path.write_text("q=2,1009\n")
    with pytest.raises(ConfigError):
        capture([sub, "--config", str(path), "--threads", "1"])
    assert main([sub, "--q", "3", "--threads", "1"]) == 0


def test_zaremba_height_checks_the_ceiling_before_any_output(capsys, tmp_path):
    # the 101 row used to be written before the second q raised
    assert main(["zaremba-height", "--q", "101,2000000", "--K", "2", "--threads", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "error": "config",
        "message": f"every q must be <= {zaremba.HEIGHT_Q_MAX} for zaremba-height",
    }
    target = tmp_path / "out.csv"
    assert main(["zaremba-height", "--q", "2000000", "--K", "2", "--output", str(target)]) == 1
    assert not target.exists()
    with pytest.raises(ConfigError):
        capture(["zaremba-height", "--q", f"{zaremba.HEIGHT_Q_MAX + 1}", "--K", "2", "--threads", "1"])
    assert capture(["zaremba-height", "--q", f"{zaremba.HEIGHT_Q_MAX}", "--K", "2", "--threads", "1"]).q == (zaremba.HEIGHT_Q_MAX,)


@pytest.mark.parametrize(
    "argv",
    [
        ["cfe", "--p", "2", "--q", "5,7"],
        ["orbit", "--p", "2", "--q", "5,7"],
        ["fd-hist", "--q", "5,7"],
        ["cfe", "--p", "2", "--q", "4"],
        ["cfe", "--p", "5", "--q", "5"],
        ["cross-section", "--p", "1", "--q", "5"],
        ["mass-escape", "--q", "101", "--M", "1", "--t", "1"],
        ["mass-escape", "--q", "101", "--M", "3", "--t", "9"],
        ["mass-escape", "--q", "101", "--M", "3,1", "--t", "1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_a_run_that_fails_before_its_first_row_writes_nothing(argv, capsys):
    assert main([*argv, "--threads", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "config"


def test_a_run_without_rows_still_writes_its_header(capsys, monkeypatch):
    spec = _SUBCOMMANDS["kappa"]

    def empty(cfg):
        return
        yield

    monkeypatch.setitem(_SUBCOMMANDS, "kappa", dataclasses.replace(spec, runner=empty))
    assert main(["kappa", "--threads", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# cforbit ") and out[3:] == ["kappa,target,abs_err"]


def test_zaremba_height_takes_no_time_step(capsys, tmp_path):
    assert main(["zaremba-height", "--q", "101", "--K", "2", "--dt", "0.1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert "unrecognized arguments: --dt 0.1" in err[-2]
    assert json.loads(err[-1]) == {"error": "config", "message": "invalid command line"}
    path = tmp_path / "run.cfg"
    path.write_text("q=101\nK=2\ndt=0.1\n")
    with pytest.raises(ConfigError, match="config key 'dt' is not a zaremba-height parameter"):
        capture(["zaremba-height", "--config", str(path), "--threads", "1"])


def test_main_invariant_failures_exit_2(capsys, monkeypatch):
    spec = _SUBCOMMANDS["kappa"]

    def broken(cfg):
        raise AssertionError("synthetic invariant breach")
        yield

    monkeypatch.setitem(_SUBCOMMANDS, "kappa", dataclasses.replace(spec, runner=broken))
    assert main(["kappa", "--threads", "1"]) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[0])["error"] == "invariant"

    def dropping(cfg):
        yield {"kappa": [1.0]}, None

    monkeypatch.setitem(_SUBCOMMANDS, "kappa", dataclasses.replace(spec, runner=dropping))
    assert main(["kappa", "--threads", "1"]) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[0]) == {
        "error": "invariant", "message": "runner dropped columns ['target', 'abs_err']"
    }


def test_a_lattice_error_exits_2(capsys, monkeypatch):
    spec = _SUBCOMMANDS["kappa"]

    def failing(cfg):
        raise LatticeError("synthetic kernel failure")
        yield

    monkeypatch.setitem(_SUBCOMMANDS, "kappa", dataclasses.replace(spec, runner=failing))
    assert main(["kappa", "--threads", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in err] == [{"error": "invariant", "message": "synthetic kernel failure"}]


@pytest.mark.parametrize("q, discrepancy", [(17, "0.613236487093"), (77, "0.127446096367"), (99, "0.118043818213")])
def test_fd_hist_rows_through_the_edge_ties(q, discrepancy, capsys):
    # the sample takes every residue, and the grid holds t = ln q, where the orbits of 1/q and
    # (q - 1)/q peak on the edge x = +-1/2
    assert main(["fd-hist", "--q", str(q)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert rows == ["q,dt,grid,sample_size,seed,cells,discrepancy", f"{q},0.05,24,600,0,536,{discrepancy}"]


@pytest.mark.parametrize("flags, config, err", [
    (["--t", "nan"], None, "argument --t: invalid _cast_float value: 'nan'"),
    (["--M", ","], None, "argument --M: invalid cast_list value: ','"),
    ([], "t=inf\n", None),
])
def test_non_finite_and_empty_values_are_config_errors(flags, config, err, capsys, tmp_path):
    argv = ["mass-escape", "--q", "101", "--M", "2", "--t", "3", "--threads", "1", *flags]
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = ["mass-escape", "--q", "101", "--M", "2", "--config", str(path)]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    if err is None:
        assert json.loads(lines[-1]) == {"error": "config", "message": "config key t: 'inf' is not finite"}
    else:
        assert err in lines[-2]
        assert json.loads(lines[-1]) == {"error": "config", "message": "invalid command line"}


def test_unequal_columns_exit_2(capsys, monkeypatch):
    spec = _SUBCOMMANDS["kappa"]

    def ragged(cfg):
        yield {"kappa": [1.0, 2.0], "target": [1.0, 2.0], "abs_err": [0.0]}, None

    monkeypatch.setitem(_SUBCOMMANDS, "kappa", dataclasses.replace(spec, runner=ragged))
    assert main(["kappa", "--threads", "1"]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err["error"] == "invariant" and "differ in length" in err["message"]


@pytest.mark.parametrize("error, code", [(RuntimeError, 2), (ValueError, 1), (MemoryError, 1), (OSError, 3)])
def test_failed_run_leaves_no_output_file(error, code, capsys, monkeypatch, tmp_path):
    spec = _SUBCOMMANDS["kappa"]

    def failing(cfg):
        yield {"kappa": [1.0], "target": [1.0], "abs_err": [0.0]}, None
        raise error("synthetic failure after the first block")

    monkeypatch.setitem(_SUBCOMMANDS, "kappa", dataclasses.replace(spec, runner=failing))
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"old bytes\n")
    for target in (fresh, kept):
        assert main(["kappa", "--threads", "1", "--output", str(target)]) == code
        assert capsys.readouterr().out == ""
    assert not fresh.exists()
    assert kept.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]
    # a path that is not a regular file is opened in place, as before
    assert main(["kappa", "--threads", "1", "--output", str(tmp_path)]) == 3
    assert json.loads(capsys.readouterr().err.splitlines()[0])["error"] == "io"
    monkeypatch.setitem(_SUBCOMMANDS, "kappa", spec)
    assert main(["kappa", "--threads", "1", "--output", str(kept)]) == 0
    assert kept.read_text().startswith("# cforbit ")
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]


def test_record_and_formatting_rules(capsys, monkeypatch):
    spec = _SUBCOMMANDS["kappa"]

    def unbounded(cfg):
        yield {"kappa": [1.0], "target": [math.inf], "abs_err": [0.0]}, None

    monkeypatch.setitem(_SUBCOMMANDS, "kappa", dataclasses.replace(spec, runner=unbounded))
    for fmt in ("csv", "json"):
        cfg = build_config(["kappa", "--threads", "1", "--format", fmt])
        with pytest.raises(ValueError, match="metric target is not finite"):
            emit(run(cfg), cfg, io.StringIO())
        assert main(["kappa", "--threads", "1", "--format", fmt]) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "config"


def test_non_finite_float_deep_in_a_block(capsys, monkeypatch):
    spec = _SUBCOMMANDS["kappa"]

    def third_row_nan(cfg):
        yield {"kappa": [1, 2, 3, 4], "target": [0.5, 0.25, math.nan, 0.125], "abs_err": ["a"] * 4}, None

    monkeypatch.setitem(_SUBCOMMANDS, "kappa", dataclasses.replace(spec, runner=third_row_nan))
    for fmt in ("csv", "json"):
        cfg = build_config(["kappa", "--threads", "1", "--format", fmt])
        with pytest.raises(ValueError, match="metric target is not finite"):
            emit(run(cfg), cfg, io.StringIO())
        assert main(["kappa", "--threads", "1", "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert not read_rows(out)[1]  # the block is refused whole
        assert json.loads(err.splitlines()[-1]) == {
            "error": "config", "message": "metric target is not finite"
        }


def test_json_cells_match_the_per_row_rendering(capsys, monkeypatch):
    spec = _SUBCOMMANDS["kappa"]
    # braces and % are literal text of a row's template, not fields of it
    histogram = {"grid": 2, "observed": np.array([0.25, 0.75]), "note": "{} %s"}
    blocks = [
        ({
            "kappa": ['a"b\\c', "é", "x,y"],
            "target": [1, 2.5, True],
            "abs_err": [np.float64(1 / 3), np.float64(-0.0), np.float64(1e-300)],
        }, None),
        ({"kappa": ["{h} %s"], "target": [False], "abs_err": [np.float64(2.0)]}, histogram),
    ]

    def synthetic(cfg):
        yield from blocks

    monkeypatch.setitem(_SUBCOMMANDS, "kappa", dataclasses.replace(spec, runner=synthetic))
    assert main(["kappa", "--threads", "1", "--format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    want = []
    for cells, h in blocks:
        for values in zip(*(cells[c] for c in spec.columns)):
            row = {"record": "row", **dict(zip(spec.columns, values))}
            want.append(_json_value(row if h is None else {**row, "histogram": h}))
    assert lines == want
    assert json.loads(lines[0])["kappa"] == 'a"b\\c' and json.loads(lines[3])["histogram"]["grid"] == 2
    assert main(["kappa", "--threads", "1"]) == 0
    csv_lines = capsys.readouterr().out.splitlines()[4:]
    assert csv_lines == [
        ",".join(map(_fmt, values))
        for cells, _ in blocks
        for values in zip(*(cells[c] for c in spec.columns))
    ]


def test_out_of_memory_is_a_config_error_line(capsys, monkeypatch):
    spec = _SUBCOMMANDS["zaremba-census"]

    def exhausted(cfg):
        raise MemoryError("Unable to allocate 745. GiB for an array")
        yield

    monkeypatch.setitem(_SUBCOMMANDS, "zaremba-census", dataclasses.replace(spec, runner=exhausted))
    assert main(["zaremba-census", "--q-max", "100000000000", "--K", "2", "--threads", "1"]) == 1
    assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
        "error": "config", "message": "out of memory: Unable to allocate 745. GiB for an array"
    }


def test_summary_counts_rows_not_blocks(capsys, monkeypatch):
    spec = _SUBCOMMANDS["kappa"]

    def three_blocks(cfg):
        for n in (3, 0, 2):
            yield {"kappa": [1.0] * n, "target": [2.0] * n, "abs_err": [1.0] * n}, None

    monkeypatch.setitem(_SUBCOMMANDS, "kappa", dataclasses.replace(spec, runner=three_blocks))
    for fmt in ("csv", "json"):
        assert main(["kappa", "--threads", "1", "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert "kappa: 5 rows, seed 0" in err
        assert len(read_rows(out)[1]) == 5


def test_census_export_spanning_row_blocks_matches_the_rows():
    Q = 3 * zaremba._ROW_BLOCK + 100
    census = zaremba.enumerate_bounded(Q, 2)
    rows = list(census.rows())
    assert rows[-1][0] > 3 * zaremba._ROW_BLOCK
    assert [sum(column, []) for column in zip(*census.row_blocks())] == [list(c) for c in zip(*rows)]
    argv = ["zaremba-census", "--q-max", str(Q), "--K", "2", "--threads", "1"]
    csv_lines = emit_text(argv).splitlines()[4:]
    assert csv_lines == [f"{q},{r},{s}" for q, r, s in rows]
    json_lines = emit_text(argv + ["--format", "json"]).splitlines()[1:]
    assert json_lines == [
        f'{{"record":"row","q":{q},"count_relaxed":{r},"count_strict":{s}}}' for q, r, s in rows
    ]


class _Float(float):
    def __format__(self, spec):
        return "subclass"


class _Int(int):
    def __repr__(self):
        return "subclass"

    __str__ = __repr__


@pytest.mark.parametrize(
    "value, text",
    [
        (True, "true"),
        (False, "false"),
        (0, "0"),
        (7, "7"),
        (-7, "-7"),
        (2**70, "1180591620717411303424"),
        (np.int64(5), "5"),
        (np.int32(5), "5"),
        (1 / 3, "0.333333333333"),
        (1e-300, "1e-300"),
        (-0.0, "-0"),
        (np.float64(1 / 3), "0.333333333333"),
        (np.float32(0.1), "0.10000000149"),
        (_Float(2.5), "2.5"),
        (_Int(9), "9"),
        ("a,b", "a,b"),
    ],
)
def test_fmt_exact_types_and_fallback(value, text):
    assert _fmt(value) == text


@pytest.mark.parametrize("value", [{}, None, np.bool_(True)])
def test_fmt_rejects_other_types(value):
    with pytest.raises(TypeError, match="cannot format"):
        _fmt(value)
