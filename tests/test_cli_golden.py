"""Golden corpus: every subcommand, CSV and JSON, compared byte for byte.

The files under tests/golden/ are the exact output of `emit` for the
argv below plus `--format <fmt> --threads 1`, `# config` line included.
They pin the record stream, the column order, the number formatting and
the config echo (its keys follow each subcommand's parameter order, not
the order of the ExperimentConfig fields).
"""
import io
import shlex
from pathlib import Path

import pytest

from cforbit.cli import _SUBCOMMANDS, build_config, emit, run

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "cfe": "--p 113 --q 355",
    "sweep-len": "--q 101,1009 --bins 64",
    "sweep-digits": "--q 101",
    "dispersion": "--q 101,1009 --delta 0.1",
    "orbit": "--p 7 --q 19 --dt 0.1 --t-max 3",
    "cross-section": "--p 113 --q 355",
    "kappa": "--output -",
    "mass-escape": "--q 997 --M 2,3 --t 4",
    "fd-hist": "--q 101 --dt 0.1 --grid 6 --sample-size 20 --seed 3",
    "haar-selftest": "--n 5000 --grid 6 --seed 1",
    "zaremba-census": "--q-max 200 --K 2",
    "zaremba-height": "--q 101,211 --K 2",
    "symmetry-check": "--q-max 60",
}


def render(sub: str, fmt: str) -> str:
    cfg = build_config([sub, *shlex.split(CASES[sub]), "--format", fmt, "--threads", "1"])
    buf = io.StringIO()
    emit(run(cfg), cfg, buf)
    return buf.getvalue()


def test_corpus_covers_every_subcommand():
    assert set(CASES) == set(_SUBCOMMANDS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("sub", sorted(CASES))
def test_output_matches_golden_file(sub, fmt):
    expected = (GOLDEN / f"{sub}.{fmt}").read_text(encoding="utf-8")
    assert render(sub, fmt) == expected
