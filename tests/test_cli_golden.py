"""Golden corpus: every subcommand, CSV and JSON, compared byte for byte.

The files under tests/golden/ are the exact output of `emit` for the
argv below plus `--format <fmt> --threads 1`, `# config` line included.
They pin the record stream, the column order, the number formatting and
the config echo (its keys follow each subcommand's parameter order, not
the order of the ExperimentConfig fields).
"""
import hashlib
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


# larger exports than the corpus reaches, as sha256 of the whole output
# (`# config` line included) for argv + `--format <fmt> --threads <n>`
FROZEN_DIGESTS = {
    ("zaremba-census --q-max 20000 --K 3", "csv", 1): "6491c422a780414c63c282993ca515c5d52348df599208a7d2b09b5c77823d85",
    ("zaremba-census --q-max 20000 --K 3", "csv", 2): "916905fd66434f40d41ca9a58276bd65a2c89c62e4a76d7018a322f80c86067e",
    ("zaremba-census --q-max 20000 --K 3", "json", 1): "c41373cbb2a04fdb6858cba7adb93aa5e724742521845d798b9daa0027929d3c",
    ("zaremba-census --q-max 20000 --K 3", "json", 2): "986afcf2110a7d1f19f41354958b60ed38808f365d2b243bc7197465a890b7fe",
    ("sweep-digits --q 10007", "csv", 1): "d09bd607d7178f46515e0982ec916523c2ec1c1b847f2153228d878d5d00a247",
    ("sweep-digits --q 10007", "json", 1): "cf3178dfe531cc5f390f69b4504691e4b19a3a759835c052eb12cf7bd5d58fb6",
    ("orbit --p 3571 --q 10007 --dt 0.01", "csv", 1): "b3c10f3d40e6be77c9ae86b014e60c810d481e835560ca4ded85d471825ed2c1",
    ("orbit --p 3571 --q 10007 --dt 0.01", "json", 1): "1e2fa290ddd673164806a6726117ed6526981d6d9aa92464538542e64d7ab626",
    ("mass-escape --q 10007 --M 1.5,2,3,5 --t 3", "csv", 1): "6e585c352bcba9d2d761e7eb0f46fa6bbf12785e7ecb222fee77cbdeaeccc3cd",
    ("mass-escape --q 10007 --M 1.5,2,3,5 --t 3", "json", 1): "959fab203766881550230ec0e8bae647357da195b0fd2ba63bccd14d0722ab40",
}


def render_argv(argv: str, fmt: str, threads: int = 1) -> str:
    cfg = build_config([*shlex.split(argv), "--format", fmt, "--threads", str(threads)])
    buf = io.StringIO()
    emit(run(cfg), cfg, buf)
    return buf.getvalue()


def render(sub: str, fmt: str) -> str:
    return render_argv(f"{sub} {CASES[sub]}", fmt)


def test_corpus_covers_every_subcommand():
    assert set(CASES) == set(_SUBCOMMANDS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("sub", sorted(CASES))
def test_output_matches_golden_file(sub, fmt):
    expected = (GOLDEN / f"{sub}.{fmt}").read_text(encoding="utf-8")
    assert render(sub, fmt) == expected


@pytest.mark.parametrize("argv, fmt, threads", sorted(FROZEN_DIGESTS))
def test_large_exports_are_frozen(argv, fmt, threads):
    text = render_argv(argv, fmt, threads)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FROZEN_DIGESTS[argv, fmt, threads]
