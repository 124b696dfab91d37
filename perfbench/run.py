"""cforbit benchmark: one workload, measured for a fixed time, checked, reported as JSON.

    python3 perfbench/run.py --workload exact-words --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. This parent process starts one child
interpreter per batch (perfbench/child.py), one after another, until
``--seconds`` have passed and at least three batches have run: a closed
loop with one caller. Each child pays the whole set-up a user pays for
one experiment: interpreter start, ``import cforbit`` with numpy and
mpmath, and input generation.

``--trace 0`` reports the end-to-end metrics: medians over the batches
of wall_s (the timed batch), setup_s (child start to the first timed
call, without the calibration loop) and peak_rss_mb (the child's own
getrusage high-water mark). ``--trace 1`` alternates untraced and traced
batches and reports the per-layer metrics, medians over the traced
batches, with the tracing overhead as traced minus untraced wall_s.

Every line before the last is a diagnostic: the machine, one line per
batch (with its calibration times, to make drift visible) and a summary
with units. The last line is the result object. A failed check makes
``correct`` false and the exit code 1; a batch that crashes or a
checkout without ``src/cforbit`` exits non-zero without a result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("exact-words", "full-sweep", "orbit-geometry", "census")
DEFAULT_SEED = 20250817
MIN_BATCHES = 3
BUDGET_S = 150.0  # no new batch starts if the last one would end past this
CHILD_TIMEOUT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Layer functions the workloads call at least 1000 times get latency quantiles.
MANY_CALLS = (
    "cfe.ReducedFraction", "cfe.cfe_digits", "cfe.from_digits", "cfe.gauss_map",
    "arith.count_coprime_upto", "arith.factorize_with_spf", "arith.euler_phi",
    "lattice.verify_symmetry", "lattice.fd_point_floats",
)
FEW_CALLS = (
    "crosssec.crossing_sequence", "crosssec.detect_crossings_numeric",
    "stats.len_stats", "stats.dispersion", "stats.orbit_fd_histogram",
    "stats.averaged_height_tail", "stats.mass_escape_count",
    "zaremba.brute_force_censuses", "zaremba.enumerate_bounded",
    "zaremba.ZarembaCensus.merge", "zaremba.height_bound_check", "zaremba.members",
)
# Functions that nest other wrapped calls also get self time.
NESTING = (
    "cfe.gauss_map", "cfe.from_digits", "stats.orbit_fd_histogram",
    "stats.averaged_height_tail", "zaremba.height_bound_check",
)
CLI_SUBCOMMANDS = ("sweep-len", "sweep-digits", "dispersion", "fd-hist", "zaremba-census")
UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "items": "count", "p50_us": "us",
    "p99_us": "us", "escalations": "count", "member_share": "ratio", "rows": "count",
    "bytes": "bytes",
}


def per_layer_names() -> list[str]:
    names = []
    for fn in MANY_CALLS + FEW_CALLS:
        names += [f"{fn}.calls", f"{fn}.busy_s", f"{fn}.items"]
        if fn in MANY_CALLS:
            names += [f"{fn}.p50_us", f"{fn}.p99_us"]
        if fn in NESTING:
            names.append(f"{fn}.self_s")
    names += ["stats.mass_escape_count.escalations", "zaremba.brute_force_censuses.member_share"]
    for sub in CLI_SUBCOMMANDS:
        names += [
            f"cli.build_config.{sub}.busy_s", f"cli.run.{sub}.busy_s", f"cli.run.{sub}.self_s",
            f"cli.emit.{sub}.busy_s", f"cli.emit.{sub}.rows", f"cli.emit.{sub}.bytes",
        ]
    return names


PER_LAYER = [(n, UNITS[n.rpartition(".")[2]]) for n in per_layer_names()] + [
    ("process.cpu_s", "s"),
    ("error_rate", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def layer_value(layers: dict, name: str) -> float:
    fn, _, field = name.rpartition(".")
    row = layers.get(fn, {})
    if field == "member_share":
        return row["members"] / row["items"] if row.get("items") else 0.0
    return row.get(field, 0)


def machine() -> dict:
    def getconf(key: str):
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


def run_batch(workload: str, seed: int, size: str, traced: bool) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts in every batch
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--size", size, "--trace", str(int(traced)), "--spawned", repr(time.monotonic()),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"batch exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args()

    if not (ROOT / "src" / "cforbit" / "__init__.py").is_file():
        print(f"no cforbit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    size = "toy" if args.toy else "full"
    kinds = (False, True) if args.trace else (False,)
    batches: dict[bool, list] = {k: [] for k in kinds}
    info = machine()
    print("machine " + json.dumps(info), flush=True)
    start = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        done = all(len(batches[k]) >= MIN_BATCHES for k in kinds)
        if (done and elapsed >= args.seconds) or (batches[False] and elapsed + last > BUDGET_S):
            break
        traced = kinds[sum(map(len, batches.values())) % len(kinds)]
        t = time.monotonic()
        try:
            res = run_batch(args.workload, args.seed, size, traced)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
            print(f"{args.workload}: {e}", file=sys.stderr)
            return 2
        last = time.monotonic() - t
        batches[traced].append(res)
        cal = res["calibration"]
        print(
            f"batch traced={int(traced)} wall_s={res['wall_s']:.4f} setup_s={res['setup_s']:.4f} "
            f"peak_rss_mb={res['peak_rss_mb']:.1f} cpu_s={res['cpu_s']:.4f} "
            f"calib_python_ms={cal['python_ms']:.2f} calib_numpy_ms={cal['numpy_ms']:.2f} "
            f"ops={res['attempted']} failed={res['failed']}",
            flush=True,
        )
        for msg in res["failures"]:
            print(f"{args.workload}: check failed: {msg}", file=sys.stderr)

    every = [b for k in kinds for b in batches[k]]
    attempted = sum(b["attempted"] for b in every)
    failed = sum(b["failed"] for b in every)
    plain = batches[False]

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    summary = {name: med(plain, name) for name, _ in END_TO_END}
    error_rate = failed / attempted if attempted else 1.0
    units = dict(PER_LAYER if args.trace else END_TO_END)
    if args.trace:
        traced = batches[True]
        metrics = {
            name: statistics.median(layer_value(b["layers"], name) for b in traced)
            for name in per_layer_names()
        }
        metrics["process.cpu_s"] = med(plain, "cpu_s")
        metrics["error_rate"] = error_rate
        metrics["trace.wall_s"] = med(traced, "wall_s")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - summary["wall_s"]
        for name in traced[0]["untraced_targets"]:
            print(f"{args.workload}: layer target {name} not found; its metrics read 0", file=sys.stderr)
    else:
        metrics = dict(summary)

    for name, unit in END_TO_END:
        print(f"{name} {summary[name]:.6g} {unit}")
    print(f"error_rate {error_rate:.6g} ratio ({failed} of {attempted} operations failed)")
    print(f"process.cpu_s {med(plain, 'cpu_s'):.6g} s")
    if args.trace:
        print(f"trace.overhead_s {metrics['trace.overhead_s']:.6g} s")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "size": size, "trace": args.trace,
        "machine": dict(info, numpy=every[0]["numpy"]), "batches": every,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
