"""One benchmark batch in a fresh interpreter; prints its measurements as one JSON line.

Started by run.py with the checkout's ``src`` on PYTHONPATH and the
parent's monotonic clock reading at spawn time. Order of events:

1. import numpy and time a fixed pure-Python and numpy calibration loop;
   the loop's time is reported and subtracted from setup, never used to
   rescale anything;
2. import cforbit and draw the workload's seeded inputs (set-up);
3. with ``--trace 1``, wrap the layer targets;
4. run the timed batch, then read CPU time and the resident-memory peak;
5. unwrap and run the untimed checks.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np


def calibrate() -> dict:
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    a = np.arange(1_000_000, dtype=np.int64)
    for _ in range(10):
        a = (a * 3 + 1) % 1_000_003
    t2 = time.perf_counter()
    return {"python_ms": (t1 - t0) * 1e3, "numpy_ms": (t2 - t1) * 1e3}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "toy"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    c0 = time.monotonic()
    calibration = calibrate()
    calib_s = time.monotonic() - c0

    import cforbit
    import workloads
    from tracer import Tracer

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.commonpath([os.path.abspath(cforbit.__file__), src]) != src:
        print(f"cforbit imported from {cforbit.__file__}, not from {src}", file=sys.stderr)
        return 2

    batch, verify, pins = workloads.prepare(args.workload, args.size, args.seed)
    tally = workloads.Tally(pins)
    tracer = Tracer(workloads.TARGETS) if args.trace else None
    if tracer:
        tracer.install()

    setup_s = time.monotonic() - args.spawned - calib_s
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    batch(tally)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "traced": bool(args.trace),
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": cpu_s,
        "calibration": calibration,
        "numpy": np.__version__,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.report()
        result["spans"] = tracer.spans
        result["untraced_targets"] = tracer.missing
    verify(tally)
    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
