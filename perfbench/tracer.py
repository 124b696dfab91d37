"""Call timing around cforbit's public functions, installed from outside the package.

The tracer replaces each target function with a timing wrapper in every
``cforbit`` module namespace that holds it (so the copies that ``cli``
and ``stats`` imported by name are wrapped too), and restores the
originals on ``uninstall``.

Every wrapped call is folded into per-name counters: calls, busy time,
self time (busy time minus the time of wrapped calls nested inside it),
named item counts and a latency histogram with 1/16-octave buckets.
Coarse calls additionally keep a span (name, start, end, parent span) in
memory; per-fraction calls, which number in the millions, keep no span,
so a traced run's memory stays bounded.
"""
from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# items(args, kwargs, result) -> {counter: amount}
Items = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``attr`` of ``cforbit.<module>``, or ``Class.method``."""

    name: str
    module: str
    attr: str
    coarse: bool
    items: Items
    # derives the metric name from the call's arguments, in place of name
    key: Optional[Callable[[tuple], str]] = None
    # the callable returns a generator: drain it inside the timed call
    generator: bool = False


@dataclass
class Stat:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    counters: dict = field(default_factory=dict)
    hist: dict = field(default_factory=dict)

    def quantile_us(self, share: float) -> float:
        """Upper edge of the histogram bucket that holds the given share of calls."""
        if not self.calls:
            return 0.0
        rank = share * self.calls
        seen = 0
        for low in sorted(self.hist):
            seen += self.hist[low]
            if seen >= rank:
                return _bucket_high(low) / 1000.0
        return 0.0


def _bucket(ns: int) -> int:
    """Lower edge of the bucket of ns: its top five binary digits."""
    shift = max(ns.bit_length() - 5, 0)
    return (ns >> shift) << shift


def _bucket_high(low: int) -> int:
    shift = max(low.bit_length() - 5, 0)
    return low + (1 << shift)


class _Stacks(threading.local):
    """Per thread: child time of each open wrapped call ([0] is the root), and open span ids."""

    def __init__(self):
        self.frames = [0]
        self.open: list[int] = []


def _covered(intervals: list, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Build it, ``install`` it, run the work, ``uninstall`` it, read ``report`` and ``spans``.

    A wrapped call made at the top of another thread (a worker of the
    CLI's thread pool) gets the innermost open span of the installing
    thread as its parent; that parent's self time loses the part of its
    interval that such calls cover, counted once however many overlap.
    """

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent span or -1]
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._stacks = _Stacks()
        self._main_open = self._stacks.open
        self._foreign: dict[int, list] = {}  # parent span -> intervals of other threads' calls
        self._lock = threading.Lock()
        self._t0 = time.perf_counter_ns()

    def _stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, fn, target: Target):
        name = target.name
        clock = time.perf_counter_ns
        stacks, main_open, foreign, lock = self._stacks, self._main_open, self._foreign, self._lock
        spans = self.spans
        t_origin = self._t0
        stat = self._stat(name) if target.key is None else None
        key, items, coarse, drain = target.key, target.items, target.coarse, target.generator

        def wrapper(*args, **kwargs):
            nm = name if key is None else key(args)
            frames, opened = stacks.frames, stacks.open
            if opened:
                parent, cross = opened[-1], False
            elif opened is not main_open and main_open:
                parent, cross = main_open[-1], True
            else:
                parent, cross = -1, False
            if coarse:
                with lock:
                    span = len(spans)
                    spans.append([nm, 0, 0, parent])
                opened.append(span)
            frames.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if drain:
                    out = iter(list(out))
            finally:
                dur = clock() - t0
                child = frames.pop()
                frames[-1] += dur
                if coarse:
                    opened.pop()
                with lock:
                    st = stat if key is None else self._stat(nm)
                    st.calls += 1
                    st.busy_ns += dur
                    st.self_ns += dur - child
                    b = _bucket(dur)
                    st.hist[b] = st.hist.get(b, 0) + 1
                    if cross:
                        foreign.setdefault(parent, []).append((t0, t0 + dur))
                    if coarse:
                        spans[span][1] = t0 - t_origin
                        spans[span][2] = t0 + dur - t_origin
                        if span in foreign:
                            st.self_ns -= _covered(foreign.pop(span), t0, t0 + dur)
            counts = items(args, kwargs, out)
            with lock:
                for k, v in counts.items():
                    st.counters[k] = st.counters.get(k, 0) + v
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "cforbit" or n.startswith("cforbit.")}
        for t in self.targets:
            owner = mods.get(f"cforbit.{t.module}")
            path = t.attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            orig = getattr(owner, path[-1], None) if owner is not None else None
            if orig is None:
                self.missing.append(t.name)
                continue
            wrapped = self._wrap(orig, t)
            if len(path) > 1:  # a method: patch the class once
                self._patch(owner, path[-1], orig, wrapped)
                continue
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def report(self) -> dict:
        """Per name: calls, busy_s, self_s, p50_us, p99_us and the named counters."""
        out = {}
        for name, st in self.stats.items():
            row = {
                "calls": st.calls,
                "busy_s": st.busy_ns / 1e9,
                "self_s": st.self_ns / 1e9,
                "p50_us": st.quantile_us(0.50),
                "p99_us": st.quantile_us(0.99),
            }
            row.update(st.counters)
            out[name] = row
        return out
