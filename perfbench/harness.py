"""Shared machinery of the benchmark: metric catalogue, timing, tracing.

Everything here is workload-agnostic.  ``BENCHMARK.json`` at the
repository root is the one source of the workloads and the metric
catalogue (:data:`WORKLOADS`, :data:`END_TO_END`, :data:`PER_LAYER`);
the workload modules fill a :class:`WorkloadResult`, with the
end-to-end timings put at the reference host speed (:class:`HostProbe`),
and ``run.py`` prints it.

Per-layer timing never edits the program: :class:`Recorder` swaps a
timing wrapper in for a public function or method while a traced item
runs and puts the original back afterwards, keeping every span
in memory until the run ends.  A traced run interleaves untraced and
traced work item by item (:func:`interleave`), so the tracing overhead
is measured under the same host conditions on both sides.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import math
import resource
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

MANIFEST_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
_MANIFEST = json.loads(MANIFEST_PATH.read_text())

#: workload names, in manifest order
WORKLOADS: list[str] = [w["name"] for w in _MANIFEST["workloads"]]
#: end-to-end metric name -> unit; every workload reports every one.
#: An "item" is a grid cell (static-grid), one DynamicDriver.run over
#: one of the workload's streams (dynamic-*), or one request (serve-mixed).
END_TO_END: dict[str, str] = {m["name"]: m["unit"] for m in _MANIFEST["end_to_end"]}
#: per-layer metric name -> unit of the traced run; a layer a workload
#: does not use reads 0
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in _MANIFEST["per_layer"]}
RUN_SECONDS: int = _MANIFEST["run_seconds"]

#: how many times each workload sets up per run (setup_s is the median)
SETUP_REPEATS = 3

#: the median time of one reference computation on the reference host;
#: end-to-end timings are scaled to it (:class:`HostProbe`)
REFERENCE_PROBE_S = 0.0015
#: the probe runs between items at most this often
PROBE_EVERY_S = 0.25


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class WorkloadResult:
    """What one workload run measured and checked.

    ``end_to_end`` and ``per_layer`` map catalogue names to values;
    ``notes`` are extra human-readable rows (workload-specific names
    such as ``cells_per_s``) printed above the JSON line.
    """

    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    notes: list[tuple[str, float, str]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Count one failed item and keep the first few reasons."""
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
_RNG = np.random.default_rng(0)
_PROBE_SMALL = _RNG.random(64)
_PROBE_MID = _RNG.random(5120)
_PROBE_MID_INDEX = _RNG.integers(0, 5120, size=5120)


def _reference_computation() -> None:
    """Fixed interpreter-bound work, about 1.5 ms in all.

    Pure-Python dict and int operations; small-array numpy calls whose
    cost is interpreter overhead; elementwise passes and a scatter-add
    over link-sized (5,120-element) arrays.  The host's slow states slow
    this kind of work the most, as they do the program, and memory-bound
    work (large sorts, gathers, fresh pages) less.  It never changes, so
    its time measures the host alone.
    """
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    a = _PROBE_SMALL
    for _ in range(100):
        a = np.minimum(a, a[::-1]) + 0.5
        a = a[np.argsort(a)]
    b = _PROBE_MID
    for _ in range(12):
        b = b * 1.0001 + 0.5
        b = np.where(b > 0.7, b - 0.2, b)
        b = b + np.bincount(_PROBE_MID_INDEX, weights=b, minlength=5120) * 1e-9


class HostProbe:
    """How much slower than the reference host this host runs, over time.

    The host is shared, and its speed moves between states up to 1.8x
    apart that last from seconds to minutes; every timing of the program
    moves with it.  Between items, never inside a timed span, the probe
    times :func:`_reference_computation` (the median of three) at most
    every :data:`PROBE_EVERY_S`, and once after every set-up.  A
    sample's slowdown is its time over :data:`REFERENCE_PROBE_S`; an
    item's is interpolated between the samples around it
    (:meth:`slowdowns_at`).  Dividing a time by its slowdown gives the
    time the reference host would have shown.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.slowdowns: list[float] = []
        self._last = -math.inf

    def reset(self) -> None:
        self.stamps.clear()
        self.slowdowns.clear()
        self._last = -math.inf

    def sample(self) -> float:
        """Time the reference computation now; returns the slowdown."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_computation()
            times.append(time.perf_counter() - t0)
        self._last = time.perf_counter()
        slowdown = float(np.median(times)) / REFERENCE_PROBE_S
        self.stamps.append(self._last)
        self.slowdowns.append(slowdown)
        return slowdown

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def slowdowns_at(self, stamps) -> np.ndarray:
        """The slowdown at each ``perf_counter`` time, interpolated."""
        return np.interp(np.asarray(stamps, dtype=np.float64), self.stamps, self.slowdowns)

    def median(self) -> float:
        return float(np.median(self.slowdowns))


#: the process's probe; ``run.py`` resets it before each workload
PROBE = HostProbe()


class ItemTimes(list):
    """Item durations in seconds, each stamped with when it ended."""

    def __init__(self) -> None:
        super().__init__()
        self.ends: list[float] = []

    def append(self, seconds: float) -> None:
        self.ends.append(time.perf_counter())
        super().append(seconds)

    def at_reference_speed(self) -> np.ndarray:
        """Each duration over the host's slowdown at its midpoint."""
        seconds = np.asarray(self, dtype=np.float64)
        return seconds / PROBE.slowdowns_at(np.asarray(self.ends) - seconds / 2)


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def overhead_share(traced, untraced) -> float:
    """Mean traced item time over mean untraced item time, minus one."""
    return float(np.mean(traced)) / float(np.mean(untraced)) - 1


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: A unit of work: a generator function that yields once after each item.
Unit = Callable[[], Iterator[None]]

_DONE = object()


def _drain(unit: Unit) -> None:
    """Run one unit of work, probing the host between its items."""
    for _ in unit():
        PROBE.maybe_sample()


def run_units(seconds: float, unit: Unit) -> int:
    """Run whole units of work until ``seconds`` have elapsed (at least one).

    The host is probed before the first item and after the last, so
    every item lies between two samples.
    """
    PROBE.sample()
    deadline = time.perf_counter() + seconds
    units = 0
    while True:
        _drain(unit)
        units += 1
        if time.perf_counter() >= deadline:
            PROBE.sample()
            return units


def interleave(seconds: float, untraced: Unit, traced: Unit) -> int:
    """Warm up with one untraced unit, then run untraced and traced units side by side.

    The two units of a pair do the same work and advance item by item.
    Which side goes first flips at every item, across pairs too, so each
    item runs first as often on one side as on the other: a change in
    host speed, and the caches the first run of an item warms for the
    second, hit both sides alike.  The warm-up pays the one-off costs of
    a process's first unit, which would otherwise count against one side
    only; callers leave its items out of the comparison.  Runs pairs
    until ``seconds`` have elapsed and returns their number, the number
    of traced units.
    """
    _drain(untraced)
    lead = 0

    def pair() -> Iterator[None]:
        nonlocal lead
        steps = (untraced(), traced())
        while next(steps[lead], _DONE) is not _DONE:
            next(steps[1 - lead])
            lead = 1 - lead
            yield

    return run_units(seconds, pair)


def timed_setups(setup: Callable[[], object]):
    """Set up :data:`SETUP_REPEATS` times; returns ``(last_state, median_s)``.

    Each set-up's time is put at the reference host speed with a probe
    sample taken right after it.  Each state is dropped before the next
    set-up starts, so only the last one lives on into the timed phase.
    """
    durations = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = setup()
        took = time.perf_counter() - t0
        durations.append(took / PROBE.sample())
    return state, float(np.median(durations))


def end_to_end(
    result: WorkloadResult,
    setup_s: float,
    items: ItemTimes,
    tail_q: float,
    work: float | None = None,
) -> np.ndarray:
    """Fill the end-to-end metrics from the untraced items' durations.

    ``setup_s`` is already at the reference host speed; every item is put
    there with :meth:`ItemTimes.at_reference_speed`.  ``items_per_s`` is
    ``work`` (by default one per item) per second of item time;
    ``item_p50_ms`` and ``item_tail_ms`` are percentiles over the items.
    The wall-clock figures are added as ``wall_*`` rows.  Returns the
    durations at the reference speed.
    """
    scaled = items.at_reference_speed()
    wall = np.asarray(items, dtype=np.float64)
    work = len(items) if work is None else work
    result.end_to_end.update(
        {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "success_rate": (result.attempted - result.failed) / max(result.attempted, 1),
            "items_per_s": work / float(scaled.sum()) if len(items) else 0.0,
            "item_p50_ms": percentile(scaled, 50) * 1e3,
            "item_tail_ms": percentile(scaled, tail_q) * 1e3,
        }
    )
    result.notes += [
        ("wall_items_per_s", work / float(wall.sum()) if len(items) else 0.0, "1/s"),
        ("wall_item_p50_ms", percentile(wall, 50) * 1e3, "ms"),
        ("wall_item_tail_ms", percentile(wall, tail_q) * 1e3, "ms"),
        ("host_slowdown", PROBE.median(), "ratio"),
        ("host_probes", len(PROBE.slowdowns), "count"),
    ]
    return scaled


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class GCMonitor:
    """Time spent in the cyclic garbage collector, via ``gc.callbacks``.

    Totals accumulate over every ``with`` block the monitor is entered in.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> GCMonitor:
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


@contextlib.contextmanager
def swap_engine(name: str, wrap_factory: Callable[[Callable], Callable]) -> Iterator[None]:
    """Register engine ``name`` with its factory wrapped, and restore it on exit."""
    from repro.sim.engines import ENGINES, register_engine

    original = ENGINES.get(name)
    register_engine(replace(original, factory=wrap_factory(original.factory)), override=True)
    try:
        yield
    finally:
        register_engine(original, override=True)


class Recorder:
    """In-memory spans around calls into the program's public functions.

    A span is ``(name, start, duration, depth)``; depth 0 is the timed
    item itself (a cell, a request), depth 1 the layer calls directly
    inside it.  A wrapped function re-entered while a span of the same
    name is open records nothing, so a layer's total is the time of its
    outermost calls.  Spans stay in memory until :meth:`write`, in
    parallel lists of strings, floats and ints, none of which the cyclic
    garbage collector tracks — a list of span tuples would grow the heap
    every gen-2 collection walks and inflate ``python.gc_s``.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.durations_s: list[float] = []
        self.depths: list[int] = []
        self._open: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._epoch = time.perf_counter()

    # -- spans -----------------------------------------------------------
    def begin(self, name: str) -> float:
        self._open.append(name)
        return time.perf_counter()

    def end(self, name: str, t0: float) -> float:
        duration = time.perf_counter() - t0
        self._open.pop()
        self.names.append(name)
        self.starts.append(t0 - self._epoch)
        self.durations_s.append(duration)
        self.depths.append(len(self._open))
        return duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn, updated=())
        def timed(*args, **kwargs):
            if name in recorder._open:
                return fn(*args, **kwargs)
            t0 = recorder.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end(name, t0)

        return timed

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as span ``name`` until :meth:`restore`."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reads -----------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [d for n, d in zip(self.names, self.durations_s) if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def count(self, name: str) -> int:
        return self.names.count(name)

    def covered(self) -> float:
        """Time inside depth-1 spans: item time some named layer accounts for."""
        return sum(d for d, depth in zip(self.durations_s, self.depths) if depth == 1)

    def write(self, path: Path) -> Path:
        """Write the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, duration, depth in zip(
                self.names, self.starts, self.durations_s, self.depths
            ):
                span = {"name": name, "start": start, "duration": duration, "depth": depth}
                out.write(json.dumps(span) + "\n")
        return path
