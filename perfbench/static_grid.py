"""The ``static-grid`` workload: the paper's scheme grid, closed loop.

One caller evaluates the grid cell by cell through
:func:`repro.api.evaluate_scenario`, with one ``RouteTableCache`` and
one crossbar memo per pass over the grid — the way ``run_sweep`` runs
a single worker.  A pass is the unit of work: the run repeats whole
passes until its time is spent, so every pass does identical work and
the per-cell percentiles pool the passes.

The grid (full size):

* the paper's slimmed family ``XGFT(2;16,16;1,{16,8,4})`` x five
  patterns x ``s-mod-k``/``d-mod-k`` (seed 0) and ``random``,
  ``r-nca-u``, ``r-nca-d`` (two seeds each) — 120 cells, 24 table
  builds;
* one fault column: ``r-nca-d`` under ``links:rate=0.05,seed=1`` on every
  (topology, pattern) row — 15 cells that realize and repair faults;
* 12 general-graph cells: two 32-host fabrics x ``random-walk`` /
  ``racke-tree`` x three patterns — 4 table builds.

About a fifth of the cells build a table, so ``item_tail_ms`` (p90)
falls inside the build mode, not on the edge between the two modes.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from harness import (
    GCMonitor,
    ItemTimes,
    Recorder,
    WorkloadResult,
    end_to_end,
    interleave,
    overhead_share,
    percentile,
    run_units,
    swap_engine,
    timed_setups,
)

GOLDEN_PATH = Path(__file__).with_name("golden_static.json")

FAULTS = "links:rate=0.05,seed=1"
XGFT_METRICS = ("max_link_load", "mean_link_load", "max_network_contention", "sim_time", "slowdown")
GRAPH_METRICS = (
    "max_link_load",
    "sim_time",
    "slowdown",
    "max_congestion",
    "congestion_lower_bound",
    "competitive_ratio",
)
DETERMINISTIC = ("s-mod-k", "d-mod-k")
RANDOMIZED = ("random", "r-nca-u", "r-nca-d")
GRAPH_SCHEMES = ("random-walk", "racke-tree")

SIZES = {
    "full": {
        "topologies": ("XGFT(2;16,16;1,16)", "XGFT(2;16,16;1,8)", "XGFT(2;16,16;1,4)"),
        "patterns": ("bit-reversal", "transpose", "shift(d=17)", "wrf", "cg"),
        "seeds": 2,
        "graphs": (
            "leafspine(leaves=8,spines=4,hosts=4,fail=3,seed=1)",
            "random-regular(switches=16,degree=4,hosts=2,seed=3)",
        ),
        "graph_patterns": ("bit-reversal", "shift(d=17)", "bit-complement"),
    },
    "smoke": {
        "topologies": ("XGFT(2;16,16;1,4)",),
        "patterns": ("bit-reversal", "shift(d=17)"),
        "seeds": 1,
        "graphs": ("leafspine(leaves=4,spines=2,hosts=4,fail=1,seed=1)",),
        "graph_patterns": ("bit-reversal",),
    },
}


@dataclass(frozen=True)
class Cell:
    topology: str
    pattern: str
    algorithm: str
    seed: int
    faults: str = "none"
    graph: bool = False

    @property
    def run_id(self) -> str:
        from repro.api import format_run_id

        return format_run_id(self.topology, self.pattern, self.algorithm, self.seed, self.faults)


def plan(size: str, seed: int) -> list[Cell]:
    """The grid of one pass, memo-key contiguous like the sweep planner's."""
    p = SIZES[size]
    # randomized schemes take distinct seeds per run seed; table build
    # cost does not depend on the seed value
    seeds = [seed * p["seeds"] + k for k in range(p["seeds"])]
    cells: list[Cell] = []
    for topo in p["topologies"]:
        for alg in DETERMINISTIC:
            cells += [Cell(topo, pat, alg, 0) for pat in p["patterns"]]
        for alg in RANDOMIZED:
            for s in seeds:
                cells += [Cell(topo, pat, alg, s) for pat in p["patterns"]]
                if alg == "r-nca-d" and s == seeds[0]:
                    cells += [Cell(topo, pat, alg, s, FAULTS) for pat in p["patterns"]]
    for topo in p["graphs"]:
        for alg in GRAPH_SCHEMES:
            cells += [Cell(topo, pat, alg, seed, graph=True) for pat in p["graph_patterns"]]
    return cells


def _validate(cells: list[Cell]) -> None:
    """Resolve every spec of the grid before timing (the planner's check)."""
    from repro.core.factory import make_algorithm
    from repro.faults import parse_fault_spec
    from repro.patterns.registry import resolve_pattern
    from repro.topology.registry import resolve_topology

    for topo_spec in sorted({c.topology for c in cells}):
        topo = resolve_topology(topo_spec)
        for pat in sorted({c.pattern for c in cells if c.topology == topo_spec}):
            resolve_pattern(pat, topo.num_leaves)
        for alg in sorted({c.algorithm for c in cells if c.topology == topo_spec}):
            make_algorithm(alg, topo, seed=0)
    for faults in sorted({c.faults for c in cells}):
        parse_fault_spec(faults)


# ----------------------------------------------------------------------
# Checks (outside every timed span)
# ----------------------------------------------------------------------
def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


def check_cell(cell: Cell, res, cache, checked_keys: set, golden: dict) -> str | None:
    """``None`` if the cell's output passes, else the reason it fails."""
    m = res.metrics
    sim_time, slowdown = m.get("sim_time"), m.get("slowdown")
    if not (isinstance(sim_time, float) and sim_time > 0 and math.isfinite(sim_time)):
        return f"sim_time {sim_time!r}"
    if not slowdown >= 1 - 1e-9:
        return f"slowdown {slowdown!r} < 1"
    key = res.scenario.memo_key
    if key not in checked_keys:
        # every ordered pair of distinct leaves has a route
        rows = cache.row_index(key)
        n = res.scenario.topo.num_leaves
        off_diagonal = ~np.eye(n, dtype=bool).ravel()
        if (rows[off_diagonal] < 0).any():
            return "all-pairs table misses a pair"
        checked_keys.add(key)
    if cell.graph:
        if not m["competitive_ratio"] >= 1 - 1e-9:
            return f"competitive_ratio {m['competitive_ratio']!r} < 1"
        if not m["congestion_lower_bound"] <= m["max_congestion"] * (1 + 1e-9):
            return "congestion_lower_bound above max_congestion"
    if cell.faults != "none":
        info = res.fault_info
        if info["broken_flows"] != info["repaired_flows"] + info["disconnected_flows"]:
            return f"fault accounting {info}"
        if info["failed_cables"] <= 0:
            return "fault column failed no cable"
    elif cell.algorithm in DETERMINISTIC:
        want = golden.get(cell.run_id)
        if want is None:
            return "no golden value"
        if not (_close(sim_time, want["sim_time"]) and _close(slowdown, want["slowdown"])):
            return f"sim_time/slowdown {sim_time!r}/{slowdown!r} != golden {want}"
    return None


# ----------------------------------------------------------------------
# The traced layers
# ----------------------------------------------------------------------
def _traced_cache(recorder: Recorder):
    """A ``RouteTableCache`` that times every build, by the scheme's package."""
    from repro.api import RouteTableCache

    class TracedCache(RouteTableCache):
        def all_pairs_table(self, key, algorithm, store_key=None):
            builds = self.builds
            t0 = recorder.begin("api.cache")
            try:
                return super().all_pairs_table(key, algorithm, store_key)
            finally:
                package = type(algorithm).__module__.split(".")[1]
                layer = "graphs" if package == "graphs" else "core"
                recorder.end(f"{layer}.table_build" if self.builds > builds else "api.cache", t0)

    return TracedCache()


class _SimulatorCounter:
    """Keeps each phase simulator the engine makes, to read its telemetry."""

    def __init__(self) -> None:
        self.sims: list = []
        self.recomputes = 0

    def wrap(self, factory):
        def counting_factory(*args):
            sim = factory(*args)
            self.sims.append(sim)
            return sim

        return counting_factory

    def harvest(self) -> None:
        self.recomputes += sum(int(sim.telemetry()["recomputes"]) for sim in self.sims)
        self.sims.clear()


@contextlib.contextmanager
def _traced_layers(recorder: Recorder, counter: _SimulatorCounter, gcm: GCMonitor):
    """Trace every layer for the duration of one cell."""
    from repro.obs import TRACER
    from repro.sim.engines import DEFAULT_ENGINE

    TRACER.enable()
    try:
        with gcm, swap_engine(DEFAULT_ENGINE, counter.wrap):
            _patch_layers(recorder)
            try:
                yield
            finally:
                recorder.restore()
    finally:
        TRACER.disable()


def _patch_layers(recorder: Recorder) -> None:
    import repro.api
    import repro.graphs.contention
    import repro.metrics
    import repro.sim.network
    from repro.faults.models import FaultSpec

    for name in ("link_load_summary", "max_network_contention", "routes_per_nca"):
        recorder.patch(repro.metrics, name, "contention.census")
    for name in ("arc_congestion", "congestion_lower_bound"):
        recorder.patch(repro.graphs.contention, name, "contention.census")
    recorder.patch(repro.sim.network, "simulate_phase_fluid", "sim.phase")
    for name in ("crossbar_reference", "crossbar_time_of_phases"):
        recorder.patch(repro.metrics, name, "sim.crossbar")
    recorder.patch(FaultSpec, "realize", "faults.realize")
    recorder.patch(repro.api, "DegradedTopology", "faults.realize")
    recorder.patch(repro.api, "repair_table", "faults.repair")
    recorder.patch(repro.api, "subset_table", "api.subset")


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, size: str, work_dir: Path):
    from repro.api import RouteTableCache, Scenario, evaluate_scenario
    from repro.obs import TRACER

    golden = load_golden()
    result = WorkloadResult()

    def setup() -> list[Cell]:
        cells = plan(size, seed)
        _validate(cells)
        return cells

    cells, setup_s = timed_setups(setup)
    recorder = Recorder()
    counter = _SimulatorCounter()
    gcm = GCMonitor()

    def one_pass(durations: list[float], cache, recorded: bool = False) -> Iterator[None]:
        """A pass over the grid with a fresh cache and memo; yields after each cell."""
        memo: dict = {}
        checked: set = set()
        for cell in cells:
            scenario = Scenario(
                cell.topology, cell.pattern, cell.algorithm, faults=cell.faults, seed=cell.seed
            )
            metrics = GRAPH_METRICS if cell.graph else XGFT_METRICS
            if recorded:
                with _traced_layers(recorder, counter, gcm):
                    t0 = recorder.begin("cell")
                    res = evaluate_scenario(
                        scenario, metrics=metrics, cache=cache, crossbar_memo=memo
                    )
                    durations.append(recorder.end("cell", t0))
                counter.harvest()
            else:
                t0 = time.perf_counter()
                res = evaluate_scenario(scenario, metrics=metrics, cache=cache, crossbar_memo=memo)
                durations.append(time.perf_counter() - t0)
            result.attempted += 1
            reason = check_cell(cell, res, cache, checked, golden)
            if reason is not None:
                result.fail(f"{cell.run_id}: {reason}")
            yield

    durations = ItemTimes()
    traced: list[float] = []

    def untraced_pass() -> Iterator[None]:
        return one_pass(durations, RouteTableCache())

    def traced_pass() -> Iterator[None]:
        return one_pass(traced, _traced_cache(recorder), recorded=True)

    if trace:
        TRACER.clear()
        traced_passes = interleave(seconds, untraced_pass, traced_pass)
        passes = 2 * traced_passes + 1
    else:
        passes = run_units(seconds, untraced_pass)
    end_to_end(result, setup_s, durations, 90)
    result.notes += [
        ("cells_per_s", result.end_to_end["items_per_s"], "1/s"),
        ("cell_p50_ms", result.end_to_end["item_p50_ms"], "ms"),
        ("cell_p90_ms", result.end_to_end["item_tail_ms"], "ms"),
        ("cells", len(durations) + len(traced), "count"),
        ("passes", passes, "count"),
    ]
    if not trace:
        return result

    fills = TRACER.aggregate().get("fluid.fill", {"total_s": 0.0})
    TRACER.clear()
    per = 1.0 / traced_passes
    timed = float(np.sum(traced))
    crossbar_calls = recorder.count("sim.crossbar")
    layers = {
        "core.table_build_s": recorder.total("core.table_build") * per,
        "core.tables_built": recorder.count("core.table_build") * per,
        "graphs.table_build_s": recorder.total("graphs.table_build") * per,
        "graphs.tables_built": recorder.count("graphs.table_build") * per,
        "contention.census_s": recorder.total("contention.census") * per,
        "sim.phase_s": recorder.total("sim.phase") * per,
        "sim.fill_s": fills["total_s"] * per,
        "sim.recomputes": counter.recomputes * per,
        "sim.crossbar_s": recorder.total("sim.crossbar") * per,
        "sim.crossbar_hits": (len(traced) - crossbar_calls) * per,
        "faults.realize_s": recorder.total("faults.realize") * per,
        "faults.repair_s": recorder.total("faults.repair") * per,
        "api.subset_s": recorder.total("api.subset") * per,
        "api.unattributed_s": (timed - recorder.covered()) * per,
        "python.gc_s": gcm.seconds * per,
        "python.gc_gen2": gcm.gen2 * per,
        "trace.timed_s": timed * per,
        "trace.overhead_share": overhead_share(traced, durations[len(cells) :]),
    }
    result.per_layer.update(layers)
    result.notes.append(("traced_cell_p50_ms", percentile(traced, 50) * 1e3, "ms"))
    recorder.write(work_dir / "traces" / f"static-grid-seed{seed}.jsonl")
    return result


def write_golden() -> None:
    """Regenerate ``golden_static.json``.

    It holds the deterministic schemes' ``sim_time`` and ``slowdown``,
    fixed by definition (mod-k routes, unique max-min allocation), for
    every fault-free mod-k cell of every size.
    """
    import sys

    from run import import_program

    import_program(Path(__file__).resolve().parent.parent)
    from repro.api import RouteTableCache, Scenario, evaluate_scenario

    golden = {}
    cache, memo = RouteTableCache(), {}
    for size in SIZES:
        for cell in plan(size, 0):
            if cell.algorithm in DETERMINISTIC and cell.faults == "none":
                scenario = Scenario(cell.topology, cell.pattern, cell.algorithm, seed=0)
                res = evaluate_scenario(
                    scenario, metrics=("sim_time", "slowdown"), cache=cache, crossbar_memo=memo
                )
                m = res.metrics
                golden[cell.run_id] = {"sim_time": m["sim_time"], "slowdown": m["slowdown"]}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} golden cells to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
