"""The ``dynamic-local`` and ``dynamic-uniform`` workloads.

``DynamicDriver.run`` drives seeded open-loop Poisson streams through
the incremental engine ``fluid-vec-inc`` with ``d-mod-k`` routes.  Set-up
builds the all-pairs table, generates the streams and constructs the
driver; the unit of work is one ``run()`` over each stream, repeated
until the run's time is spent.  Every repetition does identical work,
so ``items_per_s`` counts completed flows per second of ``run()`` and
``item_p50_ms`` / ``item_tail_ms`` are the median and p90 ``run()``.

The check: one run of each stream on the batch engine ``fluid-vec``
(outside the timed phase) is the reference.  The max-min
allocation is unique, so every timed run must reproduce its flow counts
and FCT and slowdown summaries to 1e-9; the streams stay below the
8,192-sample FCT reservoir, so the percentiles are exact and do not
depend on completion order.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
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

ENGINE = "fluid-vec-inc"
REFERENCE_ENGINE = "fluid-vec"
ALGORITHM = "d-mod-k"

#: (topology, workload spec, streams).  A run cycles through several
#: streams, seeded ``seed * streams + k``: one stream's cost depends on
#: its arrival draw (by up to +-20% on dynamic-uniform), so a cycle
#: averages it out.
SIZES = {
    "dynamic-local": {
        "full": (
            "XGFT(2;32,32;1,16)",
            "poisson(flows=600,group=32,load=1.0,locality=1.0,sizes=uniform,spread=0.5)",
            3,
        ),
        "smoke": (
            "XGFT(2;8,8;1,4)",
            "poisson(flows=100,group=8,load=1.0,locality=1.0,sizes=uniform,spread=0.5)",
            2,
        ),
    },
    "dynamic-uniform": {
        "full": ("XGFT(3;4,4,4;1,2,2)", "poisson(flows=300,load=0.7,sizes=fixed)", 8),
        "smoke": ("XGFT(3;4,4,4;1,2,2)", "poisson(flows=100,load=0.7,sizes=fixed)", 2),
    },
}


def _summary(res) -> dict[str, float]:
    """The outputs a correct engine must reproduce exactly."""
    out = {
        "arrivals": res.num_arrivals,
        "self": res.num_self,
        "rejected": res.num_rejected,
        "completed": res.num_completed,
        "makespan": res.makespan,
    }
    for name, stat in (("fct", res.fct), ("slowdown", res.slowdown)):
        for key, value in stat.to_dict().items():
            out[f"{name}.{key}"] = value
    return out


def check_run(res, reference: dict[str, float]) -> str | None:
    """``None`` if a timed run's output passes, else the reason it fails."""
    if res.num_arrivals != res.num_self + res.num_rejected + res.num_completed:
        return "arrivals != self + rejected + completed"
    got = _summary(res)
    for key, want in reference.items():
        value = got.get(key)
        if value is None or not math.isclose(value, want, rel_tol=1e-9, abs_tol=1e-300):
            return f"{key} = {value!r}, reference {want!r}"
    return None


class _TimedEngine:
    """A timing proxy for the engine's public methods (traced units only)."""

    def __init__(self, sim, recorder: Recorder, ticks: list[float]) -> None:
        self._sim = sim
        self._ticks = ticks
        self._next = recorder.wrap("engine.next_completion", sim.next_completion_time)
        self.add_flows = recorder.wrap("engine.add_flows", sim.add_flows)
        self.advance_to = recorder.wrap("engine.advance", sim.advance_to)
        self.advance_to_next_completion = recorder.wrap(
            "engine.advance", sim.advance_to_next_completion
        )
        self.rates = recorder.wrap("engine.rates", sim.rates)

    def __getattr__(self, name):
        return getattr(self._sim, name)

    def next_completion_time(self):
        # DynamicDriver asks once per event, at the top of its loop
        self._ticks.append(time.perf_counter())
        return self._next()


def run(name: str, seed: int, seconds: float, trace: bool, size: str, work_dir: Path):
    from repro.core.factory import make_algorithm
    from repro.topology.registry import resolve_topology
    from repro.workloads import DynamicDriver, resolve_workload

    topo_spec, workload_spec, n_streams = SIZES[name][size]
    result = WorkloadResult()
    generate_s: list[float] = []

    def setup():
        topo = resolve_topology(topo_spec)
        algorithm = make_algorithm(ALGORITHM, topo, seed=0)
        table = algorithm.all_pairs_table()
        workload = resolve_workload(workload_spec, topo.num_leaves)
        t0 = time.perf_counter()
        streams = [workload.generate(seed=seed * n_streams + k) for k in range(n_streams)]
        generate_s.append(time.perf_counter() - t0)
        driver = DynamicDriver(
            topo, algorithm, engine=ENGINE, all_pairs_table=table, sample_seed=seed
        )
        return topo, algorithm, table, workload, streams, driver

    (topo, algorithm, table, workload, streams, driver), setup_s = timed_setups(setup)

    recorder = Recorder()
    ticks: list[float] = []
    event_s: list[float] = []
    gcm = GCMonitor()

    def proxy(factory):
        def proxy_factory(num_links, capacity):
            ticks.clear()
            return _TimedEngine(factory(num_links, capacity), recorder, ticks)

        return proxy_factory

    def timed_run(stream) -> tuple:
        t0 = time.perf_counter()
        res = driver.run(stream, workload=workload.spec, seed=seed)
        return res, time.perf_counter() - t0

    def cycle(durations: list[float], runs: list, recorded: bool = False) -> Iterator[None]:
        """One run of every stream, the unit of work; yields after each run."""
        for stream in streams:
            if recorded:
                with gcm, swap_engine(ENGINE, proxy):
                    res, took = timed_run(stream)
                # an event lasts from one loop-top query to the next
                event_s.extend(np.diff(ticks).tolist())
            else:
                res, took = timed_run(stream)
            durations.append(took)
            runs.append(res)
            yield

    durations = ItemTimes()
    runs: list = []
    traced: list[float] = []
    traced_runs: list = []
    if trace:
        cycles = interleave(
            seconds, lambda: cycle(durations, runs), lambda: cycle(traced, traced_runs, True)
        )
    else:
        run_units(seconds, lambda: cycle(durations, runs))

    reference_driver = DynamicDriver(
        topo, algorithm, engine=REFERENCE_ENGINE, all_pairs_table=table, sample_seed=seed
    )
    references = [
        _summary(reference_driver.run(stream, workload=workload.spec, seed=seed))
        for stream in streams
    ]
    for label, checked in (("untraced", runs), ("traced", traced_runs)):
        for i, res in enumerate(checked):
            result.attempted += 1
            reason = check_run(res, references[i % n_streams])
            if reason is not None:
                result.fail(f"{name} seed {seed} {label} run {i}: {reason}")

    flows = sum(res.num_completed for res in runs)
    end_to_end(result, setup_s, durations, 90, work=flows)
    result.notes += [
        ("flows_per_s", result.end_to_end["items_per_s"], "1/s"),
        ("flows", flows, "count"),
        ("runs", len(durations) + len(traced), "count"),
    ]
    if not trace:
        return result

    stats = [res.stats for res in traced_runs]
    per = 1.0 / cycles
    wall = sum(s.wall_time_s for s in stats)
    phases = sum(s.arrivals_s + s.completions_s + s.snapshot_s for s in stats)
    # engine counters of one cycle (one run per stream); they must repeat
    # exactly in every other cycle, traced or not
    tel = {key: sum(s.engine.get(key, 0) for s in stats[:n_streams]) for key in stats[0].engine}
    tel["component_size_hwm"] = max(s.engine.get("component_size_hwm", 0) for s in stats)
    for label, checked in (("untraced", runs), ("traced", traced_runs)):
        for i, res in enumerate(checked):
            if res.stats.engine != stats[i % n_streams].engine:
                result.fail(
                    f"{name} seed {seed}: engine counters of {label} run {i} differ from "
                    f"traced run {i % n_streams}"
                )
    # next_completion_time runs at the top of the loop, outside every
    # DriverStats phase; it is where refills happen
    unattributed = wall - phases - recorder.total("engine.next_completion")
    links_touched = tel.get("links_touched", 0)
    timed = float(np.sum(traced))
    result.per_layer.update(
        {
            "workloads.generate_s": float(np.median(generate_s)),
            "driver.arrivals_s": sum(s.arrivals_s for s in stats) * per,
            "driver.completions_s": sum(s.completions_s for s in stats) * per,
            "driver.route_s": sum(s.route_s for s in stats) * per,
            "driver.snapshot_s": sum(s.snapshot_s for s in stats) * per,
            "driver.events": sum(s.events for s in stats) * per,
            "driver.unattributed_s": unattributed * per,
            "engine.add_flows_s": recorder.total("engine.add_flows") * per,
            "engine.next_completion_s": recorder.total("engine.next_completion") * per,
            "engine.advance_s": recorder.total("engine.advance") * per,
            "engine.rates_s": recorder.total("engine.rates") * per,
            "engine.event_us_p50": percentile(event_s, 50) * 1e6,
            "engine.event_us_p99": percentile(event_s, 99) * 1e6,
            "engine.recomputes": tel.get("recomputes", 0),
            "engine.partial_refills": tel.get("partial_refills", 0),
            "engine.full_refills": tel.get("full_refills", 0),
            "engine.cert_fallbacks": tel.get("cert_fallbacks", 0),
            "engine.links_touched": links_touched,
            "engine.flows_touched": tel.get("flows_touched", 0),
            "engine.component_size_hwm": tel.get("component_size_hwm", 0),
            "engine.refill_work_reduction": (
                tel.get("links_active", 0) / links_touched if links_touched else 0.0
            ),
            "python.gc_s": gcm.seconds * per,
            "python.gc_gen2": gcm.gen2 * per,
            "trace.timed_s": timed * per,
            "trace.overhead_share": overhead_share(traced, durations[n_streams:]),
        }
    )
    recorder.write(work_dir / "traces" / f"{name}-seed{seed}.jsonl")
    return result
