"""The ``serve-mixed`` workload: route serving over loopback, closed loop.

Set-up builds the ``random`` all-pairs table of ``XGFT(2;32,32;1,16)``,
puts it in a fresh ``ArtifactStore`` inside the checkout, opens it
(mmap-backed), wraps it in a ``RouteServer`` and starts
``serve_forever`` on 127.0.0.1; one client connection then warms every
request kind, so the what-if fabrics are cached before timing.  The
request pool is encoded once, before the first set-up.

Timed phase: the client sends the pool's requests one at a time —
closed loop, one client, one request in flight — in blocks of
:data:`BLOCK` requests, until the run's time is spent.  The pool mixes
20% single ``lookup``s, 70% 1,024-pair ``batch``es and 10% 1,024-pair
what-if ``batch``es over four fault specs.  Requests are kept only as
encoded bytes plus numpy pair arrays: decoded request dicts would hold
millions of Python ints that every gen-2 collection walks, which slows
the server and moves p99.  A traced run sends each request of a block
twice, untraced and traced, so both sides do the same work.

Client and server share one event loop, run one request at a time, so a
request's latency covers the client write, the server's decode,
dispatch and encode, and the client read.  Traffic crosses the
loopback interface, not a real link.
"""

from __future__ import annotations

import asyncio
import gc
import json
import shutil
import tempfile
import time
from collections.abc import Iterator
from pathlib import Path

import numpy as np
from harness import (
    PROBE,
    SETUP_REPEATS,
    GCMonitor,
    ItemTimes,
    Recorder,
    WorkloadResult,
    end_to_end,
    interleave,
    overhead_share,
    percentile,
    run_units,
)

ALGORITHM = "random"
FAULT_SPECS = tuple(f"links:rate=0.02,seed={k}" for k in range(1, 5))
LOOKUP, BATCH, WHAT_IF = 0, 1, 2
#: requests per unit of work
BLOCK = 50

SIZES = {
    "full": {"topology": "XGFT(2;32,32;1,16)", "requests": 3000, "batch": 1024},
    "smoke": {"topology": "XGFT(2;8,8;1,4)", "requests": 100, "batch": 64},
}


def _pairs(rng: np.random.Generator, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random ordered pairs of distinct leaves."""
    src = rng.integers(0, n, size=count)
    dst = rng.integers(0, n - 1, size=count)
    dst += dst >= src
    return src.astype(np.int32), dst.astype(np.int32)


def request_pool(seed: int, n: int, size: dict) -> list[tuple]:
    """``(kind, fault_index, src, dst, payload)`` per request, seeded."""
    rng = np.random.default_rng(seed)
    total = size["requests"]
    kinds = np.full(total, BATCH)
    kinds[: total // 5] = LOOKUP
    kinds[total // 5 : total // 5 + total // 10] = WHAT_IF
    rng.shuffle(kinds)
    pool = []
    what_ifs = 0
    for kind in kinds.tolist():
        src, dst = _pairs(rng, n, 1 if kind == LOOKUP else size["batch"])
        fault = what_ifs % len(FAULT_SPECS)
        what_ifs += kind == WHAT_IF
        if kind == LOOKUP:
            request = {"op": "lookup", "src": int(src[0]), "dst": int(dst[0])}
        else:
            request = {"op": "batch", "src": src.tolist(), "dst": dst.tolist()}
            if kind == WHAT_IF:
                request["faults"] = FAULT_SPECS[fault]
        pool.append((kind, fault, src, dst, json.dumps(request).encode() + b"\n"))
    return pool


class Checker:
    """Checks served routes against the table built in set-up."""

    def __init__(self, table) -> None:
        from repro.faults import DegradedTopology, parse_fault_spec

        self.table = table
        self.topo = table.topo
        n = self.n = self.topo.num_leaves
        self.rows = np.full(n * n, -1, dtype=np.int64)
        self.rows[table.src * n + table.dst] = np.arange(len(table))
        self.degraded = [
            DegradedTopology(self.topo, parse_fault_spec(spec).realize(self.topo))
            for spec in FAULT_SPECS
        ]

    def check(self, kind: int, fault: int, src, dst, line: bytes) -> str | None:
        from repro.core.route import RouteTable
        from repro.faults import PAIR_DISCONNECTED, PAIR_INTACT, PAIR_REPAIRED

        response = json.loads(line)
        if not response.get("ok"):
            return f"error response {response.get('error')!r}"
        idx = self.rows[src.astype(np.int64) * self.n + dst]
        want_nca = self.table.nca_level[idx]
        want_ports = self.table.ports[idx]
        if kind == LOOKUP:
            level = int(want_nca[0])
            if response["nca_level"] != level or response["status"] != PAIR_INTACT:
                return "lookup level or status differs from the table"
            if response["up_ports"] != want_ports[0, :level].tolist():
                return "lookup route differs from the table"
            return None
        nca = np.asarray(response["nca_level"])
        ports = np.asarray(response["ports"])
        status = np.asarray(response["status"])
        if response["count"] != len(src) or not np.array_equal(nca, want_nca):
            return "batch count or levels differ from the table"
        intact = status == PAIR_INTACT
        if not np.array_equal(ports[intact], want_ports[intact]):
            return "served route differs from the table"
        if kind == BATCH:
            return None if intact.all() else "fault-free batch reports repairs"
        routed = status != PAIR_DISCONNECTED
        if (ports[~routed] != 0).any():
            return "disconnected pair carries a route"
        if not np.isin(status, (PAIR_INTACT, PAIR_REPAIRED, PAIR_DISCONNECTED)).all():
            return "unknown status code"
        table = RouteTable(self.topo, src[routed], dst[routed], nca[routed], ports[routed])
        if self.degraded[fault].broken_flow_mask(table).any():
            return "what-if route crosses a failed link"
        return None


# ----------------------------------------------------------------------
# Server lifetime
# ----------------------------------------------------------------------
async def _start(server):
    from repro.serve.server import STREAM_LIMIT, serve_forever

    loop = asyncio.get_running_loop()
    ready = loop.create_future()
    task = asyncio.ensure_future(serve_forever(server, port=0, ready=ready))
    host, port = await ready
    reader, writer = await asyncio.open_connection(host, port, limit=STREAM_LIMIT)
    return task, reader, writer


async def _stop(task, writer) -> None:
    """Close the client, let the connection handler exit, then stop serving."""
    writer.close()
    await writer.wait_closed()
    handlers = [
        t
        for t in asyncio.all_tasks()
        if getattr(t.get_coro(), "__name__", "") == "_handle_connection"
    ]
    if handlers:
        await asyncio.wait(handlers, timeout=30)
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass


async def _request(reader, writer, payload: bytes) -> bytes:
    writer.write(payload)
    await writer.drain()
    return await reader.readline()


async def _warm(reader, writer, payloads) -> None:
    for payload in payloads:
        await _request(reader, writer, payload)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, size: str, work_dir: Path):
    import repro.faults
    import repro.serve.server
    from repro.api import ArtifactStore, RouteServer, StoreKey
    from repro.core.factory import make_algorithm
    from repro.topology.registry import resolve_topology

    spec = SIZES[size]
    work_dir.mkdir(parents=True, exist_ok=True)
    result = WorkloadResult()
    setup_s, put_s, open_s = [], [], []
    state = None
    # the client's inputs are made once, before any set-up is timed
    pool = request_pool(seed, resolve_topology(spec["topology"]).num_leaves, spec)
    loop = asyncio.new_event_loop()

    def shut_down() -> None:
        loop.run_until_complete(_stop(state["task"], state["writer"]))
        shutil.rmtree(state["store_dir"], ignore_errors=True)

    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                shut_down()
                state = None
            t0 = time.perf_counter()
            topo = resolve_topology(spec["topology"])
            table = make_algorithm(ALGORITHM, topo, seed=seed).all_pairs_table()
            store_dir = tempfile.mkdtemp(prefix="store-", dir=work_dir)
            store = ArtifactStore(store_dir)
            key = StoreKey.make(topo.spec(), ALGORITHM, seed)
            t1 = time.perf_counter()
            store.put(key, table)
            t2 = time.perf_counter()
            server = RouteServer(store.open(key), key=key)
            t3 = time.perf_counter()
            task, reader, writer = loop.run_until_complete(_start(server))
            state = {"task": task, "writer": writer, "store_dir": store_dir}
            # one request of every kind and fault spec before timing
            warm = {(kind, fault): payload for kind, fault, _, _, payload in pool}
            loop.run_until_complete(_warm(reader, writer, warm.values()))
            # at the reference host speed, like timed_setups
            setup_s.append((time.perf_counter() - t0) / PROBE.sample())
            put_s.append(t2 - t1)
            open_s.append(t3 - t2)

        checker = Checker(table)
        routes_per_kind = {LOOKUP: 1, BATCH: spec["batch"], WHAT_IF: spec["batch"]}
        latencies = ItemTimes()
        traced: list[float] = []
        recorder = Recorder()
        gcm = GCMonitor()
        routes = 0

        async def send(k: int, times: list[float], recorded: bool) -> None:
            """Send pool request ``k``, wait for its response and check it."""
            nonlocal routes
            kind, fault, src, dst, payload = pool[k % len(pool)]
            if recorded:
                t0 = recorder.begin("request")
                line = await _request(reader, writer, payload)
                times.append(recorder.end("request", t0))
            else:
                t0 = time.perf_counter()
                line = await _request(reader, writer, payload)
                times.append(time.perf_counter() - t0)
                routes += routes_per_kind[kind]
            result.attempted += 1
            # the decoded response is garbage as soon as it is checked;
            # keep its allocations from triggering collections that
            # the next request would pay for
            gc.disable()
            try:
                reason = checker.check(kind, fault, src, dst, line)
            finally:
                gc.enable()
            if reason is not None:
                result.fail(f"request {k % len(pool)}: {reason}")

        def traced_send(k: int) -> None:
            with gcm:
                recorder.patch(repro.serve.server, "handle_request", "serve.dispatch")
                recorder.patch(RouteServer, "batch_lookup", "serve.lookup")
                recorder.patch(repro.faults, "repair_pairs", "faults.what_if")
                try:
                    loop.run_until_complete(send(k, traced, True))
                finally:
                    recorder.restore()

        def block(times: list[float], recorded: bool = False) -> Iterator[None]:
            """The unit of work: :data:`BLOCK` requests; yields after each."""
            # consecutive untraced blocks walk the pool; the k-th traced
            # block repeats the k-th untraced block after the warm-up
            start = (len(times) // BLOCK + (1 if recorded else 0)) * BLOCK
            for k in range(start, start + BLOCK):
                if recorded:
                    traced_send(k)
                else:
                    loop.run_until_complete(send(k, times, False))
                yield

        if trace:
            interleave(seconds, lambda: block(latencies), lambda: block(traced, True))
        else:
            run_units(seconds, lambda: block(latencies))
        scaled = end_to_end(result, float(np.median(setup_s)), latencies, 99)
        result.notes += [
            ("requests_per_s", result.end_to_end["items_per_s"], "1/s"),
            ("routes_per_s", routes / float(np.sum(scaled)), "1/s"),
            ("request_p50_ms", result.end_to_end["item_p50_ms"], "ms"),
            ("request_p99_ms", result.end_to_end["item_tail_ms"], "ms"),
            ("requests", len(latencies) + len(traced), "count"),
        ]
        if trace:
            dispatch = np.asarray(recorder.durations("serve.dispatch"))
            stats = server.stats()
            result.per_layer.update(
                {
                    "store.put_s": float(np.median(put_s)),
                    "store.open_ms": float(np.median(open_s)) * 1e3,
                    "serve.dispatch_ms_p50": percentile(dispatch, 50) * 1e3,
                    "serve.lookup_s": recorder.total("serve.lookup"),
                    "faults.what_if_s": recorder.total("faults.what_if"),
                    "serve.transport_ms_p50": percentile(np.asarray(traced) - dispatch, 50) * 1e3,
                    "serve.routes_served": stats["routes_served"],
                    "serve.what_if_fabrics": stats["what_if_fabrics"],
                    "serve.errors": sum(stats["errors"].values()),
                    "python.gc_s": gcm.seconds,
                    "python.gc_gen2": gcm.gen2,
                    "trace.timed_s": float(np.sum(traced)),
                    "trace.overhead_share": overhead_share(traced, latencies[BLOCK:]),
                }
            )
            recorder.write(work_dir / "traces" / f"serve-mixed-seed{seed}.jsonl")
    finally:
        if state is not None:
            shut_down()
        loop.close()
    return result
