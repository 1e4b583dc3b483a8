"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload static-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload, traced

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the run fails before measuring anything.
The workloads and metrics are those ``BENCHMARK.json`` names.
Human-readable rows come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer
metrics of the traced run (``--trace 1``).  End-to-end timings are
put at the reference host speed (``harness.HostProbe``); the
wall-clock figures are printed as ``wall_*`` rows.  Scratch files (the serving
workload's artifact store, traced-run span files) go under
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    PROBE,
    RUN_SECONDS,
    WORKLOADS,
    WorkloadResult,
)

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"


def import_program(root: Path) -> None:
    """Put ``root/src`` first on the import path and import ``repro`` from it."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    repro = importlib.import_module("repro")
    # the facade imports every layer, so none is imported inside a timed span
    importlib.import_module("repro.api")
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not from {src}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> WorkloadResult:
    if name == "static-grid":
        import static_grid

        return static_grid.run(seed, seconds, trace, size, WORK_DIR)
    if name == "serve-mixed":
        import serve_mixed

        return serve_mixed.run(seed, seconds, trace, size, WORK_DIR)
    import dynamic

    return dynamic.run(name, seed, seconds, trace, size, WORK_DIR)


def metrics_of(result: WorkloadResult, trace: bool) -> dict[str, dict]:
    """The JSON metrics: every catalogue metric of the run's kind, with its unit."""
    if trace:
        return {
            name: {"value": float(result.per_layer.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    return {
        name: {"value": float(result.end_to_end[name]), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def report(name: str, result: WorkloadResult, trace: bool) -> dict[str, dict]:
    """Print the workload's human-readable table; returns its JSON metrics."""
    print(f"== {name}: {result.attempted} items, {result.failed} failed")
    for problem in result.problems:
        print(f"   FAILED {problem}")
    rows = [(n, result.end_to_end[n], u) for n, u in END_TO_END.items()] + result.notes
    if trace:
        rows += [(n, result.per_layer.get(n, 0.0), u) for n, u in PER_LAYER.items()]
    for metric, value, unit in rows:
        print(f"   {metric:<30} {value:>14.6g} {unit}")
    return metrics_of(result, trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke shrinks every input for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    import_program(ROOT)
    # set-up starts at process start: interpreter imports count once,
    # the workload's own set-up is the median of its repeats; both are
    # put at the reference host speed by a probe sample taken after them
    import_s = time.perf_counter() - _STARTED
    import_ref_s = import_s / PROBE.sample()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        PROBE.reset()
        result = run_workload(name, args.seed, args.seconds, trace, args.size)
        result.end_to_end["setup_s"] += import_ref_s
        result.notes.append(("wall_import_s", import_s, "s"))
        attempted += result.attempted
        failed += result.failed
        own = report(name, result, trace)
        if len(names) == 1:
            metrics = own
        else:
            metrics.update({f"{name}.{k}": v for k, v in own.items()})
    summary = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
