"""The benchmark's own tests: manifest, printed metrics, checks, failure modes.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
Every workload runs at its smoke size for a fraction of a second.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import harness
import numpy as np
import pytest
import run

ROOT = run.ROOT


@pytest.fixture(autouse=True)
def _scratch_work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_manifest_is_within_format_limits():
    doc = json.loads(harness.MANIFEST_PATH.read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"] and doc["paths"] == ["perfbench"]
    assert 2 <= len(doc["workloads"]) <= 8 and 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= doc["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}, metric
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_interleave_flips_the_lead_at_every_item_across_pairs(monkeypatch):
    log = []

    def unit(side):
        def items():
            for k in range(3):
                log.append(f"{side}{k}")
                yield

        return items

    clock = iter(range(100))
    monkeypatch.setattr(harness.PROBE, "maybe_sample", lambda: None)
    monkeypatch.setattr(harness.PROBE, "sample", lambda: 1.0)
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    assert harness.interleave(1.5, unit("u"), unit("t")) == 2
    warm_up = ["u0", "u1", "u2"]
    first_pair = ["u0", "t0", "t1", "u1", "u2", "t2"]
    second_pair = ["t0", "u0", "u1", "t1", "t2", "u2"]
    assert log == warm_up + first_pair + second_pair


def test_item_times_are_scaled_by_the_slowdown_around_them(monkeypatch):
    probe = harness.HostProbe()
    probe.stamps[:] = [0.0, 10.0]
    probe.slowdowns[:] = [1.0, 2.0]
    monkeypatch.setattr(harness, "PROBE", probe)
    clock = iter([1.0, 10.0])
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    items = harness.ItemTimes()
    items.append(2.0)  # ran from -1 to 1: slowdown 1 at its midpoint
    items.append(2.0)  # ran from 8 to 10: slowdown 1.9 at 9
    assert list(items) == [2.0, 2.0]
    assert items.at_reference_speed() == pytest.approx([2.0, 2.0 / 1.9])


def test_the_probe_samples_only_when_due():
    probe = harness.HostProbe()
    assert probe.sample() > 0 and len(probe.slowdowns) == 1
    probe.maybe_sample()
    assert len(probe.slowdowns) == 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    argv = f"--workload {workload} --seed 3 --seconds 0.2 --trace {trace} --size smoke".split()
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    doc = _last_json(out)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    catalogue = harness.PER_LAYER if trace else harness.END_TO_END
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == catalogue
    for name, metric in doc["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
        assert re.search(rf"^   {re.escape(name)} .* {re.escape(metric['unit'])}$", out, re.M)


def test_a_corrupted_served_route_lowers_success_rate(monkeypatch):
    import serve_mixed

    from repro.api import RouteServer

    size = serve_mixed.SIZES["smoke"]
    pool = serve_mixed.request_pool(5, 64, size)
    _, _, src, dst, _ = next(r for r in pool if r[0] == serve_mixed.LOOKUP)
    original = RouteServer.batch_lookup

    def corrupting(self, srcs, dsts, faults=None, repair_seed=0):
        nca, ports, status = original(self, srcs, dsts, faults, repair_seed)
        if len(srcs) == 1 and srcs[0] == src[0] and dsts[0] == dst[0]:
            ports = ports.copy()
            ports[0, 0] ^= 1  # one flipped up-port
        return nca, ports, status

    monkeypatch.setattr(RouteServer, "batch_lookup", corrupting)
    result = serve_mixed.run(5, 0.3, False, "smoke", run.WORK_DIR)
    assert 0 < result.failed < result.attempted
    assert result.end_to_end["success_rate"] < 1
    assert "differs from the table" in result.problems[0]


def test_the_dynamic_check_needs_the_reference_allocation():
    import dynamic

    class Stat:
        def __init__(self, mean):
            self.mean = mean

        def to_dict(self):
            return {"mean": self.mean}

    class Res:
        num_arrivals, num_self, num_rejected, num_completed, makespan = 10, 1, 0, 9, 2.0
        fct, slowdown = Stat(1.0), Stat(1.5)

    reference = dynamic._summary(Res())
    assert dynamic.check_run(Res(), reference) is None
    wrong = Res()
    wrong.fct = Stat(1.0 + 1e-6)
    assert "fct.mean" in dynamic.check_run(wrong, reference)
    leaky = Res()
    leaky.num_completed = 8
    assert "arrivals" in dynamic.check_run(leaky, reference)


def test_golden_values_cover_every_deterministic_cell():
    import static_grid

    golden = static_grid.load_golden()
    for size in static_grid.SIZES:
        for cell in static_grid.plan(size, seed=7):
            if cell.algorithm in static_grid.DETERMINISTIC and cell.faults == "none":
                assert cell.run_id in golden


def test_request_pool_is_seeded_bytes_only():
    import serve_mixed

    size = serve_mixed.SIZES["smoke"]
    a = serve_mixed.request_pool(1, 64, size)
    b = serve_mixed.request_pool(1, 64, size)
    assert [r[4] for r in a] == [r[4] for r in b]
    assert all(isinstance(r[2], np.ndarray) and isinstance(r[4], bytes) for r in a)
    kinds = [r[0] for r in a]
    assert kinds.count(serve_mixed.LOOKUP) == 20 and kinds.count(serve_mixed.WHAT_IF) == 10


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    argv = ["--workload", "static-grid", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "no program to benchmark" in done.stderr
    assert not (tmp_path / ".perfbench_work").exists()
