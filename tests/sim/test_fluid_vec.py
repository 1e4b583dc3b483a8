"""The ``fluid-vec`` engine: drop-in parity with the scalar engine.

``fluid-vec`` is the vectorized engine in full-refill mode (resolved by
its registry name here).  The max-min fair allocation is unique, so it
must reproduce ``FluidSimulator`` bit-for-bit up to floating-point noise —
rates, completion times, completion order, error behaviour, and the
zero-size / idle-clock edge cases.  The hypothesis suites generate
random instances (links, capacities, flows, sizes — including zero
sizes and mid-run arrivals) and check both engines against each other
and against the max-min optimality invariants.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FluidSimulator, make_fluid_simulator

REL = 1e-9


def fluid_vec(num_links, capacity):
    """A fresh ``fluid-vec`` simulator, resolved through the registry."""
    return make_fluid_simulator("fluid-vec", num_links, capacity)


def _random_instance(seed: int, num_links: int, num_flows: int, zero_frac: float = 0.1):
    """A deterministic random workload: (capacities, [(fid, links, size)])."""
    rng = np.random.default_rng(seed)
    caps = rng.uniform(0.5, 3.0, num_links)
    flows = []
    for f in range(num_flows):
        k = int(rng.integers(1, num_links + 1))
        links = rng.choice(num_links, size=k, replace=False).tolist()
        size = float(rng.uniform(0.5, 5.0)) if rng.random() >= zero_frac else 0.0
        flows.append((f, links, size))
    return caps, flows


def _assert_same_results(a, b):
    fa = {r.flow_id: r for r in a.results}
    fb = {r.flow_id: r for r in b.results}
    assert set(fa) == set(fb)
    for fid, ra in fa.items():
        rb = fb[fid]
        assert rb.finish == pytest.approx(ra.finish, rel=REL, abs=1e-12)
        assert rb.start == pytest.approx(ra.start, rel=REL, abs=1e-12)
        assert rb.size == ra.size


class TestDropInParity:
    def test_validation_parity(self):
        for cls in (FluidSimulator, fluid_vec):
            with pytest.raises(ValueError):
                cls(0, 1.0)
            with pytest.raises(ValueError):
                cls(2, 0.0)
            with pytest.raises(ValueError):
                cls(2, np.asarray([1.0, -1.0]))
            sim = cls(2, 1.0)
            with pytest.raises(ValueError):
                sim.add_flow(0, [], 1.0)
            with pytest.raises(ValueError):
                sim.add_flow(0, [5], 1.0)
            with pytest.raises(ValueError):
                sim.add_flow(0, [0], -1.0)
            sim.add_flow(0, [0], 1.0)
            with pytest.raises(ValueError):
                sim.add_flow(0, [1], 1.0)  # duplicate id

    def test_zero_size_and_idle_clock(self):
        for cls in (FluidSimulator, fluid_vec):
            sim = cls(2, 1.0)
            assert sim.advance_to(3.0) == []
            assert sim.now == pytest.approx(3.0)
            sim.add_flow(7, [0], 0.0)
            (res,) = sim.results
            assert res.flow_id == 7
            assert res.start == res.finish == pytest.approx(3.0)
            assert sim.active_flows == 0

    def test_advance_guards(self):
        sim = fluid_vec(1, 10.0)
        sim.add_flow(0, [0], 10.0)
        with pytest.raises(ValueError, match="skip a completion"):
            sim.advance_to(100.0)
        sim.run_until_idle()
        with pytest.raises(ValueError, match="rewind"):
            sim.advance_to(0.5)

    def test_epsilon_window_completion_stamp_parity(self):
        """Regression (both engines): advancing into (nc, nc + eps]
        must stamp finished flows at the true completion instant nc,
        not the overshot target — dense arrival streams advance in
        sub-eps hops, and the skew biased every recorded FCT."""
        for cls in (FluidSimulator, fluid_vec):
            sim = cls(2, 1.0)
            sim.add_flow(0, [0], 1.0)  # nc = 1.0
            sim.add_flow(1, [1], 5.0)  # still running past the window
            t = 1.0 + 0.9e-9
            finished = sim.advance_to(t)
            assert [r.flow_id for r in finished] == [0]
            assert finished[0].finish == 1.0
            assert sim.now == t
            # the still-active flow drains to t, not nc: no bytes lost
            sim.run_until_idle()
            assert sim.now == pytest.approx(5.0, rel=REL)

    def test_batch_equals_sequential(self):
        """add_flows (COO batch) and add_flow agree exactly."""
        caps, flows = _random_instance(3, 5, 20)
        seq = fluid_vec(5, caps)
        for fid, links, size in flows:
            seq.add_flow(fid, links, size)
        batch = fluid_vec(5, caps)
        ids = [f for f, _, _ in flows]
        sizes = [s for _, _, s in flows]
        coo_flow = np.concatenate(
            [np.full(len(links), i) for i, (_, links, _) in enumerate(flows)]
        )
        coo_link = np.concatenate([np.asarray(links) for _, links, _ in flows])
        batch.add_flows(ids, sizes, coo_flow, coo_link)
        assert seq.rates() == pytest.approx(batch.rates(), rel=REL)
        seq.run_until_idle()
        batch.run_until_idle()
        assert seq.now == pytest.approx(batch.now, rel=REL)

    def test_batch_validation(self):
        """One batch contract, enforced identically by every engine."""
        for cls in (FluidSimulator, fluid_vec):
            sim = cls(2, 1.0)
            with pytest.raises(ValueError, match="parallel"):
                sim.add_flows([0, 1], [1.0], np.asarray([0]), np.asarray([0]))
            with pytest.raises(ValueError, match="duplicate"):
                sim.add_flows([0, 0], [1.0, 1.0], np.asarray([0, 1]), np.asarray([0, 0]))
            with pytest.raises(ValueError, match="at least one link"):
                sim.add_flows([0, 1], [1.0, 1.0], np.asarray([0, 0]), np.asarray([0, 1]))
            with pytest.raises(ValueError, match="out of range"):
                sim.add_flows([0], [1.0], np.asarray([0]), np.asarray([9]))
            with pytest.raises(ValueError, match="outside the batch"):
                sim.add_flows([0], [1.0], np.asarray([1]), np.asarray([0]))
            sim.add_flows([], [], np.asarray([]), np.asarray([]))  # empty batch is a no-op
            assert sim.active_flows == 0

    def test_short_sizes_rejected_by_every_engine(self):
        """Regression: the scalar batch path zipped ids with sizes, so 3
        ids with 2 sizes silently dropped the third flow."""
        for cls in (FluidSimulator, fluid_vec):
            sim = cls(2, 1.0)
            with pytest.raises(ValueError, match="parallel"):
                sim.add_flows(
                    [0, 1, 2], [1.0, 1.0], np.asarray([0, 1, 2]), np.asarray([0, 1, 1])
                )
            assert sim.active_flows == 0 and sim.results == []

    def test_repeated_zero_size_id_rejected_by_every_engine(self):
        """Regression: the scalar batch path accepted a flow id twice in
        one batch when its first copy had size zero (it completed
        before the second copy was checked)."""
        for cls in (FluidSimulator, fluid_vec):
            sim = cls(2, 1.0)
            with pytest.raises(ValueError, match="duplicate"):
                sim.add_flows([4, 4], [0.0, 1.0], np.asarray([0, 1]), np.asarray([0, 1]))
            assert sim.active_flows == 0 and sim.results == []

    def test_duplicate_links_collapse_identically(self):
        """A repeated link in a flow's path must not double-count the
        flow against that link's capacity — in either engine."""
        for cls in (FluidSimulator, fluid_vec):
            sim = cls(2, 1.0)
            sim.add_flow(0, [0, 0, 1], 2.0)
            assert sim.rates()[0] == pytest.approx(1.0), cls.__name__
        # and through the batch COO path
        batch = fluid_vec(2, 1.0)
        batch.add_flows(
            [0], [2.0], np.asarray([0, 0, 0]), np.asarray([0, 0, 1])
        )
        assert batch.rates()[0] == pytest.approx(1.0)

    def test_scalar_batch_rejects_out_of_batch_indexes(self):
        """The scalar add_flows mirrors the vec engine's validation
        instead of letting negative indexes wrap around."""
        for cls in (FluidSimulator, fluid_vec):
            sim = cls(2, 1.0)
            with pytest.raises(ValueError, match="outside the batch"):
                sim.add_flows(
                    [0, 1, 2],
                    [1.0, 1.0, 1.0],
                    np.asarray([0, -2, 2]),
                    np.asarray([0, 1, 1]),
                )

    def test_recompute_counter_matches(self):
        """Both engines recompute on the same schedule (events, not flows)."""
        caps, flows = _random_instance(11, 4, 15, zero_frac=0.0)
        a, b = FluidSimulator(4, caps), fluid_vec(4, caps)
        for fid, links, size in flows:
            a.add_flow(fid, links, size)
            b.add_flow(fid, links, size)
        a.run_until_idle()
        b.run_until_idle()
        assert a.recomputes == b.recomputes


class TestPropertyEquivalence:
    @given(
        num_links=st.integers(1, 6),
        num_flows=st.integers(1, 14),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_rates_match_scalar(self, num_links, num_flows, seed):
        caps, flows = _random_instance(seed, num_links, num_flows)
        a, b = FluidSimulator(num_links, caps), fluid_vec(num_links, caps)
        for fid, links, size in flows:
            a.add_flow(fid, links, size)
            b.add_flow(fid, links, size)
        ra, rb = a.rates(), b.rates()
        assert set(ra) == set(rb)
        for fid in ra:
            assert rb[fid] == pytest.approx(ra[fid], rel=REL, abs=1e-12)

    @given(
        num_links=st.integers(1, 6),
        num_flows=st.integers(1, 14),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_completion_times_match_scalar(self, num_links, num_flows, seed):
        caps, flows = _random_instance(seed, num_links, num_flows)
        a, b = FluidSimulator(num_links, caps), fluid_vec(num_links, caps)
        for fid, links, size in flows:
            a.add_flow(fid, links, size)
            b.add_flow(fid, links, size)
        ta, tb = a.run_until_idle(), b.run_until_idle()
        assert tb == pytest.approx(ta, rel=REL, abs=1e-12)
        _assert_same_results(a, b)

    @given(
        num_links=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_dynamic_arrivals_match_scalar(self, num_links, seed):
        """Flows injected mid-run (between completions) stay equivalent."""
        rng = np.random.default_rng(seed)
        caps = rng.uniform(0.5, 2.0, num_links)
        a, b = FluidSimulator(num_links, caps), fluid_vec(num_links, caps)
        fid = 0
        for _wave in range(3):
            for _ in range(int(rng.integers(1, 5))):
                k = int(rng.integers(1, num_links + 1))
                links = rng.choice(num_links, size=k, replace=False).tolist()
                size = float(rng.uniform(0.5, 3.0))
                a.add_flow(fid, links, size)
                b.add_flow(fid, links, size)
                fid += 1
            fa = a.advance_to_next_completion()
            fb = b.advance_to_next_completion()
            assert [r.flow_id for r in fa] == [r.flow_id for r in fb]
            assert b.now == pytest.approx(a.now, rel=REL)
        a.run_until_idle()
        b.run_until_idle()
        assert b.now == pytest.approx(a.now, rel=REL)
        _assert_same_results(a, b)

    @given(
        num_links=st.integers(1, 6),
        num_flows=st.integers(1, 12),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_both_engines_satisfy_maxmin_invariants(self, num_links, num_flows, seed):
        """Feasibility + bottleneck: every flow is limited by a saturated
        link on its own path — the max-min optimality signature — in
        both engines."""
        caps, flows = _random_instance(seed, num_links, num_flows, zero_frac=0.0)
        for cls in (FluidSimulator, fluid_vec):
            sim = cls(num_links, caps)
            per_flow_links = {}
            for fid, links, size in flows:
                sim.add_flow(fid, links, size)
                per_flow_links[fid] = links
            rates = sim.rates()
            loads = np.zeros(num_links)
            for fid, rate in rates.items():
                for l in per_flow_links[fid]:
                    loads[l] += rate
            assert (loads <= caps * (1 + 1e-6) + 1e-6).all()
            for fid, rate in rates.items():
                assert rate > 0
                assert any(
                    loads[l] >= caps[l] * (1 - 1e-6) - 1e-6
                    for l in per_flow_links[fid]
                ), f"flow {fid} not bottlenecked ({cls.__name__})"

