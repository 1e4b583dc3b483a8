"""The vectorized max-min fluid engine, in two modes.

:class:`IncFluidSimulator` computes the same max-min fair allocation as
the scalar reference :class:`repro.sim.fluid.FluidSimulator` (the
allocation is unique, so the engines agree up to floating-point noise)
but keeps the active flows as parallel numpy arrays and each flow's
links as a row of a dense ``(slots, W)`` *link matrix* (W = the longest
path, ``2h + 2`` links on an XGFT: tree hops plus the two adapter
links), padded with the virtual link ``num_links``, so every per-flow
reduction is a row operation instead of a ragged segment reduction.

One fill kernel, :meth:`IncFluidSimulator._fill_subset`, runs
progressive filling in *parallel rounds*: instead of freezing one
bottleneck level per round (which degenerates to one link at a time at
cluster scale), every round freezes every **locally minimal** link — a
link freezes at its current fair share iff no unfrozen user of it has a
strictly smaller share on another link.  This is exact because shares
never decrease during progressive filling: removing users at or below a
link's fair share cannot lower it, so a locally minimal link's user set
is stable until it saturates, and sequential filling would freeze the
same flows at the same level.  Rounds therefore track the *dependency
depth* of the bottleneck structure (tens) rather than the number of
distinct water levels (thousands).  Frozen rows are compacted away once
they are half the working set, so per-round cost follows the shrinking
unfrozen set.

The engine is registered under two names, and the name fixes the mode:

* ``fluid-vec`` (``incremental=False``, the default engine): every
  arrival batch or completion group triggers one **full refill** of all
  active flows.  It keeps no per-link bookkeeping at all, which is what
  makes it the fastest engine for the paper's static phases (every
  flow starts at t=0 and most of them change rate at each completion),
  and it never runs the closure or certificate code below — it is the
  independent reference the incremental mode is tested against.
* ``fluid-vec-inc`` (``incremental=True``): each event is treated as a
  *local* perturbation.  Instead of re-running progressive filling over
  the whole active set, it identifies the **bottleneck dependency
  component** of the event — the links whose frozen water level can
  actually move — refills only the flows inside it, and reuses the
  frozen levels everywhere else.

The incremental mode rests on the classic bottleneck characterization
of max-min fairness: an allocation is *the* (unique) max-min allocation
iff it is feasible and every flow has a **certificate link** on its
path that is saturated and on which the flow's rate is maximal among
the link's users.  The engine maintains, per link, the committed
**water level** ``W(l)`` — the maximum user rate if the link is
saturated, ``+inf`` otherwise — and grows the component as the at-level
fixpoint closure of the event's seed links:

1. *Seeds*: the links of every flow that arrived or completed since the
   last refill (same-timestamp mutations accumulate into one epoch — a
   whole Poisson burst, or a simultaneous completion group, costs one
   refill).
2. *Closure*: a flow joins the component iff it crosses a component
   link ``l`` at that link's level (``rate >= W(l) - eps``); a joining
   flow contributes all its links.  Iterate to a fixpoint.
3. *Local fill*: run the fill kernel over the inside flows only, against
   residual capacities (the outside users of component links are fixed
   background consumption).
4. *Verify*: recompute saturation and max-user levels on the component
   links (background included) and check the bottleneck certificate of
   every refilled flow.  Certificates of *outside* flows hold
   structurally: an outside flow's certificate link is, by the closure
   rule, never a component link (the flow sits at that link's level and
   would have joined), so no inside flow crosses it and its balance is
   untouched.
5. *Commit, expand, or fall back*: on success, write the new rates and
   water levels.  A certificate failure means a *background* flow ended
   up above the component's new level on some shared link — the event
   lowered a water level below a bystander the one-sided at-level
   closure could not see coming.  Those blockers are identified exactly
   (outside users above the inside maximum on a failed flow's link),
   pulled into the component, and the closure/fill retried, up to
   ``_MAX_EXPANSIONS`` rounds.  Only when expansion is exhausted or the
   component grows past the budget does the engine fall back to a full
   from-scratch refill — the exactness escape hatch.

In both modes flow bytes drain **lazily**: a flow's remaining volume is
materialized only when its rate changes or it completes, a commit
restamps only the flows whose rate actually moved, and completions pop
from a generation-stamped lazy heap — so an incremental event that
refills a 50-link component does O(component) work even with 10^5
concurrent flows.

The public surface is the scalar engine's (``add_flow`` / ``rates`` /
``advance_to`` / ``advance_to_next_completion`` / ``run_until_idle`` /
``results`` / ``telemetry``) plus :meth:`IncFluidSimulator.add_flows`,
a batch injection path that accepts a ready-made COO incidence so the
phase driver (:func:`repro.sim.network.simulate_phase_fluid`) never
materializes per-flow Python link lists.  See ``docs/performance.md``
for the telemetry contract and the measured reason the default stays
in full-refill mode.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import Sequence

import numpy as np

from ..obs import active as _obs_active
from ..obs.trace import TRACER
from .fluid import _EPS, FlowResult, _check_batch

__all__ = ["IncFluidSimulator"]

#: a flow is "at level" on a link when its rate reaches the link's
#: committed water level within this relative margin — generous, so
#: float noise never hides a dependency (too-eager joining only grows
#: the component; too-lazy joining would be a correctness bug)
_JOIN_REL = 1e-6

#: a component link counts as saturated when its residual capacity is
#: below this fraction of the raw capacity — progressive filling leaves
#: ~1e-16 relative residue on true bottlenecks, so this over-marks,
#: which is the safe direction (at-level flows join more eagerly)
_SAT_REL = 1e-9

#: certificate slack: a refilled flow passes when its rate reaches the
#: max-user level of a saturated path link within this relative margin
_CERT_REL = 1e-12

#: certificate-failure recovery: how many times a component may pull in
#: its blocking background flows and retry before giving up and running
#: a full refill (each retry is still budget-bounded by ``_closure``)
_MAX_EXPANSIONS = 4


class IncFluidSimulator:
    """Vectorized max-min fluid simulation over a fixed link set.

    Drop-in replacement for the scalar engine (same constructor, same
    public methods, same semantics — including zero-size flows
    completing immediately at their start time), backed by
    struct-of-arrays flow state, lazy byte draining and a
    generation-stamped completion heap.  ``incremental`` selects
    component-local refills (``fluid-vec-inc``) or a full refill per
    epoch (``fluid-vec``); see the module docstring.
    """

    def __init__(
        self, num_links: int, capacity: float | np.ndarray, *, incremental: bool = True
    ):
        if num_links <= 0:
            raise ValueError("need at least one link")
        cap = np.asarray(capacity, dtype=np.float64)
        if cap.ndim == 0:
            cap = np.full(num_links, float(cap))
        if cap.shape != (num_links,):
            raise ValueError(f"capacity must be scalar or shape ({num_links},)")
        if (cap <= 0).any():
            raise ValueError("capacities must be positive")
        self.capacity = cap
        self.num_links = num_links
        self.incremental = incremental
        self.now = 0.0
        self._results: list[FlowResult] = []

        # telemetry (see telemetry()); _obs_on is captured at
        # construction so the overhead gate can A/B with obs.deactivated()
        self._obs_on = _obs_active()
        self.recomputes = 0
        self.fill_rounds = 0
        self.frozen_links = 0
        self.compactions = 0
        self.active_flows_hwm = 0
        self.partial_refills = 0
        self.full_refills = 0
        self.cert_fallbacks = 0
        self.links_touched = 0
        self.flows_touched = 0
        self.links_active = 0
        self.flows_active = 0
        self.component_size_hwm = 0
        self.mutation_events = 0

        # struct-of-arrays flow slots (append-only, amortized doubling)
        n0 = 64
        self._cap_slots = n0
        self._n = 0
        self._n_active = 0
        self._fid = np.empty(n0, dtype=np.int64)
        self._size = np.empty(n0, dtype=np.float64)
        self._rem = np.empty(n0, dtype=np.float64)  # bytes at _sync
        self._rate = np.empty(n0, dtype=np.float64)
        self._sync = np.empty(n0, dtype=np.float64)  # last materialization
        self._start = np.empty(n0, dtype=np.float64)
        self._gen = np.zeros(n0, dtype=np.int64)
        self._act = np.zeros(n0, dtype=bool)
        self._id_to_slot: dict[int, int] = {}
        # per-slot link rows, padded with the virtual link num_links
        self._lm = np.full((n0, 1), num_links, dtype=np.int64)

        # lazy completion heap: (finish, slot, gen, slack)
        self._heap: list[tuple[float, int, int, float]] = []
        # an arrival batch or completion group since the last refill
        self._stale = False

        if not incremental:
            return
        # partial-refill bookkeeping (incremental mode only):
        # per-slot python link tuples (fast closure scans)
        self._links: list[tuple[int, ...]] = []
        self._nnz_active = 0
        # per-link state
        self._users: list[set[int]] = [set() for _ in range(num_links)]
        self._n_links_used = 0
        # committed water levels: max user rate if saturated, else +inf
        self._W = np.full(num_links, np.inf, dtype=np.float64)
        # dirty state accumulated since the last refill (the epoch)
        self._dirty_links: set[int] = set()
        self._dirty_slots: list[int] = []

    # ------------------------------------------------------------------
    # Flow management
    # ------------------------------------------------------------------
    def add_flow(self, flow_id: int, links: Sequence[int], size: float) -> None:
        """Inject a single flow at the current time (scalar-compatible)."""
        link_arr = np.asarray([int(l) for l in links], dtype=np.int64)
        self.add_flows(
            np.asarray([int(flow_id)], dtype=np.int64),
            np.asarray([float(size)], dtype=np.float64),
            np.zeros(len(link_arr), dtype=np.int64),
            link_arr,
        )

    def add_flows(
        self,
        flow_ids: np.ndarray | Sequence[int],
        sizes: np.ndarray | Sequence[float],
        coo_flow: np.ndarray,
        coo_link: np.ndarray,
    ) -> None:
        """Inject a batch of flows at the current time.

        ``coo_flow[k]`` indexes into ``flow_ids`` (0-based within this
        batch) and ``coo_link[k]`` is the directed link that flow
        traverses; entries may arrive in any order (the full contract is
        the scalar engine's).  Zero-size flows complete immediately at
        the current time.  The batch joins the current epoch: however
        many batches and completion groups land at one instant, the next
        rates query pays a single refill.
        """
        flow_ids, sizes, coo_flow, coo_link, links_per_flow = _check_batch(
            flow_ids, sizes, coo_flow, coo_link, self.num_links, self._id_to_slot
        )
        if len(flow_ids) == 0:
            return
        # a repeated (flow, link) entry would double-count the flow
        # against that link's capacity; collapse it like the scalar
        # engine (np.unique also leaves the entries flow-sorted)
        key = coo_flow * np.int64(self.num_links) + coo_link
        uniq = np.unique(key)
        coo_flow = uniq // self.num_links
        coo_link = uniq % self.num_links

        instant = sizes == 0.0
        for fid in flow_ids[instant].tolist():
            self._results.append(FlowResult(int(fid), self.now, self.now, 0.0))
        if instant.all():
            return
        keep = ~instant
        kept_ids = flow_ids[keep].tolist()
        kept_sizes = sizes[keep]
        # remap entries onto the kept subset (uniq left them flow-sorted)
        new_index = np.cumsum(keep) - 1
        entry_keep = keep[coo_flow]
        e_f = new_index[coo_flow[entry_keep]]
        e_l = coo_link[entry_keep]
        n_new = len(kept_ids)

        self.mutation_events += 1
        self._stale = True
        base = self._n
        self._grow(n_new, int(links_per_flow.max()))
        sl = np.arange(base, base + n_new, dtype=np.int64)
        self._fid[sl] = np.asarray(kept_ids, dtype=np.int64)
        self._size[sl] = kept_sizes
        self._rem[sl] = kept_sizes
        self._rate[sl] = 0.0
        self._sync[sl] = self.now
        self._start[sl] = self.now
        self._act[sl] = True
        self._n = base + n_new
        self._n_active += n_new
        self._id_to_slot.update(zip(kept_ids, range(base, base + n_new)))
        # scatter link rows (entries are flow-sorted after np.unique)
        counts = np.bincount(e_f, minlength=n_new)
        starts = np.cumsum(counts) - counts
        cols = np.arange(len(e_f), dtype=np.int64) - np.repeat(starts, counts)
        self._lm[sl[e_f], cols] = e_l
        if self._obs_on and self._n_active > self.active_flows_hwm:
            self.active_flows_hwm = self._n_active
        if not self.incremental:
            return
        users = self._users
        dirty = self._dirty_links
        for s, row in enumerate(np.split(e_l, np.cumsum(counts)[:-1]), start=base):
            tup = tuple(row.tolist())
            self._links.append(tup)
            self._nnz_active += len(tup)
            for l in tup:
                u = users[l]
                if not u:
                    self._n_links_used += 1
                u.add(s)
                dirty.add(l)
        self._dirty_slots.extend(range(base, base + n_new))

    def _grow(self, n_new: int, batch_width: int) -> None:
        """Make room for ``n_new`` slots and ``batch_width`` link columns."""
        need = self._n + n_new
        cap = self._cap_slots
        if need > cap:
            while cap < need:
                cap *= 2
            for name in ("_fid", "_size", "_rem", "_rate", "_sync", "_start"):
                old = getattr(self, name)
                new = np.empty(cap, dtype=old.dtype)
                new[: self._n] = old[: self._n]
                setattr(self, name, new)
            gen = np.zeros(cap, dtype=np.int64)
            gen[: self._n] = self._gen[: self._n]
            self._gen = gen
            act = np.zeros(cap, dtype=bool)
            act[: self._n] = self._act[: self._n]
            self._act = act
            lm = np.full((cap, self._lm.shape[1]), self.num_links, dtype=np.int64)
            lm[: self._n] = self._lm[: self._n]
            self._lm = lm
            self._cap_slots = cap
        if batch_width > self._lm.shape[1]:
            lm = np.full(
                (self._cap_slots, batch_width), self.num_links, dtype=np.int64
            )
            lm[:, : self._lm.shape[1]] = self._lm
            self._lm = lm

    @property
    def active_flows(self) -> int:
        return self._n_active

    @property
    def results(self) -> list[FlowResult]:
        """Completed flows, in completion order."""
        return self._results

    # ------------------------------------------------------------------
    # Refill orchestration
    # ------------------------------------------------------------------
    def _ensure_rates(self) -> None:
        if self._stale:
            self._refill()

    def _refill(self) -> None:
        self._stale = False
        if self._n_active:
            self.recomputes += 1
            if self._obs_on and TRACER.enabled:
                with TRACER.span("fluid.fill", flows=self._n_active) as span:
                    span.set("mode", self._refill_inner())
            else:
                self._refill_inner()
        elif self.incremental and self._dirty_links:
            # everything drained: the dirty links are empty, hence open
            self._W[list(self._dirty_links)] = np.inf
        if self.incremental:
            self._dirty_links.clear()
            self._dirty_slots.clear()

    def _refill_inner(self) -> str:
        if not self.incremental:
            self._full_refill()
            return "full"
        self.links_active += self._n_links_used
        self.flows_active += self._n_active
        act = self._act
        comp_flows = {s for s in self._dirty_slots if act[s]}
        comp_links = set(self._dirty_links)
        ok = self._closure(comp_flows, comp_links, list(comp_links))
        attempts = 0
        cert_failed = False
        while ok:
            out = self._try_partial(comp_flows, comp_links)
            if out is True:
                self.partial_refills += 1
                # count the links the fill actually processed: a link
                # whose last user departed is in the component only for
                # its O(1) level reset, and counting it could push
                # links_touched past the full-refill-equivalent
                users = self._users
                self.links_touched += sum(1 for l in comp_links if users[l])
                self.flows_touched += len(comp_flows)
                if len(comp_links) > self.component_size_hwm:
                    self.component_size_hwm = len(comp_links)
                return "partial"
            cert_failed = True
            attempts += 1
            if not out or attempts >= _MAX_EXPANSIONS:
                break
            # pull the blocking background flows in and re-run the
            # closure from their links only (growth is monotone)
            scan: list[int] = []
            links = self._links
            for s in out:
                comp_flows.add(s)
                for l in links[s]:
                    if l not in comp_links:
                        comp_links.add(l)
                        scan.append(l)
            ok = self._closure(comp_flows, comp_links, scan)
        if cert_failed:
            self.cert_fallbacks += 1
        self._full_refill()
        self.links_touched += self._n_links_used
        self.flows_touched += self._n_active
        return "full"

    def _closure(
        self,
        comp_flows: set[int],
        comp_links: set[int],
        scan: list[int],
    ) -> bool:
        """Grow ``(comp_flows, comp_links)`` in place to the at-level
        fixpoint, scanning from the links in ``scan``.

        Returns ``False`` when the component grows past the point where
        a local fill stops being cheaper than a full one (the budget
        abort) — the sets are then partially grown and must be
        discarded.
        """
        W = self._W
        rate = self._rate
        users = self._users
        links = self._links
        flow_cap = max(64, self._n_active // 2)
        ops_budget = max(1024, self._nnz_active)
        ops = 0
        inf = np.inf
        while scan:
            l = scan.pop()
            w = float(W[l])
            if w == inf:
                continue  # open links have no at-level users
            u = users[l]
            if not u:
                continue
            thr = w - _JOIN_REL * w - 1e-12
            ops += len(u)
            for s in u:
                if s in comp_flows or rate[s] < thr:
                    continue
                comp_flows.add(s)
                for l2 in links[s]:
                    if l2 not in comp_links:
                        comp_links.add(l2)
                        scan.append(l2)
            if ops > ops_budget or len(comp_flows) > flow_cap:
                return False
        return True

    def _try_partial(self, ins_set: set[int], cl_set: set[int]) -> bool | set[int]:
        """Fill the component locally; commit iff the certificates hold.

        Returns ``True`` on commit.  On a certificate failure it returns
        the set of *blocking* background slots — outside flows sitting
        above the component's new inside maximum on a failed flow's
        saturated link (the exact reason the certificate failed) — for
        the caller to pull in and retry; an empty set means no blocker
        was identified and a full refill is the only recovery.
        """
        nl = self.num_links
        cl = np.fromiter(cl_set, np.int64, len(cl_set))
        cl.sort()
        # background: outside users of component links are fixed
        # consumption, subtracted from capacity before the local fill
        inside = np.zeros(self._cap_slots, dtype=bool)
        ins = np.fromiter(ins_set, np.int64, len(ins_set)) if ins_set else (
            np.empty(0, dtype=np.int64)
        )
        ins.sort()
        inside[ins] = True
        rate = self._rate
        users = self._users
        k = len(cl)
        bg_sum = np.zeros(k, dtype=np.float64)
        bg_max = np.zeros(k, dtype=np.float64)
        for i, l in enumerate(cl.tolist()):
            ssum = 0.0
            smax = 0.0
            for s in users[l]:
                if not inside[s]:
                    r = rate[s]
                    ssum += r
                    if r > smax:
                        smax = r
            bg_sum[i] = ssum
            bg_max[i] = smax
        cap_vec = self.capacity.copy()
        cap_vec[cl] -= bg_sum
        np.maximum(cap_vec, 0.0, out=cap_vec)
        if len(ins) == 0:
            # departure-only component with no at-level survivors: the
            # links merely gained slack; refresh their levels in place
            resid = cap_vec[cl]
            sat = resid <= _SAT_REL * self.capacity[cl]
            has_bg = bg_max > 0.0
            self._W[cl] = np.where(sat & has_bg, bg_max, np.inf)
            return True
        # the fill consumes its capacity vector in place — keep cap_vec
        # pristine for the saturation audit below
        rates_new, e_f, e_l = self._fill_subset(ins, cap_vec.copy())
        entry_rate = rates_new[e_f]
        cons = np.bincount(e_l, weights=entry_rate, minlength=nl)
        maxu = np.zeros(nl, dtype=np.float64)
        np.maximum.at(maxu, e_l, entry_rate)
        resid_cl = cap_vec[cl] - cons[cl]
        sat_cl = resid_cl <= _SAT_REL * self.capacity[cl]
        maxu_cl = np.maximum(maxu[cl], bg_max)
        # bottleneck certificates for every refilled flow: a saturated
        # path link where the flow's rate is (within slack) maximal
        sat_ext = np.zeros(nl + 1, dtype=bool)
        sat_ext[cl] = sat_cl
        mx_ext = np.zeros(nl + 1, dtype=np.float64)
        mx_ext[cl] = maxu_cl
        lm = self._lm[ins]
        ok = (
            sat_ext[lm] & (rates_new[:, None] >= mx_ext[lm] * (1.0 - _CERT_REL) - _EPS)
        ).any(axis=1)
        if not ok.all():
            # identify the blockers: on the failed flows' links, the
            # background users strictly above the inside maximum (they
            # are what pushed mx_ext past the refilled rates)
            bad = lm[~ok].ravel()
            bad_links = np.unique(bad[bad < nl])
            extra: set[int] = set()
            for l in bad_links.tolist():
                lvl = maxu[l]
                if bg_max[int(np.searchsorted(cl, l))] <= lvl:
                    continue  # an inside flow is maximal here; not l
                for s in users[l]:
                    if not inside[s] and rate[s] > lvl:
                        extra.add(s)
            return extra
        self._W[cl] = np.where(sat_cl, maxu_cl, np.inf)
        self._commit(ins, rates_new)
        return True

    def _full_refill(self) -> None:
        """Fill every active flow from scratch (and, incrementally, audit
        the water levels of every link)."""
        slots = np.nonzero(self._act[: self._n])[0]
        rates_new, e_f, e_l = self._fill_subset(slots, self.capacity.copy())
        if self.incremental:
            entry_rate = rates_new[e_f]
            nl = self.num_links
            cons = np.bincount(e_l, weights=entry_rate, minlength=nl)
            maxu = np.zeros(nl, dtype=np.float64)
            np.maximum.at(maxu, e_l, entry_rate)
            counts = np.bincount(e_l, minlength=nl)
            sat = (self.capacity - cons <= _SAT_REL * self.capacity) & (counts > 0)
            self._W = np.where(sat, maxu, np.inf)
        self._commit(slots, rates_new)
        self.full_refills += 1

    def _fill_subset(
        self, slots: np.ndarray, remaining_cap: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parallel progressive filling of ``slots`` against ``remaining_cap``.

        The engine's one fill kernel (every locally minimal link freezes
        per round — exact by share monotonicity, see the module
        docstring), over any slot subset and any (residual) capacity
        vector, which it consumes in place.  Returns ``(rates, e_f,
        e_l)``: the flow-link entries of ``slots``, ``e_f`` indexing
        into ``slots``.
        """
        n_act = len(slots)
        num_links = self.num_links
        inf = np.inf
        lm = self._lm[slots]
        width = lm.shape[1]
        flat = lm.ravel()
        real = flat < num_links
        e_l = flat[real]
        e_f = np.repeat(np.arange(n_act, dtype=np.int64), width)[real]
        lm0, e_f0, e_l0 = lm, e_f, e_l

        counts = np.bincount(e_l, minlength=num_links).astype(np.float64)
        shares_ext = np.full(num_links + 1, inf, dtype=np.float64)
        shares = shares_ext[:num_links]
        np.divide(remaining_cap, counts, out=shares, where=counts > 0.0)

        rate_c = np.zeros(n_act, dtype=np.float64)
        mbuf = np.empty(n_act, dtype=np.float64)
        unfrozen_full = np.ones(n_act, dtype=bool)
        orig = np.arange(n_act, dtype=np.int64)
        unfrozen = np.ones(n_act, dtype=bool)
        blocked = np.empty(num_links + 1, dtype=bool)
        n_unfrozen = n_act
        last_compact = n_act
        rounds = frozen_links = compactions = 0
        obs_on = self._obs_on
        while n_unfrozen:
            # per-flow bottleneck: the minimal share over the flow's links
            m = shares_ext[lm].min(axis=1)
            m[~unfrozen] = inf
            mbuf[orig] = m
            # a link freezes at its current share iff no unfrozen user
            # has a strictly smaller bottleneck elsewhere; frozen flows
            # carry an inf bottleneck and never block
            blocker = mbuf[e_f] < shares[e_l] - _EPS
            blocked[:] = False
            blocked[num_links] = True  # the pad link never freezes a flow
            blocked[e_l[blocker]] = True
            # a flow freezes (at its bottleneck share) once any real
            # link of its path is unblocked
            hit = ~blocked[lm].all(axis=1)
            hit &= unfrozen
            if not hit.any():  # pragma: no cover - defensive
                break
            rounds += 1
            if obs_on:
                frozen_links += int((~blocked[:num_links] & (counts > 0.0)).sum())
            np.maximum(m, 0.0, out=m)
            frozen_now = orig[hit]
            rate_c[frozen_now] = m[hit]
            unfrozen_full[frozen_now] = False
            unfrozen &= ~hit
            n_unfrozen -= int(hit.sum())
            # release the frozen flows' bandwidth from every link they use
            flat = lm[hit].ravel()
            weights = np.repeat(m[hit], lm.shape[1])
            real = flat < num_links
            flat = flat[real]
            counts -= np.bincount(flat, minlength=num_links)
            remaining_cap -= np.bincount(
                flat, weights=weights[real], minlength=num_links
            )
            np.maximum(remaining_cap, 0.0, out=remaining_cap)
            shares[:] = inf
            np.divide(remaining_cap, counts, out=shares, where=counts > 0.0)
            # drop frozen rows and entries once they are half the
            # working set: per-round cost then tracks the shrinking
            # unfrozen set and total compaction cost stays O(nnz)
            if n_unfrozen and n_unfrozen <= last_compact // 2:
                keep = unfrozen_full[e_f]
                e_f, e_l = e_f[keep], e_l[keep]
                lm = lm[unfrozen]
                orig = orig[unfrozen]
                unfrozen = np.ones(n_unfrozen, dtype=bool)
                last_compact = n_unfrozen
                compactions += 1
        if obs_on:
            self.fill_rounds += rounds
            self.frozen_links += frozen_links
            self.compactions += compactions
        return rate_c, e_f0, e_l0

    def _commit(self, slots: np.ndarray, rates_new: np.ndarray) -> None:
        """Write new rates: materialize lazy drains, restamp the heap.

        Only flows whose rate actually moved are touched: an unchanged
        flow keeps its lazy ``(_sync, _rem)`` pair and its live heap
        entry (same rate + same drain line = the same finish time), so
        a refill that re-derives mostly-identical rates — a full refill
        after a local event, a component whose level did not shift —
        costs heap traffic proportional to the *change*, not the size.
        When the change restamps at least half the active flows, the
        heap is instead rebuilt from the arrays in one ``heapify``, which
        also sheds its stale entries.
        """
        old = self._rate[slots]
        changed = rates_new != old
        if not changed.all():
            slots = slots[changed]
            rates_new = rates_new[changed]
            old = old[changed]
        if not len(slots):
            return
        now = self.now
        self._rem[slots] = self._rem[slots] - old * (now - self._sync[slots])
        self._sync[slots] = now
        self._rate[slots] = rates_new
        self._gen[slots] += 1
        if 2 * len(slots) >= self._n_active:
            self._rebuild_heap()
        else:
            heap = self._heap
            rem = self._rem
            size = self._size
            gen = self._gen
            moving = rates_new > _EPS
            for s, r in zip(slots[moving].tolist(), rates_new[moving].tolist()):
                finish = now + float(rem[s]) / r
                slack = (_EPS * float(size[s]) + _EPS) / r
                heapq.heappush(heap, (finish, s, int(gen[s]), slack))

    def _rebuild_heap(self) -> None:
        """Rebuild the completion heap from the arrays, without stale entries.

        ``sync + rem / rate`` is the float ``now + rem / rate`` pushed at
        a flow's last commit (``sync`` is that ``now``), so the rebuilt
        heap pops exactly what the lazy one would have.
        """
        slots = np.nonzero(self._act[: self._n])[0]
        rate = self._rate[slots]
        moving = rate > _EPS
        slots = slots[moving]
        rate = rate[moving]
        finish = self._sync[slots] + self._rem[slots] / rate
        slack = (_EPS * self._size[slots] + _EPS) / rate
        self._heap = list(
            zip(finish.tolist(), slots.tolist(), self._gen[slots].tolist(), slack.tolist())
        )
        heapq.heapify(self._heap)

    # ------------------------------------------------------------------
    # Rates and telemetry
    # ------------------------------------------------------------------
    def rates(self) -> dict[int, float]:
        """Current max-min rates of the active flows (bytes/second)."""
        self._ensure_rates()
        slots = np.nonzero(self._act[: self._n])[0]
        ids = self._fid[slots].tolist()
        vals = self._rate[slots].tolist()
        return dict(zip(ids, vals))

    def telemetry(self) -> dict:
        """Per-engine fill telemetry (all counters monotone).

        The full-refill mode reports the scalar engine's shape — here
        ``fill_rounds`` counts *parallel* rounds (the bottleneck
        dependency depth) and ``compactions`` counts working-set
        compactions; its ``full_refills`` attribute equals
        ``recomputes``.  The incremental mode adds the refill split,
        ``recomputes == partial_refills + full_refills``, and the
        refill-work counters: ``links_touched`` /
        ``flows_touched`` accumulate the links/flows each refill
        actually processed, while ``links_active`` / ``flows_active``
        accumulate what a from-scratch refill would have processed at
        the same instants — their ratio is the refill-work reduction.
        ``component_size_hwm`` is the largest committed component (in
        links); ``cert_fallbacks`` counts certificate-failure full
        refills (a subset of ``full_refills``); ``mutation_events``
        counts arrival batches + completion groups, so
        ``mutation_events - recomputes`` is the epoch-batching win.
        """
        tel = {
            "recomputes": self.recomputes,
            "fill_rounds": self.fill_rounds,
            "frozen_links": self.frozen_links,
            "compactions": self.compactions,
            "active_flows_hwm": self.active_flows_hwm,
        }
        if not self.incremental:
            return tel
        return {
            **tel,
            "partial_refills": self.partial_refills,
            "full_refills": self.full_refills,
            "cert_fallbacks": self.cert_fallbacks,
            "links_touched": self.links_touched,
            "flows_touched": self.flows_touched,
            "links_active": self.links_active,
            "flows_active": self.flows_active,
            "component_size_hwm": self.component_size_hwm,
            "mutation_events": self.mutation_events,
        }

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------
    def next_completion_time(self) -> float | None:
        """Absolute time of the earliest flow completion (None if idle)."""
        if self._n_active == 0:
            return None
        self._ensure_rates()
        heap = self._heap
        gen = self._gen
        act = self._act
        while heap:
            finish, s, g, _slack = heap[0]
            if act[s] and gen[s] == g:
                return finish if finish > self.now else self.now
            heapq.heappop(heap)
        raise RuntimeError("active flows but no positive rates; check capacities")

    def advance_to(self, t: float) -> list[FlowResult]:
        """Advance the clock to ``t`` (< next completion), draining bytes."""
        if t < self.now - _EPS:
            raise ValueError(f"cannot rewind time: {t} < {self.now}")
        if t <= self.now:
            return []
        nc = self.next_completion_time()
        if nc is not None and t > nc + _EPS:
            raise ValueError(
                f"advance_to({t}) would skip a completion at {nc}; "
                "call advance_to_next_completion first"
            )
        self.now = t
        # a t landing in (nc, nc + _EPS] is accepted above, but any flow
        # draining dry in this step completed at nc, not t (see the
        # other engines)
        return self._pop_due(t, at=nc if nc is not None and t > nc else t)

    def advance_to_next_completion(self) -> list[FlowResult]:
        """Jump to the earliest completion; returns the finished flows."""
        nc = self.next_completion_time()
        if nc is None:
            return []
        self.now = nc
        return self._pop_due(nc, at=nc)

    def _pop_due(self, t: float, at: float) -> list[FlowResult]:
        """Pop and complete every heap entry whose trigger time is <= t.

        A flow completes at time ``t`` when its remaining volume is
        within the completion tolerance (``_EPS * size + _EPS`` bytes,
        like the other engines), i.e. when ``finish - slack <= t``.
        """
        heap = self._heap
        gen = self._gen
        act = self._act
        due: list[int] = []
        while heap:
            finish, s, g, slack = heap[0]
            if not act[s] or gen[s] != g:
                heapq.heappop(heap)
                continue
            if finish - slack > t:
                break
            heapq.heappop(heap)
            due.append(s)
        if not due:
            return []
        self.mutation_events += 1
        self._stale = True
        slots = np.asarray(due, dtype=np.int64)
        slots = slots[np.argsort(self._fid[slots])]  # scalar-engine order
        fids = self._fid[slots].tolist()
        starts = self._start[slots].tolist()
        sizes = self._size[slots].tolist()
        results = list(map(FlowResult, fids, starts, repeat(at), sizes))
        self._results.extend(results)
        for fid in fids:
            del self._id_to_slot[fid]
        self._act[slots] = False
        self._gen[slots] += 1
        self._rem[slots] = 0.0
        self._n_active -= len(due)
        if self.incremental:
            users = self._users
            dirty = self._dirty_links
            for s in slots.tolist():
                tup = self._links[s]
                self._nnz_active -= len(tup)
                for l in tup:
                    u = users[l]
                    u.discard(s)
                    if not u:
                        self._n_links_used -= 1
                    dirty.add(l)
        return results

    def run_until_idle(self, max_steps: int | None = None) -> float:
        """Drain all active flows; returns the final time."""
        steps = 0
        while self._n_active:
            if max_steps is not None and steps >= max_steps:
                raise RuntimeError("fluid simulation exceeded its step budget")
            finished = self.advance_to_next_completion()
            if not finished:  # pragma: no cover - defensive
                raise RuntimeError("no progress in fluid simulation")
            steps += 1
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncFluidSimulator({self.num_links} links, "
            f"{self._n_active} active, t={self.now:g}, "
            f"incremental={self.incremental})"
        )
