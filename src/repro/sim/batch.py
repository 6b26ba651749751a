"""Batch engine core: windowed struct-of-arrays SM advancement.

The ``GPUConfig.engine_core="batch"`` variant.  The run loop's per-SM
sleep skipping makes *idle* cycles cheap; busy SMs still pay Python method
dispatch per warp per cycle.  The batch core makes *busy* cycles cheap
too, by advancing whole SMs through **edge-free windows** with table
lookups and bulk arithmetic instead of per-cycle object stepping:

1. **Probe** (:meth:`BatchState.probe`): hot warp state — ``ready_at``
   cycles, instruction cursors, lifecycle states, kernel indices — is
   gathered into parallel numpy arrays per SM (the sync-in) and a horizon
   ``H`` is computed such that *nothing order-dependent can happen* in
   ``[cycle, H)``: no epoch boundary, idle-warp sample-grid point,
   preemption completion, TB-wide barrier, global memory access (the FCFS
   memory controllers are shared, order-dependent state), warp retirement
   (retiring frees TBs and triggers dispatch), or quota zero crossing (the
   policy's ``on_quota_exhausted`` hook fires mid-cycle).  Each warp's
   earliest possible "edge" issue is ``max(ready_at, cycle)`` plus its
   distance (in instructions) to the next edge slot of its program, a
   vectorised table lookup; quota crossings are excluded by capping the
   window so a kernel's counter cannot reach zero even at the maximum
   32-lanes-per-scheduler-per-cycle drain rate.

2. **Advance** (:meth:`BatchState.advance`): inside the window each warp
   scheduler is *independent* — selection only reads its own warps'
   readiness, and every effect of an issue (``ready_at`` bump, cursor
   increment, statistics, quota decrement) is local or commutative — so
   each scheduler replays its exact GTO/LRR selection sequence over plain
   parallel lists, jumping stalls and bulk-applying greedy runs of
   back-to-back single-cycle instructions via per-pattern prefix-sum
   tables (:class:`PatternOps`).  Quota decrements commute bit-exactly:
   lane counts are integers and counters stay strictly positive inside a
   window, so every partial difference is exactly representable in IEEE
   double and the final counter value is order-independent.

3. **Sync-out**: mutated cursors and readiness are written back to the
   :class:`~repro.sim.warp.Warp` objects and each issuing scheduler's
   ``sleep_until`` is cleared (its next ``select`` rescans its warps), so
   the engine can drop to the unmodified scalar path at every edge —
   barriers, TB moves, preemption, epoch boundaries and sample cycles run
   exactly the code the event core runs.

When probes fail (memory-bound phases: some warp is always about to touch
the memory system), an exponential backoff spaces re-probes out so the
core degrades to event-core speed instead of paying O(warps) probe cost
per cycle.  Record-for-record identity with the event core is enforced
by the differentials in ``tests/test_event_core.py`` (both cores against
a test oracle that steps every SM every cycle) and the golden-record
replay in ``tests/test_controllers.py``.

Telemetry stays byte-identical as well: issue cycles are marked in boolean
masks over the window so the busy-trajectory counters behind the sleep-skip
telemetry fields count exactly the (SM, cycle) pairs the scalar path
counts.
"""

from __future__ import annotations

from typing import List

import numpy as np

_NEVER = 1 << 62

#: Sentinel instruction-distance for "no edge slot anywhere in the pattern"
#: (kept far below int64 overflow when added to a cycle number).
_FAR = 1 << 40

#: Windows shorter than this run on the scalar event path instead: the
#: array sync-in/sync-out costs more than it saves.
_MIN_WINDOW = 8

#: Upper bound on the failed-probe backoff (cycles between re-probes).
_BACKOFF_MAX = 256


class PatternOps:
    """Per-kernel instruction-pattern tables for in-window advancement.

    Built once per launched kernel from its expanded pattern and the
    machine's latency config.  All tables cover the *doubled* pattern so a
    greedy run or prefix-sum difference can cross the iteration boundary
    without modular arithmetic:

    ``delta[i]``
        Issue-to-ready latency of the (non-edge) instruction at slot
        ``i``: 1 for independent ALU/LDS, the pipeline latency for
        dependent ALU/SFU/LDS.  Edge slots hold 0 and are never read —
        the probe guarantees no edge slot issues inside a window.
    ``runs[i]``
        Length of the run of consecutive ``delta == 1`` slots starting at
        ``i``: a greedy (GTO) warp issues the whole run back-to-back, one
        instruction per cycle, so the run is applied as a single bulk step.
    ``lanes[i]`` / ``lanes_prefix[i]``
        Active lanes per slot and their prefix sums, for bulk quota and
        retired-instruction accounting.
    ``edge_steps[i]`` (numpy, single pattern length)
        Instructions from slot ``i`` to the next edge slot (LDG/STG/BAR),
        ``_FAR`` when the pattern has none.  The probe combines this with
        the distance to the final program instruction (retirement).
    """

    __slots__ = ("plen", "final_index", "delta", "runs", "lanes",
                 "lanes_prefix", "edge_steps")

    def __init__(self, runtime, latency):
        pattern = runtime.program.pattern
        plen = len(pattern)
        self.plen = plen
        self.final_index = runtime.program_length - 1
        doubled = pattern + pattern
        delta: List[int] = []
        lanes: List[int] = []
        bad: List[bool] = []
        for inst in doubled:
            op = inst.opcode
            edge = op == 2 or op == 3 or op == 5  # LDG, STG, BAR
            bad.append(edge)
            lanes.append(inst.active_lanes)
            if edge:
                delta.append(0)
            elif op == 0:  # ALU
                delta.append(latency.alu if inst.dependent else 1)
            elif op == 1:  # SFU
                delta.append(latency.sfu if inst.dependent else 4)
            else:  # LDS
                delta.append(latency.shared_mem if inst.dependent else 1)
        runs = [0] * (2 * plen)
        streak = 0
        for i in range(2 * plen - 1, -1, -1):
            streak = streak + 1 if (not bad[i] and delta[i] == 1) else 0
            runs[i] = streak
        prefix = [0] * (2 * plen + 1)
        total = 0
        for i in range(2 * plen):
            total += lanes[i]
            prefix[i + 1] = total
        dist = [0] * plen
        nearest = _FAR
        for i in range(2 * plen - 1, -1, -1):
            nearest = 0 if bad[i] else min(nearest + 1, _FAR)
            if i < plen:
                dist[i] = nearest
        self.delta = delta
        self.runs = runs
        self.lanes = lanes
        self.lanes_prefix = prefix
        self.edge_steps = np.asarray(dist, dtype=np.int64)


class BatchState:
    """Window probing and vectorised advancement for one simulator."""

    def __init__(self, sim):
        self.sim = sim
        latency = sim.config.memory.latency
        self.ops: List[PatternOps] = [PatternOps(runtime, latency)
                                      for runtime in sim.runtimes]
        self.num_kernels = sim.num_kernels
        self.min_window = _MIN_WINDOW
        self.backoff = 1
        self.next_probe_at = 0
        self._advance_sched = (
            self._advance_gto if sim.config.scheduler_policy == "gto"
            else self._advance_lrr)

    def add_kernel(self, runtime) -> None:
        """Build pattern tables for a kernel launched mid-run
        (``GPUSimulator.launch_at``): activation always happens on the
        scalar path (the probe horizon never crosses a pending launch), so
        extending here between windows is safe."""
        self.ops.append(PatternOps(runtime, self.sim.config.memory.latency))
        self.num_kernels += 1

    def probe_failed(self, cycle: int) -> None:
        """Back off after a too-short horizon so dense-edge (memory-bound)
        phases pay O(warps) probe cost only every ``backoff`` cycles."""
        self.next_probe_at = cycle + self.backoff
        doubled = self.backoff * 2
        self.backoff = doubled if doubled < _BACKOFF_MAX else _BACKOFF_MAX

    def window_opened(self) -> None:
        self.next_probe_at = 0
        self.backoff = 1

    # ---------------------------------------------------------------- probe

    def probe(self, cycle: int, end_cycle: int) -> int:
        """Edge-free horizon from ``cycle``: the earliest cycle at which
        anything the window cannot model might happen.

        Conservative by construction — every bound is "earliest possible",
        assuming a warp issues every cycle from the moment it is ready —
        so the window never needs rollback: an edge instruction is simply
        never issued inside one.
        """
        sim = self.sim
        horizon = sim.next_epoch_at
        if sim.next_sample_at < horizon:
            horizon = sim.next_sample_at
        next_done = sim.preemption.next_completion
        if next_done is not None and next_done < horizon:
            horizon = next_done
        # A pending mid-run launch (repro.serve arrivals) is a control edge:
        # the window must close there so activation runs on the scalar path
        # at the same loop-top point as the event core.
        if sim._next_launch_at < horizon:
            horizon = sim._next_launch_at
        if end_cycle < horizon:
            horizon = end_cycle
        floor = cycle + self.min_window
        if horizon < floor:
            return horizon
        ops = self.ops
        for sm in sim.sms:
            warps = []
            for scheduler in sm.schedulers:
                warps.extend(scheduler.warps)
            count = len(warps)
            if count == 0:
                continue
            # Sync-in: the SM's hot warp state as parallel arrays.
            ready = np.fromiter((w.ready_at for w in warps), np.int64, count)
            cursors = np.fromiter((w.pc for w in warps), np.int64, count)
            states = np.fromiter((w.state for w in warps), np.int64, count)
            kernels = np.fromiter((w.kernel_idx for w in warps), np.int64,
                                  count)
            np.maximum(ready, cycle, out=ready)
            runnable = states == 0
            quota_enabled = sm.quota_enabled
            quota_ok = sm.quota_ok
            drain_rate = 32 * len(sm.schedulers)
            for kernel_idx in range(self.num_kernels):
                if quota_enabled and not quota_ok[kernel_idx]:
                    continue  # throttled: invisible to selection, no edges
                mask = runnable & (kernels == kernel_idx)
                if not mask.any():
                    continue
                kops = ops[kernel_idx]
                cursor = cursors[mask]
                steps = np.minimum(kops.edge_steps[cursor % kops.plen],
                                   kops.final_index - cursor)
                bound = int((ready[mask] + steps).min())
                if bound < horizon:
                    horizon = bound
                    if horizon < floor:
                        return horizon
                if quota_enabled:
                    # Keep the counter strictly positive even at the
                    # maximum drain rate, so the zero crossing (and its
                    # policy callback) always lands on the scalar path.
                    counter = sm.quota_counters[kernel_idx]
                    cap = int(counter // drain_rate)
                    if cap * drain_rate >= counter:
                        cap -= 1
                    if cap < 0:
                        cap = 0
                    if cycle + cap < horizon:
                        horizon = cycle + cap
                        if horizon < floor:
                            return horizon
        return horizon

    # -------------------------------------------------------------- advance

    def advance(self, cycle: int, horizon: int) -> None:
        """Advance every SM through the edge-free window ``[cycle, horizon)``.

        Each scheduler replays its exact selection sequence over parallel
        lists of its eligible warps; effects are accumulated per kernel and
        applied once at sync-out (order-independent inside the window, see
        the module docstring).
        """
        sim = self.sim
        tel_on = sim.telemetry is not None
        width = horizon - cycle
        gpu_busy = np.zeros(width, dtype=bool) if tel_on else None
        busy_sm_cycles = 0
        num_kernels = self.num_kernels
        kernel_stats = sim.kernel_stats
        advance_sched = self._advance_sched
        for sm in sim.sms:
            sm_busy = np.zeros(width, dtype=bool) if tel_on else None
            lanes_spent = [0] * num_kernels
            issue_counts = [0] * num_kernels
            issued = 0
            for scheduler in sm.schedulers:
                issued += advance_sched(scheduler, sm, cycle, horizon,
                                        lanes_spent, issue_counts, sm_busy)
            if not issued:
                continue
            sm.issued_total += issued
            quota_enabled = sm.quota_enabled
            counters = sm.quota_counters
            retired_local = sm.retired_local
            for kernel_idx in range(num_kernels):
                count = issue_counts[kernel_idx]
                if not count:
                    continue
                lanes = lanes_spent[kernel_idx]
                stats = kernel_stats[kernel_idx]
                stats.retired_thread_insts += lanes
                stats.issued_warp_insts += count
                retired_local[kernel_idx] += lanes
                if quota_enabled:
                    counters[kernel_idx] -= lanes  # no crossing: probe-capped
            # Sync-out cleared sleep state; re-derive the cached wake-hint
            # minimums lazily.
            sm._sleep_changed()
            if tel_on:
                busy_sm_cycles += int(sm_busy.sum())
                gpu_busy |= sm_busy
        if tel_on:
            sim._tel_busy_sm_cycles += busy_sm_cycles
            sim._tel_busy_gpu_cycles += int(gpu_busy.sum())

    # ------------------------------------------------- per-scheduler replay

    def _eligible(self, scheduler, sm):
        """Warps selection can see this window, oldest first (warp-list
        order)."""
        if sm.quota_enabled:
            quota_ok = sm.quota_ok
            return [w for w in scheduler.warps
                    if w.state == 0 and quota_ok[w.kernel_idx]]
        return [w for w in scheduler.warps if w.state == 0]

    def _advance_gto(self, scheduler, sm, cycle, horizon,
                     lanes_spent, issue_counts, busy) -> int:
        """Exact greedy-then-oldest replay over ``[cycle, horizon)``."""
        eligible = self._eligible(scheduler, sm)
        if not eligible:
            return 0
        ready_at = [w.ready_at for w in eligible]
        if min(ready_at) >= horizon:
            return 0
        count = len(eligible)
        cursors = [w.pc for w in eligible]
        kernel_of = [w.kernel_idx for w in eligible]
        all_ops = self.ops
        ops_of = [all_ops[k] for k in kernel_of]
        last = scheduler.last
        last_idx = -1
        if last is not None:
            for q in range(count):
                if eligible[q] is last:
                    last_idx = q
                    break
        t = cycle
        issued = 0
        while True:
            if last_idx >= 0 and ready_at[last_idx] <= t:
                j = last_idx  # greedy: keep issuing from the last warp
            else:
                j = -1
                wake = _NEVER
                for q in range(count):  # oldest ready (age order)
                    due = ready_at[q]
                    if due <= t:
                        j = q
                        break
                    if due < wake:
                        wake = due
                if j < 0:
                    if wake >= horizon:
                        break
                    t = wake  # stall: jump to the next readiness change
                    continue
                last_idx = j
            ops = ops_of[j]
            position = cursors[j]
            slot = position % ops.plen
            delta = ops.delta[slot]
            kernel_idx = kernel_of[j]
            if delta == 1:
                # Greedy run: back-to-back single-cycle instructions,
                # applied in bulk via the prefix tables.
                n = ops.runs[slot]
                room = horizon - t
                if n > room:
                    n = room
                cursors[j] = position + n
                lanes_spent[kernel_idx] += (ops.lanes_prefix[slot + n]
                                            - ops.lanes_prefix[slot])
                issue_counts[kernel_idx] += n
                issued += n
                if busy is not None:
                    busy[t - cycle:t - cycle + n] = True
                t += n
                ready_at[j] = t
            else:
                cursors[j] = position + 1
                lanes_spent[kernel_idx] += ops.lanes[slot]
                issue_counts[kernel_idx] += 1
                issued += 1
                if busy is not None:
                    busy[t - cycle] = True
                ready_at[j] = t + delta
                t += 1
            if t >= horizon:
                break
        if issued:
            for q in range(count):  # sync-out
                warp = eligible[q]
                warp.pc = cursors[q]
                warp.ready_at = ready_at[q]
            scheduler.last = eligible[last_idx]
            scheduler.sleep_until = 0
        return issued

    def _advance_lrr(self, scheduler, sm, cycle, horizon,
                     lanes_spent, issue_counts, busy) -> int:
        """Exact loose-round-robin replay over ``[cycle, horizon)``."""
        warps = scheduler.warps
        total = len(warps)
        if total == 0:
            return 0
        eligible = self._eligible(scheduler, sm)
        if not eligible:
            return 0
        ready_at = [w.ready_at for w in eligible]
        if min(ready_at) >= horizon:
            return 0
        count = len(eligible)
        cursors = [w.pc for w in eligible]
        kernel_of = [w.kernel_idx for w in eligible]
        all_ops = self.ops
        ops_of = [all_ops[k] for k in kernel_of]
        positions = [w.pos for w in eligible]
        start = scheduler._next_index % total
        solo = count == 1  # a lone warp is re-picked every ready cycle
        t = cycle
        issued = 0
        pick = -1
        while t < horizon:
            j = -1
            best_offset = total
            wake = _NEVER
            for q in range(count):
                due = ready_at[q]
                if due <= t:
                    offset = positions[q] - start
                    if offset < 0:
                        offset += total
                    if offset < best_offset:
                        best_offset = offset
                        j = q
                elif due < wake:
                    wake = due
            if j < 0:
                if wake >= horizon:
                    break
                t = wake  # rotation index only moves on an actual issue
                continue
            ops = ops_of[j]
            position = cursors[j]
            slot = position % ops.plen
            delta = ops.delta[slot]
            kernel_idx = kernel_of[j]
            if solo and delta == 1:
                n = ops.runs[slot]
                room = horizon - t
                if n > room:
                    n = room
                cursors[j] = position + n
                lanes_spent[kernel_idx] += (ops.lanes_prefix[slot + n]
                                            - ops.lanes_prefix[slot])
                issue_counts[kernel_idx] += n
                issued += n
                if busy is not None:
                    busy[t - cycle:t - cycle + n] = True
                t += n
                ready_at[j] = t
            else:
                cursors[j] = position + 1
                lanes_spent[kernel_idx] += ops.lanes[slot]
                issue_counts[kernel_idx] += 1
                issued += 1
                if busy is not None:
                    busy[t - cycle] = True
                ready_at[j] = t + delta
                t += 1
            start = positions[j] + 1
            if start >= total:
                start = 0
            pick = j
        if issued:
            for q in range(count):  # sync-out
                warp = eligible[q]
                warp.pc = cursors[q]
                warp.ready_at = ready_at[q]
            scheduler.last = eligible[pick]
            scheduler._next_index = start
            scheduler.sleep_until = 0
        return issued
