"""One streaming multiprocessor: warp issue, quotas, TB residency.

The per-cycle issue path implements the Enhanced Warp Scheduler of
Section 3.3: each of the SM's warp schedulers runs its unmodified policy
(GTO by default) over the warps whose kernel still has quota
(``quota_ok``); issuing an instruction retires ``active_lanes`` thread
instructions and decrements the kernel's local quota counter.  When a
counter crosses zero the kernel is throttled on this SM and the active
policy is notified (this is where Naïve's non-QoS refill and Elastic's
early-epoch checks hang).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config import GPUConfig
from repro.sim.kernel_runtime import FIXED, LOAD, STORE, KernelRuntime
from repro.sim.memory import MemorySubsystem
from repro.sim.scheduler import make_scheduler
from repro.sim.stats import KernelStats
from repro.sim.tb import SMResources, ThreadBlock
from repro.sim.warp import Warp, WarpState


class SM:
    """A streaming multiprocessor hosting TBs from one or more kernels."""

    def __init__(self, sm_id: int, config: GPUConfig,
                 runtimes: List[KernelRuntime],
                 memory: MemorySubsystem,
                 kernel_stats: List[KernelStats],
                 on_quota_exhausted: Callable,
                 on_tb_finished: Callable):
        self.sm_id = sm_id
        self.config = config
        self.runtimes = runtimes
        self.memory = memory
        self.kernel_stats = kernel_stats
        self.resources = SMResources(config.sm)
        self.schedulers = [make_scheduler(config.scheduler_policy)
                           for _ in range(config.sm.warp_schedulers)]
        self.tbs: List[ThreadBlock] = []
        num_kernels = len(runtimes)
        self.tb_count = [0] * num_kernels
        #: Non-evicting resident TBs per kernel, maintained incrementally at
        #: dispatch / eviction-begin / removal so residency queries are O(1)
        #: instead of a scan over ``tbs``.
        self.live_tb_count = [0] * num_kernels
        #: Earliest cycle this SM may issue, for the engine's per-SM sleep
        #: skipping and idle jumps.  ``step`` stores it (0 after an issue,
        #: else ``wake_hint()``); ``wake_all``, and ``dispatch_tb`` or
        #: ``remove_tb`` when they wake a sleeping scheduler, reset it to
        #: 0, so it never exceeds the schedulers' true minimum
        #: ``sleep_until``.
        self._wake_min = 0
        # Enhanced Warp Scheduler state.  With quotas disabled the
        # all-True eligibility list makes this SM behave like stock hardware.
        self.quota_enabled = False
        self.quota_ok = [True] * num_kernels
        self.quota_counters = [0.0] * num_kernels
        # Idle-warp sampling accumulators (Section 3.6), read by policies.
        self.idle_sum = [0] * num_kernels
        self.idle_samples = 0
        self.issued_total = 0
        self._on_quota_exhausted = on_quota_exhausted
        self._on_tb_finished = on_tb_finished

    # ------------------------------------------------------------------ issue

    def step(self, cycle: int, sample: bool = False) -> int:
        """Advance this SM by one cycle; returns instructions issued.

        Each awake scheduler selects a warp, which issues the next slot of
        its kernel's decoded program: memory access, retired-lane stats,
        ``pc``, warp retirement, barrier release, then the EWS quota
        charge and its exhaustion callback, in that order.
        """
        issued = 0
        quota_ok = self.quota_ok
        runtimes = self.runtimes
        for scheduler in self.schedulers:
            if cycle < scheduler.sleep_until:
                continue
            warp = scheduler.select(cycle, quota_ok)
            if warp is None:
                continue
            issued += 1
            kernel_idx = warp.kernel_idx
            runtime = runtimes[kernel_idx]
            pc = warp.pc
            kind, lanes, delay = runtime.decoded[pc % runtime.pattern_length]
            barrier_released = False
            if kind == FIXED:
                warp.ready_at = cycle + delay
            elif kind == LOAD:
                warp.ready_at = self.memory.warp_access(
                    self.sm_id, kernel_idx, warp.global_lines(runtime),
                    False, cycle)
            elif kind == STORE:
                self.memory.warp_access(self.sm_id, kernel_idx,
                                        warp.global_lines(runtime), True,
                                        cycle)
                warp.ready_at = cycle + delay
            else:  # BARRIER
                barrier_released = warp.tb.arrive_barrier(warp, cycle)

            self.kernel_stats[kernel_idx].retired_thread_insts += lanes
            pc += 1
            warp.pc = pc
            length = runtime.program_length
            if pc >= length and warp.state != WarpState.AT_BARRIER:
                self._retire_warp(warp, cycle)
            if barrier_released:
                # Peers released by this barrier advanced their pc when
                # they issued the BAR; if that was their last instruction
                # they retire now instead of re-entering the scheduler.
                self._wake_schedulers()
                for peer in warp.tb.warps:
                    if peer.state == WarpState.RUNNING and peer.pc >= length:
                        self._retire_warp(peer, cycle)

            if self.quota_enabled:
                remaining = self.quota_counters[kernel_idx] - lanes
                self.quota_counters[kernel_idx] = remaining
                if remaining <= 0 and quota_ok[kernel_idx]:
                    quota_ok[kernel_idx] = False
                    self._on_quota_exhausted(self, kernel_idx, cycle)
        self.issued_total += issued
        self._wake_min = 0 if issued else self.wake_hint()
        if sample:
            self.sample_idle(cycle)
        return issued

    def _retire_warp(self, warp: Warp, cycle: int) -> None:
        warp.state = WarpState.DONE
        tb = warp.tb
        tb.done_warps += 1
        if tb.finished and not tb.evicting:
            self._on_tb_finished(self, tb, cycle)

    def _wake_schedulers(self) -> None:
        for scheduler in self.schedulers:
            scheduler.sleep_until = 0
        self._wake_min = 0

    wake_all = _wake_schedulers

    def wake_hint(self) -> int:
        """Earliest cycle at which any of this SM's schedulers may issue."""
        schedulers = self.schedulers
        wake = schedulers[0].sleep_until
        for scheduler in schedulers:
            if scheduler.sleep_until < wake:
                wake = scheduler.sleep_until
        return wake

    # ------------------------------------------------------- quota interface

    def set_quota(self, kernel_idx: int, amount: float) -> None:
        """Load a kernel's local quota counter and re-enable it if positive."""
        self.quota_counters[kernel_idx] = amount
        ok = amount > 0
        if ok != self.quota_ok[kernel_idx]:
            self.quota_ok[kernel_idx] = ok
            if ok:
                self._wake_schedulers()

    def add_quota(self, kernel_idx: int, amount: float) -> None:
        """Top up a kernel's counter (Naïve's mid-epoch non-QoS refill)."""
        self.set_quota(kernel_idx, self.quota_counters[kernel_idx] + amount)

    def all_exhausted(self, kernel_indices) -> bool:
        """True when every listed kernel's local counter is <= 0."""
        counters = self.quota_counters
        return all(counters[k] <= 0 for k in kernel_indices)

    # ------------------------------------------------------------ TB hosting

    def add_kernel(self) -> None:
        """Extend every per-kernel parallel list for a mid-run launch
        (``GPUSimulator.launch_at``); the newcomer starts with no TBs, no
        quota and clean sampling accumulators."""
        self.tb_count.append(0)
        self.live_tb_count.append(0)
        self.quota_ok.append(True)
        self.quota_counters.append(0.0)
        self.idle_sum.append(0)

    def dispatch_tb(self, kernel_idx: int, tb_id: int, cycle: int) -> ThreadBlock:
        """Admit one TB of the kernel and spread its warps over schedulers."""
        runtime = self.runtimes[kernel_idx]
        spec = runtime.spec
        self.resources.admit(spec)
        tb = ThreadBlock(tb_id, kernel_idx, spec, cycle)
        for warp_id in range(runtime.warps_per_tb):
            warp = Warp(kernel_idx, tb, warp_id,
                        seed=runtime.warp_seed(tb_id, warp_id),
                        start_cursor=runtime.start_cursor(tb_id, warp_id))
            warp.ready_at = cycle + 1
            tb.warps.append(warp)
            scheduler = min(self.schedulers, key=lambda s: len(s.warps))
            if scheduler.sleep_until:
                self._wake_min = 0
            scheduler.add_warp(warp)
        self.tbs.append(tb)
        self.tb_count[kernel_idx] += 1
        self.live_tb_count[kernel_idx] += 1
        return tb

    def pick_eviction_victim(self, kernel_idx: int) -> Optional[ThreadBlock]:
        """Choose the TB to context-switch out: the most recently dispatched
        live TB of the kernel (cheapest to refill, least sunk work)."""
        for tb in reversed(self.tbs):
            if tb.kernel_idx == kernel_idx and not tb.evicting and not tb.finished:
                return tb
        return None

    def note_eviction_begin(self, tb: ThreadBlock) -> None:
        """Account a TB leaving the live set as its eviction starts (the TB
        stays resident, holding resources, until the context save drains)."""
        self.live_tb_count[tb.kernel_idx] -= 1

    def remove_tb(self, tb: ThreadBlock) -> None:
        """Release a finished or fully saved TB's resources and warps.

        The TB then drops its warp list, so neither it nor its warps sit
        in a reference cycle: they are freed as soon as the last caller
        lets go, not at the next garbage collection.
        """
        for warp in tb.warps:
            # The back-reference set at add_warp replaces the old
            # O(schedulers x warps) membership probe per warp.
            scheduler = warp.sched
            if scheduler is not None:
                if scheduler.sleep_until:
                    self._wake_min = 0
                scheduler.remove_warp(warp)
        tb.warps = []
        self.tbs.remove(tb)
        self.tb_count[tb.kernel_idx] -= 1
        if not tb.evicting:
            self.live_tb_count[tb.kernel_idx] -= 1
        self.resources.release(tb.spec)

    # -------------------------------------------------------------- sampling

    def sample_idle(self, cycle: int) -> None:
        """Count ready-but-not-issued warps per kernel (idle warps, Sec 3.6).

        Runs after the issue loop, so any warp still ready this cycle could
        not be scheduled — the paper's definition of an idle warp.  Warps of
        a quota-throttled kernel count too: they hold static resources
        without contributing progress, which is exactly the excess-TLP
        signal the TB re-allocator needs (a satisfied QoS kernel's parked
        warps are what the non-QoS side can reclaim).

        The engine also calls this directly for SMs it sleep-skips on a
        sample cycle, so every SM observes every grid point.  Counting is
        each scheduler's ``sample_ready`` scan over its warps.
        """
        idle = self.idle_sum
        for scheduler in self.schedulers:
            scheduler.sample_ready(cycle, idle)
        self.idle_samples += 1

    def reset_epoch_sampling(self) -> None:
        for kernel_idx in range(len(self.idle_sum)):
            self.idle_sum[kernel_idx] = 0
        self.idle_samples = 0

    def mean_idle_warps(self, kernel_idx: int) -> float:
        if self.idle_samples == 0:
            return 0.0
        return self.idle_sum[kernel_idx] / self.idle_samples
