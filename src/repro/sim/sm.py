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
from repro.sim.kernel_runtime import KernelRuntime
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
                 on_tb_finished: Callable,
                 wake_listener: Optional[Callable] = None):
        self.sm_id = sm_id
        self.config = config
        self.runtimes = runtimes
        self.memory = memory
        self.kernel_stats = kernel_stats
        self.resources = SMResources(config.sm)
        self.schedulers = [make_scheduler(config.scheduler_policy,
                                          self._sleep_changed)
                           for _ in range(config.sm.warp_schedulers)]
        self.tbs: List[ThreadBlock] = []
        num_kernels = len(runtimes)
        self.tb_count = [0] * num_kernels
        #: Non-evicting resident TBs per kernel, maintained incrementally at
        #: dispatch / eviction-begin / removal so residency queries are O(1)
        #: instead of a scan over ``tbs``.
        self.live_tb_count = [0] * num_kernels
        # Cached min over scheduler ``sleep_until``s for the engine's per-SM
        # sleep skipping and idle-skip; invalidated by the schedulers'
        # notify callback.  ``wake_listener`` (the engine) is told about
        # every change so it can keep a GPU-level minimum of the hints.
        self._wake_min = 0
        self._wake_dirty = True
        self._wake_listener = wake_listener
        # Enhanced Warp Scheduler state.  With quotas disabled the
        # all-True eligibility list makes this SM behave like stock hardware.
        self.quota_enabled = False
        self.quota_ok = [True] * num_kernels
        self.quota_counters = [0.0] * num_kernels
        # Idle-warp sampling accumulators (Section 3.6), read by policies.
        self.idle_sum = [0] * num_kernels
        self.idle_samples = 0
        # Per-epoch retired-instruction counters local to this SM.
        self.retired_local = [0] * num_kernels
        self.issued_total = 0
        self._on_quota_exhausted = on_quota_exhausted
        self._on_tb_finished = on_tb_finished
        lat = config.memory.latency
        self._alu_lat = lat.alu
        self._sfu_lat = lat.sfu
        self._lds_lat = lat.shared_mem

    # ------------------------------------------------------------------ issue

    def step(self, cycle: int, sample: bool = False) -> int:
        """Advance this SM by one cycle; returns instructions issued."""
        issued = 0
        quota_ok = self.quota_ok
        for scheduler in self.schedulers:
            warp = scheduler.select(cycle, quota_ok)
            if warp is not None:
                self._issue(warp, cycle)
                issued += 1
        self.issued_total += issued
        if sample:
            self.sample_idle(cycle)
        return issued

    def _issue(self, warp: Warp, cycle: int) -> None:
        runtime = self.runtimes[warp.kernel_idx]
        pattern = runtime.program.pattern
        inst = pattern[warp.pc % len(pattern)]
        opcode = inst.opcode
        lanes = inst.active_lanes
        barrier_released = False

        if opcode == 0:  # ALU
            warp.ready_at = cycle + (self._alu_lat if inst.dependent else 1)
        elif opcode == 2:  # LDG
            lines = warp.global_lines(runtime)
            warp.ready_at = self.memory.warp_access(
                self.sm_id, warp.kernel_idx, lines, False, cycle)
        elif opcode == 4:  # LDS
            warp.ready_at = cycle + (self._lds_lat if inst.dependent else 1)
        elif opcode == 3:  # STG
            lines = warp.global_lines(runtime)
            self.memory.warp_access(self.sm_id, warp.kernel_idx, lines, True, cycle)
            warp.ready_at = cycle + 1
        elif opcode == 1:  # SFU
            warp.ready_at = cycle + (self._sfu_lat if inst.dependent else 4)
        else:  # BAR
            barrier_released = warp.tb.arrive_barrier(warp, cycle)

        kernel_idx = warp.kernel_idx
        stats = self.kernel_stats[kernel_idx]
        stats.retired_thread_insts += lanes
        stats.issued_warp_insts += 1
        self.retired_local[kernel_idx] += lanes

        warp.pc += 1
        if warp.pc >= runtime.program_length and warp.state != WarpState.AT_BARRIER:
            self._retire_warp(warp, cycle)
        if barrier_released:
            # Peers released by this barrier advanced their pc when they
            # issued the BAR; if that was their last instruction they retire
            # now instead of re-entering the scheduler.
            self._wake_schedulers()
            length = runtime.program_length
            for peer in warp.tb.warps:
                if peer.state == WarpState.RUNNING and peer.pc >= length:
                    self._retire_warp(peer, cycle)

        if self.quota_enabled:
            remaining = self.quota_counters[kernel_idx] - lanes
            self.quota_counters[kernel_idx] = remaining
            if remaining <= 0 and self.quota_ok[kernel_idx]:
                self.quota_ok[kernel_idx] = False
                self._on_quota_exhausted(self, kernel_idx, cycle)

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
        self._wake_dirty = False
        if self._wake_listener is not None:
            self._wake_listener()

    wake_all = _wake_schedulers

    def _sleep_changed(self) -> None:
        self._wake_dirty = True
        if self._wake_listener is not None:
            self._wake_listener()

    def wake_hint(self) -> int:
        """Earliest cycle at which any of this SM's schedulers may issue."""
        if self._wake_dirty:
            self._wake_min = min(s.sleep_until for s in self.schedulers)
            self._wake_dirty = False
        return self._wake_min

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
        self.retired_local.append(0)

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
        """Release a finished or fully saved TB's resources and warps."""
        for warp in tb.warps:
            # The back-reference set at add_warp replaces the old
            # O(schedulers x warps) membership probe per warp.
            scheduler = warp.sched
            if scheduler is not None:
                scheduler.remove_warp(warp)
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
            self.retired_local[kernel_idx] = 0
        self.idle_samples = 0

    def mean_idle_warps(self, kernel_idx: int) -> float:
        if self.idle_samples == 0:
            return 0.0
        return self.idle_sum[kernel_idx] / self.idle_samples
