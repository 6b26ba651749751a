"""The top-level GPU simulator.

:class:`GPUSimulator` owns the machine (SMs, memory, preemption engine) and
the launched kernels; a :class:`~repro.sim.policy.SharingPolicy` owns the
*decisions*: initial TB residency targets, per-epoch quota refresh, and
run-time TB reallocation.  Policies never see the engine — each hook
receives the engine's :class:`~repro.sim.policy.PolicyContext` (``self.ctx``),
the typed observation/actuation façade defined in :mod:`repro.sim.policy`.
The engine realises residency targets through dispatch and partial context
switch, fires epoch and quota-exhaustion callbacks, and accounts statistics.

Epochs default to ``config.epoch_length`` cycles, but a policy may pull the
next boundary forward via ``ctx.request_epoch_at`` (Elastic Epoch,
Section 3.4.3).

Passing a :class:`~repro.sim.telemetry.TelemetryRecorder` makes the engine
emit one typed :class:`~repro.sim.telemetry.EpochRecord` per epoch (see
:mod:`repro.sim.telemetry`); recording is purely observational and is off
by default.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import GPUConfig
from repro.kernels.spec import KernelSpec
from repro.sim.kernel_runtime import KernelRuntime
from repro.sim.memory import MemorySubsystem
from repro.sim.policy import PolicyContext, SharingPolicy
from repro.sim.preemption import PreemptionEngine
from repro.sim.sm import SM
from repro.sim.stats import KernelResult, KernelStats, SimulationResult
from repro.sim.telemetry import EpochRecord, TelemetryRecorder

__all__ = ["GPUSimulator", "LaunchedKernel", "SharingPolicy"]

_FOREVER = 1 << 62


@dataclass
class LaunchedKernel:
    """One kernel resident on the simulated GPU.

    ``ipc_goal`` is the architecture-level target derived from the
    application's QoS requirement (Section 3.2), in retired thread
    instructions per cycle, aggregated over the whole GPU.  Non-QoS kernels
    leave it ``None``.

    ``grid_tbs`` bounds the kernel's grid: ``None`` (the default) keeps the
    historical infinite-TB-stream behaviour used by the closed co-run
    studies; a positive count makes the kernel *finite* — it retires after
    that many TBs complete, which is what the online serving layer
    (:mod:`repro.serve`) builds request lifecycles on.
    """

    spec: KernelSpec
    is_qos: bool = False
    ipc_goal: Optional[float] = None
    grid_tbs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.is_qos and (self.ipc_goal is None or self.ipc_goal <= 0):
            raise ValueError(f"QoS kernel {self.spec.name} needs a positive ipc_goal")
        if self.grid_tbs is not None and self.grid_tbs <= 0:
            raise ValueError(
                f"kernel {self.spec.name} grid_tbs must be positive or None")


class GPUSimulator:
    """Cycle-level simulator of one GPU shared by ``kernels``."""

    def __init__(self, config: GPUConfig, kernels: List[LaunchedKernel],
                 policy: Optional[SharingPolicy] = None,
                 telemetry: Optional[TelemetryRecorder] = None,
                 allow_empty: bool = False):
        if not kernels and not allow_empty:
            raise ValueError("at least one kernel must be launched")
        names = [k.spec.name for k in kernels]
        if len(set(names)) != len(names):
            raise ValueError(f"kernel names must be unique, got {names}")
        self.config = config
        self.kernels = list(kernels)
        self.num_kernels = len(kernels)
        self.policy = policy if policy is not None else SharingPolicy()
        self.memory = MemorySubsystem(config, self.num_kernels)
        self.runtimes = [
            KernelRuntime(idx, launch.spec, config.memory)
            for idx, launch in enumerate(kernels)
        ]
        self.kernel_stats = [KernelStats() for _ in kernels]
        self.preemption = PreemptionEngine(config.preemption)
        # The SMs' callbacks and the policy context reach the engine
        # through a weak proxy, so the machine holds no reference cycle
        # and a finished simulation is freed by reference counting.
        engine = weakref.proxy(self)
        self.sms: List[SM] = [
            SM(sm_id, config, self.runtimes, self.memory, self.kernel_stats,
               lambda sm, kernel_idx, cycle:
                   engine._on_quota_exhausted(sm, kernel_idx, cycle),
               lambda sm, tb, cycle: engine._on_tb_finished(sm, tb, cycle))
            for sm_id in range(config.num_sms)
        ]
        self.tb_targets: List[List[int]] = [
            [0] * self.num_kernels for _ in range(config.num_sms)
        ]
        self._next_tb_id = [0] * self.num_kernels
        # Online-serving state (repro.serve): kernels may join mid-run via
        # launch_at and leave again when a finite grid drains.  A FIFO of
        # not-yet-activated launches plus a cheap sentinel the run loop and
        # _skip_idle both check, so a launch is processed at the loop top
        # of its cycle even when the machine was idling towards it.
        self._pending_launches: List[Tuple[int, LaunchedKernel]] = []
        self._next_launch_at = _FOREVER
        self.kernel_active = [True] * self.num_kernels
        self.kernel_launch_cycle = [0] * self.num_kernels
        self.kernel_finish_cycle: List[Optional[int]] = [None] * self.num_kernels
        # TB ids of evicted finite-grid TBs awaiting re-dispatch.  An
        # evicted TB never resumes in this simulator; a finite kernel can
        # only drain if the id is replayed from scratch (the accounting
        # matches context-reset preemption: the partial progress is wasted).
        self._replay_tbs: List[List[int]] = [[] for _ in range(self.num_kernels)]
        #: Called as ``on_kernel_retired(kernel_idx, cycle)`` when a finite
        #: kernel's last TB completes; the serving dispatcher hangs request
        #: completion (and follow-on launches) off this.
        self.on_kernel_retired: Optional[Callable] = None
        self.ctx = PolicyContext(self)
        self.telemetry = telemetry
        # Busy-trajectory counters backing the telemetry sleep-skip fields:
        # (SM, cycle) pairs / whole-GPU cycles with at least one issue.
        # Derived idle figures match a run that steps every cycle, unlike
        # raw skip counts.
        self._tel_busy_sm_cycles = 0
        self._tel_busy_gpu_cycles = 0
        self.cycle = 0
        self.epoch_index = 0
        self.next_epoch_at = config.epoch_length
        self.sample_interval = max(1, config.epoch_length // config.idle_warp_samples)
        self.next_sample_at = self.sample_interval
        self._configured = False
        self._measure_from_cycle = 0
        self._retired_baseline = [0] * self.num_kernels
        self._tbs_baseline = [0] * self.num_kernels
        self._memory_baseline = [dict() for _ in range(self.num_kernels)]
        self._aggregate_baseline: Dict[str, int] = {}

    # ------------------------------------------------------------- lifecycle

    def setup(self) -> None:
        """Apply the policy's initial allocation and dispatch the first TBs."""
        if self._configured:
            return
        if self.policy.uses_quotas:
            for sm in self.sms:
                sm.quota_enabled = True
        # _configured stays False during policy.setup so that target-setting
        # does not dispatch eagerly: the balanced round-robin fill below only
        # runs once every kernel's targets are in place.
        self.policy.setup(self.ctx)
        self._configured = True
        for sm in self.sms:
            self._dispatch_sm(sm, 0)
        if self.telemetry is not None:
            self.telemetry.open_epoch(0, 0)
        self.policy.on_epoch_start(self.ctx, 0, 0)

    # ---------------------------------------------------- online launch/retire

    def launch_at(self, cycle: int, launch: LaunchedKernel) -> int:
        """Register a kernel to join the machine at ``cycle``; returns the
        kernel index it will occupy.

        Launches must be registered in non-decreasing cycle order at or
        after the current cycle (the serving dispatcher feeds arrivals in
        time order, so this costs nothing and keeps activation order — and
        therefore kernel indices — deterministic).  The kernel activates at
        the top of the first simulated cycle ``>= cycle``: the run loop's
        idle skip stops there, so the launch sees the same machine state
        as a run that stepped every cycle.
        """
        if cycle < self.cycle:
            raise ValueError(
                f"cannot launch {launch.spec.name} at cycle {cycle}: the "
                f"simulator is already at cycle {self.cycle}")
        pending = self._pending_launches
        if pending and cycle < pending[-1][0]:
            raise ValueError("launches must be registered in cycle order")
        names = set(k.spec.name for k in self.kernels)
        names.update(entry.spec.name for _, entry in pending)
        if launch.spec.name in names:
            raise ValueError(f"kernel name {launch.spec.name} already launched")
        pending.append((cycle, launch))
        if cycle < self._next_launch_at:
            self._next_launch_at = cycle
        return self.num_kernels + len(pending) - 1

    def _process_launches(self, cycle: int) -> None:
        """Activate every pending launch due at ``cycle`` (loop-top hook)."""
        pending = self._pending_launches
        while pending and pending[0][0] <= cycle:
            _due, launch = pending.pop(0)
            self._activate_launch(launch, cycle)
        self._next_launch_at = pending[0][0] if pending else _FOREVER

    def _activate_launch(self, launch: LaunchedKernel, cycle: int) -> None:
        """Append one kernel to every per-kernel structure and dispatch it."""
        idx = self.num_kernels
        self.kernels.append(launch)
        self.num_kernels = idx + 1
        self.runtimes.append(
            KernelRuntime(idx, launch.spec, self.config.memory))
        self.kernel_stats.append(KernelStats())
        self.memory.add_kernel()
        for sm in self.sms:
            sm.add_kernel()
        for targets in self.tb_targets:
            targets.append(0)
        self._next_tb_id.append(0)
        self._replay_tbs.append([])
        self.kernel_active.append(True)
        self.kernel_launch_cycle.append(cycle)
        self.kernel_finish_cycle.append(None)
        self._retired_baseline.append(0)
        self._tbs_baseline.append(0)
        self._memory_baseline.append(dict())
        # The policy owns residency decisions for the newcomer exactly as it
        # does at setup; the default hook greedily fills every SM.  Target
        # setting dispatches eagerly (``_configured`` is True), and
        # ``dispatch_tb -> add_warp`` runs the scheduler wake chain, so
        # sleeping SMs wake for the launch automatically.
        self.policy.on_kernel_launched(self.ctx, idx, cycle)

    def _retire_kernel(self, kernel_idx: int, cycle: int) -> None:
        """Detach a drained finite kernel: its last TB just completed.

        The kernel keeps its index (results and telemetry stay addressable)
        but stops participating: targets are zeroed, dispatch skips it, and
        the per-request bookkeeping reads ``kernel_finish_cycle``.  No warp
        of it can issue again, so its :class:`KernelRuntime` (the decoded
        program) is released.
        """
        self.kernel_active[kernel_idx] = False
        self.runtimes[kernel_idx] = None
        self.kernel_finish_cycle[kernel_idx] = cycle
        for targets in self.tb_targets:
            targets[kernel_idx] = 0
        self.policy.on_kernel_retired(self.ctx, kernel_idx, cycle)
        if self.on_kernel_retired is not None:
            self.on_kernel_retired(kernel_idx, cycle)

    def _finish_eviction(self, sm: SM, tb, cycle: int) -> None:
        """Release a fully context-saved TB; finite grids replay its id."""
        if self.kernels[tb.kernel_idx].grid_tbs is not None:
            self._replay_tbs[tb.kernel_idx].append(tb.tb_id)
        sm.remove_tb(tb)
        self._dispatch_sm(sm, cycle)

    def run(self, num_cycles: int) -> None:
        """Advance the machine by ``num_cycles`` cycles.

        Each cycle steps only the SMs whose cached wake-up cycle
        (``SM._wake_min``) has come due: a sleeping SM costs one comparison
        per cycle instead of a full ``step()`` over its schedulers.  On
        sample cycles sleep-skipped SMs still run idle-warp sampling so the
        epoch-anchored grid observes every SM at every point, and a cycle
        in which nothing issues jumps straight to the next wake-up.
        """
        self.setup()
        end_cycle = self.cycle + num_cycles
        sms = self.sms
        preemption = self.preemption
        sample_interval = self.sample_interval
        tel_on = self.telemetry is not None
        while self.cycle < end_cycle:
            cycle = self.cycle
            next_done = preemption.next_completion
            if next_done is not None and next_done <= cycle:
                for sm, tb in preemption.pop_completed(cycle):
                    self._finish_eviction(sm, tb, cycle)
            if cycle >= self.next_epoch_at:
                self._begin_epoch(cycle)
            if cycle >= self._next_launch_at:
                self._process_launches(cycle)
            sample = cycle >= self.next_sample_at
            if sample:
                # Advance along the fixed epoch-anchored grid (never from the
                # current cycle): idle skips may overshoot several sample
                # points, and re-basing on `cycle` would drift the grid so
                # epochs stop seeing `idle_warp_samples` samples each.
                missed = (cycle - self.next_sample_at) // sample_interval
                self.next_sample_at += (missed + 1) * sample_interval
            issued = 0
            # The wake-up is re-read at each SM's turn: an event earlier
            # in this same cycle (quota refill, TB dispatch) may have woken
            # an SM later in the list.
            if tel_on:
                busy = 0
                for sm in sms:
                    if sm._wake_min <= cycle:
                        n = sm.step(cycle, sample)
                        if n:
                            issued += n
                            busy += 1
                    elif sample:
                        sm.sample_idle(cycle)
                if busy:
                    self._tel_busy_sm_cycles += busy
                    self._tel_busy_gpu_cycles += 1
            else:
                for sm in sms:
                    if sm._wake_min <= cycle:
                        issued += sm.step(cycle, sample)
                    elif sample:
                        sm.sample_idle(cycle)
            self.cycle = cycle + 1
            if issued == 0:
                self._skip_idle(end_cycle)

    def _begin_epoch(self, cycle: int) -> None:
        # The context advances first so the policy hook (and the telemetry
        # flush) see the closing epoch's measurement snapshot; telemetry
        # closes before the hook runs so residual quota counters are
        # captured pre-refresh.
        view = self.ctx._advance_epoch(cycle)
        self.epoch_index += 1
        self.next_epoch_at = cycle + self.config.epoch_length
        # Re-anchor the sampling grid to the epoch boundary so every epoch
        # observes the same number of idle-warp samples even when a policy
        # pulls the boundary forward (Elastic Epoch).  The boundary cycle
        # itself is a grid point: the run loop samples it right after the
        # epoch's counters reset.
        self.next_sample_at = cycle
        tel = self.telemetry
        if tel is not None:
            self._flush_telemetry_epoch(tel, view, cycle)
            tel.open_epoch(self.epoch_index, cycle)
        self.policy.on_epoch_start(self.ctx, cycle, self.epoch_index)
        for sm in self.sms:
            sm.reset_epoch_sampling()

    def _flush_telemetry_epoch(self, tel: TelemetryRecorder, view,
                               cycle: int) -> None:
        """Close the telemetry epoch that ends at ``cycle``."""
        span = cycle - tel._start_cycle
        residual = tuple(
            sum(sm.quota_counters[idx] for sm in self.sms)
            for idx in range(self.num_kernels))
        total = tuple(self.total_tbs(idx)
                      for idx in range(self.num_kernels))
        tel.close_epoch(
            end_cycle=cycle,
            names=tuple(k.spec.name for k in self.kernels),
            retired=view.retired_delta,
            epoch_ipc=view.epoch_ipc,
            cumulative_ipc=view.cumulative_ipc,
            total_tbs=total,
            quota_residual=residual,
            sleep_skipped_sm_cycles=(self.config.num_sms * span
                                     - self._tel_busy_sm_cycles),
            idle_jump_cycles=span - self._tel_busy_gpu_cycles,
            pending_preemptions=self.preemption.pending_count)
        self._tel_busy_sm_cycles = 0
        self._tel_busy_gpu_cycles = 0

    def finalize_telemetry(self) -> Tuple[EpochRecord, ...]:
        """Flush the trailing partial epoch and return the record stream.

        Idempotent; returns ``()`` when no recorder is attached.
        """
        tel = self.telemetry
        if tel is None:
            return ()
        if not tel.finalized:
            tel.finalized = True
            if self.cycle > self.ctx._last_cycle:
                view = self.ctx._advance_epoch(self.cycle)
                self._flush_telemetry_epoch(tel, view, self.cycle)
        return tuple(tel.records)

    def _skip_idle(self, end_cycle: int) -> None:
        """Jump over cycles in which no warp can possibly issue."""
        wake = self.next_epoch_at
        next_done = self.preemption.next_completion
        if next_done is not None and next_done < wake:
            wake = next_done
        if self.next_sample_at < wake:
            wake = self.next_sample_at
        if self._next_launch_at < wake:
            wake = self._next_launch_at
        for sm in self.sms:
            if sm._wake_min < wake:
                wake = sm._wake_min
        if wake > self.cycle:
            self.cycle = min(wake, end_cycle)

    # -------------------------------------------------------------- residency

    def set_tb_target(self, sm_id: int, kernel_idx: int, target: int) -> None:
        """Set how many TBs of a kernel the SM should host; the engine
        dispatches or context-switches TBs to converge on the target."""
        if target < 0:
            raise ValueError("TB target must be non-negative")
        self.tb_targets[sm_id][kernel_idx] = target
        sm = self.sms[sm_id]
        excess = sm.live_tb_count[kernel_idx] - target
        while excess > 0:
            victim = sm.pick_eviction_victim(kernel_idx)
            if victim is None:
                break
            self.evict_tb(sm, victim)
            excess -= 1
        if excess < 0 and self._configured:
            self._dispatch_sm(sm, self.cycle)

    def evict_tb(self, sm: SM, tb) -> int:
        """Begin a TB's partial context switch, keeping live counts exact."""
        sm.note_eviction_begin(tb)
        done = self.preemption.begin_eviction(sm, tb, self.cycle)
        if self.telemetry is not None:
            self.telemetry.note_tb_move(self.cycle, sm.sm_id, tb.kernel_idx,
                                        done - self.cycle)
        return done

    def _dispatch_sm(self, sm: SM, cycle: int) -> None:
        """Deficit-first fill: the kernel furthest below its target (as a
        fraction of the target) gets the next TB, so infeasible targets
        degrade into a balanced allocation and a kernel that once hogged the
        SM cannot monopolise refills after TB turnover."""
        targets = self.tb_targets[sm.sm_id]
        live_counts = sm.live_tb_count
        resources = sm.resources
        kernels = self.kernels
        replay = self._replay_tbs
        while True:
            best_idx = -1
            best_ratio = 1.0
            for kernel_idx in range(self.num_kernels):
                target = targets[kernel_idx]
                if target <= 0:
                    continue
                live = live_counts[kernel_idx]
                if live >= target:
                    continue
                grid = kernels[kernel_idx].grid_tbs
                if (grid is not None and not replay[kernel_idx]
                        and self._next_tb_id[kernel_idx] >= grid):
                    continue  # finite grid fully handed out
                if not resources.can_admit(kernels[kernel_idx].spec):
                    continue
                ratio = live / target
                if ratio < best_ratio or best_idx < 0:
                    best_idx = kernel_idx
                    best_ratio = ratio
            if best_idx < 0:
                return
            if replay[best_idx]:
                tb_id = replay[best_idx].pop(0)
            else:
                tb_id = self._next_tb_id[best_idx]
                self._next_tb_id[best_idx] += 1
            sm.dispatch_tb(best_idx, tb_id, cycle)

    def total_tbs(self, kernel_idx: int) -> int:
        """Live (non-evicting) TBs of a kernel across the whole GPU."""
        return sum(sm.live_tb_count[kernel_idx] for sm in self.sms)

    # -------------------------------------------------------------- callbacks

    def _on_tb_finished(self, sm: SM, tb, cycle: int) -> None:
        kernel_idx = tb.kernel_idx
        stats = self.kernel_stats[kernel_idx]
        stats.completed_tbs += 1
        sm.remove_tb(tb)
        grid = self.kernels[kernel_idx].grid_tbs
        if (grid is not None and self.kernel_active[kernel_idx]
                and stats.completed_tbs >= grid):
            self._retire_kernel(kernel_idx, cycle)
        self._dispatch_sm(sm, cycle)

    def _on_quota_exhausted(self, sm: SM, kernel_idx: int, cycle: int) -> None:
        self.policy.on_quota_exhausted(self.ctx, sm.sm_id, kernel_idx, cycle)

    # ----------------------------------------------------------------- output

    def mark_measurement_start(self) -> None:
        """Exclude everything before the current cycle from result IPCs.

        Simulation warm-up (TB dispatch ramp, cold caches) is excluded from
        measurement by convention in architecture studies; at the paper's
        2M-cycle windows the ramp is negligible, but at the harness's fast
        preset it would bias every IPC by several percent.
        """
        self._measure_from_cycle = self.cycle
        for idx, stats in enumerate(self.kernel_stats):
            self._retired_baseline[idx] = stats.retired_thread_insts
            self._tbs_baseline[idx] = stats.completed_tbs
            self._memory_baseline[idx] = self.memory.kernel_stats[idx].as_dict()
        self._aggregate_baseline = self.memory.aggregate()

    def result(self) -> SimulationResult:
        """Snapshot the run into a :class:`SimulationResult`."""
        cycles = max(1, self.cycle - self._measure_from_cycle)
        kernel_results = []
        for idx, launch in enumerate(self.kernels):
            stats = self.kernel_stats[idx]
            retired = stats.retired_thread_insts - self._retired_baseline[idx]
            memory = self.memory.kernel_stats[idx].as_dict()
            baseline = self._memory_baseline[idx]
            memory = {key: value - baseline.get(key, 0)
                      for key, value in memory.items()}
            kernel_results.append(KernelResult(
                name=launch.spec.name,
                retired_thread_insts=retired,
                cycles=cycles,
                completed_tbs=stats.completed_tbs - self._tbs_baseline[idx],
                ipc=retired / cycles,
                memory=memory,
                ipc_goal=launch.ipc_goal,
                is_qos=launch.is_qos,
            ))
        issue_capacity = max(1, self.cycle) * self.config.sm.warp_schedulers
        sm_activity = [min(1.0, sm.issued_total / issue_capacity)
                       for sm in self.sms]
        aggregate = {key: value - self._aggregate_baseline.get(key, 0)
                     for key, value in self.memory.aggregate().items()}
        return SimulationResult(
            cycles=cycles,
            kernels=kernel_results,
            memory_aggregate=aggregate,
            epochs=self.epoch_index,
            evictions=self.preemption.evictions,
            eviction_stall_cycles=self.preemption.stall_cycles,
            extra={"mean_sm_activity": sum(sm_activity) / len(sm_activity),
                   "wasted_thread_insts": self.preemption.wasted_thread_insts},
        )
