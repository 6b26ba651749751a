"""The engine↔policy boundary: :class:`SharingPolicy` + :class:`PolicyContext`.

A sharing policy owns the *decisions* of Figure 3's control loop — initial
TB residency targets, per-epoch quota refresh, runtime TB reallocation —
while :class:`~repro.sim.engine.GPUSimulator` owns the machine.  Policies
never touch the engine directly: every hook receives a
:class:`PolicyContext`, a typed façade offering

* **observation** — per-kernel retired/issued deltas and epoch IPC (the
  frozen :class:`EpochView`), idle-warp samples, per-SM TB occupancy vs
  targets, quota counters, preemption-queue state;
* **actuation** — the narrow surface the paper's hardware exposes:
  :meth:`PolicyContext.set_quota`, :meth:`PolicyContext.set_tb_target`,
  :meth:`PolicyContext.request_preemption` (plus the Elastic-Epoch boundary
  pull and Spart's L1 flush);
* **telemetry notes** — :meth:`PolicyContext.note_quota` feeds the optional
  :class:`~repro.sim.telemetry.TelemetryRecorder` (a no-op when telemetry
  is off, so policies do not need to know whether anyone is listening).

This module depends only on config/spec types — never on the engine — so
``repro.qos``, ``repro.baselines`` and ``repro.sharing`` can import it
without inverting the layering (the engine imports *them* never, and *this
module* never imports the engine).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class EpochView:
    """Frozen per-epoch measurement snapshot, rebuilt at every boundary.

    All tuples are indexed by kernel index.  ``epoch_cycles`` spans from the
    previous epoch boundary (cycle 0 for the first), so ``epoch_ipc`` is the
    per-epoch rate the paper's manager compares against goals and
    ``cumulative_ipc`` is the history term of the alpha formula
    (Section 3.4.2).
    """

    index: int
    cycle: int
    epoch_cycles: int
    retired: Tuple[int, ...]
    retired_delta: Tuple[int, ...]
    epoch_ipc: Tuple[float, ...]
    cumulative_ipc: Tuple[float, ...]


class SharingPolicy:
    """Base sharing policy: fill every SM with every kernel, no QoS.

    Subclasses (the paper's QoS manager, Spart, serial execution, fairness)
    override the three hooks; each receives only a :class:`PolicyContext`.
    ``uses_quotas`` switches the Enhanced Warp Scheduler filter on in every
    SM.
    """

    name = "smk-unmanaged"
    uses_quotas = False

    def setup(self, ctx: "PolicyContext") -> None:
        """Set initial TB residency targets (default: greedy fill)."""
        max_tbs = ctx.config.sm.max_tbs
        for sm_id in range(ctx.num_sms):
            for kernel_idx in range(ctx.num_kernels):
                ctx.set_tb_target(sm_id, kernel_idx, max_tbs)

    def on_epoch_start(self, ctx: "PolicyContext", cycle: int,
                       epoch_index: int) -> None:
        """Called at every epoch boundary (including epoch 0 at setup)."""

    def on_quota_exhausted(self, ctx: "PolicyContext", sm_id: int,
                           kernel_idx: int, cycle: int) -> None:
        """Called when a kernel's local quota counter crosses zero."""

    def on_kernel_launched(self, ctx: "PolicyContext", kernel_idx: int,
                           cycle: int) -> None:
        """Called when a kernel joins mid-run (``GPUSimulator.launch_at``).

        The default mirrors :meth:`setup`: greedily fill every SM with the
        newcomer.  QoS policies may override to carve residency instead.
        """
        max_tbs = ctx.config.sm.max_tbs
        for sm_id in range(ctx.num_sms):
            ctx.set_tb_target(sm_id, kernel_idx, max_tbs)

    def on_kernel_retired(self, ctx: "PolicyContext", kernel_idx: int,
                          cycle: int) -> None:
        """Called when a finite-grid kernel's last TB completes."""


class PolicyContext:
    """What a policy may see and do between epochs.

    One context lives per :class:`~repro.sim.engine.GPUSimulator`; the
    engine advances it at every epoch boundary (before the policy hook
    runs), which is when :attr:`epoch` is refreshed.  All observation
    methods are read-only views over machine state; all actuation methods
    funnel through the same engine entry points the hardware proposal
    exposes, so a policy written against this class cannot depend on
    simulator internals.

    The context holds a ``weakref.proxy`` of its engine, so the two form
    no reference cycle.  A context kept after its engine is freed raises
    ``ReferenceError`` on any read of machine state.
    """

    def __init__(self, engine) -> None:
        self._engine = weakref.proxy(engine)
        self.config = engine.config
        self.num_sms = engine.config.num_sms
        self._last_retired: List[int] = [0] * engine.num_kernels
        self._last_cycle = 0
        self._view: Optional[EpochView] = None

    @property
    def kernels(self) -> Tuple:
        """The launched kernels — read through to the engine, because the
        serving layer may launch kernels mid-run (``launch_at``)."""
        return tuple(self._engine.kernels)

    @property
    def num_kernels(self) -> int:
        return self._engine.num_kernels

    # ------------------------------------------------------------ epoch view

    @property
    def epoch(self) -> Optional[EpochView]:
        """The measurement snapshot of the epoch that just closed (None
        before the first boundary)."""
        return self._view

    def _advance_epoch(self, cycle: int) -> EpochView:
        """Build the boundary snapshot; called by the engine only.

        The arithmetic reproduces the manager's historical formulas exactly
        (same expressions, same operand order) so refactored policies stay
        float-for-float identical to the pre-context implementation.
        """
        engine = self._engine
        epoch_cycles = max(1, cycle - self._last_cycle)
        num_kernels = engine.num_kernels
        retired = tuple(stats.retired_thread_insts
                        for stats in engine.kernel_stats)
        last = self._last_retired
        if len(last) < num_kernels:
            # Kernels launched since the previous boundary enter the view
            # with a zero baseline: their first delta is everything they
            # retired since activation.
            last.extend([0] * (num_kernels - len(last)))
        retired_delta = tuple(retired[idx] - last[idx]
                              for idx in range(num_kernels))
        epoch_ipc = tuple((retired[idx] - last[idx]) / epoch_cycles
                          for idx in range(num_kernels))
        cumulative_ipc = tuple(retired[idx] / max(1, cycle)
                               for idx in range(num_kernels))
        view = EpochView(index=engine.epoch_index, cycle=cycle,
                         epoch_cycles=epoch_cycles, retired=retired,
                         retired_delta=retired_delta, epoch_ipc=epoch_ipc,
                         cumulative_ipc=cumulative_ipc)
        self._last_retired = list(retired)
        self._last_cycle = cycle
        self._view = view
        return view

    # ----------------------------------------------------------- observation

    @property
    def cycle(self) -> int:
        return self._engine.cycle

    @property
    def epoch_index(self) -> int:
        return self._engine.epoch_index

    def retired(self, kernel_idx: int) -> int:
        """Cumulative retired thread instructions of a kernel."""
        return self._engine.kernel_stats[kernel_idx].retired_thread_insts

    def total_tbs(self, kernel_idx: int) -> int:
        """Live (non-evicting) TBs of a kernel across the whole GPU."""
        return self._engine.total_tbs(kernel_idx)

    def tb_target(self, sm_id: int, kernel_idx: int) -> int:
        return self._engine.tb_targets[sm_id][kernel_idx]

    def tb_count(self, sm_id: int, kernel_idx: int) -> int:
        """Resident TBs of a kernel on one SM (evicting ones included)."""
        return self._engine.sms[sm_id].tb_count[kernel_idx]

    def live_tb_count(self, sm_id: int, kernel_idx: int) -> int:
        return self._engine.sms[sm_id].live_tb_count[kernel_idx]

    def quota_counter(self, sm_id: int, kernel_idx: int) -> float:
        """A kernel's local quota counter on one SM."""
        return self._engine.sms[sm_id].quota_counters[kernel_idx]

    def quota_residual(self, kernel_idx: int) -> float:
        """Sum of a kernel's quota counters over all SMs."""
        return sum(sm.quota_counters[kernel_idx]
                   for sm in self._engine.sms)

    def all_quota_exhausted(self, sm_id: int,
                            kernel_indices: Sequence[int]) -> bool:
        """True when every listed kernel's counter on the SM is <= 0."""
        return self._engine.sms[sm_id].all_exhausted(kernel_indices)

    def mean_idle_warps(self, sm_id: int, kernel_idx: int) -> float:
        """Mean ready-but-not-issued warps over the epoch's sample grid."""
        return self._engine.sms[sm_id].mean_idle_warps(kernel_idx)

    def idle_samples(self, sm_id: int) -> int:
        """Idle-warp grid points observed on the SM this epoch."""
        return self._engine.sms[sm_id].idle_samples

    def warps_per_tb(self, kernel_idx: int) -> int:
        return self._engine.kernels[kernel_idx].spec.warps_per_tb

    def can_admit(self, sm_id: int, kernel_idx: int) -> bool:
        """Whether the SM's free resources fit one more TB of the kernel."""
        return self._engine.sms[sm_id].resources.can_admit(
            self.kernels[kernel_idx].spec)

    def free_resources(self, sm_id: int) -> Dict[str, int]:
        """The SM's uncommitted static resources, keyed like
        :meth:`repro.kernels.spec.KernelSpec.resource_vector`."""
        resources = self._engine.sms[sm_id].resources
        cfg = resources.config
        return {
            "registers_bytes": cfg.registers_bytes - resources.registers_bytes,
            "shared_memory_bytes": (cfg.shared_memory_bytes
                                    - resources.shared_memory_bytes),
            "threads": cfg.max_threads - resources.threads,
            "tbs": cfg.max_tbs - resources.tbs,
        }

    @property
    def preemption_pending(self) -> bool:
        """Whether any partial context switch is still draining."""
        return self._engine.preemption.has_pending

    @property
    def pending_preemptions(self) -> int:
        return self._engine.preemption.pending_count

    # ------------------------------------------------------------- actuation

    def set_tb_target(self, sm_id: int, kernel_idx: int, target: int) -> None:
        """Set how many TBs of the kernel the SM should host; the engine
        dispatches or context-switches TBs to converge on the target."""
        self._engine.set_tb_target(sm_id, kernel_idx, target)

    def request_preemption(self, sm_id: int, kernel_idx: int,
                           count: int = 1) -> None:
        """Context-switch ``count`` TBs of the kernel off the SM by lowering
        its residency target below the current resident count."""
        if count <= 0:
            raise ValueError("preemption count must be positive")
        current = self._engine.sms[sm_id].tb_count[kernel_idx]
        self._engine.set_tb_target(sm_id, kernel_idx,
                                   max(0, current - count))

    def set_quota(self, sm_id: int, kernel_idx: int, amount: float) -> None:
        """Load the kernel's local quota counter on one SM."""
        self._engine.sms[sm_id].set_quota(kernel_idx, amount)

    def add_quota(self, sm_id: int, kernel_idx: int, amount: float) -> None:
        """Top up the kernel's counter (Naïve's mid-epoch non-QoS refill)."""
        self._engine.sms[sm_id].add_quota(kernel_idx, amount)

    def wake_all(self, sm_id: Optional[int] = None) -> None:
        """Wake one SM's schedulers — or every SM's when ``sm_id`` is None
        (quota counters were just reloaded)."""
        if sm_id is not None:
            self._engine.sms[sm_id].wake_all()
            return
        for sm in self._engine.sms:
            sm.wake_all()

    def request_epoch_at(self, cycle: int) -> None:
        """Pull the next epoch boundary forward (Elastic Epoch, Section
        3.4.3); the engine processes it at the top of the next cycle."""
        self._engine.next_epoch_at = cycle

    def flush_l1(self, sm_id: int) -> None:
        """Invalidate the SM's L1 (whole-SM handoffs, Spart)."""
        self._engine.memory.flush_l1(sm_id)

    # ------------------------------------------------------- telemetry notes

    def note_quota(self, kernel_idx: int, granted: float,
                   carried: float = 0.0, alpha: Optional[float] = None,
                   ipc_goal: Optional[float] = None,
                   ctrl_error: Optional[float] = None,
                   ctrl_integral: Optional[float] = None,
                   ctrl_prediction: Optional[float] = None) -> None:
        """Record the epoch's whole-kernel quota grant (and the rollover
        residual folded into it, plus the control terms that produced it —
        including the quota controller's internals, see
        :mod:`repro.controllers`) into the telemetry stream.  A no-op when
        telemetry is off."""
        recorder = self._engine.telemetry
        if recorder is not None:
            recorder.note_quota(kernel_idx, granted, carried, alpha, ipc_goal,
                                ctrl_error, ctrl_integral, ctrl_prediction)
