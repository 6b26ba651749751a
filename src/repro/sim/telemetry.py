"""Structured per-epoch telemetry for the QoS control loop.

When a :class:`TelemetryRecorder` is attached to a
:class:`~repro.sim.engine.GPUSimulator`, the engine emits one typed
:class:`EpochRecord` per completed epoch (plus a trailing partial epoch at
:meth:`GPUSimulator.finalize_telemetry`).  Each record captures what the
paper's Figure 3 loop saw and decided that epoch:

* per-kernel measurement (retired delta, epoch IPC, cumulative IPC, live
  TB residency) from the engine's :class:`~repro.sim.policy.EpochView`;
* per-kernel quota control terms — whole-kernel grant, rollover residual
  folded into it, alpha, and the IPC goal in force — noted by the policy
  through :meth:`~repro.sim.policy.PolicyContext.note_quota` (``None``
  for policies that do not drive quotas);
* TB moves (partial context switches) with victim SM/kernel and drain
  latency, recorded at :meth:`GPUSimulator.evict_tb`;
* sleep-skip counters: ``sleep_skipped_sm_cycles`` is the SM-cycles in
  the epoch during which an SM issued nothing (the opportunity the run
  loop's per-SM sleep skipping exploits) and ``idle_jump_cycles`` the
  whole-GPU zero-issue cycles (the whole-GPU idle jump's opportunity).
  Both are defined from the issue trajectory — not from which cycles the
  run loop actually skipped — so records stay byte-identical to a run
  that steps every SM every cycle.

Recording is strictly observational — the recorder never touches machine
state, and every value is derived from state the simulator computes
anyway — so results with telemetry on and off are record-identical.

The dataclasses are the record schema.  :data:`EPOCH_SCHEMA`
(:class:`repro.sim.records.RecordSchema`) derives the dict round-trip
(:func:`epoch_record_to_dict` / :func:`epoch_record_from_dict`) and the
strict check (:func:`validate_epoch_dict`) from their fields and type
hints; the case cache and the JSONL trace format
(:mod:`repro.trace.jsonl`) use them, so a new field is checked and
exported with no table to edit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.records import RecordSchema

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TBMove:
    """One partial context switch: ``kernel_idx`` lost a TB on ``sm_id``.

    ``drain_cycles`` is the modelled context-save latency — the cycles
    until the TB's resources are actually free again.
    """

    cycle: int
    sm_id: int
    kernel_idx: int
    drain_cycles: int


@dataclass(frozen=True)
class KernelEpochRecord:
    """One kernel's measurement + control state for one epoch.

    The quota fields are ``None`` for policies that do not drive quotas
    (or do not report them): ``quota_granted`` is the whole-kernel grant
    issued at this epoch's opening refresh, ``quota_carried`` the rollover
    residual folded into that grant, ``quota_residual`` the unspent quota
    summed over SMs when the epoch closes (before the next refresh),
    ``alpha`` the boost factor and ``ipc_goal`` the target (artificial
    goal for non-QoS kernels) in force.
    """

    name: str
    retired: int
    epoch_ipc: float
    cumulative_ipc: float
    total_tbs: int
    quota_granted: Optional[float] = None
    quota_carried: Optional[float] = None
    quota_residual: Optional[float] = None
    alpha: Optional[float] = None
    ipc_goal: Optional[float] = None
    #: Controller internals (repro.controllers): the normalised goal
    #: residual acted on, the anti-windup-clamped integral term (PID), and
    #: the model-predicted epoch IPC (MPC).  None for kernels the policy's
    #: controller holds no such state for.
    ctrl_error: Optional[float] = None
    ctrl_integral: Optional[float] = None
    ctrl_prediction: Optional[float] = None


@dataclass(frozen=True)
class EpochRecord:
    """Everything observed in one epoch ``[start_cycle, end_cycle)``."""

    epoch_index: int
    start_cycle: int
    end_cycle: int
    kernels: Tuple[KernelEpochRecord, ...]
    tb_moves: Tuple[TBMove, ...]
    sleep_skipped_sm_cycles: int
    idle_jump_cycles: int
    pending_preemptions: int


class TelemetryRecorder:
    """Accumulates :class:`EpochRecord`s as the simulation advances.

    The engine opens an epoch at each boundary and closes the previous one;
    within an epoch the policy contributes quota notes and the engine
    contributes TB moves.  ``records`` is the completed stream.
    """

    def __init__(self) -> None:
        self.records: List[EpochRecord] = []
        self.finalized = False
        self._epoch_index = 0
        self._start_cycle = 0
        self._quota_notes: Dict[int, Tuple] = {}
        self._tb_moves: List[TBMove] = []

    def open_epoch(self, epoch_index: int, cycle: int) -> None:
        self._epoch_index = epoch_index
        self._start_cycle = cycle
        self._quota_notes = {}
        self._tb_moves = []

    def note_quota(self, kernel_idx: int, granted: float, carried: float,
                   alpha: Optional[float], ipc_goal: Optional[float],
                   ctrl_error: Optional[float] = None,
                   ctrl_integral: Optional[float] = None,
                   ctrl_prediction: Optional[float] = None) -> None:
        self._quota_notes[kernel_idx] = (granted, carried, alpha, ipc_goal,
                                         ctrl_error, ctrl_integral,
                                         ctrl_prediction)

    def note_tb_move(self, cycle: int, sm_id: int, kernel_idx: int,
                     drain_cycles: int) -> None:
        self._tb_moves.append(TBMove(cycle=cycle, sm_id=sm_id,
                                     kernel_idx=kernel_idx,
                                     drain_cycles=drain_cycles))

    def close_epoch(self, *, end_cycle: int, names: Sequence[str],
                    retired: Sequence[int], epoch_ipc: Sequence[float],
                    cumulative_ipc: Sequence[float],
                    total_tbs: Sequence[int],
                    quota_residual: Sequence[float],
                    sleep_skipped_sm_cycles: int, idle_jump_cycles: int,
                    pending_preemptions: int) -> EpochRecord:
        kernels = []
        for idx, name in enumerate(names):
            note = self._quota_notes.get(idx)
            if note is None:
                granted = carried = alpha = goal = residual = None
                error = integral = prediction = None
            else:
                granted, carried, alpha, goal, error, integral, prediction = note
                residual = quota_residual[idx]
            kernels.append(KernelEpochRecord(
                name=name, retired=retired[idx], epoch_ipc=epoch_ipc[idx],
                cumulative_ipc=cumulative_ipc[idx], total_tbs=total_tbs[idx],
                quota_granted=granted, quota_carried=carried,
                quota_residual=residual, alpha=alpha, ipc_goal=goal,
                ctrl_error=error, ctrl_integral=integral,
                ctrl_prediction=prediction))
        record = EpochRecord(
            epoch_index=self._epoch_index, start_cycle=self._start_cycle,
            end_cycle=end_cycle, kernels=tuple(kernels),
            tb_moves=tuple(self._tb_moves),
            sleep_skipped_sm_cycles=sleep_skipped_sm_cycles,
            idle_jump_cycles=idle_jump_cycles,
            pending_preemptions=pending_preemptions)
        self.records.append(record)
        return record


# ------------------------------------------------------- schema and codec

#: The strict check and dict codec, derived from the dataclasses above.
EPOCH_SCHEMA = RecordSchema(EpochRecord)


def epoch_record_to_dict(record: EpochRecord) -> Dict[str, Any]:
    """JSON-ready plain-dict form of an :class:`EpochRecord`."""
    return EPOCH_SCHEMA.to_dict(record)


def epoch_record_from_dict(payload: Mapping[str, Any]) -> EpochRecord:
    """Inverse of :func:`epoch_record_to_dict`."""
    return EPOCH_SCHEMA.from_dict(payload)


def validate_epoch_dict(payload: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``payload`` matches the
    :class:`EpochRecord` schema exactly (field set and field types)."""
    EPOCH_SCHEMA.check(payload)
