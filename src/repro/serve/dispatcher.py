"""The serving dispatcher: queues and admission control in front of the GPU.

Requests (:mod:`repro.serve.arrivals`) arrive open-loop; the dispatcher
holds them in per-class FIFO queues, applies a pluggable admission policy
at arrival, and drives the simulator's mid-run kernel lifecycle — each
admitted request becomes a finite-grid :class:`~repro.sim.engine.
LaunchedKernel` injected via ``GPUSimulator.launch_at`` and observed back
out through the engine's ``on_kernel_retired`` callback.  Launch/retire
processing happens at fixed loop-top points inside the engine, so a served
workload replays record-identically whether or not the run loop skips idle
cycles (the differential in ``tests/test_event_core.py`` enforces this).

Admission policies:

* :class:`AlwaysAdmit` — the open-loop baseline; every request queues.
* :class:`QueueCap` — reject when the request's class queue is at its cap
  (classic load shedding; the rejection accounting feeds SLO attainment).
* :class:`SLOFeasibility` — learn per-class service times online with
  :class:`repro.serve.predictor.OnlineDemandPredictor` and reject
  requests whose predicted completion would blow their SLO anyway
  (admitting them only wastes capacity that feasible requests need).

The dispatcher is deterministic end to end: its only inputs are the
request stream and simulator state, and every decision happens at an
integer cycle.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import GPUConfig
from repro.kernels import get_kernel
from repro.serve.arrivals import Request
from repro.serve.metrics import RequestRecord, class_summary
from repro.serve.predictor import OnlineDemandPredictor
from repro.sim.engine import GPUSimulator, LaunchedKernel, SharingPolicy
from repro.sim.stats import SimulationResult
from repro.sim.telemetry import EpochRecord, TelemetryRecorder

#: Default concurrent-request bound: enough to share the GPU, small enough
#: that queueing (the thing being studied) actually happens.
DEFAULT_MAX_CONCURRENT = 4


class AdmissionPolicy:
    """Decide at arrival whether a request may queue.

    :meth:`admit` returns ``None`` to admit or a short reject-reason string;
    the reason lands verbatim in the request record, so accounting tests can
    assert *why* a request was shed.
    """

    name = "always"

    def admit(self, request: Request, dispatcher: "Dispatcher",
              cycle: int) -> Optional[str]:
        return None


class AlwaysAdmit(AdmissionPolicy):
    """Admit everything (open-loop baseline)."""


class QueueCap(AdmissionPolicy):
    """Reject when the request's class queue already holds ``cap`` entries."""

    def __init__(self, cap: int):
        if cap <= 0:
            raise ValueError("queue cap must be positive")
        self.cap = int(cap)
        self.name = f"cap:{self.cap}"

    def admit(self, request: Request, dispatcher: "Dispatcher",
              cycle: int) -> Optional[str]:
        if dispatcher.queue_depth(request.request_class) >= self.cap:
            return "queue-cap"
        return None


class SLOFeasibility(AdmissionPolicy):
    """Reject requests whose SLO is already infeasible at arrival.

    Service times are learned online per class (EWMA mean + mean absolute
    deviation, :class:`~repro.serve.predictor.OnlineDemandPredictor`); a
    request is shed when the backlog's predicted drain time plus its own
    margin-padded service estimate exceeds its SLO.  Until the predictor
    has warmed up for a class, requests are admitted optimistically — the
    first few completions are the training data.
    """

    name = "slo-feasibility"

    def __init__(self, sigmas: float = 2.0, alpha: float = 0.25,
                 warmup_samples: int = 3):
        self.sigmas = float(sigmas)
        self.predictor = OnlineDemandPredictor(alpha=alpha,
                                               warmup_samples=warmup_samples)

    def observe_service(self, request_class: str, service_cycles: int) -> None:
        self.predictor.observe(request_class, service_cycles)

    def admit(self, request: Request, dispatcher: "Dispatcher",
              cycle: int) -> Optional[str]:
        predictor = self.predictor
        if not predictor.ready(request.request_class):
            return None
        own = predictor.estimate(request.request_class).with_margin(
            self.sigmas)
        backlog = 0.0
        for class_name, depth in dispatcher.queue_depths():
            if depth and predictor.ready(class_name):
                backlog += depth * predictor.estimate(class_name).mean
        backlog += dispatcher.inflight_count * own
        slots = max(1, dispatcher.max_concurrent)
        predicted_latency = backlog / slots + own
        if predicted_latency > request.slo_cycles:
            return "slo-infeasible"
        return None


@dataclass(frozen=True)
class ServeResult:
    """Everything a served workload produced, in request-id order."""

    records: Tuple[RequestRecord, ...]
    horizon_cycles: int
    generated: int
    admitted: int
    rejected: int
    completed: int
    unfinished: int
    sim_result: Optional[SimulationResult]
    telemetry: Tuple[EpochRecord, ...]

    def summary(self) -> Dict[str, dict]:
        return class_summary(self.records)


class _Entry:
    """Mutable per-request bookkeeping while a request is in flight."""

    __slots__ = ("request", "reject_reason", "start_cycle", "finish_cycle")

    def __init__(self, request: Request):
        self.request = request
        self.reject_reason: Optional[str] = None
        self.start_cycle: Optional[int] = None
        self.finish_cycle: Optional[int] = None


class Dispatcher:
    """Serve a request stream against one simulated GPU.

    ``class_priority`` maps class names to priorities (lower serves first);
    classes default to priority 0, which degenerates to global FIFO by
    arrival.  ``max_concurrent`` bounds how many requests run on the GPU
    simultaneously; everything else waits in its class queue.
    """

    def __init__(self, config: GPUConfig,
                 policy: Optional[SharingPolicy] = None,
                 admission: Optional[AdmissionPolicy] = None,
                 max_concurrent: int = DEFAULT_MAX_CONCURRENT,
                 class_priority: Optional[Mapping[str, int]] = None,
                 telemetry: bool = False):
        if max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")
        self.config = config
        self.policy = policy
        self.admission = admission if admission is not None else AlwaysAdmit()
        self.max_concurrent = int(max_concurrent)
        self.class_priority = dict(class_priority or {})
        self.telemetry_enabled = telemetry
        self._queues: Dict[str, Deque[_Entry]] = {}
        self._inflight: Dict[int, _Entry] = {}
        self._sim: Optional[GPUSimulator] = None

    # ------------------------------------------------------- admission views

    def queue_depth(self, class_name: str) -> int:
        queue = self._queues.get(class_name)
        return len(queue) if queue else 0

    def queue_depths(self) -> List[Tuple[str, int]]:
        return [(name, len(queue)) for name, queue in self._queues.items()]

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    # -------------------------------------------------------------- serving

    def serve(self, requests: Sequence[Request],
              horizon_cycles: int) -> ServeResult:
        """Run the stream to ``horizon_cycles``; returns per-request records.

        The loop alternates simulator segments with arrival processing:
        the simulator runs to the next arrival cycle (completions inside
        the segment re-fill the GPU via the engine's retire callback), then
        the arrivals due at that cycle pass admission and the queues pump.
        """
        if horizon_cycles <= 0:
            raise ValueError("horizon_cycles must be positive")
        for earlier, later in zip(requests, requests[1:]):
            if later.arrival_cycle < earlier.arrival_cycle:
                raise ValueError("requests must be sorted by arrival cycle")
        recorder = TelemetryRecorder() if self.telemetry_enabled else None
        sim = GPUSimulator(self.config, [], policy=self.policy,
                           telemetry=recorder, allow_empty=True)
        sim.on_kernel_retired = self._on_kernel_retired
        sim.setup()
        self._sim = sim
        self._queues = {}
        self._inflight = {}
        entries = [_Entry(request) for request in requests
                   if request.arrival_cycle < horizon_cycles]
        cursor = 0
        while True:
            if cursor < len(entries):
                target = min(entries[cursor].request.arrival_cycle,
                             horizon_cycles)
            elif self._inflight or any(self._queues.values()):
                target = horizon_cycles
            else:
                break
            if target > sim.cycle:
                sim.run(target - sim.cycle)
            if sim.cycle >= horizon_cycles:
                break
            cycle = sim.cycle
            while (cursor < len(entries)
                   and entries[cursor].request.arrival_cycle <= cycle):
                entry = entries[cursor]
                cursor += 1
                reason = self.admission.admit(entry.request, self, cycle)
                if reason is None:
                    self._queues.setdefault(entry.request.request_class,
                                            deque()).append(entry)
                else:
                    entry.reject_reason = reason
            self._pump(cycle)
        telemetry = sim.finalize_telemetry()
        sim_result = sim.result() if sim.num_kernels else None
        records = tuple(self._record(entry) for entry in entries)
        admitted = sum(1 for r in records if r.admitted)
        completed = sum(1 for r in records if r.completed)
        self._sim = None
        return ServeResult(
            records=records,
            horizon_cycles=horizon_cycles,
            generated=len(records),
            admitted=admitted,
            rejected=len(records) - admitted,
            completed=completed,
            unfinished=admitted - completed,
            sim_result=sim_result,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------- internals

    def _pump(self, cycle: int) -> None:
        """Launch queued requests while concurrency slots are free."""
        sim = self._sim
        while len(self._inflight) < self.max_concurrent:
            entry = self._pop_next_queued()
            if entry is None:
                return
            request = entry.request
            spec = dataclasses.replace(
                get_kernel(request.kernel),
                name=f"{request.kernel}@{request.request_id}")
            kernel_idx = sim.launch_at(
                max(cycle, sim.cycle),
                LaunchedKernel(spec=spec, grid_tbs=request.grid_tbs))
            self._inflight[kernel_idx] = entry

    def _pop_next_queued(self) -> Optional[_Entry]:
        """Next request across the class queues: lowest (priority, arrival,
        id) wins — FIFO within a class, priority between classes."""
        best_name = None
        best_key = None
        for name, queue in self._queues.items():
            if not queue:
                continue
            head = queue[0].request
            key = (self.class_priority.get(name, 0), head.arrival_cycle,
                   head.request_id)
            if best_key is None or key < best_key:
                best_key = key
                best_name = name
        if best_name is None:
            return None
        return self._queues[best_name].popleft()

    def _on_kernel_retired(self, kernel_idx: int, cycle: int) -> None:
        """Engine callback: a request's grid drained — close it out and
        refill the freed concurrency slot from the queues."""
        entry = self._inflight.pop(kernel_idx, None)
        if entry is None:
            return
        sim = self._sim
        entry.start_cycle = sim.kernel_launch_cycle[kernel_idx]
        entry.finish_cycle = cycle
        if isinstance(self.admission, SLOFeasibility):
            self.admission.observe_service(
                entry.request.request_class, cycle - entry.start_cycle)
        self._pump(cycle)

    def _record(self, entry: _Entry) -> RequestRecord:
        """Freeze one request's bookkeeping into its immutable record."""
        request = entry.request
        sim = self._sim
        admitted = entry.reject_reason is None
        start = entry.start_cycle
        finish = entry.finish_cycle
        if start is None and finish is None and admitted:
            # Still queued or in flight at the horizon: recover the launch
            # cycle for requests that reached the GPU but never completed.
            for kernel_idx, inflight in self._inflight.items():
                if inflight is entry and kernel_idx < sim.num_kernels:
                    start = sim.kernel_launch_cycle[kernel_idx]
                    break
        completed = finish is not None
        queue_wait = (start - request.arrival_cycle
                      if start is not None else None)
        service = (finish - start
                   if completed and start is not None else None)
        latency = (finish - request.arrival_cycle if completed else None)
        return RequestRecord(
            request_id=request.request_id,
            request_class=request.request_class,
            kernel=request.kernel,
            arrival_cycle=request.arrival_cycle,
            slo_cycles=request.slo_cycles,
            grid_tbs=request.grid_tbs,
            admitted=admitted,
            reject_reason=entry.reject_reason,
            start_cycle=start,
            finish_cycle=finish,
            queue_wait_cycles=queue_wait,
            service_cycles=service,
            latency_cycles=latency,
            completed=completed,
            slo_met=(completed and latency is not None
                     and latency <= request.slo_cycles),
        )
