"""Memoised execution of serving cases (the load-sweep harness).

A serving evaluation is a grid of independent *serving cases* — one
arrival process at one load level under one admission policy — exactly
like a figure sweep is a grid of co-run cases.  :class:`ServeRunner` is a
:class:`repro.harness.runner.SweepRunner`, so serving cases get the same
three-layer execution contract co-run cases get:

* an in-process memo keyed by the full :class:`ServeSpec`;
* the persistent :class:`repro.harness.cache.CaseCache` (entry kind
  ``serve``, keyed by :func:`repro.harness.cache.serve_key`, salted by the
  same code digest as co-run records);
* pull-based sweeps through :class:`repro.harness.expdb.ExperimentDB`
  (claim-by-update) on the one claim loop co-run sweeps use — serial or
  over a process pool of throwaway serial runners — so an interrupted
  load sweep resumes instead of restarting, parallel sweeps are
  byte-identical to serial ones, and every sweep has a content-derived
  experiment id for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import GPUConfig
from repro.harness.cache import serve_grid_payload, serve_key
from repro.harness.runner import SweepRunner, make_policy, resolve_workers
from repro.serve.arrivals import (ArrivalProcess, BurstyArrivals,
                                  DiurnalArrivals, PeriodicArrivals,
                                  PoissonArrivals, RequestClass)
from repro.serve.dispatcher import (AdmissionPolicy, AlwaysAdmit, Dispatcher,
                                    QueueCap, SLOFeasibility)
from repro.serve.metrics import (RequestRecord, request_record_from_dict,
                                 request_record_to_dict)

#: Arrival-process names accepted by :attr:`ServeSpec.process`.
PROCESS_NAMES = ("poisson", "bursty", "diurnal", "periodic")

#: Sharing policies a serving case can run under.  The quota schemes,
#: ``pid``/``mpc`` and ``spart`` set up per-kernel state only for the
#: kernels present when a run starts, and a served run starts empty and
#: launches every request mid-run; they are refused up front
#: (:meth:`ServeRunner.run_spec`) rather than crashing partway through.
SERVE_POLICIES = ("smk",)


@dataclass(frozen=True)
class ServeSpec:
    """One serving case, declaratively: everything :meth:`ServeRunner.run_spec`
    needs to rebuild the arrival stream, dispatcher and admission policy.

    ``params`` holds the arrival process's numeric parameters as sorted
    ``(name, value)`` pairs so the spec stays hashable and its payload is
    canonical; ``classes`` rows are ``(name, kernel, slo_cycles, grid_tbs,
    weight)`` tuples mirroring :class:`repro.serve.arrivals.RequestClass`.
    """

    process: str
    params: Tuple[Tuple[str, float], ...]
    classes: Tuple[Tuple[str, str, int, int, float], ...]
    seed: int
    horizon_cycles: int
    admission: str = "always"
    max_concurrent: int = 4
    policy: str = "smk"

    def __post_init__(self) -> None:
        if self.process not in PROCESS_NAMES:
            raise ValueError(f"unknown arrival process {self.process!r}; "
                             f"expected one of {PROCESS_NAMES}")
        if self.horizon_cycles <= 0:
            raise ValueError("horizon_cycles must be positive")
        if not self.classes:
            raise ValueError("a serving case needs at least one class")

    @property
    def key(self) -> tuple:
        """The in-process memo key (the spec is its own identity)."""
        return (self.process, self.params, self.classes, self.seed,
                self.horizon_cycles, self.admission, self.max_concurrent,
                self.policy)

    def payload(self) -> dict:
        """Plain JSON-able form, the shape stored in the experiment DB."""
        return {"process": self.process,
                "params": {name: value for name, value in self.params},
                "classes": [list(row) for row in self.classes],
                "seed": self.seed,
                "horizon_cycles": self.horizon_cycles,
                "admission": self.admission,
                "max_concurrent": self.max_concurrent,
                "policy": self.policy}

    @classmethod
    def from_payload(cls, payload: dict) -> "ServeSpec":
        return cls(
            process=payload["process"],
            params=tuple(sorted(
                (str(name), float(value))
                for name, value in payload["params"].items())),
            classes=tuple(
                (str(row[0]), str(row[1]), int(row[2]), int(row[3]),
                 float(row[4]))
                for row in payload["classes"]),
            seed=int(payload["seed"]),
            horizon_cycles=int(payload["horizon_cycles"]),
            admission=payload["admission"],
            max_concurrent=int(payload["max_concurrent"]),
            policy=payload["policy"])

    # -------------------------------------------------------------- builders

    def request_classes(self) -> Tuple[RequestClass, ...]:
        return tuple(RequestClass(name=name, kernel=kernel, slo_cycles=slo,
                                  grid_tbs=grid, weight=weight)
                     for name, kernel, slo, grid, weight in self.classes)

    def build_process(self) -> ArrivalProcess:
        classes = self.request_classes()
        params = {name: value for name, value in self.params}
        if self.process == "poisson":
            return PoissonArrivals(classes,
                                   params["mean_interarrival_cycles"],
                                   seed=self.seed)
        if self.process == "bursty":
            return BurstyArrivals(classes,
                                  params["burst_interarrival"],
                                  params["idle_interarrival"],
                                  params["mean_burst_cycles"],
                                  params["mean_idle_cycles"],
                                  seed=self.seed)
        if self.process == "diurnal":
            return DiurnalArrivals(classes,
                                   params["mean_interarrival_cycles"],
                                   int(params["period_cycles"]),
                                   amplitude=params.get("amplitude", 0.8),
                                   seed=self.seed)
        return PeriodicArrivals(classes, int(params["period_cycles"]),
                                seed=self.seed)

    def build_admission(self) -> AdmissionPolicy:
        if self.admission == "always":
            return AlwaysAdmit()
        if self.admission.startswith("cap:"):
            return QueueCap(int(self.admission.split(":", 1)[1]))
        if self.admission == "slo":
            return SLOFeasibility()
        raise ValueError(f"unknown admission policy {self.admission!r}; "
                         f"expected 'always', 'cap:<n>' or 'slo'")


@dataclass(frozen=True)
class ServeCaseOutcome:
    """The cached result of one serving case: the full request-record
    stream plus the dispatcher's counters.  (Telemetry is deliberately not
    part of the cached shape — serving analysis is request-level; epoch
    telemetry stays a :class:`repro.serve.dispatcher.Dispatcher` concern.)
    """

    records: Tuple[RequestRecord, ...]
    horizon_cycles: int
    generated: int
    admitted: int
    rejected: int
    completed: int
    unfinished: int

    def to_value(self) -> dict:
        """The JSON shape stored under cache kind ``serve``."""
        return {"records": [request_record_to_dict(r) for r in self.records],
                "horizon_cycles": self.horizon_cycles,
                "generated": self.generated,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "unfinished": self.unfinished}

    @classmethod
    def from_value(cls, value: dict) -> "ServeCaseOutcome":
        return cls(
            records=tuple(request_record_from_dict(payload)
                          for payload in value["records"]),
            horizon_cycles=int(value["horizon_cycles"]),
            generated=int(value["generated"]),
            admitted=int(value["admitted"]),
            rejected=int(value["rejected"]),
            completed=int(value["completed"]),
            unfinished=int(value["unfinished"]))


class ServeRunner(SweepRunner):
    """Runs and memoises serving cases; sweeps are pull-based experiments."""

    spec_type = ServeSpec

    def __init__(self, gpu: GPUConfig, cache=None, expdb=None,
                 workers: Optional[int] = None):
        super().__init__(cache, expdb, resolve_workers(workers))
        self.gpu = gpu

    # --------------------------------------------------------------- running

    def run_spec(self, spec: ServeSpec) -> ServeCaseOutcome:
        """Serve one case (memoised by the full spec).

        Raises ValueError, before simulating or caching anything, when the
        spec's sharing policy cannot serve (see :data:`SERVE_POLICIES`).
        """
        return self._run(spec)

    def _compute(self, spec: ServeSpec) -> ServeCaseOutcome:
        if spec.policy not in SERVE_POLICIES:
            raise ValueError(
                f"sharing policy {spec.policy!r} cannot serve requests "
                f"launched mid-run; serving supports {SERVE_POLICIES}")
        requests = spec.build_process().generate(spec.horizon_cycles)
        dispatcher = Dispatcher(self.gpu, policy=make_policy(spec.policy),
                                admission=spec.build_admission(),
                                max_concurrent=spec.max_concurrent)
        result = dispatcher.serve(requests, spec.horizon_cycles)
        return ServeCaseOutcome(
            records=result.records,
            horizon_cycles=result.horizon_cycles,
            generated=result.generated,
            admitted=result.admitted,
            rejected=result.rejected,
            completed=result.completed,
            unfinished=result.unfinished)

    # ---------------------------------------------------------------- sweeps

    def sweep(self, specs: Sequence[ServeSpec]) -> List[ServeCaseOutcome]:
        """Run a batch of serving cases, returning outcomes in input order.

        The same claim loop as :meth:`repro.harness.runner.CaseRunner.sweep`:
        the grid is registered in the experiment store (persistent when the
        runner has one, throwaway in-memory otherwise) and cases are pulled
        one claim at a time, so an interrupted load sweep resumes where it
        stopped and converges on outcomes byte-identical to an
        uninterrupted run.
        """
        return self._sweep(specs)

    # ----------------------------------------------------- job protocol

    def _content_key(self, spec: ServeSpec) -> str:
        return serve_key(self.gpu, spec.payload())

    def _cache_get(self, key: str) -> Optional[ServeCaseOutcome]:
        value = self.cache.get_serve(key)
        return None if value is None else ServeCaseOutcome.from_value(value)

    def _cache_put(self, key: str, outcome: ServeCaseOutcome) -> None:
        self.cache.put_serve(key, outcome.to_value())

    def _grid(self, payloads: List[dict]) -> dict:
        return serve_grid_payload(self.gpu, payloads)

    def _pool_worker(self) -> "ServeRunner":
        return ServeRunner(self.gpu, workers=1)
