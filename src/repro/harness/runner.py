"""Memoised execution of isolated and co-run cases, and the one sweep loop.

Every figure consumes the same underlying (pair/trio x goal x scheme) runs,
so :class:`CaseRunner` memoises by full case key: Figure 6, 8, 9 and 14 all
reuse one sweep.  Isolated IPCs (the denominators of every normalisation in
the paper) are memoised per (kernel, machine, cycles).

Two layers extend the in-process memo:

* an optional persistent store (:class:`repro.harness.cache.CaseCache`)
  consulted on memo misses and fed on every fresh simulation, so sweeps
  survive across invocations;
* the experiment store (:class:`repro.harness.expdb.ExperimentDB`): every
  sweep registers its grid there and *pulls* cases from it one claim at a
  time, so an interrupted sweep resumes where it stopped.

:class:`SweepRunner` holds the single claim loop that co-run sweeps and
serving sweeps (:class:`repro.serve.runner.ServeRunner`) both run.  A
runner plugs into it through a small job protocol: a spec type with
``key``/``payload``/``from_payload``; a content key plus cache get/put
for the memo-or-cache lookup, a fresh compute and the remember step; a
grid payload; and a serial, uncached copy of itself for pool workers.
With more than one worker the loop fans claims out over a process pool;
otherwise it runs them on an in-process executor, so serial and parallel
sweeps share every line of it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import SpartPolicy
from repro.config import GPUConfig
from repro.controllers import CONTROLLER_NAMES, controller_by_name
from repro.kernels import get_kernel, intensity_class
from repro.power import PowerModel
from repro.qos import QoSPolicy
from repro.sim import GPUSimulator, LaunchedKernel, SharingPolicy
from repro.sim.telemetry import EpochRecord

#: Scheme/controller names accepted by :meth:`CaseRunner.run_case`.  The
#: ``pid`` and ``mpc`` entries run the paper's quota machinery under the
#: corresponding :mod:`repro.controllers` control law (Rollover boundary
#: accounting, controller-driven quota scales).
POLICY_NAMES = ("spart", "naive", "history", "elastic", "rollover",
                "rollover-time", "rollover-nostatic", "smk") + CONTROLLER_NAMES


def make_policy(name: str) -> SharingPolicy:
    """Instantiate a sharing policy from its experiment name."""
    if name == "spart":
        return SpartPolicy()
    if name == "smk":
        return SharingPolicy()
    if name == "rollover-nostatic":
        return QoSPolicy("rollover", static_adjustment=False)
    if name in CONTROLLER_NAMES:
        return QoSPolicy("rollover", controller=controller_by_name(name))
    return QoSPolicy(name)


@dataclass(frozen=True)
class CaseSpec:
    """One co-run case, declaratively: what :meth:`CaseRunner.run_case` takes.

    Sweeps are lists of these so they can be submitted up front (and fanned
    out by the parallel runner) instead of looped over call-by-call.
    """

    names: Tuple[str, ...]
    qos_flags: Tuple[bool, ...]
    goal_fractions: Tuple[Optional[float], ...]
    policy: str

    @classmethod
    def pair(cls, qos: str, nonqos: str, goal: float,
             policy: str) -> "CaseSpec":
        return cls((qos, nonqos), (True, False), (goal, None), policy)

    @classmethod
    def trio(cls, names: Sequence[str], qos_count: int, goal: float,
             policy: str) -> "CaseSpec":
        if not 1 <= qos_count < len(names):
            raise ValueError("qos_count must leave at least one non-QoS kernel")
        flags = tuple(i < qos_count for i in range(len(names)))
        fractions = tuple(goal if flag else None for flag in flags)
        return cls(tuple(names), flags, fractions, policy)

    @property
    def key(self) -> tuple:
        """The in-process memo key shared by both runners."""
        return (self.names, self.qos_flags, self.goal_fractions, self.policy)

    def payload(self) -> dict:
        """Plain JSON-able form, the shape stored in the experiment DB."""
        return {"names": list(self.names), "qos": list(self.qos_flags),
                "goals": list(self.goal_fractions), "policy": self.policy}

    @classmethod
    def from_payload(cls, payload: dict) -> "CaseSpec":
        return cls(tuple(payload["names"]),
                   tuple(bool(flag) for flag in payload["qos"]),
                   tuple(payload["goals"]), payload["policy"])


class SweepInterrupted(RuntimeError):
    """Raised by the fault-injection seam (:attr:`SweepRunner.fault_after`):
    the controlled stand-in for a worker crash or a killed process that the
    interrupt/resume tests and the CI resume-smoke step rely on."""


@dataclass(frozen=True)
class RegisteredSweep:
    """One sweep registered in an experiment store (persistent or ephemeral).

    ``persistent`` distinguishes the runner's on-disk store — whose ids are
    worth reporting as provenance and resuming later — from the throwaway
    in-memory store a runner without one routes its sweeps through (so the
    pull-based claim loop is never a special case).  ``done`` marks an
    experiment the persistent store already holds as done: the sweep claims,
    registers and finishes nothing.
    """

    db: object  # ExperimentDB (kept untyped: expdb is imported lazily)
    experiment_id: str
    spec_hash: str
    persistent: bool
    done: bool


@dataclass(frozen=True)
class KernelOutcome:
    """Per-kernel results of one co-run case."""

    name: str
    is_qos: bool
    goal_fraction: Optional[float]
    ipc: float
    isolated_ipc: float
    ipc_goal: Optional[float]
    intensity: str

    @property
    def reached(self) -> Optional[bool]:
        if not self.is_qos:
            return None
        return self.ipc >= self.ipc_goal * 0.999

    @property
    def normalized_throughput(self) -> float:
        """IPC normalised to isolated execution (Figure 8's metric)."""
        return self.ipc / self.isolated_ipc if self.isolated_ipc else 0.0

    @property
    def goal_ratio(self) -> Optional[float]:
        """IPC normalised to the QoS goal (Figure 9's metric)."""
        if self.ipc_goal is None:
            return None
        return self.ipc / self.ipc_goal

    @property
    def miss_percent(self) -> Optional[float]:
        """How far below goal, in percent (None for non-QoS kernels)."""
        if self.ipc_goal is None:
            return None
        return max(0.0, 100.0 * (1.0 - self.ipc / self.ipc_goal))


@dataclass(frozen=True)
class CaseRecord:
    """One co-run case: workload, scheme, per-kernel outcomes, energy."""

    kernels: Tuple[KernelOutcome, ...]
    policy: str
    cycles: int
    evictions: int
    eviction_stall_cycles: int
    power_w: float
    instructions_per_watt: float
    #: Per-epoch telemetry stream (empty unless the runner was built with
    #: ``telemetry=True``).  Spans warm-up plus measurement: the control
    #: loop's convergence transient is part of what the trace is for.
    telemetry: Tuple[EpochRecord, ...] = ()

    @property
    def qos_met(self) -> bool:
        """A case succeeds when every QoS kernel reached its goal."""
        return all(k.reached for k in self.kernels if k.is_qos)

    @property
    def qos_kernels(self) -> Tuple[KernelOutcome, ...]:
        return tuple(k for k in self.kernels if k.is_qos)

    @property
    def nonqos_kernels(self) -> Tuple[KernelOutcome, ...]:
        return tuple(k for k in self.kernels if not k.is_qos)

    @property
    def total_ipc(self) -> float:
        return sum(k.ipc for k in self.kernels)


ENV_WORKERS = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument > ``REPRO_WORKERS`` > ``cpu_count() - 1`` (min 1)."""
    if workers is None:
        env = os.environ.get(ENV_WORKERS, "").strip()
        try:
            workers = int(env) if env else (os.cpu_count() or 2) - 1
        except ValueError:
            raise ValueError(f"{ENV_WORKERS} must be an integer, "
                             f"got {env!r}") from None
    return max(1, workers)


# ----------------------------------------------------------------- workers
# Module-level so they pickle.  Each pool worker holds ONE serial, uncached
# runner (built by the parent, installed by the initializer) and computes
# every task it is handed on it: the machine description and the isolated-
# IPC seed cross the process boundary once per pool instead of once per
# case, and a throwaway serial runner is exactly what makes parallel
# results identical to serial ones.

_WORKER: Optional["SweepRunner"] = None


def _worker_init(runner: "SweepRunner") -> None:
    global _WORKER
    _WORKER = runner


def _compute_task(spec):
    return _WORKER._compute(spec)


def _isolated_task(name: str) -> float:
    return _WORKER._simulate_isolated(name)


def _completed(function: Callable, spec):
    """Run ``function(spec)`` now and return its outcome as a finished
    future: the in-process executor that serial sweeps claim through."""
    from concurrent.futures import Future
    future = Future()
    try:
        future.set_result(function(spec))
    except Exception as error:
        future.set_exception(error)
    return future


class SweepRunner:
    """The memo, the persistent-cache lookup and the one claim loop that
    :class:`CaseRunner` and :class:`repro.serve.runner.ServeRunner` share.

    Subclasses supply the job protocol: :attr:`spec_type`;
    :meth:`_content_key`, :meth:`_cache_get` and :meth:`_cache_put`;
    :meth:`_compute`; :meth:`_grid`; and :meth:`_pool_worker`.
    """

    #: The spec type sweeps claim: ``key``, ``payload()``, ``from_payload``.
    spec_type: type

    def __init__(self, cache, expdb, workers: int):
        #: Optional :class:`repro.harness.cache.CaseCache`; consulted on memo
        #: misses, fed on every fresh compute.
        self.cache = cache
        #: Optional :class:`repro.harness.expdb.ExperimentDB`.  When set,
        #: :meth:`_sweep` registers its grid there and the sweep becomes
        #: durable: interruptible, resumable (``repro exp resume``) and
        #: attributable (provenance ids in :attr:`experiment_log`).  When
        #: None, sweeps route through a throwaway in-memory store instead —
        #: same claim loop, zero persistence.
        self.expdb = expdb
        #: Process-pool width of sweeps; 1 claims and computes in-process.
        self.workers = workers
        #: ``(experiment id, spec hash)`` of every sweep this runner
        #: registered in the *persistent* store, in registration order —
        #: the raw material of figure provenance lines.
        self.experiment_log: List[Tuple[str, str]] = []
        #: Test seam: raise :class:`SweepInterrupted` after this many cases
        #: of a sweep complete — the interrupt half of the interrupt/resume
        #: differential tests.  None (the default) never fires.
        self.fault_after: Optional[int] = None
        self._memo: Dict[tuple, object] = {}
        self._keys: Dict[tuple, str] = {}

    @property
    def cached_cases(self) -> int:
        return len(self._memo)

    # ------------------------------------------------------ memo and cache

    def _run(self, spec):
        """The memoised or cached result of ``spec``, else a fresh one."""
        result = self._recall(spec)
        if result is None:
            result = self._compute(spec)
            self._remember(spec, result)
        return result

    def _recall(self, spec):
        """Memo, then persistent cache; None when neither has ``spec``."""
        result = self._memo.get(spec.key)
        if result is None and self.cache is not None:
            result = self._cache_get(self._cache_key(spec))
            if result is not None:
                self._memo[spec.key] = result
        return result

    def _remember(self, spec, result) -> None:
        self._memo[spec.key] = result
        if self.cache is not None:
            self._cache_put(self._cache_key(spec), result)

    def _cache_key(self, spec) -> str:
        """Content key of ``spec`` on this runner, computed once per spec."""
        key = self._keys.get(spec.key)
        if key is None:
            key = self._keys[spec.key] = self._content_key(spec)
        return key

    # -------------------------------------------------------------- sweeps

    def _sweep(self, specs: Sequence) -> list:
        """Register ``specs`` as an experiment, pull its pending cases, and
        return every result in input order (see :meth:`CaseRunner.sweep`).

        A warm rerun of an experiment the persistent store already holds as
        done writes nothing to it: after the status read it only seeds the
        isolated IPCs the experiment stored (:meth:`_prepare` with no
        pending case) and returns every result through the memo and cache
        lookup, which recomputes any result the case cache has lost."""
        specs = list(specs)
        if not specs:
            return []
        sweep_reg = self._register_sweep(specs)
        if sweep_reg.done:
            self._prepare(sweep_reg, [])
        else:
            try:
                self._pull_pending(sweep_reg)
            finally:
                sweep_reg.db.finish(sweep_reg.experiment_id)
                if not sweep_reg.persistent:
                    sweep_reg.db.close()
        return [self._run(spec) for spec in specs]

    def _register_sweep(self, specs: Sequence) -> RegisteredSweep:
        """Register the grid in the experiment store (idempotent: the same
        grid under the same code always maps to the same experiment id).
        An experiment the persistent store holds as done is only read."""
        from repro.harness.cache import (code_salt, experiment_id_for,
                                         experiment_spec_hash)
        from repro.harness.expdb import DONE, ExperimentDB

        payloads = [spec.payload() for spec in specs]
        grid = self._grid(payloads)
        spec_hash = experiment_spec_hash(grid)
        experiment_id = experiment_id_for(spec_hash)
        persistent = self.expdb is not None
        db = self.expdb if persistent else ExperimentDB(":memory:")
        done = persistent and db.status(experiment_id) == DONE
        if not done:
            case_rows = [(payload, self._cache_key(spec))
                         for spec, payload in zip(specs, payloads)]
            db.register(experiment_id, spec_hash, code_salt(), grid,
                        case_rows)
        if persistent:
            self.experiment_log.append((experiment_id, spec_hash))
        return RegisteredSweep(db, experiment_id, spec_hash, persistent, done)

    def _prepare(self, sweep_reg: RegisteredSweep, pending: list) -> None:
        """Hook run once per sweep, before any pending case is claimed; a
        warm rerun of a done experiment runs it with no pending case."""

    def _pull_pending(self, sweep_reg: RegisteredSweep) -> None:
        """Claim and run pending cases until the table is drained: on a
        process pool when there are workers to spare, in-process otherwise
        or when the platform refuses a pool or the pool breaks."""
        from repro.harness.expdb import PENDING

        db, experiment_id = sweep_reg.db, sweep_reg.experiment_id
        db.release_stale(experiment_id)
        pending = [self.spec_type.from_payload(row["spec"])
                   for row in db.cases(experiment_id)
                   if row["status"] == PENDING]
        self._prepare(sweep_reg, pending)
        if pending:
            self._fan_out(len(pending),
                          lambda pool: self._claim_loop(sweep_reg, pool),
                          on_break=lambda: db.release_stale(experiment_id))

    def _fan_out(self, jobs: int, run: Callable,
                 on_break: Optional[Callable] = None):
        """``run(pool)`` on a process pool sized for ``jobs``, or
        ``run(None)`` in-process: with one worker or one job, when the
        platform refuses a pool (sandboxes without process spawning), and
        after ``on_break`` when the pool dies mid-run."""
        if self.workers > 1 and jobs > 1:
            from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, jobs),
                    initializer=_worker_init,
                    initargs=(self._pool_worker(),))
            except (OSError, ImportError):
                pool = None
            if pool is not None:
                try:
                    return run(pool)
                except (BrokenExecutor, OSError, ImportError):
                    if on_break is not None:
                        on_break()
                finally:
                    pool.shutdown(wait=False, cancel_futures=True)
        return run(None)

    def _claim_loop(self, sweep_reg: RegisteredSweep, pool) -> None:
        """Claim cases until the table drains, keeping up to ``workers``
        claims in flight on ``pool`` (one at a time when it is None).

        Claims that hit the memo or persistent cache are marked done
        without computing; duplicate specs attach to the already in-flight
        future instead of computing twice.  A failing case is marked failed
        and its exception propagates (the sweep aborts like a crashed
        process would); everything already done stays done, and cases still
        in flight stay ``running`` until the next run's
        :meth:`ExperimentDB.release_stale` hands them back — so the next
        run of the same grid resumes.
        """
        from concurrent.futures import FIRST_COMPLETED, wait

        db, experiment_id = sweep_reg.db, sweep_reg.experiment_id
        worker = f"{'serial' if pool is None else 'pool'}:{os.getpid()}"
        width = 1 if pool is None else self.workers
        completed = 0
        inflight: Dict[object, Tuple[object, List[int]]] = {}
        by_key: Dict[tuple, object] = {}
        drained = False
        while True:
            while not drained and len(inflight) < width:
                claim = db.claim_next(experiment_id, worker)
                if claim is None:
                    drained = True
                    break
                case_index, payload = claim
                spec = self.spec_type.from_payload(payload)
                if self._recall(spec) is not None:
                    db.mark_done(experiment_id, case_index)
                    completed += 1
                    self._fault_check(completed)
                    continue
                twin = by_key.get(spec.key)
                if twin is not None:
                    inflight[twin][1].append(case_index)
                    continue
                future = (_completed(self._compute, spec) if pool is None
                          else pool.submit(_compute_task, spec))
                inflight[future] = (spec, [case_index])
                by_key[spec.key] = future
            if not inflight:
                break
            done_set, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in done_set:
                spec, case_indices = inflight.pop(future)
                by_key.pop(spec.key, None)
                try:
                    result = future.result()
                except BaseException as error:
                    for case_index in case_indices:
                        db.mark_failed(experiment_id, case_index, repr(error))
                    raise
                self._remember(spec, result)
                for case_index in case_indices:
                    db.mark_done(experiment_id, case_index)
                    completed += 1
                self._fault_check(completed)

    def _fault_check(self, completed: int) -> None:
        if self.fault_after is not None and completed >= self.fault_after:
            raise SweepInterrupted(
                f"fault injected after {completed} completed cases")


class CaseRunner(SweepRunner):
    """Runs and memoises isolated and co-run simulations.

    Every run discards a warm-up window (``warmup_cycles``, default two
    epochs) before measurement starts, so the TB-dispatch ramp and cold
    caches do not bias IPCs at short simulation windows.  The paper's
    2M-cycle runs amortise the same ramp to nothing.
    """

    spec_type = CaseSpec

    def __init__(self, gpu: GPUConfig, cycles: int,
                 warmup_cycles: Optional[int] = None, cache=None,
                 telemetry: bool = False, expdb=None):
        super().__init__(cache, expdb, workers=1)
        self.gpu = gpu
        self.cycles = cycles
        if warmup_cycles is None:
            warmup_cycles = 2 * gpu.epoch_length
        self.warmup_cycles = warmup_cycles
        #: When True, every co-run case carries its per-epoch telemetry
        #: stream in :attr:`CaseRecord.telemetry` (isolated runs are never
        #: telemetered — they only produce a scalar IPC).  Part of the cache
        #: key: telemetry-bearing records are cached separately.
        self.telemetry = telemetry
        self._isolated: Dict[str, float] = {}
        self._power = PowerModel(gpu)

    # ------------------------------------------------------------- isolated

    def isolated_ipc(self, name: str) -> float:
        """IPC of a kernel running alone on this machine (memoised)."""
        if name not in self._isolated:
            cache_key = None
            if self.cache is not None:
                from repro.harness.cache import isolated_key
                cache_key = isolated_key(self.gpu, name, self.cycles,
                                         self.warmup_cycles)
                cached = self.cache.get_isolated(cache_key)
                if cached is not None:
                    self._isolated[name] = cached
                    return cached
            self._isolated[name] = self._simulate_isolated(name)
            if cache_key is not None:
                self.cache.put_isolated(cache_key, self._isolated[name])
        return self._isolated[name]

    def _simulate_isolated(self, name: str) -> float:
        sim = GPUSimulator(self.gpu, [LaunchedKernel(get_kernel(name))])
        sim.run(self.warmup_cycles)
        sim.mark_measurement_start()
        sim.run(self.cycles)
        return sim.result().kernels[0].ipc

    # --------------------------------------------------------------- co-run

    def run_case(self, names: Sequence[str], qos_flags: Sequence[bool],
                 goal_fractions: Sequence[Optional[float]],
                 policy: str) -> CaseRecord:
        """Run one co-run case (memoised by its full key).

        ``goal_fractions`` are per-kernel fractions of isolated IPC; entries
        for non-QoS kernels are ignored and may be None.
        """
        return self._run(CaseSpec(tuple(names), tuple(qos_flags),
                                  tuple(goal_fractions), policy))

    def _compute(self, spec: CaseSpec) -> CaseRecord:
        launches = []
        goals = []
        for name, is_qos, fraction in zip(spec.names, spec.qos_flags,
                                          spec.goal_fractions):
            if is_qos:
                goal = fraction * self.isolated_ipc(name)
                launches.append(LaunchedKernel(get_kernel(name), is_qos=True,
                                               ipc_goal=goal))
            else:
                goal = None
                launches.append(LaunchedKernel(get_kernel(name)))
            goals.append(goal)

        recorder = None
        if self.telemetry:
            from repro.sim.telemetry import TelemetryRecorder
            recorder = TelemetryRecorder()
        sim = GPUSimulator(self.gpu, launches, make_policy(spec.policy),
                           telemetry=recorder)
        sim.run(self.warmup_cycles)
        sim.mark_measurement_start()
        sim.run(self.cycles)
        result = sim.result()
        epoch_records = sim.finalize_telemetry()

        outcomes = []
        for launch, kernel_result, goal, fraction in zip(
                launches, result.kernels, goals, spec.goal_fractions):
            outcomes.append(KernelOutcome(
                name=kernel_result.name,
                is_qos=launch.is_qos,
                goal_fraction=fraction if launch.is_qos else None,
                ipc=kernel_result.ipc,
                isolated_ipc=self.isolated_ipc(kernel_result.name),
                ipc_goal=goal,
                intensity=intensity_class(kernel_result.name),
            ))
        power_w = self._power.average_power_w(result)
        return CaseRecord(
            kernels=tuple(outcomes),
            policy=spec.policy,
            cycles=result.cycles,
            evictions=result.evictions,
            eviction_stall_cycles=result.eviction_stall_cycles,
            power_w=power_w,
            instructions_per_watt=self._power.instructions_per_watt(result),
            telemetry=epoch_records,
        )

    # ---------------------------------------------------------------- sweeps

    def sweep(self, cases: Sequence[CaseSpec]) -> List[CaseRecord]:
        """Run a batch of cases, returning records in input order.

        Every sweep is an *experiment*: the full grid is registered in the
        experiment store (the runner's persistent :attr:`expdb` when set, a
        throwaway in-memory store otherwise) and cases are **pulled** from
        its table one claim at a time rather than consumed as a static
        list.  Already-done cases — from the memo, the persistent case
        cache, or a previous interrupted run of the same grid — are never
        re-simulated, which is what makes ``repro exp resume`` converge on
        records byte-identical to an uninterrupted run.

        With :attr:`workers` above one, claims fan out over a process pool
        whose workers are throwaway serial runners, so serial and parallel
        sweeps return identical records for identical inputs.  A figure
        submits its whole grid as one sweep and slices the records.
        """
        return self._sweep(cases)

    # ----------------------------------------------------- job protocol

    def _content_key(self, spec: CaseSpec) -> str:
        from repro.harness.cache import case_key
        return case_key(self.gpu, spec.names, spec.qos_flags,
                        spec.goal_fractions, spec.policy, self.cycles,
                        self.warmup_cycles, telemetry=self.telemetry)

    def _cache_get(self, key: str) -> Optional[CaseRecord]:
        return self.cache.get_case(key)

    def _cache_put(self, key: str, record: CaseRecord) -> None:
        self.cache.put_case(key, record)

    def _grid(self, payloads: List[dict]) -> dict:
        from repro.harness.cache import sweep_grid_payload
        return sweep_grid_payload(self.gpu, self.cycles, self.warmup_cycles,
                                  self.telemetry, payloads)

    def _pool_worker(self) -> "CaseRunner":
        """A serial, uncached copy of this runner seeded with its isolated
        IPCs, so pool workers never simulate a denominator."""
        worker = CaseRunner(self.gpu, self.cycles, self.warmup_cycles,
                            telemetry=self.telemetry)
        worker._isolated.update(self._isolated)
        return worker

    def _prepare(self, sweep_reg: RegisteredSweep,
                 pending: List[CaseSpec]) -> None:
        """Settle every isolated IPC the pending cases divide by — once per
        sweep, before any case fans out.  Denominators a previous run of
        this experiment stored are adopted, so neither a resume nor a warm
        rerun re-simulates them even with the case cache disabled; the rest
        come from the cache or are simulated, on the pool when there is
        one, and are stored with the experiment."""
        from repro.harness.cache import isolated_key

        def key(name: str) -> str:
            return isolated_key(self.gpu, name, self.cycles,
                                self.warmup_cycles)

        def simulate(pool) -> List[float]:
            if pool is None:
                return [self._simulate_isolated(name) for name in missing]
            return list(pool.map(_isolated_task, missing))

        db, experiment_id = sweep_reg.db, sweep_reg.experiment_id
        for name, ipc in db.isolated_ipcs(experiment_id).items():
            self._isolated.setdefault(name, ipc)
        names = list(dict.fromkeys(name for spec in pending
                                   for name in spec.names))
        missing = []
        for name in names:
            if name in self._isolated:
                continue
            cached = (self.cache.get_isolated(key(name))
                      if self.cache is not None else None)
            if cached is None:
                missing.append(name)
            else:
                self._isolated[name] = cached
        for name, ipc in zip(missing, self._fan_out(len(missing), simulate)):
            self._isolated[name] = ipc
            if self.cache is not None:
                self.cache.put_isolated(key(name), ipc)
        if sweep_reg.persistent:
            for name in names:
                db.record_isolated(experiment_id, name, key(name),
                                   self._isolated[name])

    # ---------------------------------------------------------- conveniences

    def run_pair(self, qos: str, nonqos: str, goal: float,
                 policy: str) -> CaseRecord:
        return self._run(CaseSpec.pair(qos, nonqos, goal, policy))

    def run_trio(self, names: Sequence[str], qos_count: int, goal: float,
                 policy: str) -> CaseRecord:
        """Run a trio with the first ``qos_count`` kernels as QoS kernels,
        all sharing the same goal fraction (the paper's trio protocol)."""
        return self._run(CaseSpec.trio(names, qos_count, goal, policy))
