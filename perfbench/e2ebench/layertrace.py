"""Outside-in layer trace of the program under test.

:func:`install` wraps the public functions of each layer (the table in
:data:`TARGETS`) from the benchmark's own code; :meth:`Installed.restore`
puts every original back.  Nothing in the program is edited.

* **Spans** record operations and coarse layer calls: name, start, end,
  parent span and operation id.  They stay in memory until the run ends.
* **Hot buckets** take the calls made every simulated cycle (``SM.step``,
  scheduler ``select``, ``warp_access``, ``Cache.access*``,
  ``MemoryController.service``) and a few per-record calls: a call count
  plus busy time, no span.
* **Self time** of a span or bucket is its duration minus the time its
  child spans and hot calls cover.  Every frame, span or hot call, adds
  its duration to the frame that encloses it, so no time is counted
  twice across layers.

The wrappers only observe: arguments and results pass through untouched,
so a traced run must reproduce the untraced output digests.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .measure import percentile

#: Rule ids registered in ``repro.analysis`` when this benchmark was
#: written; each gets an ``analysis.rule_s.<RULE>`` metric.
RULE_IDS = ("DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
            "DET007", "DET008", "EFFECT001", "EFFECT002", "EFFECT003",
            "FLOAT001", "FLOW001", "FLOW002", "FLOW003", "LAY001", "LAY002",
            "LAY003", "SALT001", "SALT002", "SCHEMA001")


@dataclass
class Span:
    index: int
    name: str
    start_ns: int
    end_ns: int
    parent: int
    op_id: int
    child_ns: int = 0
    failed: bool = False

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


class Recorder:
    """In-memory spans, hot buckets and model-side counters of one run.

    A bucket is ``[calls, total_ns, child_ns, truthy_results]``.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Span] = []
        self.buckets: Dict[str, List[int]] = {}
        self.counters: Dict[str, float] = {}
        self.queue_waits: List[int] = []
        self.marked: set = set()
        self.op_id = -1
        # Child time per open frame; element 0 is the root frame.  The
        # list object is captured by the hot wrappers and never replaced.
        self._child: List[int] = [0]
        self._open: List[int] = []

    # ---------------------------------------------------------------- spans

    def enter(self, name: str) -> Span:
        span = Span(len(self.spans), name, 0, 0,
                    self._open[-1] if self._open else -1, self.op_id)
        self._open.append(span.index)
        self.spans.append(span)
        self._child.append(0)
        span.start_ns = self.clock()
        return span

    def exit(self, span: Span, failed: bool = False) -> None:
        span.end_ns = self.clock()
        span.child_ns = self._child.pop()
        span.failed = failed
        self._open.pop()
        self._child[-1] += span.end_ns - span.start_ns

    def mark_enclosing(self, names: Tuple[str, ...]) -> None:
        """Flag the innermost open span named in ``names``."""
        for index in reversed(self._open):
            if self.spans[index].name in names:
                self.marked.add(index)
                return

    def bucket(self, name: str) -> List[int]:
        return self.buckets.setdefault(name, [0, 0, 0, 0])

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ---------------------------------------------------------- wrappers

    def span_wrapper(self, function, name, before=None, after=None):
        """Wrap ``function`` in a span.  ``name`` may be a callable of the
        call's arguments.  ``before(args)`` returns a state handed to
        ``after(args, result, state, span)`` on success."""
        recorder = self

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            span = recorder.enter(name(args) if callable(name) else name)
            failed = True
            try:
                result = function(*args, **kwargs)
                failed = False
            finally:
                recorder.exit(span, failed)
            if after is not None:
                after(args, result, state, span)
            return result
        return wrapper

    def hot_wrapper(self, function, name):
        """Wrap ``function`` in a hot bucket: count, busy time, child time
        and how many calls returned a truthy value."""
        bucket = self.bucket(name)
        child = self._child
        clock = self.clock

        def wrapper(*args, **kwargs):
            child.append(0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                bucket[2] += child.pop()
                child[-1] += elapsed
                bucket[0] += 1
                bucket[1] += elapsed
            if result:
                bucket[3] += 1
            return result
        return wrapper

    def generator_wrapper(self, function, name):
        """Wrap a generator function: each resume of the generator is timed
        into the bucket (the consumer's work between items is not)."""
        recorder = self

        def wrapper(*args, **kwargs):
            bucket = recorder.bucket(name(args) if callable(name) else name)
            bucket[0] += 1
            return recorder._timed(function(*args, **kwargs), bucket)
        return wrapper

    def _timed(self, generator, bucket):
        child = self._child
        clock = self.clock
        while True:
            child.append(0)
            start = clock()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                bucket[2] += child.pop()
                child[-1] += elapsed
                bucket[1] += elapsed
            yield item


# --------------------------------------------------------------- targets

SPAN, HOT, GEN = "span", "hot", "gen"

#: ``(module, class or None, attribute, kind, name, include subclasses)``.
#: Span and bucket names are ``<layer>.<function>``.
TARGETS = (
    ("repro.sim.engine", "GPUSimulator", "run", SPAN, "sim.engine.run", False),
    ("repro.sim.engine", "GPUSimulator", "launch_at", SPAN,
     "sim.engine.launch_at", False),
    ("repro.sim.sm", "SM", "step", HOT, "sim.sm.step", False),
    ("repro.sim.sm", "SM", "sample_idle", HOT, "sim.sm.sample_idle", False),
    ("repro.sim.scheduler", "GTOScheduler", "select", HOT,
     "sim.scheduler.select", True),
    ("repro.sim.memory", "MemorySubsystem", "warp_access", HOT,
     "sim.memory.warp_access", False),
    ("repro.sim.memory", "MemoryController", "service", HOT,
     "sim.memory.service", False),
    ("repro.sim.cache", "Cache", "access", HOT, "sim.cache.access", False),
    ("repro.sim.cache", "Cache", "access_rw", HOT, "sim.cache.access_rw",
     False),
    ("repro.sim.preemption", "PreemptionEngine", "begin_eviction", SPAN,
     "sim.preemption.begin_eviction", False),
    ("repro.sim.preemption", "PreemptionEngine", "pop_completed", GEN,
     "sim.preemption.pop_completed", False),
    ("repro.sim.policy", "SharingPolicy", "on_epoch_start", SPAN,
     "sim.policy.on_epoch_start", True),
    ("repro.sim.policy", "SharingPolicy", "on_quota_exhausted", SPAN,
     "sim.policy.on_quota_exhausted", True),
    ("repro.qos.static_alloc", "StaticAllocator", "adjust", SPAN,
     "qos.static_alloc.adjust", False),
    ("repro.controllers.base", "QuotaController", "on_epoch", SPAN,
     "controllers.on_epoch", True),
    ("repro.harness.runner", "CaseRunner", "run_case", SPAN,
     "harness.runner.run_case", False),
    ("repro.harness.runner", "CaseRunner", "isolated_ipc", SPAN,
     "harness.runner.isolated_ipc", False),
    ("repro.harness.runner", "CaseRunner", "sweep", SPAN,
     "harness.runner.sweep", False),
    ("repro.harness.cache", None, "code_salt", HOT, "harness.cache.salt",
     False),
    ("repro.harness.cache", "CaseCache", "__init__", SPAN,
     "harness.cache.load", False),
    ("repro.harness.cache", None, "case_key", HOT, "harness.cache.key",
     False),
    ("repro.harness.cache", None, "isolated_key", HOT, "harness.cache.key",
     False),
    ("repro.harness.cache", None, "serve_key", HOT, "harness.cache.key",
     False),
    ("repro.harness.cache", "CaseCache", "get_case", HOT,
     "harness.cache.get", False),
    ("repro.harness.cache", "CaseCache", "get_isolated", HOT,
     "harness.cache.get", False),
    ("repro.harness.cache", "CaseCache", "get_serve", HOT,
     "harness.cache.get", False),
    ("repro.harness.cache", "CaseCache", "put_case", HOT,
     "harness.cache.put", False),
    ("repro.harness.cache", "CaseCache", "put_isolated", HOT,
     "harness.cache.put", False),
    ("repro.harness.cache", "CaseCache", "put_serve", HOT,
     "harness.cache.put", False),
    ("repro.harness.expdb", "ExperimentDB", "__init__", SPAN,
     "harness.expdb.open", False),
    ("repro.harness.expdb", "ExperimentDB", "register", SPAN,
     "harness.expdb.register", False),
    ("repro.harness.expdb", "ExperimentDB", "claim_next", SPAN,
     "harness.expdb.claim", False),
    ("repro.harness.expdb", "ExperimentDB", "mark_done", SPAN,
     "harness.expdb.write", False),
    ("repro.harness.expdb", "ExperimentDB", "mark_failed", SPAN,
     "harness.expdb.mark_failed", False),
    ("repro.harness.expdb", "ExperimentDB", "release_stale", SPAN,
     "harness.expdb.write", False),
    ("repro.harness.expdb", "ExperimentDB", "finish", SPAN,
     "harness.expdb.write", False),
    ("repro.harness.expdb", "ExperimentDB", "record_isolated", SPAN,
     "harness.expdb.write", False),
    ("repro.serve.arrivals", "ArrivalProcess", "generate", SPAN,
     "serve.arrivals.generate", True),
    ("repro.serve.dispatcher", "Dispatcher", "serve", SPAN,
     "serve.dispatcher.serve", False),
    ("repro.serve.dispatcher", "AdmissionPolicy", "admit", HOT,
     "serve.dispatcher.admit", True),
    ("repro.serve.runner", "ServeRunner", "run_spec", SPAN,
     "serve.runner.run_spec", False),
    ("repro.serve.runner", "ServeRunner", "sweep", SPAN,
     "serve.runner.sweep", False),
    ("repro.serve.runner", "ServeCaseOutcome", "to_value", HOT,
     "serve.runner.encode", False),
    ("repro.serve.runner", "ServeCaseOutcome", "from_value", HOT,
     "serve.runner.decode", False),
    ("repro.serve.metrics", None, "validate_request_dict", HOT,
     "serve.metrics.validate", False),
    ("repro.analysis.driver", None, "load_project", SPAN,
     "analysis.load_project", False),
    ("repro.analysis.callgraph", None, "build_callgraph", SPAN,
     "analysis.build_callgraph", False),
    ("repro.analysis.flow", "ProjectFlowAnalysis", "__init__", SPAN,
     "analysis.flow", False),
)

_RUNNER_SPANS = ("harness.runner.run_case", "harness.runner.isolated_ipc")


def _subclasses(cls) -> list:
    found, queue = [], [cls]
    while queue:
        current = queue.pop()
        if current not in found:
            found.append(current)
            queue.extend(current.__subclasses__())
    return found


def _rule_name(args) -> str:
    return "analysis.rule." + args[0].id


# ------------------------------------------------------ model-side hooks

def _engine_state(sim) -> tuple:
    aggregate = sim.memory.aggregate()
    retired = sum(stats.retired_thread_insts for stats in sim.kernel_stats)
    stalls = sum(stats.mshr_stalls for stats in sim.memory.kernel_stats)
    return (sim.cycle, retired, stalls, sim.preemption.wasted_thread_insts,
            aggregate)


def _hooks(recorder: Recorder) -> Dict[str, tuple]:
    """``name -> (before, after)`` for spans that read model-side state."""
    add = recorder.add

    def engine_before(args):
        return _engine_state(args[0])

    def engine_after(args, _result, before, _span):
        sim = args[0]
        after = _engine_state(sim)
        cycles = after[0] - before[0]
        add("sim.engine.cycles", cycles)
        add("sim.engine.sm_cycles", cycles * len(sim.sms))
        add("sim.engine.retired", after[1] - before[1])
        add("sim.memory.mshr_stalls", after[2] - before[2])
        add("sim.preemption.wasted", after[3] - before[3])
        for key, value in after[4].items():
            add("sim.memory." + key, value - before[4].get(key, 0))
        recorder.mark_enclosing(_RUNNER_SPANS)

    def eviction_after(args, done, _state, _span):
        add("sim.preemption.stall_cycles", done - args[3])

    def case_after(_args, record, _state, span):
        if span.index in recorder.marked:
            qos = [kernel for kernel in record.kernels if kernel.is_qos]
            add("qos.kernels", len(qos))
            add("qos.reached", sum(1 for kernel in qos if kernel.reached))

    def claim_after(_args, claim, _state, _span):
        if claim is not None:
            add("harness.expdb.claim_hits", 1)

    def cache_after(args, _result, _state, _span):
        cache = args[0]
        add("harness.cache.entries", len(cache))
        if cache.path.exists():
            add("harness.cache.bytes", cache.path.stat().st_size)

    def generate_after(_args, requests, _state, _span):
        add("serve.arrivals.requests", len(requests))

    def serve_after(_args, result, _state, _span):
        add("serve.dispatcher.generated", result.generated)
        add("serve.dispatcher.completed", result.completed)
        recorder.queue_waits.extend(
            record.queue_wait_cycles for record in result.records
            if record.queue_wait_cycles is not None)

    def load_after(_args, result, _state, _span):
        add("analysis.modules", len(result[0].modules))

    def flow_after(args, _result, _state, _span):
        stats = args[0].stats
        add("analysis.summaries_computed", stats["computed"])
        add("analysis.summaries_cached", stats["cached"])

    return {
        "sim.engine.run": (engine_before, engine_after),
        "sim.preemption.begin_eviction": (None, eviction_after),
        "harness.runner.run_case": (None, case_after),
        "harness.cache.load": (None, cache_after),
        "harness.expdb.claim": (None, claim_after),
        "serve.arrivals.generate": (None, generate_after),
        "serve.dispatcher.serve": (None, serve_after),
        "analysis.load_project": (None, load_after),
        "analysis.flow": (None, flow_after),
    }


def _service_wrapper(recorder: Recorder, function):
    """``MemoryController.service`` as a hot call that also reads
    ``queue_delay`` at the request's arrival cycle before servicing it."""
    timed = recorder.hot_wrapper(function, "sim.memory.service")

    def wrapper(controller, line, is_write, now, *rest, **kwargs):
        recorder.add("sim.memory.mc_wait_cycles", controller.queue_delay(now))
        return timed(controller, line, is_write, now, *rest, **kwargs)
    return wrapper


def _warp_access_wrapper(recorder: Recorder, function):
    timed = recorder.hot_wrapper(function, "sim.memory.warp_access")

    def wrapper(memory, sm_id, kernel_idx, lines, *rest, **kwargs):
        recorder.add("sim.memory.lines", len(lines))
        return timed(memory, sm_id, kernel_idx, lines, *rest, **kwargs)
    return wrapper


# ------------------------------------------------------------ install

class Installed:
    """The patches one :func:`install` applied, for :meth:`restore`."""

    def __init__(self):
        self.patches: List[tuple] = []

    def restore(self) -> None:
        for owner, attribute, original in reversed(self.patches):
            setattr(owner, attribute, original)
        self.patches.clear()


def _patch(installed: Installed, owner, attribute: str, replacement) -> None:
    installed.patches.append((owner, attribute, owner.__dict__[attribute]))
    setattr(owner, attribute, replacement)


def _wrap(recorder: Recorder, function, kind: str, name, hooks: dict):
    if name == "sim.memory.service":
        return _service_wrapper(recorder, function)
    if name == "sim.memory.warp_access":
        return _warp_access_wrapper(recorder, function)
    if kind == HOT:
        return recorder.hot_wrapper(function, name)
    if kind == GEN:
        return recorder.generator_wrapper(function, name)
    before, after = hooks.get(name, (None, None))
    return recorder.span_wrapper(function, name, before, after)


def install(recorder: Recorder) -> Installed:
    """Wrap every target in :data:`TARGETS` plus each registered lint
    rule's ``check_module``/``check_project``."""
    installed = Installed()
    hooks = _hooks(recorder)
    # Import everything first: subclasses (policies, controllers, arrival
    # processes) and ``from x import f`` bindings must exist before the
    # wrapping walks them.
    modules = {entry[0]: importlib.import_module(entry[0])
               for entry in TARGETS}
    try:
        for module_name, class_name, attribute, kind, name, subclasses in TARGETS:
            module = modules[module_name]
            if class_name is None:
                _patch_function(installed, recorder, module, attribute,
                                kind, name, hooks)
                continue
            base = getattr(module, class_name)
            for cls in (_subclasses(base) if subclasses else [base]):
                if attribute not in cls.__dict__:
                    continue
                raw = cls.__dict__[attribute]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        _wrap(recorder, raw.__func__, kind, name, hooks))
                else:
                    wrapped = _wrap(recorder, raw, kind, name, hooks)
                _patch(installed, cls, attribute, wrapped)
        _install_rules(installed, recorder)
    except BaseException:
        installed.restore()
        raise
    return installed


def _patch_function(installed, recorder, module, attribute, kind, name,
                    hooks) -> None:
    """Replace a module-level function in every ``repro`` module that
    bound it by name, so ``from x import f`` callers see the wrapper."""
    original = getattr(module, attribute)
    wrapped = _wrap(recorder, original, kind, name, hooks)
    for loaded_name, loaded in sorted(sys.modules.items()):
        if (loaded is not None and loaded_name.split(".")[0] == "repro"
                and loaded.__dict__.get(attribute) is original):
            _patch(installed, loaded, attribute, wrapped)


def _install_rules(installed: Installed, recorder: Recorder) -> None:
    from repro.analysis.core import Rule, all_rules
    defining = []
    for rule in all_rules().values():
        attribute = ("check_project" if rule.scope == "project"
                     else "check_module")
        for cls in type(rule).__mro__:
            if attribute in cls.__dict__:
                if cls is not Rule and (cls, attribute) not in defining:
                    defining.append((cls, attribute))
                break
    for cls, attribute in defining:
        _patch(installed, cls, attribute, recorder.generator_wrapper(
            cls.__dict__[attribute], _rule_name))


# ------------------------------------------------------------ metrics

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("sim.engine.cycles", "cycles", "higher"),
    ("sim.engine.runs", "count", "lower"),
    ("sim.engine.launches", "count", "higher"),
    ("sim.engine.self_s", "s", "lower"),
    ("sim.sm.steps", "count", "lower"),
    ("sim.sm.self_s", "s", "lower"),
    ("sim.sm.stepped_frac", "ratio", "lower"),
    ("sim.sm.issue_frac", "ratio", "higher"),
    ("sim.sm.samples", "count", "lower"),
    ("sim.sm.sample_s", "s", "lower"),
    ("sim.scheduler.selects", "count", "lower"),
    ("sim.scheduler.self_s", "s", "lower"),
    ("sim.scheduler.hit_frac", "ratio", "higher"),
    ("sim.memory.accesses", "count", "lower"),
    ("sim.memory.lines", "count", "lower"),
    ("sim.memory.self_s", "s", "lower"),
    ("sim.memory.l1_hit_frac", "ratio", "higher"),
    ("sim.memory.l2_hit_frac", "ratio", "higher"),
    ("sim.memory.dram_row_hit_frac", "ratio", "higher"),
    ("sim.memory.mshr_stalls", "count", "lower"),
    ("sim.memory.mc_wait_cycles_mean", "cycles", "lower"),
    ("sim.cache.accesses", "count", "lower"),
    ("sim.cache.self_s", "s", "lower"),
    ("sim.preemption.evictions", "count", "lower"),
    ("sim.preemption.self_s", "s", "lower"),
    ("sim.preemption.stall_cycles", "cycles", "lower"),
    ("sim.preemption.wasted_frac", "ratio", "lower"),
    ("sim.policy.epochs", "count", "lower"),
    ("sim.policy.epoch_s", "s", "lower"),
    ("sim.policy.quota_exhausted", "count", "lower"),
    ("sim.policy.quota_exhausted_s", "s", "lower"),
    ("qos.static_alloc_s", "s", "lower"),
    ("controllers.on_epoch_s", "s", "lower"),
    ("qos.reach_frac", "ratio", "higher"),
    ("harness.runner.cases_simulated", "count", "lower"),
    ("harness.runner.isolated_simulated", "count", "lower"),
    ("harness.runner.self_s", "s", "lower"),
    ("harness.cache.salt_s", "s", "lower"),
    ("harness.cache.load_s", "s", "lower"),
    ("harness.cache.entries", "count", "lower"),
    ("harness.cache.bytes", "B", "lower"),
    ("harness.cache.keys", "count", "lower"),
    ("harness.cache.key_s", "s", "lower"),
    ("harness.cache.gets", "count", "lower"),
    ("harness.cache.get_s", "s", "lower"),
    ("harness.cache.hit_frac", "ratio", "higher"),
    ("harness.cache.puts", "count", "lower"),
    ("harness.cache.put_s", "s", "lower"),
    ("harness.expdb.open_s", "s", "lower"),
    ("harness.expdb.register_s", "s", "lower"),
    ("harness.expdb.claims", "count", "lower"),
    ("harness.expdb.claim_s", "s", "lower"),
    ("harness.expdb.claim_hit_frac", "ratio", "higher"),
    ("harness.expdb.writes", "count", "lower"),
    ("harness.expdb.write_s", "s", "lower"),
    ("harness.expdb.errors", "count", "lower"),
    ("serve.arrivals.requests", "count", "higher"),
    ("serve.arrivals.generate_s", "s", "lower"),
    ("serve.dispatcher.self_s", "s", "lower"),
    ("serve.dispatcher.admits", "count", "higher"),
    ("serve.dispatcher.admit_s", "s", "lower"),
    ("serve.dispatcher.reject_frac", "ratio", "lower"),
    ("serve.dispatcher.completed_frac", "ratio", "higher"),
    ("serve.dispatcher.queue_wait_p99_cycles", "cycles", "lower"),
    ("serve.runner.self_s", "s", "lower"),
    ("serve.runner.encode_s", "s", "lower"),
    ("serve.runner.decode_s", "s", "lower"),
    ("serve.metrics.validate_calls", "count", "lower"),
    ("serve.metrics.validate_s", "s", "lower"),
    ("analysis.modules", "count", "higher"),
    ("analysis.load_s", "s", "lower"),
    ("analysis.callgraph_s", "s", "lower"),
    ("analysis.flow_s", "s", "lower"),
    ("analysis.summaries_computed", "count", "lower"),
    ("analysis.summaries_cached", "count", "higher"),
    ("analysis.summary_hit_frac", "ratio", "higher"),
) + tuple((f"analysis.rule_s.{rule}", "s", "lower") for rule in RULE_IDS) + (
    ("trace.overhead_frac", "ratio", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder,
                  overhead_frac: float) -> Dict[str, dict]:
    """Fold spans, buckets and counters into the :data:`PER_LAYER` metrics
    (zeros for layers that never ran)."""
    calls: Dict[str, int] = {}
    self_ns: Dict[str, int] = {}
    failed: Dict[str, int] = {}
    outer_epochs = 0
    runner_marked = {"harness.runner.run_case": 0,
                     "harness.runner.isolated_ipc": 0}
    for index, span in enumerate(recorder.spans):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_ns[span.name] = self_ns.get(span.name, 0) + span.self_ns
        failed[span.name] = failed.get(span.name, 0) + int(span.failed)
        if span.name == "sim.policy.on_epoch_start" and (
                span.parent < 0
                or recorder.spans[span.parent].name != span.name):
            outer_epochs += 1
        if index in recorder.marked:
            runner_marked[span.name] += 1
    truthy: Dict[str, int] = {}
    for name, (count, total, child, hits) in recorder.buckets.items():
        calls[name] = calls.get(name, 0) + count
        self_ns[name] = self_ns.get(name, 0) + total - child
        truthy[name] = hits

    def seconds(*names: str) -> float:
        return sum(self_ns.get(name, 0) for name in names) / 1e9

    def count(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    c = recorder.counters.get
    waits = recorder.queue_waits
    values = {
        "sim.engine.cycles": c("sim.engine.cycles", 0),
        "sim.engine.runs": count("sim.engine.run"),
        "sim.engine.launches": count("sim.engine.launch_at"),
        "sim.engine.self_s": seconds("sim.engine.run", "sim.engine.launch_at"),
        "sim.sm.steps": count("sim.sm.step"),
        "sim.sm.self_s": seconds("sim.sm.step"),
        "sim.sm.stepped_frac": _ratio(count("sim.sm.step"),
                                      c("sim.engine.sm_cycles", 0)),
        "sim.sm.issue_frac": _ratio(truthy.get("sim.sm.step", 0),
                                    count("sim.sm.step")),
        "sim.sm.samples": count("sim.sm.sample_idle"),
        "sim.sm.sample_s": seconds("sim.sm.sample_idle"),
        "sim.scheduler.selects": count("sim.scheduler.select"),
        "sim.scheduler.self_s": seconds("sim.scheduler.select"),
        "sim.scheduler.hit_frac": _ratio(truthy.get("sim.scheduler.select", 0),
                                         count("sim.scheduler.select")),
        "sim.memory.accesses": count("sim.memory.warp_access"),
        "sim.memory.lines": c("sim.memory.lines", 0),
        "sim.memory.self_s": seconds("sim.memory.warp_access",
                                     "sim.memory.service"),
        "sim.memory.l1_hit_frac": _ratio(
            c("sim.memory.l1_hits", 0),
            c("sim.memory.l1_hits", 0) + c("sim.memory.l1_misses", 0)),
        "sim.memory.l2_hit_frac": _ratio(
            c("sim.memory.l2_hits", 0),
            c("sim.memory.l2_hits", 0) + c("sim.memory.l2_misses", 0)),
        "sim.memory.dram_row_hit_frac": _ratio(
            c("sim.memory.dram_row_hits", 0),
            c("sim.memory.dram_row_hits", 0)
            + c("sim.memory.dram_row_misses", 0)),
        "sim.memory.mshr_stalls": c("sim.memory.mshr_stalls", 0),
        "sim.memory.mc_wait_cycles_mean": _ratio(
            c("sim.memory.mc_wait_cycles", 0), count("sim.memory.service")),
        "sim.cache.accesses": count("sim.cache.access_rw"),
        "sim.cache.self_s": seconds("sim.cache.access", "sim.cache.access_rw"),
        "sim.preemption.evictions": count("sim.preemption.begin_eviction"),
        "sim.preemption.self_s": seconds("sim.preemption.begin_eviction",
                                         "sim.preemption.pop_completed"),
        "sim.preemption.stall_cycles": c("sim.preemption.stall_cycles", 0),
        "sim.preemption.wasted_frac": _ratio(c("sim.preemption.wasted", 0),
                                             c("sim.engine.retired", 0)),
        "sim.policy.epochs": outer_epochs,
        "sim.policy.epoch_s": seconds("sim.policy.on_epoch_start"),
        "sim.policy.quota_exhausted": count("sim.policy.on_quota_exhausted"),
        "sim.policy.quota_exhausted_s": seconds(
            "sim.policy.on_quota_exhausted"),
        "qos.static_alloc_s": seconds("qos.static_alloc.adjust"),
        "controllers.on_epoch_s": seconds("controllers.on_epoch"),
        "qos.reach_frac": _ratio(c("qos.reached", 0), c("qos.kernels", 0)),
        "harness.runner.cases_simulated":
            runner_marked["harness.runner.run_case"],
        "harness.runner.isolated_simulated":
            runner_marked["harness.runner.isolated_ipc"],
        "harness.runner.self_s": seconds(*(
            "harness.runner." + name
            for name in ("run_case", "isolated_ipc", "sweep"))),
        "harness.cache.salt_s": seconds("harness.cache.salt"),
        "harness.cache.load_s": seconds("harness.cache.load"),
        "harness.cache.entries": c("harness.cache.entries", 0),
        "harness.cache.bytes": c("harness.cache.bytes", 0),
        "harness.cache.keys": count("harness.cache.key"),
        "harness.cache.key_s": seconds("harness.cache.key"),
        "harness.cache.gets": count("harness.cache.get"),
        "harness.cache.get_s": seconds("harness.cache.get"),
        "harness.cache.hit_frac": _ratio(truthy.get("harness.cache.get", 0),
                                         count("harness.cache.get")),
        "harness.cache.puts": count("harness.cache.put"),
        "harness.cache.put_s": seconds("harness.cache.put"),
        "harness.expdb.open_s": seconds("harness.expdb.open"),
        "harness.expdb.register_s": seconds("harness.expdb.register"),
        "harness.expdb.claims": count("harness.expdb.claim"),
        "harness.expdb.claim_s": seconds("harness.expdb.claim"),
        "harness.expdb.claim_hit_frac": _ratio(
            c("harness.expdb.claim_hits", 0), count("harness.expdb.claim")),
        "harness.expdb.writes": count("harness.expdb.write",
                                      "harness.expdb.mark_failed"),
        "harness.expdb.write_s": seconds("harness.expdb.write",
                                         "harness.expdb.mark_failed"),
        "harness.expdb.errors": count("harness.expdb.mark_failed") + sum(
            failures for name, failures in failed.items()
            if name.startswith("harness.expdb.")),
        "serve.arrivals.requests": c("serve.arrivals.requests", 0),
        "serve.arrivals.generate_s": seconds("serve.arrivals.generate"),
        "serve.dispatcher.self_s": seconds("serve.dispatcher.serve"),
        "serve.dispatcher.admits": count("serve.dispatcher.admit"),
        "serve.dispatcher.admit_s": seconds("serve.dispatcher.admit"),
        "serve.dispatcher.reject_frac": _ratio(
            truthy.get("serve.dispatcher.admit", 0),
            count("serve.dispatcher.admit")),
        "serve.dispatcher.completed_frac": _ratio(
            c("serve.dispatcher.completed", 0),
            c("serve.dispatcher.generated", 0)),
        "serve.dispatcher.queue_wait_p99_cycles":
            percentile(waits, 99) if waits else 0,
        "serve.runner.self_s": seconds("serve.runner.run_spec",
                                       "serve.runner.sweep"),
        "serve.runner.encode_s": seconds("serve.runner.encode"),
        "serve.runner.decode_s": seconds("serve.runner.decode"),
        "serve.metrics.validate_calls": count("serve.metrics.validate"),
        "serve.metrics.validate_s": seconds("serve.metrics.validate"),
        "analysis.modules": c("analysis.modules", 0),
        "analysis.load_s": seconds("analysis.load_project"),
        "analysis.callgraph_s": seconds("analysis.build_callgraph"),
        "analysis.flow_s": seconds("analysis.flow"),
        "analysis.summaries_computed": c("analysis.summaries_computed", 0),
        "analysis.summaries_cached": c("analysis.summaries_cached", 0),
        "analysis.summary_hit_frac": _ratio(
            c("analysis.summaries_cached", 0),
            c("analysis.summaries_cached", 0)
            + c("analysis.summaries_computed", 0)),
        "trace.overhead_frac": overhead_frac,
    }
    for rule in RULE_IDS:
        values[f"analysis.rule_s.{rule}"] = seconds("analysis.rule." + rule)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in PER_LAYER}
