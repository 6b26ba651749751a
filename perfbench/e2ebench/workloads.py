"""The four workloads, as run inside the measured process.

Each workload has a ``setup`` (imports, code salt, runners, empty
stores: what ``setup_s`` times), a ``run(op)`` that performs one
operation, a ``digest(op, output)`` of the operation's output and a
``check(op, output)`` that raises when the output breaks an invariant
that holds for every seed.  Digesting and checking run outside the
timed operation.
"""

from __future__ import annotations

import pathlib

from .measure import digest


class CheckFailed(Exception):
    """An operation's output broke an invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class CorunCold:
    """One co-run case or one isolated-IPC denominator per operation,
    from empty stores (a fresh store directory every round)."""

    def __init__(self, job: dict):
        self.job = job
        self.inputs = job["inputs"]
        self.store = pathlib.Path(job["dirs"]["cache"])

    def setup(self) -> None:
        from repro.config import FAST_GPU
        from repro.harness.cache import CaseCache, code_salt, record_to_dict
        from repro.harness.runner import CaseRunner
        code_salt()
        self._cache_class, self._runner_class = CaseCache, CaseRunner
        self._record_to_dict = record_to_dict
        self.gpu = FAST_GPU
        self.new_round(0)

    def new_round(self, index: int) -> None:
        self.runner = self._runner_class(
            self.gpu, self.inputs["cycles"], self.inputs["warmup"],
            cache=self._cache_class(self.store / f"round{index}"))

    def cycles(self, op: dict) -> int:
        return self.inputs["cycles"] + self.runner.warmup_cycles

    def run(self, op: dict):
        if op["kind"] == "isolated":
            return self.runner.isolated_ipc(op["kernel"])
        return self.runner.run_case(op["names"], op["qos"], op["goals"],
                                    op["policy"])

    def digest(self, op: dict, output) -> str:
        if op["kind"] == "isolated":
            return digest(output)
        return digest(self._record_to_dict(output))

    def check(self, op: dict, output) -> None:
        if op["kind"] == "isolated":
            _require(output > 0, f"isolated IPC {output} is not positive")
            return
        _require(output.cycles == self.inputs["cycles"],
                 f"record covers {output.cycles} cycles")
        _require([k.name for k in output.kernels] == op["names"],
                 "record kernels differ from the case")
        for kernel, goal in zip(output.kernels, op["goals"]):
            _require(kernel.ipc >= 0 and kernel.isolated_ipc > 0,
                     f"{kernel.name}: IPC {kernel.ipc} / {kernel.isolated_ipc}")
            if kernel.is_qos:
                _require(abs(kernel.ipc_goal - goal * kernel.isolated_ipc)
                         <= 1e-9 * kernel.ipc_goal,
                         f"{kernel.name}: goal {kernel.ipc_goal}")


class ServeCold:
    """One ``ServeSpec`` case through ``ServeRunner`` per operation."""

    def __init__(self, job: dict):
        self.job = job
        self.inputs = job["inputs"]
        self.store = pathlib.Path(job["dirs"]["cache"])

    def setup(self) -> None:
        from repro.config import FAST_GPU
        from repro.harness.cache import CaseCache, code_salt
        from repro.serve.runner import ServeRunner, ServeSpec
        code_salt()
        self._cache_class, self._runner_class = CaseCache, ServeRunner
        self._spec_class = ServeSpec
        self.gpu = FAST_GPU
        self.new_round(0)

    def new_round(self, index: int) -> None:
        self.runner = self._runner_class(
            self.gpu, cache=self._cache_class(self.store / f"round{index}"),
            workers=1)

    def cycles(self, op: dict) -> int:
        return op["spec"]["horizon_cycles"]

    def run(self, op: dict):
        return self.runner.run_spec(self._spec_class.from_payload(op["spec"]))

    def digest(self, op: dict, output) -> str:
        return digest(output.to_value())

    def check(self, op: dict, output) -> None:
        _require(output.generated == output.admitted + output.rejected,
                 "generated != admitted + rejected")
        _require(output.admitted == output.completed + output.unfinished,
                 "admitted != completed + unfinished")
        _require(len(output.records) == output.generated,
                 "one record per generated request")
        for record in output.records:
            cycles = [record.arrival_cycle, record.start_cycle,
                      record.finish_cycle]
            present = [cycle for cycle in cycles if cycle is not None]
            _require(present == sorted(present),
                     f"request {record.request_id}: cycles out of order")
            _require(record.arrival_cycle < output.horizon_cycles,
                     f"request {record.request_id} arrives past the horizon")


class RerunWarm:
    """One warm regeneration of the corun-cold and serve-cold grids from a
    populated store, through fresh runner and store objects."""

    def __init__(self, job: dict):
        self.job = job
        self.inputs = job["inputs"]
        self.cache_dir = pathlib.Path(job["dirs"]["cache"])
        self.expdb_path = pathlib.Path(job["dirs"]["expdb"])

    def setup(self) -> None:
        from repro.config import FAST_GPU
        from repro.harness.cache import CaseCache, code_salt, record_to_dict
        from repro.harness.expdb import ExperimentDB
        from repro.harness.parallel import ParallelCaseRunner
        from repro.harness.runner import CaseSpec
        from repro.serve.runner import ServeRunner, ServeSpec
        code_salt()
        self._classes = (CaseCache, ExperimentDB, ParallelCaseRunner,
                         ServeRunner)
        self._record_to_dict = record_to_dict
        self.cases = [CaseSpec(tuple(case["names"]), tuple(case["qos"]),
                               tuple(case["goals"]), case["policy"])
                      for case in self.inputs["cases"]]
        self.specs = [ServeSpec.from_payload(spec)
                      for spec in self.inputs["serve"]]
        self.gpu = FAST_GPU

    def new_round(self, index: int) -> None:
        pass

    def cycles(self, op: dict) -> int:
        return 0

    def run(self, op: dict):
        cache_class, db_class, case_runner, serve_runner = self._classes
        cache = cache_class(self.cache_dir)
        db = db_class(self.expdb_path)
        try:
            records = case_runner(
                self.gpu, self.inputs["cycles"], self.inputs["warmup"],
                cache=cache, workers=1, expdb=db).sweep(self.cases)
            outcomes = serve_runner(self.gpu, cache=cache, expdb=db,
                                    workers=1).sweep(self.specs)
        finally:
            db.close()
        return records, outcomes, cache.misses

    def digest(self, op: dict, output) -> str:
        records, outcomes, _misses = output
        return digest([self._record_to_dict(record) for record in records]
                      + [outcome.to_value() for outcome in outcomes])

    def check(self, op: dict, output) -> None:
        misses = output[2]
        _require(misses == 0, f"{misses} store misses: the store is not warm")
        expected = self.job.get("fixture_digest")
        if expected is not None:
            _require(self.digest(op, output) == expected,
                     "warm output differs from what the fixture stored")


class LintEdit:
    """Append a comment line to one module of the frozen tree, then run
    ``analyze_paths`` with the summary cache the previous operation left
    (the first operation starts with an empty cache)."""

    def __init__(self, job: dict):
        self.job = job
        self.inputs = job["inputs"]
        self.root = pathlib.Path(job["dirs"]["tree"])
        self.cache_dir = pathlib.Path(job["dirs"]["lint_cache"])
        self.edits = 0

    def setup(self) -> None:
        from repro.analysis.core import all_rules
        from repro.analysis.driver import analyze_paths
        all_rules()
        self._analyze = analyze_paths
        self.paths = [self.root / path for path in self.inputs["paths"]]

    def new_round(self, index: int) -> None:
        pass

    def cycles(self, op: dict) -> int:
        return 0

    def run(self, op: dict):
        self.edits += 1
        module = self.root / op["module"]
        with module.open("a") as stream:
            stream.write(f"# benchmark edit {self.edits}\n")
        return self._analyze(self.paths, root=self.root,
                             flow_cache_dir=self.cache_dir)

    def digest(self, op: dict, output) -> str:
        return digest([[[f.rule, f.severity, f.path, f.line, f.message]
                        for f in group]
                       for group in (output.findings, output.suppressed)])

    def check(self, op: dict, output) -> None:
        _require(output.flow_stats is not None
                 and output.flow_stats["modules"] == len(output.modules),
                 "flow analysis did not cover every module")


WORKLOADS = {"corun-cold": CorunCold, "serve-cold": ServeCold,
             "rerun-warm": RerunWarm, "lint-edit": LintEdit}
