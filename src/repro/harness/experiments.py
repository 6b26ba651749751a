"""One entry point per table/figure of the paper's evaluation (Section 4).

Every experiment returns an :class:`ExperimentResult` holding both the
formatted paper-style table and the raw data that the shape claims of
:mod:`repro.harness.paper` read and the provenance footer digests.  Each
figure runs its grid as one registered sweep and slices the records it
returns; simulations are shared across figures through a per-suite
:class:`~repro.harness.runner.CaseRunner` memo and the case cache, as the
paper's figures all slice one set of runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.config import GPUConfig, PreemptionConfig
from repro.kernels import intensity_class, pair_class
from repro.harness.metrics import (
    improvement,
    mean_instructions_per_watt,
    mean_nonqos_throughput,
    mean_qos_overshoot,
    miss_histogram,
    qos_reach,
    system_throughput,
    MISS_BUCKETS,
)
from repro.harness.cache import code_salt, open_default_cache
from repro.harness.expdb import open_default_expdb
from repro.harness.parallel import ParallelCaseRunner
from repro.harness.presets import ExperimentPreset, FAST_PRESET
from repro.harness.report import (format_table, output_digest,
                                  provenance_footer, series_rows)
from repro.harness.runner import (CaseRecord, CaseRunner, CaseSpec,
                                  SweepRunner)

PAIR_POLICIES = ("spart", "naive", "elastic", "rollover")


@dataclass
class ExperimentResult:
    """The outcome of regenerating one paper figure/table."""

    experiment_id: str
    title: str
    table: str
    data: Dict = field(default_factory=dict)
    #: ``((experiment id, spec hash), ...)`` of every sweep this figure
    #: registered in the persistent experiment store, in registration
    #: order — set by :meth:`ExperimentSuite.run`, empty when the store is
    #: disabled.  The same pairs appear as the ``[provenance]`` footer of
    #: :attr:`table` (and therefore of every committed ``results/*.txt``).
    provenance: Tuple[Tuple[str, str], ...] = ()

    def __str__(self) -> str:
        return self.table


class ExperimentSuite:
    """Shares simulation runs across the figures of one preset.

    Each figure driver submits its *full* case list as one sweep
    (:meth:`_cases`), so independent cases fan out over the parallel
    runner's process pool, the grid is one experiment in the store, and
    the figure slices the records that sweep returns.  ``workers`` follows
    :func:`repro.harness.parallel.resolve_workers`
    (``REPRO_WORKERS`` env, else cores-1); ``cache`` defaults to the shared
    persistent store unless ``REPRO_CACHE=0`` disables it.
    """

    def __init__(self, preset: ExperimentPreset = FAST_PRESET,
                 workers: Optional[int] = None, cache="default",
                 expdb="default"):
        self.preset = preset
        self.workers = workers
        self.cache = open_default_cache() if cache == "default" else cache
        self.expdb = open_default_expdb() if expdb == "default" else expdb
        #: Every runner whose ``experiment_log`` feeds figure provenance:
        #: co-run runners under ``(gpu, cycles)``, serving runners under
        #: ``("serve", gpu)``.
        self._runners: Dict[tuple, SweepRunner] = {}

    def runner(self, gpu: Optional[GPUConfig] = None,
               cycles: Optional[int] = None) -> CaseRunner:
        key = (gpu or self.preset.gpu, cycles or self.preset.cycles)
        if key not in self._runners:
            self._runners[key] = ParallelCaseRunner(
                *key, cache=self.cache, workers=self.workers,
                expdb=self.expdb)
        return self._runners[key]

    def serve_runner(self, gpu: Optional[GPUConfig] = None):
        """The suite's :class:`repro.serve.runner.ServeRunner` (memoised),
        sharing the suite's cache, experiment store and pool width so load
        sweeps are cached, resumable and provenance-stamped like figure
        sweeps."""
        from repro.serve.runner import ServeRunner
        key = ("serve", gpu or self.preset.gpu)
        if key not in self._runners:
            self._runners[key] = ServeRunner(
                gpu or self.preset.gpu, cache=self.cache, expdb=self.expdb,
                workers=self.workers)
        return self._runners[key]

    # ----------------------------------------------------------- sweeps

    def _cases(self, policies: Sequence[str], goals: Sequence[float],
               qos_count: int = 0, gpu: Optional[GPUConfig] = None,
               units: Optional[Sequence] = None
               ) -> Dict[Tuple[str, float], List[CaseRecord]]:
        """Run one figure's grid as one registered sweep; records keyed by
        ``(policy, goal)``, each list in unit order.

        Units are the preset's pairs (``qos_count`` 0) or its trios with
        ``qos_count`` QoS kernels, unless ``units`` names them.  Specs go
        in policy, goal, unit order, which fixes the experiment id.
        """
        if units is None:
            units = self.preset.trios if qos_count else self.preset.pairs

        def spec(unit, goal: float, policy: str) -> CaseSpec:
            if qos_count:
                return CaseSpec.trio(unit, qos_count, goal, policy)
            return CaseSpec.pair(*unit, goal, policy)

        grid = [(policy, goal) for policy in policies for goal in goals]
        records = self.runner(gpu).sweep(
            [spec(unit, goal, policy) for policy, goal in grid
             for unit in units])
        size = len(units)
        return {key: records[i * size:(i + 1) * size]
                for i, key in enumerate(grid)}

    def _series(self, experiment_id: str, title: str, heading: str,
                metric: Callable[[List[CaseRecord]], Optional[float]],
                policies: Sequence[str], goals: Sequence[float],
                notes: Union[str, Callable[[Dict], str]], qos_count: int = 0,
                gpu: Optional[GPUConfig] = None) -> ExperimentResult:
        """A figure that is ``metric`` over policy x goal, plus each
        policy's average over the goals it measured.  ``notes`` is the
        table's footnote, or a function of the series that returns it."""
        cases = self._cases(policies, goals, qos_count, gpu)
        labels = [self._goal_label(goal, qos_count) for goal in goals]
        series = {}
        for policy in policies:
            row = {label: metric(cases[policy, goal])
                   for label, goal in zip(labels, goals)}
            values = [value for value in row.values() if value is not None]
            row["AVG"] = _mean(values) if values else None
            series[policy] = row
        rows = series_rows(labels + ["AVG"], series, policies)
        if callable(notes):
            notes = notes(series)
        return ExperimentResult(
            experiment_id, title,
            format_table(heading, "goal", policies, rows, notes),
            data={"series": series})

    def _goal_label(self, goal: float, qos_count: int = 0) -> str:
        percent = f"{int(round(goal * 100))}%"
        return percent if qos_count < 2 else f"2x{percent}"

    # ------------------------------------------------------------ figures

    def fig05(self) -> ExperimentResult:
        """Figure 5: miss-distance histogram for Naïve + History adjustment."""
        by_goal = self._cases(("history",), self.preset.pair_goals)
        cases = [case for records in by_goal.values() for case in records]
        histogram = miss_histogram(cases)
        overshoot = mean_qos_overshoot(cases, met_only=True)
        total = len(cases)
        missed = sum(histogram.values())
        rows = [(bucket, histogram[bucket]) for bucket in MISS_BUCKETS]
        notes = (f"{missed}/{total} cases missed their goal; successful cases "
                 f"overshoot by {((overshoot or 1) - 1) * 100:.1f}% on average "
                 f"(paper: >700/900 missed, +1.3% overshoot)")
        return ExperimentResult(
            "fig05", "Figure 5: Naive+History misses vs miss distance",
            format_table("Figure 5", "miss bucket", ("cases",), rows, notes),
            data={"histogram": histogram, "total": total, "missed": missed,
                  "overshoot": overshoot},
        )

    def fig06a(self) -> ExperimentResult:
        """Figure 6a: QoSreach vs goal for two-kernel pairs, four schemes."""
        return self._series(
            "fig06a", "Figure 6a: QoSreach vs QoS goals (pairs)",
            "Figure 6a: QoSreach (pairs)", qos_reach, PAIR_POLICIES,
            self.preset.pair_goals,
            "paper AVG: Spart 0.788, Naive 0.206, Rollover 0.884")

    def _fig06_trio(self, qos_count: int, goals: Sequence[float],
                    figure: str) -> ExperimentResult:
        title = (f"Figure {figure}: QoSreach (trios, {qos_count} QoS kernel"
                 f"{'s' if qos_count > 1 else ''})")
        return self._series(
            f"fig{figure}", title, title, qos_reach, ("spart", "rollover"),
            goals, "paper: Rollover beats Spart by "
                   + ("43.8%" if qos_count == 2 else "18.8%"), qos_count)

    def fig06b(self) -> ExperimentResult:
        return self._fig06_trio(1, self.preset.pair_goals, "06b")

    def fig06c(self) -> ExperimentResult:
        return self._fig06_trio(2, self.preset.trio2_goals, "06c")

    def fig07(self) -> ExperimentResult:
        """Figure 7: QoSreach per QoS benchmark + C/M pairing summary."""
        policies = ("spart", "rollover")
        classes = ("C+C", "C+M", "M+M")
        pools: Dict[str, Dict[str, List[CaseRecord]]] = {
            policy: {} for policy in policies}
        cases = self._cases(policies, self.preset.pair_goals)
        for (policy, _), records in cases.items():
            for case in records:
                qos = case.qos_kernels[0].name
                klass = pair_class(qos, case.nonqos_kernels[0].name)
                for name in (qos, klass):
                    pools[policy].setdefault(name, []).append(case)
        names = sorted(set(pools["rollover"]) - set(classes)) + list(classes)
        series = {policy: {name: qos_reach(pools[policy].get(name, []))
                           for name in names} for policy in policies}
        return ExperimentResult(
            "fig07", "Figure 7: QoSreach vs QoS kernel (pairs)",
            format_table("Figure 7: QoSreach per QoS kernel", "QoS kernel",
                         policies, series_rows(names, series, policies),
                         "paper: both reach all C+C cases; Rollover > Spart "
                         "for C+M and M+M; histo poor for both"),
            data={"series": series},
        )

    def _throughput_figure(self, figure: str, title: str, policies,
                           goals: Sequence[float],
                           qos_count: int = 0) -> ExperimentResult:
        return self._series(
            figure, title, title, mean_nonqos_throughput, policies, goals,
            "normalised to isolated execution; QoS-met cases only", qos_count)

    def fig08a(self) -> ExperimentResult:
        return self._throughput_figure(
            "fig08a", "Figure 8a: non-QoS throughput (pairs)",
            ("spart", "rollover"), self.preset.pair_goals)

    def fig08b(self) -> ExperimentResult:
        return self._throughput_figure(
            "fig08b", "Figure 8b: non-QoS throughput (trios, 1 QoS)",
            ("spart", "rollover"), self.preset.pair_goals, 1)

    def fig08c(self) -> ExperimentResult:
        return self._throughput_figure(
            "fig08c", "Figure 8c: non-QoS throughput (trios, 2 QoS)",
            ("spart", "rollover"), self.preset.trio2_goals, 2)

    def fig09(self) -> ExperimentResult:
        """Figure 9: QoS-kernel throughput normalised to its goal."""
        return self._series(
            "fig09", "Figure 9: QoS throughput normalised to goal (pairs)",
            "Figure 9: QoS overshoot", mean_qos_overshoot,
            ("spart", "rollover"), self.preset.pair_goals,
            "paper AVG: Spart 1.116, Rollover 1.028")

    def fig10(self) -> ExperimentResult:
        """Figure 10: QoSreach, Rollover vs Rollover-Time."""
        return self._series(
            "fig10", "Figure 10: QoSreach, Rollover vs Rollover-Time",
            "Figure 10: QoSreach", qos_reach, ("rollover", "rollover-time"),
            self.preset.pair_goals,
            "paper: within ~3% of each other on average")

    def fig11(self) -> ExperimentResult:
        return self._throughput_figure(
            "fig11", "Figure 11: non-QoS throughput, Rollover vs Rollover-Time",
            ("rollover", "rollover-time"), self.preset.pair_goals)

    def _many_sm_figure(self, figure: str, title: str,
                        metric: Callable) -> ExperimentResult:
        gpu = self.preset.gpu_many_sm
        return self._series(
            figure, title, title, metric, ("spart", "rollover"),
            self.preset.pair_goals,
            f"machine: {gpu.num_sms} SMs, "
            f"{gpu.sm.warp_schedulers} warp schedulers per SM", gpu=gpu)

    def fig12(self) -> ExperimentResult:
        return self._many_sm_figure(
            "fig12", "Figure 12: QoSreach on the many-SM machine", qos_reach)

    def fig13(self) -> ExperimentResult:
        return self._many_sm_figure(
            "fig13", "Figure 13: non-QoS throughput on the many-SM machine",
            mean_nonqos_throughput)

    def fig14(self) -> ExperimentResult:
        """Figure 14: inst/Watt improvement of Rollover over Spart (pairs)."""
        goals = self.preset.pair_goals
        cases = self._cases(("rollover", "spart"), goals)
        series = {"improvement": {}}
        for goal in goals:
            series["improvement"][self._goal_label(goal)] = improvement(
                mean_instructions_per_watt(cases["rollover", goal]),
                mean_instructions_per_watt(cases["spart", goal]))
        values = [v for v in series["improvement"].values() if v is not None]
        series["improvement"]["AVG"] = _mean(values) if values else None
        labels = [self._goal_label(g) for g in goals] + ["AVG"]
        rows = series_rows(labels, series, ("improvement",))
        return ExperimentResult(
            "fig14", "Figure 14: inst/Watt improvement over Spart (pairs)",
            format_table("Figure 14: energy efficiency", "goal",
                         ("improvement",), rows, "paper AVG: +9.3%"),
            data={"series": series},
        )

    # ------------------------------------------------------------- tables

    def table1(self) -> ExperimentResult:
        """Table 1: the simulated machine's parameters."""
        gpu = self.preset.gpu
        rows = [
            ("Core Freq.", f"{gpu.core_freq_mhz:.0f}MHz"),
            ("Mem. Freq.", f"{gpu.mem_freq_mhz / 1000:.0f}GHz"),
            ("# of SMs", gpu.num_sms),
            ("# of MC", gpu.num_mcs),
            ("Sched. Policy", gpu.scheduler_policy.upper()),
            ("Registers", f"{gpu.sm.registers_bytes // 1024}KB"),
            ("Shared Memory", f"{gpu.sm.shared_memory_bytes // 1024}KB"),
            ("Threads", gpu.sm.max_threads),
            ("TB Limit", gpu.sm.max_tbs),
            ("Warp Scheduler", gpu.sm.warp_schedulers),
        ]
        return ExperimentResult(
            "table1", "Table 1: simulation parameters",
            format_table("Table 1: simulation parameters", "parameter",
                         ("value",), rows),
            data={"rows": dict(rows)},
        )

    def table2(self) -> ExperimentResult:
        """Table 2: qualitative comparison with prior work (static)."""
        columns = ("CPU QoS", "KernelFusion", "SMK", "SpatialQoS",
                   "WarpedSlicer", "Baymax", "FineGrainedQoS")
        features = [
            ("Software/Hardware", "S", "S", "H", "H", "H", "S", "H"),
            ("QoS Awareness", "y", "", "", "y", "", "y", "y"),
            ("Work on GPUs", "", "y", "y", "y", "y", "y", "y"),
            ("Preemption", "y", "", "y", "y", "", "", "y"),
            ("Active GPU Sharing", "", "y", "y", "y", "y", "", "y"),
            ("Sharing within SMs", "", "y", "y", "", "y", "", "y"),
            ("Fine Perf. Control", "y", "", "", "", "", "", "y"),
            ("Adaptive TLP", "", "", "y", "", "", "", "y"),
        ]
        return ExperimentResult(
            "table2", "Table 2: comparison with prior work",
            format_table("Table 2: comparison with prior work", "feature",
                         columns, features),
            data={"features": features},
        )

    # ---------------------------------------------------------- ablations

    def _all_case_throughput(self, policy: str, goal: float,
                             gpu: Optional[GPUConfig] = None,
                             units: Optional[Sequence] = None
                             ) -> Optional[float]:
        """Non-QoS throughput over every case, goal met or not, of one
        policy at one goal (Section 4.8's ablations count every case)."""
        cases = self._cases((policy,), (goal,), gpu=gpu, units=units)
        return mean_nonqos_throughput(cases[policy, goal], met_only=False)

    def sec48_preemption(self, goal: float = 0.80) -> ExperimentResult:
        """Section 4.8: preemption overhead on non-QoS throughput (~1.9%)."""
        free_gpu = self.preset.gpu.scaled(
            preemption=PreemptionConfig(enabled=False))
        with_cost = self._all_case_throughput("rollover", goal)
        without_cost = self._all_case_throughput("rollover", goal, free_gpu)
        overhead = improvement(without_cost, with_cost)
        rows = [("with preemption cost", with_cost),
                ("free preemption", without_cost),
                ("overhead", overhead)]
        return ExperimentResult(
            "sec48a", "Section 4.8: preemption overhead",
            format_table("Section 4.8: preemption overhead", "configuration",
                         ("non-QoS tput",), rows, "paper: 1.93% overhead"),
            data={"with_cost": with_cost, "without_cost": without_cost,
                  "overhead": overhead},
        )

    def sec48_history(self) -> ExperimentResult:
        """Section 4.8: effect of history-based quota adjustment."""
        def gain(series: Dict) -> Optional[float]:
            return improvement(series["history"]["AVG"],
                               series["naive"]["AVG"])

        result = self._series(
            "sec48b", "Section 4.8: history-based adjustment ablation",
            "Section 4.8: history adjustment", qos_reach,
            ("naive", "history"), self.preset.pair_goals,
            lambda series: f"enabling covers {(gain(series) or 0) * 100:.1f}% "
                           "more cases (paper: +86.4%)")
        result.data["gain"] = gain(result.data["series"])
        return result

    def sec48_static(self, goal: float = 0.65) -> ExperimentResult:
        """Section 4.8: static resource management on M+M pairs (+13.3%)."""
        mm_pairs = [(qos, nonqos) for qos, nonqos in self.preset.pairs
                    if intensity_class(qos) == "M" and intensity_class(nonqos) == "M"]
        # One sweep per policy: each keeps its own experiment id.
        tput_with = self._all_case_throughput("rollover", goal,
                                              units=mm_pairs)
        tput_without = self._all_case_throughput("rollover-nostatic", goal,
                                                 units=mm_pairs)
        gain = improvement(tput_with, tput_without)
        rows = [("static mgmt on", tput_with), ("static mgmt off", tput_without),
                ("improvement", gain)]
        return ExperimentResult(
            "sec48c", "Section 4.8: static resource management (M+M)",
            format_table("Section 4.8: static resource management", "setting",
                         ("non-QoS tput",), rows, "paper: +13.3% on M+M"),
            data={"with": tput_with, "without": tput_without, "gain": gain},
        )

    # ------------------------------------------------------------ extensions
    # Not figures of the paper: ablations over design choices the paper
    # fixes by citation or fiat (epoch length via [17], GTO scheduling,
    # and the need for QoS management at all).

    def ext_epoch_length(self, goal: float = 0.65) -> ExperimentResult:
        """Sensitivity of Rollover's QoSreach to the epoch length.

        Section 4.1 fixes 10K cycles citing [17]; this sweep checks the
        choice is flat around the preset's value.
        """
        base = self.preset.gpu.epoch_length
        series = {"rollover": {}}
        for scale in (0.5, 1.0, 2.0):
            length = max(100, int(base * scale))
            gpu = self.preset.gpu.scaled(epoch_length=length)
            cases = self._cases(("rollover",), (goal,), gpu=gpu)
            series["rollover"][f"{length} cycles"] = qos_reach(
                cases["rollover", goal])
        labels = list(series["rollover"])
        rows = series_rows(labels, series, ("rollover",))
        return ExperimentResult(
            "ext_epoch_length", "Extension: epoch-length sensitivity",
            format_table("Extension: epoch-length sensitivity "
                         f"(goal {goal:.0%})", "epoch", ("rollover",), rows,
                         "paper fixes 10K cycles citing [17]; QoSreach "
                         "should be flat around the preset value"),
            data={"series": series},
        )

    def ext_scheduler(self, goal: float = 0.65) -> ExperimentResult:
        """GTO vs loose-round-robin under the same QoS machinery.

        The EWS quota filter is policy-agnostic (Section 3.3): it must
        deliver QoS over LRR too, though absolute IPCs differ.
        """
        series = {}
        for policy_name in ("gto", "lrr"):
            gpu = self.preset.gpu.scaled(scheduler_policy=policy_name)
            cases = self._cases(("rollover",), (goal,), gpu=gpu)
            series[policy_name] = {
                "QoSreach": qos_reach(cases["rollover", goal])}
        rows = series_rows(["QoSreach"], series, ("gto", "lrr"))
        return ExperimentResult(
            "ext_scheduler", "Extension: warp scheduler ablation",
            format_table("Extension: GTO vs LRR under Rollover "
                         f"(goal {goal:.0%})", "metric", ("gto", "lrr"),
                         rows, "the quota filter must work over either "
                               "issue policy"),
            data={"series": series},
        )

    def ext_unmanaged(self) -> ExperimentResult:
        """Unmanaged SMK sharing vs Rollover: why QoS management exists.

        Without quotas, the warp scheduler biases arbitrarily between
        co-runners (Section 3.1), so per-kernel goals are hit only by luck.
        """
        return self._series(
            "ext_unmanaged", "Extension: unmanaged SMK vs Rollover",
            "Extension: unmanaged SMK sharing", qos_reach,
            ("smk", "rollover"), self.preset.pair_goals,
            "fine-grained sharing alone cannot honour goals")

    def ext_sharing_regimes(self) -> ExperimentResult:
        """The Section 2.3 design space on one axis: system throughput and
        fairness of serial time-multiplexing, unmanaged SMK, fairness-managed
        SMK [42], and spatial partitioning, over the preset's pairs with no
        QoS goals in play.

        Expected shape (the paper's motivation): any concurrent regime beats
        serial on STP; fairness-managed SMK has the best fairness index.
        """
        from repro.baselines import SpartPolicy
        from repro.sharing import FairSMKPolicy, SerialPolicy
        from repro.sim import GPUSimulator, LaunchedKernel, SharingPolicy
        from repro.kernels import get_kernel

        runner = self.runner()
        regimes = ("serial", "smk", "fair-smk", "spart")
        series = {regime: {"STP": [], "fairness": []} for regime in regimes}
        for first, second in self.preset.pairs:
            iso = {name: runner.isolated_ipc(name) for name in (first, second)}
            for regime in regimes:
                if regime == "serial":
                    policy = SerialPolicy(slice_epochs=2)
                elif regime == "fair-smk":
                    policy = FairSMKPolicy(iso)
                elif regime == "spart":
                    policy = SpartPolicy()
                else:
                    policy = SharingPolicy()
                launches = [LaunchedKernel(get_kernel(first)),
                            LaunchedKernel(get_kernel(second))]
                if regime == "spart":
                    # Spart needs a QoS anchor; give it a trivial goal so the
                    # hill climber stays put and we measure pure partitioning.
                    launches[0] = LaunchedKernel(get_kernel(first),
                                                 is_qos=True, ipc_goal=1e-6)
                sim = GPUSimulator(self.preset.gpu, launches, policy)
                sim.run(runner.warmup_cycles)
                sim.mark_measurement_start()
                sim.run(self.preset.cycles)
                result = sim.result()
                shares = [result.kernels[i].ipc / iso[name]
                          for i, name in enumerate((first, second))]
                series[regime]["STP"].append(math.fsum(shares))
                top = max(shares)
                series[regime]["fairness"].append(
                    min(shares) / top if top > 0 else 1.0)
        summary = {regime: {metric: _mean(values)
                            for metric, values in metrics.items()}
                   for regime, metrics in series.items()}
        rows = [(metric,) + tuple(summary[regime][metric]
                                  for regime in regimes)
                for metric in ("STP", "fairness")]
        return ExperimentResult(
            "ext_sharing_regimes", "Extension: sharing-regime design space",
            format_table("Extension: sharing regimes (no QoS goals)",
                         "metric", regimes, rows,
                         "STP: higher is better; fairness: min/max "
                         "normalised progress (1.0 = equal slowdown)"),
            data={"summary": summary},
        )

    def ext_fusion(self, goal: float = 0.65) -> ExperimentResult:
        """Kernel fusion vs hardware SMK + QoS (Section 2.3, sharing type 2).

        Fusion makes two kernels co-resident by compiling them into one, so
        the hardware sees a single progress counter: total throughput is
        comparable, but there is no mechanism to give either constituent a
        goal.  For each preset pair we compare the fused kernel's total
        normalised throughput against the SMK co-run, and report the QoS
        capability column the software approach simply lacks.
        """
        from repro.kernels import fuse_kernels, get_kernel
        from repro.sim import GPUSimulator, LaunchedKernel

        runner = self.runner()
        fused_stp: List[float] = []
        smk_stp: List[float] = []
        qos_reached = []
        for first, second in self.preset.pairs:
            iso = {name: runner.isolated_ipc(name)
                   for name in (first, second)}
            fused = fuse_kernels(get_kernel(first), get_kernel(second))
            sim = GPUSimulator(self.preset.gpu, [LaunchedKernel(fused)])
            sim.run(runner.warmup_cycles)
            sim.mark_measurement_start()
            sim.run(self.preset.cycles)
            fused_ipc = sim.result().kernels[0].ipc
            # The software baseline's best case: assume retirement splits by
            # the static thread ratio (nothing enforces it).
            fused_stp.append(0.5 * fused_ipc / iso[first]
                             + 0.5 * fused_ipc / iso[second])
            case = runner.run_pair(first, second, goal, "rollover")
            smk_stp.append(system_throughput(case))
            qos_reached.append(case.qos_met)
        rows = [
            ("fused kernel", _mean(fused_stp), "no"),
            ("SMK + Rollover", _mean(smk_stp),
             f"{sum(qos_reached)}/{len(qos_reached)} goals"),
        ]
        return ExperimentResult(
            "ext_fusion", "Extension: kernel fusion vs hardware QoS sharing",
            format_table(f"Extension: fusion baseline (goal {goal:.0%})",
                         "approach", ("STP", "per-kernel QoS"), rows,
                         "fusion co-locates kernels but cannot steer either "
                         "one (Section 2.3)"),
            data={"fused_stp": _mean(fused_stp), "smk_stp": _mean(smk_stp),
                  "qos_reach": sum(qos_reached) / max(1, len(qos_reached))},
        )

    def ext_serving(self) -> ExperimentResult:
        """Extension: open-loop online serving — load vs tail latency.

        Sweeps a Poisson request stream (a latency-sensitive compute class
        and a throughput batch class) over three load points on one
        machine, reporting per-class p50/p99 end-to-end latency and SLO
        attainment plus the latency CDF at the heaviest load.  The sweep
        runs through the serving harness, so cases are memoised, cached
        (kind ``serve``), fanned out and resumable like any figure sweep.
        """
        from repro.serve.metrics import class_summary, latency_cdf
        from repro.serve.runner import ServeSpec

        unit = self.preset.cycles
        horizon = 4 * unit
        classes = (("latency", "mri-q", unit, 4, 1.0),
                   ("batch", "lbm", 4 * unit, 4, 1.0))
        loads = (unit // 4, unit // 8, unit // 16)
        specs = [ServeSpec(process="poisson",
                           params=(("mean_interarrival_cycles", float(load)),),
                           classes=classes, seed=0, horizon_cycles=horizon)
                 for load in loads]
        outcomes = self.serve_runner().sweep(specs)
        summaries = {}
        rows = []
        for load, outcome in zip(loads, outcomes):
            summary = class_summary(outcome.records)
            label = f"1/{load}cyc"
            summaries[label] = summary
            lat = summary.get("latency", {})
            bat = summary.get("batch", {})
            rows.append((label,
                         lat.get("p50_latency"), lat.get("p99_latency"),
                         100.0 * lat.get("slo_attainment", 0.0),
                         bat.get("p99_latency"),
                         100.0 * bat.get("slo_attainment", 0.0)))
        load_table = format_table(
            "Extension: online serving (poisson load sweep)", "arrival rate",
            ("lat p50", "lat p99", "lat SLO%", "bat p99", "bat SLO%"), rows,
            "open-loop poisson arrivals; SLO attainment counts rejected and "
            "horizon-unfinished requests as misses")
        cdf = latency_cdf(outcomes[-1].records)
        cdf_points = ("p10", "p25", "p50", "p75", "p90", "p95", "p99", "p100")
        cdf_rows = [(name,) + tuple(points.get(p) for p in cdf_points)
                    for name, points in cdf]
        cdf_table = format_table(
            f"Latency CDF at the heaviest load (1/{loads[-1]}cyc)", "class",
            cdf_points, cdf_rows,
            "end-to-end latency in cycles at the sampled CDF fractions")
        return ExperimentResult(
            "ext_serving", "Extension: online serving under open-loop load",
            load_table + "\n\n" + cdf_table,
            data={"summaries": summaries,
                  "cdf": {name: points for name, points in cdf},
                  "loads": list(loads), "horizon": horizon},
        )

    # --------------------------------------------------------------- driver

    EXPERIMENTS = ("table1", "table2", "fig05", "fig06a", "fig06b", "fig06c",
                   "fig07", "fig08a", "fig08b", "fig08c", "fig09", "fig10",
                   "fig11", "fig12", "fig13", "fig14", "sec48_preemption",
                   "sec48_history", "sec48_static", "ext_epoch_length",
                   "ext_scheduler", "ext_unmanaged", "ext_sharing_regimes",
                   "ext_fusion", "ext_serving")

    def run(self, experiment_id: str) -> ExperimentResult:
        """Run one figure driver and stamp its provenance.

        Whatever sweeps the driver registers in the persistent experiment
        store while running land (deduplicated, in registration order) in
        :attr:`ExperimentResult.provenance`, and the table gains a
        ``[provenance]`` footer naming the code salt, the output digest of
        :attr:`ExperimentResult.data`, and the experiment ids and spec
        hashes — the line committed ``results/*.txt`` files carry.
        """
        if experiment_id not in self.EXPERIMENTS:
            raise ValueError(f"unknown experiment {experiment_id!r}; "
                             f"choose from {self.EXPERIMENTS}")
        marks = {key: len(runner.experiment_log)
                 for key, runner in self._runners.items()}
        result = getattr(self, experiment_id)()
        entries: List[Tuple[str, str]] = []
        for key, runner in self._runners.items():
            for entry in runner.experiment_log[marks.get(key, 0):]:
                if entry not in entries:
                    entries.append(entry)
        result.provenance = tuple(entries)
        result.table = (result.table.rstrip("\n") + "\n\n"
                        + provenance_footer(code_salt(), result.provenance,
                                            output_digest(result.data)))
        return result


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0
