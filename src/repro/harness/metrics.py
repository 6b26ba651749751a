"""Evaluation metrics (Section 4.1).

``QoSreach`` — the fraction of cases that reach their QoS goals
(``# success / # total``); a multi-QoS case succeeds only if *every* QoS
kernel reaches its goal.

Throughput metrics follow the paper's conventions: non-QoS throughput is
normalised to isolated execution and **averaged only over cases that met
the QoS goals**; QoS kernel throughput is normalised to the goal itself
(Figure 9's overshoot measure).

The controller scores (:func:`score_case`) read a case's per-epoch
telemetry instead of its end-of-run outcome; :data:`SCORE_METRICS` lists
them.

Float sums use :func:`math.fsum`, which rounds correctly on every Python
(3.12's ``sum()`` compensates float sums, earlier ones do not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.harness.runner import CaseRecord

#: Figure 5's miss-distance buckets, in percent below goal.
MISS_BUCKETS = ("0-1%", "1-5%", "5-10%", "10-20%", "20+%")
_BUCKET_EDGES = (1.0, 5.0, 10.0, 20.0)


def qos_reach(cases: Iterable[CaseRecord]) -> float:
    """Fraction of cases whose QoS goals were all met."""
    cases = list(cases)
    if not cases:
        return 0.0
    return sum(1 for case in cases if case.qos_met) / len(cases)


def mean_nonqos_throughput(cases: Iterable[CaseRecord],
                           met_only: bool = True) -> Optional[float]:
    """Average normalised non-QoS throughput (Figure 8).

    Returns None when no case qualifies (e.g. nothing met its goal), which
    the reports render as an empty bar — same as the paper's missing bars
    for Spart at the hardest 2-QoS-trio goals.
    """
    values: List[float] = []
    for case in cases:
        if met_only and not case.qos_met:
            continue
        values.extend(k.normalized_throughput for k in case.nonqos_kernels)
    if not values:
        return None
    return math.fsum(values) / len(values)


def mean_qos_overshoot(cases: Iterable[CaseRecord],
                       met_only: bool = True) -> Optional[float]:
    """Average QoS-kernel IPC normalised to its goal (Figure 9)."""
    values: List[float] = []
    for case in cases:
        if met_only and not case.qos_met:
            continue
        values.extend(k.goal_ratio for k in case.qos_kernels)
    if not values:
        return None
    return math.fsum(values) / len(values)


def miss_histogram(cases: Iterable[CaseRecord]) -> dict:
    """Figure 5: count missed QoS kernels by how far they missed."""
    counts = {bucket: 0 for bucket in MISS_BUCKETS}
    for case in cases:
        for kernel in case.qos_kernels:
            if kernel.reached:
                continue
            counts[_bucket_for(kernel.miss_percent)] += 1
    return counts


def _bucket_for(miss_percent: float) -> str:
    for edge, bucket in zip(_BUCKET_EDGES, MISS_BUCKETS):
        if miss_percent <= edge:
            return bucket
    return MISS_BUCKETS[-1]


def system_throughput(case: CaseRecord) -> float:
    """STP (weighted speedup): sum of per-kernel normalised throughputs.

    The standard multiprogramming throughput metric; an STP of K means the
    shared machine does the work of K isolated machines.
    """
    return math.fsum(k.normalized_throughput for k in case.kernels)


def average_normalized_turnaround(case: CaseRecord) -> float:
    """ANTT: mean per-kernel slowdown (1 / normalised throughput).

    Lower is better; 1.0 means no kernel was slowed at all.
    """
    slowdowns = []
    for kernel in case.kernels:
        throughput = kernel.normalized_throughput
        slowdowns.append(1.0 / throughput if throughput > 0 else float("inf"))
    return math.fsum(slowdowns) / len(slowdowns)


def fairness_index(case: CaseRecord) -> float:
    """Min/max normalised throughput across kernels ([42]'s fairness)."""
    values = [k.normalized_throughput for k in case.kernels]
    top = max(values)
    return min(values) / top if top > 0 else 1.0


def mean_instructions_per_watt(cases: Sequence[CaseRecord]) -> Optional[float]:
    """Average inst/Watt over cases (Figure 14 input)."""
    cases = list(cases)
    if not cases:
        return None
    return math.fsum(case.instructions_per_watt for case in cases) / len(cases)


def improvement(new: Optional[float], old: Optional[float]) -> Optional[float]:
    """Relative improvement of ``new`` over ``old`` (None-propagating)."""
    if new is None or old is None or old == 0:
        return None
    return new / old - 1.0


# ------------------------------------------------------- controller scores

#: Goal tolerance shared with :attr:`KernelOutcome.reached`.
GOAL_TOLERANCE = 0.999

#: Relative band below goal a kernel may not re-enter once "settled".
SETTLE_BAND = 0.05

#: What :meth:`CaseScore.metrics` reports, QoS kernels averaged:
#:
#: ``qos_attainment``
#:     fraction of controlled epochs in which the QoS kernel met its goal
#:     (within :data:`GOAL_TOLERANCE`); unlike Figure 6's end-of-run
#:     verdict it also penalises a controller that oscillates around it.
#: ``overshoot``
#:     mean positive relative excess ``max(0, ipc/goal - 1)`` over
#:     controlled epochs: quota spent above the goal is throughput taken
#:     from non-QoS kernels (Figure 9's concern, per epoch).
#: ``settling_epochs``
#:     :func:`settling_epochs` of the trajectory: how long the control
#:     loop takes to converge.
#: ``nonqos_stp``
#:     the non-QoS kernels' summed normalised throughput over the
#:     measurement window (Figure 8's metric).
#: ``qos_met_rate``
#:     1.0 when every QoS goal was met at the end of the run, else 0.0.
SCORE_METRICS = ("qos_attainment", "overshoot", "settling_epochs",
                 "nonqos_stp", "qos_met_rate")


@dataclass(frozen=True)
class CaseScore:
    """Controller metrics of one co-run case (QoS kernels averaged)."""

    workload: str
    policy: str
    epochs: int
    qos_attainment: float
    overshoot: float
    settling_epochs: float
    nonqos_stp: float
    qos_met: bool

    def metrics(self) -> Dict[str, float]:
        """The :data:`SCORE_METRICS` of this case."""
        return {"qos_attainment": self.qos_attainment,
                "overshoot": self.overshoot,
                "settling_epochs": self.settling_epochs,
                "nonqos_stp": self.nonqos_stp,
                "qos_met_rate": 1.0 if self.qos_met else 0.0}


def _kernel_trajectory(record: CaseRecord,
                       name: str) -> List[Tuple[float, float]]:
    """``(epoch_ipc, ipc_goal)`` for every controlled epoch of a kernel."""
    trajectory = []
    for epoch in record.telemetry:
        for kernel in epoch.kernels:
            if kernel.name == name and kernel.ipc_goal is not None:
                trajectory.append((kernel.epoch_ipc, kernel.ipc_goal))
    return trajectory


def settling_epochs(trajectory: Sequence[Tuple[float, float]],
                    band: float = SETTLE_BAND) -> float:
    """First epoch index after which IPC stays within ``band`` of goal;
    a kernel that never settles scores the full epoch count."""
    settled_at = len(trajectory)
    for index in range(len(trajectory) - 1, -1, -1):
        ipc, goal = trajectory[index]
        if ipc < (1.0 - band) * goal:
            break
        settled_at = index
    return float(settled_at)


def score_case(record: CaseRecord, workload: str) -> CaseScore:
    """Score one telemetry-bearing case record (see :data:`SCORE_METRICS`).

    A pure function of the record: scoring never re-simulates.
    """
    if not record.telemetry:
        raise ValueError(
            "case record carries no telemetry; run it with telemetry=True")
    attainment: List[float] = []
    overshoot: List[float] = []
    settling: List[float] = []
    for outcome in record.qos_kernels:
        trajectory = _kernel_trajectory(record, outcome.name)
        if not trajectory:
            continue
        met = sum(1 for ipc, goal in trajectory
                  if ipc >= goal * GOAL_TOLERANCE)
        attainment.append(met / len(trajectory))
        overshoot.append(math.fsum(max(0.0, ipc / goal - 1.0)
                                   for ipc, goal in trajectory)
                         / len(trajectory))
        settling.append(settling_epochs(trajectory))

    def mean(values: List[float]) -> float:
        return math.fsum(values) / len(values) if values else 0.0

    return CaseScore(
        workload=workload,
        policy=record.policy,
        epochs=len(record.telemetry),
        qos_attainment=mean(attainment),
        overshoot=mean(overshoot),
        settling_epochs=mean(settling),
        nonqos_stp=math.fsum(k.normalized_throughput
                             for k in record.nonqos_kernels),
        qos_met=record.qos_met,
    )


def aggregate_scores(scores: Sequence[CaseScore]) -> Dict[str, float]:
    """Mean of each of the :data:`SCORE_METRICS` over ``scores``."""
    if not scores:
        raise ValueError("no scores to aggregate")
    rows = [score.metrics() for score in scores]
    return {metric: math.fsum(row[metric] for row in rows) / len(rows)
            for metric in SCORE_METRICS}
