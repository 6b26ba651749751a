"""Evaluation metrics (Section 4.1).

``QoSreach`` — the fraction of cases that reach their QoS goals
(``# success / # total``); a multi-QoS case succeeds only if *every* QoS
kernel reaches its goal.

Throughput metrics follow the paper's conventions: non-QoS throughput is
normalised to isolated execution and **averaged only over cases that met
the QoS goals**; QoS kernel throughput is normalised to the goal itself
(Figure 9's overshoot measure).

Float sums use :func:`math.fsum`, which rounds correctly on every Python
(3.12's ``sum()`` compensates float sums, earlier ones do not).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

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
