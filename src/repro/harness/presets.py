"""Experiment presets and workload enumeration.

Section 4.1: 90 ordered pairs (one QoS + one non-QoS kernel) from the 10
Parboil benchmarks, 60 trios, QoS goals swept 50-95 % of isolated IPC in 5 %
steps (pairs and 1-QoS trios) and (25,25)-(70,70) for 2-QoS trios, 2M-cycle
simulations with 10K-cycle epochs.

The *paper* preset reproduces that verbatim; the *fast* preset — the default
for the benchmark suite — shrinks the machine (preserving the 4:1 SM:MC
ratio), the simulated window, and the sweep sizes so the pure-Python
simulator regenerates every figure in minutes.  Selection of the pair/trio
subsets is deterministic and class-balanced (C+C / C+M / M+C / M+M all
represented).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.config import FAST_GPU, PAPER_GPU, PASCAL56_GPU, GPUConfig
from repro.kernels import PARBOIL_NAMES, intensity_class


def all_pairs(names: Sequence[str] = PARBOIL_NAMES) -> List[Tuple[str, str]]:
    """All ordered (QoS, non-QoS) pairs: 10 x 9 = 90 for the full suite."""
    return [(qos, nonqos) for qos in names for nonqos in names if qos != nonqos]


def all_trios(names: Sequence[str] = PARBOIL_NAMES,
              limit: int = 60) -> List[Tuple[str, str, str]]:
    """Benchmark trios.  C(10,3) = 120 unordered combinations exist; the
    paper tested 60 "of all possible combinations" without listing them, so
    we deterministically take every second combination in lexicographic
    order, which keeps the intensity-class mix representative."""
    combos = list(itertools.combinations(sorted(names), 3))
    if limit >= len(combos):
        return combos
    step = len(combos) / limit
    return [combos[int(i * step)] for i in range(limit)]


def _balanced_pair_subset(count: int) -> List[Tuple[str, str]]:
    """A deterministic subset of the 90 pairs, balanced two ways: across the
    four C/M pairing classes and across which benchmark plays the QoS role
    (taking the head of each class bucket would test only the
    alphabetically-first QoS kernels)."""
    pairs = all_pairs()
    buckets = {"C+C": [], "C+M": [], "M+C": [], "M+M": []}
    for qos, nonqos in pairs:
        key = f"{intensity_class(qos)}+{intensity_class(nonqos)}"
        buckets[key].append((qos, nonqos))
    subset: List[Tuple[str, str]] = []
    picked = {key: 0 for key in buckets}
    while len(subset) < count:
        for key in ("C+C", "C+M", "M+C", "M+M"):
            bucket = buckets[key]
            if len(subset) >= count:
                break
            # Stride through the bucket so successive picks use different
            # QoS kernels (each QoS kernel contributes a contiguous run).
            per_class = max(1, count // 4)
            position = (picked[key] * len(bucket)) // per_class % len(bucket)
            candidate = bucket[position]
            if candidate not in subset:
                subset.append(candidate)
            else:
                fallback = next(pair for pair in bucket
                                if pair not in subset)
                subset.append(fallback)
            picked[key] += 1
    return subset


@dataclass(frozen=True)
class ExperimentPreset:
    """Everything an experiment needs to know about scale."""

    name: str
    gpu: GPUConfig
    gpu_many_sm: GPUConfig
    cycles: int
    pairs: Tuple[Tuple[str, str], ...]
    trios: Tuple[Tuple[str, str, str], ...]
    pair_goals: Tuple[float, ...]
    trio2_goals: Tuple[float, ...]

    def describe(self) -> str:
        return (f"preset {self.name}: {self.gpu.num_sms} SMs, "
                f"{self.cycles} cycles, {len(self.pairs)} pairs, "
                f"{len(self.trios)} trios, {len(self.pair_goals)} goals")


_PAPER_GOALS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
_PAPER_TRIO2_GOALS = tuple(round(0.25 + 0.05 * i, 2) for i in range(10))

PAPER_PRESET = ExperimentPreset(
    name="paper",
    gpu=PAPER_GPU,
    gpu_many_sm=PASCAL56_GPU,
    cycles=2_000_000,
    pairs=tuple(all_pairs()),
    trios=tuple(all_trios(limit=60)),
    pair_goals=_PAPER_GOALS,
    trio2_goals=_PAPER_TRIO2_GOALS,
)

# The fast analogue of the Section 4.6 many-SM machine: twice the SMs of
# FAST_GPU with two warp schedulers per SM, like PASCAL56 vs PAPER.
_FAST_MANY_SM = FAST_GPU.scaled(
    num_sms=8, num_mcs=2,
    sm=FAST_GPU.sm.__class__(warp_schedulers=2),
)

FAST_PRESET = ExperimentPreset(
    name="fast",
    gpu=FAST_GPU,
    gpu_many_sm=_FAST_MANY_SM,
    cycles=24_000,
    pairs=tuple(_balanced_pair_subset(12)),
    trios=tuple(all_trios(limit=6)),
    pair_goals=(0.50, 0.65, 0.80, 0.95),
    trio2_goals=(0.25, 0.40, 0.55, 0.70),
)

# A minimal preset for the test suite: two goals, four pairs, two trios.
SMOKE_PRESET = ExperimentPreset(
    name="smoke",
    gpu=FAST_GPU,
    gpu_many_sm=_FAST_MANY_SM,
    cycles=10_000,
    pairs=tuple(_balanced_pair_subset(4)),
    trios=tuple(all_trios(limit=2)),
    pair_goals=(0.50, 0.80),
    trio2_goals=(0.25, 0.50),
)

#: The co-run workloads of the ``ext_controllers`` comparison, each named
#: by its kernels joined with ``+``; the first kernel is the one QoS kernel.
#: They cover the intensity-class mix: a compute-bound QoS kernel over a
#: memory hog, compute against memory both ways, and a trio with one QoS
#: kernel against two mixed background kernels.  Every preset runs all
#: four on its own machine and window.
CONTROLLER_WORKLOADS: Tuple[Tuple[str, ...], ...] = (
    ("sgemm", "lbm"),
    ("mri-q", "spmv"),
    ("tpacf", "stencil"),
    ("sad", "histo", "lbm"),
)


_PRESETS = {p.name: p for p in (PAPER_PRESET, FAST_PRESET, SMOKE_PRESET)}


def experiment_preset(name: str) -> ExperimentPreset:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment preset {name!r}; choose from {sorted(_PRESETS)}"
        ) from None
