"""Experiment harness: regenerates every table and figure of the paper.

Layout:

* :mod:`repro.harness.presets` — the fast (default) and paper-scale
  experiment presets, plus pair/trio workload enumeration.
* :mod:`repro.harness.runner` — memoised isolated and co-run execution,
  and the one claim loop that co-run and serving sweeps share, serial or
  over a process pool.
* :mod:`repro.harness.parallel` — :class:`ParallelCaseRunner`, a case
  runner whose pool width defaults to ``REPRO_WORKERS`` or the CPU count.
* :mod:`repro.harness.cache` — persistent on-disk case store shared by all
  figures and invocations.
* :mod:`repro.harness.expdb` — the experiment store sweeps register in
  and claim cases from (``repro exp``).
* :mod:`repro.harness.metrics` — QoSreach, normalized throughput, overshoot,
  miss histograms.
* :mod:`repro.harness.experiments` — one entry point per paper figure/table.
* :mod:`repro.harness.report` — ASCII rendering of result series.
"""

from repro.harness.presets import (
    ExperimentPreset,
    FAST_PRESET,
    PAPER_PRESET,
    experiment_preset,
    all_pairs,
    all_trios,
)
from repro.harness.runner import (CaseRecord, CaseRunner, CaseSpec,
                                  KernelOutcome)
from repro.harness.parallel import ParallelCaseRunner, resolve_workers
from repro.harness.cache import CaseCache, open_default_cache
from repro.harness.metrics import (
    qos_reach,
    mean_nonqos_throughput,
    mean_qos_overshoot,
    miss_histogram,
    MISS_BUCKETS,
)
from repro.harness.report import format_table
from repro.harness import experiments

__all__ = [
    "ExperimentPreset",
    "FAST_PRESET",
    "PAPER_PRESET",
    "experiment_preset",
    "all_pairs",
    "all_trios",
    "CaseRecord",
    "CaseRunner",
    "CaseSpec",
    "KernelOutcome",
    "ParallelCaseRunner",
    "resolve_workers",
    "CaseCache",
    "open_default_cache",
    "qos_reach",
    "mean_nonqos_throughput",
    "mean_qos_overshoot",
    "miss_histogram",
    "MISS_BUCKETS",
    "format_table",
    "experiments",
]
