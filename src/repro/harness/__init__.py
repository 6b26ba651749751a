"""Experiment harness: regenerates every table and figure of the paper.

Layout:

* :mod:`repro.harness.presets` — the fast (default) and paper-scale
  experiment presets, plus pair/trio workload enumeration.
* :mod:`repro.harness.runner` — memoised isolated and co-run execution,
  and the one claim loop that co-run and serving sweeps share, serial or
  over a process pool.
* :mod:`repro.harness.parallel` — :class:`ParallelCaseRunner`, a case
  runner whose pool width defaults to ``REPRO_WORKERS`` or one less than
  the CPU count (at least 1).
* :mod:`repro.harness.cache` — persistent on-disk case store shared by all
  figures and invocations.
* :mod:`repro.harness.expdb` — the experiment store sweeps register in
  and claim cases from (``repro exp``).
* :mod:`repro.harness.metrics` — QoSreach, normalized throughput, overshoot,
  miss histograms.
* :mod:`repro.harness.experiments` — one entry point per paper figure/table.
* :mod:`repro.harness.report` — ASCII rendering of result series.

Each module, and each name below, loads on first use: importing the
package, or one of its modules, loads only what that module imports.
"""

from repro import _lazy_exports

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

_EXPORTS = {
    name: module
    for module, names in (
        ("repro.harness.presets", ("ExperimentPreset", "FAST_PRESET",
                                   "PAPER_PRESET", "experiment_preset",
                                   "all_pairs", "all_trios")),
        ("repro.harness.runner", ("CaseRecord", "CaseRunner", "CaseSpec",
                                  "KernelOutcome")),
        ("repro.harness.parallel", ("ParallelCaseRunner", "resolve_workers")),
        ("repro.harness.cache", ("CaseCache", "open_default_cache")),
        ("repro.harness.metrics", ("qos_reach", "mean_nonqos_throughput",
                                   "mean_qos_overshoot", "miss_histogram",
                                   "MISS_BUCKETS")),
        ("repro.harness.report", ("format_table",)),
    )
    for name in names
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
