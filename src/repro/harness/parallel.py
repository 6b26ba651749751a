"""Parallel sweep execution: the pool-width default for co-run sweeps.

The claim loop itself — serial and over a
:class:`concurrent.futures.ProcessPoolExecutor` — lives in
:class:`repro.harness.runner.SweepRunner`, shared by co-run and serving
sweeps.  :class:`ParallelCaseRunner` is a
:class:`~repro.harness.runner.CaseRunner` whose pool width comes from (in
priority order) the constructor, the ``REPRO_WORKERS`` environment
variable, and ``os.cpu_count() - 1``; :func:`resolve_workers` is that
resolution.  Records stay keyed and ordered by case, never by completion
order, and are identical to a serial sweep's.
"""

from __future__ import annotations

from typing import Optional

from repro.config import GPUConfig
from repro.harness.runner import CaseRunner, resolve_workers

__all__ = ["ParallelCaseRunner", "resolve_workers"]


class ParallelCaseRunner(CaseRunner):
    """A :class:`CaseRunner` whose claim loop fans out over processes."""

    def __init__(self, gpu: GPUConfig, cycles: int,
                 warmup_cycles: Optional[int] = None, cache=None,
                 workers: Optional[int] = None, telemetry: bool = False,
                 expdb=None):
        super().__init__(gpu, cycles, warmup_cycles, cache=cache,
                         telemetry=telemetry, expdb=expdb)
        self.workers = resolve_workers(workers)
