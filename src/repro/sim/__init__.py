"""A cycle-level simulator of a multitasking GPU.

This package is the substrate the paper builds on (GPGPU-Sim in the
original): streaming multiprocessors with per-cycle warp issue under GTO
scheduling, a two-level cache hierarchy over bandwidth-limited memory
controllers, TB dispatch with full static-resource accounting, and a
preemption engine implementing partial context switch so that per-SM kernel
residency can be changed at run time (Simultaneous Multikernel sharing).

The QoS mechanisms of the paper plug in as a :class:`SharingPolicy`
(defined in :mod:`repro.sim.policy`): the policy owns per-SM quota counters
(read by the Enhanced Warp Scheduler filter inside each SM), receives epoch
callbacks carrying a :class:`PolicyContext` — the typed observation and
actuation façade — and steers TB residency targets that the engine realises
through dispatch and preemption.  An optional
:class:`~repro.sim.telemetry.TelemetryRecorder` turns every epoch into a
typed :class:`~repro.sim.telemetry.EpochRecord`.

:class:`GPUSimulator` and :class:`LaunchedKernel` load on first use, so
importing a policy package (which imports :mod:`repro.sim.policy`) does not
load the engine: the run-time form of the ``policy-engine-independence``
import contract.
"""

from repro.sim.cache import Cache
from repro.sim.memory import MemorySubsystem
from repro.sim.warp import Warp, WarpState
from repro.sim.scheduler import GTOScheduler, LRRScheduler, make_scheduler
from repro.sim.tb import SMResources, ThreadBlock
from repro.sim.stats import KernelStats, SimulationResult
from repro.sim.policy import EpochView, PolicyContext, SharingPolicy
from repro.sim.telemetry import (EpochRecord, KernelEpochRecord, TBMove,
                                 TelemetryRecorder)

__all__ = [
    "Cache",
    "MemorySubsystem",
    "Warp",
    "WarpState",
    "GTOScheduler",
    "LRRScheduler",
    "make_scheduler",
    "SMResources",
    "ThreadBlock",
    "KernelStats",
    "SimulationResult",
    "EpochView",
    "PolicyContext",
    "SharingPolicy",
    "EpochRecord",
    "KernelEpochRecord",
    "TBMove",
    "TelemetryRecorder",
    "GPUSimulator",
    "LaunchedKernel",
]


def __getattr__(name):
    """Import the engine on the first access to one of its two exports."""
    if name not in ("GPUSimulator", "LaunchedKernel"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.sim.engine import GPUSimulator, LaunchedKernel
    globals().update(GPUSimulator=GPUSimulator, LaunchedKernel=LaunchedKernel)
    return globals()[name]
