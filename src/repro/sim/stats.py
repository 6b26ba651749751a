"""Simulation statistics: per-kernel progress counters and run results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


class KernelStats:
    """Per-kernel progress counters maintained by the issue path."""

    __slots__ = ("retired_thread_insts", "completed_tbs")

    def __init__(self) -> None:
        self.retired_thread_insts = 0
        self.completed_tbs = 0


@dataclass
class KernelResult:
    """Outcome of one kernel in one simulation run."""

    name: str
    retired_thread_insts: int
    cycles: int
    completed_tbs: int
    ipc: float
    memory: Dict[str, int]
    ipc_goal: Optional[float] = None
    is_qos: bool = False

    @property
    def reached_goal(self) -> Optional[bool]:
        """Whether the QoS goal was met (None for non-QoS kernels).

        A small numeric slack absorbs quota-granularity rounding, matching
        the paper's treatment of goals as satisfied when achieved IPC
        reaches the target.
        """
        if not self.is_qos or self.ipc_goal is None:
            return None
        return self.ipc >= self.ipc_goal * 0.999


@dataclass
class SimulationResult:
    """Everything the harness needs from one run."""

    cycles: int
    kernels: List[KernelResult]
    memory_aggregate: Dict[str, int]
    epochs: int
    evictions: int
    eviction_stall_cycles: int
    energy_joules: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def kernel(self, name: str) -> KernelResult:
        for result in self.kernels:
            if result.name == name:
                return result
        raise KeyError(name)

    @property
    def total_ipc(self) -> float:
        return sum(k.ipc for k in self.kernels)
