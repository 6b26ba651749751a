"""Thread blocks and per-SM static resource accounting.

An SM admits an integer number of TBs until one of four resources runs out:
registers, shared memory, threads, or TB slots (Section 2.2).
:class:`SMResources` enforces that rule; :class:`ThreadBlock` tracks barrier
arrival and completion of its warps.  TBs are also the unit of the partial
context switch (Section 2.3): eviction freezes a TB's warps, charges the
context-save cost, then releases its resources.
"""

from __future__ import annotations

from typing import List

from repro.config import SMConfig
from repro.kernels.spec import KernelSpec
from repro.sim.warp import Warp, WarpState


class SMResources:
    """The four admission limits of one SM, with live usage."""

    __slots__ = ("config", "registers_bytes", "shared_memory_bytes", "threads", "tbs")

    def __init__(self, config: SMConfig):
        self.config = config
        self.registers_bytes = 0
        self.shared_memory_bytes = 0
        self.threads = 0
        self.tbs = 0

    def can_admit(self, spec: KernelSpec) -> bool:
        cfg = self.config
        return (
            self.registers_bytes + spec.regs_per_tb_bytes <= cfg.registers_bytes
            and self.shared_memory_bytes + spec.smem_per_tb_bytes <= cfg.shared_memory_bytes
            and self.threads + spec.threads_per_tb <= cfg.max_threads
            and self.tbs + 1 <= cfg.max_tbs
        )

    def admit(self, spec: KernelSpec) -> None:
        if not self.can_admit(spec):
            raise RuntimeError(f"SM cannot admit a TB of {spec.name}")
        self.registers_bytes += spec.regs_per_tb_bytes
        self.shared_memory_bytes += spec.smem_per_tb_bytes
        self.threads += spec.threads_per_tb
        self.tbs += 1

    def release(self, spec: KernelSpec) -> None:
        self.registers_bytes -= spec.regs_per_tb_bytes
        self.shared_memory_bytes -= spec.smem_per_tb_bytes
        self.threads -= spec.threads_per_tb
        self.tbs -= 1
        if min(self.registers_bytes, self.shared_memory_bytes,
               self.threads, self.tbs) < 0:
            raise RuntimeError("resource accounting underflow")

    def utilisation(self) -> dict:
        cfg = self.config
        return {
            "registers": self.registers_bytes / cfg.registers_bytes,
            "shared_memory": (self.shared_memory_bytes / cfg.shared_memory_bytes
                              if cfg.shared_memory_bytes else 0.0),
            "threads": self.threads / cfg.max_threads,
            "tbs": self.tbs / cfg.max_tbs,
        }


class ThreadBlock:
    """One resident TB: its warps, barrier bookkeeping, lifecycle flags.

    The TB owns its warps; each warp points back through a weak reference
    (``warp.tb``), so a TB and its warps form no reference cycle and die
    together once the SM (or an in-flight eviction) lets go of the TB.
    """

    __slots__ = ("tb_id", "kernel_idx", "spec", "warps", "barrier_arrived",
                 "done_warps", "evicting", "dispatch_cycle",
                 # The target of the warps' ``warp.tb`` references.
                 "__weakref__")

    def __init__(self, tb_id: int, kernel_idx: int, spec: KernelSpec,
                 dispatch_cycle: int):
        self.tb_id = tb_id
        self.kernel_idx = kernel_idx
        self.spec = spec
        self.warps: List[Warp] = []
        self.barrier_arrived = 0
        self.done_warps = 0
        self.evicting = False
        self.dispatch_cycle = dispatch_cycle

    @property
    def live_warps(self) -> int:
        return len(self.warps) - self.done_warps

    @property
    def finished(self) -> bool:
        return self.done_warps == len(self.warps)

    def arrive_barrier(self, warp: Warp, cycle: int) -> bool:
        """Park a warp at the TB barrier; returns True if this released it.

        All warps of a kernel run the same program length, so DONE warps can
        never be stragglers: the barrier waits for every *live* warp.
        """
        warp.state = WarpState.AT_BARRIER
        self.barrier_arrived += 1
        if self.barrier_arrived < self.live_warps:
            return False
        self.barrier_arrived = 0
        for peer in self.warps:
            if peer.state == WarpState.AT_BARRIER:
                peer.state = WarpState.RUNNING
                peer.ready_at = cycle + 1
        return True

    def freeze(self) -> None:
        """Begin eviction: no warp of this TB issues again."""
        self.evicting = True
        for warp in self.warps:
            if warp.state != WarpState.DONE:
                warp.state = WarpState.FROZEN

    def __repr__(self) -> str:
        return (f"ThreadBlock(id={self.tb_id}, kernel={self.kernel_idx}, "
                f"warps={len(self.warps)}, done={self.done_warps})")
