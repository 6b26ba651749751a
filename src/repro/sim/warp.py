"""Warp state machine.

A warp is the schedulable unit: it owns a linear instruction counter into its
kernel's :class:`~repro.kernels.WarpProgram`, a readiness cycle, and the
per-warp address-generation state (a 32-bit LCG plus a streaming cursor).
Everything is ``__slots__`` plain data — warps are touched every cycle and
this is the hottest object in the simulator.
"""

from __future__ import annotations


class WarpState:
    """Warp lifecycle states (plain ints for speed)."""

    RUNNING = 0      # schedulable once ready_at <= cycle
    AT_BARRIER = 1   # parked until all warps of the TB arrive
    FROZEN = 2       # TB is being context-switched out
    DONE = 3         # program finished

    NAMES = {0: "RUNNING", 1: "AT_BARRIER", 2: "FROZEN", 3: "DONE"}


_LCG_MUL = 1664525
_LCG_ADD = 1013904223
_LCG_MASK = 0xFFFFFFFF


class Warp:
    """One warp of a resident thread block."""

    __slots__ = (
        "kernel_idx", "tb", "warp_id_in_tb", "pc", "ready_at", "state",
        "lcg", "cursor", "last_line",
        # Scheduler bookkeeping: ``sched`` is a back-reference to the owning
        # scheduler (set at add_warp, cleared at remove_warp) so TB removal
        # never probes every scheduler.
        "sched",
    )

    def __init__(self, kernel_idx: int, tb, warp_id_in_tb: int, seed: int,
                 start_cursor: int):
        self.kernel_idx = kernel_idx
        self.tb = tb
        self.warp_id_in_tb = warp_id_in_tb
        self.pc = 0
        self.ready_at = 0
        self.state = WarpState.RUNNING
        self.lcg = seed & _LCG_MASK or 1
        self.cursor = start_cursor
        self.last_line = start_cursor
        self.sched = None

    def next_random(self) -> int:
        """Advance the per-warp LCG; returns a 32-bit pseudo-random int."""
        value = (self.lcg * _LCG_MUL + _LCG_ADD) & _LCG_MASK
        self.lcg = value
        return value

    def global_lines(self, runtime) -> tuple:
        """Generate the line requests for one global memory instruction.

        ``runtime`` is the kernel's :class:`KernelRuntime` carrying the
        precomputed thresholds.  Three behaviours, drawn from the warp LCG:
        reuse of the last touched line (hits in L1), a coalesced streaming
        advance (single line), or an uncoalesced fan-out of several
        pseudo-random lines within the kernel footprint.
        """
        r = self.next_random()
        if r < runtime.reuse_threshold:
            return (self.last_line,)
        if r < runtime.coalesce_threshold:
            cursor = self.cursor + 1
            if cursor >= runtime.footprint_lines:
                cursor = 0
            self.cursor = cursor
            line = runtime.base_line + cursor
            self.last_line = line
            return (line,)
        footprint = runtime.footprint_lines
        base = runtime.base_line
        lines = []
        for _ in range(runtime.uncoalesced_degree):
            lines.append(base + self.next_random() % footprint)
        self.last_line = lines[-1]
        return tuple(lines)

    def __repr__(self) -> str:
        return (f"Warp(k={self.kernel_idx}, tb={self.tb.tb_id}, "
                f"w={self.warp_id_in_tb}, pc={self.pc}, "
                f"state={WarpState.NAMES[self.state]})")
