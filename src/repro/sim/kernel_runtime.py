"""Per-launch precomputed kernel constants.

A :class:`KernelRuntime` is created once per launched kernel and shared by
all of its warps: the warp program decoded for the issue path, the
address-generation thresholds as raw 32-bit integers (so the warp LCG can
be compared without float math), and the kernel's private slice of the
line-address space.

Kernels get disjoint address bases: co-runners never share data, but they do
contend for L2 capacity and memory-controller bandwidth — exactly the
interference the paper manages.
"""

from __future__ import annotations

from typing import Tuple

from repro.config import LatencyConfig, MemoryConfig
from repro.isa import Opcode, WarpInstruction
from repro.kernels.spec import KernelSpec
from repro.kernels.trace import WarpProgram

_UINT32 = 1 << 32
_BASE_STRIDE_LINES = 1 << 34  # kernels live 2^34 lines apart

#: Decoded instruction kinds: what the issue path does with a slot.
FIXED, LOAD, STORE, BARRIER = 0, 1, 2, 3


def decode(inst: WarpInstruction, lat: LatencyConfig) -> Tuple[int, int, int]:
    """Decode one instruction into ``(kind, active_lanes, delay)``.

    ``delay`` is the cycles until the issuing warp is ready again for a
    fixed-latency instruction (the pipeline latency when the instruction
    is dependent, else 1 for ALU and LDS and 4 for SFU) and 1 for a store.
    A load's delay comes from the memory system at issue, so it is 0 here,
    as is a barrier's.
    """
    op = inst.opcode
    lanes = inst.active_lanes
    if op == Opcode.ALU:
        return FIXED, lanes, lat.alu if inst.dependent else 1
    if op == Opcode.SFU:
        return FIXED, lanes, lat.sfu if inst.dependent else 4
    if op == Opcode.LDS:
        return FIXED, lanes, lat.shared_mem if inst.dependent else 1
    if op == Opcode.LDG:
        return LOAD, lanes, 0
    if op == Opcode.STG:
        return STORE, lanes, 1
    return BARRIER, lanes, 0


class KernelRuntime:
    """Immutable per-launch constants shared by a kernel's warps."""

    __slots__ = (
        "kernel_idx", "spec", "program", "decoded", "pattern_length",
        "base_line", "footprint_lines", "reuse_threshold",
        "coalesce_threshold", "uncoalesced_degree", "program_length",
        "warps_per_tb",
    )

    def __init__(self, kernel_idx: int, spec: KernelSpec,
                 memory: MemoryConfig):
        self.kernel_idx = kernel_idx
        self.spec = spec
        self.program = WarpProgram.for_spec(spec)
        # One entry per pattern slot; slots that decode alike share one
        # tuple, so a launch holds one tuple of references, not one tuple
        # per slot.
        shared = {}
        self.decoded = tuple(
            shared.setdefault(entry, entry)
            for entry in (decode(inst, memory.latency)
                          for inst in self.program.pattern))
        self.pattern_length = len(self.decoded)
        self.program_length = self.program.length
        self.warps_per_tb = spec.warps_per_tb
        self.base_line = kernel_idx * _BASE_STRIDE_LINES
        self.footprint_lines = max(
            1, spec.memory.footprint_bytes // memory.line_size)
        reuse = spec.memory.reuse_fraction
        coalesced = spec.memory.coalesced_fraction
        # The warp LCG value r in [0, 2^32) selects: reuse if r < reuse_thr,
        # coalesced stream if r < coalesce_thr, else uncoalesced fan-out.
        self.reuse_threshold = int(reuse * _UINT32)
        self.coalesce_threshold = int((reuse + (1.0 - reuse) * coalesced) * _UINT32)
        self.uncoalesced_degree = spec.memory.uncoalesced_degree

    def lanes_before(self, pc: int) -> int:
        """Thread instructions a warp retired issuing slots ``[0, pc)``."""
        rounds, rest = divmod(pc, self.pattern_length)
        lanes = [entry[1] for entry in self.decoded]
        return rounds * sum(lanes) + sum(lanes[:rest])

    def start_cursor(self, tb_id: int, warp_id_in_tb: int) -> int:
        """Spread warps' streaming cursors across the footprint.

        TBs start at evenly spaced offsets and warps within a TB are offset
        by a few lines each, approximating how real grids tile their input.
        """
        tb_offset = (tb_id * 7919 * 64) % self.footprint_lines
        return (tb_offset + warp_id_in_tb * 4) % self.footprint_lines

    def warp_seed(self, tb_id: int, warp_id_in_tb: int) -> int:
        return (hash((self.kernel_idx, tb_id, warp_id_in_tb)) & 0xFFFFFFFF) | 1
