"""Deterministic warp instruction stream generation.

Each kernel's loop body is expanded once into a tuple of
:class:`~repro.isa.WarpInstruction` (the *pattern*); every warp of every TB
walks the same pattern for ``iterations_per_tb`` rounds, offset by its warp
id so that co-resident warps are not phase-locked.  Generation is seeded by
the kernel name, so a given spec always produces the same stream — the whole
simulator is reproducible bit-for-bit for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.isa import Opcode, WarpInstruction
from repro.kernels.spec import KernelSpec

_DIVERGED_LANE_CHOICES = (8, 16, 24)

#: Every instruction a pattern can hold, keyed by (opcode, active lanes,
#: dependent).  Instructions are frozen and there are only 6 x 4 x 2 of
#: them, so all patterns share these objects and a launch costs one tuple
#: of references, not one object per slot.
_INSTRUCTIONS = {
    (op, lanes, dependent): WarpInstruction(op, active_lanes=lanes,
                                            dependent=dependent)
    for op in Opcode
    for lanes in _DIVERGED_LANE_CHOICES + (32,)
    for dependent in (False, True)
}


def _opcode_counts(spec: KernelSpec) -> dict:
    """Integer opcode counts for one loop body, matching the mix exactly.

    Largest-remainder apportionment: floors first, then distribute the
    leftover slots to the largest fractional remainders so the counts always
    sum to ``body_length``.
    """
    mix = spec.mix
    fractions = {
        Opcode.ALU: mix.alu,
        Opcode.SFU: mix.sfu,
        Opcode.LDG: mix.ldg,
        Opcode.STG: mix.stg,
        Opcode.LDS: mix.lds,
    }
    raw = {op: frac * spec.body_length for op, frac in fractions.items()}
    counts = {op: int(value) for op, value in raw.items()}
    shortfall = spec.body_length - sum(counts.values())
    remainders = sorted(raw, key=lambda op: raw[op] - counts[op], reverse=True)
    for op in remainders[:shortfall]:
        counts[op] += 1
    return counts


def build_pattern(spec: KernelSpec) -> Tuple[WarpInstruction, ...]:
    """Expand a kernel's loop body into a concrete instruction pattern.

    Opcodes are interleaved evenly (memory operations spread through the
    body rather than clustered), dependence flags are drawn with probability
    ``1 - ilp`` and divergence with probability ``divergence``, all from an
    RNG seeded by the kernel name.
    """
    rng = random.Random(f"pattern:{spec.name}")
    counts = _opcode_counts(spec)

    # Even interleave: emit each opcode at evenly spaced fractional positions,
    # then sort by position.  This avoids bursts of loads that would make the
    # memory model unrealistically spiky.
    placed = []
    for op, count in counts.items():
        for i in range(count):
            position = (i + 0.5) / count if count else 0.0
            placed.append((position, rng.random(), op))
    placed.sort()

    body = []
    for _position, _tiebreak, op in placed:
        dependent = rng.random() >= spec.ilp
        if op in (Opcode.LDG, Opcode.STG):
            dependent = True  # loads always block their consumer in this model
        lanes = 32
        if spec.divergence and rng.random() < spec.divergence:
            lanes = rng.choice(_DIVERGED_LANE_CHOICES)
        body.append(_INSTRUCTIONS[op, lanes, dependent])

    if spec.mix.barrier_per_iteration:
        body.append(_INSTRUCTIONS[Opcode.BAR, 32, True])
    return tuple(body)


@dataclass(frozen=True)
class WarpProgram:
    """The immutable program every warp of a kernel executes.

    ``instruction(index)`` maps a warp's linear instruction counter onto the
    pattern; the warp is done after ``length`` instructions.
    """

    pattern: Tuple[WarpInstruction, ...]
    iterations: int

    @classmethod
    def for_spec(cls, spec: KernelSpec) -> "WarpProgram":
        return cls(pattern=build_pattern(spec), iterations=spec.iterations_per_tb)

    @property
    def length(self) -> int:
        return len(self.pattern) * self.iterations

    def instruction(self, index: int) -> WarpInstruction:
        if index < 0 or index >= self.length:
            raise IndexError(f"instruction index {index} out of range")
        return self.pattern[index % len(self.pattern)]

    def thread_instructions(self) -> int:
        """Total thread-level instructions one warp retires (divergence-aware)."""
        per_body = sum(inst.active_lanes for inst in self.pattern)
        return per_body * self.iterations
