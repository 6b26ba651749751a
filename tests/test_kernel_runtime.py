"""Tests for per-launch kernel runtime constants."""

import pytest

from repro.config import LatencyConfig, MemoryConfig
from repro.isa import Opcode
from repro.kernels import PARBOIL_NAMES, get_kernel
from repro.kernels.spec import InstructionMix, KernelSpec, MemoryPattern
from repro.sim.kernel_runtime import (BARRIER, FIXED, LOAD, STORE,
                                      KernelRuntime)


def make_runtime(kernel_idx=0, footprint=4 * 1024 * 1024, reuse=0.2,
                 coalesced=0.8, degree=4):
    spec = KernelSpec(
        name="runtime-test",
        memory=MemoryPattern(footprint_bytes=footprint,
                             coalesced_fraction=coalesced,
                             uncoalesced_degree=degree,
                             reuse_fraction=reuse))
    return KernelRuntime(kernel_idx, spec, MemoryConfig(line_size=128))


class TestThresholds:
    def test_threshold_ordering(self):
        runtime = make_runtime(reuse=0.2, coalesced=0.8)
        assert 0 < runtime.reuse_threshold < runtime.coalesce_threshold <= 1 << 32

    def test_reuse_threshold_fraction(self):
        runtime = make_runtime(reuse=0.25)
        assert runtime.reuse_threshold == pytest.approx(0.25 * (1 << 32), rel=1e-9)

    def test_coalesce_threshold_conditional(self):
        """coalesce_threshold covers reuse + coalesced share of the rest."""
        runtime = make_runtime(reuse=0.5, coalesced=0.5)
        expected = (0.5 + 0.5 * 0.5) * (1 << 32)
        assert runtime.coalesce_threshold == pytest.approx(expected, rel=1e-9)

    def test_fully_coalesced_never_fans_out(self):
        runtime = make_runtime(reuse=0.0, coalesced=1.0)
        assert runtime.coalesce_threshold == 1 << 32


class TestGeometry:
    def test_footprint_lines(self):
        runtime = make_runtime(footprint=128 * 1000)
        assert runtime.footprint_lines == 1000

    def test_base_lines_disjoint_and_ordered(self):
        first = make_runtime(kernel_idx=0)
        second = make_runtime(kernel_idx=1)
        third = make_runtime(kernel_idx=2)
        assert first.base_line < second.base_line < third.base_line
        assert second.base_line - first.base_line == \
            third.base_line - second.base_line

    def test_program_cached(self):
        runtime = make_runtime()
        assert runtime.program_length == runtime.program.length
        assert runtime.warps_per_tb == runtime.spec.warps_per_tb


class TestStartCursors:
    def test_within_footprint(self):
        runtime = make_runtime(footprint=128 * 64)
        for tb_id in range(50):
            for warp_id in range(runtime.warps_per_tb):
                cursor = runtime.start_cursor(tb_id, warp_id)
                assert 0 <= cursor < runtime.footprint_lines

    def test_tbs_spread_over_footprint(self):
        runtime = make_runtime(footprint=64 * 1024 * 1024)
        cursors = {runtime.start_cursor(tb_id, 0) for tb_id in range(16)}
        assert len(cursors) == 16  # no trivial clustering

    def test_seed_nonzero_and_stable(self):
        runtime = make_runtime()
        seed = runtime.warp_seed(3, 2)
        assert seed == runtime.warp_seed(3, 2)
        assert seed != 0
        assert seed % 2 == 1  # odd-forced so the LCG cannot collapse


#: Latencies unlike the defaults, so a delay taken from anywhere but the
#: machine's ``LatencyConfig`` shows.
LATENCY = LatencyConfig(alu=7, sfu=23, shared_mem=31)

#: Opcode -> (kind, delay when dependent, delay when independent); None
#: where the issue path takes the ready cycle from elsewhere.
EXPECTED = {
    Opcode.ALU: (FIXED, LATENCY.alu, 1),
    Opcode.SFU: (FIXED, LATENCY.sfu, 4),
    Opcode.LDS: (FIXED, LATENCY.shared_mem, 1),
    Opcode.LDG: (LOAD, None, None),
    Opcode.STG: (STORE, 1, 1),
    Opcode.BAR: (BARRIER, None, None),
}


def divergent_barrier_spec():
    return KernelSpec(
        name="decode-divergent", body_length=40, iterations_per_tb=3,
        mix=InstructionMix(alu=0.5, sfu=0.1, ldg=0.2, stg=0.1, lds=0.1,
                           barrier_per_iteration=True),
        ilp=0.5, divergence=0.6)


def decoded_specs():
    return [get_kernel(name) for name in PARBOIL_NAMES] + [
        divergent_barrier_spec()]


class TestDecodedProgram:
    @pytest.mark.parametrize("spec", decoded_specs(), ids=lambda s: s.name)
    def test_every_pc_decodes_from_program_and_latencies(self, spec):
        runtime = KernelRuntime(0, spec, MemoryConfig(latency=LATENCY))
        program = runtime.program
        assert runtime.pattern_length == len(program.pattern)
        for pc in range(runtime.program_length):
            inst = program.instruction(pc)
            kind, lanes, delay = runtime.decoded[pc % runtime.pattern_length]
            want_kind, dependent_delay, independent_delay = EXPECTED[inst.opcode]
            assert kind == want_kind
            assert lanes == inst.active_lanes
            if dependent_delay is not None:
                assert delay == (dependent_delay if inst.dependent
                                 else independent_delay)

    def test_synthetic_kernel_covers_every_kind(self):
        runtime = KernelRuntime(0, divergent_barrier_spec(),
                                MemoryConfig(latency=LATENCY))
        assert {kind for kind, _lanes, _delay in runtime.decoded} == {
            FIXED, LOAD, STORE, BARRIER}
        assert any(lanes < 32 for _kind, lanes, _delay in runtime.decoded)

    def test_equal_entries_share_one_tuple(self):
        runtime = KernelRuntime(0, get_kernel("tpacf"), MemoryConfig())
        distinct = set(runtime.decoded)
        assert len({id(entry) for entry in runtime.decoded}) == len(distinct)
        assert len(distinct) < runtime.pattern_length

    @pytest.mark.parametrize("spec", decoded_specs(), ids=lambda s: s.name)
    def test_lanes_before_sums_issued_lanes(self, spec):
        runtime = KernelRuntime(0, spec, MemoryConfig())
        program = runtime.program
        total = 0
        for pc in range(runtime.program_length):
            assert runtime.lanes_before(pc) == total
            total += program.instruction(pc).active_lanes
        assert runtime.lanes_before(runtime.program_length) == \
            program.thread_instructions()
