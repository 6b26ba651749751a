"""Tests for warp state and address generation."""

from repro.config import MemoryConfig
from repro.kernels.spec import KernelSpec, MemoryPattern
from repro.sim.kernel_runtime import KernelRuntime
from repro.sim.tb import ThreadBlock
from repro.sim.warp import Warp, WarpState


def make_runtime(kernel_idx=0, **memory_kwargs):
    spec = KernelSpec(name="warp-test",
                      memory=MemoryPattern(**memory_kwargs))
    return KernelRuntime(kernel_idx, spec, MemoryConfig(line_size=128))


def make_warp(runtime, tb_id=0, warp_id=0):
    tb = ThreadBlock(tb_id, runtime.kernel_idx, runtime.spec, 0)
    return Warp(runtime.kernel_idx, tb, warp_id,
                seed=runtime.warp_seed(tb_id, warp_id),
                start_cursor=runtime.start_cursor(tb_id, warp_id))


class TestLCG:
    def test_deterministic_sequence(self):
        runtime = make_runtime()
        first = make_warp(runtime)
        second = make_warp(runtime)
        assert [first.next_random() for _ in range(10)] == \
               [second.next_random() for _ in range(10)]

    def test_values_are_32bit(self):
        warp = make_warp(make_runtime())
        for _ in range(100):
            value = warp.next_random()
            assert 0 <= value < 1 << 32

    def test_different_warps_different_streams(self):
        runtime = make_runtime()
        first = make_warp(runtime, warp_id=0)
        second = make_warp(runtime, warp_id=1)
        assert [first.next_random() for _ in range(5)] != \
               [second.next_random() for _ in range(5)]


class TestGlobalLines:
    def test_fully_coalesced_streams_single_lines(self):
        runtime = make_runtime(coalesced_fraction=1.0, reuse_fraction=0.0)
        warp = make_warp(runtime)
        previous = None
        for _ in range(20):
            lines = warp.global_lines(runtime)
            assert len(lines) == 1
            if previous is not None:
                # Streaming: consecutive lines (modulo wraparound).
                assert lines[0] == previous + 1 or lines[0] == runtime.base_line
            previous = lines[0]

    def test_full_reuse_repeats_last_line(self):
        runtime = make_runtime(coalesced_fraction=1.0, reuse_fraction=1.0)
        warp = make_warp(runtime)
        first = warp.global_lines(runtime)
        for _ in range(10):
            assert warp.global_lines(runtime) == first

    def test_uncoalesced_fans_out(self):
        runtime = make_runtime(coalesced_fraction=0.0, reuse_fraction=0.0,
                               uncoalesced_degree=6)
        warp = make_warp(runtime)
        lines = warp.global_lines(runtime)
        assert len(lines) == 6

    def test_lines_within_kernel_footprint(self):
        runtime = make_runtime(footprint_bytes=1024 * 1024,
                               coalesced_fraction=0.5, reuse_fraction=0.1,
                               uncoalesced_degree=4)
        warp = make_warp(runtime)
        low = runtime.base_line
        high = runtime.base_line + runtime.footprint_lines
        for _ in range(200):
            for line in warp.global_lines(runtime):
                assert low <= line < high

    def test_kernels_have_disjoint_address_spaces(self):
        first = make_runtime(kernel_idx=0)
        second = make_runtime(kernel_idx=1)
        span = first.base_line + first.footprint_lines
        assert second.base_line >= span


class TestWarpState:
    def test_initial_state(self):
        warp = make_warp(make_runtime())
        assert warp.state == WarpState.RUNNING
        assert warp.pc == 0
        assert warp.ready_at == 0

    def test_state_names(self):
        assert WarpState.NAMES[WarpState.RUNNING] == "RUNNING"
        assert WarpState.NAMES[WarpState.DONE] == "DONE"

    def test_repr_mentions_state(self):
        runtime = make_runtime()
        # The warp holds its TB weakly: keep the TB alive to read its id.
        tb = ThreadBlock(3, runtime.kernel_idx, runtime.spec, 0)
        warp = Warp(runtime.kernel_idx, tb, 0, seed=1, start_cursor=0)
        assert "RUNNING" in repr(warp)
        assert "tb=3" in repr(warp)

    def test_zero_seed_replaced(self):
        tb = ThreadBlock(0, 0, KernelSpec(name="s"), 0)
        warp = Warp(0, tb, 0, seed=0, start_cursor=0)
        assert warp.lcg != 0  # an all-zero LCG would never advance
