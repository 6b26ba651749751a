"""Tests for the GTO / LRR warp schedulers and the quota (EWS) filter."""

import pytest

from repro.kernels.spec import KernelSpec
from repro.sim.scheduler import GTOScheduler, LRRScheduler, make_scheduler
from repro.sim.tb import ThreadBlock
from repro.sim.warp import Warp, WarpState


def make_warp(kernel_idx=0, ready_at=0):
    tb = ThreadBlock(0, kernel_idx, KernelSpec(name="sched-test"), 0)
    warp = Warp(kernel_idx, tb, 0, seed=1, start_cursor=0)
    warp.ready_at = ready_at
    return warp


ALL_OK = [True, True, True]


class TestGTOSelection:
    def test_empty_returns_none(self):
        assert GTOScheduler().select(0, ALL_OK) is None

    def test_oldest_ready_first(self):
        scheduler = GTOScheduler()
        old, young = make_warp(), make_warp()
        scheduler.add_warp(old)
        scheduler.add_warp(young)
        assert scheduler.select(0, ALL_OK) is old

    def test_greedy_sticks_to_last_warp(self):
        scheduler = GTOScheduler()
        first, second = make_warp(), make_warp()
        scheduler.add_warp(first)
        scheduler.add_warp(second)
        assert scheduler.select(0, ALL_OK) is first
        assert scheduler.select(1, ALL_OK) is first  # greedy

    def test_falls_back_to_oldest_when_last_stalls(self):
        scheduler = GTOScheduler()
        first, second = make_warp(), make_warp()
        scheduler.add_warp(first)
        scheduler.add_warp(second)
        scheduler.select(0, ALL_OK)
        first.ready_at = 100  # stall the greedy warp
        assert scheduler.select(1, ALL_OK) is second

    def test_skips_non_running_states(self):
        scheduler = GTOScheduler()
        barrier, ready = make_warp(), make_warp()
        barrier.state = WarpState.AT_BARRIER
        scheduler.add_warp(barrier)
        scheduler.add_warp(ready)
        assert scheduler.select(0, ALL_OK) is ready

    def test_skips_future_ready(self):
        scheduler = GTOScheduler()
        warp = make_warp(ready_at=10)
        scheduler.add_warp(warp)
        assert scheduler.select(5, ALL_OK) is None
        assert scheduler.select(10, ALL_OK) is warp


class TestQuotaFilter:
    def test_throttled_kernel_invisible(self):
        scheduler = GTOScheduler()
        throttled = make_warp(kernel_idx=0)
        allowed = make_warp(kernel_idx=1)
        scheduler.add_warp(throttled)
        scheduler.add_warp(allowed)
        assert scheduler.select(0, [False, True, True]) is allowed

    def test_greedy_warp_respects_quota(self):
        scheduler = GTOScheduler()
        warp = make_warp(kernel_idx=0)
        scheduler.add_warp(warp)
        assert scheduler.select(0, ALL_OK) is warp
        assert scheduler.select(1, [False, True, True]) is None

    def test_all_throttled_returns_none(self):
        scheduler = GTOScheduler()
        scheduler.add_warp(make_warp(kernel_idx=0))
        assert scheduler.select(0, [False, True, True]) is None


class TestSleepUntil:
    def test_failed_scan_sets_wakeup(self):
        scheduler = GTOScheduler()
        scheduler.add_warp(make_warp(ready_at=50))
        scheduler.add_warp(make_warp(ready_at=30))
        assert scheduler.select(0, ALL_OK) is None
        assert scheduler.sleep_until == 30

    def test_sleeping_scheduler_skips_scan(self):
        scheduler = GTOScheduler()
        warp = make_warp(ready_at=30)
        scheduler.add_warp(warp)
        scheduler.select(0, ALL_OK)
        # Selection before the cached wake-up returns immediately.
        assert scheduler.select(10, ALL_OK) is None
        assert scheduler.select(30, ALL_OK) is warp

    def test_add_warp_wakes(self):
        scheduler = GTOScheduler()
        scheduler.add_warp(make_warp(ready_at=100))
        scheduler.select(0, ALL_OK)
        assert scheduler.sleep_until == 100
        ready = make_warp(ready_at=0)
        scheduler.add_warp(ready)
        assert scheduler.select(1, ALL_OK) is ready

    def test_throttled_warps_excluded_from_wakeup(self):
        scheduler = GTOScheduler()
        scheduler.add_warp(make_warp(kernel_idx=0, ready_at=10))
        scheduler.add_warp(make_warp(kernel_idx=1, ready_at=99))
        scheduler.select(0, [False, True, True])
        assert scheduler.sleep_until == 99


class TestRemoveWarp:
    def test_removed_warp_never_selected(self):
        scheduler = GTOScheduler()
        warp = make_warp()
        scheduler.add_warp(warp)
        scheduler.select(0, ALL_OK)
        scheduler.remove_warp(warp)
        assert scheduler.select(1, ALL_OK) is None
        assert scheduler.last is None


class TestLRR:
    def test_rotates_between_ready_warps(self):
        scheduler = LRRScheduler()
        warps = [make_warp() for _ in range(3)]
        for warp in warps:
            scheduler.add_warp(warp)
        picks = [scheduler.select(cycle, ALL_OK) for cycle in range(3)]
        assert set(picks) == set(warps)

    def test_empty(self):
        assert LRRScheduler().select(0, ALL_OK) is None

    def test_skips_stalled(self):
        scheduler = LRRScheduler()
        stalled = make_warp(ready_at=100)
        ready = make_warp()
        scheduler.add_warp(stalled)
        scheduler.add_warp(ready)
        assert scheduler.select(0, ALL_OK) is ready


class TestFactory:
    def test_gto(self):
        assert isinstance(make_scheduler("gto"), GTOScheduler)

    def test_lrr(self):
        assert isinstance(make_scheduler("lrr"), LRRScheduler)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("random")


class TestBackReference:
    def test_hosting_leaves_the_warps_index_alone(self):
        # A warp names its scheduler by index in SM.schedulers, which
        # SM.dispatch_tb sets; the scheduler never points the warp at
        # itself, so the two form no reference cycle.
        scheduler = GTOScheduler()
        warp = make_warp()
        warp.sched = 1
        scheduler.add_warp(warp)
        assert warp.sched == 1
        scheduler.remove_warp(warp)
        assert warp.sched == 1

