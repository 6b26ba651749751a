"""Warp issue policies.

Each SM has ``warp_schedulers`` independent schedulers; warps are distributed
across them at TB dispatch (Section 2.2).  The Table 1 policy is **GTO**
(greedy-then-oldest): keep issuing from the last warp while it stays ready,
otherwise fall back to the oldest ready warp.  **LRR** (loose round robin) is
provided for ablations.

The quota filter of the Enhanced Warp Scheduler (Section 3.3) enters here as
the ``quota_ok`` boolean list indexed by kernel: a warp whose kernel has
exhausted its quota is invisible to selection, leaving the underlying policy
untouched — "the original warp scheduling algorithm is used throughout the
lifetime of kernels, except that kernels are throttled once their quotas are
exhausted."

Selection is one O(warps) scan of the scheduler's warp list.  The list only
appends (TB dispatch) and removes (TB completion or eviction), so its order
is insertion order: GTO's "oldest" order and LRR's rotation order.

Schedulers keep a ``sleep_until`` cycle: when selection finds nothing ready
the earliest wake-up among eligible warps is cached so stalled schedulers
cost one comparison per cycle (``SM.step`` makes it before calling
``select``).  ``add_warp`` and ``remove_warp`` reset it to 0; barrier
release and quota refresh reset every scheduler of the SM
(``SM.wake_all``).

A scheduler holds no reference to its SM, and its warps none to it: a
warp knows its scheduler only as an index into ``SM.schedulers``
(``warp.sched``, set by ``SM.dispatch_tb``), so ``add_warp`` and
``remove_warp`` never write to the warp.  The SM caches the minimum
``sleep_until`` of its schedulers (``SM._wake_min``, which the engine's
per-SM sleep skipping and idle jumps read instead of rescanning every
scheduler each cycle), and it resets that cache itself: ``SM.dispatch_tb``
and ``SM.remove_tb``, the only callers of ``add_warp`` and
``remove_warp``, set it to 0 when the scheduler they hand a warp to or
take one from was asleep.  Going to sleep resets nothing: the SM
recomputes its wake-up after every step, and a stale lower value only
costs one extra step.

Both policies scan warps testing ``ready_at`` first: most warps a scan
passes are stalled, and a stalled warp needs its state and quota checked
only if it would lower the wake-up cycle.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.warp import Warp

_NEVER = 1 << 62


class GTOScheduler:
    """Greedy-then-oldest warp scheduler."""

    __slots__ = ("warps", "last", "sleep_until")

    def __init__(self) -> None:
        self.warps: List[Warp] = []
        self.last: Optional[Warp] = None
        self.sleep_until = 0

    # --------------------------------------------------------------- hosting

    def add_warp(self, warp: Warp) -> None:
        self.warps.append(warp)
        self.sleep_until = 0

    def remove_warp(self, warp: Warp) -> None:
        self.warps.remove(warp)
        if self.last is warp:
            self.last = None
        self.sleep_until = 0

    # ------------------------------------------------------------- selection

    def select(self, cycle: int, quota_ok) -> Optional[Warp]:
        """Pick the warp to issue this cycle, or None."""
        if cycle < self.sleep_until:
            return None
        last = self.last
        if (last is not None and last.state == 0 and last.ready_at <= cycle
                and quota_ok[last.kernel_idx]):
            return last
        earliest = _NEVER
        for warp in self.warps:
            ready_at = warp.ready_at
            if ready_at > cycle:
                if (ready_at < earliest and warp.state == 0
                        and quota_ok[warp.kernel_idx]):
                    earliest = ready_at
            elif warp.state == 0 and quota_ok[warp.kernel_idx]:
                self.last = warp
                return warp
        self.sleep_until = earliest
        return None

    # ------------------------------------------------------------ inspection

    def sample_ready(self, cycle: int, idle_sum: List[int]) -> None:
        """Accumulate per-kernel ready-warp counts, quota-blind (Sec 3.6)."""
        for warp in self.warps:
            if warp.state == 0 and warp.ready_at <= cycle:
                idle_sum[warp.kernel_idx] += 1


class LRRScheduler(GTOScheduler):
    """Loose round robin: rotate priority among ready warps by list scan."""

    __slots__ = ("_next_index",)

    def __init__(self) -> None:
        super().__init__()
        self._next_index = 0

    def select(self, cycle: int, quota_ok) -> Optional[Warp]:
        if cycle < self.sleep_until:
            return None
        warps = self.warps
        count = len(warps)
        if count == 0:
            self.sleep_until = _NEVER
            return None
        earliest = _NEVER
        start = self._next_index % count
        for offset in range(count):
            warp = warps[(start + offset) % count]
            ready_at = warp.ready_at
            if ready_at > cycle:
                if (ready_at < earliest and warp.state == 0
                        and quota_ok[warp.kernel_idx]):
                    earliest = ready_at
            elif warp.state == 0 and quota_ok[warp.kernel_idx]:
                self._next_index = (start + offset + 1) % count
                self.last = warp
                return warp
        self.sleep_until = earliest
        return None


_POLICIES = {"gto": GTOScheduler, "lrr": LRRScheduler}


def make_scheduler(policy: str):
    """Factory for the configured issue policy."""
    try:
        cls = _POLICIES[policy]
    except KeyError:
        raise ValueError(f"unknown scheduler policy {policy!r}") from None
    return cls()
