"""Partial context switch: TB-granularity preemption (Section 2.3, [41, 42]).

Evicting a TB freezes its warps immediately (no more issue slots), then
charges the context-save cost — a drain window plus a store phase sized by
the TB's register + shared-memory footprint (see
:class:`repro.config.PreemptionConfig`).  Only when the save completes are
the TB's static resources released for the incoming kernel, which is why
frequent repartitioning is expensive and why the paper's static-resource
manager "swaps only if there are no pending preemption requests".
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.config import PreemptionConfig
from repro.sim.tb import ThreadBlock


class PreemptionEngine:
    """Tracks in-flight TB evictions as a time-ordered event heap."""

    def __init__(self, config: PreemptionConfig):
        self.config = config
        self._heap: List[Tuple[int, int, object, ThreadBlock]] = []
        self._sequence = 0
        self.evictions = 0
        self.stall_cycles = 0
        self.wasted_thread_insts = 0

    def begin_eviction(self, sm, tb: ThreadBlock, cycle: int) -> int:
        """Freeze a TB and schedule its resource release; returns done cycle.

        In context-reset mode the eviction is free but the TB's partial
        progress is charged as wasted work (a relaunched TB must redo it):
        each warp's retired lanes, summed over its kernel's decoded program
        up to its ``pc``.
        """
        tb.freeze()
        cost = self.config.eviction_cycles(tb.spec.context_bytes)
        if self.config.mode == "reset" and self.config.enabled:
            runtime = sm.runtimes[tb.kernel_idx]
            self.wasted_thread_insts += sum(
                runtime.lanes_before(warp.pc) for warp in tb.warps)
        done = cycle + cost
        self._sequence += 1
        heapq.heappush(self._heap, (done, self._sequence, sm, tb))
        self.evictions += 1
        self.stall_cycles += cost
        return done

    @property
    def has_pending(self) -> bool:
        return bool(self._heap)

    @property
    def pending_count(self) -> int:
        return len(self._heap)

    @property
    def next_completion(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def pop_completed(self, cycle: int):
        """Yield (sm, tb) for every eviction finished by ``cycle``."""
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            _done, _seq, sm, tb = heapq.heappop(heap)
            yield sm, tb
