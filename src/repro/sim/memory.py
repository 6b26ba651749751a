"""The global memory subsystem: per-SM L1s, interconnect, MCs with L2 slices.

Requests flow L1 -> interconnect -> memory controller (address-interleaved by
line) -> L2 slice -> DRAM.  Each controller services one line-sized request
every ``mc_service_interval`` core cycles; requests queue FCFS, so the
*completion time* of a request reflects both latency and the bandwidth
currently consumed by every co-running kernel.  This queueing is the paper's
"indirectly controlled" resource (Figure 2c): quota throttling reduces a
kernel's request rate and thereby frees bandwidth for others (Section 4.2's
explanation of the M+M results).

Fidelity details:

* **L1** is read-allocate and write-through/no-allocate (NVIDIA-style):
  stores bypass L1 and always consume controller bandwidth.
* **L2** is write-back write-allocate: dirty victims charge an extra
  controller service slot on eviction (store-heavy kernels pay roughly
  double bandwidth, as on real parts).
* **MSHRs** bound each L1's outstanding misses: when all are busy, the next
  miss cannot even leave the SM until one returns — the structural hazard
  that caps a single kernel's memory-level parallelism.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

from repro.config import GPUConfig
from repro.sim.cache import Cache


class KernelMemoryStats:
    """Per-kernel memory traffic counters (feeds the power model too)."""

    __slots__ = ("requests", "l1_hits", "l2_hits", "dram_accesses",
                 "write_requests", "mshr_stalls")

    def __init__(self) -> None:
        self.requests = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.dram_accesses = 0
        self.write_requests = 0
        self.mshr_stalls = 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "dram_accesses": self.dram_accesses,
            "write_requests": self.write_requests,
            "mshr_stalls": self.mshr_stalls,
        }


class DRAMBanks:
    """Open-row DRAM timing behind one controller.

    Rows hold ``row_lines`` consecutive cache lines; consecutive rows
    interleave across banks.  An access to a bank's open row pays the CAS
    latency only; any other row pays the full precharge+activate+CAS
    (row-miss) latency.  Streaming kernels therefore see mostly row hits
    and irregular gather/scatter kernels mostly row misses — the classic
    locality gap the workload models rely on.
    """

    __slots__ = ("num_banks", "row_lines", "open_rows", "row_hits",
                 "row_misses")

    def __init__(self, num_banks: int, row_lines: int):
        if num_banks < 0 or row_lines <= 0:
            raise ValueError("invalid DRAM geometry")
        self.num_banks = num_banks
        self.row_lines = row_lines
        self.open_rows = [-1] * num_banks
        self.row_hits = 0
        self.row_misses = 0

    def access_latency(self, line: int, hit_latency: int,
                       miss_latency: int) -> int:
        """Latency for one line, updating the bank's open row."""
        if self.num_banks == 0:
            return miss_latency
        row = line // self.row_lines
        bank = row % self.num_banks
        if self.open_rows[bank] == row:
            self.row_hits += 1
            return hit_latency
        self.open_rows[bank] = row
        self.row_misses += 1
        return miss_latency


class MemoryController:
    """One MC: a FCFS bandwidth queue, a write-back L2 slice, DRAM banks."""

    __slots__ = ("l2", "service_interval", "next_free", "serviced",
                 "writebacks", "dram")

    def __init__(self, l2: Cache, service_interval: int,
                 dram: DRAMBanks = None):
        self.l2 = l2
        self.service_interval = service_interval
        self.next_free = 0
        self.serviced = 0
        self.writebacks = 0
        self.dram = dram if dram is not None else DRAMBanks(0, 16)

    def service(self, line: int, is_write: bool, now: int,
                l2_hit_latency: int, dram_latency: int,
                dram_row_hit_latency: int = None):
        """Queue one request; returns (completion_cycle, hit_l2).

        A dirty L2 eviction consumes a second service slot (the write-back
        to DRAM) but does not delay this request's completion — the victim
        buffer hides it, the bandwidth cost is what matters.
        """
        start = now if now > self.next_free else self.next_free
        self.next_free = start + self.service_interval
        self.serviced += 1
        hit, writeback = self.l2.access_rw(line, is_write)
        if writeback is not None:
            self.next_free += self.service_interval
            self.writebacks += 1
        if hit:
            return start + l2_hit_latency, True
        if dram_row_hit_latency is None:
            dram_row_hit_latency = dram_latency
        latency = self.dram.access_latency(line, dram_row_hit_latency,
                                           dram_latency)
        return start + latency, False

    def queue_delay(self, now: int) -> int:
        """Cycles a request arriving now would wait before service."""
        return max(0, self.next_free - now)


class MemorySubsystem:
    """All memory structures shared by the SMs of one simulated GPU."""

    def __init__(self, config: GPUConfig, num_kernels: int):
        mem = config.memory
        self._line_size = mem.line_size
        self._latency = mem.latency
        self._mshr_limit = mem.l1_mshrs
        self.l1s: List[Cache] = [
            Cache(mem.l1_size, mem.l1_assoc, mem.line_size)
            for _ in range(config.num_sms)
        ]
        # Per-SM MSHR occupancy: a heap of outstanding-miss return times.
        self._mshrs: List[List[int]] = [[] for _ in range(config.num_sms)]
        self.controllers: List[MemoryController] = [
            MemoryController(
                Cache(mem.l2_slice_size, mem.l2_assoc, mem.line_size),
                mem.mc_service_interval,
                DRAMBanks(mem.dram_banks, mem.dram_row_lines),
            )
            for _ in range(config.num_mcs)
        ]
        self.kernel_stats: List[KernelMemoryStats] = [
            KernelMemoryStats() for _ in range(num_kernels)
        ]

    def add_kernel(self) -> None:
        """Open a stats slot for a kernel launched mid-run."""
        self.kernel_stats.append(KernelMemoryStats())

    @property
    def line_size(self) -> int:
        return self._line_size

    def warp_access(self, sm_id: int, kernel_idx: int, lines: Sequence[int],
                    is_write: bool, now: int) -> int:
        """Issue one warp's coalesced request set; returns completion cycle.

        A warp instruction may fan out into several line requests (divergent
        or uncoalesced access); the warp resumes when the slowest returns.
        Stores are retired from the warp's perspective immediately, but they
        still occupy controller bandwidth, so the returned cycle for writes
        is the drain time of the store traffic (callers typically ignore it).
        """
        lat = self._latency
        l1 = self.l1s[sm_id]
        mshrs = self._mshrs[sm_id]
        stats = self.kernel_stats[kernel_idx]
        controllers = self.controllers
        num_mcs = len(controllers)
        interconnect = lat.interconnect
        completion = now + lat.l1_hit
        for line in lines:
            stats.requests += 1
            if is_write:
                stats.write_requests += 1
            elif l1.access_rw(line, False)[0]:
                stats.l1_hits += 1
                continue
            # Miss (or store): allocate an MSHR; block on a free one if all
            # are outstanding.
            departure = now
            while mshrs and mshrs[0] <= departure:
                heapq.heappop(mshrs)
            if len(mshrs) >= self._mshr_limit:
                departure = heapq.heappop(mshrs)
                stats.mshr_stalls += 1
            mc = controllers[line % num_mcs]
            arrival = departure + interconnect
            done, hit_l2 = mc.service(line, is_write, arrival,
                                      lat.l2_hit, lat.dram,
                                      lat.dram_row_hit)
            if hit_l2:
                stats.l2_hits += 1
            else:
                stats.dram_accesses += 1
            done += interconnect
            heapq.heappush(mshrs, done)
            if done > completion:
                completion = done
        return completion

    def flush_l1(self, sm_id: int) -> None:
        self.l1s[sm_id].flush()
        del self._mshrs[sm_id][:]

    def total_dram_accesses(self) -> int:
        return sum(stats.dram_accesses for stats in self.kernel_stats)

    def aggregate(self) -> dict:
        """Machine-wide counters, used by reports and the power model."""
        return {
            "l1_hits": sum(c.hits for c in self.l1s),
            "l1_misses": sum(c.misses for c in self.l1s),
            "l2_hits": sum(mc.l2.hits for mc in self.controllers),
            "l2_misses": sum(mc.l2.misses for mc in self.controllers),
            "mc_serviced": sum(mc.serviced for mc in self.controllers),
            "l2_writebacks": sum(mc.writebacks for mc in self.controllers),
            "dram_row_hits": sum(mc.dram.row_hits for mc in self.controllers),
            "dram_row_misses": sum(mc.dram.row_misses
                                   for mc in self.controllers),
        }
