"""LRU buffer pool.

The pool decides whether a page access is a DRAM hit or a disk miss, and
charges write-back of dirty victims on eviction. This is where "the cost of
masking I/O latency" (Section 5.8) lives: even on a RAMDisk the pool's
bookkeeping cost remains, which is exactly the PGSQL(RAMDisk)-vs-memory-
engine gap in Figure 21.

Every simulated key access lands here, so the paths are flat: a miss is
one :meth:`BufferPool.access` frame that charges the disk read, the
eviction and the write-backs itself; :meth:`BufferPool.write_pages` and
:meth:`HeapFile.access <repro.storage.heap.HeapFile.access>` inline the
hit path and call ``access`` only on a miss.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk


@dataclass
class BufferStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferPool:
    """Fixed-capacity LRU cache of page frames."""

    def __init__(self, capacity_pages: int, disk: SimulatedDisk, costs: CostModel) -> None:
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.capacity = capacity_pages
        self._disk = disk
        self._costs = costs
        #: page_id -> dirty flag; insertion order == LRU order.
        self._frames: OrderedDict[int, bool] = OrderedDict()
        self.stats = BufferStats()

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames

    def access(self, page_id: int, dirty: bool = False) -> float:
        """Touch a page; returns the simulated cost of the access in us.

        A miss is charged in this one frame (a SmallBank run takes
        thousands): the page read, then the eviction of least-recently-used
        frames until one is free, each dirty victim written back. The
        read and the write-backs bump the disk's counters at the disk's own
        prices, and the write-backs are summed from 0.0 before they are
        added to the read.
        """
        frames = self._frames
        stats = self.stats
        cost = self._costs.buffer_admin_us + self._costs.dram_access_us
        if page_id in frames:
            stats.hits += 1
            frames[page_id] = frames[page_id] or dirty
            frames.move_to_end(page_id)
            return cost
        stats.misses += 1
        disk_costs, disk_stats = self._disk._costs, self._disk.stats
        disk_stats.page_reads += 1
        cost += disk_costs.page_read_us
        evicted = 0.0
        while len(frames) >= self.capacity:
            stats.evictions += 1
            if frames.popitem(last=False)[1]:
                stats.dirty_writebacks += 1
                disk_stats.page_writes += 1
                evicted += disk_costs.page_write_us
        frames[page_id] = dirty
        return cost + evicted

    def write_pages(self, page_ids) -> list[float]:
        """``access(page_id, dirty=True)`` for every entry of ``page_ids``,
        in list order (a block's commit-step charges), with the hit path
        inlined: the same costs, counters and LRU order. Returns the
        costs."""
        frames = self._frames
        move_to_end = frames.move_to_end
        hit_us = self._costs.buffer_admin_us + self._costs.dram_access_us
        costs = []
        hits = 0
        for page_id in page_ids:
            if page_id in frames:
                hits += 1
                frames[page_id] = True
                move_to_end(page_id)
                costs.append(hit_us)
            else:
                costs.append(self.access(page_id, dirty=True))
        self.stats.hits += hits
        return costs

    def flush_all(self) -> float:
        """Write back every dirty frame (checkpoint); returns cost in us."""
        cost = 0.0
        for page_id, dirty in self._frames.items():
            if dirty:
                cost += self._disk.write_page(page_id)
                self._frames[page_id] = False
        return cost
