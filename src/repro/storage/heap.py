"""Heap file: maps logical keys to pages and meters access costs.

Each key lives at a (page, slot) RID. Accessing a key costs an index
probe plus a buffer-pool access (which may become a disk read and an
eviction write-back). The heap is shared by all versions of a key — the
MVStore's version chains are an in-page detail the simulation does not
separate.
"""

from __future__ import annotations

from repro.sim.costs import CostModel
from repro.storage.bufferpool import BufferPool
from repro.storage.pages import PAGE_RECORD_CAPACITY, Page


class HeapFile:
    """An append-allocated collection of slotted pages with a key directory."""

    def __init__(
        self,
        buffer_pool: BufferPool,
        costs: CostModel,
        records_per_page: int = PAGE_RECORD_CAPACITY,
    ) -> None:
        self._pool = buffer_pool
        self._costs = costs
        self._records_per_page = records_per_page
        self._pages: list[Page] = []
        self._directory: dict[object, tuple[int, int]] = {}

    def __contains__(self, key: object) -> bool:
        return key in self._directory

    def __len__(self) -> int:
        return len(self._directory)

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    def insert(self, key: object) -> float:
        """Allocate a RID for ``key``; returns the simulated cost in us."""
        if key in self._directory:
            raise KeyError(f"duplicate key {key!r}")
        if not self._pages or self._pages[-1].is_full:
            self._pages.append(Page(page_id=len(self._pages), capacity=self._records_per_page))
        page = self._pages[-1]
        slot = page.allocate_slot(key)
        self._directory[key] = (page.page_id, slot)
        cost = self._costs.index_lookup_us
        cost += self._pool.access(page.page_id, dirty=True)
        return cost

    def access(self, key: object, write: bool = False) -> float:
        """Touch the page holding ``key``; returns the cost in us.

        Unknown keys still cost an index probe (a miss in the index) —
        callers decide whether that is an error.
        """
        cost = self._costs.index_lookup_us
        rid = self._directory.get(key)
        if rid is None:
            return cost
        page_id, _slot = rid
        cost += self._costs.latch_us
        cost += self._pool.access(page_id, dirty=write)
        return cost

    def charge_writes(self, keys) -> list[float]:
        """One write access per entry of ``keys``, in list order, as one
        loop: a key without a RID is inserted (allocating in list order),
        every other entry costs exactly what ``access(key, write=True)``
        does — same pool accesses, same float additions. Repeats are
        charged again."""
        directory = self._directory
        pool_access = self._pool.access
        probe_us = self._costs.index_lookup_us + self._costs.latch_us
        costs = []
        for key in keys:
            rid = directory.get(key)
            if rid is None:
                costs.append(self.insert(key))
            else:
                costs.append(probe_us + pool_access(rid[0], dirty=True))
        return costs

    def delete(self, key: object) -> float:
        """Free the RID of ``key``; returns the cost in us."""
        rid = self._directory.pop(key, None)
        cost = self._costs.index_lookup_us
        if rid is None:
            return cost
        page_id, slot = rid
        self._pages[page_id].free_slot(slot)
        cost += self._pool.access(page_id, dirty=True)
        return cost

    def page_of(self, key: object) -> int | None:
        rid = self._directory.get(key)
        return rid[0] if rid else None
