"""Heap file: maps logical keys to pages and meters access costs.

The directory maps each key to the id of the page it lives on (the slot
within the page is never read, so it is not kept). Accessing a key costs
an index probe plus a buffer-pool access (which may become a disk read
and an eviction write-back). The heap is shared by all versions of a key
— the MVStore's version chains are an in-page detail the simulation does
not separate.

A key-only cost model: no record bytes, read only by the modeled clock
(``sim`` timings, ``io_*``, ``buffer_hit_rate``). It is append-only —
brought up by :meth:`HeapFile.load`, grown by :meth:`HeapFile.insert` — so
it only fills, and a page is nothing but its id: the n-th key placed lands
on page ``n // records_per_page``, and a key's page, once given, is never
freed.
"""

from __future__ import annotations

from itertools import repeat
from operator import add

from repro.sim.costs import CostModel
from repro.storage.bufferpool import BufferPool

#: Number of records per page. With the paper's 10K-key YCSB/Smallbank
#: tables this yields ~160 pages, so buffer-pool behaviour (hot pages stay
#: resident, cold scans evict) is visible at benchmark scale.
PAGE_RECORD_CAPACITY = 64


class HeapFile:
    """An append-allocated run of fixed-capacity pages with a key directory."""

    def __init__(
        self,
        buffer_pool: BufferPool,
        costs: CostModel,
        records_per_page: int = PAGE_RECORD_CAPACITY,
    ) -> None:
        self._pool = buffer_pool
        self._costs = costs
        self._records_per_page = records_per_page
        #: key -> id of the page holding it
        self._directory: dict[object, int] = {}

    def __contains__(self, key: object) -> bool:
        return key in self._directory

    def __len__(self) -> int:
        return len(self._directory)

    @property
    def num_pages(self) -> int:
        return -(-len(self._directory) // self._records_per_page)

    def insert(self, key: object) -> float:
        """Place ``key`` on the open page; returns the simulated cost in us."""
        directory = self._directory
        if key in directory:
            raise KeyError(f"duplicate key {key!r}")
        page_id = directory[key] = len(directory) // self._records_per_page
        cost = self._costs.index_lookup_us
        cost += self._pool.access(page_id, dirty=True)
        return cost

    def load(self, keys) -> None:
        """Place ``keys`` in order, a page at a time, leaving the directory,
        the pool's frames and the buffer / disk counters exactly as one
        :meth:`insert` per key does. A key already placed or repeated in
        ``keys`` raises that loop's ``KeyError`` before anything is placed."""
        keys = list(keys)
        directory, per_page = self._directory, self._records_per_page
        batch = set(keys)
        if len(batch) < len(keys) or not directory.keys().isdisjoint(batch):
            seen = set(directory)
            for key in keys:
                if key in seen:
                    raise KeyError(f"duplicate key {key!r}")
                seen.add(key)
        # top up the open page slot by slot
        start = -len(directory) % per_page
        for key in keys[:start]:
            self.insert(key)
        for lo in range(start, len(keys), per_page):
            chunk = keys[lo : lo + per_page]
            page_id = len(directory) // per_page
            directory.update(zip(chunk, repeat(page_id)))
            # one miss brings the fresh page in, dirty and most recent; the
            # rest of the chunk would have hit it where it stands
            self._pool.access(page_id, dirty=True)
            self._pool.stats.hits += len(chunk) - 1

    def access(self, key: object, write: bool = False) -> float:
        """Touch the page holding ``key``; returns the cost in us.

        Unknown keys still cost an index probe (a miss in the index) —
        callers decide whether that is an error. A resident page is charged
        here, with the pool's hit path inlined (every simulated read lands
        on this path): the same counters, LRU order and float additions as
        :meth:`BufferPool.access <repro.storage.bufferpool.BufferPool.access>`,
        which a miss still goes through — one frame that charges the read,
        the eviction and the write-backs itself.
        """
        costs = self._costs
        cost = costs.index_lookup_us
        page_id = self._directory.get(key)
        if page_id is None:
            return cost
        cost += costs.latch_us
        pool = self._pool
        frames = pool._frames
        if page_id in frames:
            pool.stats.hits += 1
            if write:
                frames[page_id] = True
            frames.move_to_end(page_id)
            return cost + (pool._costs.buffer_admin_us + pool._costs.dram_access_us)
        return cost + pool.access(page_id, dirty=write)

    def charge_writes(self, keys) -> list[float]:
        """One write access per entry of ``keys``, in list order: a key not
        yet placed is inserted (allocating in list order), every other entry
        costs exactly what ``access(key, write=True)`` does — same pool
        accesses, same float additions. Repeats are charged again. Placement
        reads only the directory, so the keys are placed first and their
        pages charged in one batch (:meth:`BufferPool.write_pages
        <repro.storage.bufferpool.BufferPool.write_pages>`)."""
        directory, per_page = self._directory, self._records_per_page
        insert_us = self._costs.index_lookup_us
        probe_us = insert_us + self._costs.latch_us
        page_ids, probes = [], []
        for key in keys:
            page_id = directory.get(key)
            if page_id is None:
                page_id = directory[key] = len(directory) // per_page
                probes.append(insert_us)
            else:
                probes.append(probe_us)
            page_ids.append(page_id)
        return list(map(add, probes, self._pool.write_pages(page_ids)))

    def page_of(self, key: object) -> int | None:
        return self._directory.get(key)
