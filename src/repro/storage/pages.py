"""Fixed-capacity slotted pages.

Records are keyed logically; the heap file maps each key to the id of the
page holding it. Pages track only occupancy — record payloads live in the
MVStore — because the simulation needs page *identity* (for buffer-pool
behaviour), not byte layout: a key-only cost model. The heap is
append-only, so a page only ever fills: its next key goes in slot
``filled``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Number of records per page. With the paper's 10K-key YCSB/Smallbank
#: tables this yields ~160 pages, so buffer-pool behaviour (hot pages stay
#: resident, cold scans evict) is visible at benchmark scale.
PAGE_RECORD_CAPACITY = 64


@dataclass
class Page:
    """A heap page: how many of its slots are occupied."""

    page_id: int
    capacity: int = PAGE_RECORD_CAPACITY
    filled: int = 0

    @property
    def is_full(self) -> bool:
        return self.filled >= self.capacity

    def allocate_slot(self) -> None:
        """Occupy the next slot."""
        if self.is_full:
            raise ValueError(f"page {self.page_id} is full")
        self.filled += 1
