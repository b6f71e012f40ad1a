"""Fixed-capacity slotted pages.

Records are keyed logically; the heap file maps keys to (page, slot) RIDs.
Pages track only occupancy — record payloads live in the MVStore — because
the simulation needs page *identity* (for buffer-pool behaviour), not byte
layout: a key-only cost model. The heap is append-only, so a page only ever
fills: its next key goes in slot ``len(slots)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Number of records per page. With the paper's 10K-key YCSB/Smallbank
#: tables this yields ~160 pages, so buffer-pool behaviour (hot pages stay
#: resident, cold scans evict) is visible at benchmark scale.
PAGE_RECORD_CAPACITY = 64


@dataclass
class Page:
    """A heap page: a set of occupied slots."""

    page_id: int
    capacity: int = PAGE_RECORD_CAPACITY
    slots: dict[int, object] = field(default_factory=dict)

    @property
    def is_full(self) -> bool:
        return len(self.slots) >= self.capacity

    def allocate_slot(self, key: object) -> int:
        """Place ``key`` in the next slot; returns the slot number."""
        if self.is_full:
            raise ValueError(f"page {self.page_id} is full")
        slot = len(self.slots)
        self.slots[slot] = key
        return slot
