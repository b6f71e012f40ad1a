"""Fixed-capacity slotted pages.

Records are keyed logically; the heap file maps keys to (page, slot) RIDs.
Pages track only occupancy — record payloads live in the MVStore — because
the simulation needs page *identity* (for buffer-pool behaviour), not byte
layout: a key-only cost model. Within ``src/`` a page only ever fills
(``free_slot`` has no production caller — see :mod:`repro.storage.heap`).
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
    #: no slot below this number is free: the first-free-slot search starts
    #: here (advanced by ``allocate_slot``, lowered by ``free_slot``)
    first_free: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def is_full(self) -> bool:
        return len(self.slots) >= self.capacity

    def allocate_slot(self, key: object) -> int:
        """Place ``key`` in the first free slot; returns the slot number."""
        if self.is_full:
            raise ValueError(f"page {self.page_id} is full")
        slots = self.slots
        slot = self.first_free
        while slot in slots:
            slot += 1
        slots[slot] = key
        self.first_free = slot + 1
        return slot

    def free_slot(self, slot: int) -> None:
        if slot in self.slots:
            del self.slots[slot]
            self.first_free = min(self.first_free, slot)
