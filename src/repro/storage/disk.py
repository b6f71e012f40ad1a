"""Simulated block device.

The device does no data movement — pages live in Python objects — it only
*meters* accesses: each read/write/fsync costs a simulated latency and
bumps counters the bench harness reports (I/O per committed transaction is
one of Harmony's headline wins via update coalescence). A buffer-pool miss
charges its page read and eviction write-backs on these counters inline
(:meth:`BufferPool.access <repro.storage.bufferpool.BufferPool.access>`);
a checkpoint's flush calls :meth:`SimulatedDisk.write_page`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.costs import CostModel


@dataclass
class DiskStats:
    page_reads: int = 0
    page_writes: int = 0
    fsyncs: int = 0

    def snapshot(self) -> "DiskStats":
        return DiskStats(self.page_reads, self.page_writes, self.fsyncs)


class SimulatedDisk:
    """A latency-metered page device."""

    def __init__(self, costs: CostModel) -> None:
        self._costs = costs
        self.stats = DiskStats()

    def write_page(self, page_id: int) -> float:
        """Charge one page write-back; returns latency in us."""
        self.stats.page_writes += 1
        return self._costs.page_write_us

    def fsync(self) -> float:
        """Charge one flush barrier (group commit); returns latency in us."""
        self.stats.fsyncs += 1
        return self._costs.fsync_us
