"""The disk-oriented database layer: everything behind one facade.

``StorageEngine`` wires the simulated disk, buffer pool, heap file, the
multi-versioned store, the WAL and the checkpoint manager together, and
exposes cost-metered operations to the execution layer:

- ``read_cost(key)`` / ``write_cost(key)`` — charge an index probe and a
  buffer-pool access (possible page miss + eviction write-back);
  ``commit_inputs(keys)`` is the same charge for a block's key list at
  once, together with each key's pre-block value;
- ``apply_block(...)`` — install a block's ordered writes and charge the
  group commit;
- ``checkpoint_if_due(...)`` — flush dirty pages every *p* blocks and append
  the interval's writes to the checkpoint chain as one delta (the only
  checkpoint path).

Protocol code never touches the disk or pool directly, so swapping the
storage profile (SSD / RAMDisk / memory — Figure 21) is a constructor
argument, not a code path.
"""

from __future__ import annotations

from repro.sim.costs import CostModel, StorageProfile, cost_table
from repro.storage.bufferpool import BufferPool
from repro.storage.checkpoint import BlockLog, CheckpointManager
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.mvstore import MIGRATION_SEQ_BASE, MVStore, SnapshotView, TOMBSTONE
from repro.storage.wal import LogMode, WriteAheadLog

#: Default pool size: holds ~25% of a 10K-record table's pages, so buffer
#: behaviour matters but the working set of a skewed workload stays hot.
DEFAULT_POOL_PAGES = 48


class StorageEngine:
    """A cost-metered, multi-versioned, disk-oriented storage engine."""

    def __init__(
        self,
        costs: CostModel | None = None,
        profile: StorageProfile = StorageProfile.SSD,
        pool_pages: int = DEFAULT_POOL_PAGES,
        log_mode: LogMode = LogMode.LOGICAL,
        checkpoint_interval: int = 10,
        checkpoint_base_interval: int = 8,
    ) -> None:
        #: the table this engine was calibrated from, before its profile —
        #: what a recovered replica is rebuilt with
        self.base_costs = costs or cost_table()
        self.profile = profile
        self.costs = self.base_costs.with_profile(profile)
        self.disk = SimulatedDisk(self.costs)
        self.pool = BufferPool(pool_pages, self.disk, self.costs)
        self.heap = HeapFile(self.pool, self.costs)
        self.store = MVStore()
        self.wal = WriteAheadLog(self.disk, self.costs, log_mode)
        self.checkpoints = CheckpointManager(
            checkpoint_interval, base_interval=checkpoint_base_interval
        )
        self.block_log = BlockLog()
        #: initial database state, kept for replay-from-genesis recovery
        self.genesis_state: dict[object, object] = {}
        #: ordered (block_id, writes) of every block applied since the last
        #: checkpoint — the next delta checkpoint's payload (drained there);
        #: bounded by the checkpoint interval, like the block log segment
        self._delta_writes: list[tuple[int, list[tuple[object, object]]]] = []

    # ------------------------------------------------------------------ load
    def preload(self, items: dict[object, object]) -> None:
        """Bulk-load initial database state without charging runtime stats."""
        # the heap goes first: it refuses a key it already holds before it
        # places any, so a rejected preload leaves the engine as it was
        self.heap.load(items)
        # one copy under two names: the genesis recovery replays from and
        # the implicit base the delta-checkpoint chain folds from. Both are
        # only ever copied from, never written in place
        self.genesis_state = self.checkpoints.genesis = dict(items)
        self.store.load(items)
        self.reset_stats()

    def reset_stats(self) -> None:
        self.disk.stats.page_reads = 0
        self.disk.stats.page_writes = 0
        self.disk.stats.fsyncs = 0
        self.pool.stats.hits = 0
        self.pool.stats.misses = 0
        self.pool.stats.evictions = 0
        self.pool.stats.dirty_writebacks = 0

    # ---------------------------------------------------------------- access
    def read_cost(self, key: object) -> float:
        """Charge one read access on ``key``'s page; returns us."""
        return self.heap.access(key, write=False)

    def write_cost(self, key: object) -> float:
        """Charge one write access on ``key``'s page (inserting an absent
        key); returns us."""
        if key not in self.heap:
            return self.heap.insert(key)
        return self.heap.access(key, write=True)

    def commit_inputs(self, keys, charged=None) -> tuple[list, list[float]]:
        """A block's commit step asks storage once: each key's pre-block
        value (the latest committed version; missing and deleted keys are
        ``None``) and :meth:`write_cost` for every entry of ``charged``
        (default ``keys``; repeats are charged again) in list order.
        Returns ``(values, costs)``."""
        return (
            self.store.latest_values(keys),
            self.heap.charge_writes(keys if charged is None else charged),
        )

    def scan_cost(self, num_records: int) -> float:
        """Approximate cost of a range scan touching ``num_records`` rows."""
        per_page = max(1, self.heap.num_pages and (len(self.heap) // self.heap.num_pages) or 1)
        pages = max(1, num_records // max(1, per_page))
        cost = self.costs.index_lookup_us
        cost += pages * (self.costs.buffer_admin_us + self.costs.dram_access_us)
        cost += num_records * self.costs.op_cpu_us * 0.25
        return cost

    def snapshot(self, block_id: int) -> SnapshotView:
        return self.store.snapshot(block_id)

    # ---------------------------------------------------------------- commit
    def apply_block(
        self,
        block_id: int,
        ordered_writes: list[tuple[object, object]],
    ) -> float:
        """Install a block's writes (already reordered/coalesced) and charge
        the log + group commit; returns the serial tail cost in us.

        Per-key page-write costs are charged by the caller per committing
        transaction (they happen *inside* the parallel commit step); this
        method charges only the shared serial tail: the WAL group commit.
        """
        cost = 0.0
        if self.wal.mode is LogMode.PHYSICAL:
            for _write in ordered_writes:
                cost += self.wal.append()
        self.store.apply_block(block_id, ordered_writes)
        self._delta_writes.append((block_id, ordered_writes))
        cost += self.wal.group_commit()
        return cost

    def apply_migration(self, block_id: int, items: dict[object, object]) -> None:
        """Install ownership-migration loads into boundary block ``block_id``.

        ``items`` maps moved keys to their shipped values (incoming) or to
        TOMBSTONE (outgoing). Versions land inside the already-applied
        boundary block at :data:`MIGRATION_SEQ_BASE` offsets, and the batch
        is buffered for the next delta checkpoint — a checkpoint taken
        after the boundary must capture migrated values or a recovered
        replica would diverge from one that never crashed.
        """
        if not items:
            return
        self.store.load(items, block_id=block_id, seq_start=MIGRATION_SEQ_BASE)
        incoming = (key for key, value in items.items() if value is not TOMBSTONE)
        self.heap.load(key for key in incoming if key not in self.heap)
        self._delta_writes.append((block_id, list(items.items())))

    def log_block_input(self, block: object) -> float:
        """Logical logging: persist the input block before execution."""
        self.block_log.append(block)
        return self.wal.append()

    def checkpoint_if_due(self, block_id: int, meta: dict | None = None) -> float:
        """Flush dirty pages every ``p`` blocks; returns flush cost in us.

        The durable record is one *delta* — the interval's buffered
        per-block writes, O(interval writes) — so no ``materialize`` /
        deepcopy of the whole keyspace ever runs here.
        """
        if (block_id + 1) % self.checkpoints.interval_blocks != 0:
            return 0.0
        cost = self.pool.flush_all()
        buffered = self._delta_writes
        taken = [entry for entry in buffered if entry[0] <= block_id]
        self._delta_writes = [entry for entry in buffered if entry[0] > block_id]
        # Blocks applied without going through engine.apply_block (tests,
        # manual store pokes) never entered the buffer; the delta must
        # still cover the *whole* interval since the last chain entry, so
        # rescan the store for each missing block — only this degenerate
        # path pays that.
        have = {entry[0] for entry in taken}
        missing = [
            bid
            for bid in range(self.checkpoints.last_checkpoint_block + 1, block_id + 1)
            if bid not in have
        ]
        if missing:
            taken.extend((bid, self.store.writes_in_block(bid)) for bid in missing)
            taken.sort(key=lambda entry: entry[0])
        self.checkpoints.delta_checkpoint(block_id, taken, meta=meta)
        return cost

    # ----------------------------------------------------------------- stats
    @property
    def io_reads(self) -> int:
        return self.disk.stats.page_reads

    @property
    def io_writes(self) -> int:
        return self.disk.stats.page_writes

    @property
    def buffer_hits(self) -> int:
        return self.pool.stats.hits

    @property
    def buffer_misses(self) -> int:
        return self.pool.stats.misses

    def state_hash(self) -> str:
        return self.store.state_hash()
