"""Tests for the disk, buffer pool, heap, WAL and checkpoint substrate."""

from __future__ import annotations

import pytest

from repro.sim.costs import CostModel, StorageProfile
from repro.storage.bufferpool import BufferPool
from repro.storage.checkpoint import BlockLog, CheckpointManager
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.heap import HeapFile
from repro.storage.pages import Page
from repro.storage.wal import LogMode, WriteAheadLog

from tests import reference

COSTS = CostModel()


def make_pool(capacity=4):
    disk = SimulatedDisk(COSTS)
    return BufferPool(capacity, disk, COSTS), disk


class TestPage:
    def test_allocation_fills_slots(self):
        page = Page(page_id=0, capacity=2)
        assert page.allocate_slot("a") == 0
        assert page.allocate_slot("b") == 1
        assert page.is_full

    def test_full_page_rejects(self):
        page = Page(page_id=0, capacity=1)
        page.allocate_slot("a")
        with pytest.raises(ValueError):
            page.allocate_slot("b")

    def test_free_slot_reusable(self):
        page = Page(page_id=0, capacity=1)
        slot = page.allocate_slot("a")
        page.free_slot(slot)
        assert page.allocate_slot("b") == slot


class TestBufferPool:
    def test_miss_then_hit(self):
        pool, disk = make_pool()
        miss_cost = pool.access(1)
        hit_cost = pool.access(1)
        assert disk.stats.page_reads == 1
        assert miss_cost > hit_cost
        assert pool.stats.hits == 1 and pool.stats.misses == 1

    def test_lru_eviction_order(self):
        pool, disk = make_pool(capacity=2)
        pool.access(1)
        pool.access(2)
        pool.access(1)  # 2 becomes LRU
        pool.access(3)  # evicts 2
        assert 1 in pool and 3 in pool and 2 not in pool

    def test_dirty_eviction_writes_back(self):
        pool, disk = make_pool(capacity=2)
        pool.access(1, dirty=True)
        pool.access(2)
        pool.access(3)  # evicts dirty page 1
        assert disk.stats.page_writes == 1
        assert pool.stats.dirty_writebacks == 1

    def test_clean_eviction_no_writeback(self):
        pool, disk = make_pool(capacity=2)
        pool.access(1)
        pool.access(2)
        pool.access(3)
        assert disk.stats.page_writes == 0

    def test_flush_all_cleans_dirty_frames(self):
        pool, disk = make_pool()
        pool.access(1, dirty=True)
        pool.access(2, dirty=True)
        cost = pool.flush_all()
        assert disk.stats.page_writes == 2
        assert cost == 2 * COSTS.page_write_us
        assert pool.flush_all() == 0.0  # now clean

    def test_redirty_via_access(self):
        pool, disk = make_pool()
        pool.access(1)
        pool.access(1, dirty=True)
        pool.flush_all()
        assert disk.stats.page_writes == 1


class TestHeapFile:
    def test_insert_and_access(self):
        pool, disk = make_pool(capacity=16)
        heap = HeapFile(pool, COSTS, records_per_page=4)
        for i in range(10):
            heap.insert(("k", i))
        assert len(heap) == 10
        assert heap.num_pages == 3  # ceil(10/4)
        assert ("k", 0) in heap

    def test_duplicate_insert_rejected(self):
        pool, _ = make_pool()
        heap = HeapFile(pool, COSTS)
        heap.insert("a")
        with pytest.raises(KeyError):
            heap.insert("a")

    def test_same_page_keys_share_frames(self):
        pool, disk = make_pool(capacity=16)
        heap = HeapFile(pool, COSTS, records_per_page=4)
        for i in range(4):
            heap.insert(("k", i))
        disk.stats.page_reads = 0
        for i in range(4):
            heap.access(("k", i))
        assert disk.stats.page_reads == 0  # one page, already resident

    def test_delete_frees_directory(self):
        pool, _ = make_pool()
        heap = HeapFile(pool, COSTS)
        heap.insert("a")
        heap.delete("a")
        assert "a" not in heap
        assert heap.page_of("a") is None

    def test_unknown_key_costs_probe_only(self):
        pool, _ = make_pool()
        heap = HeapFile(pool, COSTS)
        assert heap.access("ghost") == COSTS.index_lookup_us


class TestWal:
    def test_logical_records_are_small(self):
        disk = SimulatedDisk(COSTS)
        logical = WriteAheadLog(disk, COSTS, LogMode.LOGICAL)
        physical = WriteAheadLog(disk, COSTS, LogMode.PHYSICAL)
        assert logical.record_bytes < physical.record_bytes

    def test_group_commit_one_fsync(self):
        disk = SimulatedDisk(COSTS)
        wal = WriteAheadLog(disk, COSTS, LogMode.LOGICAL)
        for i in range(10):
            wal.append("block", i)
        wal.group_commit()
        assert disk.stats.fsyncs == 1
        assert len(wal.records("block")) == 10

    def test_unflushed_records_not_durable(self):
        disk = SimulatedDisk(COSTS)
        wal = WriteAheadLog(disk, COSTS, LogMode.LOGICAL)
        wal.append("block", 1)
        assert wal.records() == []
        wal.group_commit()
        assert len(wal.records()) == 1

    def test_truncate_drops_durable_records(self):
        disk = SimulatedDisk(COSTS)
        wal = WriteAheadLog(disk, COSTS, LogMode.LOGICAL)
        wal.append("block", 1)
        wal.group_commit()
        wal.truncate()
        assert wal.records() == []


class TestCheckpointManager:
    def test_keeps_last_two(self):
        mgr = CheckpointManager(interval_blocks=1, base_interval=1)
        for b in range(5):
            mgr.delta_checkpoint(b, [(b, [("b", b)])])
        # a base per checkpoint: the newest one, and the previous base with
        # the delta between them (the torn-tip fallback)
        assert mgr.count == 3
        assert mgr.latest().block_id == 4
        assert mgr.latest().state == {"b": 4}

    def test_torn_latest_falls_back(self):
        mgr = CheckpointManager(interval_blocks=1)
        mgr.delta_checkpoint(0, [(0, [("b", 0)])])
        mgr.delta_checkpoint(1, [(1, [("b", 1)])])
        mgr.torn_latest = True
        assert mgr.latest().block_id == 0
        assert mgr.latest().state == {"b": 0}

    def test_checkpoint_deep_copies_state(self):
        mgr = CheckpointManager(interval_blocks=1)
        value = {"a": [1]}
        mgr.delta_checkpoint(0, [(0, [("k", value)])])
        value["a"].append(2)
        assert mgr.latest().state == {"k": {"a": [1]}}


class TestBlockLog:
    def test_blocks_after(self):
        class FakeBlock:
            def __init__(self, block_id):
                self.block_id = block_id

        log = BlockLog()
        for i in range(5):
            log.append(FakeBlock(i))
        assert [b.block_id for b in log.blocks_after(2)] == [3, 4]
        assert len(log) == 5

    def test_blocks_after_bisect_matches_naive_scan(self):
        """The bisect cut point must agree with the reference linear scan on
        every boundary, including gapped id sequences (sharded sub-block
        logs skip nothing, but the contract shouldn't depend on that)."""

        class FakeBlock:
            def __init__(self, block_id):
                self.block_id = block_id

        log = BlockLog()
        for block_id in (0, 1, 2, 5, 6, 9):
            log.append(FakeBlock(block_id))
        for cut in range(-2, 11):
            assert log.blocks_after(cut) == reference.blocks_after(log, cut), f"cut={cut}"

    def test_out_of_order_append_rejected(self):
        class FakeBlock:
            def __init__(self, block_id):
                self.block_id = block_id

        log = BlockLog()
        log.append(FakeBlock(3))
        with pytest.raises(ValueError):
            log.append(FakeBlock(3))
        with pytest.raises(ValueError):
            log.append(FakeBlock(1))


class TestStorageEngine:
    def test_profiles_change_costs(self):
        ssd = StorageEngine(profile=StorageProfile.SSD)
        ram = StorageEngine(profile=StorageProfile.RAMDISK)
        mem = StorageEngine(profile=StorageProfile.MEMORY)
        assert ssd.costs.page_read_us > ram.costs.page_read_us
        assert ram.costs.page_read_us > mem.costs.page_read_us
        # memory engine also drops the buffer-manager masking overhead
        assert mem.costs.buffer_admin_us < ssd.costs.buffer_admin_us

    def test_preload_resets_stats(self):
        engine = StorageEngine()
        engine.preload({("k", i): i for i in range(100)})
        assert engine.io_reads == 0 and engine.io_writes == 0

    def test_read_cost_varies_with_residency(self, ):
        engine = StorageEngine(pool_pages=2)
        engine.preload({("k", i): i for i in range(500)})
        cold = engine.read_cost(("k", 0))
        warm = engine.read_cost(("k", 0))
        assert cold > warm

    def test_apply_block_installs_and_fsyncs(self):
        engine = StorageEngine()
        engine.preload({"a": 1})
        before = engine.disk.stats.fsyncs
        engine.apply_block(0, [("a", 2)])
        assert engine.store.get_latest("a")[0] == 2
        assert engine.disk.stats.fsyncs == before + 1

    def test_checkpoint_if_due_respects_interval(self):
        engine = StorageEngine(checkpoint_interval=2)
        engine.preload({"a": 1})
        assert engine.checkpoint_if_due(0) == 0.0
        engine.apply_block(0, [("a", 2)])
        engine.apply_block(1, [("a", 3)])
        engine.checkpoint_if_due(1)
        cp = engine.checkpoints.latest()
        assert cp is not None and cp.block_id == 1
        assert cp.state["a"] == 3
        assert cp.prev_state["a"] == 2

    def test_incremental_checkpoint_covers_unbuffered_blocks(self):
        """Blocks applied behind the engine's back (directly on the store)
        never enter the delta buffer — the checkpoint must rescan them, or
        the folded state silently diverges from the full snapshot."""
        engine = StorageEngine(checkpoint_interval=2)
        engine.preload({"a": 1})
        engine.store.apply_block(0, [("a", 10)])  # bypasses the buffer
        engine.store.apply_block(1, [("b", 20)])
        engine.checkpoint_if_due(1)
        cp = engine.checkpoints.latest()
        assert cp.block_id == 1
        assert cp.state == engine.store.materialize()
        assert cp.prev_state == engine.store.materialize_at(0)
        # a buffered and an unbuffered block in one interval also folds right
        engine.apply_block(2, [("a", 30)])
        engine.store.apply_block(3, [("c", 40)])
        engine.checkpoint_if_due(3)
        cp = engine.checkpoints.latest()
        assert cp.state == engine.store.materialize()
        assert cp.prev_state == engine.store.materialize_at(2)
