"""Tests for the disk, buffer pool, heap, WAL and checkpoint substrate."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import OEBlockchain, OEConfig
from repro.chain.recovery import rebuild_engine
from repro.sim.costs import DEFAULT_COSTS as COSTS, StorageProfile
from repro.storage.bufferpool import BufferPool
from repro.storage.checkpoint import BlockLog, CheckpointManager
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.heap import HeapFile
from repro.storage.mvstore import TOMBSTONE
from repro.storage.wal import LogMode, WriteAheadLog
from repro.workloads import make_workload

from tests import reference
from tests.test_rebalance import AGGRESSIVE, run_chain, skewshift



def make_pool(capacity=4):
    disk = SimulatedDisk(COSTS)
    return BufferPool(capacity, disk, COSTS), disk


class TestPagePlacement:
    """A page is nothing but its id: the heap is append-only, so the n-th
    key placed lands on page ``n // records_per_page``."""

    def test_nth_key_lands_on_page_n_div_per_page(self):
        heap = HeapFile(make_pool(16)[0], COSTS, records_per_page=3)
        keys = [("k", i) for i in range(10)]
        for key in keys[:4]:
            heap.insert(key)
        heap.load(keys[4:])
        assert [heap.page_of(key) for key in keys] == [n // 3 for n in range(10)]

    def test_num_pages_is_a_ceiling_division(self):
        heap = HeapFile(make_pool()[0], COSTS, records_per_page=4)
        counts = [heap.num_pages]
        for i in range(9):
            heap.insert(i)
            counts.append(heap.num_pages)
        assert counts == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]


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

    def test_unknown_key_costs_probe_only(self):
        pool, _ = make_pool()
        heap = HeapFile(pool, COSTS)
        assert heap.access("ghost") == COSTS.index_lookup_us


def make_heap(records_per_page=4, capacity=4):
    pool, _disk = make_pool(capacity)
    return HeapFile(pool, COSTS, records_per_page=records_per_page)


def heap_state(heap):
    """Everything bring-up decides: the directory (key -> page id, which
    is every page's fill count too), the page count, the pool's frames in
    LRU order with their dirty flags, and the buffer and disk counters (a
    copy, so a later state can be compared with it)."""
    pool = heap._pool
    return copy.deepcopy(
        (
            heap._directory,
            heap.num_pages,
            list(pool._frames.items()),
            vars(pool.stats),
            vars(pool._disk.stats),
        )
    )


def run_against_reference(ops, records_per_page=4, capacity=4):
    """Apply ``ops`` to a production heap and to one the reference places
    key by key; the two are equal after every op, counters never reset. A
    placement the reference refuses must be refused with the same
    ``KeyError`` and change nothing. Returns the production heap."""
    heap = make_heap(records_per_page, capacity)
    ref = make_heap(records_per_page, capacity)
    for op, arg in ops:
        if op in ("load", "insert"):
            keys = arg if op == "load" else [arg]
            place = heap.load if op == "load" else (lambda keys: heap.insert(keys[0]))
            placed = copy.deepcopy(ref)  # takes its pool and disk along
            try:
                reference.heap_load(placed, keys)
            except KeyError as refused:
                before = heap_state(heap)
                with pytest.raises(KeyError) as caught:
                    place(keys)
                assert caught.value.args == refused.args
                assert heap_state(heap) == before
            else:
                ref = placed
                place(keys)
        else:
            heap.access(arg)
            ref.access(arg)
        assert heap_state(heap) == heap_state(ref), (op, arg)
    return heap


_heap_keys = st.integers(0, 40)
_heap_ops = st.lists(
    st.one_of(
        st.tuples(st.just("load"), st.lists(_heap_keys, max_size=24, unique=True)),
        st.tuples(st.just("load"), st.lists(_heap_keys, max_size=6)),
        st.tuples(st.sampled_from(["insert", "access"]), _heap_keys),
    ),
    max_size=12,
)


class TestHeapLoad:
    @given(_heap_ops, st.sampled_from([1, 2, 4, 64]), st.sampled_from([1, 2, 5, 64]))
    @settings(max_examples=300, deadline=None)
    def test_load_leaves_what_one_insert_per_key_leaves(self, ops, per_page, capacity):
        run_against_reference(ops, per_page, capacity)

    def test_empty_batch_places_nothing(self):
        heap = run_against_reference([("load", [])])
        assert len(heap) == 0 and heap.num_pages == 0
        assert heap._pool.stats.misses == 0

    def test_batch_that_exactly_fills_the_last_page(self):
        heap = run_against_reference(
            [("insert", "a"), ("insert", "b"), ("load", ["c", "d"]), ("load", list(range(8)))]
        )
        assert heap.num_pages == 3 and len(heap) == 12  # every page full
        assert heap._directory["d"] == 0 and heap._directory[7] == 2

    @pytest.mark.parametrize(
        "batch, refused",
        [(["x", "y", "x"], "x"), (["x", "b", "y"], "b"), (["x", "x", "a"], "x")],
        ids=["inside-the-batch", "against-the-directory", "the-first-one-wins"],
    )
    def test_duplicate_is_refused_before_anything_is_placed(self, batch, refused):
        ops = [("load", ["a", "b", "c"]), ("load", batch)]
        heap = run_against_reference(ops, records_per_page=2)
        assert set(heap._directory) == {"a", "b", "c"}
        with pytest.raises(KeyError, match=f"duplicate key '{refused}'"):
            heap.load(batch)

    def test_load_takes_any_iterable_once(self):
        heap = make_heap()
        heap.load(key for key in range(6))
        heap.load({"a": 1, "b": 2}.keys())
        assert len(heap) == 8 and heap._directory["b"] == 1
        assert list(heap._directory.values()).count(1) == 4


class TestWal:
    def test_physical_log_appends_every_write(self):
        """A physical log formats one record per installed write; a
        logical one (the input block is the log) none at commit."""
        tails = {}
        for mode in LogMode:
            engine = StorageEngine(log_mode=mode)
            engine.preload({"a": 1, "b": 2})
            tails[mode] = engine.apply_block(0, [("a", 3), ("b", 4)])
            assert engine.wal.stats.records == (2 if mode is LogMode.PHYSICAL else 0)
        physical, logical = tails[LogMode.PHYSICAL], tails[LogMode.LOGICAL]
        assert physical - logical == 2 * COSTS.log_record_us

    def test_group_commit_one_fsync(self):
        disk = SimulatedDisk(COSTS)
        wal = WriteAheadLog(disk, COSTS, LogMode.LOGICAL)
        for _ in range(10):
            wal.append()
        assert wal.group_commit() == COSTS.fsync_us
        assert disk.stats.fsyncs == 1
        assert (wal.stats.records, wal.stats.group_commits) == (10, 1)

    def test_append_is_counted_before_any_flush(self):
        disk = SimulatedDisk(COSTS)
        wal = WriteAheadLog(disk, COSTS, LogMode.PHYSICAL)
        assert wal.append() == COSTS.log_record_us
        assert wal.stats.records == 1
        assert wal.stats.group_commits == 0 and disk.stats.fsyncs == 0


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

    def test_rejected_preload_changes_nothing(self):
        """A second ``preload`` that repeats a key used to fail half-way:
        genesis replaced, ``b``'s chain out of ``seq`` order, ``c`` in the
        store but not in the heap, another ``state_hash()``."""
        engine = StorageEngine()
        engine.preload({"a": 1, "b": 2})

        def observed():
            return copy.deepcopy(
                (
                    engine.genesis_state,
                    engine.checkpoints.genesis,
                    engine.store._versions,
                    engine.store.keys(),
                    len(engine.heap),
                    heap_state(engine.heap),
                    engine.state_hash(),
                )
            )

        before = observed()
        with pytest.raises(KeyError, match="duplicate key 'b'"):
            engine.preload({"b": 5, "c": 7})
        assert observed() == before
        engine.preload({"c": 7})  # a disjoint load is still accepted
        assert engine.store.keys() == ["a", "b", "c"] and len(engine.heap) == 3

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


def reference_engine(like: StorageEngine, keys) -> StorageEngine:
    """An engine of ``like``'s pool size whose heap the reference brought
    up with ``keys``, one at a time, before the stats reset bring-up ends
    with."""
    engine = StorageEngine(pool_pages=like.pool.capacity)
    reference.heap_load(engine.heap, keys)
    engine.reset_stats()
    return engine


class TestBringUpIdentity:
    """Every way a replica's heap comes up — ``preload``, both branches of
    ``rebuild_engine``, a migration's incoming keys — goes through
    ``HeapFile.load`` and leaves the heap and the pool exactly as the
    reference's one insert per key does, on registered workloads."""

    @pytest.mark.parametrize("name", ["smallbank", "tpcc"])
    @pytest.mark.parametrize("pool_pages", [1, 48], ids=["evicting", "resident"])
    def test_preload(self, name, pool_pages):
        state = make_workload(name, profile="conformance").initial_state()
        engine = StorageEngine(pool_pages=pool_pages)
        engine.preload(state)
        assert 1 < engine.heap.num_pages < 48
        assert heap_state(engine.heap) == heap_state(reference_engine(engine, state).heap)

    @pytest.mark.parametrize("name", ["smallbank", "tpcc"])
    @pytest.mark.parametrize("checkpoint_interval", [100, 2], ids=["genesis", "checkpoint"])
    def test_rebuild_engine(self, name, checkpoint_interval):
        config = OEConfig(
            block_size=10, num_blocks=5, seed=11, checkpoint_interval=checkpoint_interval
        )
        chain = OEBlockchain(config, make_workload(name, profile="conformance"))
        chain.run()
        engine, _replay_from, checkpoint = rebuild_engine(chain.node.engine)
        assert (checkpoint is None) == (checkpoint_interval == 100)
        keys = engine.genesis_state if checkpoint is None else engine.store.keys()
        assert len(engine.heap) == len(keys) > 0
        assert heap_state(engine.heap) == heap_state(reference_engine(engine, keys).heap)
        assert engine.genesis_state == chain.node.engine.genesis_state
        assert engine.checkpoints.genesis == chain.node.engine.genesis_state

    def test_apply_migration_inside_an_adaptive_run(self, monkeypatch):
        """Every shipment of a re-keying run is also placed key by key on a
        copy of the receiving heap taken just before — mid-run, so the
        pool is warm and dirty and the counters are not reset after."""
        production = StorageEngine.apply_migration
        placed = []

        def checked(engine, block_id, items):
            ref = copy.deepcopy(engine.heap)
            incoming = [
                key
                for key, value in items.items()
                if value is not TOMBSTONE and key not in engine.heap
            ]
            production(engine, block_id, items)
            reference.heap_load(ref, incoming)
            assert heap_state(engine.heap) == heap_state(ref)
            placed.append(len(incoming))

        monkeypatch.setattr(StorageEngine, "apply_migration", checked)
        chain, _metrics = run_chain(skewshift(), num_blocks=12, **AGGRESSIVE)
        assert sum(placed) > 0, "no migration shipped a key to a new owner"
        assert chain.consistency_check()
