"""Tests for crash recovery by deterministic replay (Section 4)."""

from __future__ import annotations

from repro.chain.node import ReplicaNode
from repro.chain.ordering import OrderingService
from repro.chain.recovery import recover_node
from repro.core.harmony import HarmonyConfig, HarmonyExecutor
from repro.txn.transaction import TxnSpec

from tests import reference
from tests.conftest import (
    assert_checkpoints_identical,
    full_snapshot_at_boundary,
    generic_registry,
    make_engine,
)


def spec(ops) -> TxnSpec:
    return TxnSpec("ops", (("ops", tuple(ops)),))


def sov_block(engine, ordering, block_id, ops_lists):
    """Form a Fabric-style endorsed block: freeze read versions against the
    replica's latest snapshot and evaluate commands into value writes."""
    from repro.dcc.fabric import endorsed_value_writes
    from repro.txn.context import SimulationContext
    from repro.txn.transaction import Txn

    block = ordering.form_block([spec(ops) for ops in ops_lists])
    txns = [
        Txn(tid=block.first_tid + i, block_id=block_id, spec=s)
        for i, s in enumerate(block.specs)
    ]
    snapshot = engine.store.latest_snapshot()
    registry = generic_registry()
    for txn in txns:
        txn.output = registry.execute(SimulationContext(txn, snapshot, engine))
        endorsed_value_writes(txn, snapshot)
    block.endorsed_txns = txns
    return block


def build_node(checkpoint_interval=3, inter_block=False, **engine_kwargs) -> ReplicaNode:
    engine = make_engine(**engine_kwargs)
    engine.checkpoints.interval_blocks = checkpoint_interval
    executor = HarmonyExecutor(
        engine,
        generic_registry(),
        HarmonyConfig(inter_block=inter_block),
    )
    return ReplicaNode("r0", executor, None)


def feed_blocks(node: ReplicaNode, num_blocks: int, ordering=None):
    ordering = ordering or OrderingService()
    for i in range(num_blocks):
        node.process_block(
            ordering.form_block(
                [
                    spec([("add", i % 4, 1)]),
                    spec([("r", i % 4), ("set", 10 + (i % 3), i)]),
                    spec([("mul", 5, 1)]),
                ]
            )
        )
    return ordering


class TestRecovery:
    def test_recover_from_checkpoint_reaches_same_state(self):
        node = build_node(checkpoint_interval=3)
        feed_blocks(node, 8)  # checkpoints at blocks 2 and 5
        recovered = recover_node(node)
        assert recovered.state_hash() == node.state_hash()

    def test_recover_without_checkpoint_replays_genesis(self):
        node = build_node(checkpoint_interval=100)
        feed_blocks(node, 4)
        assert node.engine.checkpoints.latest() is None
        recovered = recover_node(node)
        assert recovered.state_hash() == node.state_hash()

    def test_torn_checkpoint_falls_back_to_previous(self):
        node = build_node(checkpoint_interval=2)
        feed_blocks(node, 8)
        node.engine.checkpoints.torn_latest = True  # crash mid-checkpoint
        recovered = recover_node(node)
        assert recovered.state_hash() == node.state_hash()

    def test_recovery_with_inter_block_parallelism(self):
        """The replayed first block simulates against a lag-2 snapshot, so
        the checkpoint's prev_state and Rule-3 records must round-trip."""
        node = build_node(checkpoint_interval=3, inter_block=True)
        feed_blocks(node, 9)
        recovered = recover_node(node)
        assert recovered.state_hash() == node.state_hash()

    def test_recovered_node_continues_processing(self):
        node = build_node(checkpoint_interval=3)
        ordering = feed_blocks(node, 6)
        recovered = recover_node(node)
        block = ordering.form_block([spec([("add", 0, 100)])])
        node.process_block(block)
        recovered.process_block(block)
        assert recovered.state_hash() == node.state_hash()

    def test_recovered_ledger_verifies(self):
        node = build_node()
        feed_blocks(node, 6)
        recovered = recover_node(node)
        assert recovered.ledger.verify_chain()
        assert recovered.ledger.height == node.ledger.height

    def test_key_born_with_stored_none_survives_recovery(self):
        """A key whose first value is a stored ``None`` (a Fabric-style
        evaluated no-op write) lands in the checkpoint as a live entry —
        recovery must replay it, or the recovered replica silently loses
        the version an uncrashed replica's version checks still see."""
        from repro.dcc.fabric import FabricValidator

        engine = make_engine()
        engine.checkpoints.interval_blocks = 2
        node = ReplicaNode("r0", FabricValidator(engine, generic_registry()), None)
        ordering = OrderingService()

        node.process_block(sov_block(engine, ordering, 0, [[("set", 1, 5)]]))
        # block 1 (the checkpoint block): AddValue on an absent key
        # evaluates to a stored None — a live, versioned entry
        node.process_block(sov_block(engine, ordering, 1, [[("add", 99, 1)]]))
        born_none = ("k", 99)
        value, version = engine.store.get_latest(born_none)
        assert value is None and version is not None
        assert engine.checkpoints.latest().block_id == 1

        recovered = recover_node(node)
        rec_value, rec_version = recovered.engine.store.get_latest(born_none)
        assert rec_value is None and rec_version is not None
        assert recovered.state_hash() == node.state_hash()

    def test_same_value_rewrite_in_checkpoint_block_keeps_its_version(self):
        """A key rewritten in the checkpoint block with an unchanged value
        is invisible to a state *diff* (state == prev_state for it), so
        recovery must replay the block's recorded writes verbatim — or the
        recovered replica keeps the older version, and a transaction
        endorsed against the newer one passes SOV validation everywhere
        except on the recovered replica, diverging the replicas."""
        from repro.dcc.fabric import FabricValidator

        engine = make_engine()
        engine.checkpoints.interval_blocks = 2
        node = ReplicaNode("r0", FabricValidator(engine, generic_registry()), None)
        ordering = OrderingService()

        node.process_block(sov_block(engine, ordering, 0, [[("set", 1, 5)]]))
        # block 1 (the checkpoint block) rewrites the key with its
        # current value: the version advances, the value does not
        node.process_block(sov_block(engine, ordering, 1, [[("set", 1, 5)]]))
        key = ("k", 1)
        _, version = engine.store.get_latest(key)
        assert version is not None and version[0] == 1
        assert engine.checkpoints.latest().block_id == 1

        recovered = recover_node(node)
        assert recovered.engine.store.get_latest(key)[1] == version
        assert recovered.state_hash() == node.state_hash()

        # a read endorsed against the post-checkpoint version must commit
        # on both replicas (no stale-read abort on the recovered one)
        block = sov_block(engine, ordering, 2, [[("r", 1), ("set", 1, 6)]])
        node.process_block(block)
        recovered.process_block(block)
        assert all(t.committed for t in block.endorsed_txns)
        assert recovered.state_hash() == node.state_hash()

    def test_torn_base_compaction_recovers_without_losing_an_interval(self):
        """A crash mid-base-compaction leaves the chain prefix through the
        compaction's own delta intact — recovery lands at the *same* block
        (the full-checkpoint scheme would step a whole interval back)."""
        node = build_node(checkpoint_interval=2, checkpoint_base_interval=2)
        feed_blocks(node, 8)  # checkpoints at 1,3,5,7; compactions at 3 and 7
        from repro.storage.checkpoint import Checkpoint

        assert isinstance(node.engine.checkpoints._entries[-1], Checkpoint)
        before = node.engine.checkpoints.latest().block_id
        node.engine.checkpoints.torn_latest = True  # crash mid-compaction
        assert node.engine.checkpoints.latest().block_id == before
        recovered = recover_node(node)
        assert recovered.state_hash() == node.state_hash()

    def test_logical_log_smaller_than_physical(self):
        """Section 2.4: deterministic replay needs only input blocks — one
        record per block, none per installed write."""
        node = build_node()
        feed_blocks(node, 6)
        from repro.storage.wal import LogMode

        assert node.engine.wal.mode is LogMode.LOGICAL
        assert node.engine.wal.stats.records == 6


# --------------------------------------------------------------------------
# Delta-chain recovery vs the seed's full-snapshot checkpoints: bit-identical.
# --------------------------------------------------------------------------
def _scheme_builders():
    from repro.dcc.aria import AriaExecutor
    from repro.dcc.fabric import FabricValidator
    from repro.dcc.fastfabric import FastFabricValidator
    from repro.dcc.rbc import RBCExecutor
    from repro.dcc.serial import SerialExecutor

    return {
        "harmony": lambda e, r: HarmonyExecutor(e, r, HarmonyConfig(inter_block=True)),
        "aria": lambda e, r: AriaExecutor(e, r),
        "rbc": lambda e, r: RBCExecutor(e, r),
        "serial": lambda e, r: SerialExecutor(e, r),
        "fabric": lambda e, r: FabricValidator(e, r),
        "fastfabric": lambda e, r: FastFabricValidator(e, r),
    }


def _feed_scheme(scheme: str, num_blocks=8, base_interval=2):
    """One replica of ``scheme`` fed a deterministic block stream; returns
    ``(node, snapshots)``.

    At every checkpoint boundary the chain's recovery point is asserted
    equal to the seed's full snapshot of the live store
    (:func:`full_snapshot_at_boundary`); ``snapshots`` collects them in
    order. The default ``base_interval=2`` exercises a base compaction
    mid-stream.
    """
    from repro.storage.engine import StorageEngine

    engine = StorageEngine(
        pool_pages=8, checkpoint_interval=3, checkpoint_base_interval=base_interval
    )
    engine.preload({("k", i): 100 for i in range(24)})
    node = ReplicaNode("r0", _scheme_builders()[scheme](engine, generic_registry()), None)
    ordering = OrderingService()
    snapshots = []
    for i in range(num_blocks):
        ops_lists = [
            [("add", i % 4, 1)],
            [("r", i % 4), ("set", 10 + (i % 3), i)],
            [("rmw", 5, 2)],
        ]
        if scheme in ("fabric", "fastfabric"):
            block = sov_block(engine, ordering, i, ops_lists)
        else:
            block = ordering.form_block([spec(ops) for ops in ops_lists])
        node.process_block(block)
        if (i + 1) % 3 == 0:
            snapshots.append(full_snapshot_at_boundary(engine, i))
    return node, snapshots


def _feed_workload(name: str, num_blocks=8):
    """One Harmony replica fed a registered workload's gate-profile stream,
    checked at every checkpoint boundary like :func:`_feed_scheme`."""
    from repro.sim.rng import SeededRng
    from repro.storage.engine import StorageEngine
    from repro.workloads import ShardAffinity, make_workload

    workload = make_workload(name, profile="gate", affinity=ShardAffinity(3, 0.5))
    engine = StorageEngine(
        pool_pages=8, checkpoint_interval=3, checkpoint_base_interval=2
    )
    engine.preload(workload.initial_state())
    node = ReplicaNode(
        "r0",
        HarmonyExecutor(
            engine, workload.build_registry(), HarmonyConfig(inter_block=True)
        ),
        None,
    )
    ordering = OrderingService()
    rng = SeededRng(29, f"recovery/{name}")
    snapshots = []
    for i in range(num_blocks):
        node.process_block(ordering.form_block(workload.generate_block(10, rng)))
        if (i + 1) % 3 == 0:
            snapshots.append(full_snapshot_at_boundary(engine, i))
    return node, snapshots


def store_recovered_from(snapshot, live_store):
    """The store a replica holds after recovering from the full
    ``snapshot`` and replaying up to ``live_store``'s height: the previous
    block's state loaded as genesis, the checkpoint block's writes replayed
    verbatim, then every later block's writes (read off the live store by
    the reference every-chain walk)."""
    from repro.storage.mvstore import MVStore

    store = MVStore()
    store.load(snapshot.prev_state)
    store.last_committed_block = snapshot.block_id - 1
    store.apply_block(snapshot.block_id, snapshot.block_writes)
    for block_id in range(snapshot.block_id + 1, live_store.last_committed_block + 1):
        store.apply_block(block_id, reference.writes_in_block(live_store, block_id))
    return store


def assert_recovered_from(recovered_store, snapshot, live_store):
    expected = store_recovered_from(snapshot, live_store)
    assert recovered_store._versions == expected._versions
    assert recovered_store._sorted_keys == expected._sorted_keys
    assert recovered_store.last_committed_block == expected.last_committed_block


class TestIncrementalRecoveryDifferential:
    """ISSUE 5 acceptance: recovery from a base+delta chain must be
    bit-identical — version chains, key directory, state hash — to
    recovery from the seed's full-deepcopy checkpoints, per scheme. The
    chain's recovery point equals the full snapshot at every boundary (the
    feeders assert it), recovery starts from nothing else, and the
    recovered store equals the one rebuilt from that snapshot."""

    import pytest as _pytest

    @_pytest.mark.parametrize(
        "scheme", ["harmony", "aria", "rbc", "serial", "fabric", "fastfabric"]
    )
    def test_delta_chain_recovery_bit_identical_to_full(self, scheme):
        node, snapshots = _feed_scheme(scheme)
        recovered = recover_node(node)
        assert_recovered_from(recovered.engine.store, snapshots[-1], node.engine.store)
        assert recovered.state_hash() == node.state_hash()
        # the recovery reseeds its chain at the boundary the crashed
        # replica last checkpointed
        assert (
            recovered.engine.checkpoints.latest().block_id == snapshots[-1].block_id
        )

    @_pytest.mark.parametrize("name", ["tpcc", "adv-skewshift"])
    def test_new_workloads_recover_bit_identical(self, name):
        """ISSUE 8: the differential extends to the new verification
        workloads — multi-warehouse TPC-C traffic and the migrating Zipf
        hotspot, both driven through their registered gate profiles."""
        node, snapshots = _feed_workload(name)
        recovered = recover_node(node)
        assert_recovered_from(recovered.engine.store, snapshots[-1], node.engine.store)
        assert recovered.state_hash() == node.state_hash()
        assert recovered.ledger.verify_chain()
        assert recovered.ledger.height == node.ledger.height

    @_pytest.mark.parametrize("scheme", ["harmony", "rbc", "fabric"])
    def test_torn_chain_recovery_matches_torn_full(self, scheme):
        """With the newest recovery point torn (a delta tip here —
        base_interval exceeds the number of checkpoints, so the chain never
        compacted), the fallback prefix must recover bit-identically to the
        full scheme's fallback: the previous boundary's snapshot."""
        node, snapshots = _feed_scheme(scheme, base_interval=99)
        node.engine.checkpoints.torn_latest = True
        assert_checkpoints_identical(node.engine.checkpoints.latest(), snapshots[-2])
        recovered = recover_node(node)
        assert_recovered_from(recovered.engine.store, snapshots[-2], node.engine.store)
        assert recovered.state_hash() == node.state_hash()
