"""Boundary regression tests for checkpoint materialization and the chain.

``MVStore.materialize`` / ``materialize_at`` feed replica resets and
recovery: the one-pass streams must be bit-identical to the per-key probes
of :mod:`tests.reference` on every boundary — empty stores, the first
blocks under snapshot lag 2, tombstoned keys — and must distinguish a
TOMBSTONE (deleted) from a stored ``None`` (a live entry whose version
still participates in version checks). A brute-force dict replay serves as
the independent model for both.

The delta-checkpoint chain rides the same contract: every recovery point
a base+delta chain reconstructs must be bit-identical (content *and* key
order — recovery derives version tags from dict order) to the full
deep-copy checkpoint the seed took at the same block
(``reference.full_checkpoint``), and a chain whose tip tears — mid-delta
or mid-base-compaction — must recover from the prior usable prefix.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.recovery import recover_node
from repro.core.validation import PrevBlockRecords
from repro.storage.checkpoint import Checkpoint, CheckpointManager, DeltaCheckpoint
from repro.storage.mvstore import MVStore, TOMBSTONE

from tests import reference
from tests.conftest import assert_checkpoints_identical


def _key(i: int) -> tuple:
    return ("k", i)


def both(store: MVStore, block_id=None):
    """(production, reference) results for materialize or materialize_at."""
    if block_id is None:
        return store.materialize(), reference.materialize(store)
    return store.materialize_at(block_id), reference.materialize_at(store, block_id)


class TestBoundaries:
    def test_empty_store(self):
        store = MVStore()
        assert both(store) == ({}, {})
        for block_id in (-2, -1, 0, 3):
            assert both(store, block_id) == ({}, {})

    def test_first_blocks_under_snapshot_lag_2(self):
        """Checkpoints capture state and prev_state; at blocks 0/1 the
        lag-2 prev snapshot reaches back to genesis or before it."""
        store = MVStore()
        store.load({_key(0): "g0", _key(1): "g1"})
        store.apply_block(0, [(_key(0), "b0"), (_key(2), "new")])
        store.apply_block(1, [(_key(1), TOMBSTONE)])

        for block_id, expected in (
            (-2, {}),  # before genesis: nothing visible
            (-1, {_key(0): "g0", _key(1): "g1"}),
            (0, {_key(0): "b0", _key(1): "g1", _key(2): "new"}),
            (1, {_key(0): "b0", _key(2): "new"}),
        ):
            fast, naive = both(store, block_id)
            assert fast == naive == expected

    def test_tombstoned_and_resurrected_keys(self):
        store = MVStore()
        store.load({_key(0): 1})
        store.apply_block(0, [(_key(0), TOMBSTONE)])
        store.apply_block(1, [(_key(0), 2)])
        store.apply_block(2, [(_key(0), TOMBSTONE)])
        expectations = {-1: {_key(0): 1}, 0: {}, 1: {_key(0): 2}, 2: {}}
        for block_id, expected in expectations.items():
            fast, naive = both(store, block_id)
            assert fast == naive == expected
        assert store.materialize() == {}

    def test_writes_in_block_round_trips_repeated_key_writes(self):
        """apply_block accepts several writes to one key in a block and
        keeps every installed version (in seq order), so a checkpoint
        replay of the block's writes regenerates identical version tags,
        not just the last write per key."""
        store = MVStore()
        writes = [(_key(0), 1), (_key(1), 2), (_key(0), 3), (_key(1), TOMBSTONE)]
        store.apply_block(0, writes)
        assert reference.writes_in_block(store, 0) == writes

        replayed = MVStore()
        replayed.apply_block(0, reference.writes_in_block(store, 0))
        assert replayed._versions == store._versions

    def test_materialize_at_latest_equals_materialize(self):
        store = MVStore()
        store.load({_key(i): i for i in range(8)})
        for block_id in range(3):
            store.apply_block(
                block_id, [(_key(block_id), 100 + block_id), (_key(7), TOMBSTONE)]
            )
        latest = store.last_committed_block
        fast, naive = both(store, latest)
        assert fast == naive == store.materialize() == reference.materialize(store)


class TestFalsyButLive:
    """The latent bug the boundaries surfaced: a live entry whose value is
    ``None`` was conflated with a deletion and dropped from checkpoints,
    losing the version a recovered replica's version checks rely on."""

    def test_stored_none_is_preserved(self):
        store = MVStore()
        store.load({_key(0): 5})
        store.apply_block(0, [(_key(0), None), (_key(1), None)])
        fast, naive = both(store)
        assert fast == naive == {_key(0): None, _key(1): None}
        # ... while a TOMBSTONE is a real deletion:
        store.apply_block(1, [(_key(1), TOMBSTONE)])
        assert store.materialize() == {_key(0): None}

    def test_falsy_values_survive(self):
        store = MVStore()
        store.load({_key(0): 0, _key(1): "", _key(2): {}, _key(3): None})
        fast, naive = both(store)
        assert fast == naive == {_key(0): 0, _key(1): "", _key(2): {}, _key(3): None}

    def test_checkpoint_roundtrip_keeps_the_version(self):
        """Reloading a checkpoint that contains a stored ``None`` recreates
        a versioned entry — readers still see "absent", but the version
        exists, exactly like on a replica that never crashed."""
        store = MVStore()
        store.load({_key(0): 5})
        store.apply_block(0, [(_key(0), None)])

        restored = MVStore()
        restored.load(store.materialize())
        value, version = restored.get_latest(_key(0))
        assert value is None and version is not None
        # readers keep treating it as absent
        assert _key(0) not in restored
        assert restored.keys() == []
        assert restored.state_hash() == reference.state_hash(restored)


def _decode(value: int):
    """-2 encodes a TOMBSTONE, -1 a stored None, >= 0 a plain value."""
    return TOMBSTONE if value == -2 else (None if value == -1 else value)


def _drive_manager(blocks, interval, base_interval, genesis):
    """Feed blocks through a store and a checkpoint manager.

    Mirrors ``StorageEngine.checkpoint_if_due``: every interval the manager
    gets the buffered ``(block_id, writes)`` as one delta, and the seed's
    full deep-copy checkpoint of the same store at the same block is
    recorded next to it. Returns ``(manager, store, history)`` where
    ``history`` holds every reference checkpoint in order — so
    ``history[-1]`` is what the chain must reconstruct and ``history[-2]``
    what a torn full checkpoint would have fallen back to.
    """
    store = MVStore()
    store.load(genesis)
    manager = CheckpointManager(interval, base_interval=base_interval)
    manager.genesis = dict(genesis)
    buffered: list = []
    history: list[Checkpoint] = []
    for block_id, writes in enumerate(blocks):
        store.apply_block(block_id, writes)
        buffered.append((block_id, writes))
        if (block_id + 1) % interval == 0:
            meta = {"mark": block_id}
            history.append(reference.full_checkpoint(store, block_id, meta, writes))
            manager.delta_checkpoint(block_id, buffered, meta=meta)
            buffered = []
    return manager, store, history


class TestCheckpointChain:
    def _blocks(self, num_blocks, num_keys=24, writes_per_block=6, seed=5):
        rng = random.Random(seed)
        return [
            [
                (_key(rng.randrange(num_keys)), _decode(rng.randint(-2, 50)))
                for _ in range(writes_per_block)
            ]
            for _ in range(num_blocks)
        ]

    def test_chain_reconstructs_full_checkpoint_at_every_boundary(self):
        genesis = {_key(i): i for i in range(0, 24, 2)}
        blocks = self._blocks(12)
        for upto in range(2, 13, 2):  # every checkpoint boundary
            delta, _, history = _drive_manager(
                blocks[:upto], interval=2, base_interval=3, genesis=genesis
            )
            assert_checkpoints_identical(delta.latest(), history[-1])

    def test_one_interval_folds_to_the_full_snapshot_delta_or_compacted(self):
        """The retired ``checkpoint_delta`` ledger case's checks, at its
        shape (one 10-block interval over a few thousand keys): the chain
        reconstructs the full snapshot — state, key order, prev_state, the
        checkpoint block's writes — straight off the delta and through a
        base compaction (``base_interval=1`` compacts on the first delta)."""
        genesis = {_key(i): i for i in range(2_000)}
        blocks = self._blocks(10, num_keys=2_000, writes_per_block=200, seed=13)
        for base_interval in (4, 1):
            manager, _, history = _drive_manager(
                blocks, interval=10, base_interval=base_interval, genesis=genesis
            )
            assert isinstance(manager._entries[-1], Checkpoint) == (base_interval == 1)
            assert_checkpoints_identical(manager.latest(), history[-1])

    def test_torn_delta_recovers_prior_chain_prefix(self):
        genesis = {_key(i): i for i in range(8)}
        blocks = self._blocks(8)
        delta, _, history = _drive_manager(
            blocks, interval=2, base_interval=10, genesis=genesis
        )
        # crash mid-delta: the newest chain entry is a torn delta
        assert isinstance(delta._entries[-1], DeltaCheckpoint)
        delta.torn_latest = True
        assert_checkpoints_identical(delta.latest(), history[-2])
        assert delta.latest().block_id == 5  # one interval back

    def test_torn_base_compaction_recovers_same_block(self):
        genesis = {_key(i): i for i in range(8)}
        blocks = self._blocks(8)
        # base_interval=4 → the 4th delta (block 7) compacts: tip is a base
        delta, _, history = _drive_manager(
            blocks, interval=2, base_interval=4, genesis=genesis
        )
        assert isinstance(delta._entries[-1], Checkpoint)
        reference = delta.latest()
        delta.torn_latest = True  # crash mid-compaction
        recovered = delta.latest()
        # the prefix through the compaction's own delta reconstructs the
        # *same* recovery point: a torn compaction loses nothing
        assert_checkpoints_identical(recovered, reference)
        assert_checkpoints_identical(recovered, history[-1])

    def test_prune_keeps_two_recovery_points_at_chain_level(self):
        genesis = {_key(i): i for i in range(8)}
        blocks = self._blocks(20)
        delta, _, _ = _drive_manager(
            blocks, interval=2, base_interval=3, genesis=genesis
        )
        # chain stays bounded: at most one stale base + base_interval
        # deltas + the fresh base
        assert delta.count <= delta.base_interval + 3
        # and the torn-tip fallback always has a usable prefix
        delta.torn_latest = True
        assert delta.latest() is not None

    def test_seed_base_restarts_chain_from_recovery_point(self):
        genesis = {_key(i): i for i in range(8)}
        blocks = self._blocks(8)
        delta, store, _ = _drive_manager(
            blocks, interval=2, base_interval=10, genesis=genesis
        )
        recovered = CheckpointManager(2, base_interval=10)
        recovered.seed_base(delta.latest())
        # post-recovery deltas fold onto the seeded base, not genesis
        extra = [(_key(1), 999), (_key(30), 7)]
        store.apply_block(8, [])
        store.apply_block(9, extra)
        recovered.delta_checkpoint(9, [(8, []), (9, extra)], meta=None)
        delta.delta_checkpoint(9, [(8, []), (9, extra)], meta=None)
        full = reference.full_checkpoint(store, 9, None, extra)
        assert_checkpoints_identical(recovered.latest(), full)
        assert_checkpoints_identical(delta.latest(), full)


class TestDeltaIsolation:
    """``delta_checkpoint`` no longer runs generic ``copy.deepcopy``: the
    interval's writes get a purpose-built isolating copy and the Rule-3
    records are shared because they are immutable by construction. Either
    way, nothing the caller does afterwards may reach the durable chain."""

    def test_callers_buffers_cannot_reach_the_chain(self):
        manager = CheckpointManager(2)
        manager.genesis = {_key(0): 0}
        row = {"qty": 5, "ytd": 1.5, "dist": ["a", "b"]}  # a TPC-C-style row
        first, second = [(_key(0), 1)], [(_key(1), row), (_key(2), TOMBSTONE)]
        interval = [(0, first), (1, second)]
        meta = {"mark": [1]}
        manager.delta_checkpoint(1, interval, meta=meta)
        expected = pickle.dumps(manager.latest())

        row["qty"] = 999
        row["dist"].append("c")
        first[0] = (_key(0), -1)
        second.append((_key(3), 7))
        interval.append((2, [(_key(0), 2)]))
        meta["mark"].append(2)
        meta["extra"] = True

        latest = manager.latest()
        assert pickle.dumps(latest) == expected
        assert latest.state == {_key(0): 1, _key(1): {"qty": 5, "ytd": 1.5, "dist": ["a", "b"]}}
        assert latest.block_writes[1] == (_key(2), TOMBSTONE)  # sentinel identity kept
        assert latest.block_writes[1][1] is TOMBSTONE
        assert latest.meta == {"mark": [1]}

    def test_next_block_and_frozen_records_leave_the_recovery_point_alone(self):
        from tests.test_recovery import build_node, feed_blocks, spec

        node = build_node(checkpoint_interval=3, inter_block=True)
        ordering = feed_blocks(node, 6)  # deltas at blocks 2 and 5
        manager = node.engine.checkpoints
        records = node.executor._prev_records
        latest = manager.latest()
        # shared, not copied: the delta holds the executor's own records
        assert latest.meta["prev_records"] is records and records
        expected = pickle.loads(pickle.dumps(latest))  # an independent copy

        # the next block *replaces* the executor's records and keeps
        # buffering writes; the recovery point must not notice
        node.process_block(ordering.form_block([spec([("add", 0, 5), ("scan", 0, 9)])]))
        assert node.executor._prev_records is not records
        assert manager.latest() == expected

        # the frozen route: stored containers refuse mutation, loudly
        stored = manager.latest().meta["prev_records"]
        some_key = next(iter(stored.writers))
        with pytest.raises(TypeError):
            stored.writers[_key(99)] = ()
        with pytest.raises(TypeError):
            stored.readers.pop(some_key, None)
        with pytest.raises(TypeError):
            stored.writers.update({})
        with pytest.raises((TypeError, AttributeError)):
            stored.writers[some_key].append(None)
        with pytest.raises(TypeError):
            stored.writers[some_key][0] = -1
        with pytest.raises(dataclasses.FrozenInstanceError):
            stored.reachable = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            stored.min_outs = ()
        with pytest.raises(TypeError):
            stored.min_outs[stored.writers[some_key][0]] = -1
        # ... yet still cross a process boundary intact
        assert pickle.loads(pickle.dumps(stored)) == stored
        assert isinstance(pickle.loads(pickle.dumps(stored)), PrevBlockRecords)

        # and a recovery from that point — block 6 is re-validated against
        # the restored records — lands where the live node is
        recovered = recover_node(node)
        assert recovered.executor._prev_records == node.executor._prev_records
        assert recovered.state_hash() == node.state_hash()


class TestCheckpointChainDifferential:
    @given(
        st.lists(  # blocks of (key index, encoded value) writes
            st.lists(
                st.tuples(st.integers(0, 20), st.integers(-2, 50)),
                min_size=0,
                max_size=5,
            ),
            min_size=2,
            max_size=14,
        ),
        st.integers(1, 3),  # checkpoint interval
        st.integers(1, 4),  # base-compaction cadence
        st.booleans(),  # torn chain tip
    )
    @settings(max_examples=120, deadline=None)
    def test_chain_matches_full_checkpoints(self, blocks, interval, base, torn):
        genesis = {_key(i): i for i in range(0, 20, 3)}
        ordered = [[(_key(i), _decode(v)) for i, v in writes] for writes in blocks]
        delta, _, history = _drive_manager(
            ordered, interval=interval, base_interval=base, genesis=genesis
        )
        if not history:
            assert delta.latest() is None
            return
        delta.torn_latest = torn
        folded = delta.latest()
        if not torn:
            expected = history[-1]
        elif isinstance(delta._entries[-1], Checkpoint):
            # a torn base-compaction loses nothing: the chain prefix
            # through the compaction's own delta reconstructs the same
            # recovery point — unlike a torn full checkpoint, which steps
            # a whole interval back
            expected = history[-1]
        else:
            expected = history[-2] if len(history) >= 2 else None
        if expected is None:
            assert folded is None
            return
        assert_checkpoints_identical(folded, expected)


class TestMaterializeDifferential:
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 20), st.integers(-2, 50)),
                min_size=1,
                max_size=6,
            ),
            min_size=0,
            max_size=6,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_and_dict_replay(self, blocks):
        """-2 encodes a TOMBSTONE, -1 a stored None, >= 0 a plain value."""

        def decode(value):
            return TOMBSTONE if value == -2 else (None if value == -1 else value)

        store = MVStore()
        genesis = {_key(i): i for i in range(0, 20, 3)}
        store.load(genesis)
        model = dict(genesis)  # independent reference: plain dict replay
        models = {-1: dict(model)}
        for block_id, writes in enumerate(blocks):
            ordered = [(_key(i), decode(v)) for i, v in writes]
            store.apply_block(block_id, ordered)
            for key, value in ordered:
                if value is TOMBSTONE:
                    model.pop(key, None)
                else:
                    model[key] = value
            models[block_id] = dict(model)

        assert store.materialize() == reference.materialize(store) == model
        for block_id, expected in models.items():
            fast, naive = both(store, block_id)
            assert fast == naive == expected
