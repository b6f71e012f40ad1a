"""Tests for block-snapshot MVCC."""

from __future__ import annotations

import pytest

from repro.storage.mvstore import MVStore, TOMBSTONE


def loaded_store():
    store = MVStore()
    store.load({("k", i): i * 10 for i in range(5)})
    return store


class TestVersions:
    def test_load_then_latest(self):
        store = loaded_store()
        value, version = store.get_latest(("k", 1))
        assert value == 10
        assert version[0] == -1  # genesis pseudo-block

    def test_apply_block_bumps_version(self):
        store = loaded_store()
        store.apply_block(0, [(("k", 1), 99)])
        value, version = store.get_latest(("k", 1))
        assert value == 99 and version == (0, 0)
        assert store.last_committed_block == 0

    def test_apply_out_of_order_rejected(self):
        store = loaded_store()
        store.apply_block(3, [(("k", 0), 1)])
        with pytest.raises(ValueError):
            store.apply_block(3, [(("k", 0), 2)])
        with pytest.raises(ValueError):
            store.apply_block(2, [(("k", 0), 2)])

    def test_intra_block_seq_orders_versions(self):
        store = loaded_store()
        store.apply_block(0, [(("k", 1), 5), (("k", 2), 6)])
        _, v1 = store.get_latest(("k", 1))
        _, v2 = store.get_latest(("k", 2))
        assert v1 == (0, 0) and v2 == (0, 1)


class TestSnapshots:
    def test_snapshot_isolation_across_blocks(self):
        store = loaded_store()
        store.apply_block(0, [(("k", 1), 111)])
        store.apply_block(1, [(("k", 1), 222)])
        assert store.snapshot(-1).get(("k", 1))[0] == 10
        assert store.snapshot(0).get(("k", 1))[0] == 111
        assert store.snapshot(1).get(("k", 1))[0] == 222
        assert store.snapshot(5).get(("k", 1))[0] == 222  # future = latest

    def test_missing_key(self):
        store = loaded_store()
        assert store.snapshot(0).get("ghost") == (None, None)

    def test_tombstone_hidden_from_reads(self):
        store = loaded_store()
        store.apply_block(0, [(("k", 1), TOMBSTONE)])
        value, version = store.snapshot(0).get(("k", 1))
        assert value is None and version == (0, 0)
        assert store.snapshot(-1).get(("k", 1))[0] == 10  # time travel
        assert ("k", 1) not in store

    def test_scan_range_and_order(self):
        store = loaded_store()
        rows = list(store.snapshot(-1).scan(("k", 1), ("k", 4)))
        assert rows == [(("k", 1), 10), (("k", 2), 20), (("k", 3), 30)]

    def test_scan_respects_snapshot(self):
        store = loaded_store()
        store.apply_block(0, [(("k", 2), 999), (("k", 9), 90)])
        old = dict(store.snapshot(-1).scan(("k", 0), ("k", 99)))
        new = dict(store.snapshot(0).scan(("k", 0), ("k", 99)))
        assert ("k", 9) not in old and new[("k", 9)] == 90
        assert old[("k", 2)] == 20 and new[("k", 2)] == 999

    def test_scan_skips_tombstones(self):
        store = loaded_store()
        store.apply_block(0, [(("k", 2), TOMBSTONE)])
        rows = dict(store.snapshot(0).scan(("k", 0), ("k", 99)))
        assert ("k", 2) not in rows


class TestMaintenance:
    def test_state_hash_tracks_content_not_history(self):
        a = loaded_store()
        b = loaded_store()
        assert a.state_hash() == b.state_hash()
        a.apply_block(0, [(("k", 1), 7)])
        assert a.state_hash() != b.state_hash()
        b.apply_block(0, [(("k", 1), 6)])
        b.apply_block(1, [(("k", 1), 7)])
        assert a.state_hash() == b.state_hash()

    def test_materialize_roundtrip(self):
        store = loaded_store()
        store.apply_block(0, [(("k", 0), TOMBSTONE), (("k", 1), 77)])
        state = store.materialize()
        assert ("k", 0) not in state and state[("k", 1)] == 77

    def test_materialize_at_previous_block(self):
        store = loaded_store()
        store.apply_block(0, [(("k", 1), 50)])
        store.apply_block(1, [(("k", 1), 60)])
        assert store.materialize_at(0)[("k", 1)] == 50
        assert store.materialize_at(1)[("k", 1)] == 60

    def test_len_counts_live_keys(self):
        store = loaded_store()
        assert len(store) == 5
        store.apply_block(0, [(("k", 0), TOMBSTONE)])
        assert len(store) == 4
