"""Storage-layer references (``storage/``, ``shard/federated`` and the
execution overlay): every chain walked, every key probed, every key placed
on its own, every pool miss charged step by step, every checkpoint a full
deep copy, every range materialized."""

from __future__ import annotations

import copy
import hashlib
from bisect import bisect_left, insort

from repro.execution import OverlayView
from repro.intervals import covers
from repro.shard.federated import FederatedSnapshot
from repro.storage.bufferpool import BufferPool
from repro.storage.checkpoint import BlockLog, Checkpoint
from repro.storage.heap import HeapFile
from repro.storage.mvstore import (
    MVStore,
    SnapshotView,
    TOMBSTONE,
    _HASH_MOD,
)
from tests.reference.encoding import encode


# --------------------------------------------------------- storage/mvstore
def load(store: MVStore, items: dict, block_id: int = -1) -> None:
    """Bulk load, one ``insort`` per fresh key (O(n²) on a populate)."""
    for seq, (key, value) in enumerate(items.items()):
        chain = store._versions.get(key)
        if chain is None:
            store._versions[key] = [((block_id, seq), value)]
            insort(store._sorted_keys, key)
        else:
            chain.append(((block_id, seq), value))
        store._stale_keys.add(key)


def scan(view: SnapshotView, start: object, end: object) -> list:
    """Snapshot scan: per-key comparison plus one ``get`` per key."""
    keys = view._store._sorted_keys
    out = []
    i = bisect_left(keys, start)
    while i < len(keys) and keys[i] < end:
        value, _version = snapshot_get(view, keys[i])
        if value is not None:
            out.append((keys[i], value))
        i += 1
    return out


def entry_digest(key: object, value: object) -> int:
    """One live entry's state-hash contribution: the SHA-256 of
    ``key->value;`` (the key's ``repr``, the value's reference text)."""
    payload = f"{key!r}->{encode(value)};".encode()
    return int.from_bytes(hashlib.sha256(payload).digest(), "big")


def state_hash(store: MVStore) -> str:
    """The state hash recomputed from scratch over every live entry."""
    digest = 0
    for key, chain in store._versions.items():
        value = chain[-1][1]
        if value is not TOMBSTONE and value is not None:
            digest = (digest + entry_digest(key, value)) % _HASH_MOD
    return f"{digest:064x}"


def visible_at(chain: list, block_id: int):
    """The snapshot-visibility search as a linear walk: the last chain
    entry whose block is at most ``block_id``, or ``None``."""
    found = None
    for entry in chain:
        if entry[0][0] > block_id:
            break
        found = entry
    return found


def snapshot_get(view: SnapshotView, key: object) -> tuple:
    """``SnapshotView.get`` by :func:`visible_at`: ``(value, version)``,
    ``(None, None)`` with nothing visible, a TOMBSTONE read as ``None``."""
    entry = visible_at(view._store._versions.get(key, []), view.block_id)
    if entry is None:
        return None, None
    version, value = entry
    return (None if value is TOMBSTONE else value), version


def materialize(store: MVStore) -> dict[object, object]:
    """Latest live state in key order, one chain-tail probe per key of the
    version map (a TOMBSTONE is a deletion, a stored ``None`` a live entry)."""
    state: dict[object, object] = {}
    for key in sorted(store._versions):
        value = store._versions[key][-1][1]
        if value is not TOMBSTONE:
            state[key] = value
    return state


def materialize_at(store: MVStore, block_id: int) -> dict[object, object]:
    """Live state as of the end of ``block_id``, one snapshot probe per
    key (same TOMBSTONE / stored-``None`` reading as :func:`materialize`)."""
    state: dict[object, object] = {}
    for key in sorted(store._versions):
        entry = visible_at(store._versions[key], block_id)
        if entry is not None and entry[1] is not TOMBSTONE:
            state[key] = entry[1]
    return state


def writes_in_block(store: MVStore, block_id: int) -> list[tuple[object, object]]:
    """The writes ``block_id`` installed, in apply order, found by walking
    every chain in the store."""
    writes = [
        (version[1], key, value)
        for key, chain in store._versions.items()
        for version, value in chain
        if version[0] == block_id
    ]
    writes.sort(key=lambda entry: entry[0])
    return [(key, value) for _seq, key, value in writes]


# ------------------------------------------------------------ storage/heap
def heap_load(heap: HeapFile, keys) -> None:
    """Bring-up, one insert per key: the key goes on the page the keys
    placed so far have filled up to (a fresh one when the last is full),
    its page id in the directory, one dirty pool access — and a
    ``KeyError`` at the first key already placed, the keys before it kept."""
    for key in keys:
        if key in heap._directory:
            raise KeyError(f"duplicate key {key!r}")
        page_id = len(heap._directory) // heap._records_per_page
        heap._directory[key] = page_id
        heap._pool.access(page_id, dirty=True)


# ------------------------------------------------------ storage/bufferpool
def pool_access(pool: BufferPool, page_id: int, dirty: bool = False) -> float:
    """What ``pool.access(page_id, dirty)`` must charge, step by step: a
    hit, or a miss that charges the disk read, then evicts least-recently
    used frames until one is free — each dirty victim written back through
    ``SimulatedDisk.write_page``, the write-backs summed from 0.0 — and
    admits the page most recent."""
    costs, frames = pool._costs, pool._frames
    cost = costs.buffer_admin_us + costs.dram_access_us
    if page_id in frames:
        pool.stats.hits += 1
        frames[page_id] = frames[page_id] or dirty
        frames.move_to_end(page_id)
        return cost
    pool.stats.misses += 1
    pool._disk.stats.page_reads += 1
    cost += pool._disk._costs.page_read_us
    evicted = 0.0
    while len(frames) >= pool.capacity:
        victim, was_dirty = frames.popitem(last=False)
        pool.stats.evictions += 1
        if was_dirty:
            pool.stats.dirty_writebacks += 1
            evicted += pool._disk.write_page(victim)
    cost += evicted
    frames[page_id] = dirty
    return cost


def heap_access(heap: HeapFile, key: object, write: bool = False) -> float:
    """What ``heap.access(key, write)`` must charge: an index probe, and
    for a placed key a latch plus one :func:`pool_access`."""
    cost = heap._costs.index_lookup_us
    page_id = heap._directory.get(key)
    if page_id is None:
        return cost
    cost += heap._costs.latch_us
    return cost + pool_access(heap._pool, page_id, dirty=write)


# ------------------------------------------------------ storage/checkpoint
def blocks_after(log: BlockLog, block_id: int) -> list[object]:
    """Blocks with id strictly greater than ``block_id``: a linear scan."""
    return [b for b in log._blocks if b.block_id > block_id]


def full_checkpoint(
    store: MVStore, block_id: int, meta: dict | None, writes: list
) -> Checkpoint:
    """The seed's durable checkpoint of ``store`` right after ``block_id``
    applied ``writes``: deep copies of the whole materialized state, the
    previous block's state, the protocol ``meta`` and the block's writes —
    what ``CheckpointManager.latest()`` must reconstruct from its chain."""
    return Checkpoint(
        block_id,
        copy.deepcopy(materialize(store)),
        copy.deepcopy(materialize_at(store, block_id - 1)),
        copy.deepcopy(meta),
        copy.deepcopy(list(writes)),
    )


# ---------------------------------------------------------- shard/federated
def federated_scan(snap: FederatedSnapshot, start: object, end: object) -> list:
    """The merged cross-shard range read as an eager union: every shard's
    rows materialized, then sorted by key."""
    rows = [row for view in snap._views for row in view.scan(start, end)]
    rows.sort(key=lambda kv: kv[0])
    return rows


# --------------------------------------------------------------- execution
def overlay_scan(overlay: OverlayView, start: object, end: object) -> list:
    """The overlay's range read as a dict merge: the base range
    materialized, the covered overlay writes laid over it, then sorted;
    dead values (tombstones / ``None``) dropped."""
    merged = dict(overlay._base.scan(start, end))
    for key, (value, _version) in overlay._writes.items():
        if covers(start, end, key):
            merged[key] = value
    return [
        (key, merged[key])
        for key in sorted(merged)
        if merged[key] is not TOMBSTONE and merged[key] is not None
    ]
