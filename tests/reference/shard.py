"""Shard-layer references (``shard/router`` and the sequencer's split):
every owner derived afresh from the static policy and the migration list,
every sub-block cut by filtering the block once per shard."""

from __future__ import annotations

import hashlib

from repro.workloads.base import partition_of_index


def owner_at(
    key: object,
    num_shards: int,
    migrations: list,
    height: int,
    index_fn=None,
    space: int | None = None,
) -> int:
    """The owner of ``key`` at block ``height``: the last of ``migrations``
    (``(height, moves)`` pairs, in height order) in force at ``height``
    that moves the key, else the static policy evaluated from scratch —
    the workload's partition of its index position, or the first 8 bytes
    of the SHA-256 of its ``repr`` mod ``num_shards``."""
    owner = None
    for at, moves in migrations:
        if at <= height:
            owner = dict(moves).get(key, owner)
    if owner is not None:
        return owner
    position = None if index_fn is None else index_fn(key)
    if position is not None:
        return partition_of_index(position, space, num_shards)
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def split(block, participants: list, num_shards: int) -> list[tuple[tuple, tuple]]:
    """``(specs, tids)`` of every shard's sub-block, one filter of the
    block per shard."""
    return [
        (
            tuple(spec for i, spec in enumerate(block.specs) if shard in participants[i]),
            tuple(
                block.first_tid + i
                for i in range(len(block.specs))
                if shard in participants[i]
            ),
        )
        for shard in range(num_shards)
    ]
