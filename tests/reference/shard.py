"""Shard-layer references (``shard/router``, the sequencer's split and the
driver's merged view): every owner derived afresh from the static policy
and the migration list, every participant set derived spec by spec, every
sub-block cut by filtering the block once per shard and its header written
out from the grammar, every coordinator record found by its TID."""

from __future__ import annotations

import hashlib

from repro.encoding import key_text
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


def route_spec(
    workload, spec, owner, num_shards: int, index_fn=None, space=None, overrides=None
):
    """``(participants, routed (key, shard) pairs)`` of one spec, derived on
    its own: a compiled scan footprint's points plus every shard owning a
    position its ranges cover and the owner of every overridden key
    (``overrides``) inside them — every shard under the hash policy
    (``index_fn`` ``None``) — else the static key list, else every shard.
    ``owner(key)`` is the key's owner at the block's height."""
    everyone = frozenset(range(num_shards))
    footprint_of = getattr(workload, "spec_footprint", None)
    footprint = footprint_of(spec) if footprint_of is not None else None
    if footprint is not None:
        pairs = [(key, owner(key)) for key in footprint.points]
        shards = {shard for _key, shard in pairs}
        if footprint.ranges:
            if index_fn is None:
                shards |= everyone
            else:
                for lo, hi in footprint.ranges:
                    shards |= {
                        partition_of_index(position, space, num_shards)
                        for position in range(lo, hi)
                    }
                for key, shard in (overrides or {}).items():
                    position = index_fn(key)
                    if position is not None and any(
                        lo <= position < hi for lo, hi in footprint.ranges
                    ):
                        shards.add(shard)
        return (frozenset(shards) or everyone), pairs
    keys = workload.spec_keys(spec)
    if not keys:
        return everyone, []
    pairs = [(key, owner(key)) for key in keys]
    return frozenset(shard for _key, shard in pairs), pairs


def header_bytes(block_id: int, first_tid: int, prev_hash: str, specs, tids=None) -> bytes:
    """A block header written out from its grammar: ``id|first tid|prev
    hash|proc(params);...`` then ``|tid,tid,...`` on a sub-block, each
    spec's text from its two fields."""
    body = ";".join(f"{spec.proc}({key_text(spec.params)})" for spec in specs)
    text = f"{block_id}|{first_tid}|{prev_hash}|{body}"
    if tids is not None:
        text += "|" + ",".join(str(tid) for tid in tids)
    return text.encode()


def merged_view(outcome) -> list:
    """One record per transaction of a decided block, found by its global
    TID among the transactions its coordinator (lowest participant)
    executed."""
    block = outcome.block
    by_shard_tid = {
        shard: {txn.tid: txn for txn in execution.txns}
        for shard, execution in outcome.executions.items()
    }
    return [
        by_shard_tid[min(outcome.participants[j])][block.first_tid + j]
        for j in range(block.size)
    ]
