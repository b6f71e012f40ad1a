"""Cross-shard read views: the ordered remote-read exchange, materialized.

A cross-shard transaction executes at *every* participant shard, and its
reads may touch keys any shard owns. Because all shards advance block-
locked (every shard applies global block *b* before any shard prepares
*b+1*), "the snapshot of block *b*" is globally well-defined, and a remote
read is deterministic: every participant resolves the identical value no
matter when its messages arrive. That is what lets the vote exchange be
the *only* cross-shard coordination — reads need no locks, just one
(priced) network round.

:class:`FederatedSnapshot` implements the snapshot interface the
simulation context consumes (``get`` / ``scan``) by routing each key to its
owner's :class:`~repro.storage.mvstore.MVStore` snapshot at the same block
height; :func:`wire_federation` is the one place a shard executor is
pointed at it.
"""

from __future__ import annotations

import heapq
from operator import itemgetter

from repro.shard.router import ShardRouter


def wire_federation(executor, router: ShardRouter, stores: list, shard: int) -> None:
    """Make ``executor`` shard ``shard`` of the database held in ``stores``:
    its snapshots read every shard, its commits install only keys it owns.

    ``stores`` is captured by reference — swapping a slot (a recovered
    shard re-entering the fleet) re-points every executor wired against the
    same list. With one store there is nothing to federate: the hooks stay
    ``None`` and every code path is the unsharded one.
    """
    if len(stores) == 1:
        return
    executor.snapshot_source = lambda snap_block_id: FederatedSnapshot(
        router, stores, snap_block_id
    )
    owners = router._static_owners

    def key_scope(key: object) -> bool:
        """Whether ``shard`` owns ``key`` at the router's cursor height."""
        overrides = router._cur_overrides
        if overrides:
            owner = overrides.get(key)
            if owner is not None:
                return owner == shard
        return owners[key] == shard

    executor.key_scope = key_scope


class FederatedSnapshot:
    """A snapshot of the whole sharded database as of one global block."""

    def __init__(self, router: ShardRouter, stores: list, block_id: int) -> None:
        self._views = [store.snapshot(block_id) for store in stores]
        self.block_id = block_id
        #: reads at snapshot ``h`` route by the owner at ``h + 1``:
        #: ownership migrations ship their deltas *inside* the boundary
        #: block, so a pre-boundary snapshot still finds the value (and no
        #: tombstone) on the source shard, a post-boundary one on the
        #: destination. The epoch in force at that height is resolved here,
        #: once: epochs are append-only and cumulative, so its override map
        #: never changes under a later migration, and a read asks it only
        #: when it holds an override, before the router's static owner map.
        self._overrides = router.ownership.overrides_at(block_id + 1)
        self._owners = router._static_owners

    def get(self, key: object):
        overrides = self._overrides
        if overrides:
            owner = overrides.get(key)
            if owner is not None:
                return self._views[owner].get(key)
        return self._views[self._owners[key]].get(key)

    def scan(self, start: object, end: object):
        """Merged range read across every shard's key range.

        Each per-shard scan yields sorted rows; the global result is the
        sorted union (shards own disjoint keys, so no shadowing is
        needed). The per-shard scans are stream-merged lazily — O(log
        shards) per row consumed, nothing materialized — so a consumer
        that stops early (a limit, a missing key probe) never pays for the
        whole range. The keys of one database compare with each other
        (every key is a ``(str, int, …)`` tuple: ``docs/artifacts.md``);
        keys that do not raise ``TypeError``, as they do inside one
        shard's key directory.
        """
        return heapq.merge(
            *(view.scan(start, end) for view in self._views), key=itemgetter(0)
        )
