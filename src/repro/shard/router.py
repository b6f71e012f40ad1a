"""Deterministic keyspace partitioning: key -> shard, versioned by epoch.

The router is a pure function shared by every replica of every shard —
routing decisions must never depend on local state, message timing or dict
iteration order, or replicas would disagree about which shard owns a write.
Two static policies:

- ``hash``   — SHA-256 of the key's text (:data:`repro.encoding.key_text`),
  mod ``num_shards``.
  Re-keying safe: the mapping depends only on (key, num_shards), never on
  insertion order or router instance history.
- ``workload`` — the workload exposes each key's position in a contiguous
  index space (:meth:`~repro.workloads.base.Workload.shard_index`); the
  router splits that space with the same formula
  :class:`~repro.workloads.base.ShardAffinity` generates against, so a
  partition-local transaction stream is also a single-shard transaction
  stream. Keys outside the index space (``None`` position) fall back to
  the hash policy.

On top of the static policy sits the **ownership-epoch layer**
(:class:`~repro.shard.rebalance.OwnershipTable`): epoch 0 is the static
policy, later epochs add per-key overrides effective from an exact block
height. The router keeps a *height cursor* (:meth:`advance_to`) so the
hot single-argument lookups (``shard_of``, ``route_block``, the executors'
``key_scope`` predicates) stay cursor-relative, while height-explicit
callers (replay, migration splits) use :meth:`shard_of_at` and a snapshot
binds its epoch's override map once
(:class:`~repro.shard.federated.FederatedSnapshot`).

The static owner of a key never changes for the life of a router, so it
lives in one owner map (:class:`StaticOwners`) that evaluates the policy
on a key's first lookup and remembers it: every hot lookup is one
subscript of that map, after a ``dict.get`` on the epoch's overrides only
while there are any. Only the *static* answer is ever stored, so
installing an epoch or moving the cursor invalidates nothing.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

from repro.encoding import key_text
from repro.shard.rebalance import OwnershipTable
from repro.workloads.base import Workload, partition_split_points


class StaticOwners(dict):
    """key -> static-policy owner, filled on a key's first lookup.

    ``owners[key]`` is the routing hot path: a remembered key costs one
    subscript, a new one a ``__missing__`` call that evaluates the policy
    once. It holds the policy's inputs, not the router (nor a bound method
    of it), so it adds no reference cycle. A one-shard map answers 0 and
    remembers nothing: there is nothing to decide.
    """

    __slots__ = ("num_shards", "_index_fn", "_index_bounds")

    def __init__(self, num_shards: int, index_fn=None, index_bounds=None) -> None:
        super().__init__()
        self.num_shards = num_shards
        self._index_fn = index_fn
        #: the workload policy's split points; ``None`` under the hash policy
        self._index_bounds = index_bounds

    def evaluate(self, key: object) -> int:
        """Evaluate the static policy for ``key`` (pure, unremembered)."""
        if self._index_bounds is not None:
            position = self._index_fn(key)
            if position is not None:
                return bisect_right(self._index_bounds, position)
        digest = hashlib.sha256(key_text(key).encode()).digest()
        return int.from_bytes(digest[:8], "big") % self.num_shards

    def __missing__(self, key: object) -> int:
        if self.num_shards == 1:
            return 0
        owner = self[key] = self.evaluate(key)
        return owner


def _has_footprint(workload) -> bool:
    """Whether ``workload``'s class compiles scan footprints (overrides
    :meth:`~repro.workloads.base.Workload.spec_footprint`)."""
    method = getattr(type(workload), "spec_footprint", None)
    return method is not None and method is not Workload.spec_footprint


class BlockRoute:
    """One global block's routing facts, each derived once
    (:meth:`ShardRouter.route_block`).

    ``participants[j]`` is the shard set of the block's ``j``-th
    transaction and ``cross`` maps the global TID of every multi-shard one
    to its set. ``cuts[shard]`` is that shard's sub-block as ``(specs,
    tids)`` lists in block order; ``records[j]`` is ``(coordinator, index)``,
    where transaction ``j``'s coordinator record sits in its lowest
    participant's sub-block; ``cross_slots[shard]`` the sub-block indexes
    of the shard's cross-shard transactions. ``routed[j]`` holds the
    transaction's ``(key, shard)`` pairs when the caller asked for them.
    """

    __slots__ = ("participants", "routed", "cross", "cuts", "records", "cross_slots")

    def __init__(self, participants, specs, first_tid, num_shards, routed=None) -> None:
        self.participants = participants
        self.routed = routed
        cut_specs = [[] for _ in range(num_shards)]
        cut_tids = [[] for _ in range(num_shards)]
        cross_slots = [[] for _ in range(num_shards)]
        records = []
        cross = {}
        tid = first_tid
        for spec, parts in zip(specs, participants):
            if len(parts) == 1:
                (shard,) = parts
                these = cut_specs[shard]
                records.append((shard, len(these)))
                these.append(spec)
                cut_tids[shard].append(tid)
            else:
                cross[tid] = parts
                coordinator = min(parts)
                records.append((coordinator, len(cut_specs[coordinator])))
                for shard in parts:
                    these = cut_specs[shard]
                    cross_slots[shard].append(len(these))
                    these.append(spec)
                    cut_tids[shard].append(tid)
            tid += 1
        self.cross = cross
        self.cuts = list(zip(cut_specs, cut_tids))
        self.records = records
        self.cross_slots = cross_slots


class ShardRouter:
    """Deterministic key -> shard mapping plus block-level routing."""

    def __init__(
        self,
        num_shards: int,
        policy: str = "hash",
        index_fn=None,
        index_space: int | None = None,
        ownership: OwnershipTable | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if policy not in ("hash", "workload"):
            raise ValueError(f"routing policy {policy!r} is not 'hash' or 'workload'")
        if policy == "workload" and (index_fn is None or not index_space):
            raise ValueError("workload policy needs index_fn and index_space")
        self.num_shards = num_shards
        self.policy = policy
        self._index_fn = index_fn
        self._index_space = index_space
        #: workload policy: the shared, cached split points — shard_of sits
        #: on every read/scope check, so each call is one bisect, and the
        #: formula is literally the one the affinity generator folds with.
        self._index_bounds = (
            partition_split_points(index_space, num_shards)
            if policy == "workload"
            else None
        )
        #: versioned per-key ownership overrides; epoch 0 == static policy
        self.ownership = ownership if ownership is not None else OwnershipTable()
        #: the height cursor single-argument lookups resolve against
        self._cursor_height = 0
        self._cur_overrides = self.ownership.overrides_at(0)
        #: key -> static-policy owner, filled as keys are first routed
        #: (never by :meth:`split_state`: a bulk load touches every key
        #: once, so remembering them would only move their evaluation from
        #: the run into set-up and hold the untouched ones in memory)
        self._static_owners = StaticOwners(num_shards, index_fn, self._index_bounds)

    @classmethod
    def for_workload(cls, workload, num_shards: int) -> "ShardRouter":
        """The router aligned with ``workload``'s partition layout.

        Uses the workload policy when the workload exposes index hints
        (YCSB / SmallBank / hotspot); otherwise the hash policy — still
        correct, just blind to any affinity the generator applied.
        """
        space = getattr(workload, "shard_space", None)
        if space:
            return cls(
                num_shards,
                policy="workload",
                index_fn=workload.shard_index,
                index_space=space,
            )
        return cls(num_shards, policy="hash")

    # ------------------------------------------------------------- epochs
    @property
    def ownership_epoch(self) -> int:
        """The newest installed ownership epoch."""
        return self.ownership.epoch

    @property
    def cursor_height(self) -> int:
        return self._cursor_height

    def advance_to(self, height: int) -> None:
        """Point the cursor at ``height``; single-argument lookups then
        resolve ownership as of that block. The replay loop
        (:func:`repro.shard.replay.replay_blocks`) pins it per replayed
        height and puts it back for the live chain."""
        self._cursor_height = height
        self._cur_overrides = self.ownership.overrides_at(height)

    def apply_migration(self, record) -> int:
        """Install a certified ownership change and move the cursor to its
        effective height. Epochs are strictly sequential — a gap means a
        replica missed a record, which must fail loudly."""
        if record.epoch != self.ownership.epoch + 1:
            raise ValueError(
                f"migration epoch {record.epoch} does not follow "
                f"installed epoch {self.ownership.epoch}"
            )
        self.ownership.append(record.block_id, dict(record.moves))
        self.advance_to(record.block_id)
        return record.epoch

    # ------------------------------------------------------------- routing
    def shard_of(self, key: object) -> int:
        """The shard owning ``key`` at the cursor height; deterministic
        across replicas."""
        overrides = self._cur_overrides
        if overrides:
            owner = overrides.get(key)
            if owner is not None:
                return owner
        return self._static_owners[key]

    def shard_of_at(self, key: object, height: int) -> int:
        """The shard owning ``key`` at block ``height`` (cursor-free).

        Snapshot reads at height ``h`` route by the owner at ``h + 1``:
        migration deltas land inside the boundary block, so the value
        visible at a pre-boundary snapshot is still on the source."""
        override = self.ownership.overrides_at(height).get(key)
        if override is not None:
            return override
        return self._static_owners[key]

    def route_block(self, workload, specs, first_tid: int, pairs: bool = False) -> BlockRoute:
        """Every routing fact of one global block, derived in one pass.

        A transaction's participant set may be a superset of its true
        owners (a spare participant prepares an empty local footprint and
        votes commit); it must never be an underset, or a cross-shard
        conflict would go unvalidated. Per spec, in this order:

        1. A compiled :class:`~repro.workloads.base.ScanFootprint`
           (``spec_footprint``, consulted only when the workload's class
           defines one): exact point keys plus index-space scan ranges,
           covered via the static split points *and* a stab of every
           ownership override inside the ranges — true participant sets
           for scans instead of a broadcast.
        2. A static key footprint (``spec_keys``).
        3. Neither (``None``/empty): broadcast to every shard —
           conservative, always correct.

        The owner map is read inline (the epoch's overrides first, while
        there are any). ``pairs`` asks for each spec's routed ``(key,
        shard)`` pairs too — the rebalance policy's telemetry.
        """
        owners = self._static_owners
        overrides = self._cur_overrides
        if overrides:
            def owner(key):
                shard = overrides.get(key)
                return owners[key] if shard is None else shard
        else:
            owner = owners.__getitem__
        everyone = frozenset(range(self.num_shards))
        spec_keys = workload.spec_keys
        footprint_of = workload.spec_footprint if _has_footprint(workload) else None
        routed = [] if pairs else None
        participants = []
        for spec in specs:
            footprint = None if footprint_of is None else footprint_of(spec)
            if footprint is None:
                keys = spec_keys(spec) or ()
                parts = shards = list(map(owner, keys))
            else:
                keys = footprint.points
                shards = list(map(owner, keys))
                parts = self._range_shards(footprint).union(shards)
            participants.append(frozenset(parts) if parts else everyone)
            if routed is not None:
                routed.append(list(zip(keys, shards)))
        return BlockRoute(participants, specs, first_tid, self.num_shards, routed)

    def _range_shards(self, footprint) -> set:
        """Shards whose ownership intersects the footprint's index ranges."""
        if not footprint.ranges:
            return set()
        shards: set[int] = set()
        if self._index_bounds is not None:
            # Static cover: the contiguous shard span of each range.
            for lo, hi in footprint.ranges:
                if hi <= lo:
                    continue
                first = bisect_right(self._index_bounds, lo)
                last = bisect_right(self._index_bounds, hi - 1)
                shards.update(range(first, last + 1))
        else:
            # The hash policy cannot bound a scan in index space.
            return set(range(self.num_shards))
        # Overridden keys inside a scanned range may live anywhere: stab
        # each override's index position against the compiled ranges.
        if self._cur_overrides and self._index_fn is not None:
            for key, shard in self._cur_overrides.items():
                position = self._index_fn(key)
                if position is not None and footprint.covers_index(position):
                    shards.add(shard)
        return shards

    def split_state(self, state: dict) -> list[dict]:
        """Partition an initial-state map into per-shard slices. Genesis
        belongs to epoch 0 — the static policy — wherever the cursor is:
        a replica built mid-run replays the migrations itself."""
        if self.num_shards == 1:
            return [state]
        shards: list[dict] = [{} for _ in range(self.num_shards)]
        static_shard = self._static_owners.evaluate
        for key, value in state.items():
            shards[static_shard(key)][key] = value
        return shards
