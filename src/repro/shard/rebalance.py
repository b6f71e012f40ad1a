"""Adaptive sharding: deterministic live re-keying driven by telemetry.

Static routing (hash / range / workload) is a pure function of the key,
so a migrating Zipf hotspot either saturates one shard (partition-aligned
policies) or scatters every transaction's footprint across the fleet
(hash), and the scaling wins of multi-shard execution evaporate. This
module closes the loop from *observed* load back to routing:

- :class:`OwnershipTable` — an append-only, versioned key-ownership
  overlay on top of the router's static policy. Epoch 0 is the static
  policy itself; each later epoch adds a batch of per-key overrides that
  become effective at an exact block height.
- :class:`MigrationRecord` — the ownership-change record that rides the
  certificate log as a first-class, hash-covered field of the boundary
  block's :class:`~repro.shard.twopc.CommitCertificate`. Every replay
  surface walks that stream through one loop
  (:func:`repro.shard.replay.replay_blocks`), so they all apply the
  identical migration at the identical height — the same trick the 2PC
  decisions use.
- :class:`RebalancePolicy` — watches the decision-layer load telemetry
  (per-key routed-access counts, per-shard load, cross-shard ratio: the
  same quantities ``repro.obs.analyze.shard_skew`` reports) and proposes
  key moves. Inputs are *decision-layer only* — counts accumulated while
  routing, never timing annotations — so the disturbed and reference
  sides of a fault drill fire bit-identical migrations.

Physical shipment happens at the ``H-1 -> H`` block boundary: the moved
keys' latest versions are loaded into the destination store as a version
batch *inside* block ``H-1`` (``seq`` offset by
:data:`~repro.storage.mvstore.MIGRATION_SEQ_BASE` so they sort after the
block's real writes), and the source store receives TOMBSTONEs the same
way. That keeps the per-shard AdHash state hashes summing to the same
combined hash, keeps :class:`~repro.shard.federated.FederatedSnapshot`
scans disjoint, and makes snapshot reads at height ``h`` route by the
owner at ``h+1`` (pre-migration snapshots still find the value on the
source, post-boundary snapshots on the destination).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.encoding import encode, key_text
from repro.storage.mvstore import MIGRATION_SEQ_BASE, TOMBSTONE

__all__ = [
    "MIGRATION_SEQ_BASE",
    "OwnershipTable",
    "MigrationRecord",
    "RebalanceProposal",
    "RebalancePolicy",
    "install_migration",
    "migration_store_deltas",
]


class OwnershipTable:
    """Append-only versioned key-ownership overrides.

    Epoch *e* is a cumulative ``{key: shard}`` override map effective for
    every block at or above its height. Epoch 0 (height 0, empty map) is
    the router's static policy. Cumulative maps make the hot-path lookup
    a single ``dict.get``.
    """

    def __init__(self) -> None:
        self._heights: list[int] = [0]
        self._overrides: list[dict] = [{}]

    @property
    def epoch(self) -> int:
        """The newest epoch number (0 = static policy only)."""
        return len(self._heights) - 1

    def append(self, height: int, moves) -> int:
        """Install a new epoch effective at ``height``; returns its number."""
        if height < self._heights[-1]:
            raise ValueError(
                f"epoch height {height} precedes current epoch at "
                f"{self._heights[-1]}"
            )
        merged = dict(self._overrides[-1])
        merged.update(moves)
        self._heights.append(height)
        self._overrides.append(merged)
        return self.epoch

    def epoch_at(self, height: int) -> int:
        """The epoch in force for block ``height``."""
        return max(0, bisect_right(self._heights, height) - 1)

    def overrides_at(self, height: int) -> dict:
        return self._overrides[self.epoch_at(height)]


@dataclass(frozen=True)
class MigrationRecord:
    """One ownership change, certified at block ``block_id``.

    The record is decided at the *start* of block ``block_id`` from
    telemetry through ``block_id - 1``, applied to the router before that
    block is routed, and carried (hash-covered) on that block's commit
    certificate. ``moves`` re-keys ownership; ``deltas`` are the shipped
    latest versions of the moved keys as of ``block_id - 1`` (keys whose
    latest version is a deletion ship no value — ownership still moves).
    """

    block_id: int
    epoch: int
    #: ((key, dst_shard), ...) sorted by ``key_text(key)``
    moves: tuple = ()
    #: ((key, value), ...) in ``moves`` order, live keys only
    deltas: tuple = ()
    reason: str = ""

    def payload_text(self) -> str:
        """Canonical text folded into the certificate hash."""
        moves = ",".join(f"{key_text(key)}->{dst}" for key, dst in self.moves)
        deltas = ",".join(
            f"{key_text(key)}={encode(value)}" for key, value in self.deltas
        )
        return (
            f"epoch={self.epoch};block={self.block_id};"
            f"moves=[{moves}];deltas=[{deltas}];reason={self.reason}"
        )


def migration_store_deltas(record: MigrationRecord, router) -> dict[int, dict]:
    """The store loads a migration implies, per shard: moved keys map to
    their shipped values on the destination and to TOMBSTONE on the source.

    Sources resolve through the ownership table *at the pre-boundary
    height*, so the split is identical whether the record's epoch is
    already appended or not — recovery and replay reuse this on
    long-settled tables.
    """
    dst_of = dict(record.moves)
    prev = record.block_id - 1
    incoming: dict[int, dict] = {}
    shipments: dict[int, dict] = {}
    for key, value in record.deltas:
        dst = dst_of[key]
        src = router.shard_of_at(key, prev)
        if src == dst:
            continue
        incoming.setdefault(dst, {})[key] = value
        shipments.setdefault(src, {})[key] = TOMBSTONE
    # a shard's departures load before its arrivals: the loads take their
    # sequence numbers inside the boundary block in this order
    for shard, items in incoming.items():
        shipments.setdefault(shard, {}).update(items)
    return shipments


def install_migration(
    record: MigrationRecord,
    router,
    executors: dict,
    watermarks: list | None = None,
    fates: dict | None = None,
) -> None:
    """Land a certified ownership change on the shards in ``executors``.

    Every executor gets the migration fence for block ``record.block_id``;
    every shard with a shipment loads it inside the boundary block
    ``record.block_id - 1``, provided its store sits exactly there — a
    store behind the boundary (open partition window) is served later, by
    catch-up, from the same certified record. The router's ownership table
    is the caller's business: the live chain appends the epoch first,
    replay finds it already there.

    ``watermarks[shard]`` is the newest epoch whose shipment landed on that
    shard's store: a record at or below it is not applied twice, an
    unharmed load raises it (``None``: stores rebuilt from their own log,
    which replays everything that ever landed). ``fates`` (the armed
    migration fault hook) loses a shard's shipment (``"skip"``) or tears
    it in half (``"torn"``); recovery re-derives it from the certificate
    stream.
    """
    fence = frozenset(dict(record.moves))
    for executor in executors.values():
        executor.migration_fences[record.block_id] = fence
    boundary = record.block_id - 1
    for shard, items in migration_store_deltas(record, router).items():
        fate = fates.get(shard) if fates else None
        if fate == "skip":
            continue
        if watermarks is not None and watermarks[shard] >= record.epoch:
            continue
        executor = executors.get(shard)
        if executor is None:
            continue
        engine = executor.engine
        if engine.store.last_committed_block != boundary:
            continue
        if fate == "torn":
            items = dict(list(items.items())[: len(items) // 2])
        engine.apply_migration(boundary, items)
        if watermarks is not None and fate is None:
            watermarks[shard] = record.epoch


@dataclass(frozen=True)
class RebalanceProposal:
    """A policy's side-effect-free migration proposal."""

    #: ((key, dst_shard), ...) sorted by ``key_text(key)``
    moves: tuple
    reason: str


class RebalancePolicy:
    """Skew-watching migration policy over decision-layer telemetry.

    Accumulates, per check window, the per-key routed-access counts, the
    per-shard load they imply, and the cross-shard transaction ratio —
    all from the routing step, never from timing. At each check boundary
    (past warmup, respecting cooldown) it computes the same busy/mean
    skew ratio ``shard_skew`` reports and fires on either trigger:

    - *scatter* (cross-shard ratio >= ``cross_threshold``): the hot key
      set is spread across shards, so nearly every transaction pays 2PC;
      colocate the hottest ``max_keys`` keys on the shard that already
      owns the plurality of their traffic.
    - *skew* (load skew >= ``skew_threshold``): one shard is saturated;
      move its hottest keys, as a group, to the least-loaded shard.

    All tie-breaks are ``(-count, key_text(key))`` / smallest-shard-id, so
    every replica proposes the identical record.

    The check window, warmup and cooldown are two blocks each; a run
    configures the two thresholds and ``max_keys`` (:meth:`from_config`).
    """

    def __init__(
        self,
        num_shards: int,
        check_interval: int = 2,
        warmup_blocks: int = 2,
        cooldown_blocks: int = 2,
        skew_threshold: float = 2.0,
        cross_threshold: float = 0.5,
        max_keys: int = 32,
    ) -> None:
        if num_shards < 2:
            raise ValueError("rebalancing needs at least two shards")
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.num_shards = num_shards
        self.check_interval = check_interval
        self.warmup_blocks = warmup_blocks
        self.cooldown_blocks = cooldown_blocks
        self.skew_threshold = skew_threshold
        self.cross_threshold = cross_threshold
        self.max_keys = max_keys
        self._key_counts: dict[object, int] = {}
        self._shard_counts = [0] * num_shards
        self._txns = 0
        self._cross = 0
        self._last_fired = -(10**9)

    @classmethod
    def from_config(cls, config) -> "RebalancePolicy":
        return cls(
            config.num_shards,
            skew_threshold=config.rebalance_skew_threshold,
            cross_threshold=config.rebalance_cross_threshold,
            max_keys=config.rebalance_max_keys,
        )

    # -------------------------------------------------------------- telemetry
    def begin_block(self, height: int) -> None:
        """Start a block; check boundaries reset the window counters."""
        if height > 0 and height % self.check_interval == 0:
            self._key_counts.clear()
            self._shard_counts = [0] * self.num_shards
            self._txns = 0
            self._cross = 0

    def observe_txn(self, routed_keys, participants) -> None:
        """Account one transaction's routed footprint.

        ``routed_keys`` is an iterable of ``(key, shard)`` pairs from the
        routing step; ``participants`` the transaction's participant set.
        """
        counts = self._key_counts
        shards = self._shard_counts
        for key, shard in routed_keys:
            counts[key] = counts.get(key, 0) + 1
            shards[shard] += 1
        self._txns += 1
        if len(participants) > 1:
            self._cross += 1

    # --------------------------------------------------------------- decision
    def window_skew(self) -> float:
        """Busy/mean load skew of the current window (1.0 when degenerate —
        the same convention ``obs.analyze.shard_skew`` hardens to)."""
        total = sum(self._shard_counts)
        if total <= 0:
            return 1.0
        mean = total / self.num_shards
        return max(self._shard_counts) / mean

    def cross_ratio(self) -> float:
        return self._cross / self._txns if self._txns else 0.0

    def propose(self, height: int, router) -> RebalanceProposal | None:
        """Side-effect-free: the migration this window's telemetry asks
        for, or ``None``. The caller commits it (and then calls
        :meth:`committed`) or drops it."""
        if height < self.warmup_blocks or height % self.check_interval != 0:
            return None
        if height - self._last_fired < self.cooldown_blocks:
            return None
        if not self._key_counts:
            return None
        skew = self.window_skew()
        cross = self.cross_ratio()
        hot = sorted(
            self._key_counts.items(), key=lambda kv: (-kv[1], key_text(kv[0]))
        )[: self.max_keys]
        if cross >= self.cross_threshold:
            moves = self._colocate(hot, router)
            if moves:
                return RebalanceProposal(
                    moves=moves, reason=f"scatter:cross={cross:.2f}"
                )
        if skew >= self.skew_threshold:
            moves = self._offload(hot, router)
            if moves:
                return RebalanceProposal(
                    moves=moves, reason=f"skew={skew:.2f}"
                )
        return None

    def _colocate(self, hot, router) -> tuple:
        """Gather the hot set on the shard already owning most of it."""
        weight = [0] * self.num_shards
        owner = {}
        for key, count in hot:
            shard = router.shard_of(key)
            owner[key] = shard
            weight[shard] += count
        dst = max(range(self.num_shards), key=lambda s: (weight[s], -s))
        moves = tuple(
            (key, dst)
            for key, _count in hot
            if owner[key] != dst
        )
        return tuple(sorted(moves, key=lambda kv: key_text(kv[0])))

    def _offload(self, hot, router) -> tuple:
        """Move the hottest shard's hot keys, as a group, to the coldest."""
        loads = self._shard_counts
        src = max(range(self.num_shards), key=lambda s: (loads[s], -s))
        dst = min(range(self.num_shards), key=lambda s: (loads[s], s))
        if src == dst:
            return ()
        moves = tuple(
            (key, dst)
            for key, _count in hot
            if router.shard_of(key) == src
        )
        return tuple(sorted(moves, key=lambda kv: key_text(kv[0])))

    def committed(self, height: int) -> None:
        """A proposal fired at ``height`` was certified; start cooldown."""
        self._last_fired = height
        self._key_counts.clear()
        self._shard_counts = [0] * self.num_shards
        self._txns = 0
        self._cross = 0


def build_migration_record(
    height: int, epoch: int, proposal: RebalanceProposal, value_of
) -> MigrationRecord:
    """Materialize a proposal into the certified record.

    ``value_of(key)`` returns the key's raw latest chain entry
    ``(value, version)`` on its *current* owner as of ``height - 1``;
    keys with no visible live version (absent or deleted) move ownership
    without shipping a value.
    """
    deltas = []
    for key, _dst in proposal.moves:
        value, version = value_of(key)
        if version is None or value is TOMBSTONE:
            continue
        deltas.append((key, value))
    return MigrationRecord(
        block_id=height,
        epoch=epoch,
        moves=proposal.moves,
        deltas=tuple(deltas),
        reason=proposal.reason,
    )
