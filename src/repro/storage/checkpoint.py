"""Block-granularity checkpointing and the persisted block log (Section 4).

HarmonyBC persists the small input blocks before execution (logical
logging) and flushes dirty pages every ``p`` blocks. The previous
checkpoint is never overwritten, so a crash *during* checkpointing still
recovers from the one before — we keep the last two recovery points, like
the paper's use of PostgreSQL's multi-versioned storage.

Incremental (delta-chain) checkpoints
-------------------------------------
Deep-copying the entire materialized state every interval is an
O(keyspace) stall that dwarfs the write rate it amortizes. Section 4 only
requires flushing *dirty* state, so the durable record is a **chain**:

- a periodic **base** checkpoint (the full state, compacted every
  ``base_interval`` intervals by folding the chain — never by re-scanning
  the live store), and
- one **delta** per interval: the ordered writes of every block since the
  previous chain entry (already in hand on the commit path), O(interval
  writes) to persist instead of O(keyspace). The delta isolates itself
  from the caller with a purpose-built copy (:func:`_isolated`: fresh
  containers, shared atoms) rather than generic ``copy.deepcopy``;
  protocol ``meta`` values that are immutable by construction (Harmony's
  ``PrevBlockRecords``) say so through ``__deepcopy__`` and are shared.

Recovery folds the deltas onto the newest base to reconstruct ``state`` /
``prev_state`` / ``block_writes`` bit-identically to a full snapshot, then
replays the block log as before. The keep-last-two torn-checkpoint
discipline holds at the *chain* level: pruning always retains the chain
prefix one recovery point behind the tip, so a crash mid-delta or
mid-base-compaction falls back to the prior usable prefix.

The chain is the only checkpoint path. The seed's full deep copy per
interval is a test reference (``tests/reference``: ``full_checkpoint``);
the recovery tests assert :meth:`CheckpointManager.latest` equal to it at
every checkpoint boundary.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from dataclasses import dataclass

from repro.storage.mvstore import TOMBSTONE


@dataclass
class Checkpoint:
    """A full (base) checkpoint: the materialized durable state. Only
    :meth:`CheckpointManager._reconstruct` builds one, so every field is
    always present."""

    block_id: int
    state: dict[object, object]
    #: state as of the previous block (needed when the first replayed block
    #: simulates against a lag-2 snapshot under inter-block parallelism)
    prev_state: dict[object, object]
    #: protocol metadata (e.g. Harmony's committed-writer records, Rule 3)
    meta: dict | None
    #: the checkpoint block's ordered writes (TOMBSTONEs included) — lets
    #: recovery replay the block's version batch exactly instead of
    #: diffing ``state`` against ``prev_state`` (a value diff misses keys
    #: rewritten with an unchanged value, losing their version)
    block_writes: list[tuple[object, object]]


@dataclass
class DeltaCheckpoint:
    """One interval's durable delta: the ordered writes of every block
    since the previous chain entry, as ``(block_id, writes)`` pairs in
    block order. O(interval writes) to persist, where deep-copying the
    whole materialized state is O(keyspace)."""

    block_id: int
    block_writes: list[tuple[int, list[tuple[object, object]]]]
    meta: dict | None = None


#: value types that cannot be mutated in place, so a copy may share them
_ATOMS = frozenset({int, float, bool, str, bytes, type(None), type(TOMBSTONE)})


def _isolated(value: object) -> object:
    """A copy of ``value`` that no later mutation of the original can reach.

    Stored values are scalars or flat rows, and keys are immutable tuples:
    atoms are shared, ``dict``/``list``/``tuple`` containers rebuilt, and
    anything else goes through ``copy.deepcopy`` (which honours a type's
    own ``__deepcopy__``).
    """
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is dict:
        if _ATOMS.issuperset(map(type, value.values())):
            return dict(value)  # a flat row: one copy, its atoms shared
        return {key: _isolated(item) for key, item in value.items()}
    if kind is list:
        return [_isolated(item) for item in value]
    if kind is tuple:
        return tuple([_isolated(item) for item in value])
    return copy.deepcopy(value)


def fold_writes(state: dict[object, object], writes) -> None:
    """Apply one block's ordered writes to a materialized-state dict.

    Mirrors :meth:`MVStore.materialize` semantics exactly: a TOMBSTONE
    deletes the key, everything else (including a stored ``None``) is a
    live entry.
    """
    for key, value in writes:
        if value is TOMBSTONE:
            state.pop(key, None)
        else:
            state[key] = value


def _sorted_state(state: dict[object, object]) -> dict[object, object]:
    """Re-key a folded state into sorted-key order.

    :meth:`MVStore.materialize` emits keys in ``_sorted_keys`` order, and
    recovery's ``store.load`` derives version ``seq`` tags from dict order
    — so folded states must match the full snapshot's order bit-for-bit.
    """
    return dict(sorted(state.items(), key=lambda kv: kv[0]))


class BlockLog:
    """Durable record of ordered input blocks, for deterministic replay."""

    def __init__(self) -> None:
        self._blocks: list[object] = []
        self._ids: list[int] = []
        #: fault-injection hook (``hook(block) -> bool``): a truthy return
        #: tears the append — the log write never became durable, as if the
        #: crash hit mid-write. ``None`` (the default) costs one attribute
        #: check; armed only by :mod:`repro.faults.inject`.
        self.fault_hook = None

    def append(self, block: object) -> None:
        block_id = block.block_id
        if self._ids and block_id <= self._ids[-1]:
            # Appends arrive in id order (the ledger's chain check rejects
            # anything else first); the bisect fast path relies on it.
            raise ValueError(
                f"block {block_id} appended after block {self._ids[-1]}"
            )
        if self.fault_hook is not None and self.fault_hook(block):
            return  # torn log tail: the block was never durably persisted
        self._blocks.append(block)
        self._ids.append(block_id)

    def blocks_after(self, block_id: int) -> list[object]:
        """Blocks with id strictly greater than ``block_id``, in order.

        Blocks append in id order, so the cut point is one bisect instead
        of a full scan per recovery.
        """
        return self._blocks[bisect_right(self._ids, block_id):]

    def __len__(self) -> int:
        return len(self._blocks)


class CheckpointManager:
    """Keeps the last two durable recovery points, on a base+delta chain."""

    def __init__(self, interval_blocks: int = 10, base_interval: int = 8) -> None:
        if interval_blocks < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if base_interval < 1:
            raise ValueError("base-compaction cadence must be >= 1")
        self.interval_blocks = interval_blocks
        #: deltas between base compactions (the chain's maximum length)
        self.base_interval = base_interval
        #: the chain: Checkpoint (base) and DeltaCheckpoint entries
        self._entries: list[Checkpoint | DeltaCheckpoint] = []
        self._deltas_since_base = 0
        #: block id of the newest chain entry (-1 = none yet) — the next
        #: delta must cover exactly the blocks after it
        self.last_checkpoint_block = -1
        #: the preloaded genesis state — the implicit base the chain folds
        #: from until the first compaction (values are never mutated)
        self.genesis: dict[object, object] = {}
        #: Simulates a crash mid-checkpoint: when True, the newest chain
        #: entry (delta or base) is considered torn and unusable.
        self.torn_latest = False
        #: fault-injection hook (``hook(block_id) -> "skip" | "tear" | None``):
        #: ``"skip"`` suppresses the checkpoint entirely (the crash landed
        #: between the commit and the checkpoint write; the shard is then
        #: rebuilt from the chain before it, never checkpointed again as is);
        #: ``"tear"`` takes it but marks the chain tip torn (crash *during*
        #: the write — for a base compaction, the tip is the fresh base).
        #: ``None`` default costs one attribute check per checkpoint.
        self.fault_hook = None
        #: ``(block_id, directive, blocks, writes, compacted)`` of the newest
        #: :meth:`delta_checkpoint` call — the fault directive (``None``,
        #: ``"skip"``, ``"tear"``), the interval's block and write counts and
        #: whether a base compaction fired; read by the run's tracer
        #: (:meth:`repro.obs.trace.Tracer.checkpointed`)
        self.last_write: tuple | None = None

    def delta_checkpoint(
        self,
        block_id: int,
        interval_writes: list[tuple[int, list[tuple[object, object]]]],
        meta: dict | None = None,
    ) -> None:
        """Append one interval's delta; compact a new base when due.

        ``interval_writes`` is the ordered ``(block_id, writes)`` record of
        every block applied since the previous chain entry, ending with the
        checkpoint block itself. Only the delta is copied (:func:`_isolated`)
        — O(interval writes), never O(keyspace). Every ``base_interval`` deltas the
        chain is folded into a fresh base so reconstruction and chain
        length stay bounded; the fold reuses the already-isolated delta
        copies, so compaction never touches the live store either.
        """
        fault = self.fault_hook(block_id) if self.fault_hook is not None else None
        blocks = len(interval_writes)
        writes = sum(len(w) for _, w in interval_writes)
        if fault == "skip":
            self.last_write = (block_id, fault, blocks, writes, False)
            return
        self._entries.append(
            DeltaCheckpoint(
                block_id,
                [
                    (bid, [(key, _isolated(value)) for key, value in writes])
                    for bid, writes in interval_writes
                ],
                _isolated(meta),
            )
        )
        self._deltas_since_base += 1
        compacted = self._deltas_since_base >= self.base_interval
        if compacted:
            # Base compaction: fold the chain (not the store) into a full
            # checkpoint at the same block. The delta stays in the chain —
            # if the compaction itself tears, the prefix through the delta
            # recovers the identical state.
            self._entries.append(self._reconstruct(self._entries))
            self._deltas_since_base = 0
        self.last_write = (block_id, fault, blocks, writes, compacted)
        self.last_checkpoint_block = block_id
        if fault == "tear":
            # crash mid-write: the chain tip (the fresh base when the
            # compaction just fired, else this delta) is torn — recovery
            # falls back to the prefix one entry behind it.
            self.torn_latest = True
        self._prune()

    def seed_base(self, checkpoint: Checkpoint) -> None:
        """Restart the chain from a reconstructed checkpoint (recovery).

        The recovered engine's first deltas only cover blocks replayed
        after the recovery point, so they must fold onto this base, not
        onto genesis.
        """
        self._entries = [checkpoint]
        self._deltas_since_base = 0
        self.last_checkpoint_block = checkpoint.block_id
        self.torn_latest = False

    # ------------------------------------------------------------ recovery
    def latest(self) -> Checkpoint | None:
        """The newest usable recovery point (skipping a torn chain tip),
        reconstructed into a full :class:`Checkpoint`."""
        entries = self._entries[:-1] if self.torn_latest else self._entries
        if not entries:
            return None
        return self._reconstruct(entries)

    def _reconstruct(self, entries: list) -> Checkpoint:
        """Fold the chain prefix ``entries`` into a full checkpoint.

        State and prev_state come out in sorted-key order — bit-identical
        (keys, values, and therefore the version tags recovery derives
        from dict order) to ``materialize()`` / ``materialize_at()`` of an
        uncrashed store.
        """
        tip = entries[-1]
        if isinstance(tip, Checkpoint):
            return tip
        base_idx = None
        for i in range(len(entries) - 1, -1, -1):
            if isinstance(entries[i], Checkpoint):
                base_idx = i
                break
        if base_idx is None:
            state = dict(self.genesis)
            deltas = entries
        else:
            state = dict(entries[base_idx].state)
            deltas = entries[base_idx + 1:]
        prev_state: dict[object, object] | None = None
        tip_writes: list[tuple[object, object]] = []
        for delta in deltas:
            for block_id, writes in delta.block_writes:
                if block_id == tip.block_id:
                    prev_state = _sorted_state(state)
                    tip_writes = writes
                fold_writes(state, writes)
        state = _sorted_state(state)
        if prev_state is None:
            # Degenerate: the tip block never recorded writes (manual use);
            # the checkpoint block then installed nothing.
            prev_state = dict(state)
        return Checkpoint(
            tip.block_id,
            state,
            prev_state=prev_state,
            meta=tip.meta,
            block_writes=list(tip_writes),
        )

    def _prune(self) -> None:
        """Keep the last two recovery points, at chain granularity.

        Everything before the newest base that is *not* the chain tip can
        go: the chains through the tip and through the entry before it both
        fold from that base. When the tip itself is a freshly compacted
        base, the previous base (and the deltas between them) must survive
        until a later entry proves the new base durable.
        """
        cut = None
        for i in range(len(self._entries) - 2, -1, -1):
            if isinstance(self._entries[i], Checkpoint):
                cut = i
                break
        if cut is not None and cut > 0:
            del self._entries[:cut]

    @property
    def count(self) -> int:
        return len(self._entries)
