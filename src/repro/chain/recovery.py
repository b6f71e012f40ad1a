"""Crash recovery by deterministic replay (Section 4, Recovery).

HarmonyBC persists the small *input* blocks before execution (logical
logging) and checkpoints dirty pages every *p* blocks. Recovery loads the
latest usable checkpoint — reconstructed by folding the delta chain onto
its base (see :mod:`repro.storage.checkpoint`); the previous recovery
point survives a crash mid-checkpoint because chain entries are never
overwritten — and re-executes the logged blocks after it. Determinism
guarantees the replica converges to exactly the state it held before the
crash, with no ARIES-style redo/undo. :func:`rebuild_engine` is the first
half (shared with sharded recovery); the re-execution is the one replay
loop, :func:`repro.shard.replay.replay_blocks`.

Under inter-block parallelism the first replayed block simulates against a
lag-2 snapshot, so checkpoints capture the previous block's state and the
Rule-3 committed-writer records too (see ``StorageEngine.checkpoint_if_due``).
"""

from __future__ import annotations

from repro.chain.node import ReplicaNode
from repro.storage.checkpoint import Checkpoint
from repro.storage.engine import StorageEngine
from repro.storage.wal import LogMode


def rebuild_engine(
    old_engine: StorageEngine,
) -> tuple[StorageEngine, int, Checkpoint | None]:
    """Rebuild a storage engine from a crashed engine's durable state.

    Returns ``(engine, replay_from, checkpoint)``: the fresh engine loaded
    with the newest usable checkpoint (delta chains folded onto their
    base), the block id replay resumes after, and the checkpoint itself
    (``None`` when recovery starts from genesis). Shared by single-replica
    recovery and the sharded drill (:mod:`repro.shard.recovery`).
    """
    checkpoint = old_engine.checkpoints.latest()

    engine = StorageEngine(
        costs=old_engine.base_costs,
        profile=old_engine.profile,
        pool_pages=old_engine.pool.capacity,
        log_mode=LogMode.LOGICAL,
        checkpoint_interval=old_engine.checkpoints.interval_blocks,
        checkpoint_base_interval=old_engine.checkpoints.base_interval,
    )
    if checkpoint is None:
        # No checkpoint yet: replay the whole chain from genesis state.
        replay_from = -1
        engine.preload(old_engine.genesis_state)
        return engine, replay_from, checkpoint

    engine.genesis_state = engine.checkpoints.genesis = dict(old_engine.genesis_state)
    replay_from = checkpoint.block_id
    engine.store.load(checkpoint.prev_state, block_id=-1)
    # fast-forward version history so the replayed blocks see both
    # snapshot(block-1) and snapshot(block), then replay the checkpoint
    # block's recorded writes verbatim: the version batch (same
    # (block_id, seq) tags, same TOMBSTONEs) comes out identical to an
    # uncrashed replica's, which SOV-style version checks rely on. A state
    # diff cannot do this — it is blind to keys rewritten with an
    # unchanged value.
    engine.store.last_committed_block = checkpoint.block_id - 1
    engine.store.apply_block(checkpoint.block_id, list(checkpoint.block_writes))
    # Restart the delta chain from the recovery point: the first
    # post-recovery deltas cover only replayed blocks, so they must fold
    # onto this base, not onto genesis.
    engine.checkpoints.seed_base(checkpoint)
    engine.heap.load(engine.store.keys())
    engine.reset_stats()
    return engine, replay_from, checkpoint


def recover_node(crashed: ReplicaNode) -> ReplicaNode:
    """Rebuild a replica from its checkpoint + block log.

    A replica on its own is the one-shard case of
    :func:`~repro.shard.recovery.recover_shard_node` with no peers and
    therefore no certificate stream: no transaction was ever vetoed from
    outside, nothing migrated. Same rebuild, same replay loop
    (:func:`repro.shard.replay.replay_blocks`), each block committed right
    after its prepare.
    """
    # imported here: shard/ sits above this module (it rebuilds engines
    # with :func:`rebuild_engine`)
    from repro.shard.recovery import recover_shard_node

    return recover_shard_node(
        crashed, 0, [crashed.engine.store], None, None, pipelined=False
    ).node
