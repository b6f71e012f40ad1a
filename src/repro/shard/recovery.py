"""Cross-shard crash recovery: rebuild one shard under the certificate stream.

A shard that crashes — even in the 2PC window between casting its prepare
vote and the certificate landing — recovers from exactly three durable
artifacts: its checkpoint chain, its logged sub-blocks, and the *global*
hash-chained certificate stream. It never re-runs the vote exchange: the
certificates are the decision record, so replaying sub-blocks and
honouring each block's recorded vetoes reproduces the shard's state
bit-for-bit. The replay itself is the one loop every replay surface
shares (:func:`repro.shard.replay.replay_blocks`); what is recovery's own
is the start — the newest usable checkpoint — and that the blocks come
from the replica's own, already verified log, so they are appended, not
ingested again. A replica that never had peers
(:func:`~repro.chain.recovery.recover_node`) is the same call without a
certificate stream.

Cross-shard reads during replay resolve against the *peers'* multi-version
stores at the historical block heights — block-locked advancement means
those snapshots are globally well-defined, and the version chains retain
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.node import ReplicaNode
from repro.chain.recovery import rebuild_engine
from repro.chain.config import decision_digest
from repro.collector import collector_paused
from repro.core.harmony import HarmonyExecutor
from repro.shard.federated import wire_federation
from repro.shard.replay import replay_blocks
from repro.shard.router import ShardRouter
from repro.shard.twopc import CertificateLog


@dataclass
class ShardRecovery:
    """The outcome of one shard's crash recovery."""

    node: ReplicaNode
    #: block id replay resumed after (-1 = replayed from genesis)
    replay_from: int
    #: digest of the replayed blocks' commit/abort decisions — comparable
    #: against an uncrashed replica's decisions over the same block range
    decision_digest: str
    #: the replayed ``(block_id, BlockExecution)`` pairs behind the digest —
    #: lets a supervisor back-fill the executions the crashed shard never
    #: surfaced through the live pipeline
    replayed_blocks: list = None


@collector_paused()
def recover_shard_node(
    crashed: ReplicaNode,
    shard_id: int,
    peer_stores: list,
    router: ShardRouter | None,
    cert_log: CertificateLog | None,
    pipelined: bool = True,
) -> ShardRecovery:
    """Rebuild one shard's replica from checkpoint + block log + certificates.

    ``peer_stores`` is the full per-shard store list of a surviving
    replica group (the crashed shard's slot is replaced by the recovered
    store); ``cert_log`` is the global certificate stream, indexed by
    block id (``None``, with no ``router``, for a replica without peers).

    With ``pipelined`` (the default) and an executor whose snapshot lag is
    >= 2 (Harmony inter-block), replay interleaves block *i*'s prepare with
    block *i−1*'s commit: the decisions come from the certificate stream,
    so block *i* validates against block *i−1*'s *decided* records before
    that block's physical commit runs
    (:func:`~repro.shard.replay.snapshot_lag` is the legality rule), with
    bit-identical state either way.

    Like every loop that walks blocks, the whole recovery — the engine
    rebuild included — runs with the cyclic collector paused
    (:func:`~repro.collector.collector_paused`).
    """
    engine, replay_from, checkpoint = rebuild_engine(crashed.engine)
    executor = crashed.clone_executor(engine)
    if isinstance(executor, HarmonyExecutor) and checkpoint and checkpoint.meta:
        executor.restore_records(checkpoint.meta.get("prev_records", {}))

    # The federation around the recovered store: reads of this shard's keys
    # resolve locally (correct at every replay height), remote keys against
    # the peers' retained version history.
    stores = list(peer_stores)
    stores[shard_id] = engine.store
    wire_federation(executor, router, stores, shard_id)

    recovered = ReplicaNode(f"{crashed.name}-recovered", executor, None)
    # Recovery trusts the locally persisted, already-verified chain: the
    # ledger is rebuilt from it, then everything after the checkpoint is
    # re-executed. Migration records at or below ``replay_from`` are baked
    # into the checkpoint (the engine buffers migration loads for the delta
    # chain) and are not replayed.
    for block in crashed.engine.block_log.blocks_after(-1):
        recovered.ledger.append(block)
        engine.block_log.append(block)

    replayed: list[tuple[int, object]] = []

    def record(block_id, executions) -> None:
        replayed.append((block_id, executions[shard_id]))

    def prepare(sub_blocks):
        block = sub_blocks[shard_id]
        return {shard_id: executor.prepare_block(block.block_id, block.build_txns())}

    replay_blocks(
        {shard_id: recovered},
        (
            (block.block_id, {shard_id: block})
            for block in engine.block_log.blocks_after(replay_from)
        ),
        cert_log,
        router,
        prepare=prepare,
        trail=pipelined,
        on_commit=record,
    )
    return ShardRecovery(
        node=recovered,
        replay_from=replay_from,
        decision_digest=decision_digest((b, e.txns) for b, e in replayed),
        replayed_blocks=replayed,
    )
