"""Cross-shard crash recovery: rebuild one shard under the certificate stream.

A shard that crashes — even in the 2PC window between casting its prepare
vote and the certificate landing — recovers from exactly three durable
artifacts: its checkpoint chain, its logged sub-blocks, and the *global*
hash-chained certificate stream. It never re-runs the vote exchange: the
certificates are the decision record, so replaying sub-blocks and
honouring each block's recorded vetoes reproduces the shard's state
bit-for-bit (the sharded analogue of single-replica
:func:`~repro.chain.recovery.recover_node`).

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
from repro.core.harmony import HarmonyExecutor
from repro.shard.federated import FederatedSnapshot
from repro.shard.rebalance import migration_store_deltas
from repro.shard.router import ShardRouter
from repro.shard.twopc import CertificateLog
from repro.sim.scheduler import BlockTiming, replay_lanes


@dataclass
class ShardRecovery:
    """The outcome of one shard's crash recovery."""

    node: ReplicaNode
    #: block id replay resumed after (-1 = replayed from genesis)
    replay_from: int
    #: digest of the replayed blocks' commit/abort decisions — comparable
    #: against an uncrashed replica's decisions over the same block range
    decision_digest: str
    #: the replayed ``(block_id, txns)`` pairs behind the digest — lets a
    #: supervisor back-fill per-block decision records the crashed shard
    #: never surfaced through the live pipeline
    replayed_blocks: list = None
    #: modeled replay makespans (``{"serial_us", "pipelined_us",
    #: "speedup"}``) when the executor's snapshot lag legalized the
    #: interleaved replay; ``None`` for lag-1 executors or empty replays
    replay_sim: dict | None = None


def recover_shard_node(
    crashed: ReplicaNode,
    shard_id: int,
    peer_stores: list,
    router: ShardRouter,
    cert_log: CertificateLog,
    pipelined: bool = True,
    cores: int = 8,
) -> ShardRecovery:
    """Rebuild one shard's replica from checkpoint + block log + certificates.

    ``peer_stores`` is the full per-shard store list of a surviving
    replica group (the crashed shard's slot is replaced by the recovered
    store); ``cert_log`` is the global certificate stream, indexed by
    block id.

    With ``pipelined`` (the default) and an executor whose snapshot lag is
    >= 2 (Harmony inter-block), replay interleaves block *i*'s prepare with
    block *i−1*'s commit: the decisions come from the certificate stream,
    so block *i* validates against block *i−1*'s *decided* records before
    that block's physical commit runs — the same legality argument as the
    live pipeline (:mod:`repro.parallel.pipeline`), and bit-identical state
    either way. ``replay_sim`` on the result reports the modeled makespan
    of both disciplines on a ``cores``-core replica.
    """
    engine, replay_from, checkpoint = rebuild_engine(crashed.engine)
    executor = crashed.clone_executor(engine)
    if isinstance(executor, HarmonyExecutor) and checkpoint and checkpoint.meta:
        executor.restore_records(checkpoint.meta.get("prev_records", {}))

    # Rewire the federation around the recovered store: reads of this
    # shard's keys resolve locally (correct at every replay height), remote
    # keys against the peers' retained version history.
    stores = list(peer_stores)
    stores[shard_id] = engine.store
    if len(stores) > 1:
        executor.snapshot_source = lambda snap_block_id: FederatedSnapshot(
            router, stores, snap_block_id
        )
        executor.key_scope = lambda key: router.shard_of(key) == shard_id

    interleave = (
        pipelined
        and isinstance(executor, HarmonyExecutor)
        and executor.config.inter_block
        and executor.config.effective_lag >= 2
    )
    recovered = ReplicaNode(f"{crashed.name}-recovered", executor, None)
    replayed: list[tuple[int, list]] = []
    timings: list[BlockTiming] = []
    pending = None  # (PreparedBlock, abort_tids) with its commit deferred
    saved_height = router.cursor_height
    for block in crashed.engine.block_log.blocks_after(-1):
        recovered.ledger.append(block)
        recovered.engine.block_log.append(block)
        if block.block_id <= replay_from:
            continue
        txns = block.build_txns()
        if executor.supports_two_phase:
            certificate = cert_log[block.block_id]
            if certificate.block_id != block.block_id:
                # positional lookup relies on the dense 0-based stream; a
                # pruned or misaligned log must fail loudly, not replay
                # another block's vetoes
                raise ValueError(
                    f"certificate stream misaligned: position {block.block_id} "
                    f"holds block {certificate.block_id}"
                )
            if certificate.migration is not None:
                # migration barrier: the record ships key versions inside
                # block i-1, so a deferred commit must land first (same
                # discipline as the live pipelined driver); commit_block
                # re-derives the decided records, so the subsequent
                # prepare sees the identical state either way. Records at
                # or below ``replay_from`` are baked into the checkpoint
                # (the engine buffers migration loads for the delta chain)
                # and never reach this branch.
                if pending is not None:
                    prev_prepared, prev_aborts = pending
                    execution = executor.commit_block(prev_prepared, prev_aborts)
                    timings.append(_replay_timing(execution))
                    pending = None
                router.advance_to(block.block_id)
                record = certificate.migration
                executor.migration_fences[record.block_id] = frozenset(
                    dict(record.moves)
                )
                incoming, outgoing = migration_store_deltas(record, router)
                items = dict(outgoing.get(shard_id, ()))
                items.update(incoming.get(shard_id, ()))
                if items:
                    engine.apply_migration(record.block_id - 1, items)
            else:
                router.advance_to(block.block_id)
            if interleave:
                # pipelined replay: validate block i against block i-1's
                # *decided* records (certificate vetoes applied), prepare,
                # and only then run block i-1's deferred commit — the
                # commit recomputes the identical records, so the
                # interleave is idempotent with the serial order.
                if pending is not None:
                    prev_prepared, prev_aborts = pending
                    executor.import_prepare_state(
                        executor.decided_prepare_state(prev_prepared, prev_aborts)
                    )
                    prepared = executor.prepare_block(block.block_id, txns)
                    execution = executor.commit_block(prev_prepared, prev_aborts)
                    timings.append(_replay_timing(execution))
                else:
                    prepared = executor.prepare_block(block.block_id, txns)
                pending = (prepared, certificate.abort_tids)
            else:
                prepared = executor.prepare_block(block.block_id, txns)
                execution = executor.commit_block(prepared, certificate.abort_tids)
                timings.append(_replay_timing(execution))
        else:
            execution = executor.execute_block(block.block_id, txns)
            timings.append(_replay_timing(execution))
        replayed.append((block.block_id, txns))
    if pending is not None:
        prev_prepared, prev_aborts = pending
        execution = executor.commit_block(prev_prepared, prev_aborts)
        timings.append(_replay_timing(execution))
    # the shared router serves the live group too — put its cursor back
    router.advance_to(saved_height)
    replay_sim = None
    if timings:
        lag = (
            executor.config.effective_lag
            if isinstance(executor, HarmonyExecutor)
            else 1
        )
        serial, overlapped = replay_lanes(
            timings, num_cores=cores, inter_block=lag >= 2, snapshot_lag=max(lag, 1)
        )
        replay_sim = {
            "serial_us": serial.makespan_us,
            "pipelined_us": overlapped.makespan_us,
            "speedup": (
                serial.makespan_us / overlapped.makespan_us
                if overlapped.makespan_us > 0
                else 1.0
            ),
        }
    return ShardRecovery(
        node=recovered,
        replay_from=replay_from,
        decision_digest=decision_digest(replayed),
        replayed_blocks=replayed,
        replay_sim=replay_sim,
    )


def _replay_timing(execution) -> BlockTiming:
    """Replay has no arrival pacing: every logged block is ready at t=0."""
    return BlockTiming(
        arrival_us=0.0,
        sim_durations=execution.sim_durations_us,
        commit_durations=execution.commit_durations_us,
        serial_commit=execution.serial_commit,
        pre_exec_serial_us=execution.pre_exec_serial_us,
        post_commit_serial_us=execution.post_commit_serial_us,
    )
