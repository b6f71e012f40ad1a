"""Pipelined replica replay: rebuild a full shard group on real cores.

``consistency_check`` and catastrophic (all-shard) recovery replay every
sub-ledger strictly serially: shard after shard, block after block
(:func:`repro.shard.system.replay_group_serial`, the reference — it lives
with the driver so that a serial-backend chain never imports the process
machinery). This module replays the same artifacts — sub-ledgers plus the
global certificate stream — with the per-shard prepares fanned out to the
:mod:`repro.parallel.backend` worker pool, and (when the executor's
snapshot lag legalizes it) block *i*'s prepare overlapped with block
*i−1*'s commit, exactly like the live pipelined driver.

The certificate stream *is* the decision record, so replay never re-runs
the vote exchange: each block's recorded vetoes are honoured verbatim and
the rebuilt group's state is bit-identical to the serial replay's.
"""

from __future__ import annotations

from repro.shard.system import ShardGroup, apply_replay_migration, replay_group_serial


def replay_group(
    chain,
    pipelined: bool = True,
    name_prefix: str = "replay-parallel",
) -> ShardGroup:
    """Rebuild a fresh :class:`ShardGroup` from ``chain``'s sub-ledgers and
    certificate stream with process-pool prepare fan-out.

    ``pipelined`` additionally defers each block's commit one iteration
    (legal iff the executor's snapshot lag >= 2 — Harmony inter-block);
    for lag-1 executors the flag is ignored and the replay still gains the
    per-shard fan-out. Falls back to :func:`replay_group_serial` when the
    configuration has no process backend (``backend != "process"`` or an
    unsupported scheme).
    """
    from repro.parallel.backend import make_prepare_backend

    config = chain.config
    backend = (
        make_prepare_backend(config, chain.workload, config.num_shards)
        if config.backend == "process"
        else None
    )
    if backend is None:
        return replay_group_serial(chain, name_prefix=name_prefix)
    overlap = (
        pipelined
        and config.system == "harmony"
        and config.harmony.inter_block
        and config.harmony.effective_lag >= 2
    )
    router = chain.router
    saved_height = router.cursor_height
    router.advance_to(0)
    other = ShardGroup(
        config,
        chain.workload,
        router,
        chain.costs,
        chain.orderer_signer,
        name_prefix=name_prefix,
    )
    executors = {shard: node.executor for shard, node in enumerate(other.nodes)}
    height = len(chain.group.nodes[0].ledger)
    decided_states = {
        shard: executor.export_prepare_state()
        for shard, executor in executors.items()
    }
    pending = None  # (block_id, prepared, abort_tids)
    try:
        for i in range(height):
            router.advance_to(i)
            cert = chain.cert_log[i]
            if cert.migration is not None:
                # migration barrier, exactly as in the live pipelined
                # driver: the deferred commit lands, every store reaches
                # the boundary, then the re-key installs main-side and
                # ships to the (fresh, epoch-0) worker routers
                if pending is not None:
                    _commit(other, backend, pending)
                    pending = None
                apply_replay_migration(other, router, cert.migration)
                backend.apply_migration(cert.migration)
            sub_blocks = {
                shard: node.ledger[i]
                for shard, node in enumerate(chain.group.nodes)
            }
            abort_tids = cert.abort_tids
            futures = backend.submit(sub_blocks, decided_states)
            for shard, node in enumerate(other.nodes):
                node.ingest_block(sub_blocks[shard])
            if pending is not None:
                _commit(other, backend, pending)
                pending = None
            prepared = backend.collect(futures, executors)
            decided_states = {
                shard: executors[shard].decided_prepare_state(
                    prepared[shard], abort_tids
                )
                for shard in prepared
            }
            if overlap:
                pending = (i, prepared, abort_tids)
            else:
                _commit(other, backend, (i, prepared, abort_tids))
        if pending is not None:
            _commit(other, backend, pending)
    finally:
        backend.close()
        router.advance_to(saved_height)
    return other


def _commit(group: ShardGroup, backend, pending) -> None:
    block_id, prepared, abort_tids = pending
    group.finish(prepared, abort_tids)
    backend.advance(
        block_id, [node.engine.writes_of(block_id) for node in group.nodes]
    )
