"""Replica replay on real cores: the one replay loop, prepared on the pool.

``consistency_check`` and catastrophic (all-shard) recovery replay every
sub-ledger in-process, shard after shard
(:func:`repro.shard.system.replay_group_serial`, the reference — it lives
with the driver so that a serial-backend chain never imports the process
machinery). :func:`replay_group` replays the same artifacts — sub-ledgers
plus the global certificate stream — through the same loop
(:func:`repro.shard.replay.replay_blocks`); all it adds is the loop's
prepare step: :meth:`ProcessPrepareBackend.prepare
<repro.parallel.backend.ProcessPrepareBackend.prepare>`, the same call the
live chain makes, with the trailing commit as its ``meanwhile``.

The certificate stream *is* the decision record, so replay never re-runs
the vote exchange: each block's recorded vetoes are honoured verbatim and
the rebuilt group's state is bit-identical to the serial replay's.
"""

from __future__ import annotations

from repro.shard.replay import replay_blocks
from repro.shard.system import ShardGroup, fresh_group, logged_blocks, replay_group_serial


def replay_group(
    chain,
    pipelined: bool = True,
    name_prefix: str = "replay-parallel",
) -> ShardGroup:
    """Rebuild a fresh :class:`ShardGroup` from ``chain``'s sub-ledgers and
    certificate stream with process-pool prepare fan-out.

    ``pipelined`` additionally lets each block's commit trail one block
    (legal iff the executor's snapshot lag >= 2 — Harmony inter-block);
    for lag-1 executors the flag is ignored and the replay still gains the
    per-shard fan-out. Falls back to :func:`replay_group_serial` when the
    configuration has no process backend (``backend != "process"`` or an
    unsupported scheme).
    """
    from repro.parallel.backend import make_prepare_backend

    config = chain.config
    backend = make_prepare_backend(config, chain.workload, config.num_shards)
    if backend is None:
        return replay_group_serial(chain, name_prefix=name_prefix)
    try:
        other = fresh_group(chain, name_prefix)

        def prepare(sub_blocks, land):
            record = chain.cert_log[sub_blocks[0].block_id].migration
            if record is not None:
                # installed main-side at the boundary just now; the (fresh,
                # epoch-0) worker routers learn it with this task
                backend.apply_migration(record)
            return backend.prepare(sub_blocks, other.nodes, meanwhile=land)

        def ship(block_id, _executions):
            backend.advance(
                block_id, [node.engine.writes_of(block_id) for node in other.nodes]
            )

        replay_blocks(
            dict(enumerate(other.nodes)),
            logged_blocks(chain),
            chain.cert_log,
            chain.router,
            prepare=prepare,
            trail=pipelined,
            on_commit=ship,
        )
    finally:
        backend.close()
    return other
