"""One replay: replica state re-derived from (sub-blocks, certificates).

Replicas agree by determinism (Section 4, Recovery): whoever re-executes
the ordered input blocks under the recorded decisions reaches the state
every correct replica holds. So there is one replay algorithm,
:func:`replay_blocks`, and every surface that rebuilds state calls it —
fresh-replica replay, crash recovery of a shard or of a lone replica, the
fault supervisor's catch-up. The table of who passes what is in
``docs/sharding.md`` ("One replay").
"""

from __future__ import annotations

from repro.collector import collector_paused
from repro.core.harmony import HarmonyExecutor
from repro.shard.rebalance import install_migration


def snapshot_lag(executor) -> int:
    """How many blocks back ``executor`` reads when it prepares a block.
    At 2 or more (Harmony inter-block) a block validates against the
    previous block's *decisions* only, so it may be prepared before that
    block's commit has run — the paper's inter-block parallelism
    (Section 3.4), exercised by :func:`replay_blocks`' trailing commit."""
    return executor.config.effective_lag if isinstance(executor, HarmonyExecutor) else 1


class CertificateStreamError(ValueError):
    """The certificate stream handed to a replay is damaged: position *i*
    does not hold block *i*'s certificate."""


def certificate_at(cert_log, block_id: int):
    """Block ``block_id``'s certificate. The stream is dense and 0-based,
    so the lookup is positional; a pruned, truncated or shifted stream
    fails here, with :class:`CertificateStreamError`, instead of replaying
    another block's vetoes."""
    certificate = cert_log[block_id] if 0 <= block_id < len(cert_log) else None
    if certificate is None or certificate.block_id != block_id:
        holds = "nothing" if certificate is None else f"block {certificate.block_id}"
        raise CertificateStreamError(
            f"certificate stream misaligned: position {block_id} holds {holds}"
        )
    return certificate


@collector_paused()
def replay_blocks(
    nodes: dict,
    blocks,
    cert_log,
    router,
    prepare=None,
    trail: bool = False,
    on_commit=None,
    watermarks: list | None = None,
) -> None:
    """Run ``blocks`` on ``nodes`` under the decisions ``cert_log`` records.

    ``nodes`` maps shard id to the :class:`~repro.chain.node.ReplicaNode`
    being rebuilt; ``blocks`` yields ``(block_id, {shard: sub_block})`` in
    block order from the caller's start height. ``cert_log`` and ``router``
    are the chain's certificate stream and shared router — both ``None``
    for a replica that never had peers (nothing vetoed, nothing migrated).

    Per block: the certificate must sit at its own height; the router's
    cursor is pinned there, so key scopes and snapshot routing resolve
    under the historical ownership epoch; a certified migration is
    installed at the boundary, after any trailing commit has landed (its
    shipment goes *inside* the previous block); then the block is prepared
    and committed under the certificate's vetoes. The cursor is the live
    chain's too: it goes back where it was however the loop ends.

    ``prepare(sub_blocks) -> {shard: PreparedBlock}`` defaults to
    ingesting the block on each node (signature, chain check, block log)
    and preparing it. ``trail`` asks for each commit to run one block
    late; it is honoured iff every executor's :func:`snapshot_lag` is 2 or
    more, with bit-identical state either way. ``on_commit(block_id, {shard:
    BlockExecution})`` sees every commit, in block order. ``watermarks``
    goes to :func:`~repro.shard.rebalance.install_migration`.
    """
    if prepare is None:

        def prepare(sub_blocks):
            return {
                shard: node.prepare_block(sub_blocks[shard])
                for shard, node in nodes.items()
            }

    trail = trail and all(snapshot_lag(node.executor) >= 2 for node in nodes.values())
    held = None  # (block_id, prepared, abort_tids): decided, not yet applied

    def land() -> None:
        nonlocal held
        if held is None:
            return
        block_id, prepared, abort_tids = held
        held = None
        executions = {
            shard: nodes[shard].finish_block(prepared[shard], abort_tids)
            for shard in sorted(prepared)
        }
        if on_commit is not None:
            on_commit(block_id, executions)

    saved_height = router.cursor_height if router is not None else None
    try:
        for block_id, sub_blocks in blocks:
            abort_tids = frozenset()
            if cert_log is not None:
                certificate = certificate_at(cert_log, block_id)
                abort_tids = certificate.abort_tids
                router.advance_to(block_id)
                if certificate.migration is not None:
                    land()
                    install_migration(
                        certificate.migration,
                        router,
                        {shard: node.executor for shard, node in nodes.items()},
                        watermarks,
                    )
            prepared = prepare(sub_blocks)
            land()
            held = (block_id, prepared, abort_tids)
            if trail:
                # the decisions are final: the next prepare validates
                # against them, and the commit that recomputes the same
                # facts may run after it
                for shard, prep in prepared.items():
                    nodes[shard].executor.adopt_decision(prep, abort_tids)
            else:
                land()
        land()
    finally:
        if router is not None:
            router.advance_to(saved_height)
