"""Ordering service: collects transactions, cuts signed, hash-chained blocks.

Functionally identical between OE blockchains and deterministic databases
(Section 2.1.4: "the ordering service in OE is equivalent to the sequencing
layer of deterministic databases"): it assigns globally increasing TIDs and
broadcasts blocks; the consensus model attached to it prices latency and
throughput ceilings.
"""

from __future__ import annotations

from repro.chain.block import GENESIS_HASH, Block, header_bytes
from repro.consensus.crypto import Signer, sha256_hex
from repro.txn.transaction import TxnSpec


class OrderingService:
    """Sequencer: TID assignment + block formation + hash chaining."""

    def __init__(self, signer: Signer | None = None) -> None:
        self._signer = signer or Signer("ordering-service")
        self._next_tid = 0
        self._prev_hash = GENESIS_HASH
        self._next_block_id = 0

    def form_block(self, specs: list[TxnSpec]) -> Block:
        """Cut one block from ``specs``; deterministic and hash-chained.
        Its header is serialised once, and hashed and signed as such."""
        specs = tuple(specs)
        header = header_bytes(self._next_block_id, self._next_tid, self._prev_hash, specs)
        block = Block(
            block_id=self._next_block_id,
            specs=specs,
            prev_hash=self._prev_hash,
            first_tid=self._next_tid,
            signature=self._signer.sign(header),
            hash=sha256_hex(header),
        )
        self._next_block_id += 1
        self._next_tid += len(specs)
        self._prev_hash = block.hash
        return block


class ShardSequencer:
    """Derives per-shard sub-blocks from the global block stream.

    Sharding does not add a second sequencing layer: the ordering service
    already fixes the global transaction order, and the split is a pure
    function of (global block, shard assignment) — every replica of every
    shard derives the identical sub-block. Each shard's sub-blocks form
    their own hash chain (one ledger per shard) and carry the *global* TIDs
    of their transactions (:attr:`~repro.chain.block.Block.tids`), so a
    shard validating a subset still reasons in global order. Every shard
    receives a sub-block for every global block — empty if it hosts none of
    its transactions — which keeps per-shard block ids, snapshot lags and
    checkpoint schedules aligned with the global stream.
    """

    def __init__(self, num_shards: int, signer: Signer | None = None) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = num_shards
        self._signer = signer or Signer("ordering-service")
        self._prev_hashes = [GENESIS_HASH] * num_shards

    def split(self, block: Block, cuts) -> dict[int, Block]:
        """Cut one sub-block per shard from a global block.

        ``cuts[shard]`` is the shard's ``(specs, tids)`` in block order
        (:attr:`repro.shard.router.BlockRoute.cuts`): every transaction
        whose participant set holds the shard, under its global TID, so a
        cross-shard transaction appears in each participant's sub-block.
        On one shard ``cuts`` is not read.
        """
        if self.num_shards == 1:
            # the only shard hosts every transaction: its sub-block *is*
            # the global block, and its ledger the global chain
            return {0: block}
        if len(cuts) != self.num_shards:
            raise ValueError(
                f"block {block.block_id}: {len(cuts)} cuts for {self.num_shards} shards"
            )
        block_id = block.block_id
        sign = self._signer.sign
        prev_hashes = self._prev_hashes
        per_shard: dict[int, Block] = {}
        for shard, (specs, tids) in enumerate(cuts):
            specs, tids = tuple(specs), tuple(tids)
            first_tid = tids[0] if tids else block.first_tid
            header = header_bytes(block_id, first_tid, prev_hashes[shard], specs, tids)
            sub = Block(
                block_id=block_id,
                specs=specs,
                prev_hash=prev_hashes[shard],
                first_tid=first_tid,
                tids=tids,
                signature=sign(header),
                hash=sha256_hex(header),
            )
            prev_hashes[shard] = sub.hash
            per_shard[shard] = sub
        return per_shard
