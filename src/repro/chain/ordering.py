"""Ordering service: collects transactions, cuts signed, hash-chained blocks.

Functionally identical between OE blockchains and deterministic databases
(Section 2.1.4: "the ordering service in OE is equivalent to the sequencing
layer of deterministic databases"): it assigns globally increasing TIDs and
broadcasts blocks; the consensus model attached to it prices latency and
throughput ceilings.
"""

from __future__ import annotations

from repro.chain.block import GENESIS_HASH, Block
from repro.consensus.crypto import Signer
from repro.txn.transaction import TxnSpec


class OrderingService:
    """Sequencer: TID assignment + block formation + hash chaining."""

    def __init__(self, signer: Signer | None = None) -> None:
        self._signer = signer or Signer("ordering-service")
        self._next_tid = 0
        self._prev_hash = GENESIS_HASH
        self._next_block_id = 0

    def form_block(self, specs: list[TxnSpec]) -> Block:
        """Cut one block from ``specs``; deterministic and hash-chained."""
        block = Block(
            block_id=self._next_block_id,
            specs=tuple(specs),
            prev_hash=self._prev_hash,
            first_tid=self._next_tid,
        )
        block.signature = self._signer.sign(block.header_bytes())
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

    def split(self, block: Block, participants: list) -> dict[int, Block]:
        """Cut one sub-block per shard from a global block.

        ``participants[i]`` is the set of shard ids transaction *i* runs on
        (every shard owning a key it statically touches). A cross-shard
        transaction appears in each participant's sub-block under the same
        global TID.
        """
        if len(participants) != len(block.specs):
            raise ValueError(
                f"block {block.block_id}: {len(participants)} assignments "
                f"for {len(block.specs)} specs"
            )
        if self.num_shards == 1:
            # the only shard hosts every transaction: its sub-block *is*
            # the global block, and its ledger the global chain
            return {0: block}
        cuts = [([], []) for _ in range(self.num_shards)]
        for tid, (spec, shards) in enumerate(zip(block.specs, participants), block.first_tid):
            for shard in shards:
                specs, tids = cuts[shard]
                specs.append(spec)
                tids.append(tid)
        per_shard: dict[int, Block] = {}
        for shard, (specs, tids) in enumerate(cuts):
            sub = Block(
                block_id=block.block_id,
                specs=tuple(specs),
                prev_hash=self._prev_hashes[shard],
                first_tid=tids[0] if tids else block.first_tid,
                tids=tuple(tids),
            )
            sub.signature = self._signer.sign(sub.header_bytes())
            self._prev_hashes[shard] = sub.hash
            per_shard[shard] = sub
        return per_shard
