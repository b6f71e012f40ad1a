"""What a run keeps: a block's transactions die with the block.

``ShardedBlockchain.run`` folds each committed block's decisions into one
string (``decision_part``) and drops its runtime ``Txn`` records, so the
live ``Txn`` count stays flat however many blocks run: at most the block
being formed plus the one just committed, one record per participating
shard. ``keep_history=True`` retains every block's outcome on purpose
(tests and oracles read it), so there the count grows — which is also what
shows the count sees retention when there is some.
"""

from __future__ import annotations

import gc

import pytest

from repro.shard import ShardConfig, ShardedBlockchain
from repro.txn.transaction import Txn
from repro.workloads import make_workload

BLOCK_SIZE = 20
NUM_BLOCKS = 12


def live_txns() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Txn)


def txns_alive_per_block(num_shards: int, keep_history: bool = False) -> list[int]:
    """The live ``Txn`` count each time the run asks for a block's fresh
    transactions, over a 12-block SmallBank run."""
    workload = make_workload("smallbank", profile="conformance")
    config = ShardConfig(
        block_size=BLOCK_SIZE,
        num_blocks=NUM_BLOCKS,
        num_shards=num_shards,
        keep_history=keep_history,
    )
    chain = ShardedBlockchain(config, workload)
    counts = []
    generate = workload.generate_block

    def counted(n, rng):
        counts.append(live_txns())
        return generate(n, rng)

    workload.generate_block = counted
    metrics = chain.run()
    assert metrics.committed > 0 and len(counts) == NUM_BLOCKS
    return counts


@pytest.mark.parametrize("num_shards", [1, 2])
def test_a_run_keeps_no_committed_blocks_transactions(num_shards):
    counts = txns_alive_per_block(num_shards)
    assert max(counts) <= 2 * BLOCK_SIZE * num_shards, counts


def test_history_keeps_them_by_design():
    counts = txns_alive_per_block(1, keep_history=True)
    assert counts[-1] >= (NUM_BLOCKS - 1) * BLOCK_SIZE, counts
