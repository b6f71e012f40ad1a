"""The short-transaction and read-free paths' call budgets.

A SmallBank transaction touches one to three keys, so what it costs on the
host clock is mostly the Python frames around its procedure: the spec draw,
the page charge, the per-block status reads, the scheduler task and its
state-hash entry. At four shards the same stream also pays the routing,
the sub-block cuts and the cross-shard bookkeeping: one pass per global
block, not a frame per transaction. A ``ycsb-hotspot`` block is fused blind updates: nothing
reads, so nothing on the reader side of validation (the rw index, the
Rule-3 fold, the committed closure) should run at all. These tests count
both deterministically — cProfile's ``total_calls`` (Python frames and C
calls alike) over one 10-block run shaped like the e2e benchmark's
``smallbank_1shard`` / ``smallbank_4shard`` / ``ycsb_hotspot`` — and fail
when a frame comes back,
instead of waiting for a noisy wall-clock pairs run.

The count depends on the interpreter (which builtins a call goes through),
so the bounds are stated for CPython 3.11, the version CI pins; other minor
versions skip.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

import pytest

from repro.chain.system import OEBlockchain, OEConfig
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.workloads import ShardAffinity, make_workload

#: measured at 148.9 calls per attempted transaction on CPython 3.11.7
#: (247.5 before the short-path levers, 154.0 before the read-free ones);
#: about 5 % headroom
SMALLBANK_CALLS_PER_TXN_BOUND = 156

#: measured at 175.1 calls per attempted transaction on CPython 3.11.7
#: (180.9 while each spec was routed through its own frames, the
#: sub-blocks, merged view and votes were cut in second passes and each
#: header was serialised once per hash and once per signature); about 2 %
#: headroom, so the bound stays below that reading — the count repeats
#: exactly across hash seeds
SHARDED_SMALLBANK_CALLS_PER_TXN_BOUND = 179

#: measured at 191.9 calls per attempted transaction on CPython 3.11.7
#: (230 while a read-free block still built the reader side); about 5 %
#: headroom
HOTSPOT_CALLS_PER_TXN_BOUND = 201

only_cpython_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the call count is interpreter-specific; the bound is for CPython 3.11",
)


def calls_per_txn(workload, num_shards: int = 1) -> float:
    """cProfile calls per attempted transaction of one 10 x 100 run."""
    if num_shards == 1:
        chain = OEBlockchain(OEConfig(block_size=100, num_blocks=10, seed=7), workload)
    else:
        chain = ShardedBlockchain(
            ShardConfig(block_size=100, num_blocks=10, seed=7, num_shards=num_shards),
            workload,
        )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        metrics = chain.run()
    finally:
        profiler.disable()
    attempted = metrics.committed + metrics.aborted
    assert attempted == 1000
    return pstats.Stats(profiler).total_calls / attempted


@only_cpython_311
def test_smallbank_short_path_call_budget():
    calls = calls_per_txn(make_workload("smallbank", affinity=ShardAffinity(4, 0.1)))
    assert calls <= SMALLBANK_CALLS_PER_TXN_BOUND, (
        f"{calls:.1f} calls per transaction, budget {SMALLBANK_CALLS_PER_TXN_BOUND}"
    )


@only_cpython_311
def test_sharded_smallbank_call_budget():
    calls = calls_per_txn(make_workload("smallbank", affinity=ShardAffinity(4, 0.1)), 4)
    assert calls <= SHARDED_SMALLBANK_CALLS_PER_TXN_BOUND, (
        f"{calls:.1f} calls per transaction at 4 shards, "
        f"budget {SHARDED_SMALLBANK_CALLS_PER_TXN_BOUND}"
    )


@only_cpython_311
def test_hotspot_read_free_path_call_budget():
    calls = calls_per_txn(make_workload("ycsb-hotspot"))
    assert calls <= HOTSPOT_CALLS_PER_TXN_BOUND, (
        f"{calls:.1f} calls per transaction, budget {HOTSPOT_CALLS_PER_TXN_BOUND}"
    )
