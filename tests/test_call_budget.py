"""The short-transaction path's call budget.

A SmallBank transaction touches one to three keys, so what it costs on the
host clock is mostly the Python frames around its procedure: the spec draw,
the page charge, the per-block status reads, the scheduler task and its
state-hash entry. This test counts them deterministically — cProfile's
``total_calls`` (Python frames and C calls alike) over one 10-block run
shaped like the e2e benchmark's ``smallbank_1shard`` — and fails when a
frame comes back, instead of waiting for a noisy wall-clock pairs run.

The count depends on the interpreter (which builtins a call goes through),
so the bound is stated for CPython 3.11, the version CI pins; other minor
versions skip.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

import pytest

from repro.chain.system import OEBlockchain, OEConfig
from repro.workloads import ShardAffinity, make_workload

#: measured at 154.0 calls per attempted transaction on CPython 3.11.7
#: (247.5 before the short-path levers); about 5 % headroom
CALLS_PER_TXN_BOUND = 162


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the call count is interpreter-specific; the bound is for CPython 3.11",
)
def test_smallbank_short_path_call_budget():
    chain = OEBlockchain(
        OEConfig(block_size=100, num_blocks=10, seed=7),
        make_workload("smallbank", affinity=ShardAffinity(4, 0.1)),
    )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        metrics = chain.run()
    finally:
        profiler.disable()
    attempted = metrics.committed + metrics.aborted
    calls = pstats.Stats(profiler).total_calls
    assert attempted == 1000
    assert calls / attempted <= CALLS_PER_TXN_BOUND, (
        f"{calls / attempted:.1f} calls per transaction, budget {CALLS_PER_TXN_BOUND}"
    )
