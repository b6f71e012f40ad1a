"""The span stream and the supervision accounting reproduce the record
taken before the block walk became one.

``tests/golden/trace_identity.json`` was recorded at the last commit where
the fault supervisor walked a block by hand. Every traced ``run()`` must
still emit the identical deterministic stream (``det_digest``) and the same
spans by name; every smoke drill must still end with the same supervisor
``stats`` and — ``order`` events aside — the same stream, and those stats
must be recomputable from its fault spans alone. What the one walk
*adds* is asserted here, not in the record: a supervised block passes
through the code that emits ``order``, like any other.
"""

from __future__ import annotations

import json

import pytest

from golden.trace_identity import (
    DRILL,
    GOLDEN_PATH,
    drill_cases,
    observe_drill,
    observe_run,
    run_cases,
    traced_drill,
)
from repro.obs.trace import Tracer
from repro.sim.rng import SeededRng

GOLDEN = json.loads(GOLDEN_PATH.read_text())
RUNS = run_cases()
DRILLS = drill_cases()

WALK = ("order", "prepare", "certify", "commit")


def test_golden_covers_exactly_the_cases():
    assert sorted(GOLDEN) == sorted({**RUNS, **DRILLS})
    assert len(DRILLS) == 24


@pytest.mark.parametrize("case", sorted(RUNS))
def test_traced_run_matches_record(case):
    assert observe_run(RUNS[case]) == GOLDEN[case]


def supervision_stats(spans) -> dict:
    """The supervisor's accounting, recomputed from its fault spans alone."""
    faults = [span for span in spans if span.kind == "fault"]

    def count(name):
        return sum(1 for span in faults if span.name == name)

    return {
        "retry_rounds": count("vote_retry"),
        "recoveries": count("recovery"),
        "failed_recoveries": count("recovery_failed"),
        "injected_delay_us": round(sum(span.sim_us for span in faults), 3),
        "degraded_blocks": [span.block for span in faults if span.name == "degraded"],
    }


@pytest.mark.parametrize("case", sorted(DRILLS))
def test_drill_matches_record(case):
    tracer, result = traced_drill(*DRILLS[case])
    assert observe_drill(tracer, result) == GOLDEN[case]
    # the span stream carries every supervision fact the stats hold
    assert supervision_stats(tracer.spans) == result.stats


@pytest.mark.parametrize(
    "case", ["drill/smallbank/crash-after-prepare", "drill/tpcc/vote-drop"]
)
def test_supervised_block_emits_order(case):
    """One ``order`` event per block, first of the block's walk — the
    drift the hand-walked supervisor had."""
    tracer, result = traced_drill(*DRILLS[case])
    assert result.ok
    orders = [span.block for span in tracer.spans if span.name == "order"]
    assert orders == list(range(DRILL["num_blocks"]))
    for block in orders:
        walked = [
            s.name for s in tracer.spans if s.block == block and s.name in WALK
        ]
        assert walked[0] == "order"


def walk_subsequence(tracer) -> list:
    return [
        (event["name"], event["block"], event["shard"], event["attrs"])
        for event in tracer.det_events()
        if event["name"] in WALK
    ]


def test_supervised_walk_is_the_unsupervised_walk():
    """``baseline-no-fault``: a supervisor with nothing to do and
    ``process_global_block`` emit the same order/prepare/certify/commit
    subsequence on one spec stream — they are schedules of one walk."""
    from repro.faults.drill import _build_chain
    from repro.faults.inject import FaultInjector
    from repro.faults.supervisor import SupervisedShardGroup

    workload, plan = DRILLS["drill/smallbank/baseline-no-fault"]
    chains = [
        _build_chain(DRILL["scheme"], DRILL["num_shards"], plan, DRILL["block_size"])
        for _ in range(2)
    ]
    supervised, plain = Tracer(), Tracer()
    chains[0].tracer, chains[1].tracer = supervised, plain
    supervisor = SupervisedShardGroup(
        chains[0], FaultInjector(plan, DRILL["num_shards"])
    )
    rng = SeededRng(plan.seed, "one-walk")
    for _ in range(DRILL["num_blocks"]):
        specs = chains[0].workload.generate_block(DRILL["block_size"], rng)
        supervisor.process_block(chains[0].ordering.form_block(specs))
        chains[1].process_global_block(chains[1].ordering.form_block(specs))
    supervisor.finalize()
    walked = walk_subsequence(plain)
    assert len(walked) == DRILL["num_blocks"] * (2 + 2 * DRILL["num_shards"])
    assert walk_subsequence(supervised) == walked
