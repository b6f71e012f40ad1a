"""Fault-injection subsystem unit layer (ISSUE 6, tier-1).

Fast seeded coverage of every fault-layer contract that doesn't need the
full drill matrix (that lives in ``test_fault_drills.py`` behind the
``faults`` marker):

- fault plans are pure, validated data, derivable from a seed alone;
- retry backoff schedules are deterministic and bounded;
- vote reconciliation is idempotent under duplication, loud under
  equivocation, and degrades missing votes to timeout vetoes;
- the partition-degradation policy aborts deterministically instead of
  diverging.
"""

from __future__ import annotations

import pytest

from repro.chain.config import decision_digest
from repro.encoding import encode, key_text
from repro.faults.drill import SMOKE_PLAN_NAMES, run_drill
from repro.faults.inject import FaultInjector, FaultyVoteChannel
from repro.faults.plan import (
    CRASH_AFTER_PREPARE,
    PARTITION,
    VOTE_DUPLICATE,
    FaultEvent,
    FaultPlan,
    generate_chaos_plan,
    standard_plans,
)
from repro.faults.supervisor import RetryPolicy, SupervisedShardGroup
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.shard.twopc import (
    GENESIS_CERT_HASH,
    ShardVote,
    make_certificate,
    reconcile_votes,
)
from repro.sim.rng import SeededRng
from repro.workloads.base import ShardAffinity
from repro.workloads.smallbank import SmallbankWorkload


NUM_SHARDS = 2


def build_chain(num_shards=NUM_SHARDS, scheme="harmony", seed=61):
    affinity = ShardAffinity(num_shards, 0.5) if num_shards > 1 else None
    workload = SmallbankWorkload(num_accounts=90, theta=0.6, affinity=affinity)
    config = ShardConfig(
        system=scheme,
        num_shards=num_shards,
        block_size=8,
        seed=seed,
        checkpoint_interval=2,
        checkpoint_base_interval=2,
    )
    return ShardedBlockchain(config, workload)


def run_supervised(plan, num_shards=NUM_SHARDS, num_blocks=6, scheme="harmony"):
    chain = build_chain(num_shards=num_shards, scheme=scheme, seed=plan.seed)
    supervisor = SupervisedShardGroup(chain, FaultInjector(plan, num_shards))
    rng = SeededRng(plan.seed, "faults-unit-drive")
    for _ in range(num_blocks):
        specs = chain.workload.generate_block(chain.config.block_size, rng)
        supervisor.process_block(chain.ordering.form_block(specs))
    supervisor.finalize()
    return chain, supervisor


class TestFaultPlans:
    def test_standard_roster_is_broad_and_deterministic(self):
        plans = standard_plans(num_blocks=8, num_shards=3)
        names = [p.name for p in plans]
        assert len(names) == len(set(names))
        assert len(plans) >= 10
        # pure data: rebuilding the roster yields identical plans
        assert plans == standard_plans(num_blocks=8, num_shards=3)

    def test_chaos_plans_derive_from_seed_alone(self):
        a = generate_chaos_plan(7, num_blocks=8, num_shards=3)
        b = generate_chaos_plan(7, num_blocks=8, num_shards=3)
        c = generate_chaos_plan(8, num_blocks=8, num_shards=3)
        assert a == b
        assert a.events  # a chaos plan schedules something
        assert a != c

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("sudden-vibe-shift", block_id=1, shard=0)
        with pytest.raises(ValueError):
            FaultEvent(PARTITION, block_id=1, shard=0, blocks=0)

    def test_partition_window_queries(self):
        plan = FaultPlan(
            "w", 1, (FaultEvent(PARTITION, block_id=2, shard=1, blocks=3),)
        )
        assert plan.lagging_shards(1) == frozenset()
        assert plan.lagging_shards(2) == frozenset({1})
        assert plan.lagging_shards(4) == frozenset({1})
        assert plan.lagging_shards(5) == frozenset()


class TestRetryPolicy:
    def test_backoff_deterministic_bounded_and_monotone(self):
        policy = RetryPolicy(
            max_attempts=6, base_backoff_us=50.0, multiplier=2.0, max_backoff_us=300.0
        )
        schedule = policy.schedule()
        assert schedule == policy.schedule()  # pure function of the policy
        assert len(schedule) == policy.max_attempts - 1
        assert schedule == (50.0, 100.0, 200.0, 300.0, 300.0)  # capped tail
        assert all(a <= b for a, b in zip(schedule, schedule[1:]))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestVoteReconciliation:
    VOTES = [
        ShardVote(tid=4, shard_id=0, commit=True),
        ShardVote(tid=4, shard_id=1, commit=True),
        ShardVote(tid=9, shard_id=0, commit=False, reason="waw"),
        ShardVote(tid=9, shard_id=1, commit=True),
    ]

    def test_duplicate_votes_are_idempotent(self):
        clean = make_certificate(3, list(self.VOTES), GENESIS_CERT_HASH)
        noisy = make_certificate(
            3, list(self.VOTES) + list(self.VOTES) * 2, GENESIS_CERT_HASH
        )
        assert noisy.hash == clean.hash
        assert noisy.votes == clean.votes
        assert noisy.abort_tids == frozenset({9})

    def test_equivocation_raises(self):
        votes = list(self.VOTES) + [ShardVote(tid=4, shard_id=0, commit=False)]
        with pytest.raises(ValueError, match="equivocating"):
            reconcile_votes(votes)

    def test_missing_votes_degrade_to_timeout_vetoes(self):
        expected = {4: frozenset({0, 1}), 9: frozenset({0, 1, 2})}
        cert = make_certificate(
            3, list(self.VOTES), GENESIS_CERT_HASH, expected=expected
        )
        synthesized = [v for v in cert.votes if v.reason == "vote-timeout"]
        assert [(v.tid, v.shard_id) for v in synthesized] == [(9, 2)]
        assert not synthesized[0].commit
        assert cert.abort_tids == frozenset({9})
        assert cert.verify(GENESIS_CERT_HASH)

    def test_faulty_channel_fates_follow_the_plan(self):
        plan = FaultPlan(
            "wire",
            1,
            (
                FaultEvent(VOTE_DUPLICATE, block_id=2, shard=1),
                FaultEvent(PARTITION, block_id=3, shard=0, attempts=2),
            ),
        )
        channel = FaultyVoteChannel(plan)
        votes = [ShardVote(1, 0, True), ShardVote(1, 1, True)]
        assert len(channel.deliver(votes, 2)) == 3  # shard 1 duplicated
        assert [v.shard_id for v in channel.deliver(votes, 3, attempt=0)] == [1]
        assert [v.shard_id for v in channel.deliver(votes, 3, attempt=2)] == [0, 1]


class TestQuickDrills:
    """Two representative drills stay in tier-1 so every PR exercises the
    supervised-recovery path; the full matrix runs behind ``-m faults``."""

    def test_after_prepare_crash_drill_bit_identical(self):
        plan = FaultPlan(
            "unit-crash", 61, (FaultEvent(CRASH_AFTER_PREPARE, block_id=5, shard=0),)
        )
        result = run_drill("harmony", 2, plan)
        assert result.ok, result.failures
        assert result.stats["recoveries"] == 1

    def test_partition_heals_within_retry_window(self):
        plan = FaultPlan(
            "unit-partition",
            61,
            (FaultEvent(PARTITION, block_id=4, shard=1, attempts=2),),
        )
        result = run_drill("harmony", 2, plan)
        assert result.ok, result.failures
        assert result.stats["retry_rounds"] == 2
        assert result.stats["degraded_blocks"] == []

    def test_a_planted_divergence_names_its_shard_key_and_values(self, monkeypatch):
        """The disturbed chain ends one entry off the reference: the drill's
        one state failure names that shard, the key and both values."""
        finalize = SupervisedShardGroup.finalize
        planted = {}

        def finalize_then_plant(supervisor):
            finalize(supervisor)
            store = supervisor.chain.group.nodes[1].engine.store
            key = planted["key"] = store.keys()[0]
            planted["value"] = store.get_latest(key)[0]
            store.apply_block(store.last_committed_block + 1, [(key, -7)])

        monkeypatch.setattr(SupervisedShardGroup, "finalize", finalize_then_plant)
        result = run_drill("harmony", 2, FaultPlan("unit-planted", 61, ()))
        assert not result.ok
        assert result.failures == [
            f"shard 1: key {key_text(planted['key'])}: "
            f"drill -7 != reference {encode(planted['value'])}"
        ]


class TestPartitionDegradation:
    def test_unhealed_partition_aborts_deterministically(self):
        """The timeout→abort policy: when the partition outlives the
        retry budget, every cross-shard transaction touching the
        unreachable shard is vetoed by a synthesized timeout vote — the
        run stays deterministic (bit-identical to a rerun) and every
        replica can still replay it from sub-blocks + certificates."""
        plan = FaultPlan(
            "partition-degrade",
            61,
            (FaultEvent(PARTITION, block_id=3, shard=1, attempts=99),),
        )
        chain_a, sup_a = run_supervised(plan)
        chain_b, sup_b = run_supervised(plan)

        assert sup_a.degraded_blocks == [3]
        cert = chain_a.cert_log[3]
        timeouts = [v for v in cert.votes if v.reason == "vote-timeout"]
        assert timeouts and all(v.shard_id == 1 and not v.commit for v in timeouts)
        assert {v.tid for v in timeouts} <= cert.abort_tids
        assert chain_a.cert_log.verify_chain()

        # deterministic degradation: a rerun lands on the identical run
        digest_a = decision_digest(sup_a.decision_records())
        digest_b = decision_digest(sup_b.decision_records())
        assert digest_a == digest_b
        assert chain_a.group.first_difference(chain_b.group) is None
        assert chain_a.cert_log.head_hash == chain_b.cert_log.head_hash
        assert sup_a.injected_delay_us == sup_b.injected_delay_us

        # aborts, not divergence: a fresh replica replaying the certified
        # stream reproduces the degraded run's state
        assert chain_a.consistency_check()

    def test_multi_block_partition_lags_then_catches_up(self):
        plan = FaultPlan(
            "partition-window",
            61,
            (FaultEvent(PARTITION, block_id=2, shard=1, blocks=2),),
        )
        chain, supervisor = run_supervised(plan)
        assert supervisor.degraded_blocks == [2, 3]
        # the lagging shard caught up: same height as its peers, chained
        heights = {len(node.ledger) for node in chain.group.nodes}
        assert heights == {6}
        assert chain.group.ledgers_ok()
        assert chain.cert_log.verify_chain()
        assert chain.consistency_check()


class TestSupervisorAccounting:
    def test_backoff_and_delay_accounting_deterministic(self):
        plan = FaultPlan(
            "unit-accounting",
            61,
            (FaultEvent(CRASH_AFTER_PREPARE, block_id=4, shard=1),),
        )
        _, sup_a = run_supervised(plan)
        _, sup_b = run_supervised(plan)
        assert sup_a.injected_delay_us == sup_b.injected_delay_us
        assert sup_a.injected_delay_us > 0.0
        assert sup_a.recoveries == 1

    def test_double_fault_consumes_bounded_recovery_attempts(self):
        plan = FaultPlan(
            "unit-double-fault",
            61,
            (
                FaultEvent(
                    CRASH_AFTER_PREPARE, block_id=4, shard=1, recovery_failures=2
                ),
            ),
        )
        chain, supervisor = run_supervised(plan)
        assert supervisor.failed_recoveries == 2
        assert supervisor.recoveries == 1
        assert chain.group.ledgers_ok()
        assert chain.consistency_check()


#: the smoke plans, the torn-log crash after prepare and a two-block
#: partition window, on two shards
OUTCOME_PLANS = [
    plan
    for plan in standard_plans(8, NUM_SHARDS, 61)
    if plan.name in SMOKE_PLAN_NAMES | {"torn-log-tail"}
] + [
    FaultPlan(
        "partition-window", 61, (FaultEvent(PARTITION, block_id=2, shard=1, blocks=2),)
    )
]


def drilled_supervisor(monkeypatch, plan):
    """``run_drill`` on ``plan``; returns its verdict and its supervisor,
    taken once ``finalize`` has run."""
    finalize = SupervisedShardGroup.finalize
    seen = []

    def finalize_and_keep(supervisor):
        finalize(supervisor)
        seen.append(supervisor)

    monkeypatch.setattr(SupervisedShardGroup, "finalize", finalize_and_keep)
    result = run_drill("harmony", NUM_SHARDS, plan)
    return result, seen[0]


class TestSupervisorOutcomes:
    """The supervisor's one record per block is the block's outcome: every
    shard's execution lands in it, a live commit first, else the replay
    that recovery or catch-up ran."""

    @pytest.mark.parametrize("plan", OUTCOME_PLANS, ids=[p.name for p in OUTCOME_PLANS])
    def test_every_outcome_holds_every_shards_execution(self, monkeypatch, plan):
        result, supervisor = drilled_supervisor(monkeypatch, plan)
        # a window outlives the vote retries: its cross-shard transactions
        # degrade to aborts the reference never takes
        assert result.ok or plan.partition_windows(), result.failures
        replayed = {
            (e.block_id, e.shard) for e in plan.events if e.kind == CRASH_AFTER_PREPARE
        }
        assert [o.block_id for o in supervisor.outcomes] == list(range(8))
        for o in supervisor.outcomes:
            assert sorted(o.executions) == list(range(NUM_SHARDS))
            for shard, execution in o.executions.items():
                assert execution.block_id == o.block_id
                if (o.block_id, shard) in replayed:
                    # voted live, died before the commit: recovery's record
                    assert execution.txns is not o.prepared[shard].txns
                elif shard in o.prepared:
                    assert execution.txns is o.prepared[shard].txns
        if plan.partition_windows():
            (window,) = plan.partition_windows()
            for o in supervisor.outcomes[window.block_id : window.block_id + window.blocks]:
                assert window.shard not in o.prepared  # caught up, never live

    def test_a_missing_execution_is_named(self, monkeypatch):
        _result, supervisor = drilled_supervisor(monkeypatch, FaultPlan("unit-none", 61, ()))
        o = supervisor.outcomes[3]
        coordinator = min(o.participants[0])
        del o.executions[coordinator]
        with pytest.raises(RuntimeError) as raised:
            supervisor.decision_records()
        assert str(raised.value) == (
            f"no decision record for tid {o.block.first_tid} "
            f"(shard {coordinator}, block 3)"
        )

    def test_a_missing_non_coordinator_execution_is_not_read(self):
        """The merged view reads each transaction's record from its
        coordinator shard alone, so a shard that coordinates none of a
        block's transactions may lack its execution."""
        _chain, supervisor = run_supervised(FaultPlan("unit-none", 61, ()), num_shards=4)
        records = supervisor.decision_records()
        for o in supervisor.outcomes:
            idle = set(o.executions) - {min(shards) for shards in o.participants}
            if idle:
                break
        else:
            pytest.fail("every shard coordinates a transaction of every block")
        del o.executions[max(idle)]
        assert supervisor.decision_records() == records
