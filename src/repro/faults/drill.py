"""Chaos drills: a faulted run against an undisturbed reference.

:func:`run_drill` builds two :class:`ShardedBlockchain`\\ s from the same
config and feeds both the identical seeded spec stream. The *disturbed*
chain runs under a :class:`~repro.faults.supervisor.SupervisedShardGroup`
with a fault plan armed; the *reference* chain runs the plain decision
layer. A healing plan must leave the two **bit-identical**:

- per-block commit/abort decisions (the first divergent block is named),
- the decision digest over the whole run,
- every shard's live entries, compared per shard (a failure names the
  shard, the first differing key and both values),
- both certificate chains verify and share the head hash,
- and the reference history is certified serializable by the
  :class:`~repro.dcc.oracle.HistoryOracle` — decision identity transfers
  the certificate to the disturbed run.

Every drill is reproducible from ``(plan, scheme, shard count)`` alone:
plans carry their seed, and all randomness flows through named
:class:`~repro.sim.rng.SeededRng` streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.config import decision_digest
from repro.collector import collector_paused
from repro.dcc.oracle import HistoryOracle
from repro.encoding import encode, key_text
from repro.faults.inject import FaultInjector
from repro.faults.plan import MIGRATION_KINDS, FaultPlan, standard_plans
from repro.faults.supervisor import RetryPolicy, SupervisedShardGroup
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.sim.rng import SeededRng
from repro.workloads import make_workload
from repro.workloads.base import ShardAffinity

DRILL_SCHEMES = ("harmony", "aria", "rbc")
DRILL_SHARD_COUNTS = (1, 2, 4)
#: every drilled workload; smallbank carries the full plan roster, the
#: rest run the smoke plans (one per fault family) to bound the matrix
DRILL_WORKLOADS = (
    "smallbank",
    "tpcc",
    "adv-counter",
    "adv-scan",
    "adv-skewshift",
)
#: the per-PR smoke gate always drills TPC-C and the skew-shift
#: adversary (the workload live re-keying exists for) next to smallbank
SMOKE_WORKLOADS = ("smallbank", "tpcc", "adv-skewshift")
#: the fast gate: one representative per fault family
SMOKE_PLAN_NAMES = frozenset(
    {
        "baseline-no-fault",
        "crash-before-prepare",
        "crash-after-prepare",
        "torn-base-compaction",
        "vote-drop",
        "partition-2pc",
        "migration-crash",
        "torn-migration-delta",
    }
)


@dataclass
class DrillResult:
    """One drill's verdict and supervision accounting."""

    plan: FaultPlan
    scheme: str
    num_shards: int
    workload: str = "smallbank"
    ok: bool = True
    failures: list = field(default_factory=list)
    #: first block whose decisions diverged from the reference (None = none)
    first_divergent_block: int | None = None
    stats: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return (
            f"{self.plan.name} x {self.scheme} x {self.num_shards}shard"
            f" x {self.workload}"
        )


def _applies_in_order(txns) -> list[tuple]:
    """Per-key ``(key, tids)`` apply chains of committed transactions, in
    list order — the pre-block-snapshot recording recipe (aria / rbc)."""
    chains: dict = {}
    for txn in txns:
        if txn.committed:
            for key in txn.write_set:
                chains.setdefault(key, []).append(txn.tid)
    return list(chains.items())


def _build_chain(
    scheme: str,
    num_shards: int,
    plan: FaultPlan,
    block_size: int,
    workload_name: str = "smallbank",
    rebalance: bool = False,
):
    affinity = ShardAffinity(num_shards, 0.5) if num_shards > 1 else None
    if workload_name == "smallbank":
        # the original drill workload, kept at its historical scale so
        # every existing plan's streams stay reproducible
        workload = make_workload(
            "smallbank", num_accounts=90, theta=0.6, affinity=affinity
        )
    else:
        workload = make_workload(workload_name, profile="gate", affinity=affinity)
    # migration-family drills arm an aggressive adaptive policy (thresholds
    # any window meets) so a re-key is actually due at the faulted
    # block; every other plan keeps the historical static routing
    extra = (
        dict(
            rebalance="adaptive",
            rebalance_skew_threshold=1.0,
            rebalance_cross_threshold=0.0,
            rebalance_max_keys=8,
        )
        if rebalance
        else {}
    )
    config = ShardConfig(
        system=scheme,
        num_shards=num_shards,
        block_size=block_size,
        seed=plan.seed,
        checkpoint_interval=2,
        checkpoint_base_interval=2,
        **extra,
    )
    return ShardedBlockchain(config, workload)


@collector_paused()
def run_drill(
    scheme: str,
    num_shards: int,
    plan: FaultPlan,
    num_blocks: int = 8,
    block_size: int = 8,
    policy: RetryPolicy | None = None,
    workload: str = "smallbank",
    tracer=None,
) -> DrillResult:
    """One drill: disturbed (supervised, plan armed) vs reference.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`) rides the *disturbed*
    chain, so injected-fault and supervision events land in the span
    stream; the reference chain stays untraced.
    """
    result = DrillResult(
        plan=plan, scheme=scheme, num_shards=num_shards, workload=workload
    )
    rebalance = any(e.kind in MIGRATION_KINDS for e in plan.events)
    disturbed = _build_chain(scheme, num_shards, plan, block_size, workload, rebalance)
    disturbed.tracer = tracer
    reference = _build_chain(scheme, num_shards, plan, block_size, workload, rebalance)
    supervisor = SupervisedShardGroup(
        disturbed, FaultInjector(plan, num_shards), policy
    )

    stream = f"faults/{plan.name}/{scheme}/{num_shards}"
    if workload != "smallbank":
        # smallbank keeps its historical stream name; new workloads get
        # their own so no two drills ever share a spec sequence
        stream = f"{stream}/{workload}"
    rng = SeededRng(plan.seed, stream)
    ref_records: list = []
    oracle = HistoryOracle()
    for _ in range(num_blocks):
        specs = disturbed.workload.generate_block(block_size, rng)
        supervisor.process_block(disturbed.ordering.form_block(specs))
        block = reference.ordering.form_block(specs)
        outcome = reference.process_global_block(block)
        merged = reference.merged_view(outcome)
        ref_records.append((block.block_id, merged))
        if scheme == "harmony":
            apply_chains = [
                item
                for shard in sorted(outcome.executions)
                for item in outcome.executions[shard].apply_chains
            ]
            first = min(outcome.executions)
            snapshot_id = outcome.executions[first].snapshot_block_id
        else:
            apply_chains = _applies_in_order(merged)
            snapshot_id = block.block_id - 1
        oracle.record_block(
            block.block_id, merged, apply_chains, snapshot_block_id=snapshot_id
        )
    supervisor.finalize()

    def fail(message: str) -> None:
        result.ok = False
        result.failures.append(message)

    # --- per-block decision identity (names the first divergent block)
    drill_records = supervisor.decision_records()
    for (bid, drill_txns), (_, ref_txns) in zip(drill_records, ref_records):
        drill_decisions = {
            (t.tid, t.committed, t.aborted) for t in drill_txns
        }
        ref_decisions = {(t.tid, t.committed, t.aborted) for t in ref_txns}
        if drill_decisions != ref_decisions:
            result.first_divergent_block = bid
            fail(
                f"block {bid}: decisions diverged "
                f"(drill-only: {sorted(drill_decisions - ref_decisions)}, "
                f"reference-only: {sorted(ref_decisions - drill_decisions)})"
            )
            break

    if decision_digest(drill_records) != decision_digest(ref_records):
        fail("decision digests differ")

    # --- state identity: the first live entry that differs, by shard and key
    difference = disturbed.group.first_difference(reference.group)
    if difference is not None:
        shard, key, got, want = difference
        fail(f"shard {shard}: key {key_text(key)}: drill {encode(got)} != reference {encode(want)}")

    # --- certificate chains intact and identical
    if not disturbed.cert_log.verify_chain():
        fail("disturbed certificate chain broken")
    if not reference.cert_log.verify_chain():
        fail("reference certificate chain broken")
    if len(disturbed.cert_log) != len(reference.cert_log):
        fail("certificate streams have different heights")
    if disturbed.cert_log.head_hash != reference.cert_log.head_hash:
        fail("certificate head hashes differ")

    # --- ledgers chained on every (recovered) shard
    if not disturbed.group.ledgers_ok():
        fail("disturbed ledger chain broken")

    # --- the reference history is serializable; decision identity
    # transfers the certificate to the disturbed run
    if not oracle.is_serializable():
        fail("reference history not serializable")

    result.stats = {
        "retry_rounds": supervisor.retry_rounds,
        "recoveries": supervisor.recoveries,
        "failed_recoveries": supervisor.failed_recoveries,
        "injected_delay_us": round(supervisor.injected_delay_us, 3),
        "degraded_blocks": list(supervisor.degraded_blocks),
    }
    return result


def drill_matrix(
    schemes=DRILL_SCHEMES,
    shard_counts=DRILL_SHARD_COUNTS,
    num_blocks: int = 8,
    block_size: int = 8,
    seed: int = 61,
    smoke: bool = False,
    workloads=None,
):
    """Enumerate plan x scheme x shard-count x workload drills.

    ``smoke=True`` gates the fast subset: one scheme, one shard count,
    one plan per fault family, the :data:`SMOKE_WORKLOADS` — the per-PR
    robustness gate. The full matrix runs every plan on smallbank and the
    smoke plans on every other registered drill workload.
    """
    if smoke:
        schemes = (schemes[0],)
        shard_counts = (min(2, max(shard_counts)),)
        workloads = SMOKE_WORKLOADS if workloads is None else workloads
    elif workloads is None:
        workloads = DRILL_WORKLOADS
    for num_shards in shard_counts:
        plans = standard_plans(num_blocks, num_shards, seed)
        if smoke:
            plans = [p for p in plans if p.name in SMOKE_PLAN_NAMES]
        for scheme in schemes:
            for workload in workloads:
                if workload == "smallbank":
                    roster = plans
                else:
                    roster = [p for p in plans if p.name in SMOKE_PLAN_NAMES]
                for plan in roster:
                    yield run_drill(
                        scheme,
                        num_shards,
                        plan,
                        num_blocks,
                        block_size,
                        workload=workload,
                    )
