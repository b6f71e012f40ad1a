"""Cross-scheme conformance: every DCC's committed history is serializable.

Seeded YCSB / SmallBank / hotspot runs are pushed through every scheme
(serial, harmony, aria, rbc, fabric, fastfabric) and the committed history
is fed to :class:`~repro.dcc.oracle.HistoryOracle`, whose graph must equal
the reference rebuild (``tests.reference.history_graph``) edge for edge.
Per-scheme recording honours each protocol's read/apply semantics:

- **harmony** hands over its own per-key apply chains (Rule-2 order) and
  lag-2 snapshot ids; reads carry observed snapshot versions.
- **aria / rbc / fabric / fastfabric** read from a pre-block snapshot, so
  blocks are recorded wholesale with chains in apply order (TID order;
  the orderer's topological order for fastfabric).
- **serial** reads *inside* the block (each transaction observes its
  predecessors), so each committed transaction is its own micro-block at
  snapshot lag 1 — the serialization order is the execution order.

``count_false_aborts`` must stay consistent with each scheme's claims:
serial never aborts, Harmony never aborts on ww conflicts (it reorders
them), and no scheme reports more false aborts than aborts.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.harmony import HarmonyConfig, HarmonyExecutor
from repro.dcc.aria import AriaExecutor
from repro.dcc.fabric import FabricValidator, endorsed_value_writes
from repro.dcc.fastfabric import FastFabricOrderer, FastFabricValidator
from repro.dcc.oracle import HistoryOracle, SerializabilityOracle
from repro.dcc.rbc import RBCExecutor
from repro.dcc.serial import SerialExecutor
from repro.sim.rng import SeededRng
from repro.storage.engine import StorageEngine
from repro.txn.transaction import AbortReason, Txn
from repro.workloads import REGISTRY, make_workload

from tests import reference
from tests.conftest import run_with_history

NUM_BLOCKS = 5
BLOCK_SIZE = 10

SCHEMES = ("serial", "harmony", "aria", "rbc", "fabric", "fastfabric")

#: abort reasons each scheme is allowed to produce (its "claims")
ALLOWED_ABORTS = {
    "serial": set(),
    "harmony": {
        AbortReason.BACKWARD_DANGEROUS_STRUCTURE,
        AbortReason.INTER_BLOCK_STRUCTURE,
    },
    "aria": {AbortReason.WAW, AbortReason.RAW},
    "rbc": {AbortReason.WAW, AbortReason.SSI_DANGEROUS_STRUCTURE},
    "fabric": {AbortReason.STALE_READ},
    "fastfabric": {
        AbortReason.STALE_READ,
        AbortReason.GRAPH_CYCLE,
        AbortReason.GRAPH_OVERFLOW,
    },
}

#: every registered workload at its conformance scale — the sweep grows
#: automatically with the shared registry
WORKLOADS = {
    name: (lambda name=name: make_workload(name, profile="conformance"))
    for name in sorted(REGISTRY)
}


def applies_in_order(txns) -> list[tuple]:
    """Per-key ``(key, tids)`` apply chains for committed transactions, in
    list order."""
    chains: dict = {}
    for txn in txns:
        if txn.committed:
            for key in txn.write_set:
                chains.setdefault(key, []).append(txn.tid)
    return list(chains.items())


def build_scheme(scheme: str, engine, registry):
    if scheme == "serial":
        return SerialExecutor(engine, registry)
    if scheme == "harmony":
        return HarmonyExecutor(engine, registry, HarmonyConfig(inter_block=True))
    if scheme == "aria":
        return AriaExecutor(engine, registry)
    if scheme == "rbc":
        return RBCExecutor(engine, registry)
    if scheme == "fabric":
        return FabricValidator(engine, registry)
    return FastFabricValidator(engine, registry)


def endorse(txns, engine, registry):
    """SOV endorsement against the replica's latest state (lag 0): freeze
    read versions and evaluate commands into value writes."""
    from repro.txn.context import SimulationContext

    snapshot = engine.store.latest_snapshot()
    for txn in txns:
        ctx = SimulationContext(txn, snapshot, engine)
        try:
            txn.output = registry.execute(ctx)
        except (KeyError, TypeError, ValueError):
            txn.mark_aborted(AbortReason.EXECUTION_ERROR)
            continue
        endorsed_value_writes(txn, snapshot)


def run_scheme(scheme: str, workload_name: str):
    workload = WORKLOADS[workload_name]()
    engine = StorageEngine(pool_pages=16)
    engine.preload(workload.initial_state())
    registry = workload.build_registry()
    executor = build_scheme(scheme, engine, registry)
    orderer = None
    if scheme == "fastfabric":
        orderer = FastFabricOrderer(engine.costs, max_graph_txns=150)

    rng = SeededRng(11, f"conformance/{scheme}/{workload.name}")
    oracle = HistoryOracle()
    micro = itertools.count()
    next_tid = 0
    outcomes = {"committed": 0, "aborted": 0, "false_aborts": 0, "reasons": set()}

    for block_id in range(NUM_BLOCKS):
        specs = workload.generate_block(BLOCK_SIZE, rng)
        txns = [
            Txn(tid=next_tid + i, block_id=block_id, spec=spec)
            for i, spec in enumerate(specs)
        ]
        next_tid += len(txns)

        if scheme in ("fabric", "fastfabric"):
            endorse(txns, engine, registry)
        if orderer is not None:
            outcome = orderer.process(
                txns, state_view=engine.store.latest_snapshot()
            )
            ordered = outcome.ordered_txns + [t for t in txns if t.aborted]
        else:
            ordered = txns

        execution = executor.execute_block(block_id, ordered)

        chain_order = (lambda t: t.tid) if scheme in ("fabric", "fastfabric") else None
        false_aborts = SerializabilityOracle.count_false_aborts(
            execution.txns, chain_order=chain_order
        )
        outcomes["committed"] += sum(1 for t in txns if t.committed)
        outcomes["aborted"] += sum(1 for t in txns if t.aborted)
        outcomes["false_aborts"] += false_aborts
        outcomes["reasons"].update(
            t.abort_reason for t in txns if t.aborted
        )
        assert 0 <= false_aborts <= sum(1 for t in txns if t.aborted)

        if scheme == "harmony":
            oracle.record_block(
                block_id,
                execution.txns,
                execution.apply_chains,
                snapshot_block_id=execution.snapshot_block_id,
            )
        elif scheme == "serial":
            # serial reads see in-block predecessors: record the execution
            # order itself as micro-blocks at snapshot lag 1
            for txn in sorted(execution.txns, key=lambda t: t.tid):
                if not txn.committed:
                    continue
                mid = next(micro)
                txn.read_set = {key: None for key in txn.read_set}
                oracle.record_block(
                    mid, [txn], applies_in_order([txn]), snapshot_block_id=mid - 1
                )
        else:
            # pre-block snapshot readers: block granularity, chains in the
            # scheme's apply order (execution.txns order)
            oracle.record_block(
                block_id,
                execution.txns,
                applies_in_order(execution.txns),
                snapshot_block_id=block_id - 1,
            )

    assert oracle.build_graph() == reference.history_graph(oracle)
    assert oracle.is_serializable()
    outcomes["engine"] = engine
    outcomes["workload"] = workload
    return outcomes


class TestCrossSchemeConformance:
    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_committed_history_serializable(self, scheme, workload_name):
        outcomes = run_scheme(scheme, workload_name)
        assert outcomes["committed"] > 0
        assert outcomes["reasons"] <= ALLOWED_ABORTS[scheme]
        assert 0 <= outcomes["false_aborts"] <= outcomes["aborted"]
        if scheme == "serial":
            assert outcomes["aborted"] == 0 and outcomes["false_aborts"] == 0
        if scheme == "harmony":
            # the paper's core claim: ww conflicts are reordered, not aborted
            assert AbortReason.WAW not in outcomes["reasons"]

    def test_contended_schemes_abort_where_serial_does_not(self):
        """Sanity that the sweep exercises real contention: at this skew the
        abort-prone value-based baselines do abort, serial never does."""
        aria = run_scheme("aria", "ycsb-hotspot")
        serial = run_scheme("serial", "ycsb-hotspot")
        assert serial["aborted"] == 0
        assert aria["aborted"] > 0


def execution_errors(scheme: str, workload_name: str, num_blocks=8, block_size=25) -> int:
    """Transactions of a seeded ``scheme`` run that end in EXECUTION_ERROR."""
    workload = WORKLOADS[workload_name]()
    engine = StorageEngine(pool_pages=16)
    engine.preload(workload.initial_state())
    executor = build_scheme(scheme, engine, workload.build_registry())
    rng = SeededRng(11, f"census/{scheme}/{workload.name}")
    errors = next_tid = 0
    for block_id in range(num_blocks):
        specs = workload.generate_block(block_size, rng)
        txns = [
            Txn(tid=next_tid + i, block_id=block_id, spec=spec)
            for i, spec in enumerate(specs)
        ]
        next_tid += len(txns)
        executor.execute_block(block_id, txns)
        errors += sum(t.abort_reason is AbortReason.EXECUTION_ERROR for t in txns)
    return errors


class TestExecutionErrorCensus:
    def test_no_registered_workload_raises_in_simulation(self):
        """The simulation step turns a KeyError / TypeError / ValueError
        raised inside a procedure into an EXECUTION_ERROR abort, silently.
        No registered workload raises one by design, so every count must be
        0: a nonzero one is an internal error passing as an abort (a
        zero-argument ``super()`` in a slotted command did exactly that
        under aria and rbc, with nothing raised)."""
        census = {
            (workload_name, scheme): execution_errors(scheme, workload_name)
            for workload_name in sorted(WORKLOADS)
            for scheme in ("harmony", "aria", "rbc")
        }
        assert {cell: n for cell, n in census.items() if n} == {}


def run_sharded_scheme(
    scheme: str, workload_name: str, num_shards: int = 2, cross: float = 0.5
):
    """A sharded run of ``scheme``; returns (chain, outcomes) with the
    committed history certified by both oracle paths."""
    from repro.shard.system import ShardConfig, ShardedBlockchain
    from repro.workloads.base import ShardAffinity

    # the gate profile is moderately contended: the affinity fold
    # concentrates each partition's traffic, so the unsharded sweep's
    # extreme skew would starve the abort-happy baselines of any commit
    workload = make_workload(
        workload_name, profile="gate", affinity=ShardAffinity(num_shards, cross)
    )
    config = ShardConfig(
        system=scheme,
        block_size=BLOCK_SIZE,
        num_blocks=NUM_BLOCKS,
        seed=11,
        num_shards=num_shards,
    )
    chain = ShardedBlockchain(config, workload)
    metrics, history = run_with_history(chain)

    oracle = HistoryOracle()
    for record in history:
        if scheme == "harmony":
            apply_chains = [
                item
                for shard in sorted(record.executions)
                for item in record.executions[shard].apply_chains
            ]
            snapshot_id = record.executions[0].snapshot_block_id
        else:
            # pre-block snapshot readers; per-key apply order is TID order
            apply_chains = applies_in_order(record.merged_txns)
            snapshot_id = record.block_id - 1
        oracle.record_block(
            record.block_id,
            record.merged_txns,
            apply_chains,
            snapshot_block_id=snapshot_id,
        )
    assert oracle.build_graph() == reference.history_graph(oracle)
    assert oracle.is_serializable()

    reasons = {
        t.abort_reason
        for record in history
        for t in record.merged_txns
        if t.aborted
    }
    return chain, metrics, reasons


class TestShardedConformance:
    """The sharded pipeline upholds every scheme's conformance claims."""

    @pytest.mark.parametrize(
        "num_shards", (2, pytest.param(4, marks=pytest.mark.tpcc))
    )
    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    @pytest.mark.parametrize("scheme", ("harmony", "aria", "rbc"))
    def test_sharded_history_serializable(self, scheme, workload_name, num_shards):
        chain, metrics, reasons = run_sharded_scheme(
            scheme, workload_name, num_shards=num_shards
        )
        assert metrics.committed > 0
        # a shard's veto surfaces as CROSS_SHARD_ABORT on the other
        # participants; every other reason must be one the scheme claims
        assert reasons <= ALLOWED_ABORTS[scheme] | {AbortReason.CROSS_SHARD_ABORT}
        assert metrics.extra["ledger_ok"]
        assert metrics.extra["certificates_ok"]
        if scheme == "harmony":
            assert AbortReason.WAW not in reasons

    def test_sharded_false_abort_accounting_sane(self):
        _chain, metrics, _reasons = run_sharded_scheme("harmony", "ycsb")
        assert 0 <= metrics.false_aborts <= metrics.aborted


@pytest.mark.tpcc
class TestTPCCExtendedMatrix:
    """The heavier TPC-C sweep: the cross-shard knob end to end.

    Deselected by default (like ``perf``/``faults``); ``make conformance``
    or ``pytest -m tpcc`` runs it.
    """

    @pytest.mark.parametrize("cross", (0.0, 0.5, 0.9))
    @pytest.mark.parametrize("num_shards", (2, 4))
    @pytest.mark.parametrize("scheme", ("harmony", "aria", "rbc"))
    def test_cross_ratio_sweep_serializable(self, scheme, num_shards, cross):
        chain, metrics, reasons = run_sharded_scheme(
            scheme, "tpcc", num_shards=num_shards, cross=cross
        )
        assert metrics.committed > 0
        assert reasons <= ALLOWED_ABORTS[scheme] | {AbortReason.CROSS_SHARD_ABORT}
        assert metrics.extra["ledger_ok"]
        assert metrics.extra["certificates_ok"]
        if cross > 0.0:
            # remote Payments/NewOrders really leave their home shard
            assert metrics.extra["cross_shard_txns"] > 0
        else:
            assert metrics.extra["cross_shard_txns"] == 0
