"""Tests for the baseline DCC protocols (Aria, RBC, Fabric, FastFabric#, serial)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.harmony import HarmonyExecutor
from repro.dcc.aria import AriaExecutor
from repro.dcc.fabric import FabricValidator, endorsed_value_writes
from repro.dcc.fastfabric import FastFabricOrderer, FastFabricValidator
from repro.dcc.oracle import SerializabilityOracle, find_cycle
from repro.dcc.rbc import RBCExecutor
from repro.dcc.serial import SerialExecutor
from repro.execution import DCCExecutor
from repro.txn.commands import SetValue
from repro.txn.transaction import AbortReason, Txn, TxnSpec

from tests.conftest import generic_registry, make_engine, make_txns


def run_with(executor_cls, op_lists):
    engine = make_engine()
    executor = executor_cls(engine, generic_registry())
    txns = make_txns(op_lists)
    execution = executor.execute_block(0, txns)
    return engine, execution


class TestSerial:
    def test_reads_see_earlier_writes(self):
        engine, execution = run_with(
            SerialExecutor, [[("set", 0, 555)], [("r", 0)]]
        )
        assert execution.txns[1].output == (555,)
        assert all(t.committed for t in execution.txns)

    def test_serial_commit_flag(self):
        _, execution = run_with(SerialExecutor, [[("add", 0, 1)]])
        assert execution.serial_commit is True

    def test_final_state_is_sequential(self):
        engine, _ = run_with(
            SerialExecutor, [[("add", 0, 10)], [("mul", 0, 2)], [("add", 0, 1)]]
        )
        assert engine.store.get_latest(("k", 0))[0] == (100 + 10) * 2 + 1


class TestAria:
    def test_figure2_ww_abort(self):
        """Aria aborts the larger TID on a ww-dependency (Figure 2)."""
        _, execution = run_with(AriaExecutor, [[("add", 0, 1)], [("add", 0, 2)]])
        assert execution.txns[0].committed
        assert execution.txns[1].aborted
        assert execution.txns[1].abort_reason is AbortReason.WAW

    def test_raw_alone_survives_with_reordering(self):
        # T1 writes x; T0... rather: T(big) reads key written by T(small):
        # RAW without WAR commits under Aria's deterministic reordering.
        _, execution = run_with(AriaExecutor, [[("set", 0, 5)], [("r", 0)]])
        assert all(t.committed for t in execution.txns)

    def test_raw_and_war_aborts_with_reordering(self):
        # T1 reads k0 (written by T0) and writes k1 (read by T0)
        _, execution = run_with(
            AriaExecutor, [[("set", 0, 5), ("r", 1)], [("r", 0), ("set", 1, 6)]]
        )
        assert execution.txns[1].aborted

    def test_committed_writes_disjoint(self):
        _, execution = run_with(
            AriaExecutor,
            [[("add", 0, 1)], [("add", 0, 2)], [("add", 1, 3)], [("add", 1, 4)]],
        )
        keys_written = []
        for txn in execution.txns:
            if txn.committed:
                keys_written.extend(txn.write_set)
        assert len(keys_written) == len(set(keys_written))

    def test_values_evaluated_against_snapshot(self):
        engine, execution = run_with(AriaExecutor, [[("add", 0, 10)]])
        assert engine.store.get_latest(("k", 0))[0] == 110


class TestRBC:
    def test_ww_first_committer_wins(self):
        _, execution = run_with(RBCExecutor, [[("add", 0, 1)], [("add", 0, 2)]])
        assert execution.txns[0].committed
        assert execution.txns[1].aborted
        assert execution.txns[1].abort_reason is AbortReason.WAW

    def test_ssi_pivot_aborts(self):
        # T1 reads k0 and writes k1; T0 writes k0; T2 reads k1 => T1 pivot
        _, execution = run_with(
            RBCExecutor,
            [[("set", 0, 1)], [("r", 0), ("set", 1, 2)], [("r", 1)]],
        )
        assert execution.txns[1].aborted
        assert execution.txns[1].abort_reason is AbortReason.SSI_DANGEROUS_STRUCTURE

    def test_serial_commit_flag(self):
        _, execution = run_with(RBCExecutor, [[("add", 0, 1)]])
        assert execution.serial_commit is True

    def test_rbc_aborts_at_least_as_much_as_harmony(self):
        """RBC's pivot rule has no TID refinement: it is a superset of
        Harmony's backward dangerous structure on the same block."""
        from repro.core.harmony import HarmonyConfig, HarmonyExecutor

        op_lists = [
            [("r", 1), ("set", 0, 1)],
            [("r", 0), ("set", 1, 2)],
            [("r", 2), ("set", 3, 3)],
        ]
        _, rbc_exec = run_with(RBCExecutor, op_lists)
        engine = make_engine()
        harmony = HarmonyExecutor(
            engine, generic_registry(), HarmonyConfig(inter_block=False)
        )
        h_txns = make_txns(op_lists)
        harmony.execute_block(0, h_txns)
        rbc_aborts = sum(1 for t in rbc_exec.txns if t.aborted)
        harmony_aborts = sum(1 for t in h_txns if t.aborted)
        assert harmony_aborts <= rbc_aborts


def endorsed_txns(op_lists, engine, lag_block=-1):
    """Build SOV-endorsed transactions against a (possibly stale) snapshot."""
    from repro.txn.context import SimulationContext

    registry = generic_registry()
    txns = make_txns(op_lists)
    snapshot = engine.store.snapshot(lag_block)
    for txn in txns:
        ctx = SimulationContext(txn, snapshot, engine)
        txn.output = registry.execute(ctx)
        endorsed_value_writes(txn, snapshot)
    return txns


class TestFabric:
    def test_fresh_reads_commit(self):
        engine = make_engine()
        txns = endorsed_txns([[("r", 0), ("set", 1, 9)]], engine)
        validator = FabricValidator(engine, generic_registry())
        execution = validator.execute_block(0, txns)
        assert execution.txns[0].committed

    def test_stale_read_aborts(self):
        engine = make_engine()
        engine.store.apply_block(0, [(("k", 0), 777)])  # state moved on
        txns = endorsed_txns([[("r", 0), ("set", 1, 9)]], engine, lag_block=-1)
        validator = FabricValidator(engine, generic_registry())
        execution = validator.execute_block(1, txns)
        assert execution.txns[0].aborted
        assert execution.txns[0].abort_reason is AbortReason.STALE_READ

    def test_intra_block_stale_read_aborts(self):
        """Fabric's over-conservative rule: T2's read of a key T1 just wrote
        is stale even though T2 -> T1 would be serializable (Section 2.2)."""
        engine = make_engine()
        txns = endorsed_txns([[("set", 0, 5)], [("r", 0)]], engine)
        validator = FabricValidator(engine, generic_registry())
        execution = validator.execute_block(0, txns)
        assert execution.txns[0].committed
        assert execution.txns[1].aborted


class TestOneContract:
    """Every scheme prepares, then commits: one seam for every driver."""

    @pytest.mark.parametrize(
        "scheme",
        [
            SerialExecutor,
            AriaExecutor,
            RBCExecutor,
            FabricValidator,
            FastFabricValidator,
            HarmonyExecutor,
        ],
    )
    def test_no_scheme_overrides_execute_block(self, scheme):
        assert scheme.execute_block is DCCExecutor.execute_block

    @pytest.mark.parametrize(
        "scheme", [SerialExecutor, FabricValidator, FastFabricValidator]
    )
    def test_overlay_commit_rejects_a_veto(self, scheme):
        """Each transaction read its predecessors' overlay writes, so a
        cross-shard veto cannot be honoured: the commit names the vetoed
        tids and installs nothing."""
        engine = make_engine()
        op_lists = [[("set", 0, 5)], [("add", 1, 1)], [("add", 2, 1)]]
        if scheme is SerialExecutor:
            txns = make_txns(op_lists)
        else:
            txns = endorsed_txns(op_lists, engine)
        executor = scheme(engine, generic_registry())
        prepared = executor.prepare_block(0, txns)
        with pytest.raises(ValueError, match=r"vetos \[0, 2\]"):
            executor.commit_block(prepared, frozenset({0, 2}))
        assert engine.store.last_committed_block == -1


class TestFastFabricOrderer:
    def test_find_cycle_detects(self):
        assert find_cycle({1: {2}, 2: {1}}) is not None
        assert find_cycle({1: {2}, 2: set()}) is None

    def test_cycle_broken_by_dropping_txn(self):
        engine = make_engine()
        # mutual rw: T0 reads k1 writes k0; T1 reads k0 writes k1
        txns = endorsed_txns(
            [[("r", 1), ("set", 0, 1)], [("r", 0), ("set", 1, 2)]], engine
        )
        outcome = FastFabricOrderer(engine.costs).process(txns)
        aborted = [t for t in txns if t.aborted]
        assert len(aborted) == 1
        assert aborted[0].abort_reason is AbortReason.GRAPH_CYCLE
        assert outcome.cycles_broken >= 1

    def test_no_cycle_no_aborts_and_reordered(self):
        engine = make_engine()
        txns = endorsed_txns([[("r", 0)], [("set", 0, 1)]], engine)
        outcome = FastFabricOrderer(engine.costs).process(txns)
        assert [t.aborted for t in txns] == [False, False]
        # reader must be ordered before writer (rw edge)
        order = [t.tid for t in outcome.ordered_txns]
        assert order.index(0) < order.index(1)

    def test_graph_cap_drops_excess(self):
        engine = make_engine()
        txns = endorsed_txns([[("set", i, 1)] for i in range(6)], engine)
        outcome = FastFabricOrderer(engine.costs, max_graph_txns=4).process(txns)
        assert outcome.dropped == 2
        dropped = [t for t in txns if t.abort_reason is AbortReason.GRAPH_OVERFLOW]
        assert len(dropped) == 2

    def test_traversal_cost_grows_with_density(self):
        engine = make_engine()
        sparse = endorsed_txns([[("set", i, 1)] for i in range(6)], engine)
        dense = endorsed_txns(
            [[("r", j, ) for j in range(4)] + [("set", i, 1)] for i in range(6)],
            engine,
        )
        orderer = FastFabricOrderer(engine.costs)
        assert (
            orderer.process(dense).traversal_cost_us
            > orderer.process(sparse).traversal_cost_us
        )


def _ops():
    key = st.integers(min_value=0, max_value=6)
    return st.lists(
        st.one_of(
            st.tuples(st.just("r"), key),
            st.tuples(st.just("add"), key, st.integers(-5, 5)),
            st.tuples(st.just("set"), key, st.integers(0, 50)),
        ),
        min_size=1,
        max_size=4,
    )


@st.composite
def blocks(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    return [draw(_ops()) for _ in range(n)]


class TestAllProtocolsSerializable:
    @given(blocks())
    @settings(max_examples=80, deadline=None)
    def test_aria_committed_serializable(self, op_lists):
        _, execution = run_with(AriaExecutor, op_lists)
        assert SerializabilityOracle.committed_is_serializable(
            execution.txns, chain_order=lambda t: t.tid
        )

    @given(blocks())
    @settings(max_examples=80, deadline=None)
    def test_rbc_committed_serializable(self, op_lists):
        _, execution = run_with(RBCExecutor, op_lists)
        assert SerializabilityOracle.committed_is_serializable(
            execution.txns, chain_order=lambda t: t.tid
        )

    @given(blocks())
    @settings(max_examples=60, deadline=None)
    def test_protocol_abort_ordering(self, op_lists):
        """Harmony never aborts more than Aria-without-reordering on
        ww-dominated blocks... weaker: Harmony commits at least as many
        transactions as RBC on identical input."""
        from repro.core.harmony import HarmonyConfig, HarmonyExecutor

        engine = make_engine()
        harmony = HarmonyExecutor(
            engine, generic_registry(), HarmonyConfig(inter_block=False)
        )
        h_txns = make_txns(op_lists)
        harmony.execute_block(0, h_txns)
        _, rbc_execution = run_with(RBCExecutor, op_lists)
        committed_h = sum(1 for t in h_txns if t.committed)
        committed_rbc = sum(1 for t in rbc_execution.txns if t.committed)
        assert committed_h >= committed_rbc
