"""End-to-end tests of the Harmony block executor.

The centrepiece is a serial-witness property: for arbitrary random blocks,
the committed transactions must be equivalent to a serial execution in
ascending (min_out, TID) order — every snapshot read must match the witness
state, and the replayed final state must equal the engine's state.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.harmony import HarmonyConfig, HarmonyExecutor
from repro.dcc.oracle import HistoryOracle, SerializabilityOracle
from repro.txn.commands import apply_safely
from repro.txn.transaction import AbortReason, TxnStatus

from tests.conftest import charged_writes, generic_registry, make_engine, make_txns

NO_IBP = HarmonyConfig(inter_block=False)


def run_block(op_lists, config=NO_IBP, engine=None, block_id=0, first_tid=0):
    engine = engine or make_engine()
    executor = HarmonyExecutor(engine, generic_registry(), config)
    txns = make_txns(op_lists, block_id=block_id, first_tid=first_tid)
    execution = executor.execute_block(block_id, txns)
    return engine, executor, execution


class TestBasicExecution:
    def test_all_commit_without_conflicts(self):
        _, _, execution = run_block([[("add", 0, 5)], [("add", 1, 7)], [("r", 2)]])
        assert all(t.committed for t in execution.txns)

    def test_ww_conflict_commits_both_with_reordering(self):
        engine, _, execution = run_block([[("add", 0, 10)], [("mul", 0, 3)]])
        assert all(t.committed for t in execution.txns)
        # add ordered before mul (both min_out = tid+1, tie by TID)
        assert engine.store.get_latest(("k", 0))[0] == (100 + 10) * 3

    def test_update_coalescence_single_page_write(self):
        engine = make_engine()
        charged = charged_writes(engine)
        _, _, execution = run_block([[("add", 0, 1)] for _ in range(6)], engine=engine)
        assert execution.apply_chains == [(("k", 0), [0, 1, 2, 3, 4, 5])]
        assert charged == [("k", 0)]  # one coalesced apply
        assert engine.store.get_latest(("k", 0))[0] == 106

    def test_no_coalescence_duplicates_applies(self):
        config = HarmonyConfig(inter_block=False, coalesce=False)
        engine = make_engine()
        charged = charged_writes(engine)
        _, _, execution = run_block(
            [[("add", 0, 1)] for _ in range(6)], config=config, engine=engine
        )
        assert execution.apply_chains == [(("k", 0), [0, 1, 2, 3, 4, 5])]
        assert charged == [("k", 0)] * 6  # one physical apply each
        assert engine.store.get_latest(("k", 0))[0] == 106

    def test_dangerous_structure_aborts_middle(self):
        # T0 writes a; T1 reads a writes b; T2 reads b  => T1 is the pivot
        _, _, execution = run_block(
            [[("set", 10, 1)], [("r", 10), ("set", 11, 2)], [("r", 11)]]
        )
        statuses = [t.status for t in execution.txns]
        assert statuses[1] is TxnStatus.ABORTED
        assert execution.txns[1].abort_reason is AbortReason.BACKWARD_DANGEROUS_STRUCTURE
        assert statuses[0] is TxnStatus.COMMITTED and statuses[2] is TxnStatus.COMMITTED

    def test_aborted_writes_not_applied(self):
        engine, _, execution = run_block(
            [[("set", 10, 1)], [("r", 10), ("set", 11, 222)], [("r", 11)]]
        )
        assert engine.store.get_latest(("k", 11))[0] == 100  # T1's write dropped

    def test_read_own_write_sees_pending_command(self):
        engine, _, execution = run_block([[("add", 0, 10), ("r", 0)]])
        txn = execution.txns[0]
        assert txn.committed
        assert txn.output == (110,)  # corner case (1): own update visible

    def test_double_update_same_key_coalesces_in_txn(self):
        engine, _, execution = run_block([[("add", 0, 1), ("add", 0, 2)]])
        txn = execution.txns[0]
        assert len(txn.updated_keys) == 1  # corner case (2)
        assert engine.store.get_latest(("k", 0))[0] == 103

    def test_execution_error_aborts_only_that_txn(self):
        registry = generic_registry()

        @registry.register("boom")
        def boom(ctx):
            raise ValueError("bad contract")

        engine = make_engine()
        executor = HarmonyExecutor(engine, registry, NO_IBP)
        from repro.txn.transaction import Txn, TxnSpec

        txns = [
            Txn(0, 0, TxnSpec("boom")),
            Txn(1, 0, TxnSpec("ops", (("ops", (("add", 0, 5),)),))),
        ]
        execution = executor.execute_block(0, txns)
        assert execution.txns[0].abort_reason is AbortReason.EXECUTION_ERROR
        assert execution.txns[1].committed


class TestInterBlock:
    def test_figure6_scenario_aborts_later_block_txn(self):
        """T1 <--intra-rw-- T2 (block i); T2 <--inter-rw-- T3 (block i+1):
        abort T3 deterministically (Rule 3 policy ii)."""
        engine = make_engine()
        config = HarmonyConfig(inter_block=True, snapshot_lag=2)
        executor = HarmonyExecutor(engine, generic_registry(), config)

        # block 0: T1 writes a; T2 reads a (edge T1 <- T2) and writes b
        block0 = make_txns(
            [[("set", 1, 11)], [("r", 1), ("set", 2, 22)]], block_id=0, first_tid=1
        )
        executor.execute_block(0, block0)
        assert all(t.committed for t in block0)
        assert block0[1].min_out == 1  # T2 is a structure middle candidate

        # block 1: T3 reads b (written by T2) from the lag-2 snapshot
        block1 = make_txns([[("r", 2)]], block_id=1, first_tid=3)
        executor.execute_block(1, block1)
        assert block1[0].aborted
        assert block1[0].abort_reason is AbortReason.INTER_BLOCK_STRUCTURE

    def test_reader_of_clean_writer_commits(self):
        engine = make_engine()
        config = HarmonyConfig(inter_block=True, snapshot_lag=2)
        executor = HarmonyExecutor(engine, generic_registry(), config)
        block0 = make_txns([[("set", 1, 11)]], block_id=0, first_tid=1)
        executor.execute_block(0, block0)
        block1 = make_txns([[("r", 1)]], block_id=1, first_tid=2)
        executor.execute_block(1, block1)
        assert block1[0].committed

    def test_lag2_snapshot_visibility(self):
        engine = make_engine()
        config = HarmonyConfig(inter_block=True, snapshot_lag=2)
        executor = HarmonyExecutor(engine, generic_registry(), config)
        executor.execute_block(0, make_txns([[("set", 0, 111)]], 0, 0))
        executor.execute_block(1, make_txns([[("set", 0, 222)]], 1, 1))
        # block 2 simulates against snapshot of block 0: sees 111
        block2 = make_txns([[("r", 0)]], 2, 2)
        execution = executor.execute_block(2, block2)
        assert block2[0].output == (111,)
        assert execution.snapshot_block_id == 0


def _ops_strategy():
    key = st.integers(min_value=0, max_value=7)
    return st.lists(
        st.one_of(
            st.tuples(st.just("r"), key),
            st.tuples(st.just("add"), key, st.integers(-9, 9)),
            st.tuples(st.just("mul"), key, st.integers(1, 3)),
            st.tuples(st.just("set"), key, st.integers(0, 99)),
            st.tuples(st.just("rmw"), key, st.integers(-9, 9)),
        ),
        min_size=1,
        max_size=5,
    )


@st.composite
def random_block_ops(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    return [draw(_ops_strategy()) for _ in range(n)]


class TestSerialWitness:
    @given(random_block_ops())
    @settings(max_examples=150, deadline=None)
    def test_committed_set_equals_serial_witness(self, op_lists):
        engine = make_engine(num_keys=8)
        base = {("k", i): 100 for i in range(8)}
        executor = HarmonyExecutor(engine, generic_registry(), NO_IBP)
        txns = make_txns(op_lists)
        executor.execute_block(0, txns)

        committed = [t for t in txns if t.committed]
        assert SerializabilityOracle.committed_is_serializable(txns)

        # serial witness: ascending (min_out, tid)
        witness_state = dict(base)
        for txn in sorted(committed, key=lambda t: (t.min_out, t.tid)):
            for key in txn.read_set:
                # every snapshot read must still be valid at this point
                assert witness_state.get(key) == base.get(key), (
                    f"txn {txn.tid} read {key} stale in serial witness"
                )
            for key in txn.updated_keys:
                witness_state[key] = apply_safely(txn.write_set[key], witness_state.get(key))

        for key, value in witness_state.items():
            stored, _ = engine.store.get_latest(key)
            assert stored == value

    @given(random_block_ops())
    @settings(max_examples=100, deadline=None)
    def test_replica_determinism(self, op_lists):
        outcomes = []
        for _replica in range(2):
            engine = make_engine(num_keys=8)
            executor = HarmonyExecutor(engine, generic_registry(), NO_IBP)
            txns = make_txns(op_lists)
            executor.execute_block(0, txns)
            outcomes.append(
                ([t.status for t in txns], engine.state_hash())
            )
        assert outcomes[0] == outcomes[1]


class TestMultiBlockHistory:
    @given(st.lists(random_block_ops(), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_inter_block_history_serializable(self, blocks_ops):
        """With inter-block parallelism on, the whole committed history
        (across blocks) must stay serializable (Rule 3 + Rule 2)."""
        engine = make_engine(num_keys=8)
        config = HarmonyConfig(inter_block=True, snapshot_lag=2)
        executor = HarmonyExecutor(engine, generic_registry(), config)
        oracle = HistoryOracle()
        tid = 0
        for block_id, op_lists in enumerate(blocks_ops):
            txns = make_txns(op_lists, block_id=block_id, first_tid=tid)
            tid += len(txns)
            execution = executor.execute_block(block_id, txns)
            oracle.record_block(
                block_id,
                txns,
                execution.apply_chains,
                snapshot_block_id=execution.snapshot_block_id,
            )
        assert oracle.is_serializable()

    @given(st.lists(random_block_ops(), min_size=2, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_multi_block_replica_determinism_with_ibp(self, blocks_ops):
        hashes = []
        for _replica in range(2):
            engine = make_engine(num_keys=8)
            executor = HarmonyExecutor(
                engine, generic_registry(), HarmonyConfig(inter_block=True)
            )
            tid = 0
            for block_id, op_lists in enumerate(blocks_ops):
                txns = make_txns(op_lists, block_id=block_id, first_tid=tid)
                tid += len(txns)
                executor.execute_block(block_id, txns)
            hashes.append(engine.state_hash())
        assert hashes[0] == hashes[1]
