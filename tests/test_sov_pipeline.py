"""Tests for the Simulate-Order-Validate pipeline internals."""

from __future__ import annotations

import pytest

from repro.chain.config import decision_digest
from repro.chain.sov import SOVBlockchain, SOVConfig
from repro.sim.costs import cost_table
from repro.sim.rng import SeededRng
from repro.txn.transaction import AbortReason, Txn, TxnSpec
from repro.workloads.ycsb import YCSBWorkload


def build_chain(**overrides) -> SOVBlockchain:
    defaults = dict(system="fabric", block_size=10, num_blocks=4)
    defaults.update(overrides)
    return SOVBlockchain(SOVConfig(**defaults), YCSBWorkload(num_keys=500, theta=0.4))


class TestEndorsement:
    def test_fresh_endorsers_agree(self):
        chain = build_chain(max_endorser_lag=0)
        spec = chain.workload.generate_block(1, SeededRng(1, "e"))[0]
        txn = Txn(0, 0, spec)
        chain._endorse(txn, SeededRng(2, "lag"))
        assert not txn.aborted
        assert txn.read_set or txn.write_set

    def test_endorsement_freezes_value_writes(self):
        chain = build_chain(max_endorser_lag=0)
        spec = chain.workload.generate_block(1, SeededRng(1, "e"))[0]
        txn = Txn(0, 0, spec)
        chain._endorse(txn, SeededRng(2, "lag"))
        from repro.txn.commands import SetValue

        for command in txn.write_set.values():
            assert isinstance(command, SetValue)  # SOV ships values

    def test_lagged_endorsers_can_mismatch(self):
        """With endorsers lagging differently and state moving, some
        transactions fail endorsement (the clients' reconciliation step)."""
        chain = build_chain(max_endorser_lag=3, num_blocks=6)
        metrics = chain.run()
        reasons = {
            t.abort_reason
            for block in chain.node.ledger.blocks()
            for t in block.endorsed_txns
            if t.aborted
        }
        assert metrics.committed > 0
        # staleness shows up as mismatches and/or stale reads
        assert reasons & {
            AbortReason.ENDORSEMENT_MISMATCH,
            AbortReason.STALE_READ,
        } or metrics.abort_rate == 0.0

    def test_endorsed_txn_bytes_scale_with_records(self):
        costs = cost_table()
        assert costs.endorsed_txn_bytes(10) > costs.endorsed_txn_bytes(2) > 0


class TestSOVSystemProperties:
    def test_blocks_carry_endorsed_txns(self):
        chain = build_chain()
        chain.run()
        for block in chain.node.ledger.blocks():
            assert block.endorsed_txns
            assert len(block.endorsed_txns) <= chain.config.block_size

    def test_physical_logging_used(self):
        from repro.storage.wal import LogMode

        chain = build_chain()
        chain.run()
        assert chain.node.engine.wal.mode is LogMode.PHYSICAL
        assert chain.node.engine.wal.stats.records > 0

    def test_fastfabric_orders_blocks_acyclically(self):
        chain = build_chain(system="fastfabric")
        metrics = chain.run()
        assert metrics.committed > 0
        # committed schedules must be serializable per block
        from repro.dcc.oracle import SerializabilityOracle

        for block in chain.node.ledger.blocks():
            assert SerializabilityOracle.committed_is_serializable(
                block.endorsed_txns, chain_order=lambda t: t.tid
            )

    def test_ledger_chain_verifies_after_run(self):
        chain = build_chain()
        chain.run()
        assert chain.node.ledger.verify_chain()

    @pytest.mark.parametrize("system", ["fabric", "fastfabric"])
    def test_decision_digest_is_the_ledgers_decisions(self, system):
        """SOV reports the decision digest Order-Execute does, over the
        endorsed transactions its ledger blocks carry."""
        chain = build_chain(system=system, max_endorser_lag=3, num_blocks=6)
        metrics = chain.run()
        blocks = chain.node.ledger.blocks()
        assert metrics.extra["decision_digest"] == decision_digest(
            (block.block_id, block.endorsed_txns) for block in blocks
        )
        assert metrics.aborted > 0


class TestSQLExpressionEvaluation:
    def test_evaluate_arithmetic(self):
        from repro.sql.ast_nodes import BinOp, Literal, Param
        from repro.sql.planner import evaluate

        expr = BinOp("+", Literal(2), BinOp("*", Param(0), Literal(3)))
        assert evaluate(expr, (4,)) == 14
        assert evaluate(BinOp("/", Literal(9), Literal(3)), ()) == 3

    def test_evaluate_missing_param(self):
        from repro.sql.ast_nodes import Param
        from repro.sql.planner import PlanningError, evaluate

        with pytest.raises(PlanningError):
            evaluate(Param(3), (1,))

    def test_columns_in_walks_tree(self):
        from repro.sql.ast_nodes import BinOp, ColumnRef, Literal
        from repro.sql.planner import columns_in

        expr = BinOp("+", ColumnRef("a"), BinOp("-", Literal(1), ColumnRef("b")))
        assert columns_in(expr) == {"a", "b"}

    def test_unary_minus(self):
        from repro.sql.parser import parse
        from repro.sql.planner import evaluate

        stmt = parse("SELECT * FROM t WHERE id = -5")
        assert evaluate(stmt.conditions[0].value, ()) == -5
