"""Tests for the SQL subset: lexer, parser, planner and executor."""

from __future__ import annotations

import pytest

from repro.core.harmony import HarmonyConfig, HarmonyExecutor
from repro.sql import Catalog, PlanningError, SQLExecutor, SQLSyntaxError, parse, tokenize
from repro.sql.ast_nodes import BinOp, ColumnRef, Param, SelectStmt, UpdateStmt
from repro.storage.engine import StorageEngine
from repro.txn.context import SimulationContext
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import Txn, TxnSpec

from tests.conftest import charged_writes


def bank_catalog() -> Catalog:
    catalog = Catalog()
    catalog.create_table("bank", key_columns=["id"], value_columns=["balance", "tier"])
    catalog.create_table(
        "orders", key_columns=["wid", "oid"], value_columns=["total"]
    )
    return catalog


def bank_engine(catalog) -> StorageEngine:
    engine = StorageEngine()
    rows = [{"id": i, "balance": 100 * (i + 1), "tier": "gold" if i == 0 else "base"} for i in range(5)]
    engine.preload(catalog.initial_rows("bank", rows))
    return engine


def fresh_ctx(engine, tid=0, block=0):
    txn = Txn(tid, block, TxnSpec("sql"))
    return txn, SimulationContext(txn, engine.store.latest_snapshot(), engine)


class TestLexer:
    def test_tokenizes_statement(self):
        kinds = [t.kind for t in tokenize("SELECT a FROM t WHERE id = 1")]
        assert kinds == ["KEYWORD", "IDENT", "KEYWORD", "IDENT", "KEYWORD", "IDENT", "PUNCT", "NUMBER", "EOF"]

    def test_strings_and_floats(self):
        tokens = tokenize("UPDATE t SET x = 1.5, n = 'alice'")
        values = [t.value for t in tokens if t.kind in ("NUMBER", "STRING")]
        assert values == [1.5, "alice"]

    def test_keywords_case_insensitive(self):
        assert tokenize("select")[0].value == "SELECT"

    def test_rejects_garbage(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @ FROM t")

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT 'oops")


class TestParser:
    def test_select_ast(self):
        stmt = parse("SELECT balance FROM bank WHERE id = ?")
        assert isinstance(stmt, SelectStmt)
        assert stmt.columns == ("balance",)
        assert stmt.conditions[0].column == "id"
        assert isinstance(stmt.conditions[0].value, Param)

    def test_update_self_arithmetic_ast(self):
        stmt = parse("UPDATE bank SET balance = balance + 10 WHERE id = ?")
        assert isinstance(stmt, UpdateStmt)
        expr = stmt.assignments[0].expr
        assert isinstance(expr, BinOp) and expr.op == "+"
        assert isinstance(expr.left, ColumnRef)

    def test_between(self):
        stmt = parse("SELECT * FROM orders WHERE wid = 1 AND oid BETWEEN 2 AND 9")
        kinds = [c.kind for c in stmt.conditions]
        assert kinds == ["eq", "between"]

    def test_insert_count_mismatch(self):
        with pytest.raises(SQLSyntaxError):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_params_numbered_left_to_right(self):
        stmt = parse("UPDATE bank SET balance = ? , tier = ? WHERE id = ?")
        indices = []

        def walk(expr):
            if isinstance(expr, Param):
                indices.append(expr.index)
            if isinstance(expr, BinOp):
                walk(expr.left)
                walk(expr.right)

        for assignment in stmt.assignments:
            walk(assignment.expr)
        walk(stmt.conditions[0].value)
        assert indices == [0, 1, 2]

    def test_operator_precedence(self):
        stmt = parse("SELECT * FROM bank WHERE id = 1 + 2 * 3")
        cond = stmt.conditions[0].value
        assert cond.op == "+"  # 1 + (2*3)


class TestPlannerAndExecutor:
    def setup_method(self):
        self.catalog = bank_catalog()
        self.engine = bank_engine(self.catalog)
        self.sql = SQLExecutor(self.catalog)

    def test_point_select(self):
        _txn, ctx = fresh_ctx(self.engine)
        rows = self.sql.execute(ctx, "SELECT balance FROM bank WHERE id = ?", (2,))
        assert rows == [{"balance": 300}]

    def test_select_star_includes_key(self):
        _txn, ctx = fresh_ctx(self.engine)
        rows = self.sql.execute(ctx, "SELECT * FROM bank WHERE id = 0")
        assert rows[0]["id"] == 0 and rows[0]["tier"] == "gold"

    def test_select_missing_row(self):
        _txn, ctx = fresh_ctx(self.engine)
        assert self.sql.execute(ctx, "SELECT * FROM bank WHERE id = 99") == []

    def test_fused_update_emits_command_without_read(self):
        """The Section 3.3.1 example: no read set, an add command."""
        txn, ctx = fresh_ctx(self.engine)
        count = self.sql.execute(
            ctx, "UPDATE bank SET balance = balance + 10 WHERE id = ?", (1,)
        )
        assert count == 1
        assert txn.read_set == {}  # no rw edge!
        command = txn.write_set[("bank", 1)]
        assert command.reads_value  # it is an arithmetic command
        assert command.apply({"balance": 200}) == {"balance": 210}

    def test_separated_update_reads_first(self):
        """Cross-column SET falls back to read-modify-write (3.3.2)."""
        txn, ctx = fresh_ctx(self.engine)
        self.sql.execute(
            ctx, "UPDATE bank SET balance = balance * balance WHERE id = 1"
        )
        assert ("bank", 1) in txn.read_set  # the read the rewrite avoids

    def test_blind_set_update(self):
        txn, ctx = fresh_ctx(self.engine)
        self.sql.execute(ctx, "UPDATE bank SET tier = 'vip' WHERE id = 1")
        assert txn.read_set == {}
        assert txn.write_set[("bank", 1)].apply({"tier": "base", "balance": 1}) == {
            "tier": "vip",
            "balance": 1,
        }

    def test_update_minus(self):
        txn, ctx = fresh_ctx(self.engine)
        self.sql.execute(
            ctx, "UPDATE bank SET balance = balance - 25 WHERE id = 0"
        )
        assert txn.write_set[("bank", 0)].apply({"balance": 100}) == {"balance": 75}

    def test_nonkey_filter_forces_read(self):
        txn, ctx = fresh_ctx(self.engine)
        n = self.sql.execute(
            ctx,
            "UPDATE bank SET balance = balance + 1 WHERE id = 1 AND tier = 'gold'",
        )
        assert n == 0  # row 1 is 'base': predicate fails after the read
        assert ("bank", 1) in txn.read_set

    def test_insert_and_delete(self):
        txn, ctx = fresh_ctx(self.engine)
        self.sql.execute(
            ctx,
            "INSERT INTO bank (id, balance, tier) VALUES (?, ?, ?)",
            (77, 5.0, "new"),
        )
        self.sql.execute(ctx, "DELETE FROM bank WHERE id = 0")
        assert ("bank", 77) in txn.write_set
        assert ("bank", 0) in txn.write_set

    def test_range_select_scans(self):
        catalog = self.catalog
        engine = StorageEngine()
        engine.preload(
            catalog.initial_rows(
                "orders", [{"wid": 1, "oid": i, "total": i * 1.0} for i in range(10)]
            )
        )
        sql = SQLExecutor(catalog)
        txn, ctx = fresh_ctx(engine)
        rows = sql.execute(
            ctx, "SELECT total FROM orders WHERE wid = 1 AND oid BETWEEN 2 AND 5"
        )
        assert [r["total"] for r in rows] == [2.0, 3.0, 4.0]
        assert txn.read_ranges  # phantom-guarded

    def test_unknown_table_and_column(self):
        _txn, ctx = fresh_ctx(self.engine)
        with pytest.raises(KeyError):
            self.sql.execute(ctx, "SELECT * FROM ghosts WHERE id = 1")
        with pytest.raises(PlanningError):
            self.sql.execute(ctx, "SELECT * FROM bank WHERE wrong = 1")

    def test_underconstrained_key_rejected(self):
        _txn, ctx = fresh_ctx(self.engine)
        with pytest.raises(PlanningError):
            self.sql.execute(ctx, "UPDATE orders SET total = 0 WHERE wid = 1")

    def test_plan_cache_reuse(self):
        _txn, ctx = fresh_ctx(self.engine)
        sql = "SELECT * FROM bank WHERE id = ?"
        first = self.sql.prepare(sql)
        self.sql.execute(ctx, sql, (1,))
        assert self.sql.prepare(sql) is first


class TestSQLUnderHarmony:
    def test_fused_sql_updates_all_commit_and_coalesce(self):
        """Three concurrent 'UPDATE ... SET balance = balance + ?' on the
        same row all commit — the paper's hotspot mechanism, via real SQL."""
        catalog = bank_catalog()
        engine = bank_engine(catalog)
        sql = SQLExecutor(catalog)
        registry = ProcedureRegistry()

        @registry.register("deposit")
        def deposit(ctx, amount):
            return sql.execute(
                ctx, "UPDATE bank SET balance = balance + ? WHERE id = 0", (amount,)
            )

        executor = HarmonyExecutor(engine, registry, HarmonyConfig(inter_block=False))
        txns = [
            Txn(i, 0, TxnSpec("deposit", (("amount", 10 * (i + 1)),))) for i in range(3)
        ]
        charged = charged_writes(engine)
        execution = executor.execute_block(0, txns)
        assert all(t.committed for t in txns)
        row, _ = engine.store.get_latest(("bank", 0))
        assert row["balance"] == 100 + 10 + 20 + 30
        assert execution.apply_chains == [(("bank", 0), [0, 1, 2])]
        assert charged == [("bank", 0)]  # coalesced to one apply

    def test_separated_sql_select_then_update_conflicts(self):
        """The same logic as three statements loses the opportunity: only
        one of the concurrent updaters survives validation."""
        catalog = bank_catalog()
        engine = bank_engine(catalog)
        sql = SQLExecutor(catalog)
        registry = ProcedureRegistry()

        @registry.register("deposit_slow")
        def deposit_slow(ctx, amount):
            rows = sql.execute(ctx, "SELECT balance FROM bank WHERE id = 0")
            new_balance = rows[0]["balance"] + amount
            return sql.execute(
                ctx, "UPDATE bank SET balance = ? WHERE id = 0", (new_balance,)
            )

        executor = HarmonyExecutor(engine, registry, HarmonyConfig(inter_block=False))
        txns = [
            Txn(i, 0, TxnSpec("deposit_slow", (("amount", 10),))) for i in range(3)
        ]
        executor.execute_block(0, txns)
        assert sum(1 for t in txns if t.committed) == 1
