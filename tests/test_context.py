"""Tests for the simulation context, procedure registry and RNG streams."""

from __future__ import annotations

import pytest

from repro.execution import simulate_transactions
from repro.sim.rng import SeededRng
from repro.storage.engine import StorageEngine
from repro.txn.commands import AddValue, SetValue
from repro.txn.context import SimulationContext
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import AbortReason, Txn, TxnSpec, TxnStatus


def setup_ctx(num_keys=16):
    engine = StorageEngine()
    engine.preload({("k", i): 10 * i for i in range(num_keys)})
    txn = Txn(0, 0, TxnSpec("x"))
    ctx = SimulationContext(txn, engine.store.latest_snapshot(), engine)
    return engine, txn, ctx


class TestSimulationContext:
    def test_read_records_version(self):
        _, txn, ctx = setup_ctx()
        assert ctx.read(("k", 3)) == 30
        assert ("k", 3) in txn.read_set
        assert txn.read_set[("k", 3)][0] == -1  # genesis version

    def test_read_missing_key_records_none_version(self):
        _, txn, ctx = setup_ctx()
        assert ctx.read("ghost") is None
        assert txn.read_set["ghost"] is None

    def test_read_own_pending_write(self):
        _, txn, ctx = setup_ctx()
        ctx.add(("k", 1), 5)
        assert ctx.read(("k", 1)) == 15
        ctx.write(("k", 1), 99)
        assert ctx.read(("k", 1)) == 99

    def test_read_own_delete(self):
        _, txn, ctx = setup_ctx()
        ctx.delete(("k", 1))
        assert ctx.read(("k", 1)) is None

    def test_scan_registers_range_and_merges_own_writes(self):
        _, txn, ctx = setup_ctx()
        ctx.write(("k", 2), 222)
        ctx.insert(("k", 99), 999)
        rows = dict(ctx.scan(("k", 0), ("k", 100)))
        assert rows[("k", 2)] == 222
        assert rows[("k", 99)] == 999
        assert txn.read_ranges == [(("k", 0), ("k", 100))]

    @pytest.mark.parametrize(
        "update, error",
        [
            (lambda ctx: ctx.add_fields(("k", 2), b=1), TypeError),  # not a record
            (lambda ctx: ctx.add(("k", 50), 1), KeyError),  # no such key
        ],
        ids=["mistyped", "missing"],
    )
    def test_scan_fails_on_an_own_write_where_read_fails(self, update, error):
        """A pending command that cannot be evaluated on the snapshot value
        fails the scan that covers its key exactly as it fails a read of
        the key — it is not dropped from the scanned rows."""
        key = ("k", 2) if error is TypeError else ("k", 50)
        _, _txn, ctx = setup_ctx()
        update(ctx)
        with pytest.raises(error):
            ctx.read(key)
        with pytest.raises(error):
            ctx.scan(("k", 0), ("k", 100))

    def test_scan_of_a_failing_own_write_aborts_like_a_read(self):
        """Through the simulation step both accesses abort the transaction
        with ``EXECUTION_ERROR``."""
        engine = StorageEngine()
        engine.preload({("k", i): 10 * i for i in range(16)})
        registry = ProcedureRegistry()

        @registry.register("bump")
        def bump(ctx, scan):
            ctx.add_fields(("k", 2), b=1)
            if scan:
                return ctx.scan(("k", 0), ("k", 4))
            return ctx.read(("k", 2))

        txns = [Txn(tid, 0, TxnSpec("bump", (("scan", scan),))) for tid, scan in ((0, 0), (1, 1))]
        simulate_transactions(txns, engine.store.latest_snapshot(), registry, engine)
        assert [txn.abort_reason for txn in txns] == [AbortReason.EXECUTION_ERROR] * 2

    def test_costs_accumulate(self):
        _, txn, ctx = setup_ctx()
        before = ctx.cost_us
        ctx.read(("k", 0))
        ctx.add(("k", 0), 1)
        assert ctx.cost_us > before

    def test_helper_methods_record_commands(self):
        _, txn, ctx = setup_ctx()
        ctx.set_fields(("k", 5), a=1)
        ctx.add_fields(("k", 6), b=2)
        ctx.mul(("k", 7), 2)
        assert len(txn.write_set) == 3

    def test_read_for_update_is_a_read(self):
        _, txn, ctx = setup_ctx()
        ctx.read_for_update(("k", 4))
        assert ("k", 4) in txn.read_set


class TestProcedureRegistry:
    def test_register_and_execute(self):
        registry = ProcedureRegistry()

        @registry.register("double")
        def double(ctx, x):
            return 2 * x

        engine, txn, ctx = setup_ctx()
        txn = Txn(0, 0, TxnSpec("double", (("x", 21),)))
        ctx = SimulationContext(txn, engine.store.latest_snapshot(), engine)
        assert registry.execute(ctx) == 42

    def test_duplicate_name_rejected(self):
        registry = ProcedureRegistry()
        registry.add("p", lambda ctx: None)
        with pytest.raises(ValueError):
            registry.add("p", lambda ctx: None)

    def test_unknown_name(self):
        registry = ProcedureRegistry()
        with pytest.raises(KeyError):
            registry.get("nope")

    def test_names_sorted(self):
        registry = ProcedureRegistry()
        registry.add("b", lambda ctx: None)
        registry.add("a", lambda ctx: None)
        assert registry.names() == ["a", "b"]
        assert "a" in registry


class TestTxnRecord:
    def test_status_transitions(self):
        txn = Txn(0, 0, TxnSpec("x"))
        assert txn.status is TxnStatus.PENDING
        txn.mark_committed()
        assert txn.committed and not txn.aborted
        from repro.txn.transaction import AbortReason

        txn.mark_aborted(AbortReason.WAW)
        assert txn.aborted and txn.abort_reason is AbortReason.WAW

    def test_record_update_coalesces_per_key(self):
        txn = Txn(0, 0, TxnSpec("x"))
        txn.record_update("k", AddValue(1))
        txn.record_update("k", AddValue(2))
        assert txn.updated_keys == ["k"]
        assert txn.write_set["k"].apply(0) == 3

    def test_reads_covers_ranges(self):
        txn = Txn(0, 0, TxnSpec("x"))
        txn.read_ranges.append((("k", 0), ("k", 10)))
        assert txn.reads(("k", 5))
        assert not txn.reads(("k", 10))

    def test_reset_for_retry(self):
        txn = Txn(0, 0, TxnSpec("x"))
        txn.read_set["a"] = None
        txn.record_update("b", SetValue(1))
        txn.mark_committed()
        txn.reset_for_retry()
        assert txn.read_set == {} and txn.write_set == {}
        assert txn.status is TxnStatus.PENDING


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(1, "s")
        b = SeededRng(1, "s")
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_different_streams_diverge(self):
        a = SeededRng(1, "s1")
        b = SeededRng(1, "s2")
        assert [a.randint(0, 10**9) for _ in range(4)] != [
            b.randint(0, 10**9) for _ in range(4)
        ]

    def test_derive_is_stable_and_independent(self):
        root = SeededRng(5, "root")
        child1 = root.derive("x")
        _burn = [root.random() for _ in range(100)]
        child2 = SeededRng(5, "root").derive("x")
        assert child1.randint(0, 10**9) == child2.randint(0, 10**9)

    def test_uniform_and_choice(self):
        rng = SeededRng(2, "u")
        value = rng.uniform(1.0, 2.0)
        assert 1.0 <= value <= 2.0
        assert rng.choice([7]) == 7
        items = [1, 2, 3, 4]
        assert sorted(rng.sample(items, 2))[0] in items
