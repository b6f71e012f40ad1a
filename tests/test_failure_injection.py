"""Failure injection and adversarial scenarios.

Covers the security/robustness story: tampered ledgers, a byzantine replica
diverging, torn checkpoints mid-recovery, contracts that crash, and the
I/O accounting that makes coalescence worth it.
"""

from __future__ import annotations

import pytest

from repro.chain.ledger import TamperError
from repro.chain.node import ReplicaNode
from repro.chain.ordering import OrderingService
from repro.chain.recovery import recover_node
from repro.consensus.crypto import Signer
from repro.core.harmony import HarmonyConfig, HarmonyExecutor
from repro.execution import OverlayView
from repro.storage.engine import StorageEngine
from repro.storage.mvstore import TOMBSTONE
from repro.txn.transaction import Txn, TxnSpec

from tests.conftest import generic_registry, make_engine, make_txns


def spec(ops) -> TxnSpec:
    return TxnSpec("ops", (("ops", tuple(ops)),))


def make_node(name="r0", signer=None, inter_block=False) -> ReplicaNode:
    executor = HarmonyExecutor(
        make_engine(), generic_registry(), HarmonyConfig(inter_block=inter_block)
    )
    return ReplicaNode(name, executor, signer)


class TestTamperScenarios:
    def test_tampered_payload_rejected_on_delivery(self):
        signer = Signer("ordering-service")
        ordering = OrderingService(signer)
        node = make_node(signer=signer)
        block = ordering.form_block([spec([("add", 0, 1)])])
        block.specs = (spec([("add", 0, 1_000_000)]),)  # man-in-the-middle
        with pytest.raises((TamperError, ValueError)):
            node.process_block(block)

    def test_tampered_history_detected_by_backtrace(self):
        signer = Signer("ordering-service")
        ordering = OrderingService(signer)
        node = make_node(signer=signer)
        for i in range(4):
            node.process_block(ordering.form_block([spec([("add", i, 1)])]))
        assert node.ledger.verify_chain()
        node.ledger[2].specs = (spec([("set", 0, 666)]),)
        assert not node.ledger.verify_chain()

    def test_payload_tampered_between_two_deliveries_is_rejected(self):
        """Warm path: the block was hashed and signed by the orderer, then
        verified, appended and back-traced by one replica. A payload swapped
        before it reaches the next replica fails there — bad signature first
        with an orderer key, chain verification without one."""
        signer = Signer("ordering-service")
        ordering = OrderingService(signer)
        first = make_node("r0", signer)
        block = ordering.form_block([spec([("add", 0, 1)]), spec([("add", 1, 1)])])
        first.process_block(block)
        assert first.ledger.verify_chain()
        block.specs = (block.specs[0], spec([("add", 1, 1_000_000)]))
        with pytest.raises(ValueError, match="bad orderer signature"):
            make_node("r1", signer).process_block(block)
        with pytest.raises(TamperError):
            make_node("r2", None).process_block(block)
        # the replica that already holds it finds it by back-trace
        assert not first.ledger.verify_chain()

    def test_history_tampered_after_a_clean_backtrace_is_detected(self):
        signer = Signer("ordering-service")
        ordering = OrderingService(signer)
        node = make_node(signer=signer)
        for i in range(4):
            node.process_block(ordering.form_block([spec([("add", i, 1)])]))
        assert node.ledger.verify_chain() and node.ledger.verify_chain()
        original = node.ledger[2].specs
        node.ledger[2].specs = (spec([("set", 0, 666)]),)
        assert not node.ledger.verify_chain()
        node.ledger[2].specs = original  # restoring the objects restores it
        assert node.ledger.verify_chain()

    def test_replayed_block_rejected(self):
        signer = Signer("ordering-service")
        ordering = OrderingService(signer)
        node = make_node(signer=signer)
        block = ordering.form_block([spec([("add", 0, 1)])])
        node.process_block(block)
        with pytest.raises(TamperError):
            node.process_block(block)  # duplicate delivery


class TestByzantineReplica:
    def test_divergent_replica_exposed_by_state_hash(self):
        """A faulty replica can only corrupt its own state; state hashes
        expose the divergence immediately (Section 4: a faulty database
        node cannot affect the non-faulty majority)."""
        signer = Signer("ordering-service")
        ordering = OrderingService(signer)
        honest_a = make_node("a", signer)
        honest_b = make_node("b", signer)
        byzantine = make_node("evil", signer)
        for i in range(3):
            block = ordering.form_block([spec([("add", i, 10)])])
            for node in (honest_a, honest_b, byzantine):
                node.process_block(block)
        # the byzantine replica tampers with its local state
        byzantine.engine.store.apply_block(99, [(("k", 0), 1_000_000)])
        assert honest_a.state_hash() == honest_b.state_hash()
        assert byzantine.state_hash() != honest_a.state_hash()


class TestCrashScenarios:
    def test_crash_immediately_after_genesis(self):
        node = make_node()
        recovered = recover_node(node)
        assert recovered.state_hash() == node.state_hash()

    def test_repeated_crash_recover_cycles(self):
        signer = Signer("ordering-service")
        ordering = OrderingService(signer)
        node = make_node(signer=signer, inter_block=True)
        node.engine.checkpoints.interval_blocks = 2
        current = node
        for i in range(6):
            block = ordering.form_block(
                [spec([("add", i % 4, 1)]), spec([("r", i % 4), ("set", 9, i)])]
            )
            node.process_block(block)
            if i % 2 == 1:  # crash every other block
                current = recover_node(node)
                assert current.state_hash() == node.state_hash()

    def test_crashing_contract_does_not_poison_block(self):
        registry = generic_registry()

        @registry.register("crash")
        def crash(ctx, ops=None):
            ctx.read(("k", 0))
            raise ValueError("contract bug")

        engine = make_engine()
        executor = HarmonyExecutor(engine, registry, HarmonyConfig(inter_block=False))
        txns = [
            Txn(0, 0, TxnSpec("crash")),
            Txn(1, 0, TxnSpec("ops", (("ops", (("add", 1, 5),)),))),
            Txn(2, 0, TxnSpec("ops", (("ops", (("add", 2, 7),)),))),
        ]
        executor.execute_block(0, txns)
        assert txns[0].aborted
        assert txns[1].committed and txns[2].committed
        assert engine.store.get_latest(("k", 1))[0] == 105


class TestOverlayView:
    def test_overlay_shadows_base(self):
        engine = make_engine()
        overlay = OverlayView(engine.store.latest_snapshot(), block_id=5)
        assert overlay.get(("k", 1))[0] == 100
        overlay.put(("k", 1), 777)
        value, version = overlay.get(("k", 1))
        assert value == 777 and version == (5, 0)

    def test_overlay_tombstone_reads_none(self):
        engine = make_engine()
        overlay = OverlayView(engine.store.latest_snapshot(), block_id=5)
        overlay.put(("k", 1), TOMBSTONE)
        assert overlay.get(("k", 1))[0] is None

    def test_ordered_writes_follow_seq(self):
        engine = make_engine()
        overlay = OverlayView(engine.store.latest_snapshot(), block_id=5)
        overlay.put(("k", 2), 1)
        overlay.put(("k", 1), 2)
        assert [k for k, _v in overlay.ordered_writes()] == [("k", 2), ("k", 1)]

    def test_scan_merges_overlay(self):
        engine = make_engine()
        overlay = OverlayView(engine.store.latest_snapshot(), block_id=5)
        overlay.put(("k", 1), 111)
        overlay.put(("k", 999), 5)
        rows = dict(overlay.scan(("k", 0), ("k", 1000)))
        assert rows[("k", 1)] == 111 and rows[("k", 999)] == 5


class TestCoalescenceIOAccounting:
    def test_coalescence_saves_disk_writes_on_hotspots(self):
        """The Figure 5 claim, measured: N updaters on one key cost one
        page write with coalescence, N without."""

        def run(coalesce: bool) -> int:
            engine = StorageEngine(pool_pages=2)
            engine.preload({("k", i): 0 for i in range(600)})
            executor = HarmonyExecutor(
                engine,
                generic_registry(),
                HarmonyConfig(inter_block=False, coalesce=coalesce),
            )
            op_lists = [[("add", 0, 1)] for _ in range(10)]
            executor.execute_block(0, make_txns(op_lists))
            # buffer accesses on the hot page == physical update count
            return engine.buffer_hits + engine.buffer_misses

        assert run(True) < run(False)

    def test_final_state_identical_with_and_without_coalescence(self):
        states = []
        for coalesce in (True, False):
            engine = make_engine()
            executor = HarmonyExecutor(
                engine,
                generic_registry(),
                HarmonyConfig(inter_block=False, coalesce=coalesce),
            )
            op_lists = [
                [("add", 0, 3)],
                [("mul", 0, 2)],
                [("add", 1, 7), ("mul", 1, 3)],
            ]
            executor.execute_block(0, make_txns(op_lists))
            states.append(engine.state_hash())
        assert states[0] == states[1]
