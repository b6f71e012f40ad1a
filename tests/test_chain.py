"""Tests for blocks, the ledger, replica nodes and the ordering service."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.chain.block import GENESIS_HASH, Block
from repro.chain.ledger import Ledger, TamperError
from repro.chain.node import ReplicaNode
from repro.chain.ordering import OrderingService
from repro.consensus.crypto import KeyRegistry, Signer, sha256_hex
from repro.core.harmony import HarmonyConfig, HarmonyExecutor
from repro.txn.transaction import TxnSpec

from tests.conftest import generic_registry, make_engine


def spec(ops) -> TxnSpec:
    return TxnSpec("ops", (("ops", tuple(ops)),))


def make_node(name="replica-0", signer=None, config=None) -> ReplicaNode:
    engine = make_engine()
    executor = HarmonyExecutor(
        engine, generic_registry(), config or HarmonyConfig(inter_block=False)
    )
    return ReplicaNode(name, executor, signer)


class TestCrypto:
    def test_sha256_hex_stable(self):
        assert sha256_hex("abc") == sha256_hex(b"abc")
        assert len(sha256_hex("x")) == 64

    def test_sign_verify_roundtrip(self):
        signer = Signer("node-1")
        sig = signer.sign("payload")
        assert signer.verify("payload", sig)
        assert not signer.verify("tampered", sig)

    def test_distinct_identities_distinct_signatures(self):
        assert Signer("a").sign("m") != Signer("b").sign("m")

    def test_key_registry_authentication(self):
        registry = KeyRegistry()
        signer = registry.enroll("peer-1")
        sig = signer.sign("hello")
        assert registry.verify("peer-1", "hello", sig)
        assert not registry.verify("stranger", "hello", sig)
        with pytest.raises(ValueError):
            registry.enroll("peer-1")


class TestBlock:
    def test_hash_covers_content(self):
        a = Block(0, (spec([("r", 1)]),), GENESIS_HASH, first_tid=0)
        b = Block(0, (spec([("r", 2)]),), GENESIS_HASH, first_tid=0)
        assert a.hash != b.hash

    def test_integrity_checks_prev_hash(self):
        block = Block(0, (), GENESIS_HASH, first_tid=0)
        assert block.verify_integrity(GENESIS_HASH)
        assert not block.verify_integrity("f" * 64)

    def test_tampered_body_detected(self):
        block = Block(0, (spec([("r", 1)]),), GENESIS_HASH, first_tid=0)
        block.specs = (spec([("set", 1, 666)]),)
        assert not block.verify_integrity(GENESIS_HASH)

    def test_tampered_body_detected_after_hash_sign_and_verify(self):
        """The header is a join of texts the *spec objects* carry; a block
        that was hashed, signed and verified still reads them from whatever
        specs it holds now, so swapping the specs afterwards is caught."""
        signer = Signer("ordering-service")
        block = OrderingService(signer).form_block([spec([("r", 1)]), spec([("r", 2)])])
        header = block.header_bytes()
        assert block.verify_integrity(GENESIS_HASH)
        assert block.verify_integrity(GENESIS_HASH, header)  # caller-held bytes
        assert signer.verify(header, block.signature)
        block.specs = (block.specs[0], spec([("set", 2, 666)]))
        assert block.header_bytes() != header
        assert not block.verify_integrity(GENESIS_HASH)
        assert not signer.verify(block.header_bytes(), block.signature)

    def test_sub_block_header_covers_its_global_tids(self):
        specs = (spec([("r", 1)]), spec([("r", 2)]))
        a = Block(0, specs, GENESIS_HASH, first_tid=4, tids=(4, 9))
        b = Block(0, specs, GENESIS_HASH, first_tid=4, tids=(4, 19))
        assert a.header_bytes().endswith(b"|4,9")
        assert a.hash != b.hash


class TestSpecCanonical:
    def test_text_is_derived_from_the_fields(self):
        one = spec([("add", 0, 7)])
        assert one.canonical == f"{one.proc}({one.params!r})"
        assert dataclasses.replace(one, proc="other").canonical.startswith("other(")

    def test_carrying_the_text_changes_no_identity(self):
        one, twin = spec([("add", 0, 7)]), TxnSpec("ops", (("ops", (("add", 0, 7),)),))
        Block(0, (one,), GENESIS_HASH, first_tid=0)  # hashed once already
        assert one == twin and hash(one) == hash(twin)
        assert {one: "x"}[twin] == "x"
        assert "canonical" not in repr(one)
        assert one != spec([("add", 0, 8)])

    def test_text_is_not_pickled_with_the_spec_or_its_sub_block(self):
        """``TxnSpec.__reduce__`` (``deepcopy`` goes through it too): a spec
        travels as its two fields and re-derives the text on arrival."""
        one = spec([("add", 0, 7)])
        sub = Block(3, (one, spec([("r", 5)])), GENESIS_HASH, first_tid=10, tids=(10, 12))
        for shipped in (one, sub):
            wire = pickle.dumps(shipped)
            assert one.canonical.encode() not in wire
            assert pickle.loads(wire) == shipped
        arrived = pickle.loads(pickle.dumps(sub))
        assert arrived.specs[0].canonical == one.canonical
        assert arrived.verify_integrity(GENESIS_HASH)


class TestLedger:
    def _chain(self, n=3):
        ordering = OrderingService()
        ledger = Ledger()
        for i in range(n):
            ledger.append(ordering.form_block([spec([("r", i)])]))
        return ledger

    def test_append_links_hashes(self):
        ledger = self._chain()
        assert ledger.height == 3
        assert ledger.verify_chain()
        assert ledger[1].prev_hash == ledger[0].hash

    def test_tampered_block_detected_by_backtrace(self):
        ledger = self._chain()
        ledger[1].specs = (spec([("set", 0, 1_000_000)]),)
        assert not ledger.verify_chain()

    def test_tampered_block_detected_by_second_backtrace(self):
        """Nothing a passing back-trace derived outlives the specs it read:
        tampering after ``verify_chain()`` has already run is still found."""
        ledger = self._chain(4)
        assert ledger.verify_chain()
        assert ledger.verify_chain()
        ledger[2].specs = (spec([("set", 0, 1_000_000)]),)
        assert not ledger.verify_chain()

    def test_append_rejects_wrong_prev_hash(self):
        ledger = self._chain()
        rogue = Block(3, (), prev_hash="0" * 64, first_tid=99)
        with pytest.raises(TamperError):
            ledger.append(rogue)


class TestOrderingService:
    def test_tids_are_contiguous(self):
        ordering = OrderingService()
        b0 = ordering.form_block([spec([("r", 0)]), spec([("r", 1)])])
        b1 = ordering.form_block([spec([("r", 2)])])
        assert b0.first_tid == 0 and b1.first_tid == 2

    def test_blocks_signed(self):
        signer = Signer("ordering-service")
        ordering = OrderingService(signer)
        block = ordering.form_block([spec([("r", 0)])])
        assert signer.verify(block.header_bytes(), block.signature)


class TestReplicaNode:
    def test_processes_chain_and_updates_state(self):
        signer = Signer("ordering-service")
        ordering = OrderingService(signer)
        node = make_node(signer=signer)
        node.process_block(ordering.form_block([spec([("add", 0, 7)])]))
        node.process_block(ordering.form_block([spec([("add", 0, 3)])]))
        assert node.engine.store.get_latest(("k", 0))[0] == 110
        assert node.ledger.verify_chain()

    def test_rejects_bad_signature(self):
        ordering = OrderingService(Signer("evil-orderer"))
        node = make_node(signer=Signer("ordering-service"))
        block = ordering.form_block([spec([("r", 0)])])
        with pytest.raises(ValueError):
            node.process_block(block)

    def test_bad_signature_is_reported_before_chain_mismatch(self):
        """One serialisation feeds both checks; their order is unchanged."""
        signer = Signer("ordering-service")
        ordering = OrderingService(Signer("evil-orderer"))
        node = make_node(signer=signer)
        _skipped = ordering.form_block([spec([("r", 0)])])
        second = ordering.form_block([spec([("r", 1)])])  # bad sig *and* off-chain
        with pytest.raises(ValueError):
            node.process_block(second)
        assert node.ledger.height == 0

    def test_unsigned_node_rejects_tampered_body_as_tamper_error(self):
        ordering = OrderingService()
        node = make_node(signer=None)
        block = ordering.form_block([spec([("add", 0, 1)])])
        assert block.verify_integrity(GENESIS_HASH)
        block.specs = (spec([("add", 0, 1_000_000)]),)
        with pytest.raises(TamperError):
            node.process_block(block)
        assert node.ledger.height == 0

    def test_rejects_out_of_chain_block(self):
        signer = Signer("ordering-service")
        ordering = OrderingService(signer)
        node = make_node(signer=signer)
        _skipped = ordering.form_block([spec([("r", 0)])])
        second = ordering.form_block([spec([("r", 1)])])
        with pytest.raises(TamperError):
            node.process_block(second)

    def test_replica_consistency(self):
        """Two replicas fed the same chain reach the same state hash."""
        signer = Signer("ordering-service")
        ordering = OrderingService(signer)
        node_a = make_node("a", signer)
        node_b = make_node("b", signer)
        for i in range(5):
            block = ordering.form_block(
                [spec([("add", i % 3, 1)]), spec([("r", i % 3), ("set", 5, i)])]
            )
            node_a.process_block(block)
            node_b.process_block(block)
        assert node_a.state_hash() == node_b.state_hash()

    def test_block_inputs_logged_for_recovery(self):
        signer = Signer("ordering-service")
        ordering = OrderingService(signer)
        node = make_node(signer=signer)
        node.process_block(ordering.form_block([spec([("r", 0)])]))
        assert len(node.engine.block_log) == 1
