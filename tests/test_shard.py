"""Sharded execution subsystem: routing, sub-blocks, deterministic 2PC.

Pins the three contracts ISSUE 4 names:

- **router determinism** — the key->shard mapping is a pure function of
  (key, num_shards), stable under re-keying, fresh instances and query
  order, and the workload policy agrees with the affinity generator's
  partition layout;
- **single-shard identity** — ``OEBlockchain`` is
  ``ShardedBlockchain(num_shards=1)``, and at one shard routing, splitting
  and voting have nothing to do (the numbers are pinned by
  ``tests/test_driver_identity.py``);
- **cross-shard commit** — vetoed transactions abort on *every*
  participant, certificates chain and replay to the same state on a fresh
  replica, and the committed cross-shard history is serializable per the
  oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.chain.ordering import OrderingService, ShardSequencer
from repro.chain.system import OEBlockchain, OEConfig
from repro.consensus.crypto import Signer
from repro.dcc.oracle import HistoryOracle
from repro.shard.router import ShardRouter
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.shard.twopc import CertificateLog, ShardVote, decide, make_certificate
from repro.txn.transaction import AbortReason, TxnSpec
from repro.workloads import make_workload
from repro.workloads.base import ShardAffinity, Workload, partition_of_index
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.smallbank import SmallbankWorkload
from repro.workloads.ycsb import YCSBWorkload, key_of

from tests import reference
from tests.conftest import History, run_with_history

WORKLOADS = {
    "ycsb": lambda affinity=None: YCSBWorkload(num_keys=160, theta=0.6, affinity=affinity),
    "smallbank": lambda affinity=None: SmallbankWorkload(
        num_accounts=80, theta=0.6, affinity=affinity
    ),
    "hotspot": lambda affinity=None: HotspotWorkload(
        num_keys=200, hotspot_probability=0.5, affinity=affinity
    ),
}


def shard_config(system="harmony", num_shards=1, **overrides) -> ShardConfig:
    defaults = dict(block_size=10, num_blocks=5, seed=13)
    defaults.update(overrides)
    return ShardConfig(system=system, num_shards=num_shards, **defaults)


def oe_config(system="harmony", **overrides) -> OEConfig:
    defaults = dict(block_size=10, num_blocks=5, seed=13)
    defaults.update(overrides)
    return OEConfig(system=system, **defaults)


# --------------------------------------------------------------------- router
class TestShardRouter:
    def test_hash_policy_stable_under_rekeying(self):
        keys = [("usertable", i) for i in range(200)] + [("checking", i) for i in range(50)]
        router_a = ShardRouter(4, policy="hash")
        router_b = ShardRouter(4, policy="hash")
        shuffled = list(keys)
        random.Random(3).shuffle(shuffled)
        mapping_a = {key: router_a.shard_of(key) for key in keys}
        mapping_b = {key: router_b.shard_of(key) for key in shuffled}
        assert mapping_a == mapping_b
        assert set(mapping_a.values()) == set(range(4))  # all shards populated

    def test_workload_policy_matches_affinity_partitions(self):
        """A partition-local generated key must route to that partition."""
        workload = WORKLOADS["ycsb"](ShardAffinity(4, 0.0))
        router = ShardRouter.for_workload(workload, 4)
        affinity = workload.affinity
        for partition in range(4):
            for rank in (0, 7, 93):
                index = affinity.map_index(rank, partition, workload.num_keys)
                assert router.shard_of(key_of(index)) == partition

    def test_partition_of_index_inverts_bounds(self):
        affinity = ShardAffinity(3, 0.0)
        for space in (10, 11, 1000):
            for index in range(space):
                partition = partition_of_index(index, space, 3)
                lo, hi = affinity.partition_bounds(space, partition)
                assert lo <= index < hi

    def test_participants_from_static_footprints(self):
        workload = SmallbankWorkload(num_accounts=100)
        router = ShardRouter.for_workload(workload, 4)
        spec = workload.generate_block(1, _rng())[0]
        keys = workload.spec_keys(spec)
        participants, routed = router.route_spec(workload, spec)
        assert routed == [(key, router.shard_of(key)) for key in keys]
        assert participants == router.participants_of(workload, spec)
        assert participants == frozenset(router.shard_of(key) for key in keys)

    def test_unknown_footprint_routes_everywhere(self):
        class Opaque(Workload):
            name = "opaque"

        router = ShardRouter(4, policy="hash")
        assert router.participants_of(Opaque(), TxnSpec("anything")) == frozenset(
            range(4)
        )

    def test_empty_footprint_routes_everywhere(self):
        """A transaction with a (valid) empty static footprint must still
        land in at least one sub-block; it gets the conservative route."""

        class NoOp(Workload):
            name = "noop"

            def spec_keys(self, spec):
                return []

        router = ShardRouter(4, policy="hash")
        assert router.participants_of(NoOp(), TxnSpec("noop")) == frozenset(range(4))

    def test_split_state_partitions_exactly(self):
        workload = WORKLOADS["ycsb"]()
        router = ShardRouter.for_workload(workload, 4)
        state = workload.initial_state()
        parts = router.split_state(state)
        merged = {}
        for shard, part in enumerate(parts):
            assert all(router.shard_of(key) == shard for key in part)
            merged.update(part)
        assert merged == state


    def test_static_owner_is_evaluated_once_per_key(self):
        """The owner map remembers the static policy's answer per
        touched key; ``split_state`` (a bulk pass over every key, once) and
        a one-shard router (nothing to decide) remember nothing."""
        workload = WORKLOADS["ycsb"]()
        calls = []

        def counting_index(key):
            calls.append(key)
            return workload.shard_index(key)

        router = ShardRouter(
            4, policy="workload", index_fn=counting_index, index_space=workload.shard_space
        )
        reference = ShardRouter.for_workload(workload, 4)
        state = workload.initial_state()
        assert router.split_state(state) == reference.split_state(state)
        assert router._static_owners == {} and len(calls) == len(state)
        keys = list(state)[:40]
        del calls[:]
        for _ in range(3):
            for key in keys:
                assert router.shard_of(key) == reference._static_owners.evaluate(key)
                assert router._static_owners[key] == router.shard_of_at(key, 9)
        assert calls == keys  # one evaluation per key, in first-touch order
        assert set(router._static_owners) == set(keys)

        single = ShardRouter.for_workload(workload, 1)
        assert {single.shard_of(key) for key in keys} == {0}
        assert single._static_owners == {}


def _rng():
    from repro.sim.rng import SeededRng

    return SeededRng(5, "shard-tests")


# ---------------------------------------------------------------- federated
class TestFederatedScan:
    def _snapshot(self, num_keys=300, num_shards=4):
        from repro.shard.federated import FederatedSnapshot
        from repro.storage.mvstore import MVStore

        router = ShardRouter(num_shards, policy="hash")
        parts = [{} for _ in range(num_shards)]
        for i in range(num_keys):
            key = ("usertable", i)
            parts[router.shard_of(key)][key] = i
        stores = []
        for part in parts:
            store = MVStore()
            store.load(part)
            stores.append(store)
        return FederatedSnapshot(router, stores, block_id=-1)

    def test_snapshot_reads_route_by_the_epoch_in_force_at_its_height(self):
        """A snapshot binds its epoch's override map when it is built. A
        migration installed *later* (effective at a later height) moves the
        router's cursor and the live lookups, never the reads of a snapshot
        that already exists — with the static-owner memo warm on both keys,
        so a remembered owner can never stand in for an override."""
        from repro.shard.federated import FederatedSnapshot
        from repro.shard.rebalance import MigrationRecord
        from repro.storage.mvstore import MIGRATION_SEQ_BASE, MVStore, TOMBSTONE

        router = ShardRouter(2, policy="hash")
        moved, still = ("acct", 1), ("acct", 2)
        src, dst = router.shard_of(moved), 1 - router.shard_of(moved)  # memo warm
        home = router.shard_of(still)
        stores = [MVStore(), MVStore()]
        stores[src].load({moved: 100})
        stores[home].load({still: 7})
        for store in stores:
            store.apply_block(0, [])
            store.apply_block(1, [])
        early = FederatedSnapshot(router, stores, block_id=0)  # owner height 1
        # certified at block 2: deltas ship inside block 1, owner flips at 2
        record = MigrationRecord(2, 1, moves=((moved, dst),), deltas=((moved, 100),))
        stores[dst].load({moved: 100}, block_id=1, seq_start=MIGRATION_SEQ_BASE)
        stores[src].load({moved: TOMBSTONE}, block_id=1, seq_start=MIGRATION_SEQ_BASE)
        router.apply_migration(record)
        late = FederatedSnapshot(router, stores, block_id=1)  # owner height 2

        assert router.shard_of(moved) == dst and router._static_owners[moved] == src
        assert (router.shard_of_at(moved, 1), router.shard_of_at(moved, 2)) == (src, dst)
        # the source holds the genesis version, the destination the shipped one
        assert early.get(moved) == (100, (-1, 0))  # still on the source, no tombstone
        assert late.get(moved) == (100, (1, MIGRATION_SEQ_BASE))
        for snap in (early, late):
            assert snap.get(still) == (7, (-1, 0))
        # moving the cursor back re-routes live lookups, not built snapshots
        router.advance_to(0)
        assert router.shard_of(moved) == src
        assert late.get(moved) == (100, (1, MIGRATION_SEQ_BASE))

    def test_stream_merge_matches_materialized_union(self):
        snap = self._snapshot()
        lo, hi = ("usertable", 0), ("usertable", 300)
        assert list(snap.scan(lo, hi)) == reference.federated_scan(snap, lo, hi)
        # sub-ranges and empty ranges too
        for bounds in ((50, 120), (0, 1), (299, 300), (120, 120), (500, 600)):
            lo, hi = ("usertable", bounds[0]), ("usertable", bounds[1])
            assert list(snap.scan(lo, hi)) == reference.federated_scan(snap, lo, hi)

    def test_scan_is_lazy(self):
        """The merged scan must not materialize the union: consuming one
        row from a large range leaves the per-shard generators unread."""
        snap = self._snapshot(num_keys=300)
        rows = snap.scan(("usertable", 0), ("usertable", 300))
        assert not isinstance(rows, (list, tuple))
        first = next(iter(rows))
        assert first == (("usertable", 0), 0)

    def test_mixed_type_keys_raise(self):
        """Every key of one database is a ``(str, int, …)`` tuple, so the
        merge never meets keys that do not compare; shards that hold some
        anyway (one strings, another tuples) raise ``TypeError``, as one
        shard's key directory does."""
        from repro.shard.federated import FederatedSnapshot
        from repro.storage.mvstore import MVStore

        strings, tuples = MVStore(), MVStore()
        strings.load({"s0": 0})
        tuples.load({(9, 0): 0})
        snap = FederatedSnapshot(ShardRouter(2, policy="hash"), [strings, tuples], -1)

        class AnyLow:  # below every key, regardless of its type
            def __gt__(self, other):
                return False

        class AnyHigh:  # above every key, regardless of its type
            def __gt__(self, other):
                return True

        with pytest.raises(TypeError):
            list(snap.scan(AnyLow(), AnyHigh()))
        with pytest.raises(TypeError):
            strings.load({(9, 1): 1})


# ------------------------------------------------------------------ sequencer
class TestShardSequencer:
    def _global_block(self, size=8):
        ordering = OrderingService(Signer("ordering-service"))
        specs = [TxnSpec("noop", (("i", i),)) for i in range(size)]
        return ordering.form_block(specs)

    def test_split_preserves_global_tids_and_chains(self):
        signer = Signer("ordering-service")
        sequencer = ShardSequencer(3, signer)
        ordering = OrderingService(signer)
        prev = {shard: None for shard in range(3)}
        for round_ in range(3):
            block = ordering.form_block(
                [TxnSpec("noop", (("i", i),)) for i in range(6)]
            )
            participants = [frozenset({i % 3}) if i % 2 else frozenset({i % 3, (i + 1) % 3}) for i in range(6)]
            subs = sequencer.split(block, participants)
            for shard, sub in subs.items():
                assert sub.block_id == block.block_id
                expected = [
                    block.first_tid + i
                    for i in range(6)
                    if shard in participants[i]
                ]
                assert list(sub.tids) == expected
                assert signer.verify(sub.header_bytes(), sub.signature)
                if prev[shard] is not None:
                    assert sub.prev_hash == prev[shard]
                prev[shard] = sub.hash

    def test_cross_shard_txn_appears_on_every_participant(self):
        block = self._global_block(4)
        sequencer = ShardSequencer(2)
        subs = sequencer.split(
            block, [frozenset({0}), frozenset({0, 1}), frozenset({1}), frozenset({0, 1})]
        )
        assert list(subs[0].tids) == [block.first_tid, block.first_tid + 1, block.first_tid + 3]
        assert list(subs[1].tids) == [block.first_tid + 1, block.first_tid + 2, block.first_tid + 3]

    def test_empty_sub_blocks_still_chain(self):
        block = self._global_block(2)
        sequencer = ShardSequencer(2)
        subs = sequencer.split(block, [frozenset({0}), frozenset({0})])
        assert subs[1].size == 0 and subs[1].tids == ()

    def test_assignment_length_mismatch_rejected(self):
        block = self._global_block(3)
        with pytest.raises(ValueError):
            ShardSequencer(2).split(block, [frozenset({0})])


# ----------------------------------------------------------------------- 2pc
class TestTwoPhaseCommit:
    def test_decide_is_all_yes(self):
        votes = [
            ShardVote(7, 0, True),
            ShardVote(7, 1, False, reason="waw"),
            ShardVote(8, 0, True),
            ShardVote(8, 2, True),
        ]
        assert decide(votes) == frozenset({7})

    def test_certificate_chain_verifies_and_detects_tampering(self):
        log = CertificateLog()
        log.append([ShardVote(1, 0, True), ShardVote(1, 1, False)], block_id=0)
        log.append([ShardVote(5, 0, True)], block_id=1)
        assert log.verify_chain()
        tampered = make_certificate(2, [ShardVote(9, 0, False)], log.head_hash)
        tampered.abort_tids = frozenset()  # decision no longer matches votes
        log._certs.append(tampered)
        assert not log.verify_chain()


# ----------------------------------------------------- single-shard identity
class TestSingleShardIdentity:
    """``OEBlockchain`` *is* the one-shard configuration of the driver.

    What the two produced while they were separate code — every workload
    and system the sweep that stood here ran, case for case — is pinned by
    ``tests/golden/driver_identity.json`` (``shard-sweep/*``) and replayed
    by ``tests/test_driver_identity.py``.
    """

    def test_oe_blockchain_is_the_one_shard_configuration(self):
        oe = OEBlockchain(oe_config("harmony"), WORKLOADS["smallbank"]())
        assert isinstance(oe, ShardedBlockchain)
        assert oe.config.num_shards == 1
        assert oe.config.block_size == 10 and oe.config.seed == 13
        assert oe.node is oe.group.nodes[0]

    def test_one_shard_has_nothing_to_route_split_or_vote_on(self):
        chain = ShardedBlockchain(shard_config(num_shards=1), WORKLOADS["smallbank"]())
        metrics, history = run_with_history(chain)
        assert metrics.extra["cross_shard_txns"] == 0
        for outcome in history:
            # the sub-block is the global block, the ledger the global chain
            assert outcome.sub_blocks == {0: outcome.block}
            assert outcome.expected == {}
            assert outcome.certificate.votes == ()
            assert outcome.merged_txns is outcome.executions[0].txns
        assert chain.group.nodes[0].ledger.blocks() == [
            outcome.block for outcome in history
        ]
        assert chain.consistency_check()

    def test_serial_runs_unsharded(self):
        metrics = OEBlockchain(oe_config("serial"), WORKLOADS["ycsb"]()).run()
        assert metrics.aborted == 0 and metrics.extra["ledger_ok"]


# --------------------------------------------------------- cross-shard commit
def run_sharded(
    system="harmony",
    workload_name="smallbank",
    num_shards=4,
    cross=0.4,
    **overrides,
):
    """A traced run whose :class:`History` (``chain.tracer``) keeps every
    block's outcome."""
    workload = WORKLOADS[workload_name](ShardAffinity(num_shards, cross))
    config = shard_config(system, num_shards=num_shards, **overrides)
    chain = ShardedBlockchain(config, workload)
    chain.tracer = History()
    metrics = chain.run()
    return chain, metrics


class TestCrossShardCommit:
    def test_zero_cross_ratio_yields_single_shard_txns(self):
        chain, metrics = run_sharded(cross=0.0)
        assert metrics.extra["cross_shard_txns"] == 0
        assert metrics.extra["ledger_ok"] and metrics.extra["certificates_ok"]

    def test_cross_ratio_generates_cross_shard_txns(self):
        _chain, metrics = run_sharded(cross=0.8)
        assert metrics.extra["cross_shard_txns"] > 0

    def test_statuses_consistent_across_participants(self):
        """2PC atomicity: every copy of a cross-shard transaction reaches
        the same commit/abort decision, and a veto is visible as a
        CROSS_SHARD_ABORT on shards whose local vote was commit."""
        chain, metrics = run_sharded(cross=0.8, num_blocks=6)
        saw_cross = saw_veto = 0
        for record in chain.tracer.outcomes:
            for j, participants in enumerate(record.participants):
                if len(participants) <= 1:
                    continue
                saw_cross += 1
                tid = record.merged_txns[j].tid
                copies = [
                    next(t for t in record.executions[s].txns if t.tid == tid)
                    for s in sorted(participants)
                ]
                statuses = {t.status for t in copies}
                assert len(statuses) == 1, f"tid {tid} diverged: {statuses}"
                if any(
                    t.abort_reason is AbortReason.CROSS_SHARD_ABORT for t in copies
                ):
                    saw_veto += 1
                    assert all(t.aborted for t in copies)
        assert saw_cross > 0
        assert metrics.extra["certificates_ok"]

    def test_vetoed_writes_never_reach_any_store(self):
        """A globally aborted transaction's writes are absent everywhere:
        replaying only the committed decisions reproduces each shard's
        state (the consistency check replays blocks + certificates)."""
        chain, _metrics = run_sharded(cross=0.8, num_blocks=6)
        assert any(cert.abort_tids for cert in chain.cert_log.certificates())
        assert chain.consistency_check()

    @pytest.mark.parametrize("system", ("harmony", "aria", "rbc"))
    def test_replica_replay_matches_for_every_system(self, system):
        chain, metrics = run_sharded(system=system, cross=0.5)
        assert metrics.extra["ledger_ok"] and metrics.extra["certificates_ok"]
        assert chain.consistency_check()

    def test_serial_rejects_multi_shard(self):
        with pytest.raises(ValueError):
            ShardedBlockchain(
                shard_config("serial", num_shards=2), WORKLOADS["ycsb"]()
            )

    def test_cross_shard_history_serializable_per_oracle(self):
        """Feed the merged committed history (chains from each owning
        shard) to the history oracle — its graph must equal the reference
        rebuild and certify serializability."""
        for workload_name in ("ycsb", "smallbank"):
            chain, _metrics = run_sharded(
                workload_name=workload_name, cross=0.6, num_blocks=6
            )
            oracle = HistoryOracle()
            for record in chain.tracer.outcomes:
                apply_chains = [
                    item
                    for shard in sorted(record.executions)
                    for item in record.executions[shard].apply_chains
                ]
                snapshot_id = record.executions[0].snapshot_block_id
                oracle.record_block(
                    record.block_id,
                    record.merged_txns,
                    apply_chains,
                    snapshot_block_id=snapshot_id,
                )
            assert oracle.build_graph() == reference.history_graph(oracle)
            assert oracle.is_serializable()

    def test_throughput_scales_with_shards_at_low_contention(self):
        def run(num_shards):
            workload = YCSBWorkload(
                num_keys=4_000, theta=0.1, affinity=ShardAffinity(4, 0.05)
            )
            config = ShardConfig(
                system="harmony",
                block_size=60,
                num_blocks=6,
                seed=13,
                num_shards=num_shards,
            )
            return ShardedBlockchain(config, workload).run()

        one, four = run(1), run(4)
        assert four.throughput_tps >= 2.0 * one.throughput_tps


# ------------------------------------------------------- footprint routing
class TestScanFootprints:
    """Compiled scan footprints against broadcast routing of the same
    stream. The broadcast side is ``adv-scan`` compiling no footprint —
    the path ``route_spec`` takes for any workload without one: ``spec_keys``
    is ``None`` for a wide scan, so it goes to every shard. A spare
    participant prepares an empty footprint and votes commit, so decisions
    and state must not move; only the participant sets and the 2PC cost do."""

    @staticmethod
    def run(system, compile_footprints):
        workload = make_workload(
            "adv-scan", num_keys=240, wide_scan_ratio=0.5, wide_span=48
        )
        if not compile_footprints:
            workload.spec_footprint = lambda spec: None
        config = shard_config(
            system,
            num_shards=4,
            block_size=40,
            num_blocks=10,
            seed=30625,
        )
        metrics, history = run_with_history(ShardedBlockchain(config, workload))
        participants = sum(
            len(shards) for record in history for shards in record.participants
        )
        return metrics, participants

    @pytest.mark.parametrize("system", ("harmony", "aria"))
    def test_footprints_shrink_participants_at_equal_decisions(self, system):
        broadcast, broadcast_participants = self.run(system, False)
        footprint, footprint_participants = self.run(system, True)
        for key in ("decision_digest", "state_hash"):
            assert footprint.extra[key] == broadcast.extra[key], key
        assert footprint.extra["ledger_ok"] and footprint.extra["certificates_ok"]
        assert footprint_participants < broadcast_participants
        assert footprint.throughput_tps >= broadcast.throughput_tps
