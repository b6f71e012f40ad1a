"""Adaptive sharding: ownership epochs, rebalance policy, live re-keying.

Pins ISSUE 10's contracts:

- **ownership epochs** — the versioned overlay is append-only, cumulative,
  and height-indexed; migration records are hash-covered and split into
  per-shard store deltas deterministically;
- **policy determinism** — identical telemetry produces identical
  proposals (sorted moves, canonical tie-breaks), and warmup/cooldown
  gates fire exactly where configured;
- **static differential** — ``rebalance="off"`` and a never-firing
  adaptive policy are bit-identical to the static router on every
  registered workload (hypothesis-sampled);
- **migrated-run identities** — a run that actually re-keys replays
  bit-identically on a fresh replica from (sub-blocks + certificates)
  alone, commit right away or trailing one block, and every shard
  recovers to the live state — through every caller of the one replay
  loop (:func:`repro.shard.replay.replay_blocks`);
- **certificate-stream checks** — every replay entry point rejects a
  shifted or truncated stream with the same error and hands the shared
  router's cursor back;
- **migration fence** — transactions touching an in-flight key at the
  re-key boundary abort deterministically with ``MIGRATION_FENCE``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.harmony import fence_migrated_keys
from repro.faults.inject import FaultInjector
from repro.faults.plan import PARTITION, FaultEvent, FaultPlan
from repro.faults.supervisor import SupervisedShardGroup
from repro.obs.analyze import shard_skew
from repro.obs.trace import KIND_STAGE, Span
from repro.shard.rebalance import (
    MigrationRecord,
    OwnershipTable,
    RebalancePolicy,
    migration_store_deltas,
)
from repro.shard.recovery import recover_shard_node
from repro.shard.replay import CertificateStreamError, replay_blocks, snapshot_lag
from repro.shard.router import ShardRouter
from repro.shard.system import (
    ShardConfig,
    ShardedBlockchain,
    fresh_group,
    logged_blocks,
    replay_group,
)
from repro.sim.rng import SeededRng
from repro.storage.mvstore import MIGRATION_SEQ_BASE, MVStore, TOMBSTONE
from repro.txn.transaction import AbortReason, Txn, TxnSpec
from repro.workloads import make_workload, workload_names
from repro.workloads.base import ShardAffinity, Workload

#: fires early and often — migrations within a handful of blocks
AGGRESSIVE = dict(
    rebalance="adaptive",
    rebalance_skew_threshold=1.0,
    rebalance_cross_threshold=0.0,
    rebalance_max_keys=8,
)

#: armed but unreachable thresholds — the policy must never fire
NEVER_FIRING = dict(
    rebalance="adaptive",
    rebalance_skew_threshold=1e9,
    rebalance_cross_threshold=1.1,
    rebalance_max_keys=8,
)


def build_chain(
    workload, num_shards=2, num_blocks=6, block_size=16, seed=11, system="harmony", **cfg
):
    config = ShardConfig(
        system=system,
        block_size=block_size,
        num_blocks=num_blocks,
        seed=seed,
        num_shards=num_shards,
        **cfg,
    )
    return ShardedBlockchain(config, workload)


def run_chain(workload, **cfg):
    chain = build_chain(workload, **cfg)
    metrics = chain.run()
    return chain, metrics


def run_supervised(chain, plan, num_blocks):
    """Drive ``chain`` block by block under the fault supervisor; with
    ``finalize`` left to the caller, open partition windows stay open."""
    supervisor = SupervisedShardGroup(
        chain, FaultInjector(plan, chain.config.num_shards)
    )
    rng = SeededRng(plan.seed, "rebalance-supervised")
    for _ in range(num_blocks):
        specs = chain.workload.generate_block(chain.config.block_size, rng)
        supervisor.process_block(chain.ordering.form_block(specs))
    return supervisor


def replay_trailing(chain):
    """An all-shard replay of ``chain`` on a fresh group with every commit
    trailing its prepare by one block (honoured at snapshot lag >= 2,
    ignored below): block *i* is prepared before block *i-1* is applied."""
    other = fresh_group(chain, "replay-trailing")
    replay_blocks(
        dict(enumerate(other.nodes)),
        logged_blocks(chain),
        chain.cert_log,
        chain.router,
        trail=True,
    )
    return other


def skewshift(num_shards=2):
    return make_workload(
        "adv-skewshift",
        num_keys=96,
        theta=1.1,
        shift_period=48,
        affinity=ShardAffinity(num_shards, 0.4),
    )


# ------------------------------------------------------------- ownership
class TestOwnershipTable:
    def test_epoch_zero_is_static(self):
        table = OwnershipTable()
        assert table.epoch == 0
        assert table.overrides_at(0) == {}
        assert table.overrides_at(10**9) == {}

    def test_epochs_are_cumulative_and_height_indexed(self):
        table = OwnershipTable()
        table.append(4, {"a": 1})
        table.append(8, {"b": 2})
        table.append(8, {"a": 3})  # same height: later epoch wins lookups
        assert table.epoch == 3
        assert table.overrides_at(3) == {}
        assert table.overrides_at(4) == {"a": 1}
        assert table.overrides_at(7) == {"a": 1}
        assert table.overrides_at(8) == {"a": 3, "b": 2}
        assert table.epoch_at(0) == 0
        assert table.epoch_at(8) == 3

    def test_height_must_not_regress(self):
        table = OwnershipTable()
        table.append(6, {"a": 1})
        with pytest.raises(ValueError):
            table.append(5, {"b": 0})

    def test_router_epoch_gap_fails_loudly(self):
        router = ShardRouter(2, policy="hash")
        record = MigrationRecord(block_id=4, epoch=2, moves=(("k", 1),))
        with pytest.raises(ValueError):
            router.apply_migration(record)

    def test_router_cursor_resolves_overrides_by_height(self):
        router = ShardRouter(2, policy="hash")
        key = ("adv", 7)
        src = router.shard_of(key)
        dst = 1 - src
        record = MigrationRecord(
            block_id=4, epoch=1, moves=((key, dst),), deltas=((key, 5),)
        )
        router.apply_migration(record)
        assert router.cursor_height == 4
        assert router.shard_of(key) == dst
        assert router.shard_of_at(key, 3) == src
        assert router.shard_of_at(key, 4) == dst
        router.advance_to(0)
        assert router.shard_of(key) == src
        router.advance_to(4)
        assert router.shard_of(key) == dst


    def test_warm_static_memo_never_answers_for_an_override(self):
        """The memo stores only the static policy's answer, and every lookup
        asks the epoch's overrides first: installing epochs over keys whose
        owner is already remembered re-routes them at exactly the recorded
        heights, and moving them back (an override equal to the static
        owner) is an override like any other."""
        router = ShardRouter(4, policy="hash")
        keys = [("adv", i) for i in range(12)]

        class Keys(Workload):
            name = "keys"

            def spec_keys(self, spec):
                return keys

        static = {key: router.shard_of(key) for key in keys}  # memo warm
        assert router._static_owners == static
        away = {key: (owner + 1) % 4 for key, owner in static.items()}
        router.apply_migration(
            MigrationRecord(5, 1, moves=tuple((k, away[k]) for k in keys[:6]))
        )
        router.apply_migration(
            MigrationRecord(
                9, 2, moves=((keys[0], static[keys[0]]), (keys[7], away[keys[7]]))
            )
        )
        expected = {
            4: dict(static),
            5: {**static, **{k: away[k] for k in keys[:6]}},
            9: {**static, **{k: away[k] for k in keys[1:6]}, keys[7]: away[keys[7]]},
        }
        for height, owners in expected.items():
            for key in keys:
                assert router.shard_of_at(key, height) == owners[key]
            router.advance_to(height)
            assert {key: router.shard_of(key) for key in keys} == owners
            route = router.route_block(Keys(), [TxnSpec("keys")], 0, pairs=True)
            assert route.routed == [list(owners.items())]
            assert route.participants == [frozenset(owners.values())]
        assert router._static_owners == static  # no override ever leaked in
        assert all(router._static_owners[key] == static[key] for key in keys)


class TestMigrationRecord:
    def test_payload_text_covers_every_field(self):
        base = MigrationRecord(
            block_id=4, epoch=1, moves=(("k", 1),), deltas=(("k", 7),), reason="r"
        )
        texts = {base.payload_text()}
        for variant in (
            MigrationRecord(block_id=5, epoch=1, moves=(("k", 1),), deltas=(("k", 7),), reason="r"),
            MigrationRecord(block_id=4, epoch=2, moves=(("k", 1),), deltas=(("k", 7),), reason="r"),
            MigrationRecord(block_id=4, epoch=1, moves=(("k", 0),), deltas=(("k", 7),), reason="r"),
            MigrationRecord(block_id=4, epoch=1, moves=(("k", 1),), deltas=(("k", 8),), reason="r"),
            MigrationRecord(block_id=4, epoch=1, moves=(("k", 1),), deltas=(("k", 7),), reason="x"),
        ):
            texts.add(variant.payload_text())
        assert len(texts) == 6  # any field change changes the certified text

    def test_store_deltas_ship_value_in_and_tombstone_out(self):
        router = ShardRouter(4, policy="hash")
        key_a, key_b = ("adv", 1), ("adv", 2)
        src_a, src_b = router.shard_of(key_a), router.shard_of(key_b)
        dst = (src_a + 1) % 4
        record = MigrationRecord(
            block_id=4,
            epoch=1,
            moves=((key_a, dst), (key_b, src_b)),
            deltas=((key_a, 10), (key_b, 20)),
        )
        shipments = migration_store_deltas(record, router)
        assert shipments == {dst: {key_a: 10}, src_a: {key_a: TOMBSTONE}}
        # key_b "moves" to its current owner: no shipment either way
        assert all(key_b not in items for items in shipments.values())


class TestMigrationStoreLoad:
    def test_migration_versions_sort_after_block_writes(self):
        store = MVStore()
        store.load({("k", 1): 100})
        store.apply_block(3, [(("k", 1), 200)])
        # boundary shipment lands inside block 3, after its real writes
        store.load({("k", 1): 999}, block_id=3, seq_start=MIGRATION_SEQ_BASE)
        assert store.snapshot(2).get(("k", 1))[0] == 100
        assert store.snapshot(3).get(("k", 1))[0] == 999


# ---------------------------------------------------------------- policy
class TestRebalancePolicy:
    def make(self, **kw):
        defaults = dict(
            check_interval=2,
            warmup_blocks=2,
            cooldown_blocks=2,
            skew_threshold=2.0,
            cross_threshold=0.5,
            max_keys=4,
        )
        defaults.update(kw)
        return RebalancePolicy(2, **defaults)

    def feed(self, policy, router, pairs):
        for keys in pairs:
            routed = [(k, router.shard_of(k)) for k in keys]
            policy.observe_txn(routed, frozenset(s for _k, s in routed))

    def test_warmup_and_off_boundary_suppress(self):
        router = ShardRouter(2, policy="hash")
        policy = self.make()
        self.feed(policy, router, [[("k", i), ("k", i + 50)] for i in range(20)])
        assert policy.propose(1, router) is None  # under warmup
        assert policy.propose(3, router) is None  # off the check boundary

    def test_colocate_fires_on_cross_ratio_and_is_deterministic(self):
        router = ShardRouter(2, policy="hash")
        policy_a, policy_b = self.make(), self.make()
        hot = [("k", 1), ("k", 2), ("k", 3)]
        pairs = [[hot[i % 3], hot[(i + 1) % 3]] for i in range(30)]
        self.feed(policy_a, router, pairs)
        self.feed(policy_b, router, pairs)
        got_a = policy_a.propose(4, router)
        got_b = policy_b.propose(4, router)
        assert got_a is not None and got_a == got_b
        assert got_a.reason.startswith("scatter:")
        assert list(got_a.moves) == sorted(got_a.moves, key=lambda kv: repr(kv[0]))
        dsts = {dst for _k, dst in got_a.moves}
        assert len(dsts) == 1  # colocation: one destination

    def test_offload_moves_hot_shard_keys_to_cold(self):
        router = ShardRouter(2, policy="hash")
        policy = self.make(cross_threshold=2.0, skew_threshold=1.5)
        hot_key = ("k", 1)
        hot_shard = router.shard_of(hot_key)
        self.feed(policy, router, [[hot_key]] * 40)
        proposal = policy.propose(4, router)
        assert proposal is not None
        assert proposal.reason.startswith("skew=")
        assert proposal.moves == ((hot_key, 1 - hot_shard),)

    def test_cooldown_suppresses_after_commit(self):
        router = ShardRouter(2, policy="hash")
        policy = self.make(cooldown_blocks=4)
        self.feed(policy, router, [[("k", 1), ("k", 2)]] * 30)
        assert policy.propose(4, router) is not None
        policy.committed(4)
        self.feed(policy, router, [[("k", 1), ("k", 2)]] * 30)
        assert policy.propose(6, router) is None  # inside cooldown
        self.feed(policy, router, [[("k", 1), ("k", 2)]] * 30)
        assert policy.propose(8, router) is not None


# ------------------------------------------------------------ shard skew
class TestShardSkewDegenerate:
    def span(self, shard, sim_us, seq=0, name="prepare"):
        return Span(seq=seq, name=name, kind=KIND_STAGE, shard=shard, sim_us=sim_us)

    def test_empty_trace(self):
        assert shard_skew([]) == {}

    def test_zero_busy_reports_balanced(self):
        spans = [self.span(0, 0.0), self.span(1, 0.0, seq=1)]
        skew = shard_skew(spans)
        assert skew[0]["skew"] == 1.0
        assert skew[1]["skew"] == 1.0

    def test_single_shard_reports_balanced(self):
        skew = shard_skew([self.span(0, 125.0)])
        assert skew[0]["skew"] == 1.0


# ----------------------------------------------------- static differential
class TestStaticDifferential:
    @given(
        name=st.sampled_from(workload_names()),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=8, deadline=None)
    def test_never_firing_policy_is_bit_identical_to_off(self, name, seed):
        """An armed adaptive policy with unreachable thresholds must leave
        the run bit-identical to ``rebalance="off"`` — the telemetry tap
        and the decision hook are observation-only until a record fires."""
        def build():
            return make_workload(
                name, profile="conformance", affinity=ShardAffinity(2, 0.3)
            )

        _chain_off, off = run_chain(
            build(), num_blocks=4, block_size=8, seed=seed, rebalance="off"
        )
        _chain_never, never = run_chain(
            build(), num_blocks=4, block_size=8, seed=seed, **NEVER_FIRING
        )
        assert never.extra["migrations"] == 0
        assert never.extra["ownership_epoch"] == 0
        assert never.extra["decision_digest"] == off.extra["decision_digest"]
        assert never.extra["state_hash"] == off.extra["state_hash"]
        assert never.extra["cert_head"] == off.extra["cert_head"]


# ------------------------------------------------- migrated-run identities
MIGRATED_RUNS = [(system, n) for system in ("harmony", "aria") for n in (2, 4)]


class TestMigratedRunIdentities:
    def test_adaptive_run_migrates_and_certifies(self):
        chain, metrics = run_chain(skewshift(), **AGGRESSIVE)
        assert metrics.extra["migrations"] >= 1
        assert metrics.extra["ownership_epoch"] >= 1
        assert metrics.extra["ledger_ok"]
        assert metrics.extra["certificates_ok"]
        # the records ride the certificate stream hash-covered
        migrated = [
            cert for cert in chain.cert_log.certificates() if cert.migration
        ]
        assert len(migrated) == metrics.extra["migrations"]

    def test_migrated_run_replays_bit_identically_on_fresh_replica(self):
        chain, metrics = run_chain(skewshift(), **AGGRESSIVE)
        assert metrics.extra["migrations"] >= 1
        replica = replay_group(chain, name_prefix="test-replica")
        assert chain.group.first_difference(replica) is None
        assert replica.state_hashes() == chain.group.state_hashes()
        assert chain.consistency_check()

    @pytest.mark.parametrize("shard", [0, 1])
    def test_every_shard_recovers_across_a_migration(self, shard):
        chain, metrics = run_chain(skewshift(), **AGGRESSIVE)
        assert metrics.extra["migrations"] >= 1
        recovery = recover_shard_node(
            chain.group.nodes[shard],
            shard,
            [node.engine.store for node in chain.group.nodes],
            chain.router,
            chain.cert_log,
        )
        assert (
            recovery.node.state_hash() == chain.group.nodes[shard].state_hash()
        )
        assert recovery.node.ledger.verify_chain()

    @pytest.mark.parametrize("system,num_shards", MIGRATED_RUNS)
    def test_every_replay_entry_point_rederives_the_live_state(
        self, system, num_shards
    ):
        """One migrated run, re-derived by every caller of the one replay
        loop: a fresh replica (commit right away and trailing), every
        shard's crash recovery under both commit schedules. Checkpoints at blocks 4 and 9 bake the first
        four migrations into the recovery point; the one at 10 replays."""
        chain, metrics = run_chain(
            skewshift(num_shards),
            num_shards=num_shards,
            num_blocks=12,
            system=system,
            checkpoint_interval=5,
            **AGGRESSIVE,
        )
        assert metrics.extra["migrations"] == 5
        live = chain.group.state_hashes()
        cursor = chain.router.cursor_height
        assert chain.group.first_difference(replay_group(chain)) is None
        assert chain.group.first_difference(replay_trailing(chain)) is None
        stores = [node.engine.store for node in chain.group.nodes]
        for shard, node in enumerate(chain.group.nodes):
            for pipelined in (False, True):
                recovery = recover_shard_node(
                    node, shard, stores, chain.router, chain.cert_log, pipelined=pipelined
                )
                assert recovery.replay_from == 9
                assert recovery.node.state_hash() == live[shard]
        assert chain.router.cursor_height == cursor

    @pytest.mark.parametrize("system,num_shards", MIGRATED_RUNS)
    def test_supervisor_catch_up_across_a_window_that_spans_migrations(
        self, system, num_shards
    ):
        """Shard 1 is cut off for blocks 3-6 while re-keys are certified at
        4 and 6: the supervisor's catch-up (forced at each migration
        barrier, then when the window closes) must leave it where a fresh
        replica lands from the same sub-blocks and certificates."""
        plan = FaultPlan(
            "window-over-migrations",
            11,
            (FaultEvent(PARTITION, block_id=3, shard=1, blocks=4),),
        )
        chain = build_chain(
            skewshift(num_shards), num_shards=num_shards, system=system, **AGGRESSIVE
        )
        supervisor = run_supervised(chain, plan, num_blocks=10)
        supervisor.finalize()
        assert supervisor.degraded_blocks == [3, 4, 5, 6]
        migrated = [c.block_id for c in chain.cert_log.certificates() if c.migration]
        assert {4, 6} <= set(migrated)
        assert {len(node.ledger) for node in chain.group.nodes} == {10}
        # every live shipment landed once: no store is behind the last epoch
        assert chain._store_mig_epochs == [len(migrated)] * num_shards
        assert chain.group.first_difference(replay_group(chain)) is None
        assert chain.cert_log.verify_chain() and chain.group.ledgers_ok()

    def test_rejoin_after_recovery_repoints_peers_at_the_recovered_store(self):
        """``ShardGroup.rejoin`` wires through the same function that built
        the fleet: afterwards peers read shard 1's keys from the recovered
        store, and the recovered executor reads its peers' live stores."""
        chain, _metrics = run_chain(skewshift(), num_blocks=8, **AGGRESSIVE)
        group, router = chain.group, chain.router
        corpse = group.nodes[1]
        recovery = recover_shard_node(
            corpse, 1, [n.engine.store for n in group.nodes], router, chain.cert_log
        )
        group.rejoin(1, recovery.node)
        assert group.nodes[1] is recovery.node
        mine = next(k for k in recovery.node.engine.store.keys() if router.shard_of(k) == 1)
        theirs = next(k for k in group.nodes[0].engine.store.keys() if router.shard_of(k) == 0)
        # a write only the recovered store sees, and one only its peer sees
        recovery.node.engine.store.apply_block(8, [(mine, "recovered-only")])
        group.nodes[0].engine.store.apply_block(8, [(theirs, "peer-only")])
        assert corpse.engine.store.get_latest(mine)[0] != "recovered-only"
        for node in group.nodes:
            snapshot = node.executor.snapshot_source(8)
            assert snapshot.get(mine)[0] == "recovered-only"
            assert snapshot.get(theirs)[0] == "peer-only"
        assert recovery.node.executor.key_scope(mine)
        assert not recovery.node.executor.key_scope(theirs)

    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("system", ["harmony", "aria", "rbc"])
    @pytest.mark.parametrize("name", workload_names())
    def test_trailing_replay_rederives_every_workload(self, name, system, num_shards):
        """Commit-independence at lag 2, on every shard at once: Harmony
        prepares block *i* against block *i-1*'s decisions alone, so the
        replay that applies each block one block late lands on the live
        run's state; the lag-1 schemes must ignore ``trail`` and match too."""
        workload = make_workload(
            name, profile="gate", affinity=ShardAffinity(num_shards, 0.3)
        )
        chain, _metrics = run_chain(workload, num_shards=num_shards, system=system)
        lag = snapshot_lag(chain.group.nodes[0].executor)
        assert lag == (2 if system == "harmony" else 1)
        assert chain.group.first_difference(replay_trailing(chain)) is None


# ------------------------------------------------ certificate-stream checks
def shifted(certs, at):
    """Position ``at`` onwards holds the *next* block's certificate."""
    return certs[:at] + certs[at + 1 :]


def truncated(certs, at):
    return certs[:at]


class TestReplayRejectsADamagedCertificateStream:
    """Twelve blocks, migrations at 2, 4, 6, 8 and 10, so the live cursor
    sits at 10; the stream is damaged from position 9, where a replay has
    pinned the cursor one migration behind."""

    def migrated(self):
        chain, metrics = run_chain(
            skewshift(), num_blocks=12, checkpoint_interval=100, **AGGRESSIVE
        )
        assert metrics.extra["migrations"] == 5
        assert chain.router.cursor_height == 10
        return chain

    def test_failed_recovery_hands_the_shared_cursor_back(self):
        chain = self.migrated()
        router = chain.router
        with pytest.raises(
            CertificateStreamError, match="certificate stream misaligned"
        ):
            recover_shard_node(
                chain.group.nodes[0],
                0,
                [node.engine.store for node in chain.group.nodes],
                router,
                shifted(chain.cert_log.certificates(), 9),
            )
        # the live chain routes the next block with this cursor
        assert router.cursor_height == 10
        assert router.ownership_epoch == 5

    @pytest.mark.parametrize("damage", [shifted, truncated])
    @pytest.mark.parametrize("entry", ["replica", "trailing", "recovery", "catch-up"])
    def test_every_entry_point_rejects_it_the_same_way(self, entry, damage):
        if entry == "catch-up":
            # shard 1 cut off from block 3 on, the window still open: the
            # barrier of the migration at 8 synced it through block 7,
            # blocks 8 and 9 wait for it in the supervisor's log
            plan = FaultPlan(
                "open-window", 11, (FaultEvent(PARTITION, block_id=3, shard=1, blocks=9),)
            )
            chain = build_chain(skewshift(), **AGGRESSIVE)
            supervisor = run_supervised(chain, plan, num_blocks=10)
            lagging = chain.group.nodes[1]
            assert len(lagging.ledger) == 8

            def replay():
                supervisor._catch_up(1, lagging)

        else:
            chain = self.migrated()

            def replay():
                if entry == "recovery":
                    recover_shard_node(
                        chain.group.nodes[1],
                        1,
                        [node.engine.store for node in chain.group.nodes],
                        chain.router,
                        chain.cert_log,
                    )
                elif entry == "trailing":
                    replay_trailing(chain)
                else:
                    replay_group(chain)

        cursor = chain.router.cursor_height
        chain.cert_log = damage(chain.cert_log.certificates(), 9)
        with pytest.raises(
            CertificateStreamError, match="certificate stream misaligned: position 9"
        ):
            replay()
        assert chain.router.cursor_height == cursor


# --------------------------------------------------------- migration fence
class TestMigrationFence:
    def txn(self, tid):
        return Txn(tid=tid, block_id=4, spec=TxnSpec("ops", (("ops", ()),)))

    def test_fence_aborts_touching_txns_only(self):
        fenced_key = ("k", 3)
        reader, writer, ranger, bystander = (self.txn(i) for i in range(4))
        reader.read_set[fenced_key] = None
        writer.write_set[fenced_key] = object()
        ranger.read_ranges.append((("k", 0), ("k", 9)))
        bystander.read_set[("k", 100)] = None
        bystander.read_ranges.append((("z", 0), ("z", 9)))
        fence_migrated_keys(
            [reader, writer, ranger, bystander], frozenset({fenced_key})
        )
        for txn in (reader, writer, ranger):
            assert txn.aborted
            assert txn.abort_reason == AbortReason.MIGRATION_FENCE
        assert not bystander.aborted

    def test_fence_fires_in_an_adaptive_run(self):
        """End to end: certified vetoes in an aggressive adaptive run carry
        the fence reason — boundary blocks really do refuse in-flight keys
        (a hot-set migration under a Zipf stream always collides)."""
        chain, metrics = run_chain(skewshift(), **AGGRESSIVE)
        assert metrics.extra["migrations"] >= 1
        reasons = chain.cross_shard_abort_reasons()
        assert reasons.get(AbortReason.MIGRATION_FENCE.value, 0) >= 1
