"""Tests for the workload generators and their stored procedures."""

from __future__ import annotations

import pytest

from repro.chain.system import OEBlockchain, OEConfig
from repro.core.harmony import HarmonyConfig, HarmonyExecutor
from repro.sim.rng import SeededRng
from repro.storage.engine import StorageEngine
from repro.txn.transaction import Txn
from repro.workloads.adversarial import (
    ContentionWorkload,
    RangeScanWorkload,
    SkewShiftWorkload,
)
from repro.workloads.base import ShardAffinity
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.smallbank import SmallbankWorkload, checking, savings
from repro.workloads.tpcc import (
    CUSTOMERS_PER_DISTRICT,
    DISTRICTS_PER_WAREHOUSE,
    INITIAL_NEXT_O_ID,
    TPCCWorkload,
    customer,
    district,
    new_order_key,
    order_key,
    warehouse,
)
from repro.workloads.ycsb import YCSBWorkload, key_of
from repro.workloads.zipf import ZipfGenerator


def run_workload(workload, num_blocks=5, block_size=20, seed=3, inter_block=False):
    engine = StorageEngine()
    engine.preload(workload.initial_state())
    executor = HarmonyExecutor(
        engine, workload.build_registry(), HarmonyConfig(inter_block=inter_block)
    )
    rng = SeededRng(seed, workload.name)
    tid = 0
    txns_all = []
    for block_id in range(num_blocks):
        specs = workload.generate_block(block_size, rng)
        txns = [Txn(tid + i, block_id, s) for i, s in enumerate(specs)]
        tid += len(txns)
        executor.execute_block(block_id, txns)
        txns_all.extend(txns)
    return engine, txns_all


class TestZipf:
    def test_uniform_when_theta_zero(self):
        gen = ZipfGenerator(1000, 0.0)
        rng = SeededRng(1, "zipf")
        counts = [0] * 10
        for _ in range(5000):
            counts[gen.sample(rng) // 100] += 1
        assert max(counts) < 2 * min(counts)

    def test_skew_concentrates_on_low_ranks(self):
        gen = ZipfGenerator(1000, 0.99)
        rng = SeededRng(1, "zipf")
        hot = sum(1 for _ in range(5000) if gen.sample(rng) < 10)
        assert hot > 1000  # >20% of draws on the top-1% keys

    def test_sample_distinct(self):
        gen = ZipfGenerator(100, 0.8)
        rng = SeededRng(2, "zipf")
        ranks = gen.sample_distinct(rng, 10)
        assert len(set(ranks)) == 10

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0, 0.5)
        with pytest.raises(ValueError):
            ZipfGenerator(10, -1)
        with pytest.raises(ValueError):
            ZipfGenerator(5, 0.5).sample_distinct(SeededRng(1, "x"), 6)


class TestGeneratorDeterminism:
    @pytest.mark.parametrize(
        "workload_factory",
        [
            lambda: YCSBWorkload(num_keys=100),
            lambda: SmallbankWorkload(num_accounts=100),
            lambda: TPCCWorkload(2),
            lambda: TPCCWorkload(8, affinity=ShardAffinity(4, 0.5)),
            lambda: HotspotWorkload(num_keys=100),
            lambda: ContentionWorkload(num_keys=100, hot_keys=4),
            lambda: RangeScanWorkload(num_keys=120),
            lambda: SkewShiftWorkload(num_keys=100),
            lambda: ContentionWorkload(
                num_keys=100, hot_keys=4, affinity=ShardAffinity(2, 0.5)
            ),
            lambda: RangeScanWorkload(
                num_keys=120, affinity=ShardAffinity(4, 0.5)
            ),
            lambda: SkewShiftWorkload(
                num_keys=100, affinity=ShardAffinity(2, 0.5)
            ),
        ],
    )
    def test_same_seed_same_stream(self, workload_factory):
        a = workload_factory().generate_block(30, SeededRng(5, "w"))
        b = workload_factory().generate_block(30, SeededRng(5, "w"))
        assert a == b


class TestYCSB:
    def test_initial_state_size(self):
        wl = YCSBWorkload(num_keys=500)
        assert len(wl.initial_state()) == 500

    def test_ops_mix(self):
        wl = YCSBWorkload(num_keys=1000, theta=0.0)
        specs = wl.generate_block(100, SeededRng(1, "y"))
        reads = writes = 0
        for spec in specs:
            for op in spec.param_dict["ops"]:
                if op[0] == "r":
                    reads += 1
                else:
                    writes += 1
        assert reads + writes == 1000
        assert 350 < reads < 650  # ~50/50

    def test_execution_updates_state(self):
        wl = YCSBWorkload(num_keys=200, theta=0.0)
        engine, txns = run_workload(wl, num_blocks=3, block_size=10)
        committed_writes = {
            key
            for txn in txns
            if txn.committed
            for key in txn.write_set
        }
        changed = sum(
            1
            for key in committed_writes
            if engine.store.get_latest(key)[0] != wl.initial_state()[key]
        )
        assert changed > 0


class TestSmallbank:
    def test_money_conservation_under_send_payment(self):
        """send_payment moves money; the total balance is conserved."""
        wl = SmallbankWorkload(num_accounts=50)

        class OnlyPayments(SmallbankWorkload):
            def _pick_proc(self, rng):
                return "sb_send_payment"

        only = OnlyPayments(num_accounts=50)
        engine, txns = run_workload(only, num_blocks=4, block_size=15)
        total = sum(
            engine.store.get_latest(checking(c))[0]
            + engine.store.get_latest(savings(c))[0]
            for c in range(50)
        )
        assert total == pytest.approx(50 * 2 * 10_000.0)

    def test_amalgamate_zeroes_source(self):
        wl = SmallbankWorkload(num_accounts=10)
        engine = StorageEngine()
        engine.preload(wl.initial_state())
        executor = HarmonyExecutor(
            engine, wl.build_registry(), HarmonyConfig(inter_block=False)
        )
        from repro.txn.transaction import TxnSpec
        from repro.workloads.base import params

        txn = Txn(0, 0, TxnSpec("sb_amalgamate", params(cid_from=1, cid_to=2)))
        executor.execute_block(0, [txn])
        assert txn.committed
        assert engine.store.get_latest(checking(1))[0] == 0.0
        assert engine.store.get_latest(savings(1))[0] == 0.0
        assert engine.store.get_latest(checking(2))[0] == 30_000.0

    def test_transact_savings_insufficient_is_logical_noop(self):
        wl = SmallbankWorkload(num_accounts=10, initial_balance=10.0)
        engine = StorageEngine()
        engine.preload(wl.initial_state())
        executor = HarmonyExecutor(
            engine, wl.build_registry(), HarmonyConfig(inter_block=False)
        )
        from repro.txn.transaction import TxnSpec
        from repro.workloads.base import params

        txn = Txn(0, 0, TxnSpec("sb_transact_savings", params(cid=1, amount=-100.0)))
        executor.execute_block(0, [txn])
        assert txn.output == "insufficient"
        assert engine.store.get_latest(savings(1))[0] == 10.0


class TestTPCC:
    def test_initial_state_scales_with_warehouses(self):
        small = len(TPCCWorkload(1).initial_state())
        large = len(TPCCWorkload(3).initial_state())
        assert large > 2 * small

    def test_new_order_increments_district_and_inserts(self):
        wl = TPCCWorkload(1)
        engine = StorageEngine(pool_pages=256)
        engine.preload(wl.initial_state())
        executor = HarmonyExecutor(
            engine, wl.build_registry(), HarmonyConfig(inter_block=False)
        )
        from repro.txn.transaction import TxnSpec
        from repro.workloads.base import params

        txn = Txn(
            0,
            0,
            TxnSpec(
                "tpcc_new_order",
                params(w=0, d=0, c=0, lines=((1, 2), (2, 3))),
            ),
        )
        executor.execute_block(0, [txn])
        assert txn.committed
        assert engine.store.get_latest(district(0, 0))[0]["next_o_id"] == 2
        assert engine.store.get_latest(order_key(0, 0, 1))[0]["ol_cnt"] == 2
        assert engine.store.get_latest(new_order_key(0, 0, 1))[0] is not None

    def test_payment_updates_ytd(self):
        wl = TPCCWorkload(1)
        engine = StorageEngine(pool_pages=256)
        engine.preload(wl.initial_state())
        executor = HarmonyExecutor(
            engine, wl.build_registry(), HarmonyConfig(inter_block=False)
        )
        from repro.txn.transaction import TxnSpec
        from repro.workloads.base import params

        txns = [
            Txn(i, 0, TxnSpec("tpcc_payment", params(w=0, d=0, c=i, amount=10.0)))
            for i in range(3)
        ]
        executor.execute_block(0, txns)
        assert all(t.committed for t in txns)  # fused adds: no aborts
        assert engine.store.get_latest(warehouse(0))[0]["ytd"] == 30.0

    def test_concurrent_new_orders_same_district_conflict(self):
        wl = TPCCWorkload(1)
        engine = StorageEngine(pool_pages=256)
        engine.preload(wl.initial_state())
        executor = HarmonyExecutor(
            engine, wl.build_registry(), HarmonyConfig(inter_block=False)
        )
        from repro.txn.transaction import TxnSpec
        from repro.workloads.base import params

        txns = [
            Txn(
                i,
                0,
                TxnSpec("tpcc_new_order", params(w=0, d=0, c=i, lines=((1, 1),))),
            )
            for i in range(3)
        ]
        executor.execute_block(0, txns)
        committed = [t for t in txns if t.committed]
        assert len(committed) == 1  # next_o_id RMW: only one survives

    def test_delivery_consumes_new_order(self):
        wl = TPCCWorkload(1)
        engine = StorageEngine(pool_pages=256)
        engine.preload(wl.initial_state())
        executor = HarmonyExecutor(
            engine, wl.build_registry(), HarmonyConfig(inter_block=False)
        )
        from repro.txn.transaction import TxnSpec
        from repro.workloads.base import params

        executor.execute_block(
            0,
            [
                Txn(
                    0,
                    0,
                    TxnSpec(
                        "tpcc_new_order", params(w=0, d=0, c=0, lines=((1, 1),))
                    ),
                )
            ],
        )
        delivery = Txn(1, 1, TxnSpec("tpcc_delivery", params(w=0, carrier=5)))
        executor.execute_block(1, [delivery])
        assert delivery.committed
        assert delivery.output == 1  # one district had a pending order
        assert engine.store.get_latest(new_order_key(0, 0, 1))[0] is None
        assert engine.store.get_latest(order_key(0, 0, 1))[0]["carrier_id"] == 5

    def test_mixed_blocks_run_clean(self):
        wl = TPCCWorkload(2)
        engine, txns = run_workload(wl, num_blocks=4, block_size=15)
        assert any(t.committed for t in txns)
        # every committed new_order kept the district counter consistent
        for w in range(2):
            for d in range(DISTRICTS_PER_WAREHOUSE):
                row = engine.store.get_latest(district(w, d))[0]
                assert row["next_o_id"] >= 1


class TestHotspot:
    def test_fused_updates_have_no_read_set(self):
        wl = HotspotWorkload(num_keys=100, hotspot_probability=1.0, fused=True)
        engine, txns = run_workload(wl, num_blocks=2, block_size=10)
        assert all(not t.read_set for t in txns)
        assert all(t.committed for t in txns)  # pure ww: Harmony commits all

    def test_separated_form_aborts_under_contention(self):
        wl = HotspotWorkload(num_keys=100, hotspot_probability=1.0, fused=False)
        _, txns = run_workload(wl, num_blocks=2, block_size=10)
        assert any(t.aborted for t in txns)

    def test_hot_keys_come_from_hot_set(self):
        wl = HotspotWorkload(num_keys=1000, hotspot_probability=1.0)
        specs = wl.generate_block(20, SeededRng(1, "h"))
        for spec in specs:
            for op in spec.param_dict["ops"]:
                assert wl.is_hot(op[1])

    def test_cold_keys_avoid_hot_set(self):
        wl = HotspotWorkload(num_keys=1000, hotspot_probability=0.0)
        specs = wl.generate_block(20, SeededRng(1, "h"))
        for spec in specs:
            for op in spec.param_dict["ops"]:
                assert not wl.is_hot(op[1])

    @pytest.mark.parametrize("num_keys", [0, 1])
    def test_fewer_than_two_keys_raise(self, num_keys):
        """One key is all hot, so a cold draw has nothing to find; no keys
        leave nothing to draw at all. Both used to loop forever in
        ``generate_block``; the constructor refuses them."""
        with pytest.raises(ValueError, match="at least 2 keys"):
            HotspotWorkload(num_keys=num_keys).generate_block(4, SeededRng(1, "h"))

    def test_two_keys_draw_one_cold_key(self):
        wl = HotspotWorkload(num_keys=2, statements_per_txn=2, hotspot_probability=0.0)
        specs = wl.generate_block(5, SeededRng(1, "h"))
        assert {op[1] for spec in specs for op in spec.param_dict["ops"]} == {1}


class TestTPCCInvariants:
    """TPC-C semantic invariants over the conformance sweep: whatever an
    OE scheme aborted, its committed history must leave a state that
    *some* serial TPC-C execution could have produced.

    The SOV family (fabric / fastfabric) is exercised separately: its
    endorsement step freezes fused ``ytd += x`` updates into stale value
    writes with no registered read, so concurrent payments lose updates —
    the Section 2.1.1 anomaly the OE pipeline exists to fix."""

    @pytest.mark.parametrize("scheme", ("serial", "harmony", "aria", "rbc"))
    def test_committed_state_satisfies_invariants(self, scheme):
        from tests.test_conformance import run_scheme

        outcomes = run_scheme(scheme, "tpcc")
        store = outcomes["engine"].store
        wl = outcomes["workload"]
        for w in range(wl.num_warehouses):
            # Payment adds the identical amount to the warehouse YTD and
            # the paying district's YTD, atomically
            wh_ytd = store.get_latest(warehouse(w))[0]["ytd"]
            dist_ytd = sum(
                store.get_latest(district(w, d))[0]["ytd"]
                for d in range(DISTRICTS_PER_WAREHOUSE)
            )
            assert wh_ytd == pytest.approx(dist_ytd), (scheme, w)

            delivered = 0
            for d in range(DISTRICTS_PER_WAREHOUSE):
                next_o = store.get_latest(district(w, d))[0]["next_o_id"]
                # order ids are dense and monotone: committed NewOrders
                # filled every id below the counter, none at or above it
                assert store.get_latest(order_key(w, d, next_o))[0] is None
                for o in range(INITIAL_NEXT_O_ID, next_o):
                    order_row = store.get_latest(order_key(w, d, o))[0]
                    assert order_row is not None, (scheme, w, d, o)
                    pending = store.get_latest(new_order_key(w, d, o))[0]
                    if order_row["carrier_id"] is None:
                        assert pending is not None, (scheme, w, d, o)
                    else:
                        # delivered exactly once: the new_order row is gone
                        assert pending is None, (scheme, w, d, o)
                        delivered += 1
            # every carrier assignment bumped exactly one customer's
            # delivery_cnt — delivered orders are never re-delivered
            delivery_cnts = sum(
                store.get_latest(customer(w, d, c))[0]["delivery_cnt"]
                for d in range(DISTRICTS_PER_WAREHOUSE)
                for c in range(CUSTOMERS_PER_DISTRICT)
            )
            assert delivered == delivery_cnts, (scheme, w)

    @pytest.mark.parametrize("scheme", ("fabric", "fastfabric"))
    def test_sov_endorsement_loses_fused_ytd_updates(self, scheme):
        """The documented SOV anomaly, pinned: endorsed value writes of
        fused adds carry no read to version-check, so contended payments
        silently overwrite each other and the warehouse YTD drifts from
        the district sum. OE schemes (above) keep them equal."""
        from tests.test_conformance import run_scheme

        outcomes = run_scheme(scheme, "tpcc")
        store = outcomes["engine"].store
        wl = outcomes["workload"]
        drifted = False
        for w in range(wl.num_warehouses):
            wh_ytd = store.get_latest(warehouse(w))[0]["ytd"]
            dist_ytd = sum(
                store.get_latest(district(w, d))[0]["ytd"]
                for d in range(DISTRICTS_PER_WAREHOUSE)
            )
            drifted = drifted or abs(wh_ytd - dist_ytd) > 1e-6
        assert drifted, f"{scheme}: expected lost fused updates on this stream"


class TestWorkloadRegistry:
    """The conformance sweep, fault drills and bench experiments must all
    build their workloads from the one shared registry."""

    def test_conformance_matrix_covers_the_registry(self):
        from repro.workloads import REGISTRY
        from tests.test_conformance import WORKLOADS

        assert sorted(WORKLOADS) == sorted(REGISTRY)

    def test_drill_workloads_are_registered(self):
        from repro.faults.drill import DRILL_WORKLOADS, SMOKE_WORKLOADS
        from repro.workloads import REGISTRY

        assert set(DRILL_WORKLOADS) <= set(REGISTRY)
        assert set(SMOKE_WORKLOADS) <= set(DRILL_WORKLOADS)

    def test_bench_experiments_build_from_the_registry(self):
        from repro.bench.experiments import make_workload as bench_make
        from repro.workloads import REGISTRY

        for name, entry in REGISTRY.items():
            wl = bench_make(name)
            assert isinstance(wl, entry.factory)
            assert wl.name == name

    def test_make_workload_layers_profiles_and_overrides(self):
        from repro.workloads import REGISTRY, make_workload

        gate = make_workload("adv-counter", profile="gate")
        assert gate.num_keys == REGISTRY["adv-counter"].gate["num_keys"]
        override = make_workload("adv-counter", profile="gate", num_keys=99)
        assert override.num_keys == 99
        sharded = make_workload(
            "tpcc", profile="gate", affinity=ShardAffinity(2, 0.5)
        )
        assert sharded.affinity is not None

    def test_make_workload_rejects_unknown_names(self):
        from repro.workloads import make_workload

        with pytest.raises(ValueError):
            make_workload("no-such-workload")
