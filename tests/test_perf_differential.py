"""Differential tests: the production hot paths vs ``tests/reference``.

Every optimized hot path — interval-indexed rw-edge extraction, the Rule-3
inter-block fold, the bitset reachability closure, Aria's reservation
range check, the streamed overlay scan, the batched ``MVStore.load`` and
the incremental state hash — has exactly one implementation in
``src/repro`` and must be *bit-identical* in decision outputs to the
straightforward reference kept in :mod:`tests.reference`. These tests run
randomized blocks through both and assert identical abort sets, counters,
rows and hashes.
"""

from __future__ import annotations

import copy
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.dependencies import (
    BlockDependencyIndex,
    CommittedGraph,
    commit_survivors,
)
from repro.core.reordering import apply_write_sets
from repro.core.validation import HarmonyValidator
from repro.dcc.aria import AriaExecutor
from repro.dcc.oracle import HistoryOracle, SerializabilityOracle, false_total, has_cycle
from repro.encoding import encode
from repro.execution import OverlayView
from repro.intervals import RangeIndex, SortedKeys, covers
from repro.chain.accounts import RunAccounts
from repro.chain.block import GENESIS_HASH
from repro.chain.ordering import OrderingService, ShardSequencer
from repro.shard.federated import FederatedSnapshot, wire_federation
from repro.shard.rebalance import MigrationRecord
from repro.shard.router import BlockRoute, ShardRouter
from repro.sim.rng import SeededRng
from repro.sim.scheduler import BlockTiming, PipelineSimulator
from repro.storage import mvstore
from repro.storage.mvstore import (
    MIGRATION_SEQ_BASE,
    MVStore,
    TOMBSTONE,
    _entry_digests,
    _visible_at,
)
from repro.txn.commands import AddValue, DeleteValue, MulValue, SetValue, apply_safely
from repro.txn.transaction import AbortReason, Txn, TxnSpec, TxnStatus
from repro.workloads.base import ShardAffinity, Workload
from repro.workloads.smallbank import SmallbankWorkload
from repro.workloads.zipf import ZipfGenerator

from tests import reference
from tests.conftest import generic_registry, make_engine, make_txns

NUM_KEYS = 24


def _key(i: int) -> tuple:
    return ("k", i)


#: a bulk populate and a shipment overlapping it (key id -> value)
_POPULATE = {i: i for i in range(4)}
_SHIPMENT = {i: 9 - i for i in range(2, 7)}


@st.composite
def txn_block(draw, first_tid: int = 1, max_txns: int = 10):
    """Random transactions with point reads, range reads and writes."""
    n = draw(st.integers(min_value=2, max_value=max_txns))
    txns = []
    for tid in range(first_tid, first_tid + n):
        txn = Txn(tid=tid, block_id=0, spec=TxnSpec("ops"))
        for i in draw(st.lists(st.integers(0, NUM_KEYS - 1), max_size=3, unique=True)):
            txn.read_set[_key(i)] = None
        for _ in range(draw(st.integers(0, 2))):
            start = draw(st.integers(0, NUM_KEYS - 1))
            span = draw(st.integers(0, NUM_KEYS // 2))
            txn.read_ranges.append((_key(start), _key(start + span)))
        for i in draw(st.lists(st.integers(0, NUM_KEYS - 1), max_size=3, unique=True)):
            txn.record_update(_key(i), AddValue(1))
        txns.append(txn)
    return txns


def clone_block(txns):
    out = []
    for t in txns:
        c = Txn(tid=t.tid, block_id=t.block_id, spec=t.spec)
        c.read_set = dict(t.read_set)
        c.read_ranges = list(t.read_ranges)
        c.write_set = dict(t.write_set)
        c.updated_keys = list(t.updated_keys)
        out.append(c)
    return out


class TestDependencyIndex:
    @given(txn_block())
    @settings(max_examples=200, deadline=None)
    def test_readers_of_identical(self, txns):
        index = BlockDependencyIndex(txns)
        for i in range(NUM_KEYS + 2):
            assert index.readers_of(_key(i)) == reference.readers_of(index, _key(i))

    @given(txn_block())
    @settings(max_examples=200, deadline=None)
    def test_rw_edges_identical(self, txns):
        index = BlockDependencyIndex(txns)
        assert list(index.rw_edges()) == reference.rw_edges(index)


class TestValidation:
    @given(txn_block())
    @settings(max_examples=200, deadline=None)
    def test_intra_block_identical(self, txns):
        a, b = clone_block(txns), clone_block(txns)
        stats_ref = reference.reference_validate(a)
        stats_fast = HarmonyValidator().validate(b)
        assert stats_ref.aborted_tids == stats_fast.aborted_tids
        for ta, tb in zip(a, b):
            assert (ta.min_out, ta.max_in, ta.status) == (tb.min_out, tb.max_in, tb.status)

    @given(txn_block(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_inter_block_fold_identical(self, prev_txns, data):
        HarmonyValidator().validate(prev_txns)
        for t in prev_txns:
            if not t.aborted:
                t.mark_committed()
        records = HarmonyValidator.records_for(prev_txns)
        current = data.draw(txn_block(first_tid=len(prev_txns) + 1))

        a, b = clone_block(current), clone_block(current)
        stats_ref = reference.reference_validate(a, records, inter_block=True)
        stats_fast = HarmonyValidator(inter_block=True).validate(b, records)
        assert stats_ref == stats_fast
        for ta, tb in zip(a, b):
            assert (ta.min_out, ta.status, ta.abort_reason) == (
                tb.min_out,
                tb.status,
                tb.abort_reason,
            )

    def test_adversarial_counter_storm(self):
        """The retired ``adversarial_contention`` ledger case's checks: on
        blocks built by actually simulating the ``adv-counter`` storm
        (fused adds + separated read-modify-writes piled on six counters),
        validator and reference agree on the abort set, and the contention
        bites."""
        from repro.execution import simulate_transactions
        from repro.sim.rng import SeededRng
        from repro.workloads import make_workload

        workload = make_workload(
            "adv-counter", num_keys=512, hot_keys=6, hot_ratio=0.7, ops_per_txn=8
        )
        registry = workload.build_registry()
        store = MVStore()
        store.load(workload.initial_state())
        rng = SeededRng(20230622, "bench/adv-counter")

        def build(first_tid: int, block_id: int) -> list[Txn]:
            txns = [
                Txn(tid=first_tid + i, block_id=block_id, spec=spec)
                for i, spec in enumerate(workload.generate_block(60, rng))
            ]
            simulate_transactions(txns, store.latest_snapshot(), registry)
            return txns

        prev = build(0, 0)
        HarmonyValidator().validate(prev)
        records = HarmonyValidator.records_for(prev, graph=commit_survivors(prev))
        block = build(60, 1)
        a, b = clone_block(block), clone_block(block)
        stats_ref = reference.reference_validate(a, records, inter_block=True)
        stats_fast = HarmonyValidator(inter_block=True).validate(b, records)
        assert stats_fast == stats_ref
        assert stats_fast.aborted_tids
        assert [t.abort_reason for t in a] == [t.abort_reason for t in b]

    @given(txn_block())
    @settings(max_examples=200, deadline=None)
    def test_reachability_identical(self, txns):
        HarmonyValidator().validate(txns)
        for t in txns:
            if not t.aborted:
                t.mark_committed()
        records = HarmonyValidator.records_for(txns)
        # one representation on both sides: per-position bitsets
        assert all(isinstance(bits, int) for bits in records.reachable)
        committed = CommittedGraph(txns).txns
        assert records.reachable == tuple(reference.reachability(committed))
        assert records.writers.keys() == {k for t in committed for k in t.write_set}

    @given(txn_block(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bitset_reaches_and_close_structure_match_membership_form(
        self, prev_txns, data
    ):
        """``reaches`` / ``_close_structure`` on bitsets vs the form they
        replaced: membership in the per-node DFS closure's sets, probed
        for every (backward target, forward source) pair."""
        HarmonyValidator().validate(prev_txns)
        for t in prev_txns:
            if not t.aborted:
                t.mark_committed()
        records = HarmonyValidator.records_for(prev_txns)
        committed = CommittedGraph(prev_txns).txns
        n = len(committed)
        sets = [
            {j for j in range(n) if bits >> j & 1}
            for bits in reference.reachability(committed)
        ]

        def reaches(a, b):
            return a == b or b in sets[a]

        for a in range(n):
            for b in range(n):
                assert records.reaches(a, b) == reaches(a, b)

        positions = st.sets(st.integers(0, max(n - 1, 0)), max_size=n)
        backward = data.draw(positions) if n else set()
        forward = data.draw(positions) if n else set()
        txn = Txn(tid=999, block_id=1, spec=TxnSpec("ops"))
        doomed: set[int] = set()
        HarmonyValidator._close_structure(txn, records, backward, forward, doomed)
        assert (txn.tid in doomed) == any(
            reaches(t, s) for t in backward for s in forward
        )


#: the four kinds of transaction a Rule-3 skip must tell apart
READ_KINDS = ("read_free", "miss", "hit", "range")


@st.composite
def mixed_block(draw, prev_written, first_tid: int, kinds):
    """A block of read-free transactions, point reads that miss the
    previous block's writes (keys past ``NUM_KEYS``, which no previous
    block writes), point reads that hit them and range reads; every kind
    writes anywhere, so it can also be a forward source's target."""
    hits = sorted(prev_written) or [_key(0)]
    txns = []
    drawn = draw(st.lists(kinds, min_size=1, max_size=10))
    for tid, kind in enumerate(drawn, start=first_tid):
        txn = Txn(tid=tid, block_id=1, spec=TxnSpec("ops"))
        if kind == "miss":
            for i in draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True)):
                txn.read_set[_key(NUM_KEYS + i)] = None
        elif kind == "hit":
            for key in draw(st.lists(st.sampled_from(hits), min_size=1, max_size=3, unique=True)):
                txn.read_set[key] = None
        elif kind == "range":
            start = draw(st.integers(0, NUM_KEYS - 1))
            txn.read_ranges.append((_key(start), _key(start + draw(st.integers(1, 8)))))
        for i in draw(st.lists(st.integers(0, NUM_KEYS - 1), max_size=3, unique=True)):
            txn.record_update(_key(i), AddValue(1))
        txns.append(txn)
    return txns


def _decided_records(prev_txns):
    """``prev_txns`` validated, committed and turned into Rule-3 records."""
    HarmonyValidator().validate(prev_txns)
    return HarmonyValidator.records_for(prev_txns, graph=commit_survivors(prev_txns))


def _assert_same_decisions(block, records):
    """``validate`` and ``reference_validate`` agree on every status, reason
    and counter, with Rule 3 on and off."""
    for inter_block in (False, True):
        a, b = clone_block(block), clone_block(block)
        stats_ref = reference.reference_validate(a, records, inter_block=inter_block)
        stats_fast = HarmonyValidator(inter_block=inter_block).validate(b, records)
        assert stats_fast == stats_ref
        assert [(t.status, t.abort_reason, t.min_out, t.max_in) for t in b] == [
            (t.status, t.abort_reason, t.min_out, t.max_in) for t in a
        ]


class TestReaderSkips:
    """The fold skips what no reader needs: a transaction that reads
    nothing, one whose reads miss the previous block, one already doomed
    by a backward hit, and the rw index of a block nobody reads in. Each
    skip must decide exactly what the reference (which skips nothing)
    decides."""

    @pytest.mark.parametrize(
        "kinds",
        # every kind mixed; then blocks where a skip covers every
        # transaction: nobody reads, every reader misses ``prev``, and no
        # point read at all (the rw index is still built for the ranges)
        [READ_KINDS, ("read_free",), ("read_free", "miss"), ("read_free", "range")],
        ids=["mixed", "all_read_free", "readers_all_miss", "reads_all_ranges"],
    )
    @given(prev_txns=txn_block(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_identical_to_reference(self, kinds, prev_txns, data):
        records = _decided_records(prev_txns)
        block = data.draw(
            mixed_block(records.writers, len(prev_txns) + 1, st.sampled_from(kinds))
        )
        _assert_same_decisions(block, records)

    def test_the_kinds_reach_every_rule_3_outcome(self):
        """The four kinds are not vacuous: over seeded draws of them the
        two sides agree while meeting both Rule-3 abort paths — a backward
        hit on a structure middle and a closed cross-block cycle — and
        Rule 1 within the block."""
        outcomes = set()
        rng = random.Random(2024)
        for _ in range(300):
            prev = [
                Txn(tid=tid, block_id=0, spec=TxnSpec("ops")) for tid in range(1, 9)
            ]
            for txn in prev:
                for i in rng.sample(range(8), 2):
                    txn.read_set[_key(i)] = None
                for i in rng.sample(range(8), 2):
                    txn.record_update(_key(i), AddValue(1))
            records = _decided_records(prev)
            block = []
            for tid in range(9, 15):
                txn = Txn(tid=tid, block_id=1, spec=TxnSpec("ops"))
                kind = rng.choice(READ_KINDS)
                if kind == "hit":
                    txn.read_set[_key(rng.randrange(8))] = None
                elif kind == "miss":
                    txn.read_set[_key(NUM_KEYS)] = None
                elif kind == "range":
                    start = rng.randrange(8)
                    txn.read_ranges.append((_key(start), _key(start + 2)))
                for i in rng.sample(range(8), 2):
                    txn.record_update(_key(i), AddValue(1))
                block.append(txn)
            _assert_same_decisions(block, records)
            HarmonyValidator(inter_block=True).validate(block, records)
            for txn in block:
                if txn.abort_reason is AbortReason.INTER_BLOCK_STRUCTURE:
                    read = [k for k in records.writers if txn.reads(k)]
                    middle = any(
                        records.min_outs[pos] < records.tids[pos]
                        for key in read
                        for pos in records.writers[key]
                    )
                    outcomes.add("middle hit" if middle else "cycle closed")
                elif txn.aborted:
                    outcomes.add(txn.abort_reason)
        assert outcomes >= {
            "middle hit", "cycle closed", AbortReason.BACKWARD_DANGEROUS_STRUCTURE
        }


@st.composite
def oracle_history(draw):
    """A randomized multi-block committed history for the history oracle:
    point reads carrying observed versions, range reads, per-key apply
    chains and a mix of committed/aborted transactions."""
    num_blocks = draw(st.integers(min_value=1, max_value=4))
    blocks = []
    tid = 0
    for block_id in range(num_blocks):
        n = draw(st.integers(min_value=1, max_value=6))
        txns = []
        for _ in range(n):
            txn = Txn(tid=tid, block_id=block_id, spec=TxnSpec("ops"))
            tid += 1
            for i in draw(
                st.lists(st.integers(0, NUM_KEYS - 1), max_size=3, unique=True)
            ):
                version = draw(
                    st.one_of(
                        st.none(),
                        st.tuples(st.integers(-1, block_id), st.integers(0, 2)),
                    )
                )
                txn.read_set[_key(i)] = version
            for _ in range(draw(st.integers(0, 2))):
                start = draw(st.integers(0, NUM_KEYS - 1))
                span = draw(st.integers(0, NUM_KEYS // 2))
                txn.read_ranges.append((_key(start), _key(start + span)))
            for i in draw(
                st.lists(st.integers(0, NUM_KEYS - 1), max_size=3, unique=True)
            ):
                txn.record_update(_key(i), AddValue(1))
            if draw(st.booleans()):
                txn.mark_committed()
            else:
                from repro.txn.transaction import AbortReason

                txn.mark_aborted(AbortReason.WAW)
            txns.append(txn)
        chains: dict = {}
        for txn in txns:  # apply chains in block (TID) order
            for key in txn.write_set:
                chains.setdefault(key, []).append(txn.tid)
        applies = list(chains.items())
        snap = block_id - draw(st.integers(1, 2))
        blocks.append((block_id, txns, applies, snap))
    return blocks


class TestHistoryOracleDifferential:
    @given(oracle_history())
    @settings(max_examples=150, deadline=None)
    def test_build_graph_identical(self, blocks):
        oracle = HistoryOracle()
        for block_id, txns, applies, snap in blocks:
            oracle.record_block(block_id, txns, applies, snapshot_block_id=snap)
        graph = reference.history_graph(oracle)
        assert oracle.build_graph() == graph
        assert oracle.is_serializable() is not has_cycle(graph)

    @given(oracle_history())
    @settings(max_examples=100, deadline=None)
    def test_incremental_checks_match_one_shot(self, blocks):
        """Checking after every block (the memoized usage pattern) must give
        the same verdicts as the reference graph rebuilt from scratch each
        time."""
        oracle = HistoryOracle()
        for block_id, txns, applies, snap in blocks:
            oracle.record_block(block_id, txns, applies, snapshot_block_id=snap)
            graph = reference.history_graph(oracle)
            assert oracle.build_graph() == graph
            assert oracle.is_serializable() is not has_cycle(graph)
        # a repeated fully-memoized call is idempotent
        assert oracle.build_graph() == oracle.build_graph()

class TestFalseAbortDifferential:
    """Bitset false-abort counting vs the per-abortee graph rebuild."""

    @given(txn_block(max_txns=14))
    @settings(max_examples=150, deadline=None)
    def test_counts_identical_after_validation(self, txns):
        HarmonyValidator().validate(txns)
        for txn in txns:
            if not txn.aborted:
                txn.mark_committed()
        expected = reference.false_aborts(txns)
        assert SerializabilityOracle.count_false_aborts(txns) == expected

    @given(txn_block(max_txns=12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_identical_under_arbitrary_statuses(self, txns, data):
        """Any committed/aborted split and any chain order (the value-based
        schemes use TID order) must agree between the two paths."""
        for txn in txns:
            if data.draw(st.booleans()):
                txn.mark_committed()
            else:
                txn.mark_aborted(AbortReason.WAW)
        for chain_order in (None, lambda t: t.tid):
            expected = reference.false_aborts(txns, chain_order)
            assert SerializabilityOracle.count_false_aborts(txns, chain_order) == expected

    def test_heavy_abort_blocks_with_cyclic_committed_sets(self):
        """Seeded sweep over the shapes the bitset oracle must get right:
        range reads, blind writes, read-modify-writes of one key, >= 40 %
        abortees under an arbitrary split (so the committed set is often
        cyclic and the count must be 0), both chain orders. The
        serializability verdict rides the same builder, so it is pinned
        against the reference graph + DFS here too, and so is the closure
        itself, on blocks whose edges all point forward (one pass) and on
        blocks with a backward edge (the fixpoint)."""
        rng = random.Random(20230612)
        seen = {"cyclic": 0, "acyclic": 0, "real": 0, "false": 0, "forward": 0, "backward": 0}
        for _ in range(250):
            n = rng.randint(6, 20)
            keys = rng.randint(4, NUM_KEYS)
            txns = []
            for tid in range(1, n + 1):
                txn = Txn(tid=tid, block_id=0, spec=TxnSpec("ops"))
                for i in rng.sample(range(keys), rng.randint(0, 3)):
                    txn.read_set[_key(i)] = None
                    if rng.random() < 0.5:  # read-modify-write of the same key
                        txn.record_update(_key(i), AddValue(1))
                if rng.random() < 0.3:
                    start = rng.randrange(keys)
                    txn.read_ranges.append((_key(start), _key(start + rng.randint(0, 6))))
                for i in rng.sample(range(keys), rng.randint(0, 2)):  # blind writes
                    txn.record_update(_key(i), SetValue(tid))
                txn.min_out = rng.randint(1, tid + 1)  # any witness order
                txns.append(txn)
            aborted = set(rng.sample(range(n), rng.randint((2 * n + 4) // 5, n - 1)))
            for i, txn in enumerate(txns):
                if i in aborted:
                    txn.mark_aborted(AbortReason.WAW)
                else:
                    txn.mark_committed()
            committed = [t for t in txns if t.committed]
            for chain_order in (None, lambda t: t.tid):
                # the closure, one pass or to a fixpoint, against the DFS
                graph = CommittedGraph(txns, chain_order)
                assert graph.reach == reference.reachability(graph.txns)
                backward = any(r & ((1 << i) - 1) for i, r in enumerate(graph.reach))
                seen["backward" if backward else "forward"] += 1
                order = chain_order or (lambda t: (t.min_out, t.tid))
                cyclic = has_cycle(reference.block_dependency_graph(committed, order))
                assert (
                    SerializabilityOracle.committed_is_serializable(txns, chain_order)
                    is not cyclic
                )
                split = SerializabilityOracle.count_false_aborts(txns, chain_order)
                assert split == reference.false_aborts(txns, chain_order)
                fast = false_total(split)
                if cyclic:
                    assert fast == 0
                seen["cyclic" if cyclic else "acyclic"] += 1
                if not cyclic:
                    seen["false"] += fast
                    seen["real"] += len(aborted) - fast
        # the sweep really visits every regime it claims to
        assert all(seen.values()), seen


@st.composite
def decided_block(draw):
    """A validated block with mixed update commands, an arbitrary extra
    abort subset on top of the validator's own, and a base state with
    holes (keys the block updates but the store does not hold)."""
    txns = draw(txn_block())
    commands = st.one_of(
        st.integers(-5, 5).map(AddValue),
        st.integers(0, 3).map(MulValue),
        st.one_of(st.none(), st.integers(0, 99)).map(SetValue),
        st.just(DeleteValue()),
    )
    for txn in txns:
        for key in txn.updated_keys:
            txn.write_set[key] = draw(commands)
    HarmonyValidator(inter_block=draw(st.booleans())).validate(txns)
    for txn in txns:
        if not txn.aborted and draw(st.booleans()):
            txn.mark_aborted(AbortReason.CROSS_SHARD_ABORT)
    present = draw(st.sets(st.integers(0, NUM_KEYS - 1)))
    return txns, {_key(i): i * 10 for i in present}


class TestCommitPass:
    """The commit step reads Rule-2 order off the block's CommittedGraph
    and charges storage once per block; both must be indistinguishable
    from the per-key derivation and the per-key charges they replaced."""

    @given(decided_block(), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_apply_write_sets_equals_reference(self, decided, do_coalesce, scoped):
        txns, base = decided
        key_scope = (lambda key: key[1] % 2 == 0) if scoped else None
        cost_of = lambda key: 1.0 + key[1] / 8
        charged = []

        def commit_inputs(keys, charge=None):
            charge = keys if charge is None else charge
            charged.extend(charge)
            return [base.get(key) for key in keys], [cost_of(key) for key in charge]

        result = apply_write_sets(
            txns,
            commit_inputs,
            op_cpu_us=0.75,
            do_coalesce=do_coalesce,
            key_scope=key_scope,
        )
        writes, durations, chains, commit_cpu, expected_charges = (
            reference.reference_commit(
                txns, base, cost_of, 0.75, do_coalesce, key_scope
            )
        )
        assert result.ordered_writes == writes
        assert result.key_durations_us == durations
        assert result.chains == chains
        assert result.txn_commit_cpu_us == commit_cpu
        assert charged == expected_charges
        assert all(t.committed != t.aborted for t in txns)

    @given(
        st.lists(st.integers(0, 139), max_size=40),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_charge_equals_per_key_write_cost(self, picks, pool_pages):
        """Same costs, same pool/disk counters, same page allocation —
        keys 100.. are absent (inserted, in list order), repeats allowed;
        and the values are each key's latest version (tombstone -> None)."""
        keys = [_key(i) for i in picks]
        one, batch = (make_engine(100, pool_pages=pool_pages) for _ in range(2))
        for engine in (one, batch):
            engine.store.apply_block(0, [(_key(0), TOMBSTONE), (_key(1), None)])
        distinct = list(dict.fromkeys(keys))
        values, costs = batch.commit_inputs(distinct, keys)
        assert costs == [one.write_cost(key) for key in keys]
        assert batch.pool.stats == one.pool.stats
        assert batch.disk.stats == one.disk.stats
        assert list(batch.pool._frames.items()) == list(one.pool._frames.items())
        assert [batch.heap.page_of(k) for k in keys] == [one.heap.page_of(k) for k in keys]
        assert values == [one.store.get_latest(key)[0] for key in distinct]
        assert batch.commit_inputs(distinct)[1] == [
            one.write_cost(key) for key in distinct
        ]


def _ops_strategy():
    point = st.tuples(st.just("r"), st.integers(0, 31))
    add = st.tuples(st.just("add"), st.integers(0, 31), st.integers(1, 5))
    setv = st.tuples(st.just("set"), st.integers(0, 31), st.integers(0, 99))
    rmw = st.tuples(st.just("rmw"), st.integers(0, 31), st.integers(1, 5))
    scan = st.tuples(st.just("scan"), st.integers(0, 20), st.integers(21, 32))
    op = st.one_of(point, add, setv, rmw, scan)
    return st.lists(st.lists(op, min_size=1, max_size=4), min_size=2, max_size=8)


class TestAriaRangeCheck:
    @given(_ops_strategy())
    @settings(max_examples=40, deadline=None)
    def test_decisions_and_state_identical(self, op_lists):
        """Decisions against the full-table reservation scan; state against
        the survivors' commands applied to the block snapshot (their write
        sets are disjoint, so order cannot matter)."""
        engine = make_engine(num_keys=32)
        executor = AriaExecutor(engine, generic_registry())
        txns = make_txns(op_lists)
        executor.execute_block(0, txns)
        assert {t.tid: t.abort_reason for t in txns} == reference.aria_decisions(txns)
        assert all(t.committed != t.aborted for t in txns)
        expected = make_engine(num_keys=32).store
        expected.apply_block(
            0,
            [
                (key, apply_safely(command, expected.get_latest(key)[0]))
                for t in txns
                if t.committed
                for key, command in t.write_set.items()
            ],
        )
        assert engine.store.materialize() == expected.materialize()


class TestOverlayScan:
    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 99)), max_size=12),
        st.lists(st.integers(0, 40), max_size=6, unique=True),
        st.integers(0, 20),
        st.integers(0, 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_stream_merge_matches_dict_merge(self, writes, deletes, lo, span):
        store = MVStore()
        store.load({_key(i): i * 10 for i in range(0, 40, 2)})
        overlay = OverlayView(store.latest_snapshot(), block_id=0)
        for i, value in writes:
            overlay.put(_key(i), value)
        for i in deletes:
            overlay.put(_key(i), TOMBSTONE)
        start, end = _key(lo), _key(lo + span)
        assert list(overlay.scan(start, end)) == reference.overlay_scan(
            overlay, start, end
        )


_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, 1.0, -3.0, 2.5e15, 1e22])
    | st.text(max_size=6)
    | st.sampled_from(["it's", 'say "hi"', "a=b,c", "{x}"])
)
#: stored values as the workloads build them, and then some: scalars, flat
#: rows, nested rows, tuples (a row field may hold any of them)
_stored_values = st.recursive(
    _scalars | st.tuples(_scalars, _scalars),
    lambda inner: st.dictionaries(st.text("abcxyz_", min_size=1, max_size=4), inner, max_size=5),
    max_leaves=12,
)


class TestMVStoreFastPaths:
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=80, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_load_matches_insort_reference(self, key_ids):
        rng = random.Random(7)
        rng.shuffle(key_ids)
        items = {_key(i): i for i in key_ids}

        fast, slow = MVStore(), MVStore()
        fast.load(items)
        reference.load(slow, items)
        assert fast._sorted_keys == slow._sorted_keys
        assert fast._versions == slow._versions
        assert len(fast) == len(slow)
        assert fast.keys() == slow.keys()
        assert fast.state_hash() == reference.state_hash(slow)

    def test_shuffled_populate_builds_the_insort_directory(self):
        """The retired ``mvstore_load`` ledger case's checks, at a populate
        big enough for the one-sort directory to differ from a per-key
        ``insort`` if it could: same key directory, same state hash."""
        order = list(range(3_000))
        random.Random(20230608).shuffle(order)
        items = {_key(i): i for i in order}
        fast, slow = MVStore(), MVStore()
        fast.load(items)
        reference.load(slow, items)
        assert fast._sorted_keys == slow._sorted_keys == sorted(items)
        assert fast.state_hash() == reference.state_hash(slow)

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 30), st.integers(-1, 99)),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_incremental_state_hash_matches_full(self, blocks):
        store = MVStore()
        store.load({_key(i): i for i in range(0, 30, 3)})
        assert store.state_hash() == reference.state_hash(store)
        for block_id, writes in enumerate(blocks):
            ordered = [
                (_key(i), TOMBSTONE if value < 0 else value) for i, value in writes
            ]
            store.apply_block(block_id, ordered)
            assert store.state_hash() == reference.state_hash(store)

    @given(_stored_values)
    @settings(max_examples=300, deadline=None)
    def test_one_pass_encode_matches_recursive_definition(self, value):
        assert encode(value) == reference.encode(value)
        key = ("k", 3)
        assert _entry_digests([(key, value)]) == [reference.entry_digest(key, value)]

    def test_encode_corner_values(self):
        class Row(dict):
            pass

        class Money(float):
            pass

        cases = [
            (-0.0, "0"), (10.0, "10"), (1e16, "10000000000000000"), (0.5, "0.5"),
            (True, "True"), (None, "None"), ("a'b", '"a\'b"'), ((1, 2.0), "(1, 2.0)"),
            ({"b": 1.0, "a": {"z": -0.0, "y": False}}, "{a={y=False,z=0},b=1}"),
            (Row(q=2.0), "{q=2}"), (Money(3.0), "3"), ({}, "{}"),
        ]  # fmt: skip
        for value, text in cases:
            assert encode(value) == text == reference.encode(value)
        # equal field names with different texts: each row keeps its own
        for value, text in (({1: 2}, "{1=2}"), ({1.0: 2}, "{1.0=2}"), ({True: 2}, "{True=2}")):
            assert encode(value) == text == reference.encode(value)
        for value in (float("nan"), float("inf"), float("-inf")):
            assert encode(value) == repr(value) == reference.encode(value)
            assert encode({"f": value}) == reference.encode({"f": value})

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 12), st.none() | _stored_values),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=6,
        ),
        st.dictionaries(st.integers(0, 12), _stored_values, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_state_hash_matches_full_on_rich_values(self, blocks, shipped):
        """Mixed loads, applies, tombstones and a migration-style load into
        an applied block: the incremental accumulator (one reduction per
        call) never drifts from the from-scratch sum, and the hash is a
        function of the live content only."""
        store = MVStore()
        store.load({_key(i): {"id": i, "bal": float(i)} for i in range(0, 12, 2)})
        assert store.state_hash() == reference.state_hash(store)
        for block_id, writes in enumerate(blocks):
            store.apply_block(
                block_id,
                [(_key(i), TOMBSTONE if value is None else value) for i, value in writes],
            )
            if block_id % 2 == 0:  # odd blocks accumulate two blocks of stale keys
                assert store.state_hash() == reference.state_hash(store)
        store.load(
            {_key(i): value for i, value in shipped.items()},
            block_id=len(blocks) - 1,
            seq_start=1 << 20,
        )
        assert store.state_hash() == reference.state_hash(store)
        twin = MVStore()
        twin.load(store.materialize())
        assert twin.state_hash() == store.state_hash()

    def test_load_rejects_out_of_order_chain_append(self):
        """Re-loading an existing key after later blocks committed would
        break the block-sorted chain invariant both get() and scan()
        binary-search on — it must raise, not silently diverge, and before
        anything is stored: a fresh key ahead of it in the same shipment
        stays out too."""
        store = MVStore()
        store.load({_key(1): "genesis"})
        store.apply_block(0, [(_key(1), "b0")])
        store.apply_block(5, [(_key(1), "b5")])
        before = copy.deepcopy(vars(store))
        with pytest.raises(ValueError, match="would break"):
            store.load({_key(3): "ahead", _key(1): "late"})
        assert vars(store) == before
        assert store.get_latest(_key(3)) == (None, None)
        # Fresh keys are still fine: their one-version chains are sorted.
        store.load({_key(2): "new"})
        view = store.snapshot(4)
        assert view.get(_key(1))[0] == "b0"
        assert dict(view.scan(_key(0), _key(9))).get(_key(1)) == "b0"

    @given(
        st.lists(
            st.tuples(st.booleans(), st.lists(st.integers(0, 200), max_size=12, unique=True)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_key_merge_matches_insort_reference(self, batches):
        """Batches of fresh and known keys, by ``load`` or ``apply_block``,
        after a populate: the merged directory is the one a per-key
        ``insort`` builds."""
        fast, slow = MVStore(), MVStore()
        for block_id, (by_apply, ids) in enumerate(batches):
            items = {_key(i): block_id for i in ids}
            if by_apply and block_id:
                fast.apply_block(block_id, list(items.items()))
            else:
                fast.load(items, block_id=block_id)
            reference.load(slow, items, block_id=block_id)
            assert fast._sorted_keys == slow._sorted_keys
            assert fast._versions == slow._versions

    @pytest.mark.parametrize(
        "batch, directory",
        [
            ([2, 1], [1, 2, 10, 20, 30]),
            ([25, 15], [10, 15, 20, 25, 30]),
            ([40, 35], [10, 20, 30, 35, 40]),
            ([15], [10, 15, 20, 30]),
            ([50, 5, 25, 26], [5, 10, 20, 25, 26, 30, 50]),
        ],
        ids=["below", "between", "above", "single", "everywhere"],
    )
    def test_key_merge_places_each_batch(self, batch, directory):
        store = MVStore()
        store.load({10: 0, 20: 0, 30: 0})
        store.apply_block(0, [(key, 1) for key in batch])
        assert store._sorted_keys == directory
        slow = MVStore()
        reference.load(slow, {10: 0, 20: 0, 30: 0})
        reference.load(slow, dict.fromkeys(batch, 1), block_id=0)
        assert store._sorted_keys == slow._sorted_keys

    @pytest.mark.parametrize("batch", [["a", 5], ["a"]], ids=["mixed-batch", "against-directory"])
    def test_key_merge_of_incomparable_keys_raises(self, batch):
        store = MVStore()
        store.load({10: 0, 20: 0})
        with pytest.raises(TypeError):
            store.apply_block(0, [(key, 1) for key in batch])
        assert store._sorted_keys == [10, 20]

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("load"),
                    st.dictionaries(st.integers(0, 15), st.none() | st.integers(0, 9), max_size=6),
                ),
                st.tuples(
                    st.just("apply"),
                    st.lists(
                        st.tuples(st.integers(0, 15), st.none() | st.integers(0, 9)), max_size=5
                    ),
                ),
                st.tuples(st.just("hash"), st.none()),
            ),
            max_size=10,
        )
    )
    @example(ops=[("hash", None), ("load", _POPULATE), ("hash", None)])
    @example(ops=[("load", _POPULATE), ("load", _SHIPMENT), ("hash", None)])
    @example(
        ops=[
            ("hash", None),
            ("load", _POPULATE),
            ("load", _SHIPMENT),
            ("apply", [(0, None), (9, 9)]),
            ("hash", None),
        ]
    )
    @settings(max_examples=200, deadline=None)
    def test_state_hash_over_interleavings_matches_full(self, ops):
        """Loads (a populate, or a shipment into the newest block), applies
        and hashes in any order — a hash of the empty store before its bulk
        load, several loads before the first hash: every hash is the
        from-scratch sum."""
        store = MVStore()
        for op, arg in ops:
            if op == "load":
                store.load(
                    {_key(i): TOMBSTONE if v is None else v for i, v in arg.items()},
                    block_id=store.last_committed_block,
                    seq_start=1 << 20,
                )
            elif op == "apply":
                store.apply_block(
                    store.last_committed_block + 1,
                    [(_key(i), TOMBSTONE if v is None else v) for i, v in arg],
                )
            else:
                assert store.state_hash() == reference.state_hash(store)
        assert store.state_hash() == reference.state_hash(store)

    @given(st.integers(0, 35), st.integers(0, 35))
    @settings(max_examples=100, deadline=None)
    def test_snapshot_scan_matches_reference(self, lo, hi):
        store = MVStore()
        store.load({_key(i): i for i in range(0, 30, 2)})
        store.apply_block(0, [(_key(5), 50), (_key(6), TOMBSTONE)])
        store.apply_block(1, [(_key(6), 66), (_key(31), 310)])

        for block_id in (-1, 0, 1, 5):
            view = store.snapshot(block_id)
            assert list(view.scan(_key(lo), _key(hi))) == reference.scan(
                view, _key(lo), _key(hi)
            )


#: a row field's tricky values, for the first state-hash pass
_ROWS = [
    {"b": 1.0, "a": {"z": -0.0, "y": None}},
    {"a": {"y": None, "z": 0}, "b": 1},  # the same shapes, built the other way round
    {"f": float("nan"), "g": float("inf"), "h": 2.5},
    {"n": None, "s": "it's", "i": 10**20, "t": (1, 2.0)},
    {"only": True},
    {},
    7.0,
    "text",
    None,  # a stored None: no entry in the hash
    TOMBSTONE,
]


class TestOneLookupPath:
    """The long-transaction path's single lookups against ``tests/reference``:
    the C visibility bisection, the router's owner map, the one-pass block
    split and the batched first state hash."""

    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(
                    st.tuples(st.integers(0, 9), st.none() | st.just(-1) | st.integers(0, 9)),
                    max_size=5,
                ),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_visibility_search_matches_linear_walk(self, ops):
        """Applies and shipments (``MIGRATION_SEQ_BASE`` seqs into the newest
        block) with tombstones (-1) and stored ``None``: every snapshot from
        below the first version to past the last reads what a linear walk
        of the chain finds."""
        store = MVStore()
        store.load({_key(i): i for i in range(0, 10, 3)})
        for ship, writes in ops:
            writes = [(_key(i), TOMBSTONE if v == -1 else v) for i, v in writes]
            if ship:
                store.load(
                    dict(writes),
                    block_id=store.last_committed_block,
                    seq_start=MIGRATION_SEQ_BASE,
                )
            else:
                store.apply_block(store.last_committed_block + 1, writes)
        for block_id in range(-3, store.last_committed_block + 2):
            view = store.snapshot(block_id)
            for i in range(11):
                chain = store._versions.get(_key(i), [])
                assert _visible_at(chain, block_id) == reference.visible_at(chain, block_id)
                assert view.get(_key(i)) == reference.snapshot_get(view, _key(i))
            assert list(view.scan(_key(0), _key(11))) == reference.scan(
                view, _key(0), _key(11)
            )
            assert store.materialize_at(block_id) == reference.materialize_at(store, block_id)

    @given(
        st.integers(2, 4),
        st.booleans(),
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3)), max_size=4),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_owner_map_matches_static_policy_and_overrides(
        self, num_shards, by_index, migrations
    ):
        """``shard_of`` at every cursor height, ``shard_of_at``, ``route_block``,
        the executors' ``key_scope`` and a ``FederatedSnapshot`` at ``h``
        (routing by the owner at ``h + 1``) all name the owner derived from
        scratch, with half the keys' static owners remembered before the
        first migration. Keys outside the index space take the hash."""

        def index_fn(key):
            return key[1] if key[0] == "k" else None

        router = ShardRouter(
            num_shards,
            policy="workload" if by_index else "hash",
            index_fn=index_fn if by_index else None,
            index_space=40 if by_index else None,
        )
        keys = [("k", i) for i in range(0, 40, 3)] + [("x", i) for i in range(3)]

        class Keys(Workload):
            name = "keys"

            def spec_keys(self, spec):
                return keys

        for key in keys[::2]:
            router.shard_of(key)
        stores = []
        for shard in range(num_shards):
            stores.append(MVStore())
            stores[shard].load(dict.fromkeys(keys, shard))  # a read names its shard
        executor = SimpleNamespace(snapshot_source=None, key_scope=None)
        wire_federation(executor, router, stores, 0)
        installed, height = [], 1
        for epoch, (gap, moves) in enumerate(migrations, 1):
            height += gap
            moves = tuple((keys[i], shard % num_shards) for i, shard in moves)
            router.apply_migration(MigrationRecord(height, epoch, moves=moves))
            installed.append((height, moves))

        def owner(key, at):
            return reference.owner_at(
                key, num_shards, installed, at, index_fn if by_index else None, 40
            )

        for at in range(height + 2):
            router.advance_to(at)
            expected = [(key, owner(key, at)) for key in keys]
            assert [(key, router.shard_of(key)) for key in keys] == expected
            assert [(key, router.shard_of_at(key, at)) for key in keys] == expected
            assert router.route_block(Keys(), [TxnSpec("keys")], 0, pairs=True).routed == [
                expected
            ]
            assert [executor.key_scope(key) for key in keys] == [o == 0 for _k, o in expected]
            snapshot = FederatedSnapshot(router, stores, at)
            assert [snapshot.get(key)[0] for key in keys] == [owner(key, at + 1) for key in keys]

    @given(
        st.integers(1, 4),
        st.lists(
            st.lists(st.frozensets(st.integers(0, 3), min_size=1), max_size=8), max_size=4
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_pass_split_matches_per_shard_filter(self, num_shards, blocks):
        """Every shard's sub-block holds the specs and global TIDs a
        per-shard filter of the block finds, in block order, hash-chained
        onto that shard's previous sub-block."""
        ordering, sequencer = OrderingService(), ShardSequencer(num_shards)
        tails = [GENESIS_HASH] * num_shards
        for assignments in blocks:
            participants = [
                frozenset(shard % num_shards for shard in parts) for parts in assignments
            ]
            specs = [TxnSpec("p", (("i", i),)) for i in range(len(participants))]
            block = ordering.form_block(specs)
            cuts = BlockRoute(participants, block.specs, block.first_tid, num_shards).cuts
            reference_cuts = reference.split(block, participants, num_shards)
            assert [(tuple(s), tuple(t)) for s, t in cuts] == reference_cuts
            subs = sequencer.split(block, cuts)
            assert sorted(subs) == list(range(num_shards))
            for shard, (specs, tids) in enumerate(reference_cuts):
                sub = subs[shard]
                assert sub.specs == specs
                assert [sub.tid_of(i) for i in range(len(specs))] == list(tids)
                if num_shards > 1:
                    assert sub.prev_hash == tails[shard]
                    assert sub.first_tid == (tids[0] if tids else block.first_tid)
                    tails[shard] = sub.hash

    @pytest.mark.parametrize("batch", [1, 2, 5, None], ids=["1", "2", "5", "default"])
    def test_batched_first_hash_matches_reference(self, monkeypatch, batch):
        """The first pass, cut into batches of every size around the row
        count, hashes nested rows, ``None`` fields, integral floats, ``nan``
        and one shape built in two field orders as the recursive text
        does; stored ``None`` and TOMBSTONE entries count for nothing. The
        incremental pass after it agrees too."""
        if batch is not None:
            monkeypatch.setattr(mvstore, "_HASH_BATCH", batch)
        store = MVStore()
        store.load({_key(i): value for i, value in enumerate(_ROWS)})
        assert store.state_hash() == reference.state_hash(store)
        store.apply_block(0, [(_key(0), TOMBSTONE), (_key(8), {"b": 2.0, "a": None})])
        assert store.state_hash() == reference.state_hash(store)


_AFFINITIES = {
    "none": None,
    "1": ShardAffinity(1),
    "4x0.1": ShardAffinity(4, 0.1),
    "4x1.0": ShardAffinity(4, 1.0),
}


class _OnlyPayments(SmallbankWorkload):
    """A mix fixed by overriding ``_pick_proc`` (as a test may): the
    generator must still ask the method for every procedure."""

    def _pick_proc(self, rng):
        return "sb_send_payment" if rng.random() < 0.5 else "sb_amalgamate"


#: tie-heavy schedule inputs: equal and zero (both signs) durations and
#: arrivals, so a start equals a core's free time and a finish the block's
#: running maximum; the texts compare -0.0 and 0.0 apart
_TIED = st.sampled_from([0.0, -0.0, 1.0, 2.0])


@st.composite
def tied_stream(draw):
    return [
        BlockTiming(
            arrival_us=draw(_TIED),
            sim_durations=draw(st.lists(_TIED, max_size=8)),
            commit_durations=draw(st.lists(_TIED, max_size=8)),
            serial_commit=draw(st.booleans()),
            pre_exec_serial_us=draw(_TIED),
            post_commit_serial_us=draw(_TIED),
        )
        for _ in range(draw(st.integers(0, 5)))
    ]


def _texts(values) -> list[str]:
    return [repr(v) for v in values]


class TestShortTransactionPath:
    """The short-transaction path's flattened steps against
    ``tests/reference``: the one-body SmallBank spec draw, the one-frame
    pool miss, the direct status reads, the task loop's comparisons in
    place of ``max`` and the first hash's inline scalar texts."""

    @pytest.mark.parametrize("num_accounts", [10, 50, 10_000])
    @pytest.mark.parametrize("affinity", list(_AFFINITIES), ids=list(_AFFINITIES))
    def test_smallbank_draw_matches_per_call_reference(self, affinity, num_accounts):
        """Equal specs (texts included) and an equal stream state after
        every block: a generator that drew the same values a different
        number of times fails the state check."""
        for cls in (SmallbankWorkload, _OnlyPayments):
            workload = cls(num_accounts=num_accounts, affinity=_AFFINITIES[affinity])
            for seed in (1, 7, 23):
                ours, theirs = SeededRng(seed, "gen"), SeededRng(seed, "gen")
                for size in (0, 1, 40, 120):
                    specs = workload.generate_block(size, ours)
                    expected = reference.smallbank_block(workload, size, theirs)
                    assert specs == expected
                    assert [s.canonical for s in specs] == [s.canonical for s in expected]
                    assert ours._random.getstate() == theirs._random.getstate()

    def test_zipf_distinct_matches_sample_loop(self):
        zipf = ZipfGenerator(30, 0.99)
        ours, theirs = SeededRng(5, "zipf"), SeededRng(5, "zipf")
        for k in (0, 1, 5, 30):
            assert zipf.sample_distinct(ours, k) == reference.zipf_distinct(zipf, theirs, k)
            assert ours._random.getstate() == theirs._random.getstate()

    @pytest.mark.parametrize("capacity", [1, 2, 7])
    def test_pool_miss_matches_step_by_step_reference(self, capacity):
        """Random page streams with dirty mixes through ``access``,
        ``write_pages`` and ``HeapFile.access``: the same costs, both
        stats objects and the frame order."""
        rng = random.Random(capacity)
        engines = [make_engine(200, pool_pages=capacity) for _ in range(2)]
        ours, theirs = engines
        for _ in range(300):
            op = rng.randrange(3)
            if op == 0:
                page, dirty = rng.randrange(12), rng.random() < 0.4
                assert ours.pool.access(page, dirty) == reference.pool_access(
                    theirs.pool, page, dirty
                )
            elif op == 1:
                pages = [rng.randrange(12) for _ in range(rng.randrange(6))]
                assert ours.pool.write_pages(pages) == [
                    reference.pool_access(theirs.pool, page, True) for page in pages
                ]
            else:
                key, write = _key(rng.randrange(260)), rng.random() < 0.4
                assert ours.heap.access(key, write) == reference.heap_access(
                    theirs.heap, key, write
                )
            assert ours.pool.stats == theirs.pool.stats
            assert ours.disk.stats == theirs.disk.stats
            assert list(ours.pool._frames.items()) == list(theirs.pool._frames.items())
        assert ours.pool.stats.evictions and ours.pool.stats.dirty_writebacks

    @given(st.lists(st.sampled_from(list(TxnStatus)), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_status_reads_match_the_properties(self, statuses):
        """The block fold, the decision text, the executor's stats, the
        commit step's survivors and the oracle's abortees read ``status``
        directly; the properties give the same answers."""
        txns = make_txns([[("w", i)] for i in range(len(statuses))], block_id=3)
        for txn, status in zip(txns, statuses):
            txn.status = status
        committed = sum(t.committed for t in txns)
        aborted = sum(t.aborted for t in txns)
        accounts = RunAccounts("harmony", "ops")
        stats = accounts.absorb(3, txns, [], arrival_us=0.0)
        assert accounts.decision_parts == [reference.decision_part(3, txns)]
        assert (stats.committed, stats.aborted) == (committed, aborted)
        assert accounts.retry_queue == [t.spec for t in txns if t.aborted]
        made = AriaExecutor(make_engine(4), generic_registry()).make_stats(3, txns)
        assert (made.committed, made.aborted) == (committed, aborted)
        graph = commit_survivors(txns)
        assert [t.committed for t in txns] == [not t.aborted for t in txns]
        assert graph.txns == [t for t in txns if t.committed]
        assert SerializabilityOracle.count_false_aborts(txns) == reference.false_aborts(txns)

    @given(tied_stream(), st.integers(1, 3), st.booleans(), st.integers(1, 2))
    @settings(max_examples=300, deadline=None)
    # a start at -0.0 ends at 0.0, a tie with the running finish of -0.0
    # that max keeps: once in the simulation step, once in the commit step
    @example([BlockTiming(-0.0, [0.0], [], False, -0.0, -0.0)], 1, False, 1)
    @example([BlockTiming(-0.0, [], [0.0], False, -0.0, -0.0)], 1, False, 1)
    def test_task_comparisons_keep_max_operand_on_ties(
        self, blocks, cores, inter_block, lag
    ):
        result = PipelineSimulator(cores, inter_block, lag).simulate(blocks)
        expected = reference.pipeline_schedule(blocks, cores, inter_block, lag)
        assert _texts(result.sim_start_us) == _texts(expected.sim_start_us)
        assert _texts(result.commit_finish_us) == _texts(expected.commit_finish_us)
        assert repr(result.busy_core_us) == repr(expected.busy_core_us)
        assert repr(result.makespan_us) == repr(expected.makespan_us)

    def test_first_hash_scalar_texts(self):
        """Exact ints and integral floats are written inline; ``bool``,
        non-integral floats, ``nan``, ``inf`` and rows go through
        ``encode``: every text is the reference's."""
        class Money(float):
            pass

        values = [
            0, -7, 10**30, -(10**40), True, False, 0.0, -0.0, 10.0, -3.0, 1e22,
            2.0**70, 0.5, -1e-300, float("nan"), float("inf"), float("-inf"),
            Money(3.0), Money(0.25), {"bal": 2.0, "n": None}, ("a", 1.0), "s",
        ]  # fmt: skip
        entries = [(_key(i), value) for i, value in enumerate(values)]
        assert _entry_digests(entries) == [
            reference.entry_digest(key, value) for key, value in entries
        ]


def _mixed_overlay() -> OverlayView:
    store = MVStore()
    store.load({_key(i): i for i in range(4)})
    overlay = OverlayView(store.latest_snapshot(), block_id=0)
    overlay.put(("k", "x"), 1)
    return overlay


def _mixed_history() -> HistoryOracle:
    writers = []
    for tid, key in ((1, ("k", 5)), (2, ("k", "s"))):
        txn = Txn(tid=tid, block_id=0, spec=TxnSpec("ops"))
        txn.record_update(key, AddValue(1))
        txn.mark_committed()
        writers.append(txn)
    oracle = HistoryOracle()
    oracle.record_block(0, writers, [(("k", 5), [1]), (("k", "s"), [2])])
    return oracle


class TestIntervalPrimitives:
    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=10),
        st.integers(-2, 32),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_index_stab_matches_linear(self, ranges, probe):
        index = RangeIndex()
        for i, (start, span) in enumerate(ranges):
            index.add(start, start + span, i)
        expected = [
            i for i, (start, span) in enumerate(ranges) if covers(start, start + span, probe)
        ]
        assert list(index.stab(probe)) == expected

    @given(
        st.lists(st.integers(0, 50), max_size=20),
        st.integers(-2, 52),
        st.integers(0, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_sorted_keys_slice_matches_linear(self, keys, start, span):
        index = SortedKeys(keys)
        end = start + span
        assert sorted(index.in_range(start, end)) == sorted(
            {k for k in keys if covers(start, end, k)}
        )

    def test_extend_deduplicates(self):
        """Re-adding known keys never yields duplicate slice hits."""
        keys = SortedKeys([1, 2])
        keys.extend([2, 3, 3])
        assert keys.in_range(0, 5) == [1, 2, 3]
        keys.extend([1, 3])
        assert keys.in_range(0, 5) == [1, 2, 3]
        assert len(keys) == 3

    @pytest.mark.parametrize(
        "probe",
        [
            lambda: covers(0, 10, "m"),
            lambda: SortedKeys([1, 2]).in_range("a", "z"),
            lambda: RangeIndex([(0, 10, "ints"), ("a", "z", "strs")]).stab(5),
            lambda: list(_mixed_overlay().scan(_key(0), _key(9))),
            lambda: _mixed_history().build_graph(),
        ],
        ids=[
            "covers",
            "SortedKeys.in_range",
            "RangeIndex.stab",
            "OverlayView.scan",
            "HistoryOracle.build_graph",
        ],
    )
    def test_mixed_type_keys_raise(self, probe):
        """Keys are totally ordered: a population that mixes ``("k", int)``
        and ``("k", str)`` keys is an error, never quietly uncovered."""
        with pytest.raises(TypeError):
            probe()

    def test_inverted_and_empty_ranges_cover_nothing(self):
        index = RangeIndex([(5, 5, "empty"), (9, 2, "inverted"), (0, 3, "ok")])
        assert list(index.stab(5)) == []
        assert list(index.stab(1)) == ["ok"]

    def test_dense_overlap_falls_back_without_blowup(self):
        """A staircase of mutually-overlapping ranges must not materialize
        O(n²) segment slots — the build bails to linear stabs instead."""
        n = 600
        index = RangeIndex([(i, i + n, i) for i in range(n)])
        assert list(index.stab(n)) == list(range(1, n))
        assert not index._segmented
        assert index._segments == []


@pytest.mark.perf
def test_perf_smoke_trajectory(tmp_path):
    """End-to-end perf harness smoke: runs in seconds, all checks pass,
    every scaling guard reports its growth under its bound, and the
    trajectory file accumulates runs."""
    from repro.bench.perf import SCALING_GUARDS, run_perf

    out = tmp_path / "BENCH_perf.json"
    run = run_perf(smoke=True, out_path=str(out))
    assert run["all_checks_pass"]
    guards = [case for case in run["cases"] if case.get("kind") == "scaling"]
    assert [case["case"] for case in guards] == [row[0] for row in SCALING_GUARDS]
    for case in guards:
        assert 0 < case["time_n_s"] and 0 < case["growth"] <= case["bound"]
    for case in run["cases"]:
        assert case in guards or case["indexed_s"] >= 0
    run_perf(smoke=True, out_path=str(out))
    import json

    trajectory = json.loads(out.read_text())
    assert len(trajectory["runs"]) == 2
