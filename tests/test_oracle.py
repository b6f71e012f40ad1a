"""Tests for the serializability oracle, cross-checked against networkx."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.dcc.oracle import (
    HistoryOracle,
    SerializabilityOracle,
    false_total,
    find_cycle,
    has_cycle,
)
from repro.txn.commands import AddValue
from repro.txn.transaction import AbortReason, Txn, TxnSpec

from tests.reference import block_dependency_graph


def txn_with(tid, reads=(), writes=(), committed=True):
    txn = Txn(tid=tid, block_id=0, spec=TxnSpec("ops"))
    for key in reads:
        txn.read_set[key] = None
    for key in writes:
        txn.record_update(key, AddValue(1))
    if committed:
        txn.mark_committed()
    else:
        txn.mark_aborted(AbortReason.WAW)
    return txn


@st.composite
def adjacency(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    adj = {}
    for node in range(n):
        targets = draw(
            st.lists(st.integers(0, n - 1), max_size=4, unique=True)
        )
        adj[node] = {t for t in targets if t != node or draw(st.booleans())}
    return adj


class TestCycleDetection:
    def test_simple_cycle(self):
        assert has_cycle({1: {2}, 2: {3}, 3: {1}})

    def test_dag(self):
        assert not has_cycle({1: {2, 3}, 2: {3}, 3: set()})

    def test_self_loop(self):
        assert has_cycle({1: {1}})

    def test_empty(self):
        assert not has_cycle({})

    @given(adjacency())
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx(self, adj):
        graph = nx.DiGraph()
        graph.add_nodes_from(adj)
        for node, targets in adj.items():
            for target in targets:
                graph.add_edge(node, target)
        expected = not nx.is_directed_acyclic_graph(graph)
        assert has_cycle(adj) == expected
        cycle = find_cycle(adj)
        if cycle is not None:  # a real cycle of the graph, each node once
            assert len(set(cycle)) == len(cycle)
            assert all(graph.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


class TestBlockGraph:
    def test_reader_precedes_writer(self):
        reader = txn_with(1, reads=["x"])
        writer = txn_with(2, writes=["x"])
        graph = block_dependency_graph([reader, writer])
        assert 2 in graph[1]
        assert 1 not in graph[2]

    def test_updater_chain_follows_order(self):
        a = txn_with(1, writes=["x"])
        b = txn_with(2, writes=["x"])
        a.min_out, b.min_out = 5, 3  # Rule-2 order puts b first
        graph = block_dependency_graph([a, b])
        assert 1 in graph[2] and 2 not in graph[1]

    def test_range_reader_gets_edges(self):
        reader = txn_with(1)
        reader.read_ranges.append((("k", 0), ("k", 9)))
        writer = txn_with(2, writes=[("k", 5)])
        graph = block_dependency_graph([reader, writer])
        assert 2 in graph[1]


class TestFalseAborts:
    def test_harmless_abort_is_false(self):
        committed = txn_with(1, writes=["x"])
        aborted = txn_with(2, reads=["y"], committed=False)
        assert SerializabilityOracle.count_false_aborts([committed, aborted]) == {
            (AbortReason.WAW, 0): [1, 1]
        }

    def test_cycle_closing_abort_is_real(self):
        t1 = txn_with(1, reads=["y"], writes=["x"])
        t2 = txn_with(2, reads=["x"], writes=["y"], committed=False)
        t1.min_out, t2.min_out = 2, 1
        assert SerializabilityOracle.count_false_aborts([t1, t2]) == {
            (AbortReason.WAW, 0): [1, 0]
        }

    def test_committed_only_blocks_have_no_false_aborts(self):
        txns = [txn_with(i, writes=[f"k{i}"]) for i in range(1, 4)]
        assert SerializabilityOracle.count_false_aborts(txns) == {}


class TestHistoryOracle:
    def test_clean_history_serializable(self):
        oracle = HistoryOracle()
        t1 = txn_with(1, writes=["x"])
        oracle.record_block(0, [t1], [("x", [1])], snapshot_block_id=-1)
        t2 = txn_with(2, reads=["x"])
        t2.read_set["x"] = (0, 0)  # observed block 0's write
        oracle.record_block(1, [t2], [], snapshot_block_id=0)
        assert oracle.is_serializable()

    def test_cross_block_cycle_detected(self):
        oracle = HistoryOracle()
        # T1 (block 0) reads k1 before-image; T2 (block 1) writes k1 and
        # reads k0's before-image of T1's write -> cycle
        t1 = txn_with(1, reads=["k1"], writes=["k0"])
        oracle.record_block(0, [t1], [("k0", [1])], snapshot_block_id=-1)
        t2 = txn_with(2, reads=["k0"], writes=["k1"])
        t2.read_set["k0"] = None  # stale: lag-2 snapshot
        oracle.record_block(1, [t2], [("k1", [2])], snapshot_block_id=-1)
        assert not oracle.is_serializable()

    def test_aborted_txns_ignored(self):
        oracle = HistoryOracle()
        t1 = txn_with(1, writes=["x"], committed=False)
        oracle.record_block(0, [t1], [("x", [1])], snapshot_block_id=-1)
        assert oracle.is_serializable()
        assert oracle.build_graph() == {}


#: the abort reasons each scheme's validator can give (its run's split keys)
SCHEME_REASONS = {
    "serial": set(),
    "aria": {AbortReason.WAW, AbortReason.RAW},
    "rbc": {AbortReason.WAW, AbortReason.SSI_DANGEROUS_STRUCTURE},
    "harmony": {AbortReason.BACKWARD_DANGEROUS_STRUCTURE, AbortReason.INTER_BLOCK_STRUCTURE},
    "fabric": {AbortReason.STALE_READ, AbortReason.ENDORSEMENT_MISMATCH},
    "fastfabric": {
        AbortReason.STALE_READ,
        AbortReason.ENDORSEMENT_MISMATCH,
        AbortReason.GRAPH_CYCLE,
        AbortReason.GRAPH_OVERFLOW,
    },
}


@pytest.mark.parametrize("system", sorted(SCHEME_REASONS))
def test_every_scheme_splits_its_false_aborts_by_reason(system):
    """The run's one false-abort count comes split by abort reason for all
    six schemes: every abort once, under a reason its validator gives, and
    the false counts sum to ``false_aborts``."""
    from repro.bench.experiments import run_any

    metrics = run_any(system, "ycsb", skew=0.9)
    split = metrics.abort_split
    assert sum(aborts for aborts, _false in split.values()) == metrics.aborted
    assert false_total(split) == metrics.false_aborts
    assert {reason for reason, _shard in split} <= SCHEME_REASONS[system]
    assert {shard for _reason, shard in split} <= {0}
    assert all(0 <= false <= aborts for aborts, false in split.values())
    if system != "serial":
        assert metrics.aborted > 0
