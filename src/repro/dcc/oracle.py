"""Exact serializability checking — the measurement oracle.

Two uses:

1. **False-abort accounting** (Figure 13). An abort of ``T`` is *false*
   iff the dependency graph induced by (committed ∪ {T}) is acyclic — i.e.
   a scheduler with perfect information (and command reordering) could have
   committed ``T``. This is protocol-agnostic: it measures the workload's
   inherent conflicts against what the protocol actually aborted.

2. **Test oracle.** Every protocol's committed set must induce an acyclic
   dependency graph (serializability), both within a block and across
   blocks under inter-block parallelism (:class:`HistoryOracle`).

Graph construction (multi-version semantics):

- per key, committed updaters form a chain in apply order (Rule 2 order for
  Harmony; TID/commit order for the value-based baselines) — ww/wr edges;
- a snapshot reader of a key precedes every updater whose write it did not
  observe (rw anti-dependency), and follows every updater whose write it
  did observe (wr);
- range reads contribute the same edges for every key they cover.

The per-block graph is :class:`~repro.core.dependencies.CommittedGraph`:
the committed set's graph built once per block as reachability bitsets;
the serializability verdict is "no position reaches itself" and each
abortee is answered by masking its out-neighbours' reach against its
in-neighbours — no per-abortee copy, overlay or traversal. The adjacency
dict rebuilt per question that it replaced (``block_dependency_graph``) is
a test reference now (``tests/reference``); :func:`find_cycle` (an
iterative three-colour DFS, no recursion limits) stays here for the
cross-block :class:`HistoryOracle` and FastFabric#'s orderer, and the test
suite cross-checks it against :mod:`networkx` and the bitset path against
the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dependencies import CommittedGraph
from repro.intervals import SortedKeys
from repro.txn.transaction import Txn, TxnStatus


def find_cycle(adjacency: dict[int, set[int]]) -> list[int] | None:
    """One cycle (as a node list) or ``None``: an iterative three-colour
    DFS over roots and edges in sorted order (no recursion limit), one
    edge iterator per node on the stack. FastFabric#'s orderer breaks the
    cycles it returns, so the order is part of its decisions."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = dict.fromkeys(adjacency, WHITE)
    for root in sorted(adjacency):
        if colour[root] != WHITE:
            continue
        colour[root] = GREY
        stack = [(root, iter(sorted(adjacency[root])))]
        while stack:
            node, edges = stack[-1]
            for nxt in edges:
                state = colour.get(nxt, WHITE)
                if state == GREY:
                    path = [entry[0] for entry in stack]
                    return path[path.index(nxt):]
                if state == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, iter(sorted(adjacency.get(nxt, ())))))
                    break
            else:
                colour[node] = BLACK
                stack.pop()
    return None


def has_cycle(adjacency: dict[int, set[int]]) -> bool:
    return find_cycle(adjacency) is not None


def applies_in_order(txns) -> list[tuple]:
    """Per-key ``(key, tids)`` apply chains of the committed transactions,
    in list order — how a value-based scheme that reads the pre-block
    snapshot applies its writes."""
    chains: dict = {}
    for txn in txns:
        if txn.committed:
            for key in txn.write_set:
                chains.setdefault(key, []).append(txn.tid)
    return list(chains.items())


def false_total(split: dict) -> int:
    """The false aborts of a :meth:`SerializabilityOracle.count_false_aborts`
    split, over every reason and shard."""
    return sum([false for _aborts, false in split.values()])


class SerializabilityOracle:
    """Per-block serializability checks and false-abort accounting."""

    @staticmethod
    def committed_is_serializable(txns: list[Txn], chain_order=None) -> bool:
        return not CommittedGraph(txns, chain_order).cyclic

    @staticmethod
    def count_false_aborts(
        txns: list[Txn],
        chain_order=None,
        graph: CommittedGraph | None = None,
        participants=None,
    ) -> dict:
        """Aborts that perfect intra-block scheduling could have avoided,
        split by why each abortee was aborted: ``(reason, shard) ->
        [aborts, false aborts]``, ``reason`` the abortee's
        :class:`~repro.txn.transaction.AbortReason` and ``shard`` its
        coordinator, the lowest of ``participants[j]`` for the abortee at
        position ``j`` (0 without ``participants``). The false counts sum
        to the block's false aborts.

        Each abortee is answered from the bitsets of the block's
        :class:`~repro.core.dependencies.CommittedGraph` — ``graph`` when
        the caller holds the one the commit step built over these very
        ``txns`` in ``chain_order``, else built here — O(edges + sum of
        abortee footprints) per block, nothing copied or re-traversed per
        abortee. A cyclic committed set makes every hypothetical graph
        cyclic, so it counts no false aborts.
        """
        aborted = TxnStatus.ABORTED
        abortees = [j for j, txn in enumerate(txns) if txn.status is aborted]
        if not abortees:
            return {}
        if graph is None:
            graph = CommittedGraph(txns, chain_order)
        judged = not graph.cyclic
        split: dict = {}
        for j in abortees:
            txn = txns[j]
            key = (txn.abort_reason, 0 if participants is None else min(participants[j]))
            entry = split.get(key)
            if entry is None:
                entry = split[key] = [0, 0]
            entry[0] += 1
            if judged and not graph.closes_cycle(txn):
                entry[1] += 1
        return split


@dataclass
class _WritePosition:
    """Where a committed write landed: (block, position-in-key-chain)."""

    block_id: int
    chain_pos: int
    tid: int


@dataclass
class HistoryOracle:
    """Serializability across blocks (the inter-block-parallelism check).

    Executors feed each block's committed transactions plus the per-key
    apply chains; the oracle rebuilds the full multi-version dependency
    graph of the history and checks it for cycles.

    Each range read is resolved by slicing a
    :class:`~repro.intervals.SortedKeys` index over the write-chain keys
    (two bisects + the covered keys), and the per-key ww/wr chain edges are
    memoized across :meth:`build_graph` calls. Read edges are *not* cached —
    a chain growing in a later block retroactively adds edges for old
    readers, so they are re-derived from every recorded read each call
    (each a stab instead of a full-chain scan).
    """

    _read_facts: dict[int, dict] = field(default_factory=dict)
    _range_facts: dict[int, list] = field(default_factory=dict)
    _snapshot_block: dict[int, int] = field(default_factory=dict)
    _chains: dict[object, list] = field(default_factory=dict)
    _tids: list[int] = field(default_factory=list)
    #: caches (valid only while the recorded facts grow append-only,
    #: which record_block guarantees)
    _key_index: SortedKeys | None = field(default=None, repr=False, compare=False)
    _chain_edges: list = field(default_factory=list, repr=False, compare=False)
    _chain_folded: dict = field(default_factory=dict, repr=False, compare=False)

    def record_block(
        self,
        block_id: int,
        txns: list[Txn],
        apply_chains,
        snapshot_block_id: int | None = None,
    ) -> None:
        """Record one block: its committed transactions' reads and, from
        ``apply_chains`` (``(key, tids)`` pairs, tids in apply order), the
        per-key write chains."""
        snap = snapshot_block_id if snapshot_block_id is not None else block_id - 1
        committed = {t.tid for t in txns if t.committed}
        for txn in txns:
            if txn.tid not in committed:
                continue
            self._tids.append(txn.tid)
            self._read_facts[txn.tid] = dict(txn.read_set)
            self._range_facts[txn.tid] = list(txn.read_ranges)
            self._snapshot_block[txn.tid] = snap
        new_keys = []
        for key, tids in apply_chains:
            chain = self._chains.get(key)
            if chain is None:
                chain = self._chains[key] = []
                new_keys.append(key)
            ordered = [tid for tid in tids if tid in committed]
            for pos, tid in enumerate(ordered):
                chain.append(_WritePosition(block_id, pos, tid))
        if new_keys and self._key_index is not None:
            self._key_index.extend(new_keys)

    def record_decided(self, block_id: int, txns: list[Txn], executions: dict) -> None:
        """Record one decided block: ``txns`` holds one record per
        transaction in TID order (a chain's merged view), ``executions``
        maps shard to its :class:`~repro.execution.BlockExecution`. An
        execution that recorded its snapshot (Harmony) carries its own apply
        chains, Rule 2's order; every other scheme applied in TID order
        against the block before."""
        first = executions[min(executions)]
        if first.snapshot_block_id is None:
            self.record_block(block_id, txns, applies_in_order(txns))
            return
        apply_chains = [
            item for shard in sorted(executions) for item in executions[shard].apply_chains
        ]
        self.record_block(block_id, txns, apply_chains, first.snapshot_block_id)

    def _add_read_edges(
        self,
        adjacency: dict[int, set[int]],
        tid: int,
        key: object,
        read_block: int,
    ) -> None:
        chain = self._chains.get(key)
        if not chain:
            return
        for write in chain:
            if write.tid == tid:
                continue
            if write.block_id > read_block:
                adjacency[tid].add(write.tid)  # rw: read the before-image
            else:
                adjacency[write.tid].add(tid)  # wr: observed the write

    def _fold_chain_edges(self) -> list:
        """Extend the memoized ww/wr chain-edge list with entries appended
        since the previous :meth:`build_graph` call (chains are append-only,
        so already-folded pairs never change)."""
        edges = self._chain_edges
        folded = self._chain_folded
        for key, chain in self._chains.items():
            done = folded.get(key, 0)
            n = len(chain)
            if done == n:
                continue
            for i in range(done - 1 if done else 0, n - 1):
                earlier, later = chain[i], chain[i + 1]
                if earlier.tid != later.tid:
                    edges.append((earlier.tid, later.tid))
            folded[key] = n
        return edges

    def build_graph(self) -> dict[int, set[int]]:
        adjacency: dict[int, set[int]] = {tid: set() for tid in self._tids}

        # ww/wr chains per key, across blocks (memoized across calls).
        for earlier_tid, later_tid in self._fold_chain_edges():
            adjacency[earlier_tid].add(later_tid)

        if self._key_index is None:
            self._key_index = SortedKeys(self._chains)
        key_index = self._key_index

        # read edges: version/snapshot comparison decides before vs after.
        for tid in self._tids:
            snap = self._snapshot_block.get(tid, -1)
            reads = self._read_facts.get(tid, {})
            for key, version in reads.items():
                read_block = version[0] if version is not None else snap
                self._add_read_edges(adjacency, tid, key, read_block)
            for start, end in self._range_facts.get(tid, []):
                # stab the chain-key directory instead of scanning it
                for key in key_index.in_range(start, end):
                    if key not in reads:
                        self._add_read_edges(adjacency, tid, key, snap)
        return adjacency

    def is_serializable(self) -> bool:
        return not has_cycle(self.build_graph())
