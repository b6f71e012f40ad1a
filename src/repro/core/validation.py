"""Abort-minimizing validation: Rule 1 (Algorithm 1) and Rule 3.

Rule 1 — a transaction ``Tj`` aborts iff it sits in a *backward dangerous
structure* ``Ti <--rw-- Tj <--rw-- Tk`` with ``i < j`` and ``i <= k``.
Algorithm 1 folds the rw-subgraph into two counters per transaction:

- ``min_out``: the minimal TID that ``Tj`` rw-points to (init ``j + 1``);
- ``max_in``: the maximal TID that rw-points to ``Tj`` (init ``-inf``);

and aborts ``Tj`` when ``min_out < j and min_out <= max_in`` — an O(edges)
check with no graph traversal and no cross-thread coordination.

Rule 3 — with inter-block parallelism, block *i* simulates against the
snapshot of block *i−2*, so a committed writer in block *i−1* can induce an
*inter-block* rw edge. The generalized structure is resolved with a
deterministic abort policy: when the structure closes within one block the
middle transaction aborts (same as Rule 1); when the closing edge comes from
a later block, the later transaction aborts — so every replica, regardless
of message timing, reaches the same decision (Figure 6).

The implementation keeps the previous block's committed facts by *witness
position* (the block's serial witness order, ascending ``(min_out, tid)``):
per written key the positions of its committed updaters, per point-read key
the positions of its committed readers, the committed range reads, and per
position the TID, the final ``min_out`` and the reachability closure
(:class:`PrevBlockRecords`) — plain tuples, no per-transaction object.
Validation of block *i* consults those records for:

- (ii) incoming inter-block ww/wr dependencies that close a structure on a
  current-block middle transaction, and
- (iii) outgoing inter-block rw edges into a previous-block transaction that
  was itself a structure middle (``min_out < tid``) — the Figure 6 case.

Both start from a backward edge, i.e. from a read: a transaction that reads
nothing closes no inter-block structure and is skipped, and a block in which
nobody reads (fused blind updates, every ``ycsb-hotspot`` block) builds no
rw index at all.

Performance: the hot loops run against sorted-key / interval indexes —
range reads slice the previous block's written keys with two bisects,
written keys stab the committed range readers, and the committed-block
reachability closure comes from the block's one
:class:`~repro.core.dependencies.CommittedGraph` and *stays* per-position
bitsets in the records (a reachability probe is a shift and a mask; the
records are O(n) ints to build, share, checkpoint and pickle), closed only
when the oracle or a structure first asks for it. This is the
only implementation; the quadratic scans it replaced are
``tests/reference`` (``reference_validate``, ``reachability``), which
``tests/test_perf_differential.py`` holds it bit-identical to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

from repro.core.dependencies import BlockDependencyIndex, CommittedGraph, Reach
from repro.intervals import RangeIndex, SortedKeys
from repro.txn.transaction import AbortReason, Txn, TxnStatus

NEG_INF = float("-inf")


class FrozenDict(dict):
    """A dict that refuses mutation once built — the containers of
    :class:`PrevBlockRecords` are shared between the live executor, its
    checkpoints and recovered replicas, never copied."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("PrevBlockRecords containers are immutable")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return (FrozenDict, (dict(self),))


@dataclass(frozen=True)
class PrevBlockRecords:
    """Committed-transaction facts of the previous block (Rule 3 inputs).

    Everything is indexed by *witness position* — the committed
    transaction's place in the block's serial witness order, i.e. a
    position of the block's :class:`~repro.core.dependencies.CommittedGraph`
    — and built at C speed from that graph, with no per-transaction or
    per-key object. Immutable by construction:
    :meth:`HarmonyValidator.records_for` builds a fresh one per block and
    the executor *replaces* its reference, so a checkpoint and a recovered
    replica may hold the same object — ``copy.deepcopy`` returns it
    unchanged.
    """

    #: key -> witness positions of its committed updaters (ascending)
    writers: FrozenDict = field(default_factory=FrozenDict)
    #: key -> witness positions of its committed point readers
    readers: FrozenDict = field(default_factory=FrozenDict)
    #: (start, end, witness position) of each committed range read
    range_readers: tuple = ()
    #: witness position -> TID
    tids: tuple = ()
    #: witness position -> final ``min_out`` (``min_out < tid``: the
    #: transaction was a structure middle)
    min_outs: tuple = ()
    #: witness position -> bitset (bit j = position j) of what it reaches
    #: through >= 1 edge of the committed block's dependency graph — the
    #: graph's own :class:`~repro.core.dependencies.Reach`, closed on the
    #: first structure that needs it
    reachable: Reach | tuple = ()

    def __bool__(self) -> bool:
        return bool(self.writers or self.readers or self.range_readers)

    def __deepcopy__(self, memo: dict) -> "PrevBlockRecords":
        return self

    def reaches(self, from_pos: int, to_pos: int) -> bool:
        return from_pos == to_pos or bool(self.reachable[from_pos] >> to_pos & 1)

    @cached_property
    def writer_key_index(self) -> SortedKeys:
        """Sorted index over the keys the committed block wrote."""
        return SortedKeys(self.writers)

    @cached_property
    def range_reader_index(self) -> RangeIndex:
        """Stabbing index over committed range reads, payload = position."""
        return RangeIndex(self.range_readers)


@dataclass
class ValidationStats:
    """Per-block validation outcome."""

    aborted_tids: set = field(default_factory=set)
    dangerous_structure_hits: int = 0
    inter_block_aborts: int = 0
    ww_aborts: int = 0


class HarmonyValidator:
    """Applies Rule 1 (and Rule 3 when ``inter_block``) to a block.

    With ``update_reorder=False`` (Figure 20's ablation), ww-dependencies
    cannot be resolved by reordering, so the validator falls back to Aria's
    style: among transactions updating the same key, only the smallest TID
    survives.
    """

    def __init__(self, inter_block: bool = False, update_reorder: bool = True) -> None:
        self.inter_block = inter_block
        self.update_reorder = update_reorder

    def validate(
        self,
        txns: list[Txn],
        prev_records: PrevBlockRecords | None = None,
    ) -> ValidationStats:
        """Decide commit/abort for every transaction in the block.

        ``prev_records`` carries the previous block's committed reader and
        writer facts (only consulted when ``inter_block``).
        """
        stats = ValidationStats()

        # --- simulation-step events: fold rw edges into the counters
        # (every on_seeing_rw_dependency event, fused: no per-edge object).
        # A block nobody reads in has no rw edge: no index to build, and
        # no inter-block structure to close either.
        reads = False
        for txn in txns:
            txn.min_out = txn.tid + 1
            txn.max_in = NEG_INF
            if txn.read_set or txn.read_ranges:
                reads = True
        if reads:
            BlockDependencyIndex(txns).fold_rw_counters()

        inter_doomed: set[int] = set()
        if reads and self.inter_block and prev_records:
            self._fold_inter_block_edges(txns, prev_records, inter_doomed)

        # --- commit-step checks, in TID order (deterministic).
        for txn in sorted(txns, key=attrgetter("tid")):
            if txn.status is TxnStatus.ABORTED:  # e.g. execution error during simulation
                stats.aborted_tids.add(txn.tid)
                continue
            if txn.min_out < txn.tid and txn.min_out <= txn.max_in:
                txn.mark_aborted(AbortReason.BACKWARD_DANGEROUS_STRUCTURE)
                stats.aborted_tids.add(txn.tid)
                stats.dangerous_structure_hits += 1
                continue
            if self.inter_block and txn.tid in inter_doomed:
                txn.mark_aborted(AbortReason.INTER_BLOCK_STRUCTURE)
                stats.aborted_tids.add(txn.tid)
                stats.inter_block_aborts += 1

        if not self.update_reorder:
            self._abort_ww_losers(txns, stats)
        return stats

    def _fold_inter_block_edges(
        self,
        txns: list[Txn],
        prev: PrevBlockRecords,
        inter_doomed: set[int],
    ) -> None:
        """Account for dependencies that cross the snapshot gap (Rule 3).

        For a transaction ``T`` of the current block (simulating against the
        snapshot two blocks back) and the previous block's committed set:

        - ``T`` reads a key a committed ``W`` wrote -> *backward* inter-rw
          edge (``T`` must serialize before ``W``): ``T.min_out`` absorbs
          ``W.tid``. If ``W`` was itself a structure middle
          (``min_out < tid``), ``T`` closes a generalized backward dangerous
          structure whose other members already committed — abort ``T``
          (the Figure 6 policy: the replica that sees the structure late
          must agree with one that saw it early).
        - committed ``R`` read (or ``W'`` wrote) a key ``T`` writes ->
          *forward* inter edge into ``T`` (``R``/``W'`` serialize before
          ``T``). A cross-block cycle exists iff some backward target ``W``
          reaches some forward source ``S`` through the previous block's
          committed dependency graph (``T -> W ->* S -> T``); reachability
          is the committed block's closure, handed on by
          :meth:`HarmonyValidator.records_for` (and closed on the first
          such check), so the check here is exact, not a TID heuristic.

        All inputs are committed facts of an already-decided block, so every
        replica reaches identical decisions regardless of message timing.

        Each range read slices ``prev``'s written keys with two bisects;
        each written key stabs the committed-range-reader index —
        O((reads + writes) · log |prev| + hits) per transaction instead of
        a full scan of ``prev`` per read range / written key. Every
        structure starts from a backward target, so a transaction that
        reads nothing is skipped, and the forward sources are collected
        only for one that has a backward target and is not already doomed.
        """
        # the sorted written keys are built on the first range read; the
        # range readers are stabbed per written key only when ``prev``
        # committed a range read
        stab = prev.range_reader_index.stab if prev.range_readers else None
        prev_writers = prev.writers
        prev_readers = prev.readers
        tids, min_outs = prev.tids, prev.min_outs
        for txn in txns:
            read_set, read_ranges = txn.read_set, txn.read_ranges
            if not read_set and not read_ranges:
                continue
            backward_positions: set[int] = set()
            for key in read_set:
                positions = prev_writers.get(key)
                if positions is not None:
                    backward_positions.update(positions)
            for start, end in read_ranges:
                for key in prev.writer_key_index.in_range(start, end):
                    backward_positions.update(prev_writers[key])
            if not backward_positions:
                continue
            tid = txn.tid
            for pos in backward_positions:
                writer_tid = tids[pos]
                if writer_tid < txn.min_out:
                    txn.min_out = writer_tid
                if min_outs[pos] < writer_tid:  # was a structure middle
                    inter_doomed.add(tid)
            if tid in inter_doomed:
                continue

            forward_positions: set[int] = set()
            for key in txn.write_set:
                forward_positions.update(prev_writers.get(key, ()))  # ww into T
                forward_positions.update(prev_readers.get(key, ()))  # rw into T
                if stab is not None:
                    forward_positions.update(stab(key))

            self._close_structure(
                txn, prev, backward_positions, forward_positions, inter_doomed
            )

    @staticmethod
    def _close_structure(
        txn: Txn,
        prev: PrevBlockRecords,
        backward_positions: set[int],
        forward_positions: set[int],
        inter_doomed: set[int],
    ) -> None:
        """Doom ``txn`` when a backward target reaches a forward source."""
        if txn.tid in inter_doomed or not backward_positions or not forward_positions:
            return
        forward_mask = 0
        for source in forward_positions:
            forward_mask |= 1 << source
        reachable = prev.reachable
        for target in backward_positions:
            if (reachable[target] | 1 << target) & forward_mask:
                inter_doomed.add(txn.tid)
                return

    def _abort_ww_losers(self, txns: list[Txn], stats: ValidationStats) -> None:
        """Ablation mode (no update reordering): Aria-style ww aborts —
        whenever multiple surviving transactions update the same record,
        only the one with the smallest TID commits."""
        winners: dict[object, int] = {}
        for txn in sorted(txns, key=lambda t: t.tid):
            if txn.tid in stats.aborted_tids:
                continue
            for key in txn.write_set:
                owner = winners.get(key)
                if owner is None:
                    winners[key] = txn.tid
                else:
                    txn.mark_aborted(AbortReason.WAW)
                    stats.aborted_tids.add(txn.tid)
                    stats.ww_aborts += 1
                    break

    @staticmethod
    def records_for(
        txns: list[Txn], graph: CommittedGraph | None = None
    ) -> PrevBlockRecords:
        """Build the committed-transaction facts the next block consults.

        Containers and closure come from the block's
        :class:`~repro.core.dependencies.CommittedGraph` (positions =
        witness order) — ``graph`` when the commit step already built it,
        else built here.
        """
        if graph is None:
            graph = CommittedGraph(txns)
        committed, chains, point_readers = graph.txns, graph.chains, graph.point_readers
        writers = FrozenDict(zip(chains, map(tuple, chains.values())))
        readers = FrozenDict(zip(point_readers, map(tuple, point_readers.values())))
        graph.reach.rebase(writers, readers)
        return PrevBlockRecords(
            writers=writers,
            readers=readers,
            range_readers=tuple(graph.ranges),
            tids=tuple(map(attrgetter("tid"), committed)),
            min_outs=tuple(map(attrgetter("min_out"), committed)),
            reachable=graph.reach,
        )
