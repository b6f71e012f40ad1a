"""rw-dependency detection within a block.

A transaction ``R`` rw-depends on ``W`` (``R --rw--> W``) when ``R`` reads a
before-image of ``W``'s writes. Under block-snapshot execution every read in
a block sees the snapshot, so the edge exists whenever ``R`` reads (or
range-scans over) a key that ``W`` writes, for ``R != W``.

Predicate reads are covered: a scan registers its half-open range, and any
write landing inside the range raises the same event — "Harmony does not
have phantoms because a predicate-read will also trigger
on_seeing_rw_dependency" (Section 3.2).

Range-reader lookups go through a sorted-boundary
:class:`~repro.intervals.RangeIndex`, making
:meth:`BlockDependencyIndex.rw_edges` near-linear in the number of edges;
the linear scan over every registered range per written key it replaced
lives on as ``tests/reference`` (``readers_of`` / ``rw_edges``), which
``tests/test_perf_differential.py`` holds this class equal to.

:class:`CommittedGraph` is the other half of this module: once a block is
decided, the dependency graph of its *committed* set (per-key updater
chains + snapshot-reader -> updater edges) is what the Rule-3 records, the
serializability check and the false-abort oracle all reason over. It is
built by exactly one piece of code and kept as Python-int bitsets.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator

from repro.intervals import RangeIndex, SortedKeys
from repro.txn.transaction import Txn, TxnStatus


@dataclass(frozen=True)
class RWEdge:
    """``reader --rw--> writer`` on ``key`` (reader saw the before-image)."""

    reader_tid: int
    writer_tid: int
    key: object


class BlockDependencyIndex:
    """Per-block index of point reads, range reads and writes."""

    def __init__(self, txns: list[Txn]) -> None:
        self.txns = txns
        self._by_tid = {t.tid: t for t in txns}
        self._point_readers: dict[object, list[int]] = {}
        self._range_readers: list[tuple[object, object, int]] = []
        self._range_index = RangeIndex()
        self._writers: dict[object, list[int]] = {}
        for txn in txns:
            for key in txn.read_set:
                self._point_readers.setdefault(key, []).append(txn.tid)
            for start, end in txn.read_ranges:
                self._range_readers.append((start, end, txn.tid))
                self._range_index.add(start, end, txn.tid)
            for key in txn.write_set:
                self._writers.setdefault(key, []).append(txn.tid)

    def readers_of(self, key: object) -> list[int]:
        """Point readers plus range readers whose range covers ``key``.

        De-duplicated (a transaction appears once even when several of its
        ranges cover the key), point readers first, then range readers in
        registration order.
        """
        point = self._point_readers.get(key)
        ranged = self._range_index.stab(key)
        if not ranged:
            return list(point) if point else []
        readers = list(point) if point else []
        seen = set(readers)
        for tid in ranged:
            if tid not in seen:
                seen.add(tid)
                readers.append(tid)
        return readers

    def written_keys(self) -> Iterator[object]:
        return iter(self._writers)

    def rw_edges(self) -> Iterator[RWEdge]:
        """All intra-block rw edges, each (reader, writer, key) once.

        With the interval index this is O(written_keys · log ranges +
        edges) instead of O(written_keys · ranges).
        """
        for key, writer_tids in self._writers.items():
            for reader_tid in self.readers_of(key):
                for writer_tid in writer_tids:
                    if reader_tid != writer_tid:
                        yield RWEdge(reader_tid, writer_tid, key)

    def fold_rw_counters(self) -> None:
        """Apply every ``on_seeing_rw_dependency`` event directly to the
        transactions' Algorithm-1 counters.

        Equivalent to iterating :meth:`rw_edges` and folding each edge into
        ``reader.min_out`` / ``writer.max_in``, but without materializing
        an edge object (or two TID lookups) per edge: for each written key
        the per-reader minimum writer TID and per-writer maximum reader TID
        are derived from the key's two extreme writers/readers, so the fold
        is O(readers + writers) per key instead of O(readers · writers).

        A block nobody reads in (fused blind updates — every
        ``ycsb-hotspot`` block) has no rw edge at all and returns before
        the per-written-key loop.
        """
        if not self._point_readers and not self._range_readers:
            return
        by_tid = self._by_tid
        for key, writer_tids in self._writers.items():
            readers = self.readers_of(key)
            if not readers:
                continue
            if len(writer_tids) == 1:
                w_min, w_min2 = writer_tids[0], None
            else:
                w_min = min(writer_tids)
                w_min2 = min(t for t in writer_tids if t != w_min)
            if len(readers) == 1:
                r_max, r_max2 = readers[0], None
            else:
                r_max = max(readers)
                r_max2 = max(t for t in readers if t != r_max)
            for reader_tid in readers:
                target = w_min2 if reader_tid == w_min else w_min
                if target is not None:
                    reader = by_tid[reader_tid]
                    if target < reader.min_out:
                        reader.min_out = target
            for writer_tid in writer_tids:
                source = r_max2 if writer_tid == r_max else r_max
                if source is not None:
                    writer = by_tid[writer_tid]
                    if source > writer.max_in:
                        writer.max_in = source


#: Harmony's serial witness / Rule-2 apply order: ``txn -> (min_out, tid)``
#: (an ``attrgetter``: the sort key costs no Python frame per transaction)
witness_order: Callable[[Txn], tuple[int, int]] = attrgetter("min_out", "tid")


def commit_survivors(txns: list[Txn]) -> "CommittedGraph":
    """Mark every transaction the decision left standing committed and
    build the block's one :class:`CommittedGraph`.

    Idempotent: statuses are final once the validator and the certificate's
    vetoes have spoken, so the trailing replay may run this at certificate
    time and the commit step again later.
    """
    for txn in txns:
        if txn.status is not TxnStatus.ABORTED:
            txn.mark_committed()
    return CommittedGraph(txns)


class Reach:
    """A committed block's reachability closure, closed on first read.

    ``bits[i]`` is the bitset of the positions reachable from position
    ``i`` (see :class:`CommittedGraph`). One instance is shared by the
    block's graph and the Rule-3 records built from it, so whichever
    asks first — the false-abort oracle for an abortee, or the next
    block's validation for a reader that closes a structure — pays for
    the closure once, and a block nobody asks about never does. It
    indexes, iterates, compares (with a tuple or list too) and pickles
    as its sequence of bitsets.
    """

    __slots__ = ("_inputs", "_bits")

    def __init__(self, inputs: tuple | None, bits: tuple[int, ...] | None = None) -> None:
        #: :func:`_close`'s arguments until the first read, then ``None``
        self._inputs = inputs
        self._bits = bits

    @property
    def bits(self) -> tuple[int, ...]:
        bits = self._bits
        if bits is None:
            bits = self._bits = _close(*self._inputs)
            self._inputs = None  # the graph's containers are not kept
        return bits

    def rebase(self, chains: dict, point_readers: dict) -> None:
        """Close over equal containers instead of the graph's own — the
        Rule-3 records' copies — so that records a checkpoint keeps hold
        one copy of them, not two, until the closure is read."""
        if self._inputs is not None:
            n, _, _, stab = self._inputs
            self._inputs = (n, chains, point_readers, stab)

    def __getitem__(self, pos: int) -> int:
        return self.bits[pos]

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Reach, tuple, list)):
            return self.bits == tuple(other)
        return NotImplemented

    def __reduce__(self):
        return (Reach, (None, self.bits))


def _close(
    n: int,
    chains: dict[object, list[int]],
    point_readers: dict[object, list[int]],
    stab: Callable[[object], list[int]] | None,
) -> tuple[int, ...]:
    """Collect each position's direct successors — the updater chains,
    and reader -> every updater of a key it point-reads (``point_readers``)
    or range-covers (``stab``) — and close them into the reach bitsets."""
    bit = [1 << i for i in range(n)]
    succ = [0] * n
    read = bool(point_readers) or stab is not None
    for key, chain in chains.items():
        if len(chain) > 1:
            for i in range(len(chain) - 1):
                succ[chain[i]] |= bit[chain[i + 1]]
        if not read:  # a block nobody reads in has chain edges only
            continue
        readers = point_readers.get(key, ())
        ranged = stab(key) if stab is not None else ()
        if readers or ranged:
            updaters = 0
            for pos in chain:
                updaters |= bit[pos]
            for pos in readers:
                succ[pos] |= updaters
            for pos in ranged:
                succ[pos] |= updaters
    backward = False  # some edge points to a lower position
    for i in range(n):
        succ[i] &= ~bit[i]  # a read-modify-write does not precede itself
        if succ[i] & (bit[i] - 1):
            backward = True

    # Propagate in reverse position order: chain edges always point to
    # higher positions, so this is near reverse-topological; iterate to
    # a fixpoint so backward rw edges (and any cycles) close exactly.
    # With every edge forward, one pass is exact: each successor's
    # reach is final before it is read, so a second pass changes nothing.
    reach = list(succ)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            acc = bits = succ[i]
            while bits:
                low = bits & -bits
                acc |= reach[low.bit_length() - 1]
                bits ^= low
            if acc != reach[i]:
                reach[i] = acc
                changed = backward
    return tuple(reach)


class CommittedGraph:
    """Dependency graph of one decided block's committed set, as bitsets.

    Nodes are *positions*: the committed transactions sorted by ``order``
    (Harmony's witness order by default; the value-based schemes pass TID
    order). All reads are snapshot reads, so the edges are

    - the per-key updater chains in ``order`` — ww/wr, consecutive updaters
      only, always pointing to a higher position — and
    - reader -> every updater of a key the reader point-reads or
      range-covers (rw anti-dependency), in either direction.

    ``reach[i]`` holds everything reachable from position ``i`` through
    >= 1 edge as one Python int with bit ``j`` set for position ``j`` — so
    "does ``a`` reach any of these" is one AND, and the whole closure of
    an n-txn block is n ints rather than O(n^2) set members. Bit ``i`` of
    ``reach[i]`` is set iff ``i`` lies on a cycle. The closure is a
    :class:`Reach`, closed on first read: a block nobody asks about (no
    abortee for the oracle, no reader in the next block) is never closed.

    Four consumers read it: the commit step's
    :func:`~repro.core.reordering.apply_write_sets` (``chains`` *are* the
    Rule-2 apply order), :meth:`HarmonyValidator.records_for` (Rule-3
    reachability handed to the next block), and the oracle's
    ``committed_is_serializable`` (:attr:`cyclic`) and
    ``count_false_aborts`` (:meth:`closes_cycle`).
    """

    __slots__ = (
        "order",
        "txns",
        "chains",
        "point_readers",
        "ranges",
        "range_index",
        "reach",
        "_order_keys",
        "_written_keys",
    )

    def __init__(
        self, txns: list[Txn], order: Callable[[Txn], object] | None = None
    ) -> None:
        self.order = order = order or witness_order
        #: position -> committed transaction, in ``order``
        self.txns = committed = sorted(
            [t for t in txns if t.status is TxnStatus.COMMITTED], key=order
        )
        #: key -> updater positions; ascending, i.e. already in chain order
        self.chains: dict[object, list[int]] = {}
        #: key -> positions that point-read it
        self.point_readers: dict[object, list[int]] = {}
        #: committed range reads as ``(start, end, position)``
        self.ranges: list[tuple[object, object, int]] = []
        chains, point_readers, ranges = self.chains, self.point_readers, self.ranges
        for pos, txn in enumerate(committed):
            for key in txn.write_set:
                chain = chains.get(key)
                if chain is None:
                    chains[key] = [pos]
                else:
                    chain.append(pos)
            for key in txn.read_set:
                readers = point_readers.get(key)
                if readers is None:
                    point_readers[key] = [pos]
                else:
                    readers.append(pos)
            for start, end in txn.read_ranges:
                ranges.append((start, end, pos))
        #: stabbing index over :attr:`ranges` (payload = position)
        self.range_index = RangeIndex(ranges)
        self._order_keys: list | None = None
        self._written_keys: SortedKeys | None = None
        #: the closure, shared with the Rule-3 records built from this graph
        self.reach = Reach(
            (len(committed), chains, point_readers, self.range_index.stab if ranges else None)
        )

    @property
    def cyclic(self) -> bool:
        """Whether the committed set itself is non-serializable."""
        return any(reach >> i & 1 for i, reach in enumerate(self.reach.bits))

    def closes_cycle(self, txn: Txn) -> bool:
        """Would hypothetically committing ``txn`` (an abortee of the same
        block) make the graph cyclic? Only meaningful when not
        :attr:`cyclic`.

        Nothing is copied or re-traversed: ``txn``'s in-neighbours are its
        chain predecessor on each key it writes plus the committed readers
        of those keys, its out-neighbours the chain successor plus every
        committed updater of a key it reads or range-covers, and a cycle
        exists iff some out-neighbour is, or reaches, some in-neighbour.
        (The committed chain edge ``prev -> next`` that inserting ``txn``
        would split stays in ``reach``; it is implied by ``prev -> txn ->
        next``, so cycle-or-not is unchanged.)
        """
        order_keys = self._order_keys
        if order_keys is None:
            order = self.order
            order_keys = self._order_keys = [order(t) for t in self.txns]
        # positions < slot sort before txn (ties: txn last, as a stable
        # sort of committed + [txn] would place it)
        slot = bisect_right(order_keys, self.order(txn))
        chains = self.chains
        point_readers = self.point_readers
        stab = self.range_index.stab if self.ranges else None
        into = out = 0
        for key in txn.write_set:
            chain = chains.get(key)
            if chain is not None:
                idx = bisect_left(chain, slot)
                if idx:
                    into |= 1 << chain[idx - 1]
                if idx < len(chain):
                    out |= 1 << chain[idx]
            for pos in point_readers.get(key, ()):
                into |= 1 << pos
            if stab is not None:
                for pos in stab(key):
                    into |= 1 << pos
        if not into:
            return False
        for key in txn.read_set:
            for pos in chains.get(key, ()):
                out |= 1 << pos
        if txn.read_ranges:
            written = self._written_keys
            if written is None:
                written = self._written_keys = SortedKeys(chains)
            for start, end in txn.read_ranges:
                for key in written.in_range(start, end):
                    for pos in chains[key]:
                        out |= 1 << pos
        if out & into:
            return True
        reach = self.reach.bits
        while out:
            low = out & -out
            if reach[low.bit_length() - 1] & into:
                return True
            out ^= low
        return False
