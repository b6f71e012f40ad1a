"""Decision-layer references (``core/`` and ``dcc/``): every answer by a
linear scan or a fresh graph, so each is quadratic and easy to read."""

from __future__ import annotations

from repro.core.dependencies import BlockDependencyIndex, RWEdge, witness_order
from repro.core.validation import NEG_INF, PrevBlockRecords, ValidationStats
from repro.dcc.oracle import HistoryOracle, has_cycle
from repro.intervals import covers
from repro.txn.commands import apply_safely
from repro.txn.transaction import AbortReason, Txn


# ------------------------------------------------------- core/dependencies
def readers_of(index: BlockDependencyIndex, key: object) -> list[int]:
    """Point readers of ``key``, then every registered range that covers
    it, in registration order, each transaction once."""
    readers = list(index._point_readers.get(key, []))
    for start, end, tid in index._range_readers:
        if covers(start, end, key) and tid not in readers:
            readers.append(tid)
    return readers


def rw_edges(index: BlockDependencyIndex) -> list[RWEdge]:
    """All intra-block rw edges, one linear range scan per written key."""
    return [
        RWEdge(reader_tid, writer_tid, key)
        for key, writer_tids in index._writers.items()
        for reader_tid in readers_of(index, key)
        for writer_tid in writer_tids
        if reader_tid != writer_tid
    ]


# --------------------------------------------------------- core/validation
def reference_validate(
    txns: list[Txn],
    prev: PrevBlockRecords | None = None,
    inter_block: bool = False,
    update_reorder: bool = True,
) -> ValidationStats:
    """Algorithm 1 and Rule 3 read literally — what
    ``HarmonyValidator(inter_block, update_reorder).validate(txns, prev)``
    must decide: one counter fold per rw edge, every range read scanning
    every previous-block written key, every written key scanning every
    committed range reader, reachability probed pair by pair."""
    stats = ValidationStats()
    by_tid = {txn.tid: txn for txn in txns}
    for txn in txns:
        txn.min_out = txn.tid + 1
        txn.max_in = NEG_INF
    for edge in rw_edges(BlockDependencyIndex(txns)):
        reader, writer = by_tid[edge.reader_tid], by_tid[edge.writer_tid]
        # Event on_seeing_rw_dependency(T_writer <--rw-- T_reader):
        reader.min_out = min(writer.tid, reader.min_out)
        writer.max_in = max(reader.tid, writer.max_in)

    inter_doomed: set[int] = set()
    if inter_block and prev:
        for txn in txns:
            _fold_inter_block_edges(txn, prev, inter_doomed)

    for txn in sorted(txns, key=lambda t: t.tid):
        if txn.aborted:  # execution error during simulation
            stats.aborted_tids.add(txn.tid)
        elif txn.min_out < txn.tid and txn.min_out <= txn.max_in:
            txn.mark_aborted(AbortReason.BACKWARD_DANGEROUS_STRUCTURE)
            stats.aborted_tids.add(txn.tid)
            stats.dangerous_structure_hits += 1
        elif txn.tid in inter_doomed:
            txn.mark_aborted(AbortReason.INTER_BLOCK_STRUCTURE)
            stats.aborted_tids.add(txn.tid)
            stats.inter_block_aborts += 1

    if not update_reorder:  # ablation: only the smallest TID per key survives
        owned: set[object] = set()
        for txn in sorted(txns, key=lambda t: t.tid):
            if txn.tid in stats.aborted_tids:
                continue
            for key in txn.write_set:
                if key in owned:
                    txn.mark_aborted(AbortReason.WAW)
                    stats.aborted_tids.add(txn.tid)
                    stats.ww_aborts += 1
                    break
                owned.add(key)
    return stats


def _fold_inter_block_edges(
    txn: Txn, prev: PrevBlockRecords, inter_doomed: set[int]
) -> None:
    backward: set[int] = set()  # witness positions txn must precede
    forward: set[int] = set()  # witness positions that precede txn
    for key, positions in prev.writers.items():
        if key in txn.read_set or any(
            covers(start, end, key) for start, end in txn.read_ranges
        ):
            for pos in positions:
                txn.min_out = min(txn.min_out, prev.tids[pos])
                backward.add(pos)
                if prev.min_outs[pos] < prev.tids[pos]:  # a structure middle
                    inter_doomed.add(txn.tid)
    for key in txn.write_set:
        forward.update(prev.writers.get(key, ()))
        forward.update(prev.readers.get(key, ()))
        forward.update(
            pos for start, end, pos in prev.range_readers if covers(start, end, key)
        )
    if any(prev.reaches(target, source) for target in backward for source in forward):
        inter_doomed.add(txn.tid)


def reachability(committed: list[Txn]) -> list[int]:
    """The committed block's closure in the records' bitset form: per-(key,
    txn) ``reads`` probes for the edges, then one DFS per node.
    ``committed`` is in witness order (position = index)."""
    n = len(committed)
    edges: dict[int, set[int]] = {i: set() for i in range(n)}
    writers_by_key: dict[object, list[int]] = {}
    for pos, txn in enumerate(committed):
        for key in txn.write_set:
            writers_by_key.setdefault(key, []).append(pos)
    for key, writer_positions in writers_by_key.items():
        ordered = sorted(writer_positions)
        for earlier, later in zip(ordered, ordered[1:]):
            edges[earlier].add(later)
        for pos, txn in enumerate(committed):
            if txn.reads(key):
                for writer_pos in writer_positions:
                    if writer_pos != pos:
                        edges[pos].add(writer_pos)
    closure: list[int] = []
    for start in range(n):
        seen: set[int] = set()
        stack = list(edges[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges[node] - seen)
        closure.append(sum(1 << pos for pos in seen))
    return closure


# --------------------------------------------------------- core/reordering
def reference_commit(
    txns: list[Txn],
    base: dict,
    cost_of,
    op_cpu_us: float,
    do_coalesce: bool = True,
    key_scope=None,
):
    """Algorithm 2 read literally — what ``apply_write_sets`` must return:
    filter the survivors, sort each written key's updaters by ``(min_out,
    tid)``, fold their commands one at a time over ``base``. A key costs one
    charge ``cost_of(key)`` when coalesced, one per updater when not.

    Returns ``(writes, durations, chains, commit_cpu, charged)``: the
    installed ``(key, value)`` writes, one duration per key, the ``(key,
    tids)`` apply chains, the per-transaction commit CPU and the charged
    key list, in charge order."""
    live = [t for t in txns if not t.aborted]
    keys = {k for t in live for k in t.write_set if not key_scope or key_scope(k)}
    writes, durations, chains, charged = [], [], [], []
    for key in sorted(keys, key=repr):
        ups = sorted((t for t in live if key in t.write_set), key=witness_order)
        value = base.get(key)
        for txn in ups:
            value = apply_safely(txn.write_set[key], value)
        n = len(ups)
        if do_coalesce:
            durations.append(cost_of(key) + op_cpu_us * n)
            charged.append(key)
        else:
            durations.append(sum([cost_of(key) + op_cpu_us] * n))
            charged += [key] * n
        chains.append((key, [t.tid for t in ups]))
        if value is not None:
            writes.append((key, value))
    return writes, durations, chains, {t.tid: op_cpu_us for t in live}, charged


# -------------------------------------------------------------- dcc/oracle
def _covers(txn: Txn, key: object) -> bool:
    if key in txn.read_set:
        return True
    return any(covers(start, end, key) for start, end in txn.read_ranges)


def block_dependency_graph(
    txns: list[Txn], chain_order=witness_order
) -> dict[int, set[int]]:
    """Dependency graph of one block's transactions (snapshot reads).

    ``txns`` is the node set (typically the committed set, optionally plus
    one hypothetically-committed abortee). All reads are snapshot reads, so
    a reader precedes every updater of the key; updaters of a key are
    chained in ``chain_order``.
    """
    adjacency: dict[int, set[int]] = {t.tid: set() for t in txns}
    writers: dict[object, list[Txn]] = {}
    for txn in txns:
        for key in txn.write_set:
            writers.setdefault(key, []).append(txn)

    for key, updaters in writers.items():
        ordered = sorted(updaters, key=chain_order)
        # ww/wr chain in apply order
        for earlier, later in zip(ordered, ordered[1:]):
            adjacency[earlier.tid].add(later.tid)
        # snapshot readers precede every updater (rw anti-dependency)
        for txn in txns:
            if _covers(txn, key):
                for updater in updaters:
                    if updater.tid != txn.tid:
                        adjacency[txn.tid].add(updater.tid)
    return adjacency


def false_aborts(txns: list[Txn], chain_order=None) -> dict:
    """Aborts perfect intra-block scheduling could have avoided, per abort
    reason: ``(reason, 0) -> [aborts, false aborts]``, one graph rebuild
    and one DFS per abortee over (committed + that abortee)."""
    order = chain_order or witness_order
    committed = [t for t in txns if t.committed]
    split: dict = {}
    for txn in txns:
        if txn.aborted:
            entry = split.setdefault((txn.abort_reason, 0), [0, 0])
            entry[0] += 1
            entry[1] += not has_cycle(block_dependency_graph(committed + [txn], order))
    return split


def history_graph(oracle: HistoryOracle) -> dict[int, set[int]]:
    """The multi-version dependency graph of everything ``oracle`` has
    recorded, rebuilt from its facts: every range read scans every write
    chain, nothing memoized."""
    adjacency: dict[int, set[int]] = {tid: set() for tid in oracle._tids}
    # ww/wr chains per key, across blocks (apply order is global)
    for chain in oracle._chains.values():
        for earlier, later in zip(chain, chain[1:]):
            if earlier.tid != later.tid:
                adjacency[earlier.tid].add(later.tid)
    # read edges: version/snapshot comparison decides before vs after
    for tid in oracle._tids:
        snap = oracle._snapshot_block.get(tid, -1)
        reads = oracle._read_facts.get(tid, {})
        for key, version in reads.items():
            read_block = version[0] if version is not None else snap
            oracle._add_read_edges(adjacency, tid, key, read_block)
        for start, end in oracle._range_facts.get(tid, []):
            for key in oracle._chains:
                if covers(start, end, key) and key not in reads:
                    oracle._add_read_edges(adjacency, tid, key, snap)
    return adjacency


# ---------------------------------------------------------------- dcc/aria
def aria_decisions(txns: list[Txn]) -> dict[int, AbortReason | None]:
    """Aria's reservation verdict per simulated transaction (``None`` =
    commits) under deterministic reordering, with the RAW check as a scan
    of the whole write-reservation table per transaction. Transactions
    that failed in simulation reserve nothing and keep their reason."""
    live = sorted(
        (t for t in txns if t.abort_reason is not AbortReason.EXECUTION_ERROR),
        key=lambda t: t.tid,
    )
    write_reservations: dict[object, int] = {}
    read_reservations: dict[object, int] = {}
    for txn in live:
        for key in txn.write_set:
            write_reservations.setdefault(key, txn.tid)
        for key in txn.read_set:
            read_reservations.setdefault(key, txn.tid)
    decisions = {
        t.tid: AbortReason.EXECUTION_ERROR
        for t in txns
        if t.abort_reason is AbortReason.EXECUTION_ERROR
    }
    for txn in live:
        waw = any(write_reservations[key] < txn.tid for key in txn.write_set)
        raw = any(
            owner < txn.tid and txn.reads(key)
            for key, owner in write_reservations.items()
        )
        war = any(
            read_reservations.get(key, txn.tid) < txn.tid for key in txn.write_set
        )
        if waw:
            decisions[txn.tid] = AbortReason.WAW
        elif raw and war:
            decisions[txn.tid] = AbortReason.RAW
        else:
            decisions[txn.tid] = None
    return decisions


# ------------------------------------------------------------ chain/config
def decision_part(block_id: int, txns: list[Txn]) -> str:
    """One block's share of the decision digest, read through the
    ``committed`` / ``aborted`` properties: ``block:committed|aborted``
    TIDs in block order, pending transactions in neither list."""
    committed = ",".join(str(t.tid) for t in txns if t.committed)
    aborted = ",".join(str(t.tid) for t in txns if t.aborted)
    return f"{block_id}:{committed}|{aborted}"
