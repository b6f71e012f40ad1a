"""Update reordering and coalescence (Rule 2, Algorithm 2).

After validation the rw-subgraph is free of backward dangerous structures,
and Theorem 2 guarantees that ascending ``min_out`` order (ties by TID) is a
topological order of it. So instead of a graph traversal, each key's
surviving update commands are taken in ``(min_out, tid)`` order — read
straight off the block's :class:`~repro.core.dependencies.CommittedGraph`,
whose positions are that order and whose per-key ``chains`` are therefore
already sorted — coalesced into one command (Figure 5b), and applied by
whichever committing transaction reaches the key first: one index lookup,
one latch, one page write per key, regardless of how many transactions
updated it. That is the hotspot-resiliency mechanism of Figure 14.

The two ablation switches reproduce Figure 20's bars:

- ``coalesce=False`` — commands still apply in Rule-2 order but each
  transaction performs its own physical update (duplicated I/O and a serial
  chain per key);
- reordering itself is disabled one layer up (the validator aborts ww
  losers), after which every key has at most one updater.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dependencies import CommittedGraph, commit_survivors
from repro.encoding import key_text
from repro.txn.commands import apply_safely, coalesce
from repro.txn.transaction import Txn


@dataclass
class ReorderingResult:
    """Outcome of the commit step's write application."""

    #: ordered (key, value) writes, apply order == version seq order
    ordered_writes: list = field(default_factory=list)
    #: one commit-step task per written key (us): its one coalesced apply,
    #: or, uncoalesced, the sum of its serial chain of per-updater applies
    key_durations_us: list = field(default_factory=list)
    #: ``(key, updater tids in Rule-2 order)`` per written key, in the
    #: order of :attr:`key_durations_us` — the history oracle's input
    chains: list = field(default_factory=list)
    #: per-transaction extra commit CPU (validation bookkeeping)
    txn_commit_cpu_us: dict = field(default_factory=dict)
    #: the committed set's graph the writes were ordered by — the block's
    #: one :class:`~repro.core.dependencies.CommittedGraph`, handed on to
    #: the Rule-3 records and the false-abort oracle
    graph: CommittedGraph | None = None


def apply_write_sets(
    txns: list[Txn],
    commit_inputs,
    op_cpu_us: float,
    do_coalesce: bool = True,
    key_scope=None,
) -> ReorderingResult:
    """Evaluate surviving transactions' update commands (Algorithm 2).

    ``txns`` is the block in TID order, with statuses already decided by the
    validator (aborted transactions are filtered, line #13 of Algorithm 2).
    The survivors are marked committed and the block's one
    :class:`~repro.core.dependencies.CommittedGraph` is built here
    (:func:`~repro.core.dependencies.commit_survivors`) and returned in the
    result: its ``chains`` are every key's committed updaters in Rule-2
    order, so nothing is derived or sorted per key.

    Storage is consulted once per block, over the block's key list sorted
    by key text (:data:`repro.encoding.key_text`):
    ``commit_inputs(keys, charged)`` (:meth:`StorageEngine.commit_inputs
    <repro.storage.engine.StorageEngine.commit_inputs>`) returns each key's
    pre-block value (the store's latest committed version) and the
    simulated cost of one physical update per entry of ``charged`` (the key
    list itself when coalescing), charged in list order.

    ``key_scope`` (sharded deployments) restricts the physical apply to
    locally-owned keys: a cross-shard transaction's remote writes are
    validated here as reservations but installed by the shard that owns
    them (it runs the same commit step with the complementary scope).

    Returns the ordered writes to install plus the commit step's task
    durations for the scheduler.
    """
    graph = commit_survivors(txns)
    committed, chains = graph.txns, graph.chains
    keys = sorted(
        chains if key_scope is None else filter(key_scope, chains), key=key_text
    )
    # one charge per key; uncoalesced, every updater pays its own lookup +
    # page write (Figure 5a): key-major, the key repeated once per updater
    bases, costs = commit_inputs(
        keys, None if do_coalesce else [key for key in keys for _ in chains[key]]
    )

    ordered_writes, durations, applied = [], [], []
    at = 0  # next unread entry of ``costs``
    for key, value in zip(keys, bases):
        chain = chains[key]
        if len(chain) == 1:
            txn = committed[chain[0]]
            applied.append((key, [txn.tid]))
            value = apply_safely(txn.write_set[key], value)
            durations.append(costs[at] + op_cpu_us)
            at += 1
        else:
            tids, commands = [], []
            for pos in chain:
                txn = committed[pos]
                tids.append(txn.tid)
                commands.append(txn.write_set[key])
            applied.append((key, tids))
            if do_coalesce:
                value = apply_safely(coalesce(commands), value)
                durations.append(costs[at] + op_cpu_us * len(commands))
                at += 1
            else:
                for command in commands:
                    value = apply_safely(command, value)
                end = at + len(commands)
                durations.append(sum([cost + op_cpu_us for cost in costs[at:end]]))
                at = end
        # ``None``: every command no-oped on a missing base, nothing to
        # install. Tombstones are stored as-is; SnapshotView.get() hides them.
        if value is not None:
            ordered_writes.append((key, value))
    return ReorderingResult(
        ordered_writes,
        durations,
        applied,
        dict.fromkeys([txn.tid for txn in committed], op_cpu_us),
        graph,
    )
