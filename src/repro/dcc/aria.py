"""Aria: deterministic OCC from the deterministic-database world.

Per the Aria paper (Lu et al., VLDB 2020) and Section 2.2.2: every
transaction in a block executes against the block snapshot and *reserves*
its writes; the reservation table awards each key to the smallest TID.
A transaction ``T`` aborts when:

- **WAW**: a smaller TID reserved a key ``T`` writes (Figure 2 — "on seeing
  a ww-dependency, Aria aborts the one with a larger TID"); or
- **RAW and WAR**, under Aria's deterministic reordering (always on, as in
  AriaBC): ``T`` both read a smaller-TID writer's key *and* wrote a key
  some smaller TID read.

Surviving transactions have disjoint write sets, so the commit step applies
evaluated values fully in parallel. The price is the high abort rate under
ww contention that Harmony's update reordering removes.
"""

from __future__ import annotations

from repro.encoding import key_text
from repro.execution import (
    BlockExecution,
    DCCExecutor,
    PreparedBlock,
    simulate_transactions,
)
from repro.intervals import SortedKeys
from repro.txn.commands import apply_safely
from repro.txn.transaction import AbortReason, Txn


class AriaExecutor(DCCExecutor):
    """Aria DCC bound to a storage engine (AriaBC's database layer)."""

    name = "aria"

    def prepare_block(self, block_id: int, txns: list[Txn]) -> PreparedBlock:
        """Simulate, reserve and decide — Aria's whole validation phase is
        reservation-table lookups, so the local vote falls out here; writes
        are deferred to :meth:`commit_block`."""
        snapshot = self.snapshot_for(block_id, lag=1)
        sim_durations = simulate_transactions(txns, snapshot, self.registry, self.engine)

        write_reservations: dict[object, int] = {}
        read_reservations: dict[object, int] = {}
        for txn in sorted(txns, key=lambda t: t.tid):
            if txn.aborted:
                continue
            for key in txn.write_set:
                write_reservations.setdefault(key, txn.tid)
            for key in txn.read_set:
                read_reservations.setdefault(key, txn.tid)

        #: sorted write-reservation keys — each range read becomes two
        #: bisects plus the covered keys instead of a scan of the whole
        #: reservation table (built lazily, only when a range read exists).
        reserved_keys: SortedKeys | None = None

        committed: list[Txn] = []
        for txn in sorted(txns, key=lambda t: t.tid):
            if txn.aborted:
                continue
            waw = any(
                write_reservations.get(key, txn.tid) < txn.tid for key in txn.write_set
            )
            raw = any(
                write_reservations.get(key, txn.tid) < txn.tid for key in txn.read_set
            )
            if not raw and txn.read_ranges:
                if reserved_keys is None:
                    reserved_keys = SortedKeys(write_reservations)
                raw = any(
                    write_reservations[key] < txn.tid
                    for start, end in txn.read_ranges
                    for key in reserved_keys.in_range(start, end)
                )
            war = any(
                read_reservations.get(key, txn.tid) < txn.tid for key in txn.write_set
            )
            if waw:
                txn.mark_aborted(AbortReason.WAW)
                continue
            if raw and war:
                txn.mark_aborted(AbortReason.RAW)
                continue
            committed.append(txn)

        return PreparedBlock(
            block_id=block_id,
            txns=txns,
            sim_durations_us=sim_durations,
            snapshot_block_id=block_id - 1,
            payload=(snapshot, committed),
        )

    def commit_block(
        self, prepared: PreparedBlock, abort_tids: frozenset = frozenset()
    ) -> BlockExecution:
        snapshot, survivors = prepared.payload
        self.force_aborts(prepared.txns, abort_tids)

        # Parallel commit: disjoint write sets, values evaluated against the
        # block snapshot (Aria ships values, not commands). Only locally
        # owned keys are installed (``in_scope`` is all keys unsharded).
        commit_durations: list[float] = []
        ordered_writes: list[tuple[object, object]] = []
        for txn in survivors:
            if txn.aborted:  # cross-shard veto arrived after the local vote
                continue
            txn.mark_committed()
            cost = self.engine.costs.op_cpu_us
            for key in txn.updated_keys:
                if not self.in_scope(key):
                    continue
                base, _version = snapshot.get(key)
                ordered_writes.append((key, apply_safely(txn.write_set[key], base)))
                cost += self.engine.write_cost(key)
            txn.commit_cost_us = cost
            commit_durations.append(cost)

        ordered_writes.sort(key=lambda kv: key_text(kv[0]))
        return self.install(prepared, ordered_writes, commit_durations, serial_commit=False)
