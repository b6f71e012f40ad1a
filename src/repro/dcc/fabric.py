"""Fabric's Simulate-Order-Validate validation phase (Section 2.1.1).

Transactions arrive with read-write sets collected during *endorsement*
(simulation against some endorser's possibly-stale local state). The
validator processes the block serially in TID order: a transaction aborts
on any **stale read** — a read whose version no longer matches the
replica's current state (overwritten by an earlier block or by an earlier
transaction of the same block). This is the rw-dependency dangerous
structure the paper calls "often overly conservative" (the Figure 2
discussion: Fabric would abort T2 even though T2 -> T1 is serializable).

Writes are value writes (the endorsed write set), applied as each
transaction validates — MVCC version tags advance per transaction, exactly
what later version checks compare against. Physical logging (the rw-sets)
is charged per record.
"""

from __future__ import annotations

from repro.execution import OverlayExecutor, OverlayView, PreparedBlock
from repro.txn.commands import apply_safely
from repro.txn.transaction import AbortReason, Txn


class FabricValidator(OverlayExecutor):
    """Fabric v2.x-style serial validate-and-apply."""

    name = "fabric"

    def prepare_block(self, block_id: int, txns: list[Txn]) -> PreparedBlock:
        """Validate serially in TID order into an overlay; the install is
        :meth:`OverlayExecutor.commit_block`."""
        overlay = OverlayView(self.engine.store.latest_snapshot(), block_id)
        commit_durations: list[float] = []

        for txn in sorted(txns, key=lambda t: t.tid):
            # signature verification + version checks, all serial
            cost = self.engine.costs.verify_us
            cost += self.engine.costs.op_cpu_us * max(1, len(txn.read_set))
            if txn.aborted:  # endorsement already failed it
                commit_durations.append(cost)
                continue
            stale = False
            for key, endorsed_version in txn.read_set.items():
                _value, current_version = overlay.get(key)
                # version check probes MVCC metadata (cached), not the page
                cost += self.engine.costs.index_lookup_us
                cost += self.engine.costs.dram_access_us
                if current_version != endorsed_version:
                    stale = True
                    break
            if stale:
                txn.mark_aborted(AbortReason.STALE_READ)
                commit_durations.append(cost)
                continue
            txn.mark_committed()
            for key in txn.updated_keys:
                base, _version = overlay.get(key)
                overlay.put(key, apply_safely(txn.write_set[key], base))
                cost += self.engine.write_cost(key)
                cost += self.engine.wal.append()
            txn.commit_cost_us = cost
            commit_durations.append(cost)

        return PreparedBlock(
            block_id=block_id, txns=txns, payload=(overlay, commit_durations)
        )


def endorsed_value_writes(txn: Txn, snapshot) -> None:
    """Freeze a transaction's commands into endorsed value writes.

    SOV ships evaluated write sets: each command is evaluated against the
    endorser's snapshot and replaced by a blind value write. Used by the
    SOV pipeline after endorsement simulation.
    """
    from repro.txn.commands import SetValue

    for key in list(txn.write_set):
        base, _version = snapshot.get(key)
        value = apply_safely(txn.write_set[key], base)
        # TOMBSTONE round-trips: SetValue(TOMBSTONE) installs the deletion.
        txn.write_set[key] = SetValue(value)
