"""RBC: the blockchain relational database (Nathan et al., VLDB 2019).

An Order-Execute blockchain whose replicas execute a block concurrently
against the block snapshot and then validate **serially** in TID order
(Section 2.2.2: "it still needs to validate transactions serially to uphold
determinism"). Validation is based on serializable snapshot isolation's
dangerous structure, evaluated transaction-locally:

- first-committer-wins on ww conflicts (snapshot isolation's base rule —
  "AriaBC and RBC abort a transaction on seeing a ww-dependency"); and
- an SSI pivot check: abort ``T`` when it has both an inbound and an
  outbound rw-antidependency among the block's transactions.

Fewer false aborts than Fabric's stale-read rule, but the serial validation
caps commit-step parallelism — RBC's optimal block size is small
(Figure 9/10).
"""

from __future__ import annotations

from repro.core.dependencies import BlockDependencyIndex
from repro.execution import (
    BlockExecution,
    DCCExecutor,
    OverlayView,
    PreparedBlock,
    simulate_transactions,
)
from repro.txn.commands import apply_safely
from repro.txn.transaction import AbortReason, Txn


class RBCExecutor(DCCExecutor):
    """RBC DCC bound to a storage engine."""

    name = "rbc"

    def prepare_block(self, block_id: int, txns: list[Txn]) -> PreparedBlock:
        """Simulate, then run the serial validation pass (first-committer-
        wins + SSI pivot) to a local vote; physical writes wait for
        :meth:`commit_block`. All reads came from the pre-block snapshot, so
        deferring the writes cannot change any decision."""
        snapshot = self.snapshot_for(block_id, lag=1)
        sim_durations = simulate_transactions(txns, snapshot, self.registry, self.engine)

        index = BlockDependencyIndex(txns)
        has_in_rw: set[int] = set()
        has_out_rw: set[int] = set()
        for edge in index.rw_edges():
            has_out_rw.add(edge.reader_tid)  # reader rw-points at writer
            has_in_rw.add(edge.writer_tid)

        committed_writes: dict[object, int] = {}
        validation_costs: list[float] = []
        for txn in sorted(txns, key=lambda t: t.tid):
            validation_costs.append(
                self.engine.costs.op_cpu_us * (1 + len(txn.read_set) + len(txn.write_set))
            )
            if txn.aborted:
                continue
            ww = any(key in committed_writes for key in txn.write_set)
            if ww:
                txn.mark_aborted(AbortReason.WAW)
                continue
            if txn.tid in has_in_rw and txn.tid in has_out_rw:
                txn.mark_aborted(AbortReason.SSI_DANGEROUS_STRUCTURE)
                continue
            for key in txn.write_set:
                committed_writes[key] = txn.tid

        return PreparedBlock(
            block_id=block_id,
            txns=txns,
            sim_durations_us=sim_durations,
            snapshot_block_id=block_id - 1,
            payload=(snapshot, validation_costs),
        )

    def commit_block(
        self, prepared: PreparedBlock, abort_tids: frozenset = frozenset()
    ) -> BlockExecution:
        txns = prepared.txns
        snapshot, validation_costs = prepared.payload
        self.force_aborts(txns, abort_tids)

        overlay = OverlayView(snapshot, prepared.block_id)
        commit_durations: list[float] = []
        for i, txn in enumerate(sorted(txns, key=lambda t: t.tid)):
            if txn.aborted:
                commit_durations.append(validation_costs[i])
                continue
            txn.mark_committed()
            cost = validation_costs[i]
            for key in txn.updated_keys:
                if not self.in_scope(key):
                    continue
                base, _version = snapshot.get(key)
                overlay.put(key, apply_safely(txn.write_set[key], base))
                cost += self.engine.write_cost(key)
            txn.commit_cost_us = cost
            commit_durations.append(cost)

        return self.install(
            prepared, overlay.ordered_writes(), commit_durations, serial_commit=True
        )
