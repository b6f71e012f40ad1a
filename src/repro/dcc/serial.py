"""Serial Order-Execute baseline (Quorum / Diem / Concord style).

Every replica executes the block's transactions one at a time in TID order
against the latest state. Trivially deterministic and serializable, zero
aborts, zero concurrency — the floor that all DCC protocols improve on
(Section 2.1.2: "one way is to enforce the individual replicas to honor the
transaction order in the block by executing the transactions serially").
"""

from __future__ import annotations

from repro.execution import OverlayExecutor, OverlayView, PreparedBlock
from repro.txn.commands import apply_safely
from repro.txn.context import SimulationContext
from repro.txn.transaction import AbortReason, Txn


class SerialExecutor(OverlayExecutor):
    """One-at-a-time execution; each transaction sees its predecessors."""

    name = "serial"

    def prepare_block(self, block_id: int, txns: list[Txn]) -> PreparedBlock:
        """Run the whole serial schedule into an overlay; only the install
        is deferred (:meth:`OverlayExecutor.commit_block`)."""
        overlay = OverlayView(self.snapshot_for(block_id, lag=1), block_id)
        durations: list[float] = []
        for txn in sorted(txns, key=lambda t: t.tid):
            ctx = SimulationContext(txn, overlay, self.engine)
            try:
                txn.output = self.registry.execute(ctx)
            except (KeyError, TypeError, ValueError):
                txn.mark_aborted(AbortReason.EXECUTION_ERROR)
                durations.append(ctx.cost_us)
                continue
            for key in txn.updated_keys:
                base, _version = overlay.get(key)
                overlay.put(key, apply_safely(txn.write_set[key], base))
                ctx.charge(self.engine.write_cost(key))
            txn.mark_committed()
            txn.sim_cost_us = ctx.cost_us
            durations.append(ctx.cost_us)

        return PreparedBlock(
            block_id=block_id,
            txns=txns,
            snapshot_block_id=block_id - 1,
            payload=(overlay, durations),
        )
