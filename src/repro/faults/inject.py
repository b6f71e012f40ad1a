"""Arming fault plans into the pipeline's injection points.

The pipeline exposes three fault seams, each a ``None``-by-default hook
that costs one attribute check when no plan is armed:

- ``ShardedBlockchain.migration_hook`` — skips or tears a shard's boundary
  shipment inside ``apply_migration``, where no caller can reach;
- ``CheckpointManager.fault_hook`` — skips or tears checkpoint writes;
- ``BlockLog.fault_hook`` — tears the sub-block log tail.

:class:`FaultInjector` binds one :class:`~repro.faults.plan.FaultPlan` to
all three. Each durable-write fault fires **once** (the consumed-event set):
a recovered replica replaying the same block ids must not re-suffer the
fault, or recovery could never converge.

Crashes and vote faults need no seam: the block walk is four stage calls
(:mod:`repro.shard.system`), so the supervisor that schedules them leaves
a crashed shard out of a stage and passes the votes through
:class:`FaultyVoteChannel` on their way to the certify stage.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan


class FaultyVoteChannel:
    """The vote-exchange wire between the shards and the ordering layer,
    misbehaving per the armed plan (a plan without vote faults delivers
    every vote exactly once).

    Stateless across rounds: the fate of a vote is a pure function of
    ``(shard, block, attempt)``, so retransmitting the identical cast on
    every round is safe and deterministic.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def deliver(self, votes, block_id: int, attempt: int = 0):
        out = []
        for vote in votes:
            fate = self.plan.vote_fate(vote.shard_id, block_id, attempt)
            if fate == "drop":
                continue
            out.append(vote)
            if fate == "dup":
                out.append(vote)
        return out


class FaultInjector:
    """Binds one fault plan to a :class:`ShardedBlockchain`'s seams."""

    def __init__(self, plan: FaultPlan, num_shards: int) -> None:
        self.plan = plan
        self.num_shards = num_shards
        #: durable-write faults already delivered, keyed
        #: ``(site, shard, block_id)`` — one-shot so recovery replay of the
        #: same block ids never re-fires them
        self._fired: set = set()
        #: remaining crash-mid-recovery failures per (shard, block)
        self._recovery_left: dict = {}

    # ------------------------------------------------------------- arming
    def arm(self, chain) -> None:
        """Arm every seam of ``chain``; idempotent."""
        chain.migration_hook = self.migration_fates
        for shard, node in enumerate(chain.group.nodes):
            self.arm_node(shard, node)

    def arm_node(self, shard: int, node) -> None:
        """(Re-)arm one shard replica's durable-write seams.

        Called at start-up and again after a recovered node re-joins —
        recovered engines come up with clean hooks, and consumed events
        stay consumed.
        """
        node.engine.checkpoints.fault_hook = (
            lambda block_id, s=shard: self._checkpoint_fault(s, block_id)
        )
        node.engine.block_log.fault_hook = (
            lambda block, s=shard: self._log_fault(s, block)
        )

    # ----------------------------------------------------- site callbacks
    def migration_fates(self, block_id: int) -> dict | None:
        """The migration seam: per-shard boundary-shipment fates for a
        re-key at ``block_id`` (``{shard: "skip" | "torn"}``), one-shot —
        the supervisor's re-shipment to the rebuilt shard must land."""
        fates = {}
        for shard in range(self.num_shards):
            fate = self.plan.migration_fate(shard, block_id)
            if fate is None:
                continue
            key = ("migration", shard, block_id)
            if key in self._fired:
                continue
            self._fired.add(key)
            fates[shard] = fate
        return fates or None

    def _checkpoint_fault(self, shard: int, block_id: int) -> str | None:
        fault = self.plan.checkpoint_fault(shard, block_id)
        if fault is None:
            return None
        key = ("checkpoint", shard, block_id)
        if key in self._fired:
            return None
        self._fired.add(key)
        return fault

    def _log_fault(self, shard: int, block) -> bool:
        if not self.plan.log_tear(shard, block.block_id):
            return False
        key = ("log", shard, block.block_id)
        if key in self._fired:
            return False
        self._fired.add(key)
        return True

    # --------------------------------------------------------- supervision
    def recovery_fails(self, shard: int, block_id: int) -> bool:
        """Consume one crash-mid-recovery failure, if any remain."""
        key = (shard, block_id)
        if key not in self._recovery_left:
            self._recovery_left[key] = self.plan.recovery_failures_at(
                shard, block_id
            )
        if self._recovery_left[key] > 0:
            self._recovery_left[key] -= 1
            return True
        return False
