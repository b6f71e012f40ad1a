"""Declarative, seeded fault plans: what breaks, where, and when.

A :class:`FaultPlan` is a frozen schedule of :class:`FaultEvent`\\ s pinned
to (global block, shard) coordinates — the declarative replacement for the
hand-rolled crash flags PRs 4–5 grew. Every event site in the pipeline is
covered:

- **crash points** — before the sub-block arrives (never logged, never
  voted), between the prepare vote and the certificate append (the classic
  2PC window), and after the commit but before/during the checkpoint write
  (``tear_checkpoint`` turns the skipped write into a torn one, covering
  the mid-base-compaction case when the block is a compaction boundary).
  ``recovery_failures`` layers the double fault on top: that many recovery
  attempts crash mid-replay before one completes.
- **torn writes** — ``tear_checkpoint`` (delta or base, by block choice)
  and ``tear_log`` (the sub-block's log-tail write never became durable,
  so recovery cannot see the block the shard voted on).
- **2PC message faults** — vote drop / duplicate / delay on the exchange
  wire, and partition windows: in-block (``blocks == 1``) partitions heal
  after ``attempts`` delivery rounds; multi-block windows cut the shard
  off from sub-block delivery entirely until the window closes.

Plans are pure data: the same plan drives the injector, the supervisor
and the drill runner, and :func:`generate_chaos_plan` derives arbitrary
plans from a seed alone — reproducing a drill never needs more than
``(plan name or seed, scheme, shard count)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.rng import SeededRng

# -- crash points -------------------------------------------------------
#: the shard dies before the sub-block is delivered: nothing logged, no
#: vote cast — the supervisor must recover it and re-deliver the block
CRASH_BEFORE_PREPARE = "crash-before-prepare"
#: the 2PC window: the shard logs + prepares + votes, then dies before
#: the certificate lands — recovery replays the block under the recorded
#: decisions, never re-running the vote exchange
CRASH_AFTER_PREPARE = "crash-after-prepare"
#: the shard commits, then dies between the commit and the checkpoint
#: write (the checkpoint is lost or, with ``tear_checkpoint``, torn)
CRASH_AFTER_COMMIT = "crash-after-commit"

# -- 2PC message faults -------------------------------------------------
#: the shard's votes are lost for the first ``attempts`` delivery rounds
VOTE_DROP = "vote-drop"
#: the shard's votes arrive twice each round (idempotence drill)
VOTE_DUPLICATE = "vote-duplicate"
#: the shard's votes arrive only from round ``attempts`` on (late, not lost)
VOTE_DELAY = "vote-delay"
#: the shard is unreachable: ``blocks == 1`` cuts only this block's vote
#: exchange (heals after ``attempts`` rounds); ``blocks > 1`` cuts
#: sub-block delivery for the whole window — unhealed votes degrade to
#: timeout vetoes and the shard catches up when the window closes
PARTITION = "partition"

# -- migration faults ---------------------------------------------------
#: the shard dies between the ownership-record append and the arrival of
#: its key-version shipment: the boundary load never happens ("skip"),
#: the shard is rebuilt from its durable artifacts and re-shipped
CRASH_DURING_MIGRATION = "crash-during-migration"
#: the shard dies mid-apply: half the boundary shipment landed ("torn") —
#: the corrupt store is discarded by recovery, never read by a peer
TORN_MIGRATION = "torn-migration-delta"

CRASH_KINDS = frozenset(
    {CRASH_BEFORE_PREPARE, CRASH_AFTER_PREPARE, CRASH_AFTER_COMMIT}
)
VOTE_KINDS = frozenset({VOTE_DROP, VOTE_DUPLICATE, VOTE_DELAY, PARTITION})
#: migration faults only fire on a rebalance-armed chain, so they live in
#: their own family — outside the chaos generator's kind pool (seeded
#: chaos streams predate them and must stay byte-stable)
MIGRATION_KINDS = frozenset({CRASH_DURING_MIGRATION, TORN_MIGRATION})
ALL_KINDS = CRASH_KINDS | VOTE_KINDS | MIGRATION_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, pinned to a (block, shard) coordinate."""

    kind: str
    block_id: int
    shard: int
    #: vote faults: delivery rounds affected before the fault clears;
    #: an in-block partition heals at round ``attempts``
    attempts: int = 1
    #: partition window length in global blocks (> 1 = multi-block lag)
    blocks: int = 1
    #: double fault: recovery attempts that crash mid-replay before one
    #: completes (crash kinds only)
    recovery_failures: int = 0
    #: crash-after-commit: the checkpoint write tears instead of being
    #: lost outright (exercises the torn-delta / torn-base fallback)
    tear_checkpoint: bool = False
    #: crash-after-prepare: the sub-block's log-tail write tears — the
    #: crashed replica's log never held the block it voted on
    tear_log: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.block_id < 0 or self.shard < 0:
            raise ValueError("fault coordinates must be non-negative")
        if self.blocks < 1:
            raise ValueError("partition windows span at least one block")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule of fault events (pure data)."""

    name: str
    seed: int
    events: tuple = ()

    # ---------------------------------------------------------- queries
    def crashes(self, block_id: int, kind: str) -> tuple:
        """Crash events of ``kind`` scheduled at ``block_id``."""
        return tuple(
            e for e in self.events if e.kind == kind and e.block_id == block_id
        )

    def crash_shards(self, block_id: int, kind: str) -> frozenset:
        return frozenset(e.shard for e in self.crashes(block_id, kind))

    def partition_windows(self) -> tuple:
        """Multi-block partition events (``blocks > 1``)."""
        return tuple(
            e for e in self.events if e.kind == PARTITION and e.blocks > 1
        )

    def lagging_shards(self, block_id: int) -> frozenset:
        """Shards cut off from sub-block delivery at ``block_id``."""
        return frozenset(
            e.shard
            for e in self.partition_windows()
            if e.block_id <= block_id < e.block_id + e.blocks
        )

    def vote_fate(self, shard: int, block_id: int, attempt: int) -> str | None:
        """What the wire does to ``shard``'s votes on delivery round
        ``attempt`` of ``block_id``: ``"drop"``, ``"dup"`` or ``None``."""
        for e in self.events:
            if e.shard != shard:
                continue
            if e.kind in (VOTE_DROP, VOTE_DELAY):
                if e.block_id == block_id and attempt < e.attempts:
                    return "drop"
            elif e.kind == PARTITION:
                if e.blocks > 1:
                    if e.block_id <= block_id < e.block_id + e.blocks:
                        return "drop"
                elif e.block_id == block_id and attempt < e.attempts:
                    return "drop"
            elif e.kind == VOTE_DUPLICATE and e.block_id == block_id:
                return "dup"
        return None

    def recovery_failures_at(self, shard: int, block_id: int) -> int:
        return sum(
            e.recovery_failures
            for e in self.events
            if e.shard == shard
            and e.block_id == block_id
            and (e.kind in CRASH_KINDS or e.kind in MIGRATION_KINDS)
        )

    def migration_fate(self, shard: int, block_id: int) -> str | None:
        """Boundary-shipment fate at a migration-crash site: ``"skip"``
        (died before the load), ``"torn"`` (died mid-apply) or ``None``."""
        for e in self.crashes(block_id, TORN_MIGRATION):
            if e.shard == shard:
                return "torn"
        for e in self.crashes(block_id, CRASH_DURING_MIGRATION):
            if e.shard == shard:
                return "skip"
        return None

    def checkpoint_fault(self, shard: int, block_id: int) -> str | None:
        """Checkpoint-write fate at a crash-after-commit site:
        ``"tear"``, ``"skip"`` or ``None``."""
        for e in self.crashes(block_id, CRASH_AFTER_COMMIT):
            if e.shard == shard:
                return "tear" if e.tear_checkpoint else "skip"
        return None

    def log_tear(self, shard: int, block_id: int) -> bool:
        """Whether the sub-block log write tears at this coordinate."""
        return any(
            e.tear_log
            for e in self.crashes(block_id, CRASH_AFTER_PREPARE)
            if e.shard == shard
        )


def generate_chaos_plan(
    seed: int, num_blocks: int, num_shards: int, num_events: int = 3
) -> FaultPlan:
    """Derive a healing chaos plan from a seed alone.

    Events land on distinct blocks (never block 0, and never the final
    block, so every fault has room to heal before the run ends) with
    seeded kinds and shards. Every generated event heals within the
    supervisor's default retry budget — chaos plans belong to the
    bit-identity matrix, not the degradation tests.
    """
    if num_blocks < 4:
        raise ValueError("chaos plans need at least four blocks of room")
    rng = SeededRng(seed, "faults/chaos")
    # migration kinds need a rebalance-armed chain, so chaos draws from the
    # original pool — existing seeded streams stay byte-stable
    kinds = sorted(ALL_KINDS - MIGRATION_KINDS)
    candidates = list(range(1, num_blocks - 1))
    blocks = sorted(rng.sample(candidates, min(num_events, len(candidates))))
    events = []
    for block_id in blocks:
        kind = rng.choice(kinds)
        shard = rng.randint(0, num_shards - 1)
        events.append(
            FaultEvent(
                kind=kind,
                block_id=block_id,
                shard=shard,
                attempts=rng.randint(1, 2) if kind in VOTE_KINDS else 1,
                recovery_failures=(
                    1 if kind in CRASH_KINDS and rng.random() < 0.25 else 0
                ),
                tear_checkpoint=(
                    kind == CRASH_AFTER_COMMIT and rng.random() < 0.5
                ),
                tear_log=(kind == CRASH_AFTER_PREPARE and rng.random() < 0.25),
            )
        )
    return FaultPlan(name=f"chaos-{seed}", seed=seed, events=tuple(events))


def standard_plans(
    num_blocks: int = 8, num_shards: int = 3, seed: int = 61
) -> list[FaultPlan]:
    """The named drill matrix: every fault family, all healing.

    Block choices assume the drill config (``checkpoint_interval=2``,
    ``base_interval=2``): checkpoints land at blocks 1, 3, 5, 7 and base
    compactions at 3 and 7 — so a torn checkpoint at block 5 tears a
    *delta* and one at block 3 tears the freshly compacted *base*.
    """
    if num_blocks < 8:
        raise ValueError("standard plans are laid out for >= 8 blocks")
    s = lambda k: k % num_shards  # noqa: E731 - shard coordinate fold

    def plan(name, *events):
        return FaultPlan(name=name, seed=seed, events=tuple(events))

    return [
        plan("baseline-no-fault"),
        plan(
            "crash-before-prepare",
            FaultEvent(CRASH_BEFORE_PREPARE, block_id=4, shard=s(1)),
        ),
        plan(
            "crash-after-prepare",
            FaultEvent(CRASH_AFTER_PREPARE, block_id=5, shard=s(0)),
        ),
        plan(
            "crash-after-commit",
            FaultEvent(CRASH_AFTER_COMMIT, block_id=5, shard=s(2)),
        ),
        plan(
            "torn-delta-checkpoint",
            FaultEvent(
                CRASH_AFTER_COMMIT, block_id=5, shard=s(1), tear_checkpoint=True
            ),
        ),
        plan(
            "torn-base-compaction",
            FaultEvent(
                CRASH_AFTER_COMMIT, block_id=3, shard=s(0), tear_checkpoint=True
            ),
        ),
        plan(
            "torn-log-tail",
            FaultEvent(
                CRASH_AFTER_PREPARE, block_id=6, shard=s(2), tear_log=True
            ),
        ),
        plan(
            "crash-during-recovery",
            FaultEvent(
                CRASH_AFTER_PREPARE, block_id=4, shard=s(1), recovery_failures=2
            ),
        ),
        plan(
            "vote-drop",
            FaultEvent(VOTE_DROP, block_id=3, shard=s(1), attempts=2),
        ),
        plan(
            "vote-duplicate",
            FaultEvent(VOTE_DUPLICATE, block_id=2, shard=s(0)),
        ),
        plan(
            "vote-delay",
            FaultEvent(VOTE_DELAY, block_id=6, shard=s(1), attempts=1),
        ),
        plan(
            "partition-2pc",
            FaultEvent(PARTITION, block_id=5, shard=s(2), attempts=2),
        ),
        # migration family: drills arm an aggressive rebalance policy for
        # these, so a re-key is actually due at the faulted block
        plan(
            "migration-crash",
            FaultEvent(CRASH_DURING_MIGRATION, block_id=4, shard=s(1)),
        ),
        plan(
            "torn-migration-delta",
            FaultEvent(TORN_MIGRATION, block_id=4, shard=s(0)),
        ),
        generate_chaos_plan(seed, num_blocks, num_shards),
    ]
