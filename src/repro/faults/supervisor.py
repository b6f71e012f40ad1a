"""Supervised sharded execution: detect, recover, re-join, retry.

:class:`SupervisedShardGroup` wraps a :class:`ShardedBlockchain` and is a
*schedule* of its block walk: :meth:`~SupervisedShardGroup.process_block`
calls the chain's four stage methods (route, prepare, certify, commit) in
the order ``process_global_block`` does, and owns only what happens
between them — it neither prepares, certifies, commits nor emits a stage's
spans itself; its own moments (crash, retry, recovery, catch-up) go to the
chain's tracer like the stages'. What it adds around the stages:

- **crashed shards** are rebuilt with
  :func:`~repro.shard.recovery.recover_shard_node` from their durable
  artifacts, re-joined to the fleet (the federation closures re-point at
  the recovered store in place), re-armed with the fault seams, and caught
  up on any sub-block their log never held;
- **vote exchange** runs under bounded retry with deterministic
  exponential backoff (:class:`RetryPolicy`): every round retransmits the
  cast votes through the (possibly faulty) wire, and between rounds the
  supervisor heals what it can — recovering a shard that died before it
  could vote buys its vote back within the same block;
- **exhausted retries** fall to the timeout→abort degradation: the
  certificate synthesizes vetoes for the votes that never arrived
  (:func:`~repro.shard.twopc.reconcile_votes`), so an unhealed partition
  aborts cross-shard transactions deterministically instead of guessing;
- **lagging shards** (multi-block partition windows) are caught up when
  the window closes, replaying the missed sub-blocks under their recorded
  certificates.

All supervision overhead (backoff waits, retry rounds, recovery
round-trips) accumulates into ``injected_delay_us``, priced through the
chain's :class:`~repro.consensus.network.NetworkModel` — fault handling
shows up as latency, never as nondeterminism.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.inject import FaultInjector, FaultyVoteChannel
from repro.faults.plan import (
    CRASH_AFTER_COMMIT,
    CRASH_AFTER_PREPARE,
    CRASH_BEFORE_PREPARE,
    MIGRATION_KINDS,
)
from repro.shard.rebalance import install_migration
from repro.shard.recovery import recover_shard_node
from repro.shard.replay import replay_blocks
from repro.shard.twopc import ShardVote, derive_votes


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic bounded retry with exponential backoff.

    The schedule is a pure function of the policy — no clocks, no
    jitter — so every replica of the supervisor waits the same simulated
    microseconds and gives up after the same round. Its values are the
    supervisor's protocol parameters, not calibrations of the modeled clock.
    """

    max_attempts: int = 5
    base_backoff_us: float = 50.0
    multiplier: float = 2.0
    max_backoff_us: float = 5000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("retry policy needs at least one attempt")
        if self.multiplier < 1.0:
            raise ValueError("backoff must be non-decreasing")

    def backoff_us(self, attempt: int) -> float:
        """Wait before retry round ``attempt`` (0-indexed), capped."""
        return min(
            self.base_backoff_us * self.multiplier**attempt,
            self.max_backoff_us,
        )

    def schedule(self) -> tuple:
        """The full backoff schedule, one entry per possible retry."""
        return tuple(
            self.backoff_us(a) for a in range(self.max_attempts - 1)
        )


class SupervisedShardGroup:
    """Drives a sharded chain block-by-block under fault supervision."""

    def __init__(
        self,
        chain,
        injector: FaultInjector,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.chain = chain
        self.injector = injector
        self.policy = policy or RetryPolicy()
        self.channel = FaultyVoteChannel(injector.plan)
        injector.arm(chain)
        #: every global block's sub-block split, for catch-up delivery
        self.sub_block_log: list[dict] = []
        #: shards currently dead (corpse still holds the durable artifacts)
        self._crashed: set[int] = set()
        #: partition windows already caught up, keyed (shard, start block)
        self._healed_windows: set = set()
        #: (shard, block_id) -> {tid: txn} from live commits, recovery
        #: replay and catch-up — the decision records' single source
        self._shard_block_txns: dict = {}
        #: per block: (block_id, [(tid, coordinator shard), ...])
        self._rows: list = []
        # --- supervision accounting
        self.injected_delay_us = 0.0
        self.retry_rounds = 0
        self.recoveries = 0
        self.failed_recoveries = 0
        self.degraded_blocks: list[int] = []

    # ------------------------------------------------------------ driving
    def process_block(self, block) -> dict:
        """One global block under supervision; returns the live
        per-shard executions (crashed/lagging shards may be absent —
        their records arrive via recovery replay or catch-up)."""
        chain = self.chain
        plan = self.injector.plan
        bid = block.block_id

        self._heal_lagging(bid)

        def _migration_barrier() -> None:
            # a due re-key ships key versions as of bid-1, so every store
            # must reach the boundary first: stragglers (open partition
            # windows) are forced to sync — the shipment's source values
            # must match the reference chain's, or the hash-covered record
            # (and with it the certificate chain) would diverge
            for shard, node in enumerate(chain.group.nodes):
                if node.engine.store.last_committed_block < bid - 1:
                    self._catch_up(shard, node)

        outcome = chain.route_global_block(
            block, migration_barrier=_migration_barrier
        )
        expected = outcome.expected
        self.sub_block_log.append(outcome.sub_blocks)

        # migration-family faults: the shard died while the boundary
        # shipment was in flight (its store load was skipped or torn by the
        # armed hook). The shipment is a synchronous coordinated step, so
        # the supervisor detects the casualty immediately and rebuilds the
        # shard *before* any peer can read the corrupt boundary state. If
        # no migration was actually due, degrade to a plain before-prepare
        # crash — the fault still fires, just without a shipment to tear.
        mig_dead = {
            shard
            for kind in sorted(MIGRATION_KINDS)
            for shard in plan.crash_shards(bid, kind)
        }
        if outcome.migration is not None and mig_dead:
            self._recover_migration_casualties(mig_dead, outcome.migration, bid)
            mig_dead = set()
        dead_before = plan.crash_shards(bid, CRASH_BEFORE_PREPARE) | mig_dead
        self._crash(dead_before, bid, "before-prepare")
        chain.prepare_global_block(
            outcome, skip=frozenset(self._crashed | plan.lagging_shards(bid))
        )
        cast = derive_votes(outcome.prepared, expected)

        # crash-after-prepare: the vote hit the wire, then the shard died
        # (with ``tear_log`` the log write behind the vote also tore).
        self._crash(plan.crash_shards(bid, CRASH_AFTER_PREPARE), bid, "after-prepare")

        # --- vote exchange under bounded deterministic retry ------------
        tracer = chain.tracer
        expected_pairs = {
            (tid, shard) for tid, shards in expected.items() for shard in shards
        }
        arrived: list[ShardVote] = []
        attempt = 0
        while True:
            arrived.extend(self.channel.deliver(cast, bid, attempt))
            missing = expected_pairs - {(v.tid, v.shard_id) for v in arrived}
            if not missing:
                break
            attempt += 1
            if attempt >= self.policy.max_attempts:
                # timeout→abort degradation: the certificate will
                # synthesize vetoes for every still-missing vote
                self.degraded_blocks.append(bid)
                if tracer is not None:
                    tracer.degraded(bid, attempt, len(missing))
                break
            self.retry_rounds += 1
            backoff_us = self.policy.backoff_us(attempt - 1)
            round_rtt_us = chain.network.rtt_us(chain.config.num_shards)
            self.injected_delay_us += backoff_us
            self.injected_delay_us += round_rtt_us
            if tracer is not None:
                tracer.vote_retried(bid, attempt, backoff_us + round_rtt_us, len(missing))
            # a shard that died before voting can be recovered mid-window:
            # its log holds only certified blocks, so replay is complete,
            # and re-entering the prepare stage for it alone delivers this
            # sub-block and buys the missing vote back
            for shard in sorted(
                {s for (_, s) in missing} & dead_before & self._crashed
            ):
                if self._recover(shard, bid) is None:
                    continue  # crash-during-recovery: attempt consumed
                everyone_else = frozenset(range(chain.config.num_shards)) - {shard}
                chain.prepare_global_block(
                    outcome, skip=everyone_else, attempt=attempt
                )
                cast = derive_votes(outcome.prepared, expected)

        chain.certify_global_block(outcome, votes=arrived)
        chain.commit_global_block(outcome, skip=frozenset(self._crashed))
        for shard, execution in outcome.executions.items():
            self._shard_block_txns.setdefault(
                (shard, bid), {t.tid: t for t in execution.txns}
            )

        # crash-after-commit: committed, then died before the checkpoint
        # write survived (the armed checkpoint hook already skipped/tore it)
        self._crash(plan.crash_shards(bid, CRASH_AFTER_COMMIT), bid, "after-commit")

        # --- end-of-block supervision: every corpse recovers now that the
        # certificate landed, so replay covers this block too.
        for shard in sorted(self._crashed):
            self._catch_up(shard, self._recover_until_alive(shard, bid))

        participants = outcome.participants
        self._rows.append(
            (
                bid,
                [
                    (block.first_tid + j, min(participants[j]))
                    for j in range(block.size)
                ],
            )
        )
        return outcome.executions

    def finalize(self) -> None:
        """End of run: close every partition window and catch up."""
        self._heal_lagging(None)
        if self._crashed:
            raise RuntimeError(f"unrecovered shards at finalize: {self._crashed}")

    # ------------------------------------------------------------ healing
    def _recover(self, shard: int, block_id: int):
        """One recovery attempt for ``shard``; ``None`` = the attempt
        itself crashed (double fault) and the durable artifacts are
        untouched, ready for the next attempt."""
        chain = self.chain
        tracer = chain.tracer
        rtt_us = chain.network.rtt_us(chain.config.num_shards)
        corpse = chain.group.nodes[shard]
        stores = chain.group._stores
        if self.injector.recovery_fails(shard, block_id):
            # the recovering process dies mid-replay: run it and discard —
            # recovery only reads the durable artifacts, so a half-done
            # attempt leaves nothing behind
            recover_shard_node(
                corpse, shard, stores, chain.router, chain.cert_log
            )
            self.failed_recoveries += 1
            self.injected_delay_us += rtt_us
            if tracer is not None:
                tracer.recovery_failed(block_id, shard, rtt_us)
            return None
        recovery = recover_shard_node(
            corpse, shard, stores, chain.router, chain.cert_log
        )
        chain.group.rejoin(shard, recovery.node)
        self.injector.arm_node(shard, recovery.node)
        self._crashed.discard(shard)
        self.recoveries += 1
        self.injected_delay_us += rtt_us
        if tracer is not None:
            tracer.recovered(block_id, shard, rtt_us, len(recovery.replayed_blocks))
        for replayed_bid, txns in recovery.replayed_blocks:
            self._shard_block_txns.setdefault(
                (shard, replayed_bid), {t.tid: t for t in txns}
            )
        return recovery.node

    def _crash(self, shards, bid: int, window: str) -> None:
        """Mark ``shards`` dead from ``window`` of block ``bid`` on."""
        self._crashed |= shards
        if self.chain.tracer is not None:
            self.chain.tracer.crashed(bid, shards, window)

    def _recover_until_alive(self, shard: int, bid: int):
        """Recovery attempts until one survives, within the retry budget
        (each double fault consumes an attempt)."""
        for _ in range(self.policy.max_attempts):
            node = self._recover(shard, bid)
            if node is not None:
                return node
        raise RuntimeError(f"shard {shard} recovery exceeded retry budget")

    def _recover_migration_casualties(self, shards, migration, bid: int) -> None:
        """Rebuild every shard whose migration shipment was fated.

        The certificate for ``bid`` does not exist yet (votes haven't been
        cast), so recovery replays only through ``bid - 1`` — the
        supervisor then re-ships this record's boundary deltas to the
        rebuilt store, and the shard prepares ``bid`` live like everyone
        else."""
        chain = self.chain
        for shard in sorted(shards):
            self._crash({shard}, bid, "during-migration")
            node = self._recover_until_alive(shard, bid)
            install_migration(
                migration, chain.router, {shard: node.executor}, chain._store_mig_epochs
            )

    def _catch_up(self, shard: int, node) -> None:
        """Deliver every logged-and-certified sub-block the replica's
        ledger doesn't cover yet (torn log tails, missed windows) — the one
        replay loop, fed from the supervisor's sub-block log.

        Migration-aware: a certified re-key at block *b* re-applies its
        boundary shipment before block *b*'s replay iff the live shipment
        skipped this store (watermark below the record's epoch — the store
        was behind the boundary when it fired)."""
        chain = self.chain
        tracer = chain.tracer
        rtt_us = chain.network.rtt_us(chain.config.num_shards)
        from_block = len(node.ledger)
        caught_up = 0

        def delivered(block_id, executions) -> None:
            nonlocal caught_up
            if tracer is not None:
                tracer.checkpointed(shard, block_id, node.engine.checkpoints)
            self._shard_block_txns.setdefault(
                (shard, block_id), {t.tid: t for t in executions[shard].txns}
            )
            self.injected_delay_us += rtt_us
            caught_up += 1

        replay_blocks(
            {shard: node},
            (
                (b, self.sub_block_log[b])
                for b in range(from_block, len(self.sub_block_log))
            ),
            chain.cert_log,
            chain.router,
            on_commit=delivered,
            watermarks=chain._store_mig_epochs,
        )
        if caught_up and tracer is not None:
            tracer.caught_up(shard, caught_up * rtt_us, from_block, caught_up)

    def _heal_lagging(self, upto_block: int | None) -> None:
        """Catch up shards whose partition window closed before
        ``upto_block`` (``None`` = end of run, close everything)."""
        for event in self.injector.plan.partition_windows():
            end = event.block_id + event.blocks
            key = (event.shard, event.block_id)
            if key in self._healed_windows:
                continue
            if upto_block is None or end <= upto_block:
                self._healed_windows.add(key)
                self._catch_up(
                    event.shard, self.chain.group.nodes[event.shard]
                )

    # ------------------------------------------------------------ records
    def decision_records(self) -> list:
        """``(block_id, [txn, ...])`` per global block, each transaction's
        record taken from its coordinator shard — the same merged view
        the unsupervised ``run()`` builds. Raises if a shard never healed
        (call :meth:`finalize` first)."""
        out = []
        for bid, pairs in self._rows:
            txns = []
            for tid, coordinator in pairs:
                block_txns = self._shard_block_txns.get((coordinator, bid))
                if block_txns is None or tid not in block_txns:
                    raise RuntimeError(
                        f"no decision record for tid {tid} "
                        f"(shard {coordinator}, block {bid})"
                    )
                txns.append(block_txns[tid])
            out.append((bid, txns))
        return out
