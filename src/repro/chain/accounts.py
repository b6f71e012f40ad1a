"""The run accounts: how a run is priced on the one modeled machine.

Both dataflows fold their blocks in here — the Order-Execute driver
(:class:`~repro.shard.system.ShardedBlockchain`, one lane per shard) and
Simulate-Order-Validate (:class:`~repro.chain.sov.SOVBlockchain`, one lane)
— so Figures 7, 13, 15 and 17 put numbers counted and clocked one way on
one axis: the retry queue, the decision digest, the :class:`BlockStats`
fold with the run's one false-abort count, split by abort reason and shard
(:meth:`~repro.dcc.oracle.SerializabilityOracle.count_false_aborts`), and
dangerous-structure sum, one :class:`~repro.sim.scheduler.BlockTiming` per
lane execution, the :class:`~repro.sim.scheduler.PipelineSimulator` lanes,
the per-block latency and the io / state / ledger totals. What a block
costs before it reaches here is its replica's
(:meth:`~repro.chain.node.ReplicaNode.finish_block` prices the ingest) or,
for remote reads and votes, the sharded driver's.
"""

from __future__ import annotations

from repro.chain.config import decision_part, digest_parts
from repro.dcc.oracle import SerializabilityOracle, false_total
from repro.sim.metrics import BlockStats, RunMetrics
from repro.sim.scheduler import BlockTiming, PipelineSimulator, merge_shard_results
from repro.storage.mvstore import combine_state_hashes
from repro.txn.transaction import TxnStatus


class RunAccounts:
    """What a run accumulates block by block, and how it is closed."""

    def __init__(self, system: str, workload: str, lanes: int = 1) -> None:
        self.metrics = RunMetrics(system=system, workload=workload)
        #: one :class:`~repro.sim.scheduler.BlockTiming` list per lane
        self.lanes: list[list] = [[] for _ in range(lanes)]
        #: one :func:`~repro.chain.config.decision_part` per block: all the
        #: decision digest needs, so a block's transactions die with it
        self.decision_parts: list[str] = []
        self.per_block_committed: list[int] = []
        #: specs of aborted transactions, which clients resubmit
        self.retry_queue: list = []

    def next_specs(self, workload, block_size: int, rng) -> tuple[list, int]:
        """The next block's specs — resubmitted ones first, then fresh — and
        how many of them are retries."""
        retries = self.retry_queue[:block_size]
        self.retry_queue = self.retry_queue[block_size:]
        fresh = workload.generate_block(block_size - len(retries), rng)
        return retries + fresh, len(retries)

    def absorb(
        self,
        block_id: int,
        txns,
        executions,
        arrival_us: float,
        graph=None,
        chain_order=None,
        participants=None,
    ) -> BlockStats:
        """Fold one committed block: its decisions (``txns``, one record per
        transaction), its false aborts split by reason and coordinator shard
        (``participants[j]``, the shards transaction ``j`` ran on; one lane
        without it), its aborts' resubmission and one timing per lane
        (``executions``, a :class:`~repro.execution.BlockExecution` per lane
        in lane order, the block arriving at ``arrival_us``). ``graph`` is
        the committed set's graph when the caller holds the one built over
        these very ``txns``; ``chain_order`` the per-key apply order the
        oracle assumes."""
        self.decision_parts.append(decision_part(block_id, txns))
        split = SerializabilityOracle.count_false_aborts(
            txns, chain_order=chain_order, graph=graph, participants=participants
        )
        stats = BlockStats(
            block_id,
            false_aborts=false_total(split) if split else 0,
            abort_split=split,
            # validator events are per-lane observations (a cross-shard
            # transaction is validated at every participant)
            dangerous_structure_hits=sum(
                e.stats.dangerous_structure_hits for e in executions
            ),
        )
        # the per-transaction loops compare ``status`` directly: the
        # ``committed`` / ``aborted`` properties cost a frame per read
        committed, aborted = TxnStatus.COMMITTED, TxnStatus.ABORTED
        for txn in txns:
            status = txn.status
            if status is committed:
                stats.committed += 1
            elif status is aborted:
                stats.aborted += 1
        self.metrics.merge_block(stats)
        self.per_block_committed.append(stats.committed)
        # clients resubmit aborted transactions: their aborts cost a
        # high-abort protocol the next blocks' slots
        self.retry_queue.extend(t.spec for t in txns if t.status is aborted)
        for lane, execution in zip(self.lanes, executions):
            lane.append(
                BlockTiming(
                    arrival_us=arrival_us,
                    sim_durations=execution.sim_durations_us,
                    commit_durations=execution.commit_durations_us,
                    serial_commit=execution.serial_commit,
                    pre_exec_serial_us=execution.pre_exec_serial_us,
                    post_commit_serial_us=execution.post_commit_serial_us,
                )
            )
        return stats

    def finish(
        self, cores, inter_block: bool, snapshot_lag: int, fixed_latency_us, reply_us, nodes
    ) -> RunMetrics:
        """Clock the lanes (``cores`` wide each: one replica machine's),
        price every committed transaction and total the replicas; returns
        the run's metrics."""
        metrics = self.metrics
        scheduler = PipelineSimulator(
            num_cores=cores, inter_block=inter_block, snapshot_lag=snapshot_lag
        )
        results = [scheduler.simulate(timings) for timings in self.lanes]
        # lanes run on disjoint cores: one timeline, the slowest lane's
        merged = merge_shard_results(results)
        metrics.sim_time_us = merged.makespan_us
        metrics.cpu_utilization = merged.cpu_utilization
        # per-block service latency of every committed transaction, backlog
        # excluded: what a client observes at sustainable load — the fixed
        # front (consensus, SOV's endorsement), execution from the moment
        # the replica could start the block, and the reply hop
        commit_finish = merged.commit_finish_us
        arrivals = self.lanes[0]
        for i, committed in enumerate(self.per_block_committed):
            started = arrivals[i].arrival_us
            if i > 0:
                started = max(started, commit_finish[i - 1])
            block_latency = fixed_latency_us + (commit_finish[i] - started) + reply_us
            metrics.latencies_us.extend([block_latency] * committed)
        for node in nodes:
            engine = node.engine
            metrics.io_reads += engine.io_reads
            metrics.io_writes += engine.io_writes
            metrics.buffer_hits += engine.buffer_hits
            metrics.buffer_misses += engine.buffer_misses
        metrics.extra["state_hash"] = combine_state_hashes(
            [node.state_hash() for node in nodes]
        )
        metrics.extra["ledger_ok"] = all(node.ledger.verify_chain() for node in nodes)
        metrics.extra["decision_digest"] = digest_parts(self.decision_parts)
        return metrics
