"""Multi-core block-pipeline scheduler.

This module answers the question "given per-transaction simulated durations,
how long does a stream of blocks take on a C-core replica?" for the three
execution disciplines the paper compares:

- fully parallel simulation + **parallel commit** (Harmony, Aria);
- fully parallel simulation + **serial validation/commit** (RBC, Fabric);
- with or without **inter-block parallelism** (Section 3.4): block *i*'s
  simulation may start as soon as its required snapshot (block *i−2*) is
  committed and a core is free, instead of waiting for block *i−1* to
  fully finish.

The scheduler is a deterministic greedy list scheduler over a shared pool of
core free-times. It never influences commit/abort decisions — those are made
by the protocol layer before timing is computed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field


@dataclass
class BlockTiming:
    """Timing inputs for one block.

    ``sim_durations`` has one entry per transaction (its simulation-step
    duration, in us). ``commit_durations`` has one entry per commit-step
    task; for parallel-commit protocols these run concurrently, for
    serial-commit protocols they are chained on a single core.
    ``pre_exec_serial_us`` models work that must happen on the critical path
    before simulation starts (e.g. signature verification of the block,
    FastFabric#'s orderer-side graph traversal).
    ``post_commit_serial_us`` models per-block tail work (hash chaining,
    group-commit fsync).
    """

    arrival_us: float
    sim_durations: list[float]
    commit_durations: list[float]
    serial_commit: bool = False
    pre_exec_serial_us: float = 0.0
    post_commit_serial_us: float = 0.0


@dataclass
class PipelineResult:
    """Outcome of scheduling a stream of blocks."""

    commit_finish_us: list[float]
    makespan_us: float
    busy_core_us: float
    num_cores: int
    #: per-block simulation start times (diagnostics / tests)
    sim_start_us: list[float] = field(default_factory=list)

    @property
    def cpu_utilization(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return min(1.0, self.busy_core_us / (self.num_cores * self.makespan_us))


def merge_shard_results(results: list[PipelineResult]) -> PipelineResult:
    """Fold per-shard pipeline results into one aggregate timeline.

    Shards run on disjoint core budgets (scale-out: each shard is its own
    replica group), so their lanes overlap in wall-clock time: the global
    block *i* is committed when its slowest shard finishes it, the run's
    makespan is the slowest shard's, busy time and core counts add, and
    utilization follows from the sums. All inputs must cover the same
    number of blocks (every shard processes every global block, empty
    sub-blocks included — that alignment is what makes the per-index max
    meaningful).
    """
    if not results:
        raise ValueError("need at least one shard result")
    num_blocks = len(results[0].commit_finish_us)
    if any(len(r.commit_finish_us) != num_blocks for r in results):
        raise ValueError("shard lanes cover different block counts")
    commit_finish = [
        max(r.commit_finish_us[i] for r in results) for i in range(num_blocks)
    ]
    return PipelineResult(
        commit_finish_us=commit_finish,
        makespan_us=max(r.makespan_us for r in results),
        busy_core_us=sum(r.busy_core_us for r in results),
        num_cores=sum(r.num_cores for r in results),
    )


class PipelineSimulator:
    """Schedules a stream of blocks on ``num_cores`` cores.

    With ``inter_block=False`` a block's simulation step becomes ready only
    when the previous block has fully committed. With ``inter_block=True``
    it becomes ready when block *i − snapshot_lag* has committed (the
    snapshot it simulates against), so later blocks can absorb idle cores
    left by a straggler. Commit steps always run in block order (Section
    3.4: "Harmony still runs the commit step of block i−1 before the commit
    step of block i to uphold determinism").
    """

    def __init__(
        self,
        num_cores: int,
        inter_block: bool = False,
        snapshot_lag: int = 2,
    ) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        if snapshot_lag < 1:
            raise ValueError("snapshot lag must be >= 1")
        self.num_cores = num_cores
        self.inter_block = inter_block
        self.snapshot_lag = snapshot_lag

    def simulate(self, blocks: list[BlockTiming]) -> PipelineResult:
        # a task's ``max(a, b)`` is written ``b if b > a else a``: the same
        # operand on ties (and on nan) as the builtin, without its call
        cores = [0.0] * self.num_cores  # core free times, a heap (all equal)
        heapreplace = heapq.heapreplace
        busy = 0.0
        commit_finish: list[float] = []
        sim_starts: list[float] = []

        for i, block in enumerate(blocks):
            ready = block.arrival_us
            if self.inter_block:
                dep = i - self.snapshot_lag
            else:
                dep = i - 1
            if dep >= 0:
                ready = max(ready, commit_finish[dep])
            ready += block.pre_exec_serial_us
            busy += block.pre_exec_serial_us

            # --- simulation step: parallel tasks over the shared core pool.
            sim_finish = ready
            first_start = None
            for dur in block.sim_durations:
                # the earliest-free core takes the task: one heap operation
                free = cores[0]
                start = free if free > ready else ready
                finish = start + dur
                heapreplace(cores, finish)
                busy += dur
                if finish > sim_finish:
                    sim_finish = finish
                if first_start is None or start < first_start:
                    first_start = start
            sim_starts.append(first_start if first_start is not None else ready)

            # --- commit step: in block order, after the block's simulation.
            commit_ready = sim_finish
            if i > 0:
                commit_ready = max(commit_ready, commit_finish[i - 1])
            if block.serial_commit:
                finish = commit_ready + sum(block.commit_durations)
                busy += sum(block.commit_durations)
            else:
                finish = commit_ready
                for dur in block.commit_durations:
                    free = cores[0]
                    start = free if free > commit_ready else commit_ready
                    end = start + dur
                    heapreplace(cores, end)
                    busy += dur
                    if end > finish:
                        finish = end
            finish += block.post_commit_serial_us
            busy += block.post_commit_serial_us
            commit_finish.append(finish)

        makespan = commit_finish[-1] if commit_finish else 0.0
        return PipelineResult(
            commit_finish_us=commit_finish,
            makespan_us=makespan,
            busy_core_us=busy,
            num_cores=self.num_cores,
            sim_start_us=sim_starts,
        )
