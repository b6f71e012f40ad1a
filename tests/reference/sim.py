"""Modeled-clock reference (``sim/``): the pipeline schedule with one heap
pop and one heap push per task."""

from __future__ import annotations

import heapq

from repro.sim.scheduler import BlockTiming, PipelineResult


def pipeline_schedule(
    blocks: list[BlockTiming],
    num_cores: int,
    inter_block: bool = False,
    snapshot_lag: int = 2,
) -> PipelineResult:
    """What ``PipelineSimulator(num_cores, inter_block, snapshot_lag)
    .simulate(blocks)`` must return: every task pops the earliest-free core
    and pushes it back busy until the task's end."""
    cores = [0.0] * num_cores
    heapq.heapify(cores)
    busy = 0.0
    commit_finish: list[float] = []
    sim_starts: list[float] = []
    for i, block in enumerate(blocks):
        ready = block.arrival_us
        dep = i - snapshot_lag if inter_block else i - 1
        if dep >= 0:
            ready = max(ready, commit_finish[dep])
        ready += block.pre_exec_serial_us
        busy += block.pre_exec_serial_us
        sim_finish = ready
        first_start = None
        for dur in block.sim_durations:
            start = max(ready, heapq.heappop(cores))
            finish = start + dur
            heapq.heappush(cores, finish)
            busy += dur
            sim_finish = max(sim_finish, finish)
            if first_start is None or start < first_start:
                first_start = start
        sim_starts.append(first_start if first_start is not None else ready)
        commit_ready = sim_finish
        if i > 0:
            commit_ready = max(commit_ready, commit_finish[i - 1])
        if block.serial_commit:
            finish = commit_ready + sum(block.commit_durations)
            busy += sum(block.commit_durations)
        else:
            finish = commit_ready
            for dur in block.commit_durations:
                start = max(commit_ready, heapq.heappop(cores))
                end = start + dur
                heapq.heappush(cores, end)
                busy += dur
                finish = max(finish, end)
        finish += block.post_commit_serial_us
        busy += block.post_commit_serial_us
        commit_finish.append(finish)
    return PipelineResult(
        commit_finish_us=commit_finish,
        makespan_us=commit_finish[-1] if commit_finish else 0.0,
        busy_core_us=busy,
        num_cores=num_cores,
        sim_start_us=sim_starts,
    )
