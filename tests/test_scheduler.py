"""Tests for the multi-core block-pipeline scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.scheduler import BlockTiming, PipelineSimulator

from tests import reference


def block(arrival=0.0, sims=(), commits=(), serial=False, pre=0.0, post=0.0):
    return BlockTiming(
        arrival_us=arrival,
        sim_durations=list(sims),
        commit_durations=list(commits),
        serial_commit=serial,
        pre_exec_serial_us=pre,
        post_commit_serial_us=post,
    )


class TestSingleBlock:
    def test_parallel_tasks_use_all_cores(self):
        sim = PipelineSimulator(num_cores=4)
        result = sim.simulate([block(sims=[100.0] * 4)])
        assert result.makespan_us == pytest.approx(100.0)

    def test_more_tasks_than_cores_queue(self):
        sim = PipelineSimulator(num_cores=2)
        result = sim.simulate([block(sims=[100.0] * 4)])
        assert result.makespan_us == pytest.approx(200.0)

    def test_serial_commit_sums(self):
        sim = PipelineSimulator(num_cores=8)
        result = sim.simulate([block(commits=[10.0] * 5, serial=True)])
        assert result.makespan_us == pytest.approx(50.0)

    def test_parallel_commit_overlaps(self):
        sim = PipelineSimulator(num_cores=8)
        result = sim.simulate([block(commits=[10.0] * 5, serial=False)])
        assert result.makespan_us == pytest.approx(10.0)

    def test_pre_and_post_serial_on_critical_path(self):
        sim = PipelineSimulator(num_cores=8)
        result = sim.simulate([block(sims=[10.0], pre=5.0, post=7.0)])
        assert result.makespan_us == pytest.approx(22.0)

    def test_utilization_bounds(self):
        sim = PipelineSimulator(num_cores=4)
        result = sim.simulate([block(sims=[100.0])])
        assert 0.0 < result.cpu_utilization <= 0.26  # 1 of 4 cores busy


class TestPipelining:
    def test_without_inter_block_straggler_blocks_next(self):
        # block 0 has a 1000us straggler; block 1 cannot start before it ends
        sim = PipelineSimulator(num_cores=4, inter_block=False)
        blocks = [block(sims=[1000.0, 10.0, 10.0]), block(sims=[10.0] * 3)]
        result = sim.simulate(blocks)
        assert result.sim_start_us[1] >= 1000.0
        assert result.makespan_us >= 1010.0

    def test_inter_block_absorbs_straggler(self):
        # with IBP block 1 only waits for block -1 (none): starts immediately
        sim = PipelineSimulator(num_cores=4, inter_block=True, snapshot_lag=2)
        blocks = [block(sims=[1000.0, 10.0, 10.0]), block(sims=[10.0] * 3)]
        result = sim.simulate(blocks)
        assert result.sim_start_us[1] < 1000.0
        # commit order is still enforced: block 1 commits after block 0
        assert result.commit_finish_us[1] >= result.commit_finish_us[0]

    def test_inter_block_improves_utilization(self):
        blocks_a = [
            block(sims=[500.0] + [50.0] * 6) for _ in range(6)
        ]
        blocks_b = [
            block(sims=[500.0] + [50.0] * 6) for _ in range(6)
        ]
        base = PipelineSimulator(num_cores=4, inter_block=False).simulate(blocks_a)
        ibp = PipelineSimulator(num_cores=4, inter_block=True).simulate(blocks_b)
        assert ibp.makespan_us < base.makespan_us
        assert ibp.cpu_utilization > base.cpu_utilization

    def test_snapshot_lag_controls_overlap(self):
        blocks = [block(sims=[100.0] * 2) for _ in range(4)]
        lag3 = PipelineSimulator(num_cores=8, inter_block=True, snapshot_lag=3).simulate(
            [block(sims=[100.0] * 2) for _ in range(4)]
        )
        lag1 = PipelineSimulator(num_cores=8, inter_block=True, snapshot_lag=1).simulate(
            blocks
        )
        assert lag3.makespan_us <= lag1.makespan_us

    def test_commit_order_monotone(self):
        sim = PipelineSimulator(num_cores=2, inter_block=True)
        blocks = [block(sims=[10.0 * (i + 1)] * 3) for i in range(5)]
        result = sim.simulate(blocks)
        finishes = result.commit_finish_us
        assert all(a <= b for a, b in zip(finishes, finishes[1:]))

    def test_arrival_gates_start(self):
        sim = PipelineSimulator(num_cores=4)
        result = sim.simulate([block(arrival=500.0, sims=[10.0])])
        assert result.makespan_us == pytest.approx(510.0)


class TestValidation:
    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            PipelineSimulator(num_cores=0)

    def test_rejects_bad_lag(self):
        with pytest.raises(ValueError):
            PipelineSimulator(num_cores=1, snapshot_lag=0)

    def test_empty_stream(self):
        result = PipelineSimulator(num_cores=2).simulate([])
        assert result.makespan_us == 0.0
        assert result.cpu_utilization == 0.0


#: durations drawn from a few repeated values as well as arbitrary floats,
#: so equal core free-times (heap ties) are common
_DURATION = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 10.0]),
    st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def block_stream(draw):
    return [
        block(
            arrival=draw(st.floats(0.0, 200.0)),
            sims=draw(st.lists(_DURATION, max_size=12)),
            commits=draw(st.lists(_DURATION, max_size=12)),
            serial=draw(st.booleans()),
            pre=draw(_DURATION),
            post=draw(_DURATION),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]


class TestOneHeapOperationPerTask:
    @given(block_stream(), st.integers(1, 6), st.booleans(), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_equals_pop_push_schedule(self, blocks, cores, inter_block, lag):
        """Reading the earliest-free core and replacing it is the pop +
        push schedule, float for float."""
        result = PipelineSimulator(cores, inter_block, lag).simulate(blocks)
        expected = reference.pipeline_schedule(blocks, cores, inter_block, lag)
        assert result.commit_finish_us == expected.commit_finish_us
        assert result.busy_core_us == expected.busy_core_us
        assert result.makespan_us == expected.makespan_us
        assert result.sim_start_us == expected.sim_start_us
