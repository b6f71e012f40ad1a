"""Tests for metrics containers, the bench report and design-choice ablations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.config import current_scale
from repro.bench.report import ExperimentResult, render
from repro.sim.metrics import BlockStats, RunMetrics, percentile


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_bounds(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_median(self):
        assert percentile([5.0, 1.0, 3.0], 50) == 3.0

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)

    def test_nearest_rank_is_a_sample(self):
        # p99 of 100 samples is the 99th order statistic, not an
        # interpolated value that never occurred
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 99) == 99.0
        assert percentile(values, 99.9) == 100.0
        assert percentile(values, 50) == 50.0


class TestPercentileDifferential:
    """Property tests pinning the nearest-rank definition, differentially
    against ``statistics.quantiles``."""

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        q=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_membership_and_rank(self, values, q):
        import math

        result = percentile(values, q)
        assert result in values
        # rank-counting uniquely determines the rank-th order statistic
        # without re-sorting: at least `rank` samples are <= result, and
        # fewer than `rank` are strictly below it
        rank = max(1, math.ceil(q / 100.0 * len(values)))
        assert sum(1 for v in values if v <= result) >= rank
        assert sum(1 for v in values if v < result) <= rank - 1

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=60,
        ),
        q=st.integers(min_value=1, max_value=99),
    )
    @settings(max_examples=200, deadline=None)
    def test_brackets_statistics_quantiles(self, values, q):
        """The nearest-rank sample and the stdlib's inclusive-interpolation
        cut point land in the same order-statistic bracket.

        With ``h = 1 + (N-1)q/100`` (the interpolation position) and
        ``r = ceil(Nq/100)`` (the nearest rank), ``|r - h| < 1`` for any
        q in (0, 100), so both estimates lie within the order statistics
        adjacent to ``h``.
        """
        import math
        import statistics

        result = percentile(values, q)
        cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
        ordered = sorted(values)
        h = 1 + (len(ordered) - 1) * q / 100.0
        lo = ordered[max(0, math.floor(h) - 2)]
        hi = ordered[min(len(ordered) - 1, math.ceil(h) - 1)]
        assert lo <= result <= hi
        # the stdlib cut point is interpolated floating-point arithmetic,
        # so it can land an ulp outside the bracket when samples coincide
        assert (
            lo <= cut <= hi
            or math.isclose(cut, lo, rel_tol=1e-9, abs_tol=1e-9)
            or math.isclose(cut, hi, rel_tol=1e-9, abs_tol=1e-9)
        )


class TestRunMetrics:
    def test_rates(self):
        metrics = RunMetrics(system="s", workload="w")
        metrics.committed = 80
        metrics.aborted = 20
        metrics.false_aborts = 5
        metrics.sim_time_us = 1e6
        assert metrics.throughput_tps == pytest.approx(80.0)
        assert metrics.abort_rate == pytest.approx(0.2)
        assert metrics.false_abort_rate == pytest.approx(0.05)

    def test_zero_division_safety(self):
        metrics = RunMetrics(system="s", workload="w")
        assert metrics.throughput_tps == 0.0
        assert metrics.abort_rate == 0.0
        assert metrics.mean_latency_ms == 0.0

    def test_merge_block(self):
        metrics = RunMetrics(system="s", workload="w")
        metrics.merge_block(BlockStats(block_id=0, committed=3, aborted=1))
        metrics.merge_block(BlockStats(block_id=1, committed=2, aborted=2))
        assert metrics.committed == 5 and metrics.aborted == 3
        assert metrics.blocks == 2

    def test_merge_block_rejects_double_merge(self):
        metrics = RunMetrics(system="s", workload="w")
        metrics.merge_block(BlockStats(block_id=0, committed=3))
        with pytest.raises(ValueError, match="already merged"):
            metrics.merge_block(BlockStats(block_id=0, committed=3))
        assert metrics.committed == 3 and metrics.blocks == 1

    def test_latency_percentile_properties(self):
        metrics = RunMetrics(system="s", workload="w")
        metrics.latencies_us = [float(v) * 1000.0 for v in range(1, 101)]
        assert metrics.p50_latency_ms == pytest.approx(50.0)
        assert metrics.p99_latency_ms == pytest.approx(99.0)
        assert metrics.p999_latency_ms == pytest.approx(100.0)

    def test_sharded_merge_path_counts_each_block_once(self):
        """Regression around merge_shard_results: a sharded run must fold
        each global block into RunMetrics exactly once — the seen-block
        guard would raise on any double merge."""
        from repro.shard.system import ShardConfig, ShardedBlockchain
        from repro.workloads import make_workload
        from repro.workloads.base import ShardAffinity

        config = ShardConfig(
            system="harmony", num_shards=2, block_size=8, num_blocks=5, seed=7
        )
        workload = make_workload(
            "smallbank", profile="gate", affinity=ShardAffinity(2, 0.5)
        )
        metrics = ShardedBlockchain(config, workload).run()
        assert metrics.blocks == config.num_blocks
        assert metrics.committed + metrics.aborted > 0


class TestReport:
    def make_result(self):
        result = ExperimentResult(
            name="Figure X", description="demo", headers=["system", "tput"]
        )
        result.add("harmony", 1234.5)
        result.add("aria", 567.8)
        return result

    def test_render_contains_rows(self):
        text = render(self.make_result())
        assert "Figure X" in text
        assert "harmony" in text and "1,234" in text

    def test_column_and_series(self):
        result = self.make_result()
        assert result.series("system") == ["harmony", "aria"]
        assert result.series("tput", system="aria") == [567.8]
        assert result.cell("tput", system="harmony") == 1234.5
        with pytest.raises(KeyError):
            result.cell("tput")

    def test_notes_rendered(self):
        result = self.make_result()
        result.notes.append("something important")
        assert "something important" in render(result)

    def test_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        quick = current_scale()
        monkeypatch.setenv("REPRO_FULL", "1")
        full = current_scale()
        assert full.num_blocks > quick.num_blocks


# ---------------------------------------------------------------------------
# Design-choice ablation: Rule 2's quick-sort order vs a full topological sort
# (DESIGN.md: "quick-sort reordering vs full topological sort equivalence").
# ---------------------------------------------------------------------------
from repro.core.validation import HarmonyValidator  # noqa: E402
from repro.txn.commands import AddValue  # noqa: E402
from repro.txn.transaction import Txn, TxnSpec  # noqa: E402


@st.composite
def validated_block(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    keys = [f"key{i}" for i in range(5)]
    txns = []
    for tid in range(1, n + 1):
        txn = Txn(tid=tid, block_id=0, spec=TxnSpec("ops"))
        for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
            txn.read_set[key] = None
        for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
            txn.record_update(key, AddValue(1))
        txns.append(txn)
    HarmonyValidator().validate(txns)
    return [t for t in txns if not t.aborted]


def _committed_rw_edges(committed):
    edges = []
    for reader in committed:
        for writer in committed:
            if reader.tid != writer.tid and any(
                reader.reads(k) for k in writer.write_set
            ):
                edges.append((reader, writer))
    return edges


class TestRule2VsTopologicalSort:
    @given(validated_block())
    @settings(max_examples=150, deadline=None)
    def test_min_out_order_is_a_valid_topological_sort(self, committed):
        """Rule 2's O(n log n) quick-sort yields an order that any full
        (O(V+E)) topological sort of the committed rw-subgraph would also
        accept — the cheap order is never wrong."""
        order = {t.tid: i for i, t in enumerate(
            sorted(committed, key=lambda t: (t.min_out, t.tid))
        )}
        for reader, writer in _committed_rw_edges(committed):
            assert order[reader.tid] < order[writer.tid]

    @given(validated_block())
    @settings(max_examples=100, deadline=None)
    def test_per_key_sorting_is_globally_consistent(self, committed):
        """Rule 2 sorts each key's updaters independently; check that the
        per-key orders embed into the single global witness order (this is
        what makes parallel per-key sorting sound)."""
        global_order = {t.tid: i for i, t in enumerate(
            sorted(committed, key=lambda t: (t.min_out, t.tid))
        )}
        by_key: dict = {}
        for txn in committed:
            for key in txn.write_set:
                by_key.setdefault(key, []).append(txn)
        for key, updaters in by_key.items():
            ordered = sorted(updaters, key=lambda t: (t.min_out, t.tid))
            positions = [global_order[t.tid] for t in ordered]
            assert positions == sorted(positions)


class TestScalingGuards:
    """The micro ledger's gate arithmetic, on an injected clock: no wall
    time is read, so these are exact."""

    @staticmethod
    def _guard(cost_of, klass):
        """Run ``scaling_guard`` over a stand-in whose timed call advances a
        fake clock by ``cost_of(size)``."""
        from repro.bench.perf import scaling_guard

        now = [0.0]

        def build(size):
            def run():
                now[0] += cost_of(size)

            return run

        return scaling_guard("stand_in", build, klass, 100, "keys", clock=lambda: now[0])

    def test_linear_stand_in_fails_independent_bound_and_passes_linear(self):
        from repro.bench.perf import INDEPENDENT, LINEARITHMIC

        linear = lambda size: 0.001 * size
        failing = self._guard(linear, INDEPENDENT)
        assert failing["growth"] == 4.0 and failing["bound"] == INDEPENDENT[1]
        assert failing["checks"] == {"growth_within_bound": False}
        passing = self._guard(linear, LINEARITHMIC)
        assert passing["growth"] == 4.0 and passing["checks"]["growth_within_bound"]
        assert (passing["time_n_s"], passing["time_4n_s"]) == (0.1, 0.4)

    def test_class_changes_read_four_or_sixteen(self):
        from repro.bench.perf import INDEPENDENT, LINEARITHMIC

        assert self._guard(lambda size: 0.5, INDEPENDENT)["growth"] == 1.0
        quadratic = self._guard(lambda size: 1e-6 * size * size, LINEARITHMIC)
        assert quadratic["growth"] == 16.0
        assert not quadratic["checks"]["growth_within_bound"]

    def test_sanity_checks_of_the_timed_call_are_kept(self):
        from repro.bench.perf import INDEPENDENT, scaling_guard

        case = scaling_guard(
            "stand_in", lambda size: lambda: {"did_work": size < 400},
            INDEPENDENT, 100, "keys", clock=iter(range(1000)).__next__,
        )  # fmt: skip
        assert case["checks"] == {"did_work": False, "growth_within_bound": True}

    def test_a_run_with_any_false_check_exits_1(self, monkeypatch, capsys):
        from repro.bench import perf
        from repro.bench.__main__ import main

        def fake_run(checks):
            guard = self._guard(lambda size: 1.0, perf.INDEPENDENT)
            guard["checks"].update(checks)
            run = {"mode": "smoke", "cases": [guard]}
            run["all_checks_pass"] = not perf.failed_checks(run["cases"])
            return run

        monkeypatch.setattr(perf, "run_perf", lambda **_: fake_run({}))
        assert main(["--perf-smoke", "--check"]) == 0
        monkeypatch.setattr(perf, "run_perf", lambda **_: fake_run({"identity": False}))
        assert main(["--perf-smoke", "--check"]) == 1
        assert "FAILED: stand_in(n=100,n_counts=keys): identity" in capsys.readouterr().out

    def test_smoke_run_persists_only_to_a_named_path(self, tmp_path, monkeypatch):
        """`make perf-smoke` must not edit the committed ledger: without an
        output path (argument or ``$REPRO_BENCH_OUT``) a smoke run is
        written nowhere; a full run still defaults to ``BENCH_perf.json``,
        and appending keeps the ledger's ``retired`` map."""
        import json

        from repro.bench import perf

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_BENCH_OUT", raising=False)
        monkeypatch.setattr(perf, "SCALING_GUARDS", ())
        stub = {"case": "obs_overhead", "params": {}, "checks": {"ok": True}}
        monkeypatch.setattr(perf, "bench_obs_overhead", lambda *_: stub)

        assert perf.run_perf(smoke=True)["all_checks_pass"]
        assert list(tmp_path.iterdir()) == []
        perf.run_perf(smoke=True, out_path="named.json")
        monkeypatch.setenv("REPRO_BENCH_OUT", "env.json")
        perf.run_perf(smoke=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["env.json", "named.json"]

        monkeypatch.delenv("REPRO_BENCH_OUT")
        ledger = tmp_path / perf.DEFAULT_OUT
        ledger.write_text(json.dumps({"schema": 1, "retired": {"old": "why"}, "runs": []}))
        perf.run_perf(smoke=False)
        written = json.loads(ledger.read_text())
        assert written["retired"] == {"old": "why"}
        assert [run["mode"] for run in written["runs"]] == ["full"]
