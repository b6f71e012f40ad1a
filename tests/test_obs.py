"""Tests for the deterministic tracing subsystem (repro.obs)."""

from __future__ import annotations

import gc
import json

import pytest

from repro.obs import (
    Span,
    TraceFileError,
    Tracer,
    block_paths,
    det_digest,
    det_events,
    export_jsonl,
    load_trace,
    render_report,
    shard_skew,
    slowest_blocks,
    stage_breakdown,
    trace_drill,
    trace_run,
)


# ------------------------------------------------------------------- tracer
class TestTracer:
    def test_seq_and_kinds(self):
        tracer = Tracer()
        tracer.stage("prepare", block=0, shard=1, sim_us=5.0)
        tracer.event("certify", block=0)
        tracer.fault("crash", block=0, shard=1)
        tracer.anno("run_summary", timing={"makespan_us": 3.0})
        assert [s.seq for s in tracer.spans] == [0, 1, 2, 3]
        assert [s.kind for s in tracer.spans] == [
            "stage", "event", "fault", "anno",
        ]

    def test_det_events_exclude_anno_and_timing(self):
        tracer = Tracer()
        tracer.stage("prepare", block=0, shard=0, timing={"sim_us": 99.0})
        tracer.anno("run_summary")
        events = tracer.det_events()
        assert len(events) == 1
        assert "timing" not in events[0] and "seq" not in events[0]
        assert events[0]["name"] == "prepare"

    def test_digest_insensitive_to_annotations(self):
        """Different timing annotations and interleaved anno spans must not
        move the deterministic digest."""
        a, b = Tracer(), Tracer()
        a.stage("prepare", block=0, shard=0, timing={"sim_us": 1.0})
        a.stage("commit", block=0, shard=0)
        b.stage("prepare", block=0, shard=0, timing={"sim_us": 2.0})
        b.anno("run_summary")
        b.stage("commit", block=0, shard=0)
        assert a.det_digest() == b.det_digest()
        c = Tracer()
        c.stage("prepare", block=0, shard=1)  # a det field differs
        c.stage("commit", block=0, shard=0)
        assert c.det_digest() != a.det_digest()


# ----------------------------------------------------------------- analysis
def _spans(raw):
    return [
        Span(seq=i, name=n, kind=k, block=b, shard=s, sim_us=us)
        for i, (n, k, b, s, us) in enumerate(raw)
    ]


class TestAnalyze:
    def test_stage_breakdown_shares(self):
        spans = _spans([
            ("prepare", "stage", 0, 0, 30.0),
            ("commit", "stage", 0, 0, 60.0),
            ("order", "event", 0, None, 10.0),
            ("run_summary", "anno", 0, None, 999.0),  # excluded
        ])
        breakdown = stage_breakdown(spans)
        assert set(breakdown) == {"prepare", "commit", "order"}
        assert sum(e["share"] for e in breakdown.values()) == pytest.approx(1.0)
        assert breakdown["commit"]["share"] == pytest.approx(0.6)

    def test_shard_skew(self):
        spans = _spans([
            ("prepare", "stage", 0, 0, 10.0),
            ("prepare", "stage", 0, 1, 30.0),
            ("order", "event", 0, None, 5.0),  # unsharded: not in skew
        ])
        skew = shard_skew(spans)
        assert skew[0]["skew"] == pytest.approx(0.5)
        assert skew[1]["skew"] == pytest.approx(1.5)

    def test_block_critical_path(self):
        spans = _spans([
            ("prepare", "stage", 0, 0, 10.0),
            ("prepare", "stage", 0, 1, 40.0),
            ("commit", "stage", 0, 0, 10.0),
            ("vote_exchange", "stage", 0, None, 7.0),  # serial add-on
            ("prepare", "stage", 1, 0, 100.0),
            ("crash", "fault", 1, 0, 0.0),
        ])
        paths = block_paths(spans)
        assert paths[0]["critical_shard"] == 1
        assert paths[0]["total_us"] == pytest.approx(47.0)
        assert paths[1]["faults"] == 1 and paths[1]["fault_names"] == ["crash"]
        ranked = slowest_blocks(spans, top=1)
        assert ranked[0][0] == 1

    def test_render_report_sections(self):
        spans = _spans([
            ("prepare", "stage", 0, 0, 10.0),
            ("crash", "fault", 0, 0, 0.0),
        ])
        report = render_report(spans, meta={"mode": "test"})
        assert "per-stage breakdown" in report
        assert "per-shard load skew" in report
        assert "FAULT(crash)" in report
        assert "injected fault events" in report


# ------------------------------------------------- determinism (the pin)
class TestDeterminism:
    def test_seeded_runs_reproduce_full_spans(self):
        """Same seed: the *entire* span stream (timing
        annotations included) reproduces bit-identically."""
        a, _ = trace_run(num_blocks=5, block_size=8)
        b, _ = trace_run(num_blocks=5, block_size=8)
        assert [s.to_dict() for s in a.spans] == [s.to_dict() for s in b.spans]

    def test_different_seed_moves_digest(self):
        a, _ = trace_run(num_blocks=4, block_size=8, seed=61)
        b, _ = trace_run(num_blocks=4, block_size=8, seed=62)
        assert a.det_digest() != b.det_digest()

    def test_disabled_tracing_is_identity(self):
        """The chain holds the run's one span hook — no certificate log,
        checkpoint manager or other pipeline object has one — and it
        defaults to None. An untraced run decides identically to a traced
        one: tracing observes, never perturbs."""
        from repro.obs.capture import build_workload
        from repro.shard.system import ShardConfig, ShardedBlockchain

        config = ShardConfig(
            system="harmony", num_shards=2, block_size=8, num_blocks=4, seed=61
        )
        chain = ShardedBlockchain(config, build_workload("smallbank", 2))
        assert chain.tracer is None
        untraced = chain.run()
        assert tracer_holders(chain) == [chain]
        traced_tracer, traced = trace_run(num_blocks=4, block_size=8)
        assert untraced.extra["decision_digest"] == traced.extra["decision_digest"]
        assert untraced.extra["state_hash"] == traced.extra["state_hash"]
        assert untraced.extra["cert_head"] == traced.extra["cert_head"]
        assert len(traced_tracer.spans) > 0


def tracer_holders(root) -> list:
    """Every object with a ``tracer`` attribute reachable from ``root``
    through ``repro`` instances (their fields) and plain containers."""
    seen, todo, holders = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            if hasattr(obj, "tracer"):
                holders.append(obj)
            todo.extend(
                ref for ref in gc.get_referents(obj) if not isinstance(ref, type)
            )
    return holders


# ------------------------------------------------------------ export + CLI
class TestExport:
    def test_round_trip(self, tmp_path):
        tracer, _ = trace_run(num_blocks=4, block_size=8)
        path = tmp_path / "trace.jsonl"
        export_jsonl(tracer, str(path))
        loaded = load_trace(str(path))
        assert loaded.spans == tracer.spans
        assert loaded.meta == tracer.meta
        assert loaded.verify_digest()
        assert det_digest(loaded.spans) == tracer.det_digest()

    def test_digest_detects_tampering(self, tmp_path):
        tracer, _ = trace_run(num_blocks=4, block_size=8)
        path = tmp_path / "trace.jsonl"
        export_jsonl(tracer, str(path))
        lines = path.read_text().splitlines()
        span = json.loads(lines[1])
        span["shard"] = 93  # tamper with a deterministic field
        lines[1] = json.dumps(span, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert not load_trace(str(path)).verify_digest()

    def test_unknown_record_type_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(TraceFileError, match="unknown trace record"):
            load_trace(str(path))

    @pytest.mark.parametrize(
        "damage,message",
        [
            # the last annotation span is gone; the deterministic digest of
            # what is left still verifies
            pytest.param(
                lambda lines: lines[:-1],
                "header records 42 spans, file holds 41",
                id="cut-after-span-41",
            ),
            pytest.param(
                lambda lines: lines[: len(lines) // 2],
                "header records 42 spans",
                id="half-a-file",
            ),
            pytest.param(lambda lines: lines[1:], ":1: no meta header", id="no-header"),
            pytest.param(lambda lines: [], "no meta header", id="empty"),
            pytest.param(
                lambda lines: lines[:5] + lines[:1] + lines[5:],
                ":6: repeated meta header",
                id="repeated-header",
            ),
            pytest.param(
                lambda lines: lines + ['{"type": "metrics", "metrics": {}}'],
                ":44: unknown trace record type 'metrics'",
                id="metrics-record",
            ),
            pytest.param(
                lambda lines: lines[:-1] + [lines[-1][:-9]],
                ":43: undecodable line",
                id="torn-last-line",
            ),
            pytest.param(
                lambda lines: lines[:3] + ["[1, 2]"] + lines[3:],
                ":4: undecodable line",
                id="not-a-record",
            ),
            pytest.param(
                lambda lines: lines[:3] + ['{"type": "span"}'] + lines[3:],
                ":4: malformed span",
                id="span-without-fields",
            ),
        ],
    )
    def test_damaged_file_is_rejected_never_partly_loaded(
        self, tmp_path, damage, message
    ):
        tracer, _ = trace_run(num_blocks=4, block_size=8)
        assert len(tracer.spans) == 42 and tracer.spans[-1].kind == "anno"
        path = tmp_path / "trace.jsonl"
        export_jsonl(tracer, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 43
        assert [json.loads(line)["type"] for line in lines] == ["meta"] + ["span"] * 42
        path.write_text("".join(line + "\n" for line in damage(lines)))
        with pytest.raises(TraceFileError, match=message):
            load_trace(str(path))

    def test_other_schema_is_rejected(self, tmp_path):
        """A schema-1 file — the header, the spans and the metrics tail
        that format ended with — is refused by name, not half-read."""
        tracer, _ = trace_run(num_blocks=2, block_size=8)
        path = tmp_path / "trace.jsonl"
        export_jsonl(tracer, str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = 1
        tail = {"counters": {}, "gauges": {}, "histograms": {}}
        lines = [json.dumps(header)] + lines[1:]
        lines.append(json.dumps({"type": "metrics", "metrics": tail}))
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(TraceFileError, match=r":1: trace schema 1, .* schema 2"):
            load_trace(str(path))

    @pytest.mark.parametrize(
        "edit,message",
        [
            pytest.param(
                lambda header: header.update(schema=3),
                ":1: trace schema 3, this loader reads schema 2",
                id="newer",
            ),
            pytest.param(
                lambda header: header.update(schema="2"),
                ":1: trace schema '2'",
                id="schema-as-text",
            ),
            pytest.param(
                lambda header: header.pop("schema"), ":1: malformed meta", id="no-schema"
            ),
        ],
    )
    def test_header_must_name_the_current_schema(self, tmp_path, edit, message):
        tracer, _ = trace_run(num_blocks=2, block_size=8)
        path = tmp_path / "trace.jsonl"
        export_jsonl(tracer, str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        edit(header)
        path.write_text("".join(line + "\n" for line in [json.dumps(header), *lines[1:]]))
        with pytest.raises(TraceFileError, match=message):
            load_trace(str(path))

    def test_cli_report_fails_on_a_damaged_or_edited_trace(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        out = tmp_path / "t.jsonl"
        assert main(["trace", "--out", str(out), "--blocks", "2"]) == 0
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        assert main(["report", str(out)]) == 1
        assert "header records" in capsys.readouterr().err
        span = json.loads(lines[1])
        span["shard"] = 93  # a deterministic field, edited
        out.write_text("\n".join([lines[0], json.dumps(span)] + lines[2:]) + "\n")
        assert main(["report", str(out)]) == 1
        assert "digest mismatch" in capsys.readouterr().err

    def test_cli_report_fails_on_a_missing_file(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["report", str(tmp_path / "missing.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing.jsonl" in err

    def test_cli_report_fails_on_a_directory(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv,message",
        [
            pytest.param(["--plan", "nope"], "unknown fault plan 'nope'", id="unknown"),
            pytest.param(
                ["--plan", "vote-drop", "--blocks", "4"], ">= 8 blocks", id="too-short"
            ),
        ],
    )
    def test_cli_trace_refuses_a_plan_it_cannot_lay_out(
        self, tmp_path, capsys, argv, message
    ):
        from repro.obs.__main__ import main

        out = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--out", str(out), *argv])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cli_trace_and_report(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        out = tmp_path / "t.jsonl"
        assert main(["trace", "--out", str(out), "--blocks", "4"]) == 0
        assert main(["report", str(out), "--top", "3"]) == 0
        captured = capsys.readouterr().out
        assert "per-stage breakdown" in captured
        assert "per-shard load skew" in captured
        assert "top-3 slowest blocks" in captured


# ------------------------------------- the span fields the metrics became
def traced_chain(workload, **cfg):
    """A seeded 2-shard run of ``workload`` with tracing armed; returns
    (tracer, metrics)."""
    from repro.obs.capture import build_workload
    from repro.shard.system import ShardConfig, ShardedBlockchain

    config = ShardConfig(num_shards=2, block_size=16, num_blocks=8, seed=11, **cfg)
    chain = ShardedBlockchain(config, build_workload(workload, 2))
    chain.tracer = tracer = Tracer()
    return tracer, chain.run()


class TestFormerMetricsInSpans:
    """Each quantity the deleted metrics registry held is a span field
    (the table in docs/observability.md); these pin the fields it names."""

    @pytest.fixture(scope="class")
    def checkpointed(self):
        return traced_chain(
            "smallbank", checkpoint_interval=2, checkpoint_base_interval=2
        )

    def test_commit_stage_settles_every_prepared_txn(self, checkpointed):
        tracer, _ = checkpointed
        prepared = {
            (s.block, s.shard): s.attrs["txns"] for s in tracer.spans if s.name == "prepare"
        }
        settled = {
            (s.block, s.shard): s.attrs["committed"] + s.attrs["aborted"]
            for s in tracer.spans
            if s.name == "commit"
        }
        assert len(settled) == 16 and settled == prepared

    def test_decide_events_sum_to_the_run_totals(self, checkpointed):
        tracer, metrics = checkpointed
        decides = [s for s in tracer.spans if s.name == "decide"]
        assert [s.block for s in decides] == list(range(8))
        assert sum(s.attrs["committed"] for s in decides) == metrics.committed > 0
        assert sum(s.attrs["aborted"] for s in decides) == metrics.aborted
        (run_end,) = [s for s in tracer.spans if s.name == "run_end"]
        assert run_end.attrs["committed"] == metrics.committed

    def test_checkpoint_events_follow_the_cadence(self, checkpointed):
        tracer, _ = checkpointed
        events = [s for s in tracer.spans if s.name == "checkpoint"]
        for shard in (0, 1):
            mine = [s for s in events if s.shard == shard]
            assert [s.block for s in mine] == [1, 3, 5, 7]
            assert [s.attrs["compacted"] for s in mine] == [False, True] * 2
            assert all(s.attrs["blocks"] == 2 and s.attrs["writes"] > 0 for s in mine)

    def test_checkpoint_event_counts_the_interval_writes(self):
        from repro.storage.checkpoint import CheckpointManager

        manager = CheckpointManager(interval_blocks=2, base_interval=2)
        tracer = Tracer()
        for block_id, interval in (
            (1, [(0, [("a", 1), ("b", 2)]), (1, [("a", 3)])]),
            (3, [(2, []), (3, [("c", 4)])]),
            (5, [(4, [("a", 5)]), (5, [("b", 6), ("c", 7)])]),
        ):
            manager.delta_checkpoint(block_id, interval)
            tracer.checkpointed(1, block_id, manager)
        tracer.checkpointed(1, 6, manager)  # block 6 wrote no checkpoint
        assert [
            (s.block, s.shard, s.attrs["writes"], s.attrs["compacted"])
            for s in tracer.spans
        ] == [(1, 1, 3, False), (3, 1, 1, True), (5, 1, 3, False)]

    def test_a_skipped_checkpoint_emits_its_fault_and_no_delta(self):
        """A ``"skip"`` directive is a fault span and nothing else; a
        ``"tear"`` is a fault span, then the delta it tore."""
        from repro.storage.checkpoint import CheckpointManager

        manager = CheckpointManager(interval_blocks=2, base_interval=8)
        manager.fault_hook = {1: "skip", 3: "tear"}.get
        tracer = Tracer()
        manager.delta_checkpoint(1, [(0, [("a", 1)]), (1, [])])
        tracer.checkpointed(0, 1, manager)
        assert manager.count == 0
        manager.delta_checkpoint(3, [(2, [("b", 2)]), (3, [])])
        tracer.checkpointed(0, 3, manager)
        assert manager.torn_latest
        assert [(s.name, s.kind, s.block, s.attrs) for s in tracer.spans] == [
            ("checkpoint_fault", "fault", 1, {"mode": "delta", "directive": "skip"}),
            ("checkpoint_fault", "fault", 3, {"mode": "delta", "directive": "tear"}),
            (
                "checkpoint",
                "event",
                3,
                {"mode": "delta", "blocks": 2, "writes": 1, "compacted": False},
            ),
        ]

    def test_migrate_events_carry_each_ownership_epoch(self):
        tracer, metrics = traced_chain(
            "adv-skewshift",
            rebalance="adaptive",
            rebalance_skew_threshold=1.0,
            rebalance_cross_threshold=0.0,
            rebalance_max_keys=8,
        )
        epochs = [s.attrs["epoch"] for s in tracer.spans if s.name == "migrate"]
        assert metrics.extra["migrations"] == len(epochs) >= 1
        assert epochs == list(range(1, metrics.extra["ownership_epoch"] + 1))


# -------------------------------------------------------------- fault drills
class TestTracedDrills:
    def test_drill_trace_annotates_faults(self, tmp_path):
        tracer, result = trace_drill(plan_name="crash-before-prepare")
        assert result.ok  # the drill itself stays bit-identical
        assert tracer.meta["drill_ok"] is True
        fault_names = {s.name for s in tracer.spans if s.kind == "fault"}
        assert "crash" in fault_names
        recoveries = sum(1 for s in tracer.spans if s.name == "recovery")
        assert recoveries == result.stats["recoveries"] >= 1
        path = tmp_path / "drill.jsonl"
        export_jsonl(tracer, str(path))
        report = render_report(load_trace(str(path)).spans, meta=tracer.meta)
        assert "FAULT" in report
        assert "injected fault events" in report
        assert "crash" in report

    def test_drill_trace_reproducible(self):
        a, _ = trace_drill(plan_name="crash-before-prepare")
        b, _ = trace_drill(plan_name="crash-before-prepare")
        assert a.det_digest() == b.det_digest()

    def test_unknown_plan_raises(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            trace_drill(plan_name="no-such-plan")
