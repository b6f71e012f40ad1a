"""Harness tests for the end-to-end benchmark (tier-1, smoke-sized)."""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import re
import shutil
import subprocess

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
e2e_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_run)  # also puts benchmarks/e2e and src on sys.path

import e2e_calibration  # noqa: E402
import e2e_harness  # noqa: E402
import e2e_spans  # noqa: E402
from repro.dcc.oracle import SerializabilityOracle  # noqa: E402

MANIFEST = e2e_run.manifest()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def short_calibration_passes(monkeypatch):
    """Smoke runs check the schema, not the box: 2 ms passes, not 50 ms."""
    monkeypatch.setattr(e2e_calibration, "PASS_ITERATIONS", 2_000)


def smoke(workload: str, trace: int, capsys, seed: int = 7):
    """One in-process smoke invocation -> (exit code, final object, detail)."""
    args = argparse.Namespace(
        workload=workload, seed=seed, seconds=20, trace=trace, rounds=1, smoke=True
    )
    code = e2e_run.measure_one(args, MANIFEST)
    lines = capsys.readouterr().out.splitlines()
    detail = next(line for line in lines if line.startswith(e2e_run.DETAIL_PREFIX))
    return code, json.loads(lines[-1]), json.loads(detail[len(e2e_run.DETAIL_PREFIX) :])


def test_manifest_meets_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in MANIFEST["workloads"]] == list(e2e_harness.WORKLOADS)
    assert len(MANIFEST["workloads"]) == 5
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    end_to_end, per_layer = MANIFEST["end_to_end"], MANIFEST["per_layer"]
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    names = [m["name"] for m in MANIFEST["workloads"] + end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in end_to_end)
    assert all(set(m) == {"name", "unit", "better"} for m in per_layer)
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end)
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)
    assert set(e2e_harness.EXACT) <= {m["name"] for m in end_to_end}


@pytest.mark.parametrize("workload", list(e2e_harness.WORKLOADS))
def test_smoke_run_emits_the_full_schema(workload, capsys):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, final, detail = smoke(workload, trace, capsys)
        assert code == 0 and detail["failures"] == []
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True and final["failed"] == 0
        assert final["attempted"] >= 1
        assert list(final["metrics"]) == [m["name"] for m in MANIFEST[kind]]
        for metric in MANIFEST[kind]:
            entry = final["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float)), metric["name"]
            if trace == 0:
                assert entry["value"] > 0, metric["name"]
    # every layer shim resolves on this commit
    assert detail["missing_targets"] == {}
    assert 0 <= final["metrics"]["driver.unattributed_share"]["value"] < 1


def test_command_line_ends_with_the_result_object():
    done = subprocess.run(
        MANIFEST["command"]
        + ["--workload", "ycsb_hotspot", "--seed", "3", "--seconds", "4",
           "--trace", "0", "--smoke", "--rounds", "1"],  # fmt: skip
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.splitlines()[-1])
    assert final["correct"] is True
    assert final["metrics"]["commit_rate"] == {"value": 1.0, "unit": "share"}


def test_fails_without_the_system_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        MANIFEST["command"]
        + ["--workload", "ycsb_hotspot", "--seed", "3", "--seconds", "4", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )  # fmt: skip
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_calibrated_seconds_scale_with_the_bracketing_kernel_passes():
    ref = e2e_calibration.CAL_REF_S
    assert e2e_calibration.calibrated(2.0, ref, ref) == 2.0
    # a box running at half speed around the section: half the seconds count
    assert e2e_calibration.calibrated(2.0, 2 * ref, 2 * ref) == 1.0
    assert e2e_calibration.calibrated(2.0, ref, 3 * ref) == 1.0
    assert e2e_calibration.Calibrator().pass_s() > 0


def test_rounds_beyond_the_exact_ones_feed_only_the_host_metrics(monkeypatch):
    monkeypatch.setattr(e2e_harness, "EXACT_ROUNDS", 1)
    one = e2e_harness.measure_end_to_end("ycsb_contended", 7, 0, smoke=True, rounds=1)
    two = e2e_harness.measure_end_to_end("ycsb_contended", 7, 0, smoke=True, rounds=2)
    assert one.detail["exact"] == two.detail["exact"]
    assert all(one.metrics[key] == two.metrics[key] for key in e2e_harness.EXACT)
    assert len(two.detail["samples"]["host_tps"]) == 2
    assert len(two.detail["samples"]["setup_s"]) == 2 * e2e_harness.SETUPS_PER_ROUND
    assert len(two.detail["samples"]["calibration_s"]) == 2 * 4


def test_same_seed_reproduces_the_digest_and_another_seed_changes_it():
    def digest(seed):
        chain = e2e_harness.build(e2e_harness.WORKLOADS["ycsb_contended"], seed, smoke=True)
        return chain.run().extra["decision_digest"]

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def test_span_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    recorder = e2e_spans.SpanRecorder(clock=lambda: float(next(ticks)))
    leaf = recorder.wrap("leaf", "leaf", lambda: None)  # 1 tick per call

    def middle_body():
        leaf()
        leaf()

    middle = recorder.wrap("middle", "middle", middle_body)

    def root_body():
        middle()
        leaf()

    recorder.wrap("root", "root", root_body)()
    spans = recorder.drain()
    # root 0..9 (middle 1..6 (leaf 2..3, leaf 4..5), leaf 7..8)
    assert e2e_spans.self_times(spans) == {"root": 3.0, "middle": 3.0, "leaf": 3.0}
    assert sum(e2e_spans.self_times(spans).values()) == 9.0  # the root's duration
    assert e2e_spans.durations_of(spans, "leaf") == [1.0, 1.0, 1.0]
    assert recorder.drain() == []


def _raw_targets(shims):
    raw = {}
    for _, target in shims:
        owner, name, _ = e2e_spans.resolve(target)
        raw[target] = (name in vars(owner), vars(owner).get(name))
    return raw


def test_originals_are_restored_also_when_the_run_raises():
    spec = e2e_harness.WORKLOADS["smallbank_4shard"]
    shims = e2e_harness.shims_for(spec, e2e_harness.RUN_SHIMS + e2e_harness.BUILD_SHIMS)
    before = _raw_targets(shims)
    recorder = e2e_spans.SpanRecorder()

    with e2e_spans.installed(recorder, shims) as missing:
        assert missing == {}
        assert _raw_targets(shims) != before
        e2e_harness.build(spec, 7, smoke=True).run()
    assert _raw_targets(shims) == before
    assert {span[0] for span in recorder.drain()} >= {"driver", "dcc.oracle.false_aborts"}

    with pytest.raises(TypeError):
        with e2e_spans.installed(recorder, shims):
            SerializabilityOracle.count_false_aborts(None)  # raises inside the shim
    assert _raw_targets(shims) == before
    assert [span[0] for span in recorder.drain()] == ["dcc.oracle.false_aborts"]
    assert isinstance(vars(SerializabilityOracle)["count_false_aborts"], staticmethod)


def test_an_inherited_target_is_restored_by_deleting_the_override():
    inherited = f"{__name__}:_Child.method"
    with e2e_spans.installed(e2e_spans.SpanRecorder(), [("layer", inherited)]) as missing:
        assert missing == {} and "method" in vars(_Child)
        assert _Child().method() == "base"
    assert "method" not in vars(_Child) and _Child().method() == "base"


class _Base:
    def method(self):
        return "base"


class _Child(_Base):
    pass


def test_a_vanished_target_is_reported_not_fatal(monkeypatch):
    shims = [
        ("gone.module", "repro.no_such_module:thing"),
        ("gone.attr", "repro.chain.node:ReplicaNode.no_such_method"),
        ("chain.node.commit", "repro.chain.node:ReplicaNode.finish_block"),
    ]
    with e2e_spans.installed(e2e_spans.SpanRecorder(), shims) as missing:
        assert missing == {
            "gone.module": ["repro.no_such_module:thing"],
            "gone.attr": ["repro.chain.node:ReplicaNode.no_such_method"],
        }

    gone = ("execution.simulate", "repro.core.harmony:renamed_away")
    monkeypatch.setattr(e2e_harness, "RUN_SHIMS", e2e_harness.RUN_SHIMS + (gone,))
    result = e2e_harness.measure_layers("ycsb_hotspot", 7, smoke=True)
    assert result.final(MANIFEST["per_layer"])["correct"] is True
    assert result.detail["missing_targets"] == {"execution.simulate": [gone[1]]}
    # unmeasured, not a smaller number
    assert result.metrics["execution.simulate.self_s"] is None
    assert result.metrics["core.validation.validate.self_s"] > 0
