"""The run configuration's options: each has a user, each enumerated one
rejects a value it does not know.

``tools/option_census.py`` is the gate (``make options``); here it runs on
the tree, and on a synthetic configuration with a field nobody sets.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

from repro.chain import OEBlockchain, OEConfig
from repro.chain.sov import SOVBlockchain, SOVConfig
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.workloads import make_workload

ROOT = Path(__file__).resolve().parents[1]

#: the tool's globals (``tools/`` is not a package)
TOOL = runpy.run_path(str(ROOT / "tools" / "option_census.py"))
census = TOOL["census"]


class TestOptionCensus:
    def test_every_field_of_the_tree_has_a_user(self):
        rows, unset, options = census(
            outside=[ROOT / d for d in TOOL["OUTSIDE"]],
            inside=[ROOT / d for d in TOOL["INSIDE"]],
        )
        assert unset == []
        # the baseline ROADMAP's "No new knob" counts from: a PR that moves it
        # says so (before -> after) and moves it here
        assert (len(rows), options) == (24, 34)
        test_only = {name for name, outside, _inside in rows if not outside}
        assert test_only == set(TOOL["TEST_ONLY"])

    def test_a_field_nobody_sets_fails_the_census(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "tests").mkdir()
        (tmp_path / "src" / "knobs.py").write_text(
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Knobs:\n"
            "    used: int = 1\n"
            "    forwarded: int = 2\n"
            "    tested: int = 3\n"
            "    unset: int = 4\n"
            "def build(knobs):\n"
            "    return Knobs(used=5, forwarded=knobs.forwarded)\n"
        )
        (tmp_path / "tests" / "test_knobs.py").write_text("Knobs(tested=0, unset=0)\n")
        rows, unset, options = census(
            classes=("Knobs",),
            outside=[tmp_path / "src"],
            inside=[tmp_path / "tests"],
            reasons={"Knobs.tested": "reaches the zero branch"},
        )
        assert rows == [
            ("Knobs.forwarded", 0, 0),
            ("Knobs.tested", 0, 1),
            ("Knobs.unset", 0, 1),
            ("Knobs.used", 1, 0),
        ]
        # a forward is not a setter; a test setter needs its reason
        assert unset == ["Knobs.forwarded", "Knobs.unset"]
        assert options == 4


@pytest.mark.parametrize(
    "build, accepted",
    [
        (lambda w: OEBlockchain(OEConfig(system="harmoni"), w), "harmony"),
        (lambda w: SOVBlockchain(SOVConfig(system="fabrik"), w), "fabric"),
        (lambda w: OEBlockchain(OEConfig(consensus="hotstuf"), w), "hotstuff"),
        (
            lambda w: ShardedBlockchain(ShardConfig(num_shards=2, router_policy="range"), w),
            "workload",
        ),
        (
            lambda w: ShardedBlockchain(ShardConfig(num_shards=2, rebalance="adaptve"), w),
            "adaptive",
        ),
    ],
    ids=["oe-system", "sov-system", "consensus", "router_policy", "rebalance"],
)
def test_a_misspelt_option_is_refused_by_name(build, accepted):
    """Each used to select the last branch of an ``if`` chain and run another
    configuration (Fabric, Kafka, a hash router, no policy) without a word."""
    workload = make_workload("ycsb", profile="conformance")
    with pytest.raises(ValueError, match=f"'\\w+'.*'{accepted}'"):
        build(workload)
