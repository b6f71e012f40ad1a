"""The Order-Execute driver reproduces the record taken before the merge.

``tests/golden/driver_identity.json`` was recorded at the last commit that
had a separate ``OEBlockchain`` driver. Every case — each registered
workload under every scheme, unsharded and at 1/2/4 shards, plus migrated
runs — must still produce the same decisions, state hashes, certificate
head and modeled numbers, exactly. This is what "``OEBlockchain`` is the
1-shard configuration" is checked against now that comparing the two
classes would compare the driver with itself.
"""

from __future__ import annotations

import json

import pytest

from golden.driver_identity import GOLDEN_PATH, cases, mismatches, observe

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CASES = cases()


def test_golden_covers_exactly_the_cases():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_pre_merge_record(case):
    assert mismatches(GOLDEN[case], observe(CASES[case])) == {}


@pytest.mark.parametrize(
    "case", sorted(case for case in GOLDEN if case.endswith("/unsharded"))
)
def test_one_shard_is_the_unsharded_chain(case):
    """The record itself says so: what the separate unsharded driver
    produced is what the sharded driver produced at one shard."""
    unsharded = GOLDEN[case]
    one_shard = GOLDEN[case.replace("/unsharded", "/1shard")]
    assert mismatches(unsharded, one_shard) == {}
