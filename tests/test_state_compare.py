"""Replicas compared by their live entries (``ShardGroup.first_difference``).

``consistency_check()`` and the fault drills judge a replica by comparing
its live entries with the chain's, shard by shard, where they once compared
state hashes. Two contracts hold the comparison to the hash it replaced:

- **the replay**: on every registered workload, unsharded and on three
  shards, a fresh replica's replay has no first difference, and its
  per-shard state hashes equal the chain's;
- **planted entries**: one entry written differently on the two sides of
  two genesis replicas gets the verdict the per-shard state hashes give
  (a deletion equals an absent key, ``10`` equals ``10.0``, a NaN its copy,
  a row field ``1.0`` the field ``1``), and a difference is reported at
  its shard and key with both values. A stored ``None`` against an absent
  key is the one case where the comparison is stricter than the hash: the
  hash drops the ``None``, the comparison counts it.
"""

from __future__ import annotations

import pytest

from repro.shard.system import ShardConfig, ShardedBlockchain, fresh_group, replay_group
from repro.storage.mvstore import TOMBSTONE
from repro.workloads import ShardAffinity, make_workload, workload_names

SHARD_COUNTS = (1, 3)


def build_chain(name: str, num_shards: int) -> ShardedBlockchain:
    affinity = ShardAffinity(num_shards, 0.3) if num_shards > 1 else None
    workload = make_workload(name, profile="gate", affinity=affinity)
    config = ShardConfig(num_shards=num_shards, block_size=10, num_blocks=4, seed=23)
    return ShardedBlockchain(config, workload)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("name", workload_names())
def test_a_fresh_replay_has_no_first_difference(name, num_shards):
    chain = build_chain(name, num_shards)
    chain.run()
    replica = replay_group(chain)
    assert chain.group.first_difference(replica) is None
    assert replica.state_hashes() == chain.group.state_hashes()


#: no write on that side
NOTHING = object()
#: the planted key, held by neither side's genesis
PLANTED = ("planted", 0)

#: name -> (key, mine, theirs, whether the sides differ); key ``None`` is
#: the shard's first genesis key
PLANTS = {
    "one value changed": (PLANTED, 5, 6, True),
    "a key missing": (None, NOTHING, TOMBSTONE, True),
    "tombstone against absent": (PLANTED, TOMBSTONE, NOTHING, False),
    "10 against 10.0": (PLANTED, 10, 10.0, False),
    "nan against a nan copy": (PLANTED, float("nan"), float("nan"), False),
    "row field 1.0 against 1": (PLANTED, {"f": 1.0, "g": "x"}, {"f": 1, "g": "x"}, False),
    "a row field changed": (PLANTED, {"f": 1, "g": "x"}, {"f": 1, "g": "y"}, True),
    "stored None against absent": (PLANTED, None, NOTHING, True),
}
#: the case where the entry comparison is stricter than the state hash
STRICTER = "stored None against absent"


def plant(group, shard: int, key, value) -> None:
    if value is not NOTHING:
        store = group.nodes[shard].engine.store
        store.apply_block(store.last_committed_block + 1, [(key, value)])


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("case", sorted(PLANTS))
def test_a_planted_entry_gets_the_verdict_of_the_hash(case, num_shards):
    key, mine, theirs, differs = PLANTS[case]
    chain = build_chain("smallbank", num_shards)
    shard = num_shards - 1
    a, b = fresh_group(chain, "a"), fresh_group(chain, "b")
    if key is None:
        key = a.nodes[shard].engine.store.keys()[0]
        mine = a.nodes[shard].engine.store.get_latest(key)[0]
    plant(a, shard, key, mine)
    plant(b, shard, key, theirs)

    found = a.first_difference(b)
    hashes_equal = a.state_hashes() == b.state_hashes()
    assert (found is None) == (not differs)
    assert hashes_equal == (not differs or case == STRICTER)
    if differs:
        shown = (TOMBSTONE if side is NOTHING else side for side in (mine, theirs))
        assert found == (shard, key, *shown)
        assert b.first_difference(a) == (shard, key, *reversed(found[2:]))
