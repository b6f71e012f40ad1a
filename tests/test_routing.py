"""The block-level routing pass against the per-spec derivation.

``ShardRouter.route_block`` derives every routing fact of a global block in
one pass: participant sets, the rebalance policy's routed pairs, the
per-shard cuts the sequencer signs, each transaction's coordinator record
and each shard's cross-shard slots. ``tests.reference.route_spec`` derives a
participant set spec by spec from owners computed from scratch
(``reference.owner_at``); sub-block headers are written out from their
grammar (``reference.header_bytes``). Every registered workload at 2 and 4
shards, statically and after one ownership migration, plus a workload with
no footprint (broadcast) and one with an empty key list, must agree on all
of it.
"""

from __future__ import annotations

import pytest

from repro.chain.block import GENESIS_HASH
from repro.chain.ordering import OrderingService, ShardSequencer
from repro.consensus.crypto import Signer, sha256_hex
from repro.shard.rebalance import MigrationRecord
from repro.shard.router import ShardRouter
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.sim.rng import SeededRng
from repro.txn.transaction import TxnSpec
from repro.workloads import REGISTRY, ShardAffinity, make_workload
from repro.workloads.base import Workload
from tests import reference
from tests.conftest import run_with_history


class Opaque(Workload):
    """No footprint at all: every transaction is broadcast."""

    name = "opaque"

    def generate_block(self, size, rng):
        return [TxnSpec("opaque", (("i", rng.randint(0, 49)),)) for _ in range(size)]


class Empty(Opaque):
    """A valid empty key list, which routes like no footprint."""

    name = "empty"

    def spec_keys(self, spec):
        return []


def workloads(num_shards: int) -> dict:
    """Every registered workload (affinity on, so a stream holds both
    single- and multi-shard transactions), ``adv-scan`` with its scan
    footprints withheld, and the two footprint-free ones."""
    out = {
        name: make_workload(
            name, profile="gate", affinity=ShardAffinity(num_shards, 0.3)
        )
        for name in sorted(REGISTRY)
    }
    withheld = make_workload("adv-scan", profile="gate")
    withheld.spec_footprint = lambda spec: None
    out["adv-scan/no-footprint"] = withheld
    out["opaque"] = Opaque()
    out["empty"] = Empty()
    return out


CASES = [
    (name, shards, migrate)
    for shards in (2, 4)
    for name in workloads(shards)
    for migrate in (False, True)
]

#: blocks routed per case; the migration takes effect at ``MIGRATION_AT``
BLOCKS, BLOCK_SIZE, MIGRATION_AT = 6, 24, 3


def expected_route(workload, block, router, installed, num_shards):
    """Participants, pairs, cuts, records, cross slots and cross map of
    ``block`` derived spec by spec from scratch."""
    policy_fn = router._index_fn if router.policy == "workload" else None
    space = router._index_space
    height = router.cursor_height

    def owner(key):
        return reference.owner_at(key, num_shards, installed, height, policy_fn, space)

    overrides = {}
    for at, moves in installed:
        if at <= height:
            overrides.update(moves)
    routes = [
        reference.route_spec(
            workload, spec, owner, num_shards, policy_fn, space, overrides
        )
        for spec in block.specs
    ]
    participants = [parts for parts, _pairs in routes]
    cuts = reference.split(block, participants, num_shards)
    records, cross = [], {}
    for j, parts in enumerate(participants):
        tid = block.first_tid + j
        coordinator = min(parts)
        records.append((coordinator, cuts[coordinator][1].index(tid)))
        if len(parts) > 1:
            cross[tid] = parts
    slots = [
        [i for i, tid in enumerate(tids) if tid in cross] for _specs, tids in cuts
    ]
    return participants, [pairs for _parts, pairs in routes], cuts, records, slots, cross


@pytest.mark.parametrize(
    "name, num_shards, migrate",
    CASES,
    ids=[f"{n}-{s}shard-{'adaptive' if m else 'static'}" for n, s, m in CASES],
)
def test_block_pass_matches_the_per_spec_derivation(name, num_shards, migrate):
    workload = workloads(num_shards)[name]
    if isinstance(workload, Opaque):
        router = ShardRouter(num_shards, policy="hash")
    else:
        router = ShardRouter.for_workload(workload, num_shards)
    signer = Signer("ordering-service")
    ordering, sequencer = OrderingService(signer), ShardSequencer(num_shards, signer)
    rng = SeededRng(11, f"routing/{name}/{num_shards}")
    tails = [GENESIS_HASH] * num_shards
    installed = []
    for height in range(BLOCKS):
        block = ordering.form_block(workload.generate_block(BLOCK_SIZE, rng))
        assert block.header_bytes() == reference.header_bytes(
            block.block_id, block.first_tid, block.prev_hash, block.specs
        )
        if migrate and height == MIGRATION_AT:
            # move the keys of the block's first specs, plus one key outside
            # every footprint, each to the next shard
            moved = []
            for spec in block.specs[:3]:
                footprint = workload.spec_footprint(spec)
                keys = footprint.points if footprint is not None else workload.spec_keys(spec)
                moved.extend(keys or ())
            moves = tuple(
                (key, (router.shard_of(key) + 1) % num_shards)
                for key in dict.fromkeys(moved + [("elsewhere", 1)])
            )
            router.apply_migration(MigrationRecord(height, 1, moves=moves))
            installed.append((height, moves))
        else:
            router.advance_to(height)
        participants, pairs, cuts, records, slots, cross = expected_route(
            workload, block, router, installed, num_shards
        )
        routed = router.route_block(workload, block.specs, block.first_tid, pairs=True)
        plain = router.route_block(workload, block.specs, block.first_tid)
        for route in (routed, plain):
            assert route.participants == participants
            assert [(tuple(s), tuple(t)) for s, t in route.cuts] == cuts
            assert route.records == records
            assert route.cross_slots == slots
            assert route.cross == cross
        assert routed.routed == pairs and plain.routed is None
        subs = sequencer.split(block, plain.cuts)
        for shard, (specs, tids) in enumerate(cuts):
            sub = subs[shard]
            first_tid = tids[0] if tids else block.first_tid
            header = reference.header_bytes(block.block_id, first_tid, tails[shard], specs, tids)
            assert sub.header_bytes() == header
            assert sub.hash == sha256_hex(header)
            assert signer.verify(header, sub.signature)
            tails[shard] = sub.hash
    if migrate:
        assert installed and router.ownership_epoch == 1


@pytest.mark.parametrize("system", ["harmony", "aria", "rbc"])
@pytest.mark.parametrize("name", ["smallbank", "tpcc", "adv-scan", "adv-skewshift"])
def test_merged_view_by_position_matches_lookup_by_tid(name, system):
    """The merged view takes each coordinator record by its sub-block
    position; the reference finds it by its global TID — the same objects,
    on a run with cross-shard transactions and an adaptive re-keying."""
    config = ShardConfig(
        system=system,
        num_shards=4,
        block_size=20,
        num_blocks=8,
        seed=3,
        rebalance="adaptive",
        rebalance_skew_threshold=1.0,
        rebalance_cross_threshold=0.0,
    )
    workload = make_workload(name, profile="gate", affinity=ShardAffinity(4, 0.3))
    chain = ShardedBlockchain(config, workload)
    _metrics, outcomes = run_with_history(chain)
    assert any(outcome.expected for outcome in outcomes)
    for outcome in outcomes:
        merged = chain.merged_view(outcome)
        expected = reference.merged_view(outcome)
        assert len(merged) == len(expected)
        assert all(a is b for a, b in zip(merged, expected))
