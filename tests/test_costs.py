"""The modeled clock's one calibration table (:mod:`repro.sim.costs`).

``DEFAULT_COSTS`` is read at one site (``cost_table``). Replacing it there
must move every modeled number and restoring it must restore them exactly;
doubling any one field must move at least one modeled quantity, so a field
nothing reads fails here.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.bench.config import BenchScale
from repro.bench.experiments import figure1
from repro.chain.recovery import rebuild_engine
from repro.chain.sov import SOVBlockchain, SOVConfig
from repro.consensus.hotstuff import HotStuffConsensus
from repro.consensus.kafka import KafkaOrdering
from repro.consensus.network import NetworkModel, NetworkPreset
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.sim import costs as cost_module
from repro.sim.costs import DEFAULT_COSTS, CostModel, StorageProfile, cost_table
from repro.storage.engine import StorageEngine
from repro.workloads import make_workload

#: the block the consensus models are priced on (bytes)
BLOCK_BYTES = 10_000
#: one region's LAN at 4 nodes; past the table's nodes_per_region (20),
#: but not past twice it, at 30
NODES = (4, 30)


def oe_run(profile=StorageProfile.SSD, seed=3):
    """Two shards (cross-shard reads and votes), a one-page pool (misses and
    write-backs) and a checkpoint every other block."""
    config = ShardConfig(
        block_size=24, num_blocks=3, num_shards=2, pool_pages=1,
        checkpoint_interval=2, profile=profile, seed=seed,
    )
    chain = ShardedBlockchain(config, make_workload("smallbank", profile="gate"))
    return chain, chain.run()


def sov_run(system, seed=3):
    config = SOVConfig(system=system, block_size=12, num_blocks=3, pool_pages=4, seed=seed)
    return SOVBlockchain(config, make_workload("ycsb", profile="conformance")).run()


def modeled() -> dict:
    """Every modeled quantity the census watches, under the table as it
    stands: tiny Order-Execute runs on each storage profile, tiny Fabric and
    FastFabric# runs, the network presets and the Kafka / HotStuff models."""
    table = cost_table()
    quantities = {f"oe/{p.value}": oe_run(p)[1] for p in StorageProfile}
    quantities.update({f"sov/{s}": sov_run(s) for s in ("fabric", "fastfabric")})
    for preset in NetworkPreset:
        network = quantities[preset.value] = NetworkModel.preset(preset, table)
        for nodes in NODES:
            hotstuff = HotStuffConsensus(network, table, num_nodes=nodes)
            kafka = KafkaOrdering(network, table)
            quantities[f"{preset.value}/{nodes}"] = (
                hotstuff.throughput_tps(),
                hotstuff.block_latency_us(),
                hotstuff.min_block_interval_us(BLOCK_BYTES, nodes),
                kafka.block_latency_us(BLOCK_BYTES, nodes),
                kafka.min_block_interval_us(BLOCK_BYTES, nodes),
            )
    return quantities


def scaled(factor, *names) -> CostModel:
    """The default table with ``names`` (all fields if none) times ``factor``."""
    names = names or [f.name for f in fields(CostModel)]
    return replace(DEFAULT_COSTS, **{n: getattr(DEFAULT_COSTS, n) * factor for n in names})


@pytest.fixture(scope="module")
def baseline():
    return modeled()


@pytest.mark.parametrize("name", [f.name for f in fields(CostModel)])
def test_every_field_moves_a_modeled_quantity(name, baseline, monkeypatch):
    monkeypatch.setattr(cost_module, "DEFAULT_COSTS", scaled(2, name))
    moved = [q for q, value in modeled().items() if value != baseline[q]]
    assert moved, f"doubling {name} moves no modeled quantity: nothing reads it"


def test_one_site_moves_every_modeled_number_and_restoring_restores_them(monkeypatch):
    scale = BenchScale(num_blocks=1, sov_blocks=1, tpcc_blocks=1)

    def observe(seed):
        chain, oe = oe_run(seed=seed)
        crashed = chain.group.nodes[0].engine
        recovered, _replay_from, _checkpoint = rebuild_engine(crashed)
        assert recovered.costs == crashed.costs
        return {
            "oe": oe,
            "sov": sov_run("fabric", seed),
            "recovered engine": recovered.costs,
            "Figure 1 HotStuff": figure1(scale).rows[-2:],
            "presets": [NetworkModel.preset(p, cost_table()) for p in NetworkPreset],
        }

    seeds = (3, 4)
    before = {seed: observe(seed) for seed in seeds}
    monkeypatch.setattr(cost_module, "DEFAULT_COSTS", scaled(2))
    replaced = observe(seeds[0])
    still = [q for q, value in replaced.items() if value == before[seeds[0]][q]]
    assert not still, f"replacing DEFAULT_COSTS left {still} as they were"
    monkeypatch.undo()
    assert {seed: observe(seed) for seed in seeds} == before


def test_a_recovered_engine_keeps_its_cost_model():
    """The rebuilt engine is calibrated like the crashed one, not from the
    defaults."""
    engine = StorageEngine(costs=scaled(3, "op_cpu_us"), profile=StorageProfile.RAMDISK)
    engine.preload({"a": 1})
    rebuilt, _replay_from, _checkpoint = rebuild_engine(engine)
    assert rebuilt.costs == engine.costs
    assert rebuilt.costs.op_cpu_us == 3.0
