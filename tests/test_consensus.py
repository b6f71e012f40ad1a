"""Tests for the network, Kafka and HotStuff consensus models."""

from __future__ import annotations

import pytest

from repro.consensus.hotstuff import HotStuffConsensus
from repro.consensus.kafka import KafkaOrdering
from repro.consensus.network import NetworkModel, NetworkPreset
from repro.sim.costs import DEFAULT_COSTS as COSTS

#: one OE command and one endorsed SOV transaction on the wire
COMMAND = COSTS.command_bytes
ENDORSED = COSTS.endorsed_txn_bytes(1)


class TestNetworkModel:
    def test_presets_exist(self):
        for preset in NetworkPreset:
            model = NetworkModel.preset(preset, COSTS)
            assert model.one_way_us > 0

    def test_transfer_scales_with_bytes(self):
        net = NetworkModel.preset(NetworkPreset.DEFAULT_1G, COSTS)
        assert net.transfer_us(2000) == pytest.approx(2 * net.transfer_us(1000))

    def test_broadcast_scales_with_fanout(self):
        net = NetworkModel.preset(NetworkPreset.DEFAULT_1G, COSTS)
        assert net.broadcast_us(1000, 10) == pytest.approx(10 * net.transfer_us(1000))

    def test_wan_latency_kicks_in_beyond_one_region(self):
        wan = NetworkModel.preset(NetworkPreset.CLOUD_WAN, COSTS)
        region = COSTS.nodes_per_region
        assert wan.worst_one_way_us(region) == wan.one_way_us
        assert wan.worst_one_way_us(region + 1) == wan.cross_region_one_way_us
        assert wan.worst_one_way_us(region + 1) > 100 * wan.worst_one_way_us(region)

    def test_lan_flat_in_node_count(self):
        lan = NetworkModel.preset(NetworkPreset.CLOUD_LAN_5G, COSTS)
        assert lan.worst_one_way_us(4) == lan.worst_one_way_us(80)


class TestKafka:
    def test_latency_grows_with_replicas(self):
        net = NetworkModel.preset(NetworkPreset.DEFAULT_1G, COSTS)
        kafka = KafkaOrdering(net, COSTS)
        assert kafka.block_latency_us(10_000, 80) > kafka.block_latency_us(10_000, 4)

    def test_throughput_cap_shrinks_with_payload_and_fanout(self):
        net = NetworkModel.preset(NetworkPreset.CLOUD_LAN_5G, COSTS)
        kafka = KafkaOrdering(net, COSTS)
        small = kafka.throughput_cap_tps(100, 100 * COMMAND, 4)
        big_payload = kafka.throughput_cap_tps(100, 100 * ENDORSED, 4)
        many_replicas = kafka.throughput_cap_tps(100, 100 * ENDORSED, 80)
        assert small > big_payload > many_replicas

    def test_sov_uplink_saturates_at_scale(self):
        """The Figures 15/16 mechanism: 1.5KB endorsed rw-sets times 80
        replicas cap SOV throughput; 128B OE commands do not bind."""
        net = NetworkModel.preset(NetworkPreset.CLOUD_LAN_5G, COSTS)
        kafka = KafkaOrdering(net, COSTS)
        sov_cap = kafka.throughput_cap_tps(100, 100 * ENDORSED, 80)
        oe_cap = kafka.throughput_cap_tps(100, 100 * COMMAND, 80)
        assert sov_cap < 8000
        assert oe_cap > 30_000


class TestHotStuff:
    def _consensus(self, nodes, preset=NetworkPreset.CLOUD_LAN_5G):
        network = NetworkModel.preset(preset, COSTS)
        return HotStuffConsensus(network, COSTS, num_nodes=nodes)

    def test_quorum_size(self):
        assert self._consensus(4).quorum == 3
        assert self._consensus(80).quorum == 53

    def test_throughput_order_of_magnitude(self):
        """Figure 1/21: consensus sustains >100K tps at 80 nodes — an order
        of magnitude above the disk DB layer."""
        tps = self._consensus(80).throughput_tps()
        assert 80_000 < tps < 400_000

    def test_wan_hurts_latency_not_throughput(self):
        lan = self._consensus(80, NetworkPreset.CLOUD_LAN_5G)
        wan = self._consensus(80, NetworkPreset.CLOUD_WAN)
        assert wan.block_latency_us() > 5 * lan.block_latency_us()
        assert wan.throughput_tps() == pytest.approx(lan.throughput_tps(), rel=0.25)

    def test_latency_grows_with_nodes_in_wan(self):
        small = self._consensus(20, NetworkPreset.CLOUD_WAN)
        large = self._consensus(80, NetworkPreset.CLOUD_WAN)
        assert large.block_latency_us() > small.block_latency_us()

    def test_leader_cpu_grows_with_quorum(self):
        assert (
            self._consensus(80).leader_round_cpu_us()
            > self._consensus(4).leader_round_cpu_us()
        )
