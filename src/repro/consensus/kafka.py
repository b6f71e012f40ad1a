"""Kafka-style crash-fault-tolerant ordering service.

The default consensus layer of HarmonyBC (and of Fabric deployments of the
period). Clients submit transactions to the ordering service, which batches
them into blocks and broadcasts each block to every replica. Being a
replicated log append, its latency is a couple of network hops plus disk
append; its throughput ceiling is the broadcast uplink.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.network import NetworkModel
from repro.sim.costs import CostModel


@dataclass
class KafkaOrdering:
    """Analytic model of a Kafka ordering service."""

    network: NetworkModel
    costs: CostModel

    def block_latency_us(self, block_bytes: int, num_replicas: int) -> float:
        """Client -> orderer -> (intra-cluster replication) -> broadcast."""
        submit = self.network.one_way_us
        replicate = self.network.one_way_us * 2  # leader <-> followers
        append = self.costs.fsync_us
        broadcast = self.network.worst_one_way_us(num_replicas)
        broadcast += self.network.broadcast_us(block_bytes, num_replicas)
        return submit + replicate + append + broadcast

    def min_block_interval_us(self, block_bytes: int, num_replicas: int) -> float:
        """Pipelined ordering: successive blocks are spaced by the uplink
        serialization of the broadcast plus a small per-block CPU term."""
        serialization = self.network.broadcast_us(block_bytes, num_replicas)
        per_block_cpu = self.costs.hash_us + self.costs.log_record_us
        return serialization + per_block_cpu

    def throughput_cap_tps(
        self, block_size: int, block_bytes: int, num_replicas: int
    ) -> float:
        interval = self.min_block_interval_us(block_bytes, num_replicas)
        if interval <= 0:
            return float("inf")
        return block_size / (interval / 1e6)
