"""Network model: the paper's three cluster settings.

- ``DEFAULT_1G`` — the default 7-node cluster: 1 Gbps Ethernet.
- ``CLOUD_LAN_5G`` — 80 t3.2xlarge instances in one region (5 Gbps).
- ``CLOUD_WAN`` — the same instances across 4 continents (Ohio, Mumbai,
  Sydney, Stockholm): a deployment larger than one region pays the
  cross-region one-way latency.

:meth:`NetworkModel.preset` derives all three from the calibration table
(:mod:`repro.sim.costs`: ``lan_latency_us`` / ``bandwidth_mbps``,
``cloud_latency_us`` / ``cloud_bandwidth_mbps``, ``wan_latency_us`` and
``nodes_per_region``); no preset value lives here. Throughput ceilings come
from uplink serialization (bytes × fan-out / bandwidth); latency terms come
from one-way delays. Figures 15–18 are driven entirely by these two
quantities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sim.costs import CostModel


class NetworkPreset(enum.Enum):
    DEFAULT_1G = "default-1g"
    CLOUD_LAN_5G = "cloud-lan-5g"
    CLOUD_WAN = "cloud-wan"


@dataclass(frozen=True)
class NetworkModel:
    """Point-to-point latency plus a shared per-node uplink."""

    one_way_us: float
    bandwidth_mbps: float
    #: nodes one region holds (``None``: one region, however many nodes);
    #: the worst path of a larger deployment crosses regions
    nodes_per_region: int | None = None
    #: one-way latency between different regions (WAN)
    cross_region_one_way_us: float | None = None

    @staticmethod
    def preset(which: NetworkPreset, costs: CostModel) -> "NetworkModel":
        """One of the paper's clusters, as the cost table calibrates it."""
        if which is NetworkPreset.DEFAULT_1G:
            return NetworkModel(costs.lan_latency_us, costs.bandwidth_mbps)
        if which is NetworkPreset.CLOUD_LAN_5G:
            return NetworkModel(costs.cloud_latency_us, costs.cloud_bandwidth_mbps)
        return NetworkModel(
            costs.cloud_latency_us,
            costs.cloud_bandwidth_mbps,
            costs.nodes_per_region,
            costs.wan_latency_us,
        )

    def transfer_us(self, nbytes: int) -> float:
        """Serialization delay of ``nbytes`` on one uplink."""
        return nbytes * 8 / self.bandwidth_mbps  # Mbps == bits/us

    def broadcast_us(self, nbytes: int, fanout: int) -> float:
        """Serialize ``nbytes`` to ``fanout`` peers over one shared uplink."""
        return self.transfer_us(nbytes) * max(0, fanout)

    def worst_one_way_us(self, num_nodes: int) -> float:
        """Worst one-way delay to reach ``num_nodes`` peers: WAN as soon as
        they spill beyond one region."""
        if self.nodes_per_region is None or num_nodes <= self.nodes_per_region:
            return self.one_way_us
        return self.cross_region_one_way_us

    def rtt_us(self, num_nodes: int = 1) -> float:
        return 2.0 * self.worst_one_way_us(num_nodes)
