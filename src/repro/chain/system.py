"""The unsharded Order-Execute blockchain: HarmonyBC, AriaBC, RBC, serial.

The paper has one Order-Execute dataflow (order → simulate → validate →
commit), and this repository has one driver for it:
:class:`~repro.shard.system.ShardedBlockchain`. :class:`OEBlockchain` is
that driver at ``num_shards=1`` — one replica pipeline whose only "shard"
owns the whole keyspace, so routing, sub-block splitting, vote exchange and
remote reads have nothing to do (see ``docs/sharding.md``, "One driver").
``run()`` prices the run on the modeled clock, ``consistency_check()``
replays the chain on a second replica and compares live entries per shard.
"""

from __future__ import annotations

from repro.chain.config import OEConfig
from repro.chain.node import ReplicaNode
from repro.shard.system import ShardConfig, ShardedBlockchain


class OEBlockchain(ShardedBlockchain):
    """One Order-Execute blockchain bound to a workload."""

    def __init__(self, config: OEConfig, workload) -> None:
        super().__init__(ShardConfig(**vars(config), num_shards=1), workload)

    @property
    def node(self) -> ReplicaNode:
        """The replica (recovery may have swapped in a rebuilt one)."""
        return self.group.nodes[0]
