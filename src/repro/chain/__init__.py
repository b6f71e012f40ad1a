"""The assembled private blockchains.

Order-Execute systems (Section 2.1.2): clients submit transaction commands
to an ordering service; every replica executes blocks independently with a
DCC protocol — **HarmonyBC** (Harmony), **AriaBC** (Aria), **RBC** and a
serial baseline.

Simulate-Order-Validate systems (Section 2.1.1): transactions are endorsed
(simulated) first, the client reconciles the read-write sets, the ordering
service cuts blocks, and replicas validate — **Fabric** and **FastFabric#**.

Both assemblies share the ledger (hash-chained blocks, tamper detection),
replica nodes (a storage engine + a DCC executor), recovery (checkpoint +
deterministic replay) and the run accounts (:mod:`repro.chain.accounts`:
retries, decisions and the pipeline timing model).
"""

from repro.chain.block import GENESIS_HASH, Block
from repro.chain.config import OEConfig
from repro.chain.ledger import Ledger, TamperError
from repro.chain.node import ReplicaNode
from repro.chain.ordering import OrderingService
from repro.chain.recovery import recover_node
from repro.chain.sov import SOVBlockchain, SOVConfig
from repro.chain.system import OEBlockchain

__all__ = [
    "Block",
    "GENESIS_HASH",
    "Ledger",
    "OEBlockchain",
    "OEConfig",
    "OrderingService",
    "ReplicaNode",
    "SOVBlockchain",
    "SOVConfig",
    "TamperError",
    "recover_node",
]
