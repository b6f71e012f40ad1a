"""The modeled clock's one calibration table.

Costs are microseconds (us) of simulated time, sizes bytes, calibrated so
the *relative* behaviour of the reproduced systems matches the paper (the
claims beside each experiment in ``repro/bench/experiments.py``, deviations
included), not absolute hardware speed. :data:`DEFAULT_COSTS` is the table
and :func:`cost_table` its one read: ``ShardedBlockchain``,
``SOVBlockchain``, a ``StorageEngine`` built without a model and Figures 1
and 21's HotStuff take their model there and hold it; a recovered engine
keeps its crashed engine's. ``tests/test_costs.py`` fails on a field whose
doubling moves no modeled quantity.

Each field, what reads it and what it drives. "Runs" is every modeled
throughput / latency row (Figures 1, 7–12, 14–21, the sharded scale-out);
Table 3 and Figure 13 count decisions, which no field moves::

    page_read_us            BufferPool: a miss                           runs; 21 (SSD)
    page_write_us           a dirty write-back; a checkpoint flush       runs; 21 (SSD)
    fsync_us                WAL group commit per block; Kafka's append   runs; 21 (SSD)
    dram_access_us          BufferPool, HeapFile: a hit                  runs
    index_lookup_us         HeapFile, StorageEngine: a probe             runs
    latch_us                HeapFile: a page latch                       runs
    op_cpu_us               an op's CPU: simulate, validate, apply       runs
    buffer_admin_us         BufferPool: bookkeeping per access           runs
    hash_us                 ReplicaNode block hash; Kafka, HotStuff CPU  runs; 1, 21
    batch_hash_share        HotStuff: share of its batch hashed per txn  1, 17/18, 21
    sign_us                 HotStuff: leader signature per phase         1, 17/18, 21
    verify_us               ReplicaNode, SOV endorsers, HotStuff votes   runs; 1, 21
    lan_latency_us          preset DEFAULT_1G: one-way                   runs, not 15–18
    bandwidth_mbps          preset DEFAULT_1G: uplink                    runs, not 15–18
    cloud_latency_us        presets CLOUD_*: in-region one-way           1, 15–18, 21
    cloud_bandwidth_mbps    presets CLOUD_*: uplink                      1, 15–18, 21
    wan_latency_us          preset CLOUD_WAN: cross-region one-way       1, 17/18
    nodes_per_region        preset CLOUD_WAN: nodes before paths go WAN  17/18
    command_bytes           an OE block: Kafka, HotStuff per block       OE runs
    cross_read_bytes        ShardedBlockchain: a remote-read round       scale-out
    vote_bytes              ShardedBlockchain: a prepare vote            scale-out
    endorsed_base_bytes     SOVBlockchain: an endorsed txn's fixed part  SOV runs
    endorsed_record_bytes   SOVBlockchain: per read/write-set entry      SOV runs
    proposal_bytes_per_txn  HotStuff: hash-based proposal per txn        1, 17/18, 21
    ingest_us               OE, SOV: serial per-txn dispatch             runs
    log_record_us           SOV's physical WAL record; Kafka per block   runs
    replica_cores           RunAccounts: width of every pipeline lane    runs
    graph_traversal_us      FastFabricOrderer: per node and edge walked  FastFabric#
    graph_build_us          FastFabricOrderer: per read/write-set entry  FastFabric#
    graph_reorder_us        FastFabricOrderer: per transaction x edge    FastFabric#
    ramdisk_page_us         with_profile(RAMDISK): a page read or write  21
    ramdisk_fsync_us        with_profile(RAMDISK): a flush               21
    memory_latch_us         with_profile(MEMORY): a latch                1, 21
    memory_index_lookup_us  with_profile(MEMORY): a probe                1, 21

The storage profiles are Figure 21's axis. ``SSD`` is the table as it
stands (page I/O dominates); ``RAMDISK`` the same engine at near-zero device
latency, buffer-manager and locking overheads kept; ``MEMORY`` a
main-memory engine with no device latency *and* no buffer-manager overhead
(the "cost of masking I/O latency" of Stonebraker et al. and Section 5.8).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class StorageProfile(enum.Enum):
    """Which storage substrate the database layer runs on (Figure 21)."""

    SSD = "ssd"
    RAMDISK = "ramdisk"
    MEMORY = "memory"


@dataclass(frozen=True)
class CostModel:
    """The calibration table; the module docstring describes every field."""

    page_read_us: float = 100.0
    page_write_us: float = 100.0
    fsync_us: float = 400.0

    dram_access_us: float = 0.2
    index_lookup_us: float = 1.5
    latch_us: float = 0.5
    op_cpu_us: float = 1.0
    buffer_admin_us: float = 1.0

    hash_us: float = 2.0
    batch_hash_share: float = 0.05
    sign_us: float = 60.0
    verify_us: float = 120.0

    lan_latency_us: float = 150.0
    bandwidth_mbps: float = 1000.0
    cloud_latency_us: float = 100.0
    cloud_bandwidth_mbps: float = 5000.0
    wan_latency_us: float = 75_000.0
    nodes_per_region: int = 20

    command_bytes: int = 128
    cross_read_bytes: int = 256
    vote_bytes: int = 64
    endorsed_base_bytes: int = 1200
    endorsed_record_bytes: int = 300
    proposal_bytes_per_txn: int = 32

    ingest_us: float = 8.0
    log_record_us: float = 0.5
    replica_cores: int = 8

    graph_traversal_us: float = 2.0
    graph_build_us: float = 15.0
    graph_reorder_us: float = 130.0

    ramdisk_page_us: float = 1.0
    ramdisk_fsync_us: float = 2.0
    memory_latch_us: float = 0.1
    memory_index_lookup_us: float = 0.5

    def endorsed_txn_bytes(self, records_per_txn: float) -> int:
        """Wire size of one endorsed SOV transaction."""
        base, per_record = self.endorsed_base_bytes, self.endorsed_record_bytes
        return int(base + per_record * records_per_txn)

    def with_profile(self, profile: StorageProfile) -> "CostModel":
        """Return a copy of this model adjusted to a storage profile."""
        if profile is StorageProfile.SSD:
            return self
        if profile is StorageProfile.RAMDISK:
            page, fsync = self.ramdisk_page_us, self.ramdisk_fsync_us
            return replace(self, page_read_us=page, page_write_us=page, fsync_us=fsync)
        # MEMORY: no device latency and no buffer-manager masking costs.
        return replace(
            self,
            page_read_us=0.0,
            page_write_us=0.0,
            fsync_us=0.0,
            buffer_admin_us=0.0,
            latch_us=self.memory_latch_us,
            index_lookup_us=self.memory_index_lookup_us,
        )


#: The calibration table: the paper's default cluster (SSD storage, 1 Gbps
#: Ethernet). Read only through :func:`cost_table`.
DEFAULT_COSTS = CostModel()


def cost_table() -> CostModel:
    """The table every modeled clock is built from — the one read of
    :data:`DEFAULT_COSTS`, so replacing it there moves every consumer."""
    return DEFAULT_COSTS
