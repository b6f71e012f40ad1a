"""Cost model for the discrete-event simulation.

All costs are expressed in microseconds (us) of simulated time, or bytes for
payload sizes. The constants are calibrated so the *relative* behaviour of
the reproduced systems matches the paper (the claims beside each experiment
in ``repro/bench/experiments.py``, deviations included); they are not
claims about absolute hardware speed.

Three storage profiles reproduce the Figure 21 axis:

- ``SSD`` — the default disk-oriented setting (page I/O dominates).
- ``RAMDISK`` — the same database engine but with near-zero device latency;
  buffer-manager and locking overheads remain.
- ``MEMORY`` — a main-memory engine: no device latency *and* no
  buffer-manager/locking overhead (the "cost of masking I/O latency"
  discussed by Stonebraker et al. and in Section 5.8).
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
    """Simulated costs, in microseconds unless stated otherwise.

    The model deliberately stays coarse: the paper's evaluation depends on
    I/O counts, buffer hits, abort waste, serial-vs-parallel commit paths and
    message sizes — all of which are explicit terms here.
    """

    # --- storage device ---
    page_read_us: float = 100.0  # NVMe-SSD-class random page read
    page_write_us: float = 100.0
    fsync_us: float = 400.0  # group-commit flush

    # --- buffer manager / CPU path ---
    dram_access_us: float = 0.2  # buffer-pool hit
    index_lookup_us: float = 1.5  # B-tree/hash probe CPU cost
    latch_us: float = 0.5  # page latch / lock-manager interaction
    op_cpu_us: float = 1.0  # predicate eval, expression, tuple copy
    buffer_admin_us: float = 1.0  # buffer-manager bookkeeping per access

    # --- crypto ---
    hash_us: float = 2.0  # SHA-256 over a transaction/command
    sign_us: float = 60.0  # ECDSA-class signature
    verify_us: float = 120.0  # signature verification

    # --- network ---
    lan_latency_us: float = 150.0  # one-way, same rack / region
    wan_latency_us: float = 75_000.0  # one-way, cross-continent
    bandwidth_mbps: float = 1000.0  # per-NIC uplink (default cluster: 1Gbps)

    # --- transaction ingest ---
    #: per-transaction dispatch cost at the replica (deserialize, route) —
    #: a serial front-end term that is negligible for disk-bound layers but
    #: caps a pure in-memory database layer below the consensus ceiling
    #: (Figures 1 and 21)
    ingest_us: float = 8.0

    # --- logging ---
    log_record_us: float = 0.5  # CPU to format one log record
    logical_log_bytes: int = 64  # a transaction command
    physical_log_bytes: int = 640  # a read-write set / redo-undo record

    def transfer_us(self, nbytes: int) -> float:
        """Serialization delay of ``nbytes`` over this model's bandwidth."""
        bits = nbytes * 8
        return bits / self.bandwidth_mbps  # Mbps == bits per us

    def with_profile(self, profile: StorageProfile) -> "CostModel":
        """Return a copy of this model adjusted to a storage profile."""
        if profile is StorageProfile.SSD:
            return self
        if profile is StorageProfile.RAMDISK:
            return replace(self, page_read_us=1.0, page_write_us=1.0, fsync_us=2.0)
        # MEMORY: no device latency and no buffer-manager masking costs.
        return replace(
            self,
            page_read_us=0.0,
            page_write_us=0.0,
            fsync_us=0.0,
            buffer_admin_us=0.0,
            latch_us=0.1,
            index_lookup_us=0.5,
        )


#: Default model used throughout the benchmarks (the paper's default cluster:
#: SSD storage, 1 Gbps Ethernet).
DEFAULT_COSTS = CostModel()

#: cores of one replica machine: the width of every modeled pipeline lane —
#: a live shard's, the SOV replica's, a recovering replica's replay
REPLICA_CORES = 8
