"""Disk-oriented storage substrate.

This package is the "database layer" the paper targets: a paged heap file
behind an LRU buffer pool on a simulated disk, a multi-versioned key-value
store providing the *block snapshots* that optimistic DCC protocols execute
against (Table 2c), a write-ahead log supporting both physical and logical
logging (Section 2.4), and block-granularity checkpointing used for
recovery (Section 4).

The cost of every access (buffer hit vs. page miss, log append, fsync) is
returned in simulated microseconds so the scheduler can turn protocol
behaviour into throughput.
"""

from repro.storage.bufferpool import BufferPool
from repro.storage.checkpoint import BlockLog, CheckpointManager
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.heap import PAGE_RECORD_CAPACITY, HeapFile
from repro.storage.mvstore import MVStore, SnapshotView, TOMBSTONE
from repro.storage.wal import LogMode, WriteAheadLog

__all__ = [
    "BlockLog",
    "BufferPool",
    "CheckpointManager",
    "HeapFile",
    "LogMode",
    "MVStore",
    "PAGE_RECORD_CAPACITY",
    "SimulatedDisk",
    "SnapshotView",
    "StorageEngine",
    "TOMBSTONE",
    "WriteAheadLog",
]
