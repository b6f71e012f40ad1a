"""Write-ahead log with physical and logical modes (Section 2.4).

- **Physical logging** (Fabric, RBC): one record per write containing the
  read-write set / redo image — large records, appended during commit.
- **Logical logging** (deterministic databases, HarmonyBC): only the input
  transaction commands are persisted, *before* execution; replay is
  deterministic so this is sufficient for recovery and "has almost no
  runtime overhead".

Appends accumulate in a group-commit buffer; ``group_commit()`` charges a
single fsync for the whole block (Section 3: group commit is one of the
techniques disk databases use to hide I/O latency). The log is a cost
model: it keeps counters (:class:`WalStats`), not records — recovery
replays the engine's block log, never the WAL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk


class LogMode(enum.Enum):
    PHYSICAL = "physical"
    LOGICAL = "logical"


@dataclass
class WalStats:
    records: int = 0
    group_commits: int = 0


class WriteAheadLog:
    """Append-only simulated log with group commit."""

    def __init__(self, disk: SimulatedDisk, costs: CostModel, mode: LogMode) -> None:
        self._disk = disk
        self._costs = costs
        self.mode = mode
        self.stats = WalStats()

    def append(self) -> float:
        """Count one record into the group-commit buffer; returns the CPU cost
        of formatting it (us)."""
        self.stats.records += 1
        return self._costs.log_record_us

    def group_commit(self) -> float:
        """Flush all buffered records with one fsync; returns cost in us."""
        self.stats.group_commits += 1
        return self._disk.fsync()
