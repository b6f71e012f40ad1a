"""Deterministic simulation kernel.

This package provides the machinery that turns protocol decisions into
performance numbers without touching real hardware:

- :mod:`repro.sim.costs` — the one calibration table (disk, CPU, crypto,
  network presets, wire sizes) with the SSD / RAMDisk / in-memory profiles
  of Figure 21.
- :mod:`repro.sim.scheduler` — a multi-core list scheduler that computes
  block makespans, pipelining (inter-block parallelism) and CPU utilization.
- :mod:`repro.sim.metrics` — result containers shared by the bench harness.
- :mod:`repro.sim.rng` — seeded random streams so every run is reproducible.

Nothing in here feeds back into commit/abort decisions; determinism of the
protocols is structural (they depend only on TIDs and read/write sets).
"""

from repro.sim.costs import CostModel, StorageProfile
from repro.sim.metrics import BlockStats, RunMetrics
from repro.sim.rng import SeededRng
from repro.sim.scheduler import BlockTiming, PipelineResult, PipelineSimulator

__all__ = [
    "BlockStats",
    "BlockTiming",
    "CostModel",
    "PipelineResult",
    "PipelineSimulator",
    "RunMetrics",
    "SeededRng",
    "StorageProfile",
]
