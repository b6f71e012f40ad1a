"""Harmony: the paper's deterministic concurrency control protocol.

The protocol runs each block in two steps (Section 3.1):

1. **Simulation** — every transaction executes against the same block
   snapshot, producing deterministic read/write sets. rw-dependencies are
   observed on the fly and folded into two per-transaction counters,
   ``min_out`` and ``max_in`` (Algorithm 1).
2. **Commit** — transactions sitting in a *backward dangerous structure*
   abort (Rule 1; generalized to Rule 3 under inter-block parallelism);
   everything else commits. ww/wr conflicts never abort: update commands
   are reordered by ascending ``min_out`` (Rule 2) and coalesced into one
   physical update per key (Section 3.3.2).

Modules:

- :mod:`repro.core.dependencies` — rw-edge detection over read/write sets,
  including range reads (phantom handling).
- :mod:`repro.core.validation` — Rules 1 and 3.
- :mod:`repro.core.reordering` — Rule 2 + update coalescence (Algorithm 2).
- :mod:`repro.core.harmony` — the block executor tying it all together,
  with ablation switches used by Figure 20.
"""

from repro.core.dependencies import BlockDependencyIndex, RWEdge
from repro.core.harmony import BlockExecution, HarmonyConfig, HarmonyExecutor
from repro.core.reordering import ReorderingResult, apply_write_sets
from repro.core.validation import HarmonyValidator, ValidationStats

__all__ = [
    "BlockDependencyIndex",
    "BlockExecution",
    "HarmonyConfig",
    "HarmonyExecutor",
    "HarmonyValidator",
    "ReorderingResult",
    "RWEdge",
    "ValidationStats",
    "apply_write_sets",
]
