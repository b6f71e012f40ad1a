"""Reference implementations the differential tests compare production
code against — the seed's straightforward scans, probes and rebuilds, each
kept exactly once, as a plain function over the production objects.

``src/repro`` has one implementation of everything on the decision,
storage and checkpoint path and imports nothing from here (the
``no-twins/*`` rows of ``make gates`` enforce both); only tests do. A reference is written to be
obviously right, never fast: linear scans where production bisects, a
fresh graph per question where production keeps bitsets, a full deep copy
where production appends a delta.

- :mod:`tests.reference.decision` — ``core/`` and ``dcc/``: Algorithm 1 +
  Rule 3 validation, rw-edge extraction, the committed-block closure, the
  Rule-2 commit step, the per-block and cross-block dependency graphs,
  Aria's reservation checks, a block's decision text through the status
  properties.
- :mod:`tests.reference.storage` — ``storage/``, ``shard/federated`` and
  the execution overlay: version-chain walks (the linear visibility
  search), the from-scratch state hash, the per-key load and scan, the
  per-key heap bring-up, the pool miss charged step by step, the
  block-log cut, the eager cross-shard union, the full deep-copy
  checkpoint and the overlay scan's dict merge.
- :mod:`tests.reference.shard` — ``shard/router``, the sequencer's split
  and the driver's merged view: every owner from the static policy and the
  migration list, every participant set spec by spec, every sub-block by a
  per-shard filter and its header from the grammar, every coordinator
  record by its TID.
- :mod:`tests.reference.encoding` — ``repro/encoding.py``: the value
  text's recursive definition.
- :mod:`tests.reference.sim` — ``sim/``: the pipeline schedule with a heap
  pop, a push and two ``max`` calls per task.
- :mod:`tests.reference.workloads` — ``workloads/``: the SmallBank spec
  draw with one method call per draw, the zipf distinct draw through
  ``sample``.
"""

from tests.reference.decision import (
    aria_decisions,
    block_dependency_graph,
    decision_part,
    false_aborts,
    history_graph,
    reachability,
    readers_of,
    reference_commit,
    reference_validate,
    rw_edges,
)
from tests.reference.encoding import encode
from tests.reference.shard import header_bytes, merged_view, owner_at, route_spec, split
from tests.reference.sim import pipeline_schedule
from tests.reference.storage import (
    blocks_after,
    entry_digest,
    federated_scan,
    full_checkpoint,
    heap_access,
    heap_load,
    load,
    materialize,
    materialize_at,
    overlay_scan,
    pool_access,
    scan,
    snapshot_get,
    state_hash,
    visible_at,
    writes_in_block,
)
from tests.reference.workloads import smallbank_block, zipf_distinct

__all__ = [
    "aria_decisions",
    "block_dependency_graph",
    "blocks_after",
    "decision_part",
    "encode",
    "header_bytes",
    "entry_digest",
    "false_aborts",
    "federated_scan",
    "full_checkpoint",
    "heap_access",
    "heap_load",
    "history_graph",
    "load",
    "materialize",
    "materialize_at",
    "merged_view",
    "overlay_scan",
    "owner_at",
    "pipeline_schedule",
    "pool_access",
    "reachability",
    "readers_of",
    "reference_commit",
    "reference_validate",
    "route_spec",
    "rw_edges",
    "scan",
    "smallbank_block",
    "snapshot_get",
    "split",
    "state_hash",
    "visible_at",
    "writes_in_block",
    "zipf_distinct",
]
