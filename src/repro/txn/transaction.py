"""Transaction runtime records.

A :class:`TxnSpec` is what clients submit and the ordering service ships —
just a procedure name and parameters (the OE architecture ships commands,
not read-write sets; Section 2.1.2). A :class:`Txn` is the per-replica
runtime record produced by the simulation step: read/write sets, the
``min_out`` / ``max_in`` counters of Algorithm 1, and the commit outcome.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.encoding import key_text
from repro.txn.commands import UpdateCommand, coalesce


class TxnStatus(enum.Enum):
    PENDING = "pending"
    COMMITTED = "committed"
    ABORTED = "aborted"


class AbortReason(enum.Enum):
    """Why a protocol aborted a transaction (diagnostics + Figure 13)."""

    BACKWARD_DANGEROUS_STRUCTURE = "backward-dangerous-structure"  # Harmony Rule 1
    INTER_BLOCK_STRUCTURE = "inter-block-structure"  # Harmony Rule 3(ii)
    WAW = "waw"  # Aria / RBC write-write conflict
    RAW = "raw"  # Aria read-after-write conflict
    STALE_READ = "stale-read"  # Fabric version check
    SSI_DANGEROUS_STRUCTURE = "ssi-dangerous-structure"  # RBC
    GRAPH_CYCLE = "graph-cycle"  # FastFabric# orderer
    GRAPH_OVERFLOW = "graph-overflow"  # FastFabric# drops txns on big graphs
    ENDORSEMENT_MISMATCH = "endorsement-mismatch"  # SOV divergent rw-sets
    EXECUTION_ERROR = "execution-error"
    CROSS_SHARD_ABORT = "cross-shard-abort"  # 2PC veto by another shard
    MIGRATION_FENCE = "migration-fence"  # key in flight at a re-key boundary


@dataclass(frozen=True, slots=True)
class TxnSpec:
    """A client transaction: procedure name + parameters (a command)."""

    proc: str
    params: tuple = ()
    #: the spec's canonical text, ``proc(params)`` in the params' key text
    #: (``docs/artifacts.md``) — the unit every block header is joined
    #: from. A pure function of the two frozen fields, so it is derived here,
    #: once, and carried by the spec: the global block, every sub-block
    #: sharing the object, signature checks, ledger appends, chain
    #: back-traces and replay all read this string. Equality, hashing and
    #: ``repr`` ignore it.
    canonical: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "canonical", f"{self.proc}({key_text(self.params)})")

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def __reduce__(self):
        # derived state never travels: a copied or pickled spec (``deepcopy``
        # goes through here) is its two fields and re-derives the text
        return (type(self), (self.proc, self.params))


@dataclass
class Txn:
    """Per-replica runtime state of one transaction in one block."""

    tid: int
    block_id: int
    spec: TxnSpec

    #: key -> version read (None when the key was absent).
    read_set: dict = field(default_factory=dict)
    #: half-open ranges [(start, end)] registered by scans (phantom guard).
    read_ranges: list = field(default_factory=list)
    #: key -> ordered update commands recorded during simulation.
    write_set: dict = field(default_factory=dict)
    #: keys in first-update order (Algorithm 2's ``updated_keys``).
    updated_keys: list = field(default_factory=list)

    output: object = None
    status: TxnStatus = TxnStatus.PENDING
    abort_reason: AbortReason | None = None
    sim_cost_us: float = 0.0
    commit_cost_us: float = 0.0

    # Algorithm 1 counters; initialised by the validator.
    min_out: int = 0
    max_in: int = 0

    @property
    def committed(self) -> bool:
        return self.status is TxnStatus.COMMITTED

    @property
    def aborted(self) -> bool:
        return self.status is TxnStatus.ABORTED

    def record_update(self, key: object, command: UpdateCommand) -> None:
        """Append an update command (corner case 2: repeated updates to one
        key coalesce immediately, so each key holds one effective command)."""
        existing = self.write_set.get(key)
        if existing is None:
            self.write_set[key] = command
            self.updated_keys.append(key)
        else:
            self.write_set[key] = coalesce([existing, command])

    def reads(self, key: object) -> bool:
        if key in self.read_set:
            return True
        return any(start <= key < end for start, end in self.read_ranges)

    def mark_committed(self) -> None:
        self.status = TxnStatus.COMMITTED
        self.abort_reason = None

    def mark_aborted(self, reason: AbortReason) -> None:
        self.status = TxnStatus.ABORTED
        self.abort_reason = reason
