"""Shared block-executor machinery for all DCC protocols.

Every protocol consumes a block of :class:`~repro.txn.transaction.Txn` and
produces a :class:`BlockExecution`: commit/abort decisions applied to the
transactions, the new state installed in the storage engine, and the task
durations the pipeline scheduler turns into throughput.

The *decision* layer is strictly deterministic — it sees TIDs and
read/write sets only. The *timing* layer (durations) never feeds back into
decisions.

This module is deliberately dependency-light so both :mod:`repro.core`
(Harmony) and :mod:`repro.dcc` (the baselines) can build on it without
import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.intervals import covers
from repro.sim.metrics import BlockStats
from repro.storage.engine import StorageEngine
from repro.storage.mvstore import TOMBSTONE, SnapshotView
from repro.txn.context import SimulationContext
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import AbortReason, Txn, TxnStatus


@dataclass
class PreparedBlock:
    """Decision state carried from an executor's prepare phase to its commit.

    Every executor runs a block in these two phases. A shard *prepares* a
    block (simulate + validate — its local 2PC vote) and only *commits*
    after the cross-shard decision round, which may force additional aborts
    (``abort_tids`` of :meth:`DCCExecutor.commit_block`). An unsharded run
    commits with no forced aborts.
    """

    block_id: int
    txns: list[Txn]
    #: per-transaction simulation-step durations (us), in block order
    sim_durations_us: list[float] = field(default_factory=list)
    #: snapshot the block simulated against (block id)
    snapshot_block_id: int | None = None
    #: serial critical-path cost accrued before simulation (block verify)
    extra_pre_exec_us: float = 0.0
    #: executor-specific state threaded from prepare to commit
    payload: object = None


@dataclass
class BlockExecution:
    """Everything a system layer needs to know about one executed block."""

    block_id: int
    txns: list[Txn]
    #: per-transaction simulation-step durations (us), in block order
    sim_durations_us: list[float] = field(default_factory=list)
    #: commit-step task durations (us); parallel tasks unless serial_commit
    commit_durations_us: list[float] = field(default_factory=list)
    #: whether the commit/validation step is inherently serial
    serial_commit: bool = False
    #: serial critical-path work before simulation (e.g. graph traversal)
    pre_exec_serial_us: float = 0.0
    #: serial tail (group commit fsync, hash chaining, checkpoint flush)
    post_commit_serial_us: float = 0.0
    #: the block's decision counts (every executor's commit sets them)
    stats: BlockStats = None  # type: ignore[assignment]
    #: ``(key, updater tids in apply order)`` per written key (Harmony) —
    #: consumed by the history oracle
    apply_chains: list = field(default_factory=list)
    #: snapshot the block simulated against (block id)
    snapshot_block_id: int | None = None
    #: the committed set's :class:`~repro.core.dependencies.CommittedGraph`
    #: when the commit step built one (Harmony) — taken, not kept, by the
    #: driver's false-abort accounting
    committed_graph: object = None


def simulate_transactions(
    txns: list[Txn],
    snapshot: SnapshotView,
    registry: ProcedureRegistry,
    engine: StorageEngine | None = None,
) -> list[float]:
    """Run every transaction's simulation step against ``snapshot``.

    Returns the per-transaction simulated durations. A procedure raising an
    error aborts only that transaction (EXECUTION_ERROR) — deterministically,
    since the snapshot it ran against is deterministic.
    """
    durations: list[float] = []
    for txn in txns:
        ctx = SimulationContext(txn, snapshot, engine)
        try:
            txn.output = registry.execute(ctx)
        except (KeyError, TypeError, ValueError):
            txn.mark_aborted(AbortReason.EXECUTION_ERROR)
        txn.sim_cost_us = ctx.cost_us
        durations.append(ctx.cost_us)
    return durations


class OverlayView:
    """A snapshot plus an in-progress block's writes (serial execution).

    Serial-commit protocols (serial OE, RBC, Fabric validation) process a
    block transaction-by-transaction; each transaction must observe the
    writes of the ones validated before it. The overlay carries those
    uncommitted-within-the-block values over the base snapshot, with
    version tags ``(block_id, seq)`` so version checks see sub-block
    granularity.
    """

    def __init__(self, base: SnapshotView, block_id: int) -> None:
        self._base = base
        self._block_id = block_id
        self._writes: dict[object, tuple[object, tuple[int, int]]] = {}
        self._seq = 0

    def get(self, key: object):
        if key in self._writes:
            value, version = self._writes[key]
            if value is TOMBSTONE:
                return None, version
            return value, version
        return self._base.get(key)

    def put(self, key: object, value: object) -> None:
        self._writes[key] = (value, (self._block_id, self._seq))
        self._seq += 1

    def scan(self, start: object, end: object):
        """Stream-merge the (sorted) base scan with the overlay's covered
        writes — no materialization of the whole base range. Overlay
        entries shadow base entries on key collisions; dead overlay values
        (tombstones / ``None``) suppress the base row. Keys are totally
        ordered; a mixed-type population raises ``TypeError``."""
        overlay_keys = sorted(key for key in self._writes if covers(start, end, key))
        writes = self._writes
        base = self._base.scan(start, end)
        base_entry = next(base, None)
        for key in overlay_keys:
            while base_entry is not None and base_entry[0] < key:
                yield base_entry
                base_entry = next(base, None)
            if base_entry is not None and base_entry[0] == key:
                base_entry = next(base, None)  # shadowed by the overlay
            value = writes[key][0]
            if value is not TOMBSTONE and value is not None:
                yield key, value
        while base_entry is not None:
            yield base_entry
            base_entry = next(base, None)

    def ordered_writes(self) -> list[tuple[object, object]]:
        """Writes in apply (seq) order, for MVStore installation."""
        items = sorted(self._writes.items(), key=lambda kv: kv[1][1])
        return [(key, value) for key, (value, _version) in items]


class DCCExecutor:
    """Base class: a deterministic block executor bound to one engine."""

    name = "abstract"

    def __init__(self, engine: StorageEngine, registry: ProcedureRegistry) -> None:
        self.engine = engine
        self.registry = registry
        #: sharding hooks — both ``None`` outside a sharded deployment, in
        #: which case every code path is byte-for-byte the unsharded one.
        #: ``snapshot_source(block_id)`` returns the read snapshot (a
        #: federated, cross-shard view when set); ``key_scope(key)`` is the
        #: shard-locality predicate commit steps filter writes through.
        self.snapshot_source = None
        self.key_scope = None
        #: block_id -> frozenset of keys in flight at that re-key boundary.
        #: Inter-block validators consult this (the previous block's
        #: decision facts for a migrated key live on its *old* owner, which
        #: the new routing no longer asks) and deterministically abort
        #: touching transactions at exactly the boundary block. Installed
        #: by :func:`~repro.shard.rebalance.install_migration`; empty
        #: outside adaptive runs.
        self.migration_fences: dict[int, frozenset] = {}

    # -- subclasses implement ------------------------------------------------
    def prepare_block(self, block_id: int, txns: list[Txn]) -> PreparedBlock:
        """Simulate and validate; decide the local commit/abort vote."""
        raise NotImplementedError

    def commit_block(
        self, prepared: PreparedBlock, abort_tids: frozenset = frozenset()
    ) -> BlockExecution:
        """Apply the prepared block; ``abort_tids`` are cross-shard vetoes."""
        raise NotImplementedError

    def execute_block(self, block_id: int, txns: list[Txn]) -> BlockExecution:
        """Both phases with no cross-shard vetoes (tests and examples)."""
        return self.commit_block(self.prepare_block(block_id, txns))

    def clone_args(self) -> tuple:
        """Constructor arguments after ``(engine, registry)`` that rebuild
        this executor with identical configuration — recovery clones a
        crashed replica's executor onto a fresh engine with
        ``type(executor)(engine, registry, *executor.clone_args())``.
        Subclasses with extra switches override."""
        return ()

    # -- shared helpers ------------------------------------------------------
    def snapshot_for(self, block_id: int, lag: int = 1) -> SnapshotView:
        if self.snapshot_source is not None:
            return self.snapshot_source(block_id - lag)
        return self.engine.snapshot(block_id - lag)

    def force_aborts(self, txns: list[Txn], abort_tids) -> None:
        """Mark cross-shard vetoed transactions aborted before commit."""
        if not abort_tids:
            return
        for txn in txns:
            if txn.tid in abort_tids and not txn.aborted:
                txn.mark_aborted(AbortReason.CROSS_SHARD_ABORT)

    def in_scope(self, key: object) -> bool:
        """Whether ``key`` is locally owned (always true unsharded)."""
        return self.key_scope is None or self.key_scope(key)

    def adopt_decision(self, prepared: PreparedBlock, abort_tids: frozenset) -> None:
        """Install the cross-block state the next ``prepare_block`` needs,
        as of this block's *decision* — what
        ``commit_block(prepared, abort_tids)`` will leave, but computable at
        certificate time, before the physical commit. The trailing replay
        (:func:`repro.shard.replay.replay_blocks`) calls it so block *i+1*
        can be prepared while block *i*'s commit is still due. Must be
        idempotent with the commit's own bookkeeping (it marks the same
        transaction objects the commit later marks again). Executors
        without cross-block prepare state need nothing."""

    def install(
        self,
        prepared: PreparedBlock,
        ordered_writes,
        commit_durations: list[float],
        serial_commit: bool,
        meta: dict | None = None,
        **recorded,
    ) -> BlockExecution:
        """The tail of every ``commit_block``, once the block's decisions
        and writes are fixed: install ``ordered_writes``, checkpoint if due
        (``meta`` rides in the checkpoint), count the decisions. ``recorded``
        fills the execution's optional fields (Harmony's apply chains,
        snapshot and committed graph)."""
        block_id, txns = prepared.block_id, prepared.txns
        tail = self.engine.apply_block(block_id, ordered_writes)
        tail += self.engine.checkpoint_if_due(block_id, meta=meta)
        return BlockExecution(
            block_id=block_id,
            txns=txns,
            sim_durations_us=prepared.sim_durations_us,
            commit_durations_us=commit_durations,
            serial_commit=serial_commit,
            post_commit_serial_us=tail,
            stats=self.make_stats(block_id, txns),
            **recorded,
        )

    def make_stats(self, block_id: int, txns: list[Txn]) -> BlockStats:
        stats = BlockStats(block_id=block_id)
        for txn in txns:
            status = txn.status
            if status is TxnStatus.COMMITTED:
                stats.committed += 1
            elif status is TxnStatus.ABORTED:
                stats.aborted += 1
        return stats


class OverlayExecutor(DCCExecutor):
    """An executor whose prepare runs the block serially into an
    :class:`OverlayView` (serial OE, Fabric and FastFabric# validation) and
    whose commit installs the overlay.

    ``prepare_block`` leaves ``payload = (overlay, commit durations)``.
    Each transaction read its in-block predecessors' writes, so a veto
    would invalidate every later read: these executors are never sharded,
    and :meth:`commit_block` raises ``ValueError`` on one.
    """

    def commit_block(
        self, prepared: PreparedBlock, abort_tids: frozenset = frozenset()
    ) -> BlockExecution:
        overlay, durations = prepared.payload
        pending_vetos = [
            t.tid for t in prepared.txns if t.tid in abort_tids and not t.aborted
        ]
        if pending_vetos:
            raise ValueError(
                f"{self.name} execution cannot honour cross-shard vetos {pending_vetos}"
            )
        return self.install(prepared, overlay.ordered_writes(), durations, serial_commit=True)
