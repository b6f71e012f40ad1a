"""Process-pool prepare backend: per-shard ``prepare_block`` on real cores.

The deterministic prepare/commit split (PR 4) makes per-shard prepares
embarrassingly parallel: a prepare is a pure function of (sub-block,
snapshot at a known height, cross-block prepare state). This backend runs
them in worker *processes* — the only way Python buys wall-clock
parallelism for CPU-bound work — while the main process keeps every
authoritative artifact: ledgers, block log, votes, certificates, commits.

Design:

- **One single-worker pool per process slot.** Shards are assigned
  round-robin to ``backend_workers`` slots (default: one per shard), so a
  shard's prepares always land in the same process and its worker-side
  state advances monotonically.
- **Workers never commit.** Each worker holds a full storage engine for
  the shards it owns (preloaded from the deterministic genesis split) plus
  bare multi-version stores for the peers it may read across shards. All
  of them advance by *shipped deltas*: after the main process commits
  global block *b* it records every shard's ordered writes
  (:meth:`ProcessPrepareBackend.advance`), and the next task replays them
  worker-side with ``MVStore.apply_block`` — no state snapshot is ever
  re-shipped.
- **The cache key is (shard, block height, epoch).** Every task asserts
  each worker store sits exactly at the expected committed height and
  invalidation epoch before preparing; a miss raises
  :class:`StalePrepareError` instead of silently preparing against a stale
  snapshot. :meth:`ProcessPrepareBackend.invalidate` (fired by
  ``ShardGroup.rejoin`` through the chain's listener) bumps the epoch and
  ships a reset — base state at the deepest snapshot height any prepare
  can request plus the last ``lag`` blocks' writes under their real ids,
  so historical snapshot reads stay exact.
- **Results detach before the pipe.** Executors strip live store views /
  derived indexes from their ``PreparedBlock`` payloads worker-side
  (``detach_prepared``) and rebuild them against the main process's stores
  (``attach_prepared``), which are at least at the prepare height when the
  result is collected.

Decisions, state hashes and certificate chains are bit-identical to
``backend="serial"``; simulated timing *metrics* may differ (a worker
engine's buffer pool sees only prepare reads, the main engine's only
commits — costs never feed back into decisions).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.chain.config import build_engine, build_executor
from repro.shard.federated import wire_federation
from repro.shard.rebalance import install_migration
from repro.sim.costs import CostModel
from repro.storage.mvstore import MVStore


class StalePrepareError(RuntimeError):
    """A worker was asked to prepare against a stale store snapshot."""


def available_cores() -> int:
    """Cores this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def make_prepare_backend(config, workload, num_shards: int):
    """The chain-facing constructor: ``None`` unless ``backend="process"``
    applies (two-phase executor, no faults armed — callers gate those)."""
    if getattr(config, "backend", "serial") != "process":
        return None
    if config.system not in ("harmony", "aria", "rbc"):
        # serial execution has no prepare/commit seam; SOV-family keeps
        # the one-shot path
        return None
    return ProcessPrepareBackend(config, workload, num_shards)


# --------------------------------------------------------------- worker side
@dataclass
class ShardReset:
    """Replaces one shard's worker-side store after rejoin/recovery."""

    shard: int
    epoch: int
    #: deepest height a subsequent prepare may snapshot (``height - lag``)
    base_block: int
    #: materialized state at ``base_block`` (loaded at version ``-1``,
    #: visible from every later height)
    base_state: dict
    #: the last ``lag`` blocks' ordered writes under their *real* block
    #: ids, so version checks at historical heights stay exact
    blocks: list
    #: ownership epochs already *baked into* ``base_state`` — migration
    #: records at or below this epoch must not re-apply their store deltas
    #: to the reset store (the router table entry still installs)
    ownership_epoch: int = 0


@dataclass
class PrepareTask:
    """One worker invocation: advance the cached stores, then prepare."""

    block_id: int
    #: shard -> sub-block, only this worker's owned shards
    sub_blocks: dict
    #: shard -> cross-block prepare state (``export_prepare_state`` /
    #: ``decided_prepare_state`` of the previous block, main-side)
    prepare_states: dict
    #: ordered ``(block_id, [per-shard ordered writes])`` since the last
    #: task shipped to this worker
    deltas: list
    #: pending store replacements (rejoin/recovery invalidation)
    resets: list = field(default_factory=list)
    #: certified :class:`~repro.shard.rebalance.MigrationRecord`\ s not yet
    #: shipped to this worker, in epoch order — interleaved with ``deltas``
    #: by block height on the worker side
    migrations: list = field(default_factory=list)
    #: committed height every store must sit at before preparing
    expect_height: int = -1
    #: per-shard invalidation epochs the worker must have observed
    expect_epochs: tuple = ()
    #: ownership epoch the worker's router must reach before preparing
    expect_ownership_epoch: int = 0


class _WorkerState:
    """Per-process state: stores for every shard, executors for owned ones."""

    def __init__(self, config, workload, num_shards: int, owned: tuple) -> None:
        self.num_shards = num_shards
        self.owned = owned
        costs = CostModel()
        if num_shards > 1:
            from repro.shard.system import build_router

            router = build_router(config, workload)
            shard_states = router.split_state(workload.initial_state())
        else:
            router = None
            shard_states = [workload.initial_state()]
        self.router = router
        self.stores: list = [None] * num_shards
        self.executors: dict = {}
        self.epochs = [0] * num_shards
        #: newest ownership epoch whose *store deltas* each shard's store
        #: has absorbed (via migration replay or a covering reset)
        self.store_mig_epochs = [0] * num_shards
        for shard in range(num_shards):
            if shard in owned:
                engine = build_engine(config, costs)
                engine.preload(shard_states[shard])
                self.executors[shard] = build_executor(
                    config, engine, workload.build_registry()
                )
                self.stores[shard] = engine.store
            else:
                store = MVStore()
                store.load(shard_states[shard])
                self.stores[shard] = store
        for shard, executor in self.executors.items():
            wire_federation(executor, router, self.stores, shard)

    def apply_reset(self, reset: ShardReset) -> None:
        store = MVStore()
        store.load(reset.base_state)
        for block_id, writes in reset.blocks:
            store.apply_block(block_id, writes)
        # slot swap re-points the federation closures (they capture the
        # list), mirroring ShardGroup.rejoin on the main side
        self.stores[reset.shard] = store
        self.epochs[reset.shard] = reset.epoch
        self.store_mig_epochs[reset.shard] = max(
            self.store_mig_epochs[reset.shard], reset.ownership_epoch
        )
        executor = self.executors.get(reset.shard)
        if executor is not None:
            executor.engine.store = store

    def advance(self, deltas: list, migrations: list = ()) -> None:
        """Replay shipped per-block writes, interleaving migration records
        at their exact boundary: a record certified at block *H* ships its
        key versions inside block *H-1*, so it lands after *H-1*'s delta
        and before *H*'s."""
        pending = sorted(migrations, key=lambda record: record.block_id)
        cursor = 0
        for block_id, per_shard in deltas:
            while cursor < len(pending) and pending[cursor].block_id <= block_id:
                self.apply_migration(pending[cursor])
                cursor += 1
            for shard, writes in enumerate(per_shard):
                if writes is None:
                    # recorded during a fault window for a shard that
                    # never committed the block — its reset covers it
                    continue
                store = self.stores[shard]
                if store.last_committed_block >= block_id:
                    continue  # a reset already covered this block
                store.apply_block(block_id, writes)
        for record in pending[cursor:]:
            self.apply_migration(record)

    def apply_migration(self, record) -> None:
        """Install one certified ownership change worker-side.

        The router table entry always installs (epochs are strictly
        sequential; duplicates are dropped). Store deltas apply only to a
        store sitting exactly at the boundary height whose migration
        watermark is below the record's epoch — resets bake newer state in
        and must not be double-applied.
        """
        router = self.router
        if router is None:
            return
        if record.epoch == router.ownership.epoch + 1:
            router.apply_migration(record)
        install_migration(
            record,
            router,
            self.executors,
            self.store_mig_epochs,
            peer_stores=self.stores,
        )

    def check_fresh(self, task: PrepareTask) -> None:
        if (
            self.router is not None
            and self.router.ownership.epoch != task.expect_ownership_epoch
        ):
            raise StalePrepareError(
                f"block {task.block_id}: worker router at ownership epoch "
                f"{self.router.ownership.epoch}, expected "
                f"{task.expect_ownership_epoch} — a migration record never "
                f"reached this worker"
            )
        for shard, store in enumerate(self.stores):
            height = store.last_committed_block
            if height != task.expect_height:
                raise StalePrepareError(
                    f"block {task.block_id}: shard {shard} worker store at "
                    f"height {height}, expected {task.expect_height}"
                )
            if task.expect_epochs and self.epochs[shard] != task.expect_epochs[shard]:
                raise StalePrepareError(
                    f"block {task.block_id}: shard {shard} worker store at "
                    f"epoch {self.epochs[shard]}, expected "
                    f"{task.expect_epochs[shard]} — rejoin invalidation "
                    f"never reached this worker"
                )


_WORKER: _WorkerState | None = None


def _worker_init(config, workload, num_shards: int, owned: tuple) -> None:
    global _WORKER
    _WORKER = _WorkerState(config, workload, num_shards, owned)


def _worker_run(task: PrepareTask) -> dict:
    state = _WORKER
    for reset in task.resets:
        state.apply_reset(reset)
    state.advance(task.deltas, task.migrations)
    state.check_fresh(task)
    if state.router is not None:
        # scope/routing closures resolve ownership as of the prepared block
        state.router.advance_to(task.block_id)
    results = {}
    for shard in sorted(task.sub_blocks):
        executor = state.executors[shard]
        executor.import_prepare_state(task.prepare_states.get(shard, {}))
        block = task.sub_blocks[shard]
        prepared = executor.prepare_block(block.block_id, block.build_txns())
        results[shard] = executor.detach_prepared(prepared)
    return results


# ----------------------------------------------------------------- main side
class ProcessPrepareBackend:
    """Fans per-shard prepares out to worker processes; commits stay local."""

    def __init__(self, config, workload, num_shards: int) -> None:
        self.num_shards = num_shards
        workers = config.backend_workers or num_shards
        workers = max(1, min(workers, num_shards))
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        #: shard -> pool slot (round-robin keeps per-shard state sticky)
        self._slot_of_shard = {s: s % workers for s in range(num_shards)}
        owned = [
            tuple(s for s in range(num_shards) if s % workers == slot)
            for slot in range(workers)
        ]
        self._pools = [
            ProcessPoolExecutor(
                max_workers=1,
                mp_context=ctx,
                initializer=_worker_init,
                initargs=(config, workload, num_shards, owned[slot]),
            )
            for slot in range(workers)
        ]
        #: committed blocks not yet shipped to every worker
        self._delta_log: list = []
        self._cursor = [0] * workers
        self._pending_resets: list[list[ShardReset]] = [[] for _ in range(workers)]
        self._epochs = [0] * num_shards
        #: certified migration records not yet shipped, per slot
        self._pending_migrations: list[list] = [[] for _ in range(workers)]
        #: newest certified ownership epoch (workers must match)
        self._ownership_epoch = 0
        self._height = -1
        #: shards whose recorded suspended-window deltas have holes
        #: (``None`` writes or a skipped block) — they need a full reset
        #: at the next rejoin, everyone else advances incrementally
        self._gapped: set = set()
        #: lifetime count of :class:`ShardReset` payloads shipped —
        #: the incremental-rejoin differential tests assert on this
        self.resets_shipped = 0
        #: span/metric sink (:class:`repro.obs.trace.Tracer`); backend
        #: events are ``anno`` spans — they have no serial counterpart, so
        #: they stay out of the deterministic stream
        self.tracer = None
        self._closed = False

    # ---------------------------------------------------------------- submit
    def submit(self, sub_blocks: dict, prepare_states: dict) -> list:
        """Dispatch one global block's prepares; returns per-pool futures.

        ``sub_blocks`` must cover every shard (block-locked advancement);
        ``prepare_states`` carries each shard's cross-block decision state
        as of the previous block's certificate.
        """
        block_id = next(iter(sub_blocks.values())).block_id
        futures = []
        delta_count = 0
        reset_count = 0
        reset_slots = 0
        for slot, pool in enumerate(self._pools):
            deltas = self._delta_log[self._cursor[slot] :]
            self._cursor[slot] = len(self._delta_log)
            owned = [s for s in sub_blocks if self._slot_of_shard[s] == slot]
            task = PrepareTask(
                block_id=block_id,
                sub_blocks={s: sub_blocks[s] for s in owned},
                prepare_states={s: prepare_states.get(s, {}) for s in owned},
                deltas=deltas,
                resets=self._pending_resets[slot],
                migrations=self._pending_migrations[slot],
                expect_height=self._height,
                expect_epochs=tuple(self._epochs),
                expect_ownership_epoch=self._ownership_epoch,
            )
            delta_count += len(deltas)
            if self._pending_resets[slot]:
                reset_count += len(self._pending_resets[slot])
                reset_slots += 1
            self._pending_resets[slot] = []
            self._pending_migrations[slot] = []
            futures.append(pool.submit(_worker_run, task))
        if self.tracer is not None:
            metrics = self.tracer.metrics
            metrics.counter("backend.delta_blocks_shipped").inc(delta_count)
            metrics.counter("backend.resets_shipped").inc(reset_count)
            metrics.counter("backend.cache_hits").inc(
                len(self._pools) - reset_slots
            )
            metrics.counter("backend.cache_misses").inc(reset_slots)
            self.tracer.anno(
                "backend_submit",
                block=block_id,
                timing={"deltas": delta_count, "resets": reset_count},
            )
        floor = min(self._cursor)
        if floor:  # every worker has the prefix — drop it
            del self._delta_log[:floor]
            self._cursor = [c - floor for c in self._cursor]
        return futures

    def collect(self, futures: list, executors: dict) -> dict:
        """Gather the detached prepares and rebind them to the main stores."""
        prepared: dict = {}
        for future in futures:
            prepared.update(future.result())
        return {
            shard: executors[shard].attach_prepared(prep)
            for shard, prep in prepared.items()
        }

    def prepare(self, sub_blocks: dict, nodes: list) -> dict:
        """The sequential driver: submit, ingest main-side, collect.

        Main-side ingest (signature verify + ledger + block log) overlaps
        the worker prepares — the ledgers stay authoritative here while
        the workers' transaction copies carry the decisions.
        """
        prepare_states = {
            shard: nodes[shard].executor.export_prepare_state()
            for shard in sub_blocks
        }
        futures = self.submit(sub_blocks, prepare_states)
        verify_costs = {}
        for shard, block in sub_blocks.items():
            _txns, verify_costs[shard] = nodes[shard].ingest_block(block)
        prepared = self.collect(
            futures, {shard: nodes[shard].executor for shard in sub_blocks}
        )
        for shard, prep in prepared.items():
            prep.extra_pre_exec_us += verify_costs[shard]
        return prepared

    # --------------------------------------------------------------- advance
    def advance(self, block_id: int, per_shard_writes: list) -> None:
        """Record a committed block's per-shard ordered writes for shipping."""
        if block_id != self._height + 1:
            raise ValueError(
                f"advance out of order: block {block_id} after height {self._height}"
            )
        self._delta_log.append((block_id, per_shard_writes))
        self._height = block_id

    def advance_partial(self, block_id: int, per_shard_writes: list) -> None:
        """Record a block committed while the backend was suspended.

        ``per_shard_writes`` holds ``None`` for shards that never
        committed the block (crash windows): those shards are marked
        *gapped* and will be re-shipped wholesale at the next rejoin,
        while every other shard's worker cache catches up from these
        deltas alone — an incremental resync instead of a full one.
        """
        if block_id <= self._height:
            return
        if block_id != self._height + 1:
            # a block was never recorded at all; incremental shipping is
            # no longer sound for anyone — next rejoin does a full resync
            self._gapped.update(range(self.num_shards))
            return
        self._delta_log.append((block_id, list(per_shard_writes)))
        for shard, writes in enumerate(per_shard_writes):
            if writes is None:
                self._gapped.add(shard)
        self._height = block_id

    def apply_migration(self, record) -> None:
        """Queue a certified ownership change for every worker.

        Called at the moment the migration commits main-side (ownership-
        epoch bump): workers that prepare before the record reaches them
        fail ``check_fresh`` with :class:`StalePrepareError` instead of
        routing against stale ownership. The record rides the next task
        and is interleaved with the delta log by block height worker-side.
        """
        self._ownership_epoch = record.epoch
        for slot in range(len(self._pools)):
            self._pending_migrations[slot].append(record)
        if self.tracer is not None:
            self.tracer.metrics.counter("backend.migrations_shipped").inc()
            self.tracer.anno(
                "backend_migrate",
                block=record.block_id,
                timing={"epoch": record.epoch, "keys": len(record.moves)},
            )

    # ---------------------------------------------------------- invalidation
    def invalidate(self, shard: int, store, lag: int = 2) -> None:
        """Invalidate every worker's cached store for ``shard``.

        Called on rejoin/recovery: the recovered store replaces the
        worker-side replica wholesale. The reset ships state materialized
        at ``height - lag`` (the deepest snapshot any prepare can request)
        plus the newer blocks' writes under their real ids, so historical
        version checks behave exactly as on the main store.
        """
        height = store.last_committed_block
        # clamp at -1: materialize_at(-1) is the genesis load, visible
        # from every height
        base_block = max(-1, height - lag)
        epoch = self._epochs[shard] + 1
        self._epochs[shard] = epoch
        reset = ShardReset(
            shard=shard,
            epoch=epoch,
            base_block=base_block,
            base_state=store.materialize_at(base_block),
            blocks=[
                (b, store.writes_in_block(b))
                for b in range(max(0, base_block + 1), height + 1)
            ],
            # the main store has absorbed every certified migration, so a
            # reset bakes them in — the worker must not re-apply their
            # store deltas on top
            ownership_epoch=self._ownership_epoch,
        )
        for slot in range(len(self._pools)):
            self._pending_resets[slot].append(reset)
        self.resets_shipped += 1
        if self.tracer is not None:
            self.tracer.metrics.counter("backend.invalidations").inc()
            self.tracer.anno(
                "backend_invalidate",
                shard=shard,
                timing={"epoch": epoch, "blocks": len(reset.blocks)},
            )

    def resync(self, stores: list, lag: int = 2) -> None:
        """Full invalidation: re-seed every worker store from the main ones.

        The sledgehammer — correct whether or not deltas were recorded
        during the fallback window. :meth:`rejoin_resync` is the
        incremental path when :meth:`advance_partial` kept the log whole.
        """
        for shard, store in enumerate(stores):
            self.invalidate(shard, store, lag=lag)
        self._delta_log.clear()
        self._cursor = [0] * len(self._pools)
        self._gapped.clear()
        self._height = stores[0].last_committed_block
        if self.tracer is not None:
            self.tracer.metrics.counter("backend.resyncs").inc()

    def rejoin_resync(self, shard: int, stores: list, lag: int = 2) -> None:
        """Incremental invalidation after a fault window.

        Only shards whose suspended-window deltas have holes — plus the
        recovered shard itself, whose store was rebuilt — get a
        :class:`ShardReset`; every other worker cache advances by the
        deltas :meth:`advance_partial` recorded while the backend was
        bypassed. Falls back to :meth:`resync` when nothing would be
        saved (every shard stale).
        """
        stale = self._gapped | {shard}
        if len(stale) >= self.num_shards:
            self.resync(stores, lag=lag)
            return
        for s in sorted(stale):
            self.invalidate(s, stores[s], lag=lag)
        self._gapped.clear()
        self._height = stores[0].last_committed_block
        if self.tracer is not None:
            self.tracer.metrics.counter("backend.resyncs").inc()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for pool in self._pools:
            pool.shutdown(wait=False, cancel_futures=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass
