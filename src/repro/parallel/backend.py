"""Process-pool prepare backend: per-shard ``prepare_block`` on real cores.

The deterministic prepare/commit split (PR 4) makes per-shard prepares
embarrassingly parallel: a prepare is a pure function of (sub-block,
snapshot at a known height, cross-block prepare state). This backend runs
them in worker *processes* — the only way Python buys wall-clock
parallelism for CPU-bound work — while the main process keeps every
authoritative artifact: ledgers, block log, votes, certificates, commits.

Design:

- **One single-worker pool per shard.** A shard's prepares always land in
  the same process, so its worker-side state advances monotonically.
- **Workers never commit.** Each worker holds a full storage engine for
  its shard (preloaded from the deterministic genesis split) plus bare
  multi-version stores for the peers it may read across shards. All of
  them advance by *shipped deltas*: after the main process commits global
  block *b* it records every shard's ordered writes
  (:meth:`ProcessPrepareBackend.advance`), and the next task replays them
  worker-side with ``MVStore.apply_block`` — no state snapshot is ever
  shipped.
- **A stale store refuses, nothing re-seeds it.** Every task asserts that
  each worker store sits exactly at the expected committed height and the
  worker's router at the expected ownership epoch before preparing; a miss
  raises :class:`StalePrepareError` instead of silently preparing against
  a stale snapshot. The deltas describe blocks every shard prepared and
  committed in lockstep; a chain that leaves that regime (a shard left out
  of a stage, a recovered shard rejoining) closes the pool and continues
  in-process (``ShardedBlockchain.close_backend``).
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
from dataclasses import dataclass

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
    applies (serial execution has no prepare/commit seam; the SOV family
    keeps the one-shot path)."""
    if config.backend != "process" or config.system not in ("harmony", "aria", "rbc"):
        return None
    return ProcessPrepareBackend(config, workload, num_shards)


# --------------------------------------------------------------- worker side
@dataclass
class PrepareTask:
    """One worker invocation: advance the cached stores, then prepare."""

    #: the worker's shard's sub-block of the global block
    sub_block: object
    #: the shard's cross-block prepare state (``export_prepare_state`` /
    #: ``decided_prepare_state`` of the previous block, main-side)
    prepare_state: dict
    #: ordered ``(block_id, [per-shard ordered writes])`` since the last task
    deltas: list
    #: certified :class:`~repro.shard.rebalance.MigrationRecord`\ s since
    #: the last task, in epoch order — interleaved with ``deltas`` by block
    #: height on the worker side
    migrations: list
    #: committed height every store must sit at before preparing
    expect_height: int
    #: ownership epoch the worker's router must reach before preparing
    expect_ownership_epoch: int


class _WorkerState:
    """Per-process state: an executor for its shard, a store for every shard."""

    def __init__(self, config, workload, num_shards: int, shard: int) -> None:
        self.shard = shard
        costs = CostModel()
        if num_shards > 1:
            from repro.shard.system import build_router

            router = build_router(config, workload)
            shard_states = router.split_state(workload.initial_state())
        else:
            router = None
            shard_states = [workload.initial_state()]
        self.router = router
        self.stores: list = []
        for peer, state in enumerate(shard_states):
            if peer == shard:
                engine = build_engine(config, costs)
                engine.preload(state)
                self.executor = build_executor(
                    config, engine, workload.build_registry()
                )
                self.stores.append(engine.store)
            else:
                store = MVStore()
                store.load(state)
                self.stores.append(store)
        wire_federation(self.executor, router, self.stores, shard)

    def advance(self, deltas: list, migrations: list) -> None:
        """Replay shipped per-block writes, interleaving migration records
        at their exact boundary: a record certified at block *H* ships its
        key versions inside block *H-1*, so it lands after *H-1*'s delta
        and before *H*'s."""
        cursor = 0
        for block_id, per_shard in deltas:
            while cursor < len(migrations) and migrations[cursor].block_id <= block_id:
                self.apply_migration(migrations[cursor])
                cursor += 1
            for store, writes in zip(self.stores, per_shard):
                store.apply_block(block_id, writes)
        for record in migrations[cursor:]:
            self.apply_migration(record)

    def apply_migration(self, record) -> None:
        """Install one certified ownership change worker-side: the router
        table entry (epochs are strictly sequential — a gap raises), then
        the shipment on every store sitting at the boundary height."""
        self.router.apply_migration(record)
        install_migration(
            record,
            self.router,
            {self.shard: self.executor},
            peer_stores=self.stores,
        )

    def check_fresh(self, task: PrepareTask) -> None:
        block_id = task.sub_block.block_id
        if (
            self.router is not None
            and self.router.ownership.epoch != task.expect_ownership_epoch
        ):
            raise StalePrepareError(
                f"block {block_id}: worker router at ownership epoch "
                f"{self.router.ownership.epoch}, expected "
                f"{task.expect_ownership_epoch} — a migration record never "
                f"reached this worker"
            )
        for shard, store in enumerate(self.stores):
            height = store.last_committed_block
            if height != task.expect_height:
                raise StalePrepareError(
                    f"block {block_id}: shard {shard} worker store at "
                    f"height {height}, expected {task.expect_height}"
                )


_WORKER: _WorkerState | None = None


def _worker_init(config, workload, num_shards: int, shard: int) -> None:
    global _WORKER
    _WORKER = _WorkerState(config, workload, num_shards, shard)


def _worker_run(task: PrepareTask):
    state = _WORKER
    state.advance(task.deltas, task.migrations)
    state.check_fresh(task)
    block = task.sub_block
    if state.router is not None:
        # scope/routing closures resolve ownership as of the prepared block
        state.router.advance_to(block.block_id)
    executor = state.executor
    executor.import_prepare_state(task.prepare_state)
    prepared = executor.prepare_block(block.block_id, block.build_txns())
    return executor.detach_prepared(prepared)


# ----------------------------------------------------------------- main side
class ProcessPrepareBackend:
    """Fans per-shard prepares out to worker processes; commits stay local."""

    def __init__(self, config, workload, num_shards: int) -> None:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        #: indexed by shard id
        self._pools = [
            ProcessPoolExecutor(
                max_workers=1,
                mp_context=ctx,
                initializer=_worker_init,
                initargs=(config, workload, num_shards, shard),
            )
            for shard in range(num_shards)
        ]
        # every task goes to every worker, so one log and one queue serve
        # them all and both empty at each dispatch
        #: committed blocks not yet shipped
        self._delta_log: list = []
        #: certified migration records not yet shipped
        self._pending_migrations: list = []
        #: newest certified ownership epoch (workers must match)
        self._ownership_epoch = 0
        self._height = -1
        #: span/metric sink (:class:`repro.obs.trace.Tracer`); backend
        #: events are ``anno`` spans — they have no serial counterpart, so
        #: they stay out of the deterministic stream
        self.tracer = None
        self._closed = False

    def prepare(
        self, sub_blocks: dict, nodes: list, prepare_states=None, meanwhile=None
    ) -> dict:
        """One global block's prepares: dispatch, do the main-side work
        while the workers are busy, gather.

        ``sub_blocks`` covers every shard (block-locked advancement) and
        ``nodes`` is the main-side fleet, indexed by shard.
        ``prepare_states`` carries each shard's cross-block decision state
        as of the previous block's certificate; by default it is what the
        executors hold, i.e. that block has committed. The wait is used to
        ingest the block main-side (signature verify + ledger + block log:
        the ledgers stay authoritative here while the workers' transaction
        copies carry the decisions) and then for ``meanwhile()`` — the
        deferred or trailing commit of the previous block. The detached
        results are rebound to the main stores on the way out.
        """
        if prepare_states is None:
            prepare_states = {
                shard: nodes[shard].executor.export_prepare_state()
                for shard in sub_blocks
            }
        deltas, self._delta_log = self._delta_log, []
        migrations, self._pending_migrations = self._pending_migrations, []
        futures = [
            pool.submit(
                _worker_run,
                PrepareTask(
                    sub_block=sub_blocks[shard],
                    prepare_state=prepare_states.get(shard, {}),
                    deltas=deltas,
                    migrations=migrations,
                    expect_height=self._height,
                    expect_ownership_epoch=self._ownership_epoch,
                ),
            )
            for shard, pool in enumerate(self._pools)
        ]
        if self.tracer is not None:
            shipped = len(deltas) * len(self._pools)
            self.tracer.metrics.counter("backend.delta_blocks_shipped").inc(shipped)
            self.tracer.anno(
                "backend_submit",
                block=sub_blocks[0].block_id,
                timing={"deltas": shipped},
            )
        verify_costs = [
            node.ingest_block(sub_blocks[shard])[1] for shard, node in enumerate(nodes)
        ]
        if meanwhile is not None:
            meanwhile()
        prepared = {}
        for shard, future in enumerate(futures):
            prep = nodes[shard].executor.attach_prepared(future.result())
            prep.extra_pre_exec_us += verify_costs[shard]
            prepared[shard] = prep
        return prepared

    def advance(self, block_id: int, per_shard_writes: list) -> None:
        """Record a committed block's per-shard ordered writes for shipping."""
        if block_id != self._height + 1:
            raise ValueError(
                f"advance out of order: block {block_id} after height {self._height}"
            )
        self._delta_log.append((block_id, per_shard_writes))
        self._height = block_id

    def apply_migration(self, record) -> None:
        """Queue a certified ownership change for every worker.

        Called at the moment the migration commits main-side (ownership-
        epoch bump): a worker that prepared before the record reached it
        would fail ``check_fresh`` with :class:`StalePrepareError` instead
        of routing against stale ownership. The record rides the next task
        and is interleaved with the delta log by block height worker-side.
        """
        self._ownership_epoch = record.epoch
        self._pending_migrations.append(record)
        if self.tracer is not None:
            self.tracer.metrics.counter("backend.migrations_shipped").inc()
            self.tracer.anno(
                "backend_migrate",
                block=record.block_id,
                timing={"epoch": record.epoch, "keys": len(record.moves)},
            )

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
