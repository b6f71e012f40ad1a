"""The Order-Execute blockchain driver: N pipelines, one global order.

:class:`ShardedBlockchain` runs one full OE pipeline per shard — each with
its own :class:`~repro.storage.engine.StorageEngine`, DCC executor,
hash-chained ledger and :class:`~repro.sim.scheduler.PipelineSimulator`
lane — under a single global ordering service. Per global block:

1. the ordering service cuts the global block; the
   :class:`~repro.chain.ordering.ShardSequencer` derives per-shard
   sub-blocks (global TIDs preserved, empty sub-blocks keep every shard
   block-locked);
2. every shard *prepares* its sub-block (simulate against a
   :class:`~repro.shard.federated.FederatedSnapshot`, validate with its
   own DCC protocol) — the prepare outcome is its 2PC vote;
3. votes on cross-shard transactions are exchanged and folded into a
   hash-chained :class:`~repro.shard.twopc.CommitCertificate`;
4. every shard *commits*, honouring the certificate's vetoes and
   installing only the writes it owns.

:meth:`ShardedBlockchain.run` is the only Order-Execute run loop. It has
two schedules that differ in *when* a certified block's commit lands:
right away, or — when the executor's snapshot lag legalizes it
(:mod:`repro.parallel.pipeline`) — one iteration later, inside the next
block's prepare window.

``num_shards=1`` is the unsharded chain
(:class:`~repro.chain.system.OEBlockchain` is exactly that configuration):
every participant set is ``{0}``, the sub-block is the global block, no
transaction is cross-shard, so routing, splitting, voting and remote-read
pricing have nothing to compute and are skipped on those facts.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.chain.config import (
    COMMAND_BYTES,
    OEConfig,
    build_engine,
    build_executor,
    decision_digest,
)
from repro.chain.node import ReplicaNode
from repro.chain.ordering import OrderingService, ShardSequencer
from repro.consensus.crypto import Signer
from repro.consensus.hotstuff import HotStuffConsensus
from repro.consensus.kafka import KafkaOrdering
from repro.consensus.network import NetworkModel
from repro.dcc.oracle import SerializabilityOracle
from repro.shard.federated import wire_federation
from repro.shard.rebalance import (
    RebalancePolicy,
    build_migration_record,
    install_migration,
)
from repro.shard.replay import replay_blocks
from repro.shard.router import ShardRouter
from repro.shard.twopc import CertificateLog, derive_votes
from repro.sim.costs import CostModel
from repro.sim.metrics import BlockStats, RunMetrics
from repro.sim.rng import SeededRng
from repro.sim.scheduler import BlockTiming, PipelineSimulator, merge_shard_results
from repro.storage.mvstore import combine_state_hashes


@dataclass
class ShardConfig(OEConfig):
    """An :class:`~repro.chain.config.OEConfig` plus the sharding knobs."""

    num_shards: int = 1
    #: ``workload`` aligns with the workload's partition layout (falls back
    #: to ``hash`` when the workload has no index hints); ``hash`` and
    #: ``range`` are the generic policies.
    router_policy: str = "workload"
    #: explicit split points for ``router_policy="range"``
    range_boundaries: tuple = ()
    #: core budget of each shard's replica (scale-out: every shard is its
    #: own machine group); ``None`` = same budget as the unsharded replica
    cores_per_shard: int | None = None
    #: bytes of one batched remote-read round (request + values)
    cross_read_bytes: int = 256
    #: bytes of one prepare vote on the wire
    vote_bytes: int = 64
    #: retain per-block executions + merged transactions (tests/oracles)
    keep_history: bool = False
    #: live re-keying: ``"off"`` pins the epoch-0 static routing; ``"adaptive"``
    #: arms a :class:`~repro.shard.rebalance.RebalancePolicy` that watches
    #: decision-layer telemetry and re-keys hot keys mid-run
    rebalance: str = "off"
    #: blocks between rebalance decision points (telemetry window length)
    rebalance_check_interval: int = 4
    #: blocks before the first decision point may fire
    rebalance_warmup_blocks: int = 4
    #: blocks a committed migration suppresses the next one
    rebalance_cooldown_blocks: int = 4
    #: window load skew (max/mean) at which the offload trigger fires
    rebalance_skew_threshold: float = 2.0
    #: cross-shard txn ratio at which the co-location trigger fires
    rebalance_cross_threshold: float = 0.5
    #: most keys one migration record may move
    rebalance_max_keys: int = 32
    #: compile workload scan footprints into exact participant sets
    #: (``False`` restores broadcast routing for scans — the differential
    #: reference the footprint bench compares against)
    scan_footprints: bool = True


def build_router(config: ShardConfig, workload) -> ShardRouter:
    """The deterministic router for ``config`` — module-level so worker
    processes of the parallel prepare backend rebuild the identical
    routing from (config, workload) alone."""
    if config.router_policy == "workload":
        router = ShardRouter.for_workload(workload, config.num_shards)
    elif config.router_policy == "range":
        router = ShardRouter(
            config.num_shards,
            policy="range",
            boundaries=list(config.range_boundaries),
        )
    else:
        router = ShardRouter(config.num_shards, policy="hash")
    router.use_footprints = config.scan_footprints
    return router


@dataclass
class GlobalBlockOutcome:
    """One global block on its way through the decision layer.

    :meth:`ShardedBlockchain.route_global_block` fills the routing facts;
    certification adds ``prepared`` and ``certificate`` (the block's
    decisions are final from here on); the commit adds ``executions``. The
    pipelined schedule holds an outcome between those last two steps.
    """

    block: object
    #: per transaction, the set of shards it runs on
    participants: list
    #: tid -> participant set of every cross-shard transaction: the votes
    #: the certificate waits for (a missing one degrades to a veto)
    expected: dict
    sub_blocks: dict
    #: the ownership change certified at this block, if one was due
    migration: object = None
    #: shards that never commit this block (injected crash)
    skip_commit: frozenset = frozenset()
    #: the worker pool that prepared the block (``None``: in-process)
    backend: object = None
    #: shard -> PreparedBlock
    prepared: dict = None
    certificate: object = None
    #: shard -> BlockExecution; crashed shards have no entry — they voted
    #: but never committed
    executions: dict = None
    #: one runtime record per transaction, from its coordinator shard
    merged_txns: list = None

    @property
    def block_id(self) -> int:
        return self.block.block_id


@dataclass
class _RunState:
    """What :meth:`ShardedBlockchain.run` accumulates block by block."""

    metrics: RunMetrics
    interval: float
    remote_round_us: float
    shard_timings: list
    merged_blocks: list = field(default_factory=list)
    per_block_committed: list = field(default_factory=list)
    cross_txns_total: int = 0
    cross_aborted_total: int = 0


class ShardGroup:
    """One replica's full set of shard pipelines (nodes + wiring).

    Both the primary and the consistency-check replica are instances of
    this class: building one wires each shard executor's federated
    snapshot source and key scope, so replaying the same sub-blocks +
    certificates reproduces the same state anywhere.
    """

    def __init__(
        self,
        config: ShardConfig,
        workload,
        router: ShardRouter,
        costs: CostModel,
        orderer_signer: Signer,
        name_prefix: str = "replica-0",
    ) -> None:
        self.config = config
        self.router = router
        shard_states = router.split_state(workload.initial_state())
        self.nodes: list[ReplicaNode] = []
        for shard in range(config.num_shards):
            engine = build_engine(config, costs)
            engine.preload(shard_states[shard])
            executor = build_executor(config, engine, workload.build_registry())
            self.nodes.append(
                ReplicaNode(f"{name_prefix}/shard-{shard}", executor, orderer_signer)
            )
        #: the shared store list every shard's federation is wired against
        #: (by reference) — :meth:`rejoin` mutates slots in place so peers
        #: re-point at a recovered store without rewiring
        self._stores = [node.engine.store for node in self.nodes]
        #: ``listener(shard, node)`` callbacks fired by :meth:`rejoin` —
        #: the process-prepare backend registers one so worker-side store
        #: caches are invalidated whenever a recovered shard re-enters
        self.rejoin_listeners: list = []
        for shard, node in enumerate(self.nodes):
            wire_federation(node.executor, router, self._stores, shard)

    def prepare(self, sub_blocks: dict, skip: frozenset = frozenset()) -> dict:
        """Phase one on every live shard; all prepares precede any commit.

        Shards in ``skip`` (crash-before-prepare injection) died before
        the sub-block arrived: they never log or prepare it and get no
        entry — a supervisor must catch them up after recovery.
        """
        return {
            shard: node.prepare_block(sub_blocks[shard])
            for shard, node in enumerate(self.nodes)
            if shard not in skip
        }

    def finish(
        self, prepared: dict, abort_tids: frozenset, skip: frozenset = frozenset()
    ) -> dict:
        """Phase two on every prepared shard, honouring the certificate's
        vetoes.

        Shards in ``skip`` (crash injection) never commit and get no entry;
        shards absent from ``prepared`` never even prepared.
        """
        return {
            shard: self.nodes[shard].finish_block(prepared[shard], abort_tids)
            for shard in sorted(prepared)
            if shard not in skip
        }

    def rejoin(self, shard: int, node: ReplicaNode) -> None:
        """Swap a recovered replica back into the fleet as a full peer.

        The federation closures capture the shared store list by
        reference, so mutating the slot in place re-points every peer's
        cross-shard reads at the recovered store. The recovered executor
        itself was wired against a *copy* of the list (see
        :func:`~repro.shard.recovery.recover_shard_node`), so it is
        re-wired against the shared one here.
        """
        self.nodes[shard] = node
        self._stores[shard] = node.engine.store
        wire_federation(node.executor, self.router, self._stores, shard)
        for listener in self.rejoin_listeners:
            listener(shard, node)

    def state_hashes(self) -> list[str]:
        return [node.state_hash() for node in self.nodes]

    def combined_state_hash(self) -> str:
        return combine_state_hashes(self.state_hashes())

    def ledgers_ok(self) -> bool:
        return all(node.ledger.verify_chain() for node in self.nodes)


class ShardedBlockchain:
    """N partitioned OE pipelines with deterministic cross-shard commit."""

    def __init__(self, config: ShardConfig, workload) -> None:
        if config.system == "serial" and config.num_shards > 1:
            # serial reads its in-block predecessors, which only exist on
            # the shard that executed them — no deterministic federation.
            raise ValueError("serial execution does not support num_shards > 1")
        self.config = config
        self.workload = workload
        self.costs = CostModel()
        self.network = NetworkModel.preset(config.network)
        self.orderer_signer = Signer("ordering-service")
        self.ordering = OrderingService(self.orderer_signer)
        self.sequencer = ShardSequencer(config.num_shards, self.orderer_signer)
        self.router = build_router(config, workload)
        self.group = ShardGroup(
            config, workload, self.router, self.costs, self.orderer_signer
        )
        if config.consensus == "hotstuff":
            self.consensus = HotStuffConsensus(
                self.network, self.costs, num_nodes=max(4, config.num_replicas)
            )
        else:
            self.consensus = KafkaOrdering(self.network, self.costs)
        self.cert_log = CertificateLog()
        #: adaptive re-keying policy (``config.rebalance="adaptive"``);
        #: ``None`` pins the static epoch-0 routing for the whole run
        self.rebalance_policy = (
            RebalancePolicy.from_config(config)
            if config.rebalance == "adaptive" and config.num_shards > 1
            else None
        )
        #: migration fault point (``hook(block_id) -> {shard: "skip"|"torn"}``)
        #: consulted by :meth:`apply_migration` — armed by
        #: :mod:`repro.faults.inject` for the migration-crash family
        self.migration_hook = None
        #: per-shard shipment watermark: the highest migration epoch whose
        #: store deltas landed on each live store. A store behind the
        #: boundary (open partition window) skips the live shipment; the
        #: supervisor's catch-up re-applies it from the certified record,
        #: keyed off this mark so nothing applies twice.
        self._store_mig_epochs = [0] * config.num_shards
        #: every block's outcome, kept when ``config.keep_history`` is set
        self.history: list[GlobalBlockOutcome] = []
        #: fault-point hook (``hook(block_id) -> (skip_prepare, skip_commit)
        #: | None``) consulted by :meth:`process_global_block`; ``None``
        #: (the default) costs one attribute check per block. Armed by
        #: :mod:`repro.faults.inject`.
        self.fault_hook = None
        #: vote-exchange medium; ``None`` means perfect delivery. A
        #: :class:`~repro.shard.twopc.VoteChannel` here lets fault plans
        #: drop/duplicate/delay votes on the wire.
        self.vote_channel = None
        #: span/metric sink (:class:`~repro.obs.trace.Tracer`); ``None``
        #: (the default) costs one attribute check per emission site.
        #: Armed by :func:`repro.obs.trace.attach_tracer`.
        self.tracer = None
        #: the process-pool prepare backend (``config.backend="process"``),
        #: built lazily on the first fault-free block; ``None`` = serial
        self._prepare_backend = None
        #: sticky serial fallback: set when a fault directive fires (the
        #: injected hooks must run in-process) and cleared by rejoin,
        #: which resyncs the workers' store caches
        self._backend_suspended = False
        # held weakly: the group must not keep its chain alive, or a chain
        # its caller dropped (with every store it preloaded) lingers until
        # the next cyclic collection instead of being freed at once
        chain_ref = weakref.ref(self)

        def on_rejoin(shard: int, node: ReplicaNode) -> None:
            chain = chain_ref()
            if chain is not None:
                chain._on_rejoin(shard, node)

        self.group.rejoin_listeners.append(on_rejoin)

    # ------------------------------------------------------ prepare backend
    def _backend_lag(self) -> int:
        if self.config.system == "harmony":
            return self.config.harmony.effective_lag
        return 1

    def _ensure_backend(self):
        """The process prepare backend, or ``None`` for the serial path.

        Fault-armed chains (hooks or a vote channel installed) never get a
        backend: injected faults must fire inside this process, so they
        auto-fall back to the serial reference path.
        """
        if (
            self.config.backend != "process"
            or self._backend_suspended
            or self.fault_hook is not None
            or self.vote_channel is not None
        ):
            return None
        if self._prepare_backend is None:
            from repro.parallel.backend import make_prepare_backend

            self._prepare_backend = make_prepare_backend(
                self.config, self.workload, self.config.num_shards
            )
            if self._prepare_backend is None:
                self._backend_suspended = True  # unsupported scheme: stay serial
            elif self.tracer is not None:
                self._prepare_backend.tracer = self.tracer
        return self._prepare_backend

    def _suspend_backend(self) -> None:
        """Serial fallback until a rejoin resyncs the worker caches."""
        if self.config.backend == "process":
            self._backend_suspended = True

    def _on_rejoin(self, shard: int, node: ReplicaNode) -> None:
        """Rejoin listener: the serial fallback window recorded every
        committed block's per-shard deltas (:meth:`advance_partial`), so
        only shards that missed commits — plus the recovered shard, whose
        store was rebuilt — need their worker caches re-shipped; the rest
        catch up incrementally from the delta log. Then lift the fallback."""
        backend = self._prepare_backend
        if backend is None:
            return
        backend.rejoin_resync(
            shard,
            [n.engine.store for n in self.group.nodes],
            lag=self._backend_lag(),
        )
        if self.fault_hook is None and self.vote_channel is None:
            self._backend_suspended = False

    def close_backend(self) -> None:
        """Shut the worker pools down (idempotent); the chain stays usable
        on the serial path."""
        if self._prepare_backend is not None:
            self._prepare_backend.close()
            self._prepare_backend = None
        self._suspend_backend()

    # ------------------------------------------------------------------ run
    def _block_bytes(self) -> int:
        return self.config.block_size * COMMAND_BYTES

    def _inter_block_enabled(self) -> bool:
        return self.config.system == "harmony" and self.config.harmony.inter_block

    def _cores_per_shard(self) -> int:
        return self.config.cores_per_shard or self.config.cores

    def _remote_read_round_us(self) -> float:
        """One batched remote-read exchange of a cross-shard simulation."""
        return self.network.rtt_us(self.config.num_shards) + self.network.transfer_us(
            self.config.cross_read_bytes
        )

    def _vote_exchange_us(self, num_cross_local: int) -> float:
        """Prepare-vote broadcast + decide hop for one shard's sub-block."""
        return 2.0 * self.network.worst_one_way_us(
            self.config.num_shards
        ) + self.network.broadcast_us(
            self.config.vote_bytes * num_cross_local, self.config.num_shards - 1
        )

    # -------------------------------------------------------------- tracing
    # Span emission helpers, shared with the fault supervisor (which runs
    # prepare/commit itself).
    # Deterministic fields only carry decision-layer quantities; engine sim
    # durations (which legally differ across prepare backends) ride in the
    # ``timing`` annotation dict. Every per-shard loop iterates sorted shard
    # ids so the span order is independent of dict iteration order.
    def _trace_order(self, tracer, outcome, skip_prepare) -> None:
        block = outcome.block
        sub_blocks = outcome.sub_blocks
        tracer.event(
            "order",
            block=block.block_id,
            attrs={
                "size": block.size,
                "cross": len(outcome.expected),
                "sub_sizes": [sub_blocks[s].size for s in sorted(sub_blocks)],
            },
        )
        if outcome.skip_commit:
            tracer.fault(
                "fault_directive",
                block=block.block_id,
                attrs={
                    "skip_prepare": sorted(skip_prepare),
                    "skip_commit": sorted(outcome.skip_commit),
                },
            )

    def _trace_prepared(self, tracer, block_id: int, prepared: dict) -> None:
        for shard in sorted(prepared):
            prep = prepared[shard]
            tracer.stage(
                "prepare",
                block=block_id,
                shard=shard,
                attrs={"txns": len(prep.txns)},
                timing={"sim_us": sum(prep.sim_durations_us)},
            )

    def _trace_commits(self, tracer, block_id: int, executions: dict) -> None:
        for shard in sorted(executions):
            execution = executions[shard]
            stats = execution.stats
            tracer.stage(
                "commit",
                block=block_id,
                shard=shard,
                attrs={
                    "committed": stats.committed
                    if stats is not None
                    else len(execution.committed_txns),
                    "aborted": stats.aborted
                    if stats is not None
                    else len(execution.aborted_txns),
                },
                timing={
                    "sim_us": sum(execution.commit_durations_us)
                    + execution.post_commit_serial_us
                },
            )

    # ---------------------------------------------------------- rebalancing
    def plan_rebalance(self, block_id: int):
        """The armed policy's proposal for the start of ``block_id``
        (telemetry through ``block_id - 1``), or ``None``. Side-effect-free
        so the pipelined driver can drain its in-flight block between the
        plan and the commit."""
        policy = self.rebalance_policy
        if policy is None:
            return None
        return policy.propose(block_id, self.router)

    def commit_rebalance(self, block_id: int, proposal):
        """Materialize ``proposal`` into the certified record and install
        it (router, stores, worker caches). Every shard's store must be at
        height ``block_id - 1`` — the pipelined driver and the fault
        supervisor enforce that barrier before calling."""
        router = self.router
        nodes = self.group.nodes

        def value_of(key):
            return nodes[router.shard_of(key)].engine.store._latest_entry(key)

        record = build_migration_record(
            block_id, router.ownership_epoch + 1, proposal, value_of
        )
        self.apply_migration(record)
        self.rebalance_policy.committed(block_id)
        return record

    def apply_migration(self, record) -> None:
        """Install a certified ownership change on this replica.

        Router epoch first (shipment routing resolves sources at the
        pre-boundary height, which is append-order independent), then
        fences and per-shard store loads
        (:func:`~repro.shard.rebalance.install_migration`; the armed
        ``migration_hook`` fates shipments of shards the fault plan also
        crashes), then the worker-cache epoch bump (stale workers refuse
        with ``StalePrepareError`` and get resynced).
        """
        fates = (
            self.migration_hook(record.block_id)
            if self.migration_hook is not None
            else None
        ) or {}
        self.router.apply_migration(record)
        install_migration(
            record,
            self.router,
            {shard: node.executor for shard, node in enumerate(self.group.nodes)},
            self._store_mig_epochs,
            fates,
        )
        backend = self._prepare_backend
        if backend is not None:
            backend.apply_migration(record)
        tracer = self.tracer
        if tracer is not None:
            tracer.event(
                "migrate",
                block=record.block_id,
                attrs={
                    "epoch": record.epoch,
                    "keys": len(record.moves),
                    "shipped": len(record.deltas),
                    "reason": record.reason,
                },
            )
            if fates:
                tracer.fault(
                    "migration_fault",
                    block=record.block_id,
                    attrs={"fates": {s: fates[s] for s in sorted(fates)}},
                )
            tracer.metrics.counter("rebalance.migrations").inc()
            tracer.metrics.gauge("rebalance.epoch").set(record.epoch)

    def route_global_block(self, block, migration_barrier=None) -> GlobalBlockOutcome:
        """The routing front half shared by both schedules of :meth:`run`
        and the fault supervisor: decide/apply any due migration, route
        every spec, feed the policy telemetry and split the block.

        ``migration_barrier`` (pipelined schedule, fault supervisor) runs
        after a proposal is made but before the record is built, so
        in-flight work can land and every store reaches the boundary
        height first.
        """
        migration = None
        expected = {}
        policy = self.rebalance_policy
        if self.config.num_shards == 1:
            # the one shard hosts every transaction; none is cross-shard
            participants = [frozenset({0})] * block.size
        else:
            if policy is not None:
                proposal = self.plan_rebalance(block.block_id)
                if proposal is not None:
                    if migration_barrier is not None:
                        migration_barrier()
                    migration = self.commit_rebalance(block.block_id, proposal)
                policy.begin_block(block.block_id)
                participants = []
                for spec in block.specs:
                    parts, routed = self.router.route_spec(self.workload, spec)
                    participants.append(parts)
                    policy.observe_txn(routed, parts)
            else:
                participants = [
                    self.router.participants_of(self.workload, spec)
                    for spec in block.specs
                ]
            expected = {
                block.first_tid + j: shards
                for j, shards in enumerate(participants)
                if len(shards) > 1
            }
        return GlobalBlockOutcome(
            block=block,
            participants=participants,
            expected=expected,
            sub_blocks=self.sequencer.split(block, participants),
            migration=migration,
        )

    def _certify(self, block, deferred=None, fault_hook=None) -> GlobalBlockOutcome:
        """Route, prepare and certify one global block.

        On return the block's decisions are final — the certificate is on
        the chain — but nothing is applied yet: :meth:`_commit` does that.
        ``deferred`` (the pipelined schedule's
        :class:`~repro.parallel.pipeline.DeferredCommit`) runs the prepare
        on the worker pool against the previous block's *decided* state and
        lands that block's commit while the workers are busy.
        """
        skip_prepare = skip_commit = frozenset()
        if fault_hook is not None:
            directive = fault_hook(block.block_id)
            if directive is not None:
                before, after = directive
                skip_prepare = before
                skip_commit = before | after
        outcome = self.route_global_block(
            block, migration_barrier=deferred.land if deferred is not None else None
        )
        outcome.skip_commit = skip_commit
        tracer = self.tracer
        if tracer is not None:
            self._trace_order(tracer, outcome, skip_prepare)
        if skip_commit:
            # injected faults must fire in-process; stay serial until a
            # rejoin resyncs the worker caches
            self._suspend_backend()
        if deferred is not None:
            backend = deferred.backend
            prepared = deferred.prepare(outcome.sub_blocks)
        else:
            backend = None if fault_hook is not None else self._ensure_backend()
            if backend is not None:
                prepared = backend.prepare(outcome.sub_blocks, self.group.nodes)
            else:
                prepared = self.group.prepare(outcome.sub_blocks, skip=skip_prepare)
        outcome.backend = backend
        if tracer is not None:
            self._trace_prepared(tracer, block.block_id, prepared)

        # --- ordered vote exchange: prepare outcomes become the block
        # stream's commit certificate (deterministic all-yes rule).
        votes = derive_votes(prepared, outcome.expected)
        if self.vote_channel is not None:
            votes = self.vote_channel.deliver(votes, block.block_id)
        # the expected participant sets arm the timeout→abort degradation
        # for any vote that never arrived; with a full vote set (the
        # fault-free case) they change nothing.
        outcome.prepared = prepared
        outcome.certificate = self.cert_log.append(
            votes,
            block.block_id,
            expected=outcome.expected,
            migration=outcome.migration,
        )
        return outcome

    def _commit(self, outcome: GlobalBlockOutcome) -> None:
        """Apply a certified block on every shard that is alive for it and
        tell the prepare workers what was written."""
        block_id = outcome.block_id
        outcome.executions = self.group.finish(
            outcome.prepared, outcome.certificate.abort_tids, skip=outcome.skip_commit
        )
        if self.tracer is not None:
            self._trace_commits(self.tracer, block_id, outcome.executions)
        nodes = self.group.nodes
        if outcome.backend is not None:
            outcome.backend.advance(
                block_id, [node.engine.writes_of(block_id) for node in nodes]
            )
        elif self._prepare_backend is not None:
            # suspended window: record what each shard actually committed
            # (None for crashed shards) so the rejoin resync re-ships only
            # the stale stores instead of every worker cache
            self._prepare_backend.advance_partial(
                block_id,
                [
                    node.engine.writes_of(block_id)
                    if node.engine.store.last_committed_block >= block_id
                    else None
                    for node in nodes
                ],
            )

    def process_global_block(self, block, fault_hook=None) -> GlobalBlockOutcome:
        """Decision layer for one global block: route, split, prepare,
        exchange votes, certify, commit.

        ``fault_hook`` (or the armed ``self.fault_hook``) is the crash
        fault point: called with the block id, it returns ``None`` (no
        fault) or a ``(skip_prepare, skip_commit)`` pair of shard sets.
        Shards in ``skip_prepare`` die *before* the sub-block arrives
        (never logged, never voted — with the vote missing, the
        certificate's timeout degradation vetoes their cross-shard
        transactions); shards in ``skip_commit`` die between their prepare
        vote and the certificate append: the deterministic votes were cast,
        the certificate lands, but the shard never commits — its block log
        holds the input block, so recovery replays it under the
        certificate's recorded decisions.
        """
        outcome = self._certify(
            block, fault_hook=fault_hook if fault_hook is not None else self.fault_hook
        )
        self._commit(outcome)
        return outcome

    def _pipelined_ready(self) -> bool:
        """Whether the commit may be deferred: requested, process backend
        available, and a snapshot lag that legalizes preparing block *i*
        before block *i-1*'s commit."""
        return (
            self.config.pipelined
            and self.config.backend == "process"
            and self._inter_block_enabled()
            and self.config.harmony.effective_lag >= 2
            and self.fault_hook is None
            and self.vote_channel is None
        )

    def run(self) -> RunMetrics:
        """The Order-Execute loop: form a block, certify it, commit it.

        Sequential schedule: block *i* commits before block *i+1* forms.
        Pipelined schedule (legal iff :meth:`_pipelined_ready`): block
        *i*'s commit is held and lands while the worker pool prepares
        block *i+1* — the retries block *i+1* needs are already final at
        certificate time, so both schedules form identical blocks.
        """
        config = self.config
        state = _RunState(
            metrics=RunMetrics(system=config.system, workload=self.workload.name),
            interval=self.consensus.min_block_interval_us(
                self._block_bytes(), config.num_replicas
            ),
            remote_round_us=self._remote_read_round_us(),
            shard_timings=[[] for _ in range(config.num_shards)],
        )
        deferred = None
        if self._pipelined_ready():
            from repro.parallel.pipeline import DeferredCommit

            deferred = DeferredCommit(self, state)
        rng = SeededRng(config.seed, f"oe/{config.system}/{self.workload.name}")
        retry_queue: list = []
        try:
            for i in range(config.num_blocks):
                retries = retry_queue[: config.block_size]
                retry_queue = retry_queue[config.block_size :]
                fresh = self.workload.generate_block(
                    config.block_size - len(retries), rng
                )
                block = self.ordering.form_block(retries + fresh)
                if self.tracer is not None:
                    self.tracer.event(
                        "enqueue",
                        block=block.block_id,
                        attrs={"retries": len(retries), "backlog": len(retry_queue)},
                    )
                    self.tracer.metrics.histogram("retry_queue_depth").observe(
                        len(retry_queue)
                    )
                if deferred is None:
                    outcome = self.process_global_block(block)
                    self._absorb_block(state, i, outcome)
                else:
                    outcome = self._certify(block, deferred=deferred)
                    deferred.hold(i, outcome)
                if config.retry_aborted:
                    retry_queue.extend(
                        t.spec for t in outcome.merged_txns if t.aborted
                    )
            if deferred is not None:
                deferred.land()
            metrics = self._finish_run(state)
            if deferred is not None:
                metrics.extra["pipelined"] = True
        finally:
            if deferred is not None:
                self.close_backend()  # also when a worker raised mid-run
        return metrics

    # ------------------------------------------------- run bookkeeping
    def merged_view(self, block, participants, txns_by_shard: dict) -> list:
        """One runtime record per transaction, from its coordinator shard
        (lowest participant id). ``txns_by_shard`` maps shard -> txns."""
        if self.config.num_shards == 1:
            return txns_by_shard[0]  # the sub-block is the block
        by_shard_tid = {
            shard: {t.tid: t for t in txns} for shard, txns in txns_by_shard.items()
        }
        return [
            by_shard_tid[min(participants[j])][block.first_tid + j]
            for j in range(block.size)
        ]

    def _absorb_block(self, state, i: int, outcome: GlobalBlockOutcome) -> None:
        """Fold a committed block into the run's decision and timing
        accounts."""
        block = outcome.block
        executions = outcome.executions
        expected = outcome.expected
        state.cross_txns_total += len(expected)
        state.cross_aborted_total += len(outcome.certificate.abort_tids)

        if outcome.merged_txns is None:
            outcome.merged_txns = self.merged_view(
                block,
                outcome.participants,
                {shard: e.txns for shard, e in executions.items()},
            )
        merged_txns = outcome.merged_txns
        state.merged_blocks.append((block.block_id, merged_txns))

        stats = BlockStats(block_id=block.block_id)
        for txn in merged_txns:
            if txn.committed:
                stats.committed += 1
            elif txn.aborted:
                stats.aborted += 1
        # on one shard the merged view *is* the execution's own txn list, so
        # its commit-time graph is the graph the oracle would otherwise
        # rebuild; either way the graphs die with this block
        graph = executions[0].committed_graph if self.config.num_shards == 1 else None
        for execution in executions.values():
            execution.committed_graph = None
        if self.config.measure_false_aborts:
            stats.false_aborts = SerializabilityOracle.count_false_aborts(
                merged_txns, graph=graph
            )
        # validator events are per-shard observations (a cross-shard
        # transaction is validated at every participant)
        stats.dangerous_structure_hits = sum(
            e.stats.dangerous_structure_hits for e in executions.values()
        )
        state.metrics.merge_block(stats)
        state.per_block_committed.append(stats.committed)

        tracer = self.tracer
        if tracer is not None:
            tracer.event(
                "decide",
                block=block.block_id,
                attrs={
                    "committed": stats.committed,
                    "aborted": stats.aborted,
                    "false_aborts": stats.false_aborts,
                },
            )
            participant_hist = tracer.metrics.histogram("cross_participants")
            for shards in expected.values():
                participant_hist.observe(len(shards))

        for shard in sorted(executions):
            execution = executions[shard]
            # serial front-end: each shard ingests only its sub-block
            execution.pre_exec_serial_us += (
                outcome.sub_blocks[shard].size * self.costs.ingest_us
            )
            sim_durations = execution.sim_durations_us
            cross_here = 0
            if expected:
                sim_durations = list(sim_durations)
                for idx, txn in enumerate(execution.txns):
                    if txn.tid in expected:
                        cross_here += 1
                        if idx < len(sim_durations):
                            # the cross-shard simulation waits one batched
                            # remote-read round
                            sim_durations[idx] += state.remote_round_us
            post_commit = execution.post_commit_serial_us
            if cross_here:
                # the vote exchange separates prepare from commit; in
                # the lane model the serial tail position is equivalent
                # (commit_finish shifts by the same amount either way)
                vote_us = self._vote_exchange_us(cross_here)
                post_commit += vote_us
                if tracer is not None:
                    tracer.stage(
                        "vote_exchange",
                        block=block.block_id,
                        shard=shard,
                        sim_us=vote_us,
                        attrs={
                            "cross": cross_here,
                            "remote_read_us": cross_here * state.remote_round_us,
                        },
                    )
            if tracer is not None:
                shard_stats = execution.stats
                tracer.metrics.counter(f"shard{shard}.committed").inc(
                    shard_stats.committed if shard_stats is not None else 0
                )
                tracer.metrics.counter(f"shard{shard}.aborted").inc(
                    shard_stats.aborted if shard_stats is not None else 0
                )
                tracer.metrics.histogram(f"shard{shard}.prepare_us").observe(
                    sum(execution.sim_durations_us)
                )
                tracer.metrics.histogram(f"shard{shard}.commit_us").observe(
                    sum(execution.commit_durations_us)
                )
            state.shard_timings[shard].append(
                BlockTiming(
                    arrival_us=i * state.interval,
                    sim_durations=sim_durations,
                    commit_durations=execution.commit_durations_us,
                    serial_commit=execution.serial_commit,
                    pre_exec_serial_us=execution.pre_exec_serial_us,
                    post_commit_serial_us=post_commit,
                )
            )

        if self.config.keep_history:
            self.history.append(outcome)

    def _finish_run(self, state) -> RunMetrics:
        metrics = state.metrics
        # --- timing: one pipeline lane per shard, merged into one timeline.
        lag = self.config.harmony.snapshot_lag if self._inter_block_enabled() else 2
        results = [
            PipelineSimulator(
                num_cores=self._cores_per_shard(),
                inter_block=self._inter_block_enabled(),
                snapshot_lag=lag,
            ).simulate(timings)
            for timings in state.shard_timings
        ]
        merged_result = merge_shard_results(results)

        metrics.sim_time_us = merged_result.makespan_us
        metrics.cpu_utilization = merged_result.cpu_utilization
        # per-block service latency of every committed transaction, backlog
        # excluded: what a client observes at sustainable load — consensus,
        # execution from the moment the replica could start the block, and
        # the reply hop
        commit_finish_us = merged_result.commit_finish_us
        consensus_latency_us = self._consensus_latency_us()
        reply_us = self.network.worst_one_way_us(self.config.num_replicas)
        for i, committed in enumerate(state.per_block_committed):
            started = i * state.interval
            if i > 0:
                started = max(started, commit_finish_us[i - 1])
            block_latency = (
                consensus_latency_us + (commit_finish_us[i] - started) + reply_us
            )
            metrics.latencies_us.extend([block_latency] * committed)

        for node in self.group.nodes:
            engine = node.engine
            metrics.io_reads += engine.io_reads
            metrics.io_writes += engine.io_writes
            metrics.buffer_hits += engine.buffer_hits
            metrics.buffer_misses += engine.buffer_misses
        shard_hashes = self.group.state_hashes()
        metrics.extra["state_hash"] = combine_state_hashes(shard_hashes)
        metrics.extra["shard_state_hashes"] = shard_hashes
        metrics.extra["ledger_ok"] = self.group.ledgers_ok()
        metrics.extra["decision_digest"] = decision_digest(state.merged_blocks)
        metrics.extra["num_shards"] = self.config.num_shards
        metrics.extra["cross_shard_txns"] = state.cross_txns_total
        metrics.extra["cross_shard_aborted"] = state.cross_aborted_total
        metrics.extra["certificates_ok"] = self.cert_log.verify_chain()
        metrics.extra["cert_head"] = self.cert_log.head_hash
        metrics.extra["ownership_epoch"] = self.router.ownership_epoch
        metrics.extra["migrations"] = sum(
            1 for cert in self.cert_log.certificates() if cert.migration is not None
        )
        metrics.extra["backend"] = (
            "process" if self._prepare_backend is not None else "serial"
        )
        tracer = self.tracer
        if tracer is not None:
            tracer.event(
                "run_end",
                attrs={
                    "blocks": len(state.merged_blocks),
                    "committed": metrics.committed,
                    "aborted": metrics.aborted,
                    "decision_digest": metrics.extra["decision_digest"][:16],
                    "cert_head": self.cert_log.head_hash[:16],
                },
            )
            tracer.anno(
                "run_summary",
                timing={
                    "makespan_us": merged_result.makespan_us,
                    "cpu_utilization": merged_result.cpu_utilization,
                },
            )
            latency_hist = tracer.metrics.histogram("block_latency_us")
            for latency in metrics.latencies_us:
                latency_hist.observe(latency)
            for shard, result in enumerate(results):
                tracer.metrics.gauge(f"shard{shard}.busy_core_us").set(
                    result.busy_core_us
                )
        return metrics

    def _consensus_latency_us(self) -> float:
        if isinstance(self.consensus, HotStuffConsensus):
            return self.consensus.block_latency_us()
        return self.consensus.block_latency_us(
            self._block_bytes(), self.config.num_replicas
        )

    # -------------------------------------------------------------- checks
    def consistency_check(self) -> bool:
        """Replay blocks + certificates on a fresh replica; states must match.

        The replica never re-runs the vote exchange: the certificates *are*
        the decision stream, so a correct replica reaches the identical
        per-shard states from (sub-blocks, certificates) alone — the
        sharded analogue of the paper's replica-consistency claim.
        """
        other = replay_group_serial(self, name_prefix="replica-1")
        return other.combined_state_hash() == self.group.combined_state_hash()

    # ------------------------------------------------------------ reporting
    def cross_shard_abort_reasons(self) -> dict:
        """Histogram of veto reasons recorded in the certificate stream."""
        reasons: dict[str, int] = {}
        for cert in self.cert_log.certificates():
            for vote in cert.votes:
                if not vote.commit and vote.reason:
                    reasons[vote.reason] = reasons.get(vote.reason, 0) + 1
        return reasons


def fresh_group(chain, name_prefix: str) -> ShardGroup:
    """A second replica of ``chain``'s fleet, holding genesis."""
    return ShardGroup(
        chain.config,
        chain.workload,
        chain.router,
        chain.costs,
        chain.orderer_signer,
        name_prefix=name_prefix,
    )


def logged_blocks(chain):
    """``(block_id, {shard: sub_block})`` of every block ``chain``'s
    sub-ledgers hold, in order — what a fresh replica replays."""
    nodes = chain.group.nodes
    for i in range(len(nodes[0].ledger)):
        yield i, {shard: node.ledger[i] for shard, node in enumerate(nodes)}


def replay_group_serial(chain, name_prefix: str = "replay-serial") -> ShardGroup:
    """The reference replay: a fresh group, every block ingested, prepared
    and committed in-process, shard after shard (the seed's discipline).
    Each certified migration re-applies at exactly its recorded height."""
    other = fresh_group(chain, name_prefix)
    replay_blocks(
        dict(enumerate(other.nodes)), logged_blocks(chain), chain.cert_log, chain.router
    )
    return other
