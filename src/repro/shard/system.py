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

:meth:`ShardedBlockchain.run` is the only Order-Execute run loop, and a
block has one way through it: steps 1-4 are the four stage methods
``route_global_block`` / ``prepare_global_block`` / ``certify_global_block``
/ ``commit_global_block``, each filling its part of one
:class:`GlobalBlockOutcome` and handing its moment to the run's tracer
(:class:`~repro.obs.trace.Tracer`, the one builder of spans). What
differs between callers is the *schedule* of those calls: one after the other
(:meth:`ShardedBlockchain.process_global_block`), or with crash marks, vote
retries and recovery between the stages
(:class:`repro.faults.supervisor.SupervisedShardGroup`). No one else
prepares, certifies or commits a live block (the ``one-walk/*`` rows of
``make gates``). The run is priced by
:class:`~repro.chain.accounts.RunAccounts`, as SOV's is.

``num_shards=1`` is the unsharded chain
(:class:`~repro.chain.system.OEBlockchain` is exactly that configuration):
every participant set is ``{0}``, the sub-block is the global block, no
transaction is cross-shard, so routing, splitting, voting and remote-read
pricing have nothing to compute and are skipped on those facts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.accounts import RunAccounts
from repro.chain.config import (
    OEConfig,
    build_engine,
    build_executor,
    unknown_option,
)
from repro.chain.node import ReplicaNode
from repro.chain.ordering import OrderingService, ShardSequencer
from repro.collector import collector_paused
from repro.consensus.crypto import Signer
from repro.consensus.hotstuff import HotStuffConsensus
from repro.consensus.kafka import KafkaOrdering
from repro.consensus.network import NetworkModel
from repro.encoding import encode
from repro.shard.federated import wire_federation
from repro.shard.rebalance import (
    RebalancePolicy,
    build_migration_record,
    install_migration,
)
from repro.shard.replay import replay_blocks
from repro.shard.router import ShardRouter
from repro.shard.twopc import CertificateLog, derive_votes
from repro.sim.costs import CostModel, cost_table
from repro.sim.metrics import RunMetrics
from repro.sim.rng import SeededRng
from repro.storage.mvstore import TOMBSTONE


@dataclass
class ShardConfig(OEConfig):
    """An :class:`~repro.chain.config.OEConfig` plus what a sharded run
    chooses: shard count, static routing policy, re-keying thresholds."""

    num_shards: int = 1
    #: ``workload`` aligns with the workload's partition layout (``hash`` when
    #: it has no index hints); ``hash`` is the generic policy
    router_policy: str = "workload"
    #: live re-keying: ``"off"`` pins the epoch-0 static routing; ``"adaptive"``
    #: arms a :class:`~repro.shard.rebalance.RebalancePolicy` that watches
    #: decision-layer telemetry and re-keys hot keys mid-run
    rebalance: str = "off"
    #: window load skew (max/mean) at which the offload trigger fires
    rebalance_skew_threshold: float = 2.0
    #: cross-shard txn ratio at which the co-location trigger fires
    rebalance_cross_threshold: float = 0.5
    #: most keys one migration record may move
    rebalance_max_keys: int = 32


def build_router(config: ShardConfig, workload) -> ShardRouter:
    """The deterministic router for ``config``: every replica rebuilds
    the identical routing from (config, workload) alone."""
    if config.router_policy == "workload":
        return ShardRouter.for_workload(workload, config.num_shards)
    return ShardRouter(config.num_shards, policy=config.router_policy)


#: the participant set of every transaction on a one-shard chain
ONLY_SHARD = frozenset({0})


@dataclass
class GlobalBlockOutcome:
    """One global block on its way through the block walk.

    Each stage of :class:`ShardedBlockchain`'s walk reads what the stages
    before it filled: :meth:`~ShardedBlockchain.route_global_block` the
    routing facts, the prepare stage ``prepared``, the certify stage
    ``certificate`` (the block's decisions are final from here on), the
    commit stage ``executions``.
    """

    block: object
    sub_blocks: dict
    #: the ownership change certified at this block, if one was due
    migration: object = None
    #: the block's :class:`~repro.shard.router.BlockRoute` (``None`` on one
    #: shard): each transaction's participant set, the cross-shard ones,
    #: and where each coordinator record and each shard's cross-shard
    #: transactions sit in the sub-blocks
    route: object = None
    #: shard -> PreparedBlock; a shard left out of the prepare stage has no
    #: entry — it never logged the sub-block and casts no vote
    prepared: dict = None
    certificate: object = None
    #: shard -> BlockExecution; a shard left out of the commit stage has no
    #: entry — it voted but never committed
    executions: dict = None
    #: one runtime record per transaction, from its coordinator shard
    #: (filled when the committed block is folded into the run's accounts)
    merged_txns: list = None

    @property
    def block_id(self) -> int:
        return self.block.block_id

    @property
    def participants(self) -> list:
        """Per transaction, the set of shards it runs on."""
        if self.route is None:
            return [ONLY_SHARD] * self.block.size
        return self.route.participants

    @property
    def expected(self) -> dict:
        """tid -> participant set of every cross-shard transaction: the
        votes the certificate waits for (a missing one degrades to a veto);
        empty on one shard."""
        return {} if self.route is None else self.route.cross

    @property
    def cross_slots(self):
        """Per shard, where its cross-shard transactions sit in its
        sub-block; empty on one shard."""
        return () if self.route is None else self.route.cross_slots


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
        for shard, node in enumerate(self.nodes):
            wire_federation(node.executor, router, self._stores, shard)

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

    def state_hashes(self) -> list[str]:
        return [node.state_hash() for node in self.nodes]

    def first_difference(self, other: "ShardGroup") -> tuple | None:
        """The first live entry on which ``other``'s fleet differs from this
        one, as ``(shard, key, mine, theirs)`` (``TOMBSTONE`` for a side that
        holds no entry), or ``None`` when every shard holds the same entries.

        A shard costs one ``materialize()`` compare; only a shard that fails
        it is walked in key order. There a key differs iff one side lacks it
        or the ``encode`` texts of its values differ, so a NaN agrees with
        its copy as the state hash says. A stored ``None`` counts here, and
        the hash drops it (see :meth:`~repro.storage.mvstore.MVStore.materialize`).
        """
        for shard, (node, peer) in enumerate(zip(self.nodes, other.nodes)):
            mine = node.engine.store.materialize()
            theirs = peer.engine.store.materialize()
            if mine == theirs:
                continue
            for key in sorted(mine.keys() | theirs.keys()):
                a, b = mine.get(key, TOMBSTONE), theirs.get(key, TOMBSTONE)
                if a is TOMBSTONE or b is TOMBSTONE or encode(a) != encode(b):
                    return shard, key, a, b
        return None

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
        self.costs = cost_table()
        self.network = NetworkModel.preset(config.network, self.costs)
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
        elif config.consensus == "kafka":
            self.consensus = KafkaOrdering(self.network, self.costs)
        else:
            raise unknown_option("consensus", config.consensus, ("kafka", "hotstuff"))
        self.cert_log = CertificateLog()
        if config.rebalance not in ("off", "adaptive"):
            raise unknown_option("rebalance", config.rebalance, ("off", "adaptive"))
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
        #: the run's one span hook (:class:`~repro.obs.trace.Tracer`), read
        #: by the stages and the fault supervisor; ``None`` (the default)
        #: costs one attribute check per emission site
        self.tracer = None

    # ------------------------------------------------------------------ run
    def _remote_read_round_us(self) -> float:
        """One batched remote-read exchange of a cross-shard simulation."""
        return self.network.rtt_us(self.config.num_shards) + self.network.transfer_us(
            self.costs.cross_read_bytes
        )

    def _vote_exchange_us(self, num_cross_local: int) -> float:
        """Prepare-vote broadcast + decide hop for one shard's sub-block."""
        return 2.0 * self.network.worst_one_way_us(
            self.config.num_shards
        ) + self.network.broadcast_us(
            self.costs.vote_bytes * num_cross_local, self.config.num_shards - 1
        )

    # ---------------------------------------------------------- rebalancing
    def plan_rebalance(self, block_id: int):
        """The armed policy's proposal for the start of ``block_id``
        (telemetry through ``block_id - 1``), or ``None``. Side-effect-free
        so the fault supervisor can catch lagging shards up between the
        plan and the commit."""
        policy = self.rebalance_policy
        if policy is None:
            return None
        return policy.propose(block_id, self.router)

    def commit_rebalance(self, block_id: int, proposal):
        """Materialize ``proposal`` into the certified record and install
        it (router, stores). Every shard's store must be at height
        ``block_id - 1`` — the fault supervisor enforces that barrier
        before calling."""
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
        crashes).
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
        if self.tracer is not None:
            self.tracer.migrated(record, fates)

    # ------------------------------------------------------- the block walk
    # route -> prepare -> certify -> commit, written once. Both schedules
    # — process_global_block below, the fault supervisor's process_block —
    # are these four calls in this order on one GlobalBlockOutcome, and
    # each stage hands its moment to the tracer, which builds the spans
    # (repro.obs.trace).
    def route_global_block(self, block, migration_barrier=None) -> GlobalBlockOutcome:
        """Stage one: decide/apply any due migration, route every spec,
        feed the policy telemetry and split the block.

        ``migration_barrier`` (fault supervisor) runs after a proposal is
        made but before the record is built, so every store reaches the
        boundary height first.
        """
        migration = None
        route = None
        policy = self.rebalance_policy
        # on one shard the one shard hosts every transaction and none is
        # cross-shard: there is nothing to route
        if self.config.num_shards > 1:
            if policy is not None:
                proposal = self.plan_rebalance(block.block_id)
                if proposal is not None:
                    if migration_barrier is not None:
                        migration_barrier()
                    migration = self.commit_rebalance(block.block_id, proposal)
                policy.begin_block(block.block_id)
            route = self.router.route_block(
                self.workload, block.specs, block.first_tid, pairs=policy is not None
            )
            if policy is not None:
                for routed, parts in zip(route.routed, route.participants):
                    policy.observe_txn(routed, parts)
        outcome = GlobalBlockOutcome(
            block=block,
            sub_blocks=self.sequencer.split(block, route.cuts if route else None),
            migration=migration,
            route=route,
        )
        if self.tracer is not None:
            self.tracer.ordered(outcome)
        return outcome

    def prepare_global_block(
        self, outcome, skip: frozenset = frozenset(), attempt: int = 0
    ) -> None:
        """Stage two: every shard simulates and validates its sub-block —
        the outcome is its vote; all prepares precede any commit.

        Shards in ``skip`` died (or lag) before the sub-block arrived: they
        never log or prepare it and cast no vote, so the certificate's
        timeout degradation vetoes their cross-shard transactions unless a
        supervisor recovers them and re-enters the stage — a second call
        prepares only the shards the outcome does not hold yet, its spans
        tagged with the vote round ``attempt``.
        """
        sub_blocks = outcome.sub_blocks
        done = outcome.prepared or {}
        fresh = {
            shard: node.prepare_block(sub_blocks[shard])
            for shard, node in enumerate(self.group.nodes)
            if shard not in skip and shard not in done
        }
        outcome.prepared = {**done, **fresh}
        if self.tracer is not None:
            self.tracer.prepared(outcome.block_id, fresh, attempt)

    def certify_global_block(self, outcome, votes=None) -> None:
        """Stage three, the ordered vote exchange: the prepare outcomes
        become the block stream's commit certificate (deterministic all-yes
        rule). From here on the block's decisions are final, though nothing
        is applied yet.

        ``votes`` defaults to every vote cast; a supervisor passes what its
        (faulty) wire delivered. The expected participant sets arm the
        timeout→abort degradation for any vote that never arrived; with a
        full vote set they change nothing.
        """
        if votes is None:
            votes = derive_votes(outcome.prepared, outcome.cross_slots)
        outcome.certificate = self.cert_log.append(
            votes,
            outcome.block_id,
            expected=outcome.expected,
            migration=outcome.migration,
        )
        if self.tracer is not None:
            self.tracer.certified(outcome.certificate)

    def commit_global_block(self, outcome, skip: frozenset = frozenset()) -> None:
        """Stage four: apply the certified block on every prepared shard,
        honouring the certificate's vetoes.

        Shards in ``skip`` died between their prepare vote and the
        certificate append: the deterministic votes were cast, the
        certificate landed, but the shard never commits — its block log
        holds the input block, so recovery replays it under the
        certificate's recorded decisions.
        """
        block_id = outcome.block_id
        nodes = self.group.nodes
        prepared = outcome.prepared
        abort_tids = outcome.certificate.abort_tids
        outcome.executions = executions = {
            shard: nodes[shard].finish_block(prepared[shard], abort_tids)
            for shard in sorted(prepared)
            if shard not in skip
        }
        tracer = self.tracer
        if tracer is not None:
            # a boundary block's checkpoint went out inside finish_block:
            # every shard's goes before the commit spans
            for shard in executions:
                tracer.checkpointed(shard, block_id, nodes[shard].engine.checkpoints)
            tracer.committed(block_id, executions)

    def process_global_block(self, block) -> GlobalBlockOutcome:
        """The sequential schedule of the block walk: the four stages in
        order, the block committed before the call returns."""
        outcome = self.route_global_block(block)
        self.prepare_global_block(outcome)
        self.certify_global_block(outcome)
        self.commit_global_block(outcome)
        return outcome

    @collector_paused()
    def run(self) -> RunMetrics:
        """The Order-Execute loop: form a block, walk it through the stages.

        Block *i* commits (:meth:`process_global_block`) before block
        *i+1* forms, so the retries block *i+1* carries are final. The
        inter-block overlap the paper claims is a property of the modeled
        clock (:class:`~repro.sim.scheduler.PipelineSimulator`), not of
        this loop.
        """
        config = self.config
        accounts = RunAccounts(config.system, self.workload.name, lanes=config.num_shards)
        block_bytes = config.block_size * self.costs.command_bytes
        interval = self.consensus.min_block_interval_us(block_bytes, config.num_replicas)
        rng = SeededRng(config.seed, f"oe/{config.system}/{self.workload.name}")
        for i in range(config.num_blocks):
            specs, retries = accounts.next_specs(self.workload, config.block_size, rng)
            block = self.ordering.form_block(specs)
            if self.tracer is not None:
                self.tracer.enqueued(block.block_id, retries, len(accounts.retry_queue))
            self._absorb_block(accounts, i * interval, self.process_global_block(block))

        inter_block = config.system == "harmony" and config.harmony.inter_block
        metrics = accounts.finish(
            cores=self.costs.replica_cores,
            inter_block=inter_block,
            snapshot_lag=config.harmony.snapshot_lag if inter_block else 2,
            fixed_latency_us=self.consensus.block_latency_us(
                block_bytes, config.num_replicas
            ),
            reply_us=self.network.worst_one_way_us(config.num_replicas),
            nodes=self.group.nodes,
        )
        # the certificate stream holds one vote per participant of every
        # cross-shard transaction and the decisions
        certificates = self.cert_log.certificates()
        metrics.extra.update(
            shard_state_hashes=self.group.state_hashes(),
            num_shards=config.num_shards,
            cross_shard_txns=sum(len({v.tid for v in c.votes}) for c in certificates),
            cross_shard_aborted=sum(len(c.abort_tids) for c in certificates),
            certificates_ok=self.cert_log.verify_chain(),
            cert_head=self.cert_log.head_hash,
            ownership_epoch=self.router.ownership_epoch,
            migrations=sum(1 for c in certificates if c.migration),
        )
        if self.tracer is not None:
            self.tracer.run_ended(metrics, self.cross_shard_abort_reasons())
        return metrics

    # ------------------------------------------------- run bookkeeping
    def merged_view(self, outcome: GlobalBlockOutcome) -> list:
        """One runtime record per transaction of a committed block, from
        its coordinator shard (lowest participant id), taken by its
        position in that shard's sub-block."""
        executions = outcome.executions
        if self.config.num_shards == 1:
            return executions[0].txns  # the sub-block is the block
        return [executions[shard].txns[index] for shard, index in outcome.route.records]

    def _absorb_block(
        self, accounts: RunAccounts, arrival_us: float, outcome: GlobalBlockOutcome
    ) -> None:
        """Fold a committed block into the run's accounts: the merged view's
        decisions, and one lane per shard carrying the block's remote reads
        and vote exchange."""
        executions = outcome.executions
        expected = outcome.expected
        outcome.merged_txns = merged_txns = self.merged_view(outcome)
        # on one shard the merged view *is* the execution's own txn list, so
        # its commit-time graph is the graph the oracle would otherwise
        # rebuild; either way the graphs die with this block
        graph = executions[0].committed_graph if self.config.num_shards == 1 else None
        for execution in executions.values():
            execution.committed_graph = None
        remote_round_us = self._remote_read_round_us() if expected else 0.0
        votes = {}  # shard -> (cross-shard txns, vote exchange us)
        for shard, slots in enumerate(outcome.cross_slots) if expected else ():
            if not slots or shard not in executions:
                continue
            # the cross-shard simulations wait one batched remote-read round
            execution = executions[shard]
            execution.sim_durations_us = sim_durations = list(execution.sim_durations_us)
            simulated = len(sim_durations)
            for idx in slots:
                if idx < simulated:
                    sim_durations[idx] += remote_round_us
            # the vote exchange separates prepare from commit; in the lane
            # model the serial tail position is equivalent (commit_finish
            # shifts by the same amount either way)
            vote_us = self._vote_exchange_us(len(slots))
            votes[shard] = (len(slots), vote_us)
            execution.post_commit_serial_us += vote_us
        stats = accounts.absorb(
            outcome.block_id,
            merged_txns,
            [executions[shard] for shard in sorted(executions)],
            arrival_us,
            graph=graph,
            participants=outcome.participants,
        )
        if self.tracer is not None:
            self.tracer.decided(outcome, stats, votes, remote_round_us)

    # -------------------------------------------------------------- checks
    @collector_paused()
    def consistency_check(self) -> bool:
        """Replay blocks + certificates on a fresh replica; every shard's
        live entries must match the chain's (:meth:`ShardGroup.first_difference`).

        The replica never re-runs the vote exchange: the certificates *are*
        the decision stream, so a correct replica reaches the identical
        per-shard states from (sub-blocks, certificates) alone — the
        sharded analogue of the paper's replica-consistency claim.
        """
        other = replay_group(self, name_prefix="replica-1")
        return self.group.first_difference(other) is None

    # ------------------------------------------------------------ reporting
    def cross_shard_abort_reasons(self) -> dict:
        """Histogram of veto reasons recorded in the certificate stream:
        why a participant voted no (its local abort reason, or
        ``vote-timeout``) — what a ``cross-shard-abort`` stands for in the
        trace report's reason table."""
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


def replay_group(chain, name_prefix: str = "replay") -> ShardGroup:
    """A fresh group with every logged block ingested, prepared and
    committed on it, shard after shard. Each certified migration re-applies
    at exactly its recorded height."""
    other = fresh_group(chain, name_prefix)
    replay_blocks(
        dict(enumerate(other.nodes)), logged_blocks(chain), chain.cert_log, chain.router
    )
    return other
