"""Simulate-Order-Validate blockchain assembly: Fabric and FastFabric#.

The SOV workflow (Section 2.1.1): (1) a client submits a transaction to
endorsers, (2) each endorser simulates it against its *local latest* state
— replicas lag behind by different amounts, so read-write sets may diverge
— (3) the client reconciles them per its endorsement policy, (4) the
ordering service cuts blocks of endorsed transactions, (5) validators check
versions (Fabric) or signatures only (FastFabric#, whose orderer already
built and pruned the dependency graph).

Costs specific to SOV, all of which Figures 7/8 and 15/16 exercise:

- two extra client round trips (endorsement and reconciliation);
- blocks ship ~1.5 KB endorsed read-write sets per transaction instead of
  ~128 B commands, so the ordering service's broadcast uplink saturates as
  replicas are added;
- serial validation and physical logging at every replica;
- FastFabric#'s serial graph traversal on the ordering critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.accounts import RunAccounts
from repro.chain.config import RunConfig, build_engine, unknown_option
from repro.chain.node import ReplicaNode
from repro.chain.ordering import OrderingService
from repro.collector import collector_paused
from repro.consensus.crypto import Signer
from repro.consensus.kafka import KafkaOrdering
from repro.consensus.network import NetworkModel
from repro.dcc.fabric import FabricValidator, endorsed_value_writes
from repro.dcc.fastfabric import FastFabricOrderer, FastFabricValidator
from repro.sim.costs import cost_table
from repro.sim.metrics import RunMetrics
from repro.sim.rng import SeededRng
from repro.storage.wal import LogMode
from repro.txn.context import SimulationContext
from repro.txn.transaction import AbortReason, Txn

#: replicas that simulate each transaction before the client reconciles —
#: the endorsement policy, a protocol parameter rather than a calibration
ENDORSERS = 2


@dataclass
class SOVConfig(RunConfig):
    """Configuration of one Simulate-Order-Validate system run."""

    system: str = "fabric"  # fabric | fastfabric
    block_size: int = 50
    #: endorsers lag behind the latest block by 0..max_endorser_lag blocks
    max_endorser_lag: int = 2


class SOVBlockchain:
    """Fabric-style blockchain bound to a workload."""

    def __init__(self, config: SOVConfig, workload) -> None:
        self.config = config
        self.workload = workload
        self.costs = cost_table()
        self.network = NetworkModel.preset(config.network, self.costs)
        self.orderer_signer = Signer("ordering-service")
        self.ordering = OrderingService(self.orderer_signer)
        self.consensus = KafkaOrdering(self.network, self.costs)
        self.registry = self.workload.build_registry()
        self.node = self._build_node("replica-0")
        self.fast_orderer = (
            FastFabricOrderer(self.costs) if config.system == "fastfabric" else None
        )

    def _build_node(self, name: str) -> ReplicaNode:
        validators = {"fabric": FabricValidator, "fastfabric": FastFabricValidator}
        validator = validators.get(self.config.system)
        if validator is None:
            raise unknown_option("system", self.config.system, validators)
        engine = build_engine(self.config, self.costs, log_mode=LogMode.PHYSICAL)
        engine.preload(self.workload.initial_state())
        executor = validator(engine, self.workload.build_registry())
        return ReplicaNode(name, executor, self.orderer_signer)

    # ------------------------------------------------------------ endorsing
    def _endorse(self, txn: Txn, rng: SeededRng) -> float:
        """Simulate ``txn`` on ``ENDORSERS`` independently-lagged replicas.

        Returns the endorsement CPU cost; marks the transaction aborted
        (ENDORSEMENT_MISMATCH) when the endorsers' read sets diverge and the
        client cannot assemble a valid endorsement.
        """
        store = self.node.engine.store
        latest = store.last_committed_block
        outcomes = []
        cost = 0.0
        for _ in range(ENDORSERS):
            lag = rng.randint(0, self.config.max_endorser_lag)
            view_block = max(-1, latest - lag)
            probe = Txn(tid=txn.tid, block_id=txn.block_id, spec=txn.spec)
            ctx = SimulationContext(probe, store.snapshot(view_block), self.node.engine)
            try:
                probe.output = self.registry.execute(ctx)
            except (KeyError, TypeError, ValueError):
                probe.mark_aborted(AbortReason.EXECUTION_ERROR)
            cost += ctx.cost_us
            outcomes.append((view_block, probe))
        if any(p.read_set != outcomes[0][1].read_set for _v, p in outcomes[1:]):
            txn.mark_aborted(AbortReason.ENDORSEMENT_MISMATCH)
            return cost
        view_block, chosen = outcomes[0]
        txn.read_set = chosen.read_set
        txn.read_ranges = chosen.read_ranges
        txn.write_set = chosen.write_set
        txn.updated_keys = chosen.updated_keys
        txn.output = chosen.output
        txn.status = chosen.status
        txn.abort_reason = chosen.abort_reason
        endorsed_value_writes(txn, store.snapshot(view_block))
        return cost

    # ------------------------------------------------------------------ run
    @collector_paused()
    def run(self) -> RunMetrics:
        """Endorse, order (FastFabric# reorders at the orderer), validate;
        the rw-set broadcast paces the blocks. The pricing is the run
        accounts' (:mod:`repro.chain.accounts`), shared with Order-Execute."""
        config = self.config
        rng = SeededRng(config.seed, f"sov/{config.system}/{self.workload.name}")
        accounts = RunAccounts(config.system, self.workload.name)
        fixed_latency = None
        arrival = 0.0
        for _ in range(config.num_blocks):
            # clients resubmit aborted transactions (fresh endorsement each time)
            specs, _ = accounts.next_specs(self.workload, config.block_size, rng)
            block = self.ordering.form_block(specs)
            txns = block.build_txns()
            for txn in txns:
                self._endorse(txn, rng)

            ordered, pre_exec = txns, 0.0
            if self.fast_orderer is not None:
                outcome = self.fast_orderer.process(
                    txns, state_view=self.node.engine.store.latest_snapshot()
                )
                ordered = outcome.ordered_txns + [t for t in txns if t.aborted]
                pre_exec = outcome.traversal_cost_us
            block.endorsed_txns = ordered
            execution = self.node.process_block(block)
            execution.pre_exec_serial_us += pre_exec

            # the rw-set broadcast paces block delivery (Figures 15/16)
            records = sum(len(t.read_set) + len(t.write_set) for t in txns)
            per_txn = records / max(1, len(txns))
            txn_bytes = self.costs.endorsed_txn_bytes(per_txn)
            block_bytes = len(txns) * txn_bytes
            if fixed_latency is None:
                # two extra client round trips plus the rw-set upload, then
                # consensus — both priced from the first block
                fixed_latency = (
                    4 * self.network.one_way_us
                    + self.network.transfer_us(txn_bytes)
                ) + self.consensus.block_latency_us(block_bytes, config.num_replicas)
            # validation applied in TID order
            accounts.absorb(
                block.block_id,
                execution.txns,
                [execution],
                arrival,
                chain_order=lambda t: t.tid,
            )
            arrival += self.consensus.min_block_interval_us(
                block_bytes, config.num_replicas
            )
        return accounts.finish(
            cores=self.costs.replica_cores,
            inter_block=False,
            snapshot_lag=2,
            fixed_latency_us=fixed_latency,
            reply_us=self.network.worst_one_way_us(config.num_replicas),
            nodes=[self.node],
        )
