"""The pipelined schedule: block N's commit lands inside N+1's prepare.

The paper's pipelining story (Section 3.4) on real cores: with a snapshot
lag of 2 (Harmony inter-block), block *i*'s simulation/validation reads
snapshot *i−2* and validates against block *i−1*'s *decision facts* — both
known before block *i−1*'s physical commit runs. Inter-block parallelism
is therefore a *scheduling* property of the one Order-Execute loop
(:meth:`repro.shard.system.ShardedBlockchain.run`), not a second driver:
:class:`DeferredCommit` calls the chain's four stage methods in the same
order as every other schedule, only it holds block *i−1* between certify
and commit, and that commit runs on the main process while the worker
pool prepares block *i*.

Decision-stream equivalence with the sequential schedule is exact:

- block *i* is formed from the same retry queue — retries are final at
  certificate time (``decided_prepare_state`` applies the vetoes to the
  very transaction objects the deferred commit later re-marks);
- the worker validates block *i* against ``decided_prepare_state`` of
  block *i−1*, which equals the ``_prev_records`` the sequential schedule
  would have after committing it;
- certificates are appended in block order, before the *next* block's
  certificate and after the previous one — the chain is byte-identical.
"""

from __future__ import annotations


class DeferredCommit:
    """The pipelined schedule of the block walk: a one-deep queue holding
    the certified block whose commit is due."""

    def __init__(self, chain, state) -> None:
        self.chain = chain
        #: the worker pool — ``_pipelined_ready()`` has asked for it
        self.backend = chain._ensure_backend()
        self._state = state
        self._held = None  # (block index, outcome)
        #: per shard, the cross-block decision state the next prepare
        #: validates against
        self._prepare_states = {
            shard: node.executor.export_prepare_state()
            for shard, node in enumerate(chain.group.nodes)
        }

    def process(self, index: int, block):
        """Walk ``block`` through route, prepare and certify, and hold its
        commit; the previous block's commit lands inside the prepare."""
        chain = self.chain
        outcome = chain.route_global_block(block, migration_barrier=self.land)
        chain.prepare_global_block(outcome, deferred=self)
        chain.certify_global_block(outcome)
        self.hold(index, outcome)
        return outcome

    def prepare(self, sub_blocks: dict) -> dict:
        """The prepare stage's medium on this schedule: the pool, against
        the held block's decided state, landing its commit meanwhile."""
        tracer = self.chain.tracer
        if tracer is not None:
            # occupancy of the one-deep deferred-commit queue at dispatch
            tracer.metrics.histogram("pipeline.queue_depth").observe(
                1 if self._held is not None else 0
            )
            tracer.anno(
                "pipeline_dispatch",
                block=sub_blocks[0].block_id,
                timing={"overlap": self._held is not None},
            )
        return self.backend.prepare(
            sub_blocks,
            self.chain.group.nodes,
            self._prepare_states,
            meanwhile=self.land,
        )

    def hold(self, index: int, outcome) -> None:
        """Take a freshly certified block. Its decisions are final here:
        mark the vetoes, derive the records the next block validates
        against and the merged view its retries are read from — all before
        (and idempotent with) the physical commit."""
        chain = self.chain
        nodes = chain.group.nodes
        abort_tids = outcome.certificate.abort_tids
        self._prepare_states = {
            shard: nodes[shard].executor.decided_prepare_state(prep, abort_tids)
            for shard, prep in outcome.prepared.items()
        }
        outcome.merged_txns = chain.merged_view(
            outcome.block,
            outcome.participants,
            {shard: prep.txns for shard, prep in outcome.prepared.items()},
        )
        self._held = (index, outcome)

    def land(self) -> None:
        """Commit the held block, if any. Also the migration barrier: a
        due re-key ships key versions as of block *i−1*, so that commit
        must land first — the one-block bubble is the price of an
        ownership change."""
        if self._held is not None:
            index, outcome = self._held
            self._held = None
            self.chain.commit_global_block(outcome)
            self.chain._absorb_block(self._state, index, outcome)
