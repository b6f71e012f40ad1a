"""Sharded execution: partitioned OE pipelines, deterministic 2PC-over-blocks.

Why sharding fits deterministic concurrency control
---------------------------------------------------
The paper's Order-Execute pipeline is deterministic end to end: given the
block stream, every replica reaches the same commit/abort decisions and
the same state with no coordination. That same property makes the *shard*
a unit of scale-out: if each shard's decisions are a pure function of its
sub-block stream, then cross-shard agreement needs no locks, no leases and
no failure-path timeouts — only an ordered exchange of deterministic facts.

The design, layer by layer
--------------------------
**Routing** (:mod:`repro.shard.router`). A :class:`ShardRouter`
deterministically partitions the keyspace (hash, range, or the workload's
own contiguous index split). A transaction's *participant set* is derived
from its static key footprint; a footprint the router cannot see through
routes the transaction to every shard (conservative, never wrong).

**Sequencing** (:class:`repro.chain.ordering.ShardSequencer`). The global
ordering service remains the single sequencing point. Sub-blocks are a
pure function of (global block, participant sets): per shard, the subset
of transactions it participates in, carrying their *global* TIDs, chained
into a per-shard ledger. Every shard gets a sub-block for every global
block (possibly empty), keeping all shards block-locked — which is what
makes "the snapshot of block *b*" globally well-defined.

**Execution** (:mod:`repro.shard.federated`). Single-shard transactions
run exactly as in the unsharded pipeline. A cross-shard transaction is
simulated *at every participant* against a :class:`FederatedSnapshot`
that routes each read to the owning shard's store at the same block
height. Because shards advance block-locked and stores are deterministic,
every participant observes identical values — the simulation itself is
replicated, not distributed, so there is nothing to disagree about.

**Deterministic 2PC over the block stream** (:mod:`repro.shard.twopc`).
Each shard's prepare outcome (its local DCC validation of the sub-block)
is its vote. The decision rule is fixed — commit iff *all* participants
voted commit — and votes are serialized into a hash-chained
:class:`CommitCertificate` stream that travels with the block stream.
There is no coordinator and no failure path: votes are deterministic, so
any replica can compute them; the certificate makes the decisions
auditable and lets a recovering replica replay (sub-blocks, certificates)
without re-running the exchange. Commit then installs only locally-owned
writes; remote reads were validated at their owner shard as reservations
(the cross-shard transaction sits in that shard's sub-block too, so its
reads conflict with local writers there — closing the write-skew window
that purely local validation would leave open).

**Pricing** (:mod:`repro.sim`, :mod:`repro.consensus.network`). Each
shard is its own replica group with its own core budget and pipeline
lane; lanes merge by per-block max (a global block commits when its
slowest shard does). Cross-shard transactions pay one batched remote-read
round in their simulated duration and each sub-block with cross-shard
members pays a vote-exchange round, both priced through the
:class:`~repro.consensus.network.NetworkModel`.

With ``num_shards=1`` every mechanism above has nothing to do and
:class:`ShardedBlockchain` *is* the unsharded chain:
:class:`~repro.chain.system.OEBlockchain` is that configuration of the one
driver (``tests/golden/driver_identity.json`` pins what both produced while
they were still separate code).
"""

from repro.shard.federated import FederatedSnapshot
from repro.shard.recovery import ShardRecovery, recover_shard_node
from repro.shard.router import ShardRouter
from repro.shard.system import ShardConfig, ShardedBlockchain, ShardGroup
from repro.shard.twopc import (
    CertificateLog,
    CommitCertificate,
    ShardVote,
    decide,
    make_certificate,
    reconcile_votes,
)

__all__ = [
    "CertificateLog",
    "CommitCertificate",
    "FederatedSnapshot",
    "ShardConfig",
    "ShardGroup",
    "ShardRecovery",
    "ShardRouter",
    "ShardVote",
    "ShardedBlockchain",
    "decide",
    "recover_shard_node",
    "make_certificate",
    "reconcile_votes",
]
