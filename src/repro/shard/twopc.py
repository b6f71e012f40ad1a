"""Deterministic two-phase commit over the block stream.

There is no coordinator process and no timeout path: the *ordering layer*
is the coordinator. For every global block each participant shard derives
a prepare vote for each of its cross-shard transactions (the outcome of
its local deterministic validation — a pure function of the sub-block),
the votes are exchanged, and the decision rule is fixed: **commit iff
every participant voted commit**. Votes and decisions are serialized into
a hash-chained :class:`CommitCertificate` stream that parallels the block
stream, so a replica joining late (or recovering) replays blocks +
certificates and lands on the identical state — it never needs to re-run
the vote exchange. Because votes themselves are deterministic, the
certificate is redundant information in the failure-free case (every
replica computes the same votes); shipping it in the stream is what makes
the decision *auditable* and replayable without re-execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.crypto import sha256_hex

GENESIS_CERT_HASH = "0" * 64


@dataclass(frozen=True)
class ShardVote:
    """One participant's prepare vote on one cross-shard transaction."""

    tid: int
    shard_id: int
    commit: bool
    #: the local abort reason backing a veto (diagnostics; not hashed)
    reason: str | None = None


@dataclass
class CommitCertificate:
    """The ordered vote record + decisions for one global block."""

    block_id: int
    votes: tuple
    #: TIDs vetoed by at least one participant (the deterministic decision)
    abort_tids: frozenset
    prev_hash: str = GENESIS_CERT_HASH
    hash: str = ""
    #: optional ownership-change record
    #: (:class:`~repro.shard.rebalance.MigrationRecord`) certified at this
    #: block — hash-covered, so replicas and replay apply the identical
    #: re-key at the identical height
    migration: object = None

    def __post_init__(self) -> None:
        if not self.hash:
            self.hash = self.compute_hash()

    def payload_bytes(self) -> bytes:
        votes = ";".join(
            f"{v.tid}@{v.shard_id}={'c' if v.commit else 'a'}" for v in self.votes
        )
        aborts = ",".join(str(t) for t in sorted(self.abort_tids))
        # Migration-free certificates keep the historical payload form, so
        # their hashes (and every pre-rebalance chain) are unchanged.
        suffix = (
            f"|m:{self.migration.payload_text()}" if self.migration is not None else ""
        )
        return f"{self.block_id}|{votes}|{aborts}|{self.prev_hash}{suffix}".encode()

    def compute_hash(self) -> str:
        return sha256_hex(self.payload_bytes())

    def verify(self, expected_prev_hash: str) -> bool:
        if self.prev_hash != expected_prev_hash or self.hash != self.compute_hash():
            return False
        # the decision must be exactly the all-yes rule over the votes
        vetoed = {v.tid for v in self.votes if not v.commit}
        return vetoed == set(self.abort_tids)


def decide(votes) -> frozenset:
    """The commit rule: a transaction aborts iff any participant vetoed."""
    return frozenset(v.tid for v in votes if not v.commit)


def derive_votes(prepared: dict, cross_slots) -> list[ShardVote]:
    """Each shard's prepare outcomes, folded into cross-shard votes.

    ``prepared`` maps shard id to its :class:`~repro.execution.PreparedBlock`;
    ``cross_slots[shard]`` lists where the shard's cross-shard transactions
    sit in its sub-block (:attr:`repro.shard.router.BlockRoute.cross_slots`).
    A vote is cast per (cross-shard tid, participant), in shard then
    sub-block order — one code path for the vote stream however the
    prepares ran. A block without cross-shard transactions (every block of
    a one-shard chain, whose ``cross_slots`` is empty) casts none.
    """
    votes: list[ShardVote] = []
    if not cross_slots:
        return votes
    for shard, prep in prepared.items():
        txns = prep.txns
        for idx in cross_slots[shard]:
            txn = txns[idx]
            aborted = txn.aborted
            votes.append(
                ShardVote(
                    tid=txn.tid,
                    shard_id=shard,
                    commit=not aborted,
                    reason=txn.abort_reason.value if aborted else None,
                )
            )
    return votes


def reconcile_votes(
    votes: list[ShardVote], expected: dict[int, frozenset] | None = None
) -> list[ShardVote]:
    """Normalize a (possibly faulty) vote collection into one vote per
    ``(tid, shard_id)`` pair.

    Duplicated deliveries are idempotent: the first vote for a pair wins
    and later copies must agree — a *conflicting* duplicate means a shard
    equivocated, which deterministic validation makes impossible, so it
    raises rather than picking a side. When ``expected`` maps each
    cross-shard tid to its participant set, any pair still missing after
    dedup is synthesized as a veto (``reason="vote-timeout"``): the
    degradation policy for an unhealed partition is *abort, never guess*,
    keeping the decision a pure function of the votes that arrived.
    """
    by_pair: dict[tuple[int, int], ShardVote] = {}
    for vote in votes:
        pair = (vote.tid, vote.shard_id)
        prior = by_pair.get(pair)
        if prior is None:
            by_pair[pair] = vote
        elif prior.commit != vote.commit:
            raise ValueError(
                f"equivocating votes for tid {vote.tid} from shard {vote.shard_id}"
            )
    if expected is not None:
        for tid, shards in expected.items():
            for shard_id in shards:
                if (tid, shard_id) not in by_pair:
                    by_pair[(tid, shard_id)] = ShardVote(
                        tid, shard_id, commit=False, reason="vote-timeout"
                    )
    return list(by_pair.values())


def make_certificate(
    block_id: int,
    votes: list[ShardVote],
    prev_hash: str,
    expected: dict[int, frozenset] | None = None,
    migration: object = None,
) -> CommitCertificate:
    """Build the block's certificate with votes in canonical order.

    ``expected`` (tid -> participant shard set) arms the timeout
    degradation: missing votes become synthesized vetoes via
    :func:`reconcile_votes`. Without it the votes are still deduplicated,
    so retransmitted copies never change the certificate hash.
    ``migration`` rides the certificate hash-covered (see
    :class:`~repro.shard.rebalance.MigrationRecord`).
    """
    reconciled = reconcile_votes(votes, expected)
    ordered = tuple(sorted(reconciled, key=lambda v: (v.tid, v.shard_id)))
    return CommitCertificate(
        block_id=block_id,
        votes=ordered,
        abort_tids=decide(ordered),
        prev_hash=prev_hash,
        migration=migration,
    )


@dataclass
class CertificateLog:
    """Append-only, hash-chained certificate stream (one per global block)."""

    _certs: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self._certs)

    def __getitem__(self, index: int) -> CommitCertificate:
        return self._certs[index]

    @property
    def head_hash(self) -> str:
        return self._certs[-1].hash if self._certs else GENESIS_CERT_HASH

    def append(
        self,
        votes: list[ShardVote],
        block_id: int,
        expected: dict[int, frozenset] | None = None,
        migration: object = None,
    ) -> CommitCertificate:
        cert = make_certificate(block_id, votes, self.head_hash, expected, migration)
        self._certs.append(cert)
        return cert

    def verify_chain(self) -> bool:
        prev = GENESIS_CERT_HASH
        for cert in self._certs:
            if not cert.verify(prev):
                return False
            prev = cert.hash
        return True

    def certificates(self) -> list:
        return list(self._certs)

