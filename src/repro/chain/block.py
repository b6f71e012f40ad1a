"""Blocks: hash-chained batches of transactions (Section 4, Security).

Each block embeds the hash of its predecessor, so "any tampered block could
be identified by back-tracing the hash values from the latest block". The
block body is the ordered list of transaction *commands* (OE ships commands;
SOV blocks additionally carry the endorsed read-write sets, which is the
network-size difference Figures 15/16 measure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.crypto import sha256_hex
from repro.txn.transaction import Txn

GENESIS_HASH = "0" * 64


def header_bytes(block_id: int, first_tid: int, prev_hash: str, specs, tids=None) -> bytes:
    """A block header's bytes: a join of the texts the specs carry
    (``TxnSpec.canonical``, derived once per spec) after the block's id,
    first TID and predecessor hash, then a sub-block's global TIDs. The
    ordering service serialises a header once where it cuts the block and
    hashes and signs those bytes; a verifier serialises it again."""
    body = ";".join([spec.canonical for spec in specs])
    header = f"{block_id}|{first_tid}|{prev_hash}|{body}"
    if tids is not None:
        # sub-blocks commit to their global TID assignment too
        header += "|" + ",".join(map(str, tids))
    return header.encode()


@dataclass
class Block:
    """One ordered, hash-chained batch."""

    block_id: int
    specs: tuple
    prev_hash: str
    first_tid: int
    #: SOV only: endorsed runtime transactions travelling with the block
    endorsed_txns: list = field(default_factory=list)
    #: orderer's signature over the header
    signature: str = ""
    hash: str = ""
    #: explicit global TIDs, one per spec — set on per-shard sub-blocks,
    #: whose transactions keep their *global* order position even though
    #: the shard sees only a subset (``None`` = contiguous from first_tid)
    tids: tuple | None = None

    def __post_init__(self) -> None:
        if self.tids is not None and len(self.tids) != len(self.specs):
            raise ValueError(
                f"block {self.block_id}: {len(self.tids)} tids "
                f"for {len(self.specs)} specs"
            )
        if not self.hash:
            self.hash = self.compute_hash()

    def header_bytes(self) -> bytes:
        """The serialised header every hash and signature covers
        (:func:`header_bytes`), read from whatever spec objects the block
        holds *now* — swapping ``specs`` after the fact changes these
        bytes."""
        return header_bytes(self.block_id, self.first_tid, self.prev_hash, self.specs, self.tids)

    def tid_of(self, index: int) -> int:
        return self.tids[index] if self.tids is not None else self.first_tid + index

    def compute_hash(self) -> str:
        return sha256_hex(self.header_bytes())

    def build_txns(self) -> list[Txn]:
        """Instantiate this block's runtime transactions.

        SOV blocks return their endorsed transactions (rw-sets travel with
        the block); OE blocks build fresh records under their global TIDs.
        The single source for live ingestion and recovery replay — the two
        must never instantiate differently, or a recovered replica replays
        different transactions than the live ones executed.
        """
        if self.endorsed_txns:
            return self.endorsed_txns
        return [
            Txn(tid=self.tid_of(i), block_id=self.block_id, spec=spec)
            for i, spec in enumerate(self.specs)
        ]

    @property
    def size(self) -> int:
        return len(self.specs)

    def verify_integrity(
        self, expected_prev_hash: str, header: bytes | None = None
    ) -> bool:
        """Check the hash chain and the block's own digest. ``header`` is
        this block's ``header_bytes()`` when the caller has just serialised
        it (an ingest checks the signature against the same bytes)."""
        if self.prev_hash != expected_prev_hash:
            return False
        return self.hash == sha256_hex(self.header_bytes() if header is None else header)
