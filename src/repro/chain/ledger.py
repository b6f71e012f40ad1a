"""The replicated ledger: an append-only chain of verified blocks."""

from __future__ import annotations

from repro.chain.block import GENESIS_HASH, Block


class TamperError(Exception):
    """A block failed hash-chain verification."""


class Ledger:
    """Append-only block store with tamper detection."""

    def __init__(self) -> None:
        self._blocks: list[Block] = []

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, index: int) -> Block:
        return self._blocks[index]

    @property
    def head_hash(self) -> str:
        return self._blocks[-1].hash if self._blocks else GENESIS_HASH

    @property
    def height(self) -> int:
        return len(self._blocks)

    def append(self, block: Block, header: bytes | None = None) -> None:
        """Verify and append; ``header`` is the block's ``header_bytes()``
        when the caller has just serialised it (signature check)."""
        if not block.verify_integrity(self.head_hash, header):
            raise TamperError(f"block {block.block_id} fails chain verification")
        self._blocks.append(block)

    def verify_chain(self) -> bool:
        """Back-trace the hash chain from genesis; False on any tampering."""
        prev = GENESIS_HASH
        for block in self._blocks:
            if not block.verify_integrity(prev):
                return False
            prev = block.hash
        return True

    def blocks(self) -> list[Block]:
        return list(self._blocks)
