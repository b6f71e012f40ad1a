"""Seeded random streams.

Every source of randomness in the repository flows through a
:class:`SeededRng` so that runs are bit-for-bit reproducible. Independent
*streams* (workload generation, endorser staleness, network jitter, ...)
are derived from a root seed and a stream name, so adding a new consumer of
randomness never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
import random


class SeededRng:
    """A named, deterministic random stream derived from a root seed."""

    def __init__(self, seed: int, stream: str = "root") -> None:
        digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
        self._seed = seed
        self._stream = stream
        self._random = rng = random.Random(int.from_bytes(digest[:8], "big"))
        # the hot primitives cost one frame a draw or none: ``random()`` is
        # the bound C method, ``randbelow(n)`` the stdlib's own draw (its
        # one frame) that ``randrange``, ``randint`` and the affinity's
        # ``pick_home`` / ``pick_other`` all reduce to — a uniform int in
        # ``[0, n)``, for ``n >= 1`` only (unchecked: ``n = 0`` never
        # returns). The spec generators bind both once per block.
        self.random = rng.random
        self.randbelow = rng._randbelow

    @property
    def stream(self) -> str:
        return self._stream

    def derive(self, stream: str) -> "SeededRng":
        """Create an independent child stream."""
        return SeededRng(self._seed, f"{self._stream}/{stream}")

    # Thin pass-throughs: one call site per random primitive we rely on
    # (``random`` and ``randbelow`` are bound per instance in ``__init__``).
    def randint(self, a: int, b: int) -> int:
        """``random.Random.randint(a, b)``: the same draw from the same
        stream, without the ``randint`` -> ``randrange`` frames."""
        width = b - a + 1
        if width <= 0:
            raise ValueError(f"empty range for randint({a}, {b})")
        return a + self.randbelow(width)

    def choice(self, seq):
        return self._random.choice(seq)

    def sample(self, seq, k: int):
        return self._random.sample(seq, k)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def uniform(self, a: float, b: float) -> float:
        return self._random.uniform(a, b)

    def expovariate(self, lambd: float) -> float:
        return self._random.expovariate(lambd)
