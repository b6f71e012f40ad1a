"""Zipfian key-popularity generator (YCSB-style).

``theta`` (the paper's "skewness") is the Zipf exponent: 0 is uniform, 1.0
is the heavy skew where a handful of keys absorbs most accesses. Sampling
uses a precomputed CDF and binary search — deterministic given the RNG
stream, O(log n) per draw.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.sim.rng import SeededRng


class ZipfGenerator:
    """Draws ranks in [0, n) with probability proportional to 1/(rank+1)^theta."""

    def __init__(self, n: int, theta: float) -> None:
        if n < 1:
            raise ValueError("need at least one item")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.n = n
        self.theta = theta
        cumulative = 0.0
        self._cdf: list[float] = []
        for rank in range(1, n + 1):
            cumulative += 1.0 / (rank**theta)
            self._cdf.append(cumulative)
        total = self._cdf[-1]
        self._cdf = [c / total for c in self._cdf]

    def sample(self, rng: SeededRng) -> int:
        """One rank draw; rank 0 is the most popular item."""
        u = rng.random()
        return bisect_left(self._cdf, u)

    def sample_distinct(self, rng: SeededRng, k: int) -> list[int]:
        """``k`` distinct ranks (used to avoid self-conflicts within a txn)."""
        if k > self.n:
            raise ValueError("cannot draw more distinct items than exist")
        # :meth:`sample` inline: one bisection per draw, no frame
        cdf, random = self._cdf, rng.random
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < k:
            rank = bisect_left(cdf, random())
            if rank not in seen:
                seen.add(rank)
                out.append(rank)
        return out
