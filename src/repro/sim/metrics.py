"""Result containers shared by the systems and the bench harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def percentile(values: list[float], q: float) -> float:
    """Exact nearest-rank percentile: rank ``ceil(q/100 * N)``, 1-indexed.

    ``q`` outside ``[0, 100]`` raises rather than silently clamping; q=0
    is the minimum (the formula's rank-0 corner) and q=100 the maximum.
    An empty sample returns 0.0.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(0, min(len(ordered), rank) - 1)]


@dataclass
class BlockStats:
    """Per-block protocol outcome (decision layer, not timing)."""

    block_id: int
    committed: int = 0
    aborted: int = 0
    false_aborts: int = 0
    dangerous_structure_hits: int = 0
    #: ``(AbortReason, coordinator shard) -> [aborts, false aborts]``
    #: (:meth:`~repro.dcc.oracle.SerializabilityOracle.count_false_aborts`);
    #: its false counts sum to ``false_aborts``
    abort_split: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.committed + self.aborted


@dataclass
class RunMetrics:
    """End-to-end outcome of a system run over many blocks."""

    system: str
    workload: str
    committed: int = 0
    aborted: int = 0
    false_aborts: int = 0
    sim_time_us: float = 0.0
    latencies_us: list[float] = field(default_factory=list)
    cpu_utilization: float = 0.0
    io_reads: int = 0
    io_writes: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    dangerous_structure_hits: int = 0
    blocks: int = 0
    #: the run's :attr:`BlockStats.abort_split`, summed over its blocks
    abort_split: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    #: block ids already folded in — the double-merge guard
    _seen_blocks: set = field(default_factory=set, repr=False, compare=False)

    @property
    def throughput_tps(self) -> float:
        if self.sim_time_us <= 0:
            return 0.0
        return self.committed / (self.sim_time_us / 1e6)

    @property
    def abort_rate(self) -> float:
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0

    @property
    def false_abort_rate(self) -> float:
        total = self.committed + self.aborted
        return self.false_aborts / total if total else 0.0

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_us:
            return 0.0
        return sum(self.latencies_us) / len(self.latencies_us) / 1000.0

    @property
    def p50_latency_ms(self) -> float:
        return percentile(self.latencies_us, 50) / 1000.0

    @property
    def p95_latency_ms(self) -> float:
        return percentile(self.latencies_us, 95) / 1000.0

    @property
    def p99_latency_ms(self) -> float:
        return percentile(self.latencies_us, 99) / 1000.0

    @property
    def p999_latency_ms(self) -> float:
        return percentile(self.latencies_us, 99.9) / 1000.0

    @property
    def dangerous_structure_rate(self) -> float:
        total = self.committed + self.aborted
        return self.dangerous_structure_hits / total if total else 0.0

    def merge_block(self, stats: BlockStats) -> None:
        """Fold one block's outcome into the run totals.

        Every sharded merge path must fold each global block exactly once
        (the merged coordinator view already aggregates the shards), so a
        repeated ``block_id`` raises.
        """
        if stats.block_id in self._seen_blocks:
            raise ValueError(
                f"block {stats.block_id} already merged into this RunMetrics"
            )
        self._seen_blocks.add(stats.block_id)
        self.committed += stats.committed
        self.aborted += stats.aborted
        self.false_aborts += stats.false_aborts
        for key, (aborts, false) in stats.abort_split.items():
            entry = self.abort_split.setdefault(key, [0, 0])
            entry[0] += aborts
            entry[1] += false
        self.dangerous_structure_hits += stats.dangerous_structure_hits
        self.blocks += 1
