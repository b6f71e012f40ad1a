"""HotStuff BFT consensus (Yin et al., PODC 2019) — analytic model.

Three chained phases (prepare / pre-commit / commit), linear message
complexity, and pipelining: each new block piggybacks the quorum
certificate of its predecessor, so at steady state one block completes per
*round*, while an individual block's end-to-end latency spans three rounds.

What Figures 17/18 exercise:

- **throughput** is bounded by the leader's per-round work — verifying
  ``n`` vote signatures, signing, hashing the batch — NOT by the WAN
  round-trip (rounds pipeline), so geo-distribution barely moves it;
- **latency** is three round-trips, so crossing continents multiplies it.

Figure 1's point — consensus outruns a disk DB layer by an order of
magnitude — falls out of the same model at 80 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.network import NetworkModel
from repro.sim.costs import CostModel


@dataclass
class HotStuffConsensus:
    """Analytic model of pipelined (chained) HotStuff."""

    network: NetworkModel
    costs: CostModel
    num_nodes: int
    #: a protocol parameter, not a calibration: consensus batches are
    #: larger than database blocks and the ordering service re-cuts them
    #: (the paper tunes block size per system)
    batch_size: int = 1000

    @property
    def quorum(self) -> int:
        return 2 * ((self.num_nodes - 1) // 3) + 1

    def leader_round_cpu_us(self) -> float:
        """Per-round leader work: verify a quorum of votes, sign, hash."""
        verify_votes = self.quorum * self.costs.verify_us
        sign = self.costs.sign_us
        # Merkle-ish, amortized over the batch
        batch_hash = self.batch_size * self.costs.hash_us * self.costs.batch_hash_share
        return verify_votes + sign + batch_hash

    def round_interval_us(self) -> float:
        """Steady-state spacing between consecutive committed batches."""
        cpu = self.leader_round_cpu_us()
        # hash-based dissemination: payloads sync off the critical path
        proposal_bytes = self.batch_size * self.costs.proposal_bytes_per_txn
        serialization = self.network.broadcast_us(proposal_bytes, self.num_nodes - 1)
        return max(cpu, serialization)

    def throughput_tps(self) -> float:
        interval = self.round_interval_us()
        return self.batch_size / (interval / 1e6)

    def block_latency_us(self, block_bytes: int = 0, num_replicas: int = 0) -> float:
        """Three phases, each a leader<->replicas round trip. Takes
        :class:`~repro.consensus.kafka.KafkaOrdering`'s parameters and
        ignores them: a BFT round depends on neither."""
        round_trip = self.network.rtt_us(self.num_nodes)
        per_phase = round_trip + self.costs.sign_us + self.costs.verify_us
        return 3.0 * per_phase + self.leader_round_cpu_us()

    def min_block_interval_us(self, block_bytes: int, num_replicas: int) -> float:
        """Interval scaled from consensus batches down to database blocks."""
        per_txn_us = self.round_interval_us() / self.batch_size
        block_txns = max(1, block_bytes // self.costs.command_bytes)
        return per_txn_us * block_txns
