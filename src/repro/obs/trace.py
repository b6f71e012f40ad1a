"""Deterministic structured spans with dual clocks.

A :class:`Tracer` records one :class:`Span` per pipeline event — block,
shard, stage, attempt — carrying **two clocks**:

- ``sim_us`` + ``attrs``: the *deterministic* side, populated only from
  decision-layer quantities (counts, certificate data, NetworkModel
  costs, retry schedules). The ordered stream of these fields — the
  *decision-relevant span stream*, :func:`det_events` — is bit-identical
  across repeated seeded runs, so the trace itself is a correctness
  artifact (:func:`det_digest` pins it).
- ``timing``: annotations — engine-simulated durations, which depend on
  buffer-pool state and not on decisions alone. Spans of kind ``"anno"``
  are excluded from the deterministic stream entirely (the run summary's
  makespan and utilization).

:class:`Tracer` is the one place a span is built: it has one method per
moment of a run (``ordered``, ``prepared``, ``certified``, ...). The chain
holds the one hook, ``ShardedBlockchain.tracer`` (``None`` by default);
each emission site in the block walk and the fault supervisor is one
attribute check and one call, so disabled tracing is zero-cost. Arming a
chain is ``chain.tracer = tracer``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.consensus.crypto import sha256_hex

#: span kinds; ``anno`` spans are excluded from the deterministic stream
KIND_STAGE = "stage"
KIND_EVENT = "event"
KIND_FAULT = "fault"
KIND_ANNO = "anno"


@dataclass
class Span:
    """One traced pipeline event."""

    seq: int
    name: str
    kind: str = KIND_STAGE
    block: int | None = None
    shard: int | None = None
    attempt: int = 0
    #: deterministic simulated duration (NetworkModel/schedule costs)
    sim_us: float = 0.0
    #: deterministic attributes (counts, decisions, hashes)
    attrs: dict = field(default_factory=dict)
    #: annotations outside the deterministic stream (engine sim durations)
    timing: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "name": self.name,
            "kind": self.kind,
            "block": self.block,
            "shard": self.shard,
            "attempt": self.attempt,
            "sim_us": self.sim_us,
            "attrs": self.attrs,
            "timing": self.timing,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            seq=data["seq"],
            name=data["name"],
            kind=data["kind"],
            block=data["block"],
            shard=data["shard"],
            attempt=data["attempt"],
            sim_us=data["sim_us"],
            attrs=dict(data["attrs"]),
            timing=dict(data["timing"]),
        )


def split_rows(abort_split: dict) -> list[list]:
    """A :attr:`~repro.sim.metrics.BlockStats.abort_split` as JSON rows
    ``[reason, shard, aborts, false]``, sorted; ``reason`` is the
    :class:`~repro.txn.transaction.AbortReason` value (``unknown`` for an
    abort that recorded none)."""
    return sorted(
        [reason.value if reason is not None else "unknown", shard, aborts, false]
        for (reason, shard), (aborts, false) in abort_split.items()
    )


def det_events(spans: list[Span]) -> list[dict]:
    """The decision-relevant span stream: every non-anno span's
    deterministic fields, in emission order (``seq`` and ``timing`` are
    deliberately excluded — annotation spans may come and go without
    perturbing this stream)."""
    return [
        {
            "name": s.name,
            "kind": s.kind,
            "block": s.block,
            "shard": s.shard,
            "attempt": s.attempt,
            "sim_us": s.sim_us,
            "attrs": s.attrs,
        }
        for s in spans
        if s.kind != KIND_ANNO
    ]


def det_digest(spans: list[Span]) -> str:
    """SHA-256 over the canonical JSON of :func:`det_events`."""
    payload = json.dumps(det_events(spans), sort_keys=True)
    return sha256_hex(payload.encode())


class Tracer:
    """Collects a run's spans in emission order, and builds each of them.

    A moment method takes what the stage has in hand and writes its spans:
    deterministic fields carry only decision-layer quantities, engine sim
    durations ride in the ``timing`` annotation dict, and per-shard spans
    go out in sorted shard order, independent of dict iteration order.
    """

    def __init__(self, meta: dict | None = None) -> None:
        self.meta = dict(meta or {})
        self.spans: list[Span] = []
        self._seq = 0

    # ------------------------------------------------------------- emission
    def emit(
        self,
        name: str,
        kind: str = KIND_EVENT,
        block: int | None = None,
        shard: int | None = None,
        attempt: int = 0,
        sim_us: float = 0.0,
        attrs: dict | None = None,
        timing: dict | None = None,
    ) -> Span:
        span = Span(
            seq=self._seq,
            name=name,
            kind=kind,
            block=block,
            shard=shard,
            attempt=attempt,
            sim_us=float(sim_us),
            attrs=dict(attrs or {}),
            timing=dict(timing or {}),
        )
        self._seq += 1
        self.spans.append(span)
        return span

    def stage(self, name: str, **kw) -> Span:
        return self.emit(name, kind=KIND_STAGE, **kw)

    def event(self, name: str, **kw) -> Span:
        return self.emit(name, kind=KIND_EVENT, **kw)

    def fault(self, name: str, **kw) -> Span:
        return self.emit(name, kind=KIND_FAULT, **kw)

    def anno(self, name: str, **kw) -> Span:
        return self.emit(name, kind=KIND_ANNO, **kw)

    # ------------------------------------------------------ pipeline moments
    def enqueued(self, block_id: int, retries: int, backlog: int) -> None:
        """A block formed, carrying ``retries`` re-queued transactions."""
        self.event(
            "enqueue", block=block_id, attrs={"retries": retries, "backlog": backlog}
        )

    def migrated(self, record, fates: dict) -> None:
        """A certified ownership change installed; ``fates`` are the
        shipments the armed migration hook skipped or tore."""
        self.event(
            "migrate",
            block=record.block_id,
            attrs={
                "epoch": record.epoch,
                "keys": len(record.moves),
                "shipped": len(record.deltas),
                "reason": record.reason,
            },
        )
        if fates:
            self.fault(
                "migration_fault",
                block=record.block_id,
                attrs={"fates": {s: fates[s] for s in sorted(fates)}},
            )

    def ordered(self, outcome) -> None:
        """A global block routed and split into its sub-blocks."""
        sub_blocks = outcome.sub_blocks
        self.event(
            "order",
            block=outcome.block_id,
            attrs={
                "size": outcome.block.size,
                "cross": len(outcome.expected),
                "sub_sizes": [sub_blocks[s].size for s in sorted(sub_blocks)],
            },
        )

    def prepared(self, block_id: int, fresh: dict, attempt: int) -> None:
        """The shards of ``fresh`` (shard -> PreparedBlock) prepared in vote
        round ``attempt``."""
        for shard in sorted(fresh):
            prep = fresh[shard]
            self.stage(
                "prepare",
                block=block_id,
                shard=shard,
                attempt=attempt,
                attrs={"txns": len(prep.txns)},
                timing={"sim_us": sum(prep.sim_durations_us)},
            )

    def certified(self, cert) -> None:
        """A commit certificate appended to the certificate stream."""
        attrs = {
            "votes": len(cert.votes),
            "aborts": len(cert.abort_tids),
            "timeout_vetoes": sum(1 for v in cert.votes if v.reason == "vote-timeout"),
            "head": cert.hash[:16],
        }
        if cert.migration is not None:
            attrs["migration_epoch"] = cert.migration.epoch
            attrs["migration_keys"] = len(cert.migration.moves)
        self.event("certify", block=cert.block_id, attrs=attrs)

    def checkpointed(self, shard: int, block_id: int, manager) -> None:
        """What ``manager`` (a :class:`~repro.storage.checkpoint.CheckpointManager`)
        wrote at ``block_id``, if the block was a checkpoint boundary: a
        fault directive, then the delta unless the directive skipped it."""
        last = manager.last_write
        if last is None or last[0] != block_id:
            return
        _, directive, blocks, writes, compacted = last
        if directive is not None:
            self.fault(
                "checkpoint_fault",
                block=block_id,
                shard=shard,
                attrs={"mode": "delta", "directive": directive},
            )
        if directive != "skip":
            self.event(
                "checkpoint",
                block=block_id,
                shard=shard,
                attrs={
                    "mode": "delta",
                    "blocks": blocks,
                    "writes": writes,
                    "compacted": compacted,
                },
            )

    def committed(self, block_id: int, executions: dict) -> None:
        """The shards of ``executions`` (shard -> BlockExecution) applied
        the certified block."""
        for shard, execution in executions.items():
            stats = execution.stats
            self.stage(
                "commit",
                block=block_id,
                shard=shard,
                attrs={"committed": stats.committed, "aborted": stats.aborted},
                timing={
                    "sim_us": sum(execution.commit_durations_us)
                    + execution.post_commit_serial_us
                },
            )

    def decided(self, outcome, stats, votes: dict, remote_round_us: float) -> None:
        """A committed block folded into the run's accounts: its decision
        counts (``stats``, a BlockStats) and, per shard that held
        cross-shard transactions, ``votes[shard] = (cross txns, vote
        exchange us)``. The block's false-abort split rides as an
        annotation, ``[reason, shard, aborts, false]`` rows: counts the
        span stream's pinned digest predates."""
        block_id = outcome.block_id
        self.event(
            "decide",
            block=block_id,
            attrs={
                "committed": stats.committed,
                "aborted": stats.aborted,
                "false_aborts": stats.false_aborts,
            },
            timing={"abort_split": split_rows(stats.abort_split)},
        )
        for shard in sorted(votes):
            cross_here, vote_us = votes[shard]
            self.stage(
                "vote_exchange",
                block=block_id,
                shard=shard,
                sim_us=vote_us,
                attrs={
                    "cross": cross_here,
                    "remote_read_us": cross_here * remote_round_us,
                },
            )

    def run_ended(self, metrics, veto_reasons: dict) -> None:
        """The run's totals; the modeled makespan and the certificate
        stream's veto reasons (``ShardedBlockchain.cross_shard_abort_reasons``)
        ride as annotations."""
        extra = metrics.extra
        self.event(
            "run_end",
            attrs={
                "blocks": metrics.blocks,
                "committed": metrics.committed,
                "aborted": metrics.aborted,
                "decision_digest": extra["decision_digest"][:16],
                "cert_head": extra["cert_head"][:16],
            },
        )
        self.anno(
            "run_summary",
            timing={
                "makespan_us": metrics.sim_time_us,
                "cpu_utilization": metrics.cpu_utilization,
                "veto_reasons": dict(sorted(veto_reasons.items())),
            },
        )

    # ---------------------------------------------------- supervisor moments
    def crashed(self, block_id: int, shards, window: str) -> None:
        """``shards`` marked dead from ``window`` of block ``block_id`` on."""
        for shard in sorted(shards):
            self.fault("crash", block=block_id, shard=shard, attrs={"window": window})

    def vote_retried(
        self, block_id: int, attempt: int, sim_us: float, missing: int
    ) -> None:
        """Vote round ``attempt`` retransmitted after a backoff."""
        self.fault(
            "vote_retry",
            block=block_id,
            attempt=attempt,
            sim_us=sim_us,
            attrs={"missing": missing},
        )

    def degraded(self, block_id: int, attempt: int, missing: int) -> None:
        """Retries exhausted: ``missing`` votes become timeout vetoes."""
        self.fault(
            "degraded", block=block_id, attempt=attempt, attrs={"missing": missing}
        )

    def recovered(self, block_id: int, shard: int, sim_us: float, replayed: int) -> None:
        """A shard rebuilt from its durable artifacts and re-joined."""
        self.fault(
            "recovery",
            block=block_id,
            shard=shard,
            sim_us=sim_us,
            attrs={"replayed": replayed},
        )

    def recovery_failed(self, block_id: int, shard: int, sim_us: float) -> None:
        """A recovery attempt that itself crashed."""
        self.fault("recovery_failed", block=block_id, shard=shard, sim_us=sim_us)

    def caught_up(self, shard: int, sim_us: float, from_block: int, blocks: int) -> None:
        """A shard replayed ``blocks`` certified sub-blocks from ``from_block``."""
        self.fault(
            "catch_up",
            shard=shard,
            sim_us=sim_us,
            attrs={"from_block": from_block, "blocks": blocks},
        )

    # ---------------------------------------------------------- determinism
    def det_events(self) -> list[dict]:
        return det_events(self.spans)

    def det_digest(self) -> str:
        return det_digest(self.spans)
