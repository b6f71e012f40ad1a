"""JSONL trace files: one meta header, one line per span, one metrics
tail. The format round-trips exactly (``export_jsonl`` then
``load_trace`` reproduces the spans, the metrics registry, and the
deterministic digest), so an exported trace is as strong a correctness
artifact as the live tracer."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer, det_digest, det_events

SCHEMA_VERSION = 1


@dataclass
class TraceFile:
    """A loaded JSONL trace."""

    meta: dict
    schema: int
    det_digest: str
    spans: list[Span] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def det_events(self) -> list[dict]:
        return det_events(self.spans)

    def verify_digest(self) -> bool:
        """Recompute the deterministic digest from the loaded spans."""
        return det_digest(self.spans) == self.det_digest


def export_jsonl(tracer: Tracer, path: str) -> None:
    """Write the trace as JSONL: meta header, spans, metrics tail."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "meta": tracer.meta,
            "det_digest": tracer.det_digest(),
            "spans": len(tracer.spans),
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for span in tracer.spans:
            fh.write(
                json.dumps({"type": "span", **span.to_dict()}, sort_keys=True)
                + "\n"
            )
        fh.write(
            json.dumps(
                {"type": "metrics", "metrics": tracer.metrics.to_dict()},
                sort_keys=True,
            )
            + "\n"
        )


class TraceFileError(ValueError):
    """A JSONL trace file is damaged — truncated, spliced, edited or not a
    trace at all. :func:`load_trace` raises it instead of returning what
    it could read."""


def load_trace(path: str) -> TraceFile:
    """Parse a JSONL trace back into spans + metrics.

    The file must be exactly what :func:`export_jsonl` writes: one meta
    header first, the number of spans the header records, one metrics tail
    last. Anything else raises :class:`TraceFileError`; a partial
    :class:`TraceFile` is never returned.
    """
    header = None
    spans: list[Span] = []
    metrics = None
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{number}"
            try:
                record = json.loads(line)
                kind = record["type"]
            except (ValueError, KeyError, TypeError) as exc:
                raise TraceFileError(f"{where}: undecodable line") from exc
            if kind not in ("meta", "span", "metrics"):
                raise TraceFileError(f"{where}: unknown trace record type {kind!r}")
            if (kind == "meta") != (header is None):
                what = "no meta header" if header is None else "repeated meta header"
                raise TraceFileError(f"{where}: {what}")
            if metrics is not None:
                raise TraceFileError(f"{where}: record after the metrics tail")
            try:
                if kind == "meta":
                    header = {
                        key: record[key]
                        for key in ("meta", "schema", "det_digest", "spans")
                    }
                elif kind == "span":
                    spans.append(Span.from_dict(record))
                else:
                    metrics = MetricsRegistry.from_dict(record["metrics"])
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise TraceFileError(f"{where}: malformed {kind} record") from exc
    if header is None:
        raise TraceFileError(f"{path}: no meta header")
    if len(spans) != header["spans"]:
        raise TraceFileError(
            f"{path}: header records {header['spans']} spans, file holds {len(spans)}"
        )
    if metrics is None:
        raise TraceFileError(f"{path}: no metrics tail")
    return TraceFile(
        meta=header["meta"],
        schema=header["schema"],
        det_digest=header["det_digest"],
        spans=spans,
        metrics=metrics,
    )
