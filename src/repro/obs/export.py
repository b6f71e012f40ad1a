"""JSONL trace files: one meta header, then one line per span. The format
round-trips exactly (``export_jsonl`` then ``load_trace`` reproduces the
spans and the deterministic digest), so an exported trace is as strong a
correctness artifact as the live tracer — the span stream is the run's one
observability record."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.trace import Span, Tracer, det_digest, det_events

SCHEMA_VERSION = 2


@dataclass
class TraceFile:
    """A loaded JSONL trace (always of schema :data:`SCHEMA_VERSION`)."""

    meta: dict
    det_digest: str
    spans: list[Span] = field(default_factory=list)

    def det_events(self) -> list[dict]:
        return det_events(self.spans)

    def verify_digest(self) -> bool:
        """Recompute the deterministic digest from the loaded spans."""
        return det_digest(self.spans) == self.det_digest


def export_jsonl(tracer: Tracer, path: str) -> None:
    """Write the trace as JSONL: meta header, then the spans."""
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


class TraceFileError(ValueError):
    """A JSONL trace file is damaged — truncated, spliced, edited, of
    another schema or not a trace at all. :func:`load_trace` raises it
    instead of returning what it could read."""


def load_trace(path: str) -> TraceFile:
    """Parse a JSONL trace back into its spans.

    The file must be exactly what :func:`export_jsonl` writes: one meta
    header of schema :data:`SCHEMA_VERSION` first, then the number of spans
    the header records. Anything else raises :class:`TraceFileError`; a
    partial :class:`TraceFile` is never returned.
    """
    header = None
    spans: list[Span] = []
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
            if kind not in ("meta", "span"):
                raise TraceFileError(f"{where}: unknown trace record type {kind!r}")
            if (kind == "meta") != (header is None):
                what = "no meta header" if header is None else "repeated meta header"
                raise TraceFileError(f"{where}: {what}")
            try:
                if kind == "meta":
                    header = {
                        key: record[key]
                        for key in ("meta", "schema", "det_digest", "spans")
                    }
                else:
                    spans.append(Span.from_dict(record))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise TraceFileError(f"{where}: malformed {kind} record") from exc
            if kind == "meta" and header["schema"] != SCHEMA_VERSION:
                raise TraceFileError(
                    f"{where}: trace schema {header['schema']!r}, "
                    f"this loader reads schema {SCHEMA_VERSION}"
                )
    if header is None:
        raise TraceFileError(f"{path}: no meta header")
    if len(spans) != header["spans"]:
        raise TraceFileError(
            f"{path}: header records {header['spans']} spans, file holds {len(spans)}"
        )
    return TraceFile(
        meta=header["meta"],
        det_digest=header["det_digest"],
        spans=spans,
    )
