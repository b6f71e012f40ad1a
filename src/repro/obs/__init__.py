"""Deterministic tracing for the OE pipelines (the observability layer).

The span stream is a run's one observability record: every traced fact is
a span field, and :func:`det_digest` pins the deterministic part.

- :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span`, the dual-clock
  span stream and its deterministic digest. The tracer builds every span,
  one method per moment of a run; ``chain.tracer = tracer`` arms a chain
  (the hook defaults to ``None``).
- :mod:`repro.obs.export` — JSONL round-trip (:func:`export_jsonl` /
  :func:`load_trace`): a meta header, then the spans.
- :mod:`repro.obs.analyze` — per-stage breakdowns, per-shard skew,
  per-block critical paths, report rendering.
- :mod:`repro.obs.capture` — seeded traced runs and traced fault drills.
- ``python -m repro.obs`` — the trace / report / smoke CLI.
"""

from repro.obs.analyze import (
    block_paths,
    fault_events,
    render_report,
    shard_skew,
    slowest_blocks,
    stage_breakdown,
)
from repro.obs.capture import trace_drill, trace_run
from repro.obs.export import TraceFile, TraceFileError, export_jsonl, load_trace
from repro.obs.trace import (
    Span,
    Tracer,
    det_digest,
    det_events,
)

__all__ = [
    "Span",
    "TraceFile",
    "TraceFileError",
    "Tracer",
    "block_paths",
    "det_digest",
    "det_events",
    "export_jsonl",
    "fault_events",
    "load_trace",
    "render_report",
    "shard_skew",
    "slowest_blocks",
    "stage_breakdown",
    "trace_drill",
    "trace_run",
]
