"""Trace analysis: per-stage breakdowns, per-shard skew, critical paths.

Pure functions over a list of :class:`~repro.obs.trace.Span` (live or
loaded from JSONL), plus plain-text renderers for the
``python -m repro.obs report`` CLI. Span durations prefer the engine's
simulated-time annotation (``timing["sim_us"]``) and fall back to the
deterministic ``sim_us`` clock, so breakdowns work on both clocks.
"""

from __future__ import annotations

from repro.obs.trace import KIND_ANNO, KIND_EVENT, KIND_FAULT, Span


def span_us(span: Span) -> float:
    """One span's duration: simulated-annotation first, det clock second."""
    return float(span.timing.get("sim_us", 0.0)) + span.sim_us


def stage_breakdown(spans: list[Span]) -> dict[str, dict]:
    """Per stage name: event count and total simulated time."""
    out: dict[str, dict] = {}
    for span in spans:
        if span.kind == KIND_ANNO:
            continue
        entry = out.setdefault(span.name, {"count": 0, "sim_us": 0.0})
        entry["count"] += 1
        entry["sim_us"] += span_us(span)
    total = sum(e["sim_us"] for e in out.values())
    for entry in out.values():
        entry["share"] = entry["sim_us"] / total if total > 0 else 0.0
    return out


def shard_skew(spans: list[Span]) -> dict[int, dict]:
    """Per-shard load: busy simulated time, txns committed/aborted, and
    the ``skew`` ratio (busy / mean busy) — the adaptive-sharding input.

    Degenerate traces (no busy time anywhere, a single shard, or no
    sharded spans at all) report a skew of exactly ``1.0`` — a perfectly
    balanced fleet, not a division-by-zero artifact. A rebalance policy
    reading 0.0 would see "infinitely under-loaded" and could flap."""
    out: dict[int, dict] = {}
    for span in spans:
        if span.shard is None or span.kind == KIND_ANNO:
            continue
        entry = out.setdefault(
            span.shard,
            {"busy_us": 0.0, "committed": 0, "aborted": 0, "spans": 0},
        )
        entry["busy_us"] += span_us(span)
        entry["spans"] += 1
        if span.name == "commit":
            entry["committed"] += span.attrs.get("committed", 0)
            entry["aborted"] += span.attrs.get("aborted", 0)
    if out:
        mean_busy = sum(e["busy_us"] for e in out.values()) / len(out)
        for entry in out.values():
            entry["skew"] = (
                entry["busy_us"] / mean_busy if mean_busy > 0 else 1.0
            )
    return out


def block_paths(spans: list[Span]) -> dict[int, dict]:
    """Per block: the critical (slowest) shard lane and the block's time.

    A block's time is its slowest per-shard lane (prepare + commit run
    per shard in parallel lanes) plus every unsharded span charged to the
    block (vote exchange costs, supervision backoff). Fault spans are
    counted so renderers can annotate disturbed blocks.
    """
    out: dict[int, dict] = {}
    for span in spans:
        if span.block is None or span.kind == KIND_ANNO:
            continue
        entry = out.setdefault(
            span.block,
            {"lanes": {}, "serial_us": 0.0, "faults": 0, "fault_names": []},
        )
        if span.kind == KIND_FAULT:
            entry["faults"] += 1
            if span.name not in entry["fault_names"]:
                entry["fault_names"].append(span.name)
        if span.shard is None:
            entry["serial_us"] += span_us(span)
        else:
            lane = entry["lanes"].setdefault(span.shard, 0.0)
            entry["lanes"][span.shard] = lane + span_us(span)
    for entry in out.values():
        lanes = entry["lanes"]
        if lanes:
            critical = max(sorted(lanes), key=lambda s: lanes[s])
            entry["critical_shard"] = critical
            entry["total_us"] = lanes[critical] + entry["serial_us"]
        else:
            entry["critical_shard"] = None
            entry["total_us"] = entry["serial_us"]
    return out


def slowest_blocks(spans: list[Span], top: int = 5) -> list[tuple[int, dict]]:
    """The ``top`` slowest blocks, by critical-path time, slowest first."""
    paths = block_paths(spans)
    ranked = sorted(paths.items(), key=lambda kv: (-kv[1]["total_us"], kv[0]))
    return ranked[:top]


def fault_events(spans: list[Span]) -> list[Span]:
    return [s for s in spans if s.kind == KIND_FAULT]


def abort_reasons(spans: list[Span]) -> dict[tuple[str, int], list[int]]:
    """``(reason, shard) -> [aborts, false aborts]`` summed over the
    ``decide`` spans' split (a transaction counts at its coordinator shard)."""
    out: dict[tuple[str, int], list[int]] = {}
    for span in spans:
        if span.name != "decide":
            continue
        for reason, shard, aborts, false in span.timing.get("abort_split", ()):
            entry = out.setdefault((reason, shard), [0, 0])
            entry[0] += aborts
            entry[1] += false
    return out


def veto_reasons(spans: list[Span]) -> dict[str, int]:
    """Why participants vetoed cross-shard transactions (the run summary's
    certificate-stream histogram; empty for a trace without one)."""
    for span in spans:
        if span.name == "run_summary":
            return dict(span.timing.get("veto_reasons", {}))
    return {}


# ------------------------------------------------------------- rendering
def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_report(spans: list[Span], meta: dict | None = None, top: int = 5) -> str:
    """The full plain-text report: breakdown, skew, abort reasons, slowest
    blocks, faults."""
    sections: list[str] = []
    if meta:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        sections.append(f"trace: {pairs}")

    breakdown = stage_breakdown(spans)
    rows = [
        [
            name,
            str(entry["count"]),
            f"{entry['sim_us'] / 1000.0:.3f}",
            f"{entry['share'] * 100.0:.1f}%",
        ]
        for name, entry in sorted(
            breakdown.items(), key=lambda kv: -kv[1]["sim_us"]
        )
    ]
    sections.append(
        "per-stage breakdown (simulated time)\n"
        + _table(["stage", "spans", "ms", "share"], rows)
    )

    skew = shard_skew(spans)
    if skew:
        rows = [
            [
                str(shard),
                f"{entry['busy_us'] / 1000.0:.3f}",
                str(entry["committed"]),
                str(entry["aborted"]),
                f"{entry['skew']:.2f}x",
            ]
            for shard, entry in sorted(skew.items())
        ]
        sections.append(
            "per-shard load skew\n"
            + _table(["shard", "busy ms", "committed", "aborted", "skew"], rows)
        )

    migrations = [
        s for s in spans if s.kind == KIND_EVENT and s.name == "migrate"
    ]
    if migrations:
        rows = [
            [
                str(s.block) if s.block is not None else "-",
                str(s.attrs.get("epoch", "-")),
                str(s.attrs.get("keys", "-")),
                str(s.attrs.get("shipped", "-")),
                str(s.attrs.get("reason", "-")),
            ]
            for s in migrations
        ]
        sections.append(
            "ownership migrations (live re-keying)\n"
            + _table(["block", "epoch", "keys", "shipped", "reason"], rows)
        )

    reasons = abort_reasons(spans)
    if reasons:
        scheme = str((meta or {}).get("scheme", "-"))
        rows = [
            [
                reason,
                scheme,
                str(shard),
                str(aborts),
                str(false),
                f"{false / aborts * 100.0:.1f}%",
            ]
            for (reason, shard), (aborts, false) in sorted(reasons.items())
        ]
        section = "aborts by reason (false: a perfect scheduler avoids it)\n" + _table(
            ["reason", "scheme", "shard", "aborts", "false", "false share"], rows
        )
        vetoes = veto_reasons(spans)
        if vetoes:
            section += "\ncross-shard vetoes by the voter's reason: " + ", ".join(
                f"{reason}={count}" for reason, count in sorted(vetoes.items())
            )
        sections.append(section)
    else:
        sections.append("aborts by reason: none")

    ranked = slowest_blocks(spans, top)
    if ranked:
        rows = []
        for block, entry in ranked:
            marker = (
                f"FAULT({','.join(entry['fault_names'])})" if entry["faults"] else ""
            )
            rows.append(
                [
                    str(block),
                    f"{entry['total_us'] / 1000.0:.3f}",
                    str(entry["critical_shard"])
                    if entry["critical_shard"] is not None
                    else "-",
                    marker,
                ]
            )
        sections.append(
            f"top-{top} slowest blocks (critical path)\n"
            + _table(["block", "ms", "critical shard", "faults"], rows)
        )

    faults = fault_events(spans)
    if faults:
        rows = [
            [
                str(s.block) if s.block is not None else "-",
                str(s.shard) if s.shard is not None else "-",
                s.name,
                str(s.attempt),
                f"{s.sim_us / 1000.0:.3f}",
                ", ".join(f"{k}={v}" for k, v in sorted(s.attrs.items())),
            ]
            for s in faults
        ]
        sections.append(
            "injected fault events\n"
            + _table(["block", "shard", "event", "attempt", "ms", "detail"], rows)
        )
    else:
        sections.append("injected fault events: none")
    return "\n\n".join(sections)
