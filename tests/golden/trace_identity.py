"""Golden record of the span stream and of supervision accounting.

``driver_identity`` pins what a run *decides*; this pins what it *emits*:
the deterministic span digest (``det_digest``, the "Identity" rule's fourth
item) and the span-name counts of traced ``run()``s, and — for each of the
24 smoke drills — the supervisor's ``stats`` next to its span stream.
Recorded at the commit *before* the block walk became four stage methods
on ``ShardedBlockchain`` with the fault supervisor as one of their
schedules, so "spans may be emitted from a different place, not in a
different order" stays a checked claim: ``tests/test_trace_identity.py``
replays every case and compares exactly.

One stated exception, built into the record: a supervised walk at that
commit never passed through the code that emits the ``order`` event, and
the one walk does. A drill's digest and counts are therefore taken over
its stream *without* ``order`` events — the record holds at both commits —
and the test file asserts their presence on its own.

The record has since changed by deletion only: PR 23 removed the
process-pool prepare medium and the pipelined live schedule, and with them
the two pool runs and the ``backend`` / ``pipelined`` keys of the others;
no digest or count was re-recorded.

Regenerate (only when a change is *meant* to move the span stream) with::

    PYTHONPATH=src python tests/golden/trace_identity.py

The record must not depend on the interpreter's hash seed::

    PYTHONHASHSEED=1 PYTHONPATH=src python tests/golden/trace_identity.py --check
    PYTHONHASHSEED=2 PYTHONPATH=src python tests/golden/trace_identity.py --check
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from repro.faults.drill import SMOKE_PLAN_NAMES, SMOKE_WORKLOADS, run_drill
from repro.faults.plan import standard_plans
from repro.obs.trace import Tracer, det_digest

try:
    from golden.driver_identity import cases as driver_cases
except ModuleNotFoundError:  # run as a script: tests/golden is sys.path[0]
    from driver_identity import cases as driver_cases

GOLDEN_PATH = Path(__file__).with_name("trace_identity.json")

#: the drill matrix's smoke shape (``drill_matrix(smoke=True)``)
DRILL = dict(scheme="harmony", num_shards=2, num_blocks=8, block_size=8)
DRILL_SEED = 61


def run_cases() -> dict:
    """``case id -> (build chain)`` of the traced ``run()``s: a fixed
    subset of the driver-identity cases."""
    driver = driver_cases()
    out = {
        f"run/conformance/{name}/{system}/{shards}shard": driver[
            f"conformance/{name}/{system}/{shards}shard"
        ]
        for name in ("smallbank", "tpcc")
        for system in ("harmony", "aria")
        for shards in (1, 2, 4)
    }
    for shards in (2, 4):
        case = f"adaptive/adv-skewshift/harmony/{shards}shard"
        out[f"run/{case}"] = driver[case]
    return out


def drill_cases() -> dict:
    """``case id -> (workload, plan)`` of the 24 smoke drills."""
    plans = [
        plan
        for plan in standard_plans(
            DRILL["num_blocks"], DRILL["num_shards"], DRILL_SEED
        )
        if plan.name in SMOKE_PLAN_NAMES
    ]
    return {
        f"drill/{workload}/{plan.name}": (workload, plan)
        for workload in SMOKE_WORKLOADS
        for plan in plans
    }


def span_counts(spans) -> dict:
    return dict(sorted(Counter(span.name for span in spans).items()))


def observe_run(build) -> dict:
    """One traced ``run()``: the deterministic digest and every span
    name's count."""
    chain = build()
    chain.tracer = tracer = Tracer()
    chain.run()
    return {
        "det_digest": tracer.det_digest(),
        "span_counts": span_counts(tracer.spans),
    }


def traced_drill(workload: str, plan):
    """One smoke drill with a tracer on the disturbed chain."""
    tracer = Tracer()
    result = run_drill(plan=plan, workload=workload, tracer=tracer, **DRILL)
    return tracer, result


def observe_drill(tracer, result) -> dict:
    """One traced smoke drill (:func:`traced_drill`): the verdict, the
    supervisor's accounting and the span stream with the ``order`` events
    left out (see the module docstring)."""
    spans = [span for span in tracer.spans if span.name != "order"]
    return {
        "ok": result.ok,
        "stats": result.stats,
        "det_digest_without_order": det_digest(spans),
        "span_counts_without_order": span_counts(spans),
    }


def record() -> dict:
    recorded = {case: observe_run(build) for case, build in run_cases().items()}
    for case, (workload, plan) in drill_cases().items():
        recorded[case] = observe_drill(*traced_drill(workload, plan))
    return recorded


def main(argv: list[str]) -> int:
    recorded = record()
    if "--check" in argv:
        golden = json.loads(GOLDEN_PATH.read_text())
        bad = [
            case
            for case in sorted(set(golden) | set(recorded))
            if golden.get(case) != recorded.get(case)
        ]
        print(f"{len(recorded)} cases, {len(bad)} differ from {GOLDEN_PATH.name}")
        for case in bad:
            print("  ", case)
        return 1 if bad else 0
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
