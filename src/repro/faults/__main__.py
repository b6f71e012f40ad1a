"""CLI: run the deterministic fault-drill matrix.

Usage::

    python -m repro.faults                 # full matrix (plans x schemes
                                           # x shard counts)
    python -m repro.faults --smoke         # fast per-PR robustness gate
    python -m repro.faults --seed 97       # re-derive every plan's seed
    python -m repro.faults --schemes harmony,aria --shards 2,4
    python -m repro.faults --list          # print the plan roster and exit

Exit status 0 iff every drill's disturbed run is bit-identical to its
undisturbed reference; failures print the first divergent block.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.faults.drill import (
    DRILL_SCHEMES,
    DRILL_SHARD_COUNTS,
    DRILL_WORKLOADS,
    SMOKE_WORKLOADS,
    drill_matrix,
)
from repro.faults.plan import standard_plans


def _csv(value: str) -> tuple:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="deterministic chaos drills against undisturbed references",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast subset: one scheme, one shard count, one plan per family",
    )
    parser.add_argument(
        "--seed", type=int, default=61, help="root seed for every plan"
    )
    parser.add_argument(
        "--schemes",
        type=_csv,
        default=DRILL_SCHEMES,
        help="comma-separated schemes (default: harmony,aria,rbc)",
    )
    parser.add_argument(
        "--shards",
        type=lambda v: tuple(int(p) for p in _csv(v)),
        default=DRILL_SHARD_COUNTS,
        help="comma-separated shard counts (default: 1,2,4)",
    )
    parser.add_argument(
        "--workloads",
        type=_csv,
        default=None,
        help=(
            f"comma-separated workloads (default: smoke={','.join(SMOKE_WORKLOADS)}; "
            f"full={','.join(DRILL_WORKLOADS)})"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="print the plan roster and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for plan in standard_plans(seed=args.seed):
            events = ", ".join(
                f"{e.kind}@b{e.block_id}/s{e.shard}" for e in plan.events
            )
            print(f"{plan.name:24s} seed={plan.seed}  {events or '(control)'}")
        return 0

    start = time.time()
    ran = failed = 0
    for result in drill_matrix(
        schemes=args.schemes,
        shard_counts=args.shards,
        seed=args.seed,
        smoke=args.smoke,
        workloads=args.workloads,
    ):
        ran += 1
        if result.ok:
            extras = []
            if result.stats.get("retry_rounds"):
                extras.append(f"retries={result.stats['retry_rounds']}")
            if result.stats.get("recoveries"):
                extras.append(f"recoveries={result.stats['recoveries']}")
            suffix = f"  ({', '.join(extras)})" if extras else ""
            print(f"ok   {result.label}{suffix}")
        else:
            failed += 1
            print(f"FAIL {result.label}")
            if result.first_divergent_block is not None:
                print(f"     first divergent block: {result.first_divergent_block}")
            for failure in result.failures:
                print(f"     {failure}")
    elapsed = time.time() - start
    print(
        f"{ran - failed}/{ran} drills bit-identical to reference "
        f"in {elapsed:.1f}s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
