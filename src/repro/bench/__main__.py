"""CLI: regenerate any table/figure of the paper, or run the perf harness.

Usage::

    python -m repro.bench figure7 figure8     # specific experiments
    python -m repro.bench shard_scaling       # a sharded scale-out scenario
    python -m repro.bench all                 # the whole evaluation
    REPRO_FULL=1 python -m repro.bench all    # longer, steadier runs
    python -m repro.bench --perf [out.json]   # micro ledger: run every case,
                                              # append the run to the ledger;
                                              # exit 1 if any check is false
    python -m repro.bench --perf-smoke [out.json]  # same in seconds; recorded
                                              # only when out.json (or
                                              # $REPRO_BENCH_OUT) is given

``--check`` is accepted after ``--perf`` / ``--perf-smoke`` (the Makefile
and CI spell it) and changes nothing: every run gates on its checks. The
experiments' claims are checked by ``make figures`` (``tests/test_figures.py``).
"""

from __future__ import annotations

import sys
import time

from repro.bench.experiments import EXPERIMENTS
from repro.bench.report import render


def main(argv: list[str]) -> int:
    if argv and argv[0] in {"--perf", "--perf-smoke"}:
        from repro.bench.perf import failed_checks, render_perf, run_perf

        paths = [a for a in argv[1:] if a != "--check"]
        start = time.time()
        run = run_perf(
            smoke=argv[0] == "--perf-smoke",
            out_path=paths[0] if paths else None,
        )
        print(render_perf(run))
        print(f"  ({time.time() - start:.1f}s)")
        failed = failed_checks(run["cases"])
        for line in failed:
            print(f"  FAILED: {line}")
        return 1 if failed else 0

    names = argv or ["all"]
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {sorted(EXPERIMENTS)}")
        return 2
    for name in names:
        start = time.time()
        result = EXPERIMENTS[name]()
        print(render(result))
        print(f"  ({time.time() - start:.1f}s)\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
