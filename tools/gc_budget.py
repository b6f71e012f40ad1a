"""What the cyclic collector costs one end-to-end workload, and what a run
keeps in memory.

    python3 tools/gc_budget.py --workload ycsb_hotspot [--seed 7]

builds the workload the way the benchmark does (``benchmarks/e2e``'s
``e2e_harness.build``, imported, after the harness's smoke-sized warm-up
and a full collection), hooks ``gc.callbacks`` around one ``run()`` and one
``consistency_check()``, and prints per section and generation: how many
collections ran, the CPU seconds they took, how many objects they freed,
and their share of the section's CPU seconds. Both sections run paused
(``repro.collector``), so on a calm revision every row reads 0: the settle
on leaving a paused section ages the survivors with ``gc.freeze()`` +
``gc.unfreeze()`` and runs no collection. A collection the program asks for
itself (the settle's one ``gc.collect(1)`` when the caller holds frozen
objects, or an older revision's settle) is counted like any other.

Then the retention table: a second build of the same seed, traced by the
standard library's ``tracemalloc`` (on a build of its own, so the tracing
does not inflate the collector seconds above), prints the traced MB after
the build, the peak during ``run()`` and the traced MB after it, and the
source files whose allocations are still alive after ``run()``, largest
first. To read a parent revision, copy this file into an unpacked copy of
it (``git archive``) and run it there.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmarks" / "e2e"), str(ROOT / "src")]

import e2e_harness  # noqa: E402


class CollectorClock:
    """A ``gc.callbacks`` hook: per generation ``[collections, cpu_s,
    objects collected]`` of every collection while it is installed."""

    def __init__(self) -> None:
        self.generations = [[0, 0.0, 0] for _ in range(3)]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.process_time()
        else:
            row = self.generations[info["generation"]]
            row[0] += 1
            row[1] += time.process_time() - self._started
            row[2] += info["collected"]


def measure(section) -> tuple:
    """``section()`` under a fresh hook -> (result, cpu_s, generations)."""
    clock = CollectorClock()
    gc.callbacks.append(clock)
    try:
        started = time.process_time()
        result = section()
        cpu_s = time.process_time() - started
    finally:
        gc.callbacks.remove(clock)
    return result, cpu_s, clock.generations


def retention(spec, seed: int, top: int = 8) -> bool:
    """Print the retention table of one traced build + ``run()``; returns
    the run's own ledger check."""
    gc.collect()
    tracemalloc.start()
    try:
        chain = e2e_harness.build(spec, seed)
        built_b = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        metrics = chain.run()
        after_b, peak_b = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    mb = 1 / (1 << 20)
    print(f"  traced MB: after build {built_b * mb:.1f}, peak in run() {peak_b * mb:.1f}, "
          f"after run() {after_b * mb:.1f}")
    print(f"  {'alive after run(), by file':<48} {'MB':>6} {'blocks':>8}")
    for stat in snapshot.statistics("filename")[:top]:
        name = short(stat.traceback[0].filename)
        print(f"  {name:<48} {stat.size * mb:>6.2f} {stat.count:>8}")
    return metrics.extra["ledger_ok"] is True


def short(filename: str) -> str:
    """``filename`` relative to the repository's ``src/`` or to the standard
    library, whichever holds it."""
    path = pathlib.Path(filename)
    for base in (ROOT / "src", pathlib.Path(tracemalloc.__file__).parent):
        if path.is_relative_to(base):
            return str(path.relative_to(base))
    return filename


def collector_table(spec, seed: int) -> bool:
    """Print the collector table of one build's ``run()`` and
    ``consistency_check()``; returns their own checks. The build dies with
    this frame."""
    gc.collect()
    chain = e2e_harness.build(spec, seed)
    print(f"  {'section':<20} {'cpu_s':>7}  {'gen':>3} {'collections':>11} {'gc_cpu_s':>8} {'collected':>9} {'share':>6}")
    sections = (
        ("run()", chain.run, lambda metrics: metrics.extra["ledger_ok"] is True),
        ("consistency_check()", chain.consistency_check, lambda consistent: consistent is True),
    )
    ok = True
    for name, section, passed in sections:
        result, cpu_s, generations = measure(section)
        ok &= passed(result)
        total = [sum(row[i] for row in generations) for i in range(3)]
        for gen, (count, gc_s, collected) in [*enumerate(generations), ("all", total)]:
            print(
                f"  {name:<20} {cpu_s:>7.3f}  {gen:>3} {count:>11} {gc_s:>8.4f} "
                f"{collected:>9} {gc_s / cpu_s:>6.1%}"
            )
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(e2e_harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = e2e_harness.WORKLOADS[args.workload]

    e2e_harness.warm_up(spec, args.seed)
    print(f"{args.workload} seed {args.seed}")
    ok = collector_table(spec, args.seed)
    ok &= retention(spec, args.seed)
    print("OK" if ok else "FAILED: the run's own checks")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
