"""Micro ledger: complexity-class guards and one wall gate.

``python -m repro.bench --perf`` (full) or ``--perf-smoke`` (seconds) runs
the cases below on seeded inputs. A full run is appended to
``BENCH_perf.json`` (or the path in the second CLI argument /
``$REPRO_BENCH_OUT``), a smoke run only when such a path is given. The file
is ``{"schema": 1, "retired": {...}, "runs": [...]}``; ``retired`` maps each
case that no longer runs to the reason and is edited in the ledger by the PR
that retires it. Every case carries ``checks`` (name -> bool); a run with a
false one exits 1.

- **Scaling guards** (``kind: "scaling"``, wall clock). ``src/repro`` has
  one implementation of each hot path, so what a micro case can guard is
  the path's *complexity class*: the production path alone is timed at
  sizes ``n`` and ``4n`` with the per-call work held fixed, and ``growth``
  = time(4n) / time(n) is gated against the ``bound`` of its class. Losing
  the class moves ``growth`` by a factor of four (a keyspace-independent
  path gone linear reads 4, a linear one gone quadratic 16), not by the few
  percent scheduler jitter moves it.
- **One wall gate** on whole runs: ``obs_overhead``.

None of it is a host-speed claim: those go through ``make e2e-pairs``. The
modeled-clock comparisons (sharded scale-out, adaptive re-keying) are
experiments with claims in :mod:`repro.bench.experiments`.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import sys
import time
from itertools import islice

from repro.collector import collector_paused
from repro.core.dependencies import commit_survivors
from repro.core.validation import HarmonyValidator
from repro.dcc.oracle import SerializabilityOracle
from repro.intervals import RangeIndex
from repro.shard.federated import FederatedSnapshot
from repro.shard.router import ShardRouter
from repro.storage.checkpoint import CheckpointManager
from repro.storage.engine import StorageEngine
from repro.storage.heap import HeapFile
from repro.storage.mvstore import MVStore
from repro.txn.commands import AddValue
from repro.txn.transaction import Txn, TxnSpec

DEFAULT_OUT = "BENCH_perf.json"
SEED = 20230604  # SIGMOD'23 — stable across runs so inputs are identical


def _key(i: int) -> tuple:
    return ("k", i)


# ------------------------------------------------------- scaling guards
#: growth bounds per complexity class, for time(4n) / time(n). Each sits
#: between what the class reads and what losing it reads, so a guard fails
#: on a class change and not on scheduler jitter.
INDEPENDENT = ("independent of n", 3.0)  # reads 1-1.6; gone linear reads 4
LINEARITHMIC = ("at most n log n", 11.0)  # reads 4-7; gone quadratic reads 16


def scaling_guard(
    name: str,
    build,
    klass: tuple[str, float],
    n: int,
    unit: str,
    clock=time.perf_counter,
) -> dict:
    """Time one production path at sizes ``n`` and ``4n``; gate the growth.

    ``build(size)`` prepares the inputs (untimed, afresh for every repeat)
    and returns the call to time, which may return sanity checks. The best
    of seven counts at each size; the sizes alternate so machine drift
    hits both. The cyclic collector is paused while the clock runs:
    a generation-2 pass walks the whole live heap, an O(n) term that is
    the collector's and not the path's. ``clock`` is injectable so the
    arithmetic is testable without wall time.
    """
    times, checks = [float("inf")] * 2, {}
    for _ in range(7):
        for i, size in enumerate((n, 4 * n)):
            run = build(size)
            gc.collect()
            with collector_paused():
                start = clock()
                outcome = run()
                times[i] = min(times[i], clock() - start)
            checks.update(outcome or {})
    growth = times[1] / times[0] if times[0] > 0 else float("inf")
    class_name, bound = klass
    checks["growth_within_bound"] = growth <= bound
    return {
        "case": name,
        "params": {"n": n, "n_counts": unit},
        "kind": "scaling",
        "class": class_name,
        "time_n_s": round(times[0], 6),
        "time_4n_s": round(times[1], 6),
        "growth": round(growth, 2),
        "bound": bound,
        "checks": checks,
    }


def _writes(rng: random.Random, num_keys: int, count: int) -> list:
    return [(_key(rng.randrange(num_keys)), rng.randrange(1000)) for _ in range(count)]


def build_state_hash(num_keys: int):
    """Per-block hash refresh — 60 blocks of 32 writes, one ``state_hash``
    each — over a ``num_keys`` store: O(writes), never O(keyspace)."""
    rng = random.Random(SEED)
    store = MVStore()
    store.load({_key(i): i for i in range(num_keys)})
    store.state_hash()  # settle the accumulator before timing
    blocks = [_writes(rng, num_keys, 32) for _ in range(60)]

    def run() -> None:
        for block_id, writes in enumerate(blocks):
            store.apply_block(block_id, writes)
            store.state_hash()

    return run


def build_checkpoint_delta(num_keys: int):
    """One interval's durable checkpoint — 10 blocks of 4000 buffered
    writes — on a chain whose genesis holds ``num_keys`` keys: O(interval
    writes), where the seed's full deep copy was O(keyspace)."""
    rng = random.Random(SEED + 1)
    manager = CheckpointManager(10)
    manager.genesis = {_key(i): i for i in range(num_keys)}
    interval = [(block_id, _writes(rng, num_keys, 4000)) for block_id in range(10)]
    return lambda: manager.delta_checkpoint(9, interval, meta={"prev_records": {}})


def build_federated_scan(num_keys: int):
    """A cross-shard range read over ``num_keys`` keys on 4 shards, consumed
    up to 4096 rows: the lazy merge pays per row consumed, not per row in
    range."""
    router = ShardRouter(4, policy="hash")
    parts: list[dict] = [{} for _ in range(4)]
    for i in range(num_keys):
        parts[router.shard_of(_key(i))][_key(i)] = i
    stores = [MVStore() for _ in parts]
    for store, part in zip(stores, parts):
        store.load(part)
    snap = FederatedSnapshot(router, stores, block_id=-1)

    def run() -> dict:
        rows = list(islice(snap.scan(_key(0), _key(num_keys)), 4096))
        return {"limit_rows_returned": len(rows) == 4096}

    return run


def build_mvstore_load(num_keys: int):
    """Bulk load of ``num_keys`` shuffled keys into a fresh store: one sort
    (n log n), where a per-key ``insort`` is n²."""
    order = list(range(num_keys))
    random.Random(SEED + 3).shuffle(order)
    items = {_key(i): i for i in order}
    return lambda: MVStore().load(items)


def build_range_index(num_ranges: int):
    """10 000 stabs into ``num_ranges`` registered ranges, three covering any
    key: one bisect plus the hits, where the linear scan visits every range."""
    index = RangeIndex([(_key(4 * i), _key(4 * i + 12), i) for i in range(num_ranges)])
    rng = random.Random(SEED + 4)
    probes = [_key(rng.randrange(8, 4 * num_ranges)) for _ in range(10_000)]
    index.stab(probes[0])  # build the segments before timing

    def run() -> dict:
        hits = sum(len(index.stab(key)) for key in probes)
        return {"three_ranges_per_stab": hits == 3 * len(probes)}

    return run


def build_false_aborts(block_size: int):
    """False-abort accounting (20 times over) of one validated YCSB-shaped
    block: ``block_size`` transactions of 10 skewed point operations, half
    read-modify-writes, keyspace scaled with the block (about 40 % abort).
    O(committed edges + sum of abortee footprints) — a per-abortee pass
    over the graph would be quadratic."""
    rng = random.Random(SEED + 5)
    block = [Txn(tid=tid, block_id=0, spec=TxnSpec("ops")) for tid in range(block_size)]
    for txn in block:
        for _ in range(10):
            key = _key(int(80 * block_size * rng.random() ** 2))
            txn.read_set[key] = None
            if rng.random() < 0.5:
                txn.record_update(key, AddValue(1))
    HarmonyValidator().validate(block)
    commit_survivors(block)
    aborted = sum(1 for t in block if t.aborted)

    def run() -> dict:
        for _ in range(20):
            SerializabilityOracle.count_false_aborts(block)
        return {"abort_heavy": aborted >= 0.3 * block_size}

    return run


def build_heap_load(records_per_page: int):
    """Bring-up of a 20 000-key heap at ``records_per_page`` records a page:
    work per key whatever the page size, where a first-free-slot scan per
    placed key is O(page)."""
    engine = StorageEngine()
    heap = HeapFile(engine.pool, engine.costs, records_per_page)
    keys = [_key(i) for i in range(20_000)]
    return lambda: heap.load(keys)


#: (case, build, class, n full, n smoke, what n counts)
SCALING_GUARDS = (
    ("state_hash_scaling", build_state_hash, INDEPENDENT, 25_000, 5_000, "keys"),
    ("checkpoint_delta_scaling", build_checkpoint_delta, INDEPENDENT, 25_000, 5_000, "keys"),
    ("federated_scan_scaling", build_federated_scan, INDEPENDENT, 25_000, 5_000, "keys"),
    ("range_index_scaling", build_range_index, INDEPENDENT, 2_000, 500, "ranges"),
    ("mvstore_load_scaling", build_mvstore_load, LINEARITHMIC, 25_000, 5_000, "keys"),
    ("false_aborts_scaling", build_false_aborts, LINEARITHMIC, 100, 50, "txns"),
    ("heap_load_scaling", build_heap_load, INDEPENDENT, 256, 256, "records per page"),
)


# ------------------------------------------------------------ wall gate
def bench_obs_overhead(smoke: bool, seed: int) -> dict:
    """Overhead gate for the tracing/metrics subsystem.

    The identical 2-shard Harmony YCSB stream runs untraced (the chain's
    one span hook at its ``None`` default) and traced (``chain.tracer`` set,
    which arms every emission site). Identity checks pin decisions, state and the
    certificate head bit-equal — tracing observes, never perturbs — and the
    gate requires the traced run to stay within 5% of the untraced one.

    Sampling: the two sides alternate run by run (which side goes first
    alternates too), each run starts from a collected heap and is timed on
    the process's own CPU clock, and the gated figure — reported as
    ``speedup``, expected ~1.0 — is the **median of the per-pair ratios**.
    Runs are short (~20 ms, both modes) and pairs many: this box's speed
    drifts within a tenth of a second, so 75 such pairs read +-0.5 % where
    31 pairs of 80 ms runs read +-2 % and best-of-3 walls 1.0-1.7.
    """
    from repro.obs.trace import Tracer
    from repro.shard.system import ShardConfig, ShardedBlockchain
    from repro.workloads.base import ShardAffinity
    from repro.workloads.ycsb import YCSBWorkload

    num_blocks, block_size, pairs = 3, 60, 75
    run_seed = seed % 100_000

    def run(traced: bool):
        config = ShardConfig(
            system="harmony",
            block_size=block_size,
            num_blocks=num_blocks,
            seed=run_seed,
            num_shards=2,
        )
        workload = YCSBWorkload(
            num_keys=2_000, theta=0.1, affinity=ShardAffinity(2, 0.05)
        )
        chain = ShardedBlockchain(config, workload)
        chain.tracer = tracer = Tracer() if traced else None
        gc.collect()
        start = time.process_time()
        metrics = chain.run()
        cpu = time.process_time() - start
        return metrics, tracer, cpu

    run(False)  # discarded warmup: imports, allocator, branch caches
    last: dict = {}
    cpus: dict = {False: [], True: []}
    for pair in range(pairs):
        for traced in (pair % 2 == 1, pair % 2 == 0):  # first side alternates
            metrics, tracer, cpu = run(traced)
            last[traced] = (metrics, tracer)
            cpus[traced].append(cpu)
    (base_metrics, _), (traced_metrics, tracer) = last[False], last[True]
    ratios = [traced / base for traced, base in zip(cpus[True], cpus[False])]
    ratio = statistics.median(ratios)
    checks = {
        "decisions_identical": base_metrics.extra["decision_digest"]
        == traced_metrics.extra["decision_digest"],
        "state_identical": base_metrics.extra["state_hash"]
        == traced_metrics.extra["state_hash"],
        "cert_head_identical": base_metrics.extra["cert_head"]
        == traced_metrics.extra["cert_head"],
        "spans_recorded": len(tracer.spans) > 0,
        "overhead_under_5pct": ratio <= 1.05,
    }
    return {
        "case": "obs_overhead",
        "params": {
            "shards": 2,
            "block_size": block_size,
            "num_blocks": num_blocks,
        },
        "naive_s": round(statistics.median(cpus[True]), 6),
        "indexed_s": round(statistics.median(cpus[False]), 6),
        "speedup": round(ratio, 3),
        "pair_ratio_quartiles": [round(q, 3) for q in statistics.quantiles(ratios, n=4)],
        "spans": len(tracer.spans),
        "checks": checks,
    }


# ----------------------------------------------------------------- driver
def run_perf(smoke: bool = False, out_path: str | None = None) -> dict:
    """Run every case and return the run record. A full run is appended to
    the trajectory (``out_path``, else ``$REPRO_BENCH_OUT``, else
    :data:`DEFAULT_OUT`); a smoke run only when one of the first two names
    a file, so the CI gate never edits the committed ledger."""
    cases: list[dict] = [
        scaling_guard(name, build, klass, n_smoke if smoke else n_full, unit)
        for name, build, klass, n_full, n_smoke, unit in SCALING_GUARDS
    ]
    cases.append(bench_obs_overhead(smoke, SEED + 19))

    run = {
        "bench": "perf",
        "mode": "smoke" if smoke else "full",
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "cases": cases,
        "all_checks_pass": not failed_checks(cases),
    }
    path = out_path or os.environ.get("REPRO_BENCH_OUT") or (None if smoke else DEFAULT_OUT)
    if path:
        _persist(run, path)
    return run


def _label(case: dict) -> str:
    params = ",".join(f"{k}={v}" for k, v in case["params"].items())
    return f"{case['case']}({params})"


def failed_checks(cases: list[dict]) -> list[str]:
    """``case(params): check`` for every false check (the CLI exits 1 on any)."""
    return [
        f"{_label(case)}: {name}"
        for case in cases
        for name, ok in case["checks"].items()
        if not ok
    ]


def _persist(run: dict, path: str) -> None:
    """Append ``run`` to the ledger at ``path``, keeping its ``retired`` map
    (a missing or unreadable file starts a fresh one)."""
    try:
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)
    except (OSError, ValueError):
        existing = None
    if not isinstance(existing, dict):
        existing = {}
    ledger = {
        "schema": 1,
        "retired": existing.get("retired", {}),
        "runs": existing.get("runs", []) + [run],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=2)
        fh.write("\n")


def render_perf(run: dict) -> str:
    lines = [
        f"perf trajectory run — mode={run['mode']}  "
        f"checks={'PASS' if run['all_checks_pass'] else 'FAIL'}"
    ]
    for case in run["cases"]:
        if case.get("kind") == "scaling":
            result = (
                f"growth {case['growth']:.2f}, bound {case['bound']} ({case['class']};"
                f" {case['time_n_s']:.4f}s -> {case['time_4n_s']:.4f}s)"
            )
        else:
            result = (
                f"{case['naive_s']:.4f}s / {case['indexed_s']:.4f}s"
                f" = {case['speedup']:.2f}x"
            )
        lines.append(f"  {_label(case):<72} {result}")
    return "\n".join(lines)
