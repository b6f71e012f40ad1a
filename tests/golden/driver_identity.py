"""Golden record of the Order-Execute driver's observable results.

Recorded at the commit *before* ``OEBlockchain`` became the 1-shard
configuration of the sharded driver, so "``num_shards=1`` is the unsharded
chain" stays a checked claim after the two stopped being separate code:
``tests/test_driver_identity.py`` replays every case and compares exactly.
The ``sov/`` cases (Fabric and FastFabric# on every registered workload)
were added later, before the two dataflows came to share one set of run
accounts; a run that reports no ``decision_digest`` is pinned on every
other field.

Regenerate (only when a change is *meant* to move decisions or modeled
numbers) with::

    PYTHONPATH=src python tests/golden/driver_identity.py

The record must not depend on the interpreter's hash seed::

    PYTHONHASHSEED=1 PYTHONPATH=src python tests/golden/driver_identity.py --check
    PYTHONHASHSEED=2 PYTHONPATH=src python tests/golden/driver_identity.py --check
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.chain.sov import SOVBlockchain, SOVConfig
from repro.chain.system import OEBlockchain, OEConfig
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.workloads import REGISTRY, ShardAffinity, make_workload
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.smallbank import SmallbankWorkload
from repro.workloads.ycsb import YCSBWorkload

GOLDEN_PATH = Path(__file__).with_name("driver_identity.json")

#: the conformance sweep's run length and seed
CONFORMANCE = dict(block_size=10, num_blocks=5, seed=11)
#: the run length, seed and workload sizes of the ``num_shards=1`` identity
#: sweep that lived in ``tests/test_shard.py`` until the drivers merged
SHARD_SWEEP = dict(block_size=10, num_blocks=5, seed=13)
SHARD_SWEEP_WORKLOADS = {
    "ycsb": lambda: YCSBWorkload(num_keys=160, theta=0.6),
    "smallbank": lambda: SmallbankWorkload(num_accounts=80, theta=0.6),
    "hotspot": lambda: HotspotWorkload(num_keys=200, hotspot_probability=0.5),
}


def cases() -> dict:
    """``case id -> (build chain)``, in a fixed order."""
    out = {}
    for name in sorted(REGISTRY):
        for system in ("harmony", "aria", "rbc", "serial"):
            out[f"conformance/{name}/{system}/unsharded"] = (
                lambda name=name, system=system: OEBlockchain(
                    OEConfig(system=system, **CONFORMANCE),
                    make_workload(name, profile="conformance"),
                )
            )
            # one shard: the very workload the unsharded case runs
            out[f"conformance/{name}/{system}/1shard"] = (
                lambda name=name, system=system: ShardedBlockchain(
                    ShardConfig(system=system, num_shards=1, **CONFORMANCE),
                    make_workload(name, profile="conformance"),
                )
            )
        for system in ("harmony", "aria", "rbc"):
            for shards in (2, 4):
                # the sharded conformance sweep's shape: gate profile (every
                # partition non-empty at 4 shards), half the traffic cross-shard
                out[f"conformance/{name}/{system}/{shards}shard"] = (
                    lambda name=name, system=system, shards=shards: ShardedBlockchain(
                        ShardConfig(system=system, num_shards=shards, **CONFORMANCE),
                        make_workload(
                            name, profile="gate", affinity=ShardAffinity(shards, 0.5)
                        ),
                    )
                )
    for name, factory in sorted(SHARD_SWEEP_WORKLOADS.items()):
        for system in ("harmony", "aria", "rbc", "serial"):
            out[f"shard-sweep/{name}/{system}/unsharded"] = (
                lambda factory=factory, system=system: OEBlockchain(
                    OEConfig(system=system, **SHARD_SWEEP), factory()
                )
            )
            out[f"shard-sweep/{name}/{system}/1shard"] = (
                lambda factory=factory, system=system: ShardedBlockchain(
                    ShardConfig(system=system, num_shards=1, **SHARD_SWEEP), factory()
                )
            )
    for shards in (2, 4):
        # certified re-keys ride the certificate stream: the head hash
        # covers the MigrationRecords (thresholds set to fire within a
        # handful of blocks)
        out[f"adaptive/adv-skewshift/harmony/{shards}shard"] = (
            lambda shards=shards: ShardedBlockchain(
                ShardConfig(
                    num_shards=shards,
                    block_size=16,
                    num_blocks=8,
                    seed=11,
                    rebalance="adaptive",
                    rebalance_skew_threshold=1.0,
                    rebalance_cross_threshold=0.0,
                    rebalance_max_keys=8,
                ),
                make_workload(
                    "adv-skewshift",
                    num_keys=96,
                    theta=1.1,
                    shift_period=48,
                    affinity=ShardAffinity(shards, 0.4),
                ),
            )
        )
    for name in sorted(REGISTRY):
        for system in ("fabric", "fastfabric"):
            out[f"sov/{name}/{system}"] = (
                lambda name=name, system=system: SOVBlockchain(
                    SOVConfig(system=system, **CONFORMANCE),
                    make_workload(name, profile="conformance"),
                )
            )
    return out


def observe(build) -> dict:
    """Run one case and return what the golden pins."""
    metrics = build().run()
    extra = metrics.extra
    record = {
        "state_hash": extra["state_hash"],
        "committed": metrics.committed,
        "aborted": metrics.aborted,
        "false_aborts": metrics.false_aborts,
        "throughput_tps": metrics.throughput_tps,
        "p50_latency_ms": metrics.p50_latency_ms,
        "p99_latency_ms": metrics.p99_latency_ms,
        "cpu_utilization": metrics.cpu_utilization,
        "io_reads": metrics.io_reads,
        "io_writes": metrics.io_writes,
    }
    for key in ("decision_digest", "shard_state_hashes", "cert_head", "migrations"):
        if key in extra:
            record[key] = extra[key]
    return record


def mismatches(golden: dict, recorded: dict) -> dict:
    """``field -> (golden, recorded)`` for every pinned field that moved.

    Only the fields the golden entry holds are compared: the unsharded
    entries were recorded by a driver that had no certificate stream.
    """
    return {
        key: (want, recorded.get(key))
        for key, want in golden.items()
        if recorded.get(key) != want
    }


def main(argv: list[str]) -> int:
    recorded = {case: observe(build) for case, build in cases().items()}
    if "--check" in argv:
        golden = json.loads(GOLDEN_PATH.read_text())
        bad = [
            case
            for case in sorted(set(golden) | set(recorded))
            if case not in golden
            or case not in recorded
            or mismatches(golden[case], recorded[case])
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
