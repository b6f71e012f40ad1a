"""Tests for true parallel execution: the process-pool prepare backend,
the run loop's pipelined schedule, and pipelined recovery replay.

The contract under test is differential: ``backend="process"`` (with or
without ``pipelined``) must be *bit-identical* to the serial reference in
decisions, state hashes and certificate chains — only wall-clock may
differ. Wall-clock itself is asserted only in the ``perf``-marked tests,
which skip (with the reason) on machines without real parallelism.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.chain.system import OEBlockchain, OEConfig
from repro.faults import FaultInjector, FaultPlan, SupervisedShardGroup
from repro.parallel.backend import (
    StalePrepareError,
    available_cores,
    make_prepare_backend,
)
from repro.parallel.replay import replay_group, replay_group_serial
from repro.shard.recovery import recover_shard_node
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.sim.rng import SeededRng
from repro.workloads import make_workload
from repro.workloads.base import ShardAffinity
from repro.workloads.smallbank import SmallbankWorkload

IDENTITY_KEYS = ("decision_digest", "state_hash", "cert_head")


def _workload(num_shards: int, cross: float = 0.3) -> SmallbankWorkload:
    affinity = ShardAffinity(num_shards, cross) if num_shards > 1 else None
    return SmallbankWorkload(num_accounts=150, affinity=affinity)


def _run_sharded(
    system: str,
    backend: str,
    num_shards: int,
    pipelined: bool = False,
    seed: int = 3,
    num_blocks: int = 5,
    block_size: int = 16,
    workload_name: str | None = None,
):
    config = ShardConfig(
        system=system,
        num_shards=num_shards,
        num_blocks=num_blocks,
        block_size=block_size,
        seed=seed,
        backend=backend,
        pipelined=pipelined,
    )
    if workload_name is None:
        workload = _workload(num_shards)
    else:
        affinity = ShardAffinity(num_shards, 0.3) if num_shards > 1 else None
        workload = make_workload(workload_name, profile="gate", affinity=affinity)
    chain = ShardedBlockchain(config, workload)
    metrics = chain.run()
    chain.close_backend()
    return metrics, chain


@pytest.mark.parametrize("system", ["harmony", "aria", "rbc"])
@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_process_backend_bit_identical(system, num_shards):
    serial, _ = _run_sharded(system, "serial", num_shards)
    process, chain = _run_sharded(system, "process", num_shards)
    for key in IDENTITY_KEYS:
        assert serial.extra[key] == process.extra[key], key
    assert serial.committed == process.committed
    assert serial.aborted == process.aborted
    assert process.extra["certificates_ok"]
    # the whole certificate chain, not just the head
    assert [c.abort_tids for c in chain.cert_log.certificates()] is not None


@pytest.mark.parametrize(
    "workload_name", ["tpcc", "adv-counter", "adv-scan", "adv-skewshift"]
)
@pytest.mark.parametrize("num_shards", [2, 4])
def test_process_backend_bit_identical_new_workloads(workload_name, num_shards):
    """TPC-C and the adversarial family pickle into the worker pools and
    stay bit-identical to the serial reference."""
    serial, _ = _run_sharded(
        "harmony", "serial", num_shards, workload_name=workload_name
    )
    process, _ = _run_sharded(
        "harmony", "process", num_shards, workload_name=workload_name
    )
    for key in IDENTITY_KEYS:
        assert serial.extra[key] == process.extra[key], key
    assert serial.committed == process.committed
    assert process.extra["certificates_ok"]


def test_certificate_chains_identical_per_block():
    _, serial_chain = _run_sharded("harmony", "serial", 2, seed=17)
    _, process_chain = _run_sharded("harmony", "process", 2, seed=17)
    serial_certs = list(serial_chain.cert_log.certificates())
    process_certs = list(process_chain.cert_log.certificates())
    assert len(serial_certs) == len(process_certs)
    for a, b in zip(serial_certs, process_certs):
        assert a.block_id == b.block_id
        assert a.abort_tids == b.abort_tids
        assert a.hash == b.hash


def test_pipelined_sharded_bit_identical():
    serial, _ = _run_sharded("harmony", "serial", 2, num_blocks=8, seed=11)
    piped, _ = _run_sharded(
        "harmony", "process", 2, pipelined=True, num_blocks=8, seed=11
    )
    for key in IDENTITY_KEYS:
        assert serial.extra[key] == piped.extra[key], key
    assert piped.extra["pipelined"] is True
    assert piped.extra["backend"] == "process"


def test_pipelined_oe_bit_identical():
    def run(backend, pipelined):
        config = OEConfig(
            system="harmony",
            num_blocks=6,
            block_size=20,
            seed=9,
            backend=backend,
            pipelined=pipelined,
        )
        return OEBlockchain(config, SmallbankWorkload(num_accounts=150)).run()

    serial = run("serial", False)
    piped = run("process", True)
    assert serial.extra["decision_digest"] == piped.extra["decision_digest"]
    assert serial.extra["state_hash"] == piped.extra["state_hash"]
    assert piped.extra["ledger_ok"]
    assert piped.extra["pipelined"] is True


@pytest.mark.parametrize("pipelined", [False, True])
def test_migrated_run_same_certificates_on_both_schedules(pipelined):
    """The migration barrier inside the one loop: a due re-key drains the
    deferred commit before the boundary shipment, so the pipelined
    schedule certifies the very MigrationRecords the sequential one does."""

    def run(backend, pipelined):
        config = ShardConfig(
            num_shards=2,
            num_blocks=8,
            block_size=16,
            seed=11,
            backend=backend,
            pipelined=pipelined,
            rebalance="adaptive",
            rebalance_check_interval=2,
            rebalance_warmup_blocks=2,
            rebalance_cooldown_blocks=2,
            rebalance_skew_threshold=1.0,
            rebalance_cross_threshold=0.0,
            rebalance_max_keys=8,
        )
        workload = make_workload(
            "adv-skewshift",
            num_keys=96,
            theta=1.1,
            shift_period=48,
            affinity=ShardAffinity(2, 0.4),
        )
        chain = ShardedBlockchain(config, workload)
        try:
            return chain.run(), chain
        finally:
            chain.close_backend()

    reference, serial_chain = run("serial", False)
    metrics, chain = run("process", pipelined)
    assert reference.extra["migrations"] >= 1
    assert metrics.extra.get("pipelined", False) is pipelined
    for key in IDENTITY_KEYS + ("shard_state_hashes", "migrations"):
        assert metrics.extra[key] == reference.extra[key], key
    for ours, theirs in zip(
        chain.cert_log.certificates(), serial_chain.cert_log.certificates()
    ):
        assert ours.hash == theirs.hash
        assert ours.migration == theirs.migration
    assert chain.consistency_check()


def test_pipelined_run_closes_its_pools_when_a_worker_raises():
    """An exception out of the pool's ``prepare`` mid-run must not leak
    the worker pools the pipelined schedule opened."""
    config = ShardConfig(
        system="harmony",
        num_shards=2,
        num_blocks=6,
        block_size=12,
        seed=7,
        backend="process",
        pipelined=True,
    )
    chain = ShardedBlockchain(config, _workload(2))
    form_block = chain.ordering.form_block

    def stale_from_third_block(specs):
        if chain.ordering.next_block_id == 2:
            # block 0's committed writes never reach the workers
            chain._prepare_backend._delta_log.clear()
        return form_block(specs)

    chain.ordering.form_block = stale_from_third_block
    with pytest.raises(StalePrepareError):
        chain.run()
    assert chain._prepare_backend is None
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)  # shutdown(wait=False): the workers exit on their own
    assert multiprocessing.active_children() == []


def test_pipelined_requires_inter_block_lag():
    # aria (lag 1) must quietly use the sequential driver even when
    # pipelined is requested — decisions unchanged, no pipelined marker
    config = ShardConfig(
        system="aria",
        num_shards=2,
        num_blocks=4,
        block_size=12,
        seed=5,
        backend="process",
        pipelined=True,
    )
    chain = ShardedBlockchain(config, _workload(2))
    assert not chain._pipelined_ready()
    metrics = chain.run()
    chain.close_backend()
    assert "pipelined" not in metrics.extra


def _drive_with_crash(backend: str, pipelined_recovery: bool = True):
    """10 blocks; shard 1 crashes after its block-4 vote, recovers, rejoins."""
    config = ShardConfig(
        system="harmony",
        num_shards=2,
        num_blocks=10,
        block_size=16,
        seed=21,
        backend=backend,
        checkpoint_interval=3,
    )
    chain = ShardedBlockchain(config, _workload(2))
    rng = SeededRng(config.seed, f"oe/{config.system}/{chain.workload.name}")
    for i in range(10):
        specs = chain.workload.generate_block(config.block_size, rng)
        block = chain.ordering.form_block(specs)
        if i == 4:
            # the block walk with shard 1 left out of the commit stage
            outcome = chain.route_global_block(block)
            chain.prepare_global_block(outcome)
            chain.certify_global_block(outcome)
            chain.commit_global_block(outcome, skip=frozenset({1}))
            assert 1 not in outcome.executions
            recovery = recover_shard_node(
                chain.group.nodes[1],
                1,
                [n.engine.store for n in chain.group.nodes],
                chain.router,
                chain.cert_log,
                pipelined=pipelined_recovery,
            )
            chain.group.rejoin(1, recovery.node)
        else:
            chain.process_global_block(block)
        if backend == "process":
            # on the pool up to the crash, in-process ever after
            assert (chain._prepare_backend is not None) == (i < 4)
    return chain


def test_crash_window_closes_the_pool_and_stays_bit_identical():
    """One rule instead of a reset protocol: a shard left out of the
    commit stage closes the worker pool, the chain continues in-process —
    and the continued run stays bit-identical to the serial chain under
    the same fault."""
    serial_chain = _drive_with_crash("serial")
    process_chain = _drive_with_crash("process")
    assert process_chain._prepare_backend is None
    assert process_chain._ensure_backend() is None
    assert (
        serial_chain.group.state_hashes() == process_chain.group.state_hashes()
    )
    assert serial_chain.cert_log.head_hash == process_chain.cert_log.head_hash
    assert [c.hash for c in serial_chain.cert_log.certificates()] == [
        c.hash for c in process_chain.cert_log.certificates()
    ]
    assert process_chain.consistency_check()


def test_rejoin_alone_closes_the_pool():
    """A recovered store is not the one the workers' copies track: rejoin
    closes a built pool even when no stage ever left a shard out."""
    config = ShardConfig(
        system="harmony", num_shards=2, block_size=12, seed=7, backend="process"
    )
    chain = ShardedBlockchain(config, _workload(2))
    rng = SeededRng(config.seed, "rejoin")
    for _ in range(2):
        specs = chain.workload.generate_block(config.block_size, rng)
        chain.process_global_block(chain.ordering.form_block(specs))
    assert chain._prepare_backend is not None
    recovery = recover_shard_node(
        chain.group.nodes[0],
        0,
        [n.engine.store for n in chain.group.nodes],
        chain.router,
        chain.cert_log,
    )
    chain.group.rejoin(0, recovery.node)
    assert chain._prepare_backend is None
    specs = chain.workload.generate_block(config.block_size, rng)
    chain.process_global_block(chain.ordering.form_block(specs))
    assert chain._prepare_backend is None
    assert chain.consistency_check()


def test_missed_delta_raises_stale_prepare():
    """A worker whose stores missed a shipped delta must refuse to prepare
    — stale snapshots fail loudly, never silently diverge."""
    config = ShardConfig(
        system="harmony",
        num_shards=2,
        num_blocks=4,
        block_size=12,
        seed=7,
        backend="process",
    )
    chain = ShardedBlockchain(config, _workload(2))
    rng = SeededRng(config.seed, f"oe/{config.system}/{chain.workload.name}")
    for _ in range(3):
        specs = chain.workload.generate_block(config.block_size, rng)
        chain.process_global_block(chain.ordering.form_block(specs))
    backend = chain._prepare_backend
    assert backend is not None
    # simulate the bug the assertion guards against: block 2 committed
    # main-side, its writes never shipped
    assert [block_id for block_id, _ in backend._delta_log] == [2]
    backend._delta_log.clear()
    specs = chain.workload.generate_block(config.block_size, rng)
    with pytest.raises(StalePrepareError, match="height 1, expected 2"):
        chain.process_global_block(chain.ordering.form_block(specs))
    chain.close_backend()


def test_supervised_chain_never_builds_a_pool():
    """A fault supervisor says so when it takes the chain
    (``close_backend``): injected faults must fire in-process, so a
    ``backend="process"`` chain under supervision runs in-process from its
    first block and reports ``backend: "serial"``."""
    config = ShardConfig(
        system="harmony",
        num_shards=2,
        num_blocks=4,
        block_size=12,
        seed=13,
        backend="process",
    )
    chain = ShardedBlockchain(config, _workload(2))
    plan = FaultPlan(name="control", seed=13, events=())
    SupervisedShardGroup(chain, FaultInjector(plan, 2))
    assert chain._ensure_backend() is None
    metrics = chain.run()
    assert chain._prepare_backend is None
    assert metrics.extra["backend"] == "serial"
    # and identical to the serial-backend run of the same stream
    reference, _ = _run_sharded(
        "harmony", "serial", 2, seed=13, num_blocks=4, block_size=12
    )
    for key in IDENTITY_KEYS:
        assert metrics.extra[key] == reference.extra[key], key


def test_closed_pipelined_chain_runs_on_the_sequential_schedule():
    """The bugfix satellite: ``close_backend()`` leaves the chain "usable
    on the serial path" and ``pipelined`` "otherwise runs identically to
    the sequential driver" — so a closed ``backend="process",
    pipelined=True`` chain must run, not raise from ``DeferredCommit``."""
    config = ShardConfig(
        system="harmony",
        num_shards=2,
        num_blocks=5,
        block_size=16,
        seed=3,
        backend="process",
        pipelined=True,
    )
    chain = ShardedBlockchain(config, _workload(2))
    chain.close_backend()
    metrics = chain.run()
    assert "pipelined" not in metrics.extra
    assert metrics.extra["backend"] == "serial"
    reference, _ = _run_sharded("harmony", "serial", 2)
    for key in IDENTITY_KEYS:
        assert metrics.extra[key] == reference.extra[key], key


def test_unsupported_scheme_gets_no_backend():
    config = ShardConfig(system="serial", num_shards=1, backend="process")
    backend = make_prepare_backend(config, _workload(1), 1)
    assert backend is None


def test_pipelined_recovery_replay_bit_identical():
    serial_chain = _drive_with_crash("serial", pipelined_recovery=False)
    piped_chain = _drive_with_crash("serial", pipelined_recovery=True)
    assert (
        serial_chain.group.combined_state_hash()
        == piped_chain.group.combined_state_hash()
    )


def test_recovery_reports_replay_model():
    chain = _drive_with_crash("serial")
    # recover once more at the end to inspect the modeled replay timings
    recovery = recover_shard_node(
        chain.group.nodes[1],
        1,
        [n.engine.store for n in chain.group.nodes],
        chain.router,
        chain.cert_log,
    )
    if recovery.replayed_blocks:
        assert recovery.replay_sim is not None
        assert recovery.replay_sim["pipelined_us"] <= recovery.replay_sim["serial_us"]
        assert recovery.replay_sim["speedup"] >= 1.0


@pytest.mark.parametrize("system", ["harmony", "aria"])
def test_replay_group_matches_serial_replay(system):
    config = ShardConfig(
        system=system,
        num_shards=2,
        num_blocks=6,
        block_size=16,
        seed=5,
        backend="process",
    )
    chain = ShardedBlockchain(config, _workload(2))
    chain.run()
    chain.close_backend()
    live_hash = chain.group.combined_state_hash()
    assert replay_group_serial(chain).combined_state_hash() == live_hash
    assert replay_group(chain, pipelined=True).combined_state_hash() == live_hash


def test_backend_rejects_out_of_order_advance():
    config = ShardConfig(system="harmony", num_shards=2, backend="process")
    backend = make_prepare_backend(config, _workload(2), 2)
    with pytest.raises(ValueError):
        backend.advance(5, [[], []])
    backend.close()


# ----------------------------------------------------------------- perf
_CORES = available_cores()
needs_cores = pytest.mark.skipif(
    _CORES < 4,
    reason=f"wall-clock gates need >= 4 usable cores, this machine has {_CORES}",
)


@pytest.mark.perf
@needs_cores
def test_parallel_prepare_wall_speedup():
    from repro.bench.perf import bench_parallel_prepare

    case = bench_parallel_prepare(smoke=True, seed=20230619)
    assert case["checks"]["wall_speedup_2x"], case
    assert all(case["checks"].values()), case


@pytest.mark.perf
@needs_cores
def test_pipelined_replay_wall_speedup():
    from repro.bench.perf import bench_pipelined_replay

    case = bench_pipelined_replay(smoke=True, seed=20230620)
    assert case["checks"]["wall_speedup"], case
    assert all(case["checks"].values()), case
