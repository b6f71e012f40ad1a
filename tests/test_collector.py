"""The block walk runs with the cyclic collector paused — and may.

Two contracts:

- :func:`repro.collector.collector_paused` disables the collector for its
  body, settles (``gc.freeze()`` + ``gc.unfreeze()``: the survivors move to
  the oldest generation, no collection runs) and re-enables on the way out,
  and does nothing at all when it finds the collector already off — nested
  in another pause, or under a caller who disabled it. A caller holding
  frozen objects gets one ``gc.collect(1)`` instead, and keeps them frozen;
- **the pipeline is acyclic by construction**: with the collector off, a
  whole build → ``run()`` → replica replay → crash recovery of every
  registered workload x scheme, a sharded run, a traced run and fault
  drills leave nothing behind that only the cyclic collector could free.
  That invariant, not a knob, is what makes the pause safe; a path that
  turns out cyclic gets its cycle broken, not an exemption here.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.chain.recovery import recover_node
from repro.chain.sov import SOVBlockchain, SOVConfig
from repro.chain.system import OEBlockchain, OEConfig
from repro.collector import collector_paused
from repro.faults.drill import run_drill
from repro.faults.plan import standard_plans
from repro.obs.trace import Tracer, attach_tracer
from repro.shard import ShardConfig, ShardedBlockchain, recover_shard_node
from repro.workloads import REGISTRY, ShardAffinity, make_workload


class Collections:
    """A ``gc.callbacks`` hook: the generation of every collection run."""

    def __init__(self) -> None:
        self.generations: list[int] = []

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "stop":
            self.generations.append(info["generation"])


@pytest.fixture
def collections():
    """The collector enabled on entry, its state put back on exit, and
    every collection in between on record. Starts from a full collection,
    so no automatic pass is due for the next few hundred allocations."""
    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    hook = Collections()
    gc.callbacks.append(hook)
    try:
        yield hook.generations
    finally:
        gc.callbacks.remove(hook)
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def churn() -> list:
    """More live container objects than the gen-0 threshold allows."""
    return [[i] for i in range(4 * gc.get_threshold()[0])]


class Ring:
    """A reference cycle (the instance refers to itself) that a weak
    reference can watch."""

    def __init__(self) -> None:
        self.me = self


def young_count() -> int:
    """Allocations since the last collection or settle (generation 0)."""
    return gc.get_count()[0]


class TestCollectorPaused:
    def test_pauses_settles_and_resumes(self, collections):
        with collector_paused():
            assert not gc.isenabled()
            kept = churn()
            assert collections == []  # nothing ran while paused
        assert gc.isenabled()
        assert collections == []  # and the settle walked nothing either
        del kept

    def test_leaves_no_collection_debt_to_the_caller(self, collections):
        with collector_paused():
            kept = churn()
            assert young_count() > gc.get_threshold()[0]
        # the survivors were aged inside the section that allocated them:
        # the caller's next allocation does not pay for a pass over them
        assert young_count() == 0
        assert collections == []
        del kept

    def test_the_survivors_sit_in_the_oldest_generation(self, collections):
        with collector_paused():
            kept = churn()
        ids = {id(obj) for obj in kept}
        assert sum(id(obj) in ids for obj in gc.get_objects(generation=2)) == len(kept)
        for young in (0, 1):
            assert not any(id(obj) in ids for obj in gc.get_objects(generation=young))
        assert gc.get_freeze_count() == 0  # nothing stays frozen
        del kept

    def test_a_cycle_left_in_a_section_is_freed_by_the_next_full_collection(
        self, collections
    ):
        with collector_paused():
            ring = weakref.ref(Ring())
        assert collections == []
        assert ring() is not None  # only the cyclic collector can free it ...
        gc.collect()
        assert ring() is None  # ... and the settle did not hide it from it

    def test_a_caller_s_frozen_objects_stay_frozen(self, collections):
        gc.freeze()
        try:
            held = gc.get_freeze_count()
            assert held > 0
            with collector_paused():
                kept = churn()
            assert gc.get_freeze_count() == held  # not released by the settle
            assert collections == [1]  # which was one pass over the young
            assert young_count() < gc.get_threshold()[0]
            assert gc.isenabled()
            ids = {id(obj) for obj in kept}
            assert sum(id(obj) in ids for obj in gc.get_objects(generation=2)) == len(kept)
        finally:
            gc.unfreeze()
        del kept

    def test_a_collector_the_caller_disabled_stays_disabled(self, collections):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
            kept = churn()
        assert not gc.isenabled()
        assert collections == []  # and nobody settled on its behalf
        assert young_count() > gc.get_threshold()[0]
        del kept

    def test_nested_entries_do_nothing(self, collections):
        with collector_paused():
            with collector_paused():
                kept = churn()
            # the inner exit neither settled nor re-enabled
            assert not gc.isenabled()
            assert collections == []
            assert young_count() > gc.get_threshold()[0]
            with collector_paused():
                pass
            assert not gc.isenabled()
            assert collections == []
        assert gc.isenabled()
        assert young_count() == 0  # the outermost exit settled
        assert collections == []
        del kept

    def test_an_exception_still_settles_and_resumes(self, collections):
        with pytest.raises(KeyError):
            with collector_paused():
                kept = churn()
                raise KeyError("boom")
        assert gc.isenabled()
        assert young_count() == 0
        assert collections == []
        del kept

    def test_decorated_function_is_paused_per_call(self, collections):
        @collector_paused()
        def walk(n: int) -> tuple:
            kept = churn()
            seen = gc.isenabled(), young_count() > gc.get_threshold()[0]
            del kept
            return (*seen, n)

        assert walk(1) == (False, True, 1)
        assert young_count() == 0
        assert walk(2) == (False, True, 2)
        assert gc.isenabled()
        assert collections == []

    def test_recovery_runs_paused(self, collections, monkeypatch):
        """Crash recovery walks blocks too: the engine rebuild and the
        replay run with the collector off, and the caller sees no
        collection and no pending one."""
        import repro.shard.recovery as recovery

        chain = OEBlockchain(
            OEConfig(**tiny("smallbank")), make_workload("smallbank", profile="conformance")
        )
        chain.run()
        rebuild, seen = recovery.rebuild_engine, []

        def observed(engine):
            seen.append(gc.isenabled())
            return rebuild(engine)

        monkeypatch.setattr(recovery, "rebuild_engine", observed)
        gc.collect()
        collections.clear()
        recovered = recover_node(chain.node)
        assert seen == [False]
        assert collections == []
        assert young_count() == 0
        assert recovered.state_hash() == chain.node.state_hash()

    def test_scaling_guard_times_paused_and_hands_the_collector_back(self, collections):
        """The micro ledger's guard used to end every clocked section with a
        bare ``gc.enable()``, switching on a collector its caller had off."""
        from repro.bench.perf import INDEPENDENT, scaling_guard

        seen = []

        def guard():
            build = lambda size: lambda: seen.append(gc.isenabled())  # noqa: E731
            scaling_guard("stand_in", build, INDEPENDENT, 1, "keys", clock=lambda: 0.0)

        guard()
        assert gc.isenabled()
        gc.disable()
        guard()
        assert not gc.isenabled()
        assert seen == [False] * 28  # 7 repeats x 2 sizes, twice


# ------------------------------------------------- acyclic by construction
def cyclic_garbage(scenario) -> int:
    """Objects only the cyclic collector can free once ``scenario()`` has
    returned and dropped everything it built. The collector is off while
    it runs (so are the pauses inside: they find it disabled), which leaves
    every cycle the scenario made for the final full collection to count."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        scenario()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def tiny(name: str) -> dict:
    return dict(block_size=10, num_blocks=3 if name == "tpcc" else 5, seed=11)


def order_execute(name: str, scheme: str, traced: bool = False) -> None:
    chain = OEBlockchain(
        OEConfig(system=scheme, **tiny(name)), make_workload(name, profile="conformance")
    )
    if traced:
        attach_tracer(chain, Tracer())
    metrics = chain.run()
    assert metrics.committed + metrics.aborted == 10 * chain.config.num_blocks
    assert chain.consistency_check()
    assert recover_node(chain.node).state_hash() == chain.node.state_hash()


def simulate_order_validate(name: str, scheme: str) -> None:
    chain = SOVBlockchain(
        SOVConfig(system=scheme, **tiny(name)), make_workload(name, profile="conformance")
    )
    assert chain.run().extra["ledger_ok"]


def three_shards() -> None:
    workload = make_workload("smallbank", profile="gate", affinity=ShardAffinity(3, 0.5))
    chain = ShardedBlockchain(
        ShardConfig(num_shards=3, checkpoint_interval=2, **tiny("smallbank")), workload
    )
    assert chain.run().extra["cross_shard_txns"] > 0
    assert chain.consistency_check()
    nodes = chain.group.nodes
    recovery = recover_shard_node(
        nodes[1], 1, [node.engine.store for node in nodes], chain.router, chain.cert_log
    )
    assert recovery.node.state_hash() == nodes[1].state_hash()


def drill(plan_name: str) -> None:
    plan = next(p for p in standard_plans(8, 2) if p.name == plan_name)
    result = run_drill("harmony", 2, plan)
    assert result.ok, result.failures


class TestThePipelineIsAcyclic:
    def test_the_count_sees_a_cycle_when_there_is_one(self):
        def scenario():
            ring: list = []
            ring.append(ring)

        assert cyclic_garbage(scenario) == 1

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    @pytest.mark.parametrize("scheme", ("serial", "harmony", "aria", "rbc"))
    def test_order_execute_run_replay_recover(self, scheme, name):
        assert cyclic_garbage(lambda: order_execute(name, scheme)) == 0

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    @pytest.mark.parametrize("scheme", ("fabric", "fastfabric"))
    def test_simulate_order_validate_run(self, scheme, name):
        assert cyclic_garbage(lambda: simulate_order_validate(name, scheme)) == 0

    def test_three_shard_run_replay_recover(self):
        assert cyclic_garbage(three_shards) == 0

    def test_traced_run(self):
        assert cyclic_garbage(lambda: order_execute("smallbank", "harmony", True)) == 0

    @pytest.mark.parametrize(
        "plan_name", ("crash-after-prepare", "partition-2pc", "migration-crash")
    )
    def test_fault_drill(self, plan_name):
        assert cyclic_garbage(lambda: drill(plan_name)) == 0
