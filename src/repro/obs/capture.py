"""Seeded traced runs: the capture surface behind ``python -m repro.obs``.

:func:`trace_run` runs a sharded chain from the workload registry with a
tracer armed end to end; :func:`trace_drill` arms a tracer on the
disturbed side of a fault drill (:func:`repro.faults.drill.run_drill`),
so supervision and injected-fault events land in the span stream next to
the pipeline stages they disturbed.
"""

from __future__ import annotations

from repro.obs.trace import Tracer, attach_tracer


def build_workload(name: str, num_shards: int):
    from repro.workloads import make_workload
    from repro.workloads.base import ShardAffinity

    affinity = ShardAffinity(num_shards, 0.5) if num_shards > 1 else None
    return make_workload(name, profile="gate", affinity=affinity)


def trace_run(
    workload: str = "smallbank",
    scheme: str = "harmony",
    num_shards: int = 2,
    num_blocks: int = 8,
    block_size: int = 8,
    seed: int = 61,
):
    """One seeded sharded run with tracing armed; returns (tracer, metrics)."""
    from repro.shard.system import ShardConfig, ShardedBlockchain

    config = ShardConfig(
        system=scheme,
        num_shards=num_shards,
        block_size=block_size,
        num_blocks=num_blocks,
        seed=seed,
    )
    chain = ShardedBlockchain(config, build_workload(workload, num_shards))
    tracer = Tracer(
        meta={
            "mode": "run",
            "workload": workload,
            "scheme": scheme,
            "shards": num_shards,
            "blocks": num_blocks,
            "block_size": block_size,
            "seed": seed,
        }
    )
    attach_tracer(chain, tracer)
    return tracer, chain.run()


def drill_plan(plan_name: str, num_blocks: int, num_shards: int, seed: int):
    """The standard fault plan ``plan_name`` laid out for a drill of this
    shape; ``ValueError`` for an unknown name or too few blocks."""
    from repro.faults.plan import standard_plans

    plans = {p.name: p for p in standard_plans(num_blocks, num_shards, seed)}
    if plan_name not in plans:
        raise ValueError(f"unknown fault plan {plan_name!r}; have {sorted(plans)}")
    return plans[plan_name]


def trace_drill(
    plan_name: str = "crash-before-prepare",
    scheme: str = "harmony",
    num_shards: int = 2,
    workload: str = "smallbank",
    num_blocks: int = 8,
    block_size: int = 8,
    seed: int = 61,
):
    """One traced fault drill; returns (tracer, DrillResult).

    The tracer rides the *disturbed* chain, so injected crash/retry/
    recovery events appear as ``fault`` spans amid the pipeline stages.
    The drill's bit-identity verdict against the undisturbed reference is
    recorded in the tracer meta.
    """
    from repro.faults.drill import run_drill

    plan = drill_plan(plan_name, num_blocks, num_shards, seed)
    tracer = Tracer(
        meta={
            "mode": "drill",
            "plan": plan_name,
            "workload": workload,
            "scheme": scheme,
            "shards": num_shards,
            "blocks": num_blocks,
            "block_size": block_size,
            "seed": seed,
        }
    )
    result = run_drill(
        scheme,
        num_shards,
        plan,
        num_blocks=num_blocks,
        block_size=block_size,
        workload=workload,
        tracer=tracer,
    )
    tracer.meta["drill_ok"] = result.ok
    tracer.meta.update({f"drill_{k}": v for k, v in result.stats.items()})
    return tracer, result
