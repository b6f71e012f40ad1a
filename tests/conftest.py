"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.obs.trace import Tracer
from repro.storage.checkpoint import Checkpoint
from repro.storage.engine import StorageEngine
from repro.txn.commands import AddValue, MulValue, SetValue
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import Txn, TxnSpec

from tests import reference


def make_engine(num_keys: int = 64, pool_pages: int = 8, **engine_kwargs) -> StorageEngine:
    engine = StorageEngine(pool_pages=pool_pages, **engine_kwargs)
    engine.preload({("k", i): 100 for i in range(num_keys)})
    return engine


def charged_writes(engine: StorageEngine) -> list:
    """Record, from now on, every key ``engine``'s commit step charges a
    physical update for (one entry per charge, in charge order)."""
    charged: list = []
    commit_inputs = engine.commit_inputs

    def recording(keys, charge=None):
        charged.extend(keys if charge is None else charge)
        return commit_inputs(keys, charge)

    engine.commit_inputs = recording
    return charged


def generic_registry() -> ProcedureRegistry:
    """A procedure that executes a literal list of operations.

    ops entries: ("r", i) read | ("add", i, d) | ("mul", i, f) | ("set", i, v)
    | ("rmw", i, d) separated read-then-write | ("scan", lo, hi).
    Used by unit and property tests to build arbitrary conflict patterns.
    """
    registry = ProcedureRegistry()

    @registry.register("ops")
    def ops_proc(ctx, ops):
        out = []
        for op in ops:
            kind = op[0]
            if kind == "r":
                out.append(ctx.read(("k", op[1])))
            elif kind == "add":
                ctx.update(("k", op[1]), AddValue(op[2]))
            elif kind == "mul":
                ctx.update(("k", op[1]), MulValue(op[2]))
            elif kind == "set":
                ctx.update(("k", op[1]), SetValue(op[2]))
            elif kind == "rmw":
                value = ctx.read(("k", op[1])) or 0
                ctx.update(("k", op[1]), SetValue(value + op[2]))
            elif kind == "scan":
                out.append(tuple(ctx.scan(("k", op[1]), ("k", op[2]))))
        return tuple(out)

    return registry


def make_txns(op_lists, block_id: int = 0, first_tid: int = 0) -> list[Txn]:
    return [
        Txn(tid=first_tid + i, block_id=block_id, spec=TxnSpec("ops", (("ops", tuple(ops)),)))
        for i, ops in enumerate(op_lists)
    ]


def assert_checkpoints_identical(folded: Checkpoint, ref: Checkpoint) -> None:
    """Content *and* key order: recovery derives version tags from the
    dict order of ``state`` / ``prev_state``."""
    assert folded.block_id == ref.block_id
    assert folded.state == ref.state
    assert list(folded.state) == list(ref.state)
    assert folded.prev_state == ref.prev_state
    assert list(folded.prev_state) == list(ref.prev_state)
    assert folded.block_writes == ref.block_writes
    assert folded.meta == ref.meta


def full_snapshot_at_boundary(engine: StorageEngine, block_id: int) -> Checkpoint:
    """Call right after ``block_id`` — a checkpoint boundary — committed:
    asserts the recovery point ``engine``'s checkpoint chain reconstructs
    equals the seed's full deep-copy snapshot of the live store, and returns
    that snapshot. Recovery starts from ``latest()`` and nothing else, so
    this is the whole bit-identity argument for chain-based recovery."""
    latest = engine.checkpoints.latest()
    snapshot = reference.full_checkpoint(
        engine.store,
        block_id,
        latest.meta,
        reference.writes_in_block(engine.store, block_id),
    )
    assert_checkpoints_identical(latest, snapshot)
    return snapshot


class History(Tracer):
    """A tracer that also keeps each decided block's
    :class:`~repro.shard.system.GlobalBlockOutcome`. A run keeps none (a
    block's transactions die with it), so a test that reads per-block
    executions, participants or merged transactions arms one."""

    def __init__(self) -> None:
        super().__init__()
        self.outcomes: list = []

    def decided(self, outcome, *args) -> None:
        self.outcomes.append(outcome)
        super().decided(outcome, *args)


def run_with_history(chain) -> tuple:
    """``chain.run()`` with a :class:`History` armed: ``(metrics, outcomes)``."""
    chain.tracer = history = History()
    return chain.run(), history.outcomes


@pytest.fixture
def engine() -> StorageEngine:
    return make_engine()


@pytest.fixture
def registry() -> ProcedureRegistry:
    return generic_registry()
