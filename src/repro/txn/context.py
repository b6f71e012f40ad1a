"""Simulation-step execution context.

Runs a stored procedure against a block snapshot (Table 2c), recording the
read set (key + version), range reads and update commands. Costs of every
access are charged to the transaction through the storage engine, so I/O
behaviour (buffer hits vs page misses) shapes the transaction's simulated
duration.

Corner case (1) of Section 3.3.2 is handled here: a read of a key the
transaction itself updated evaluates the pending command against the
snapshot value (the command may thus be evaluated twice — once here, once
after reordering — but Rule 2 guarantees both evaluations agree).
"""

from __future__ import annotations

from repro.storage.engine import StorageEngine
from repro.storage.mvstore import TOMBSTONE, SnapshotView
from repro.txn.commands import (
    AddFields,
    AddValue,
    DeleteValue,
    MulValue,
    SetFields,
    SetValue,
    UpdateCommand,
)
from repro.txn.transaction import Txn


class SimulationContext:
    """The API stored procedures program against (the smart-contract ABI)."""

    def __init__(
        self,
        txn: Txn,
        snapshot: SnapshotView,
        engine: StorageEngine | None = None,
    ) -> None:
        self.txn = txn
        self.snapshot = snapshot
        self._engine = engine
        self.cost_us = 0.0

    # --------------------------------------------------------------- costs
    def charge(self, us: float) -> None:
        self.cost_us += us

    def _charge_read(self, key: object) -> None:
        if self._engine is not None:
            self.charge(self._engine.read_cost(key))

    def _charge_cpu(self) -> None:
        if self._engine is not None:
            self.charge(self._engine.costs.op_cpu_us)

    # --------------------------------------------------------------- reads
    def read(self, key: object) -> object | None:
        """Snapshot read; returns ``None`` for absent keys."""
        value, version = self.snapshot.get(key)
        if key not in self.txn.read_set:
            self.txn.read_set[key] = version
        self._charge_read(key)
        pending = self.txn.write_set.get(key)
        if pending is not None:
            value = self._evaluate_own(pending, value)
        return value

    def _evaluate_own(self, command: UpdateCommand, snapshot_value: object) -> object:
        result = command.apply(snapshot_value)
        self._charge_cpu()
        return None if result is TOMBSTONE else result

    def scan(self, start: object, end: object) -> list[tuple[object, object]]:
        """Range read [start, end); registers the range for phantom checks."""
        rows = list(self.snapshot.scan(start, end))
        self.txn.read_ranges.append((start, end))
        for key, _value in rows:
            if key not in self.txn.read_set:
                value, version = self.snapshot.get(key)
                self.txn.read_set[key] = version
        if self._engine is not None:
            self.charge(self._engine.scan_cost(max(1, len(rows))))
        # Apply own pending writes over the scanned window.
        merged: dict[object, object] = dict(rows)
        for key, command in self.txn.write_set.items():
            if start <= key < end:
                base = merged.get(key)
                if base is None:
                    base, _ = self.snapshot.get(key)
                try:
                    merged[key] = self._evaluate_own(command, base)
                except (KeyError, TypeError):
                    continue
        return sorted(
            ((k, v) for k, v in merged.items() if v is not None),
            key=lambda kv: kv[0],
        )

    # -------------------------------------------------------------- writes
    def update(self, key: object, command: UpdateCommand) -> None:
        """Record an update command without evaluating it (Section 3.3.1)."""
        self.txn.record_update(key, command)
        self._charge_cpu()

    def add(self, key: object, delta: float) -> None:
        self.update(key, AddValue(delta))

    def mul(self, key: object, factor: float) -> None:
        self.update(key, MulValue(factor))

    def write(self, key: object, value: object) -> None:
        self.update(key, SetValue(value))

    def insert(self, key: object, value: object) -> None:
        self.update(key, SetValue(value))

    def delete(self, key: object) -> None:
        self.update(key, DeleteValue())

    def set_fields(self, key: object, **updates: object) -> None:
        self.update(key, SetFields.of(**updates))

    def add_fields(self, key: object, **deltas: float) -> None:
        self.update(key, AddFields.of(**deltas))

    # ------------------------------------------------------------- helpers
    def read_for_update(self, key: object) -> object | None:
        """Read that documents intent to update; identical bookkeeping to
        :meth:`read` — the rw-dependency is what validation consumes."""
        return self.read(key)
