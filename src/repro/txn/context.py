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
        # bound once per transaction: a read is then one snapshot lookup
        # and one page charge
        self._get = snapshot.get
        self._access = None if engine is None else engine.heap.access
        self._op_cpu_us = None if engine is None else engine.costs.op_cpu_us

    # --------------------------------------------------------------- costs
    def charge(self, us: float) -> None:
        self.cost_us += us

    # --------------------------------------------------------------- reads
    def read(self, key: object) -> object | None:
        """Snapshot read; returns ``None`` for absent keys."""
        value, version = self._get(key)
        txn = self.txn
        if key not in txn.read_set:
            txn.read_set[key] = version
        if self._access is not None:
            self.cost_us += self._access(key)
        pending = txn.write_set.get(key)
        if pending is not None:
            value = self._evaluate_own(pending, value)
        return value

    def _evaluate_own(self, command: UpdateCommand, snapshot_value: object) -> object:
        result = command.apply(snapshot_value)
        if self._op_cpu_us is not None:
            self.cost_us += self._op_cpu_us
        return None if result is TOMBSTONE else result

    def scan(self, start: object, end: object) -> list[tuple[object, object]]:
        """Range read [start, end); registers the range for phantom checks.

        An own pending write inside the range is evaluated as :meth:`read`
        evaluates it: a command that fails on the snapshot value raises
        here too, and the transaction aborts with the same error."""
        rows = list(self.snapshot.scan(start, end))
        self.txn.read_ranges.append((start, end))
        for key, _value in rows:
            if key not in self.txn.read_set:
                value, version = self._get(key)
                self.txn.read_set[key] = version
        if self._engine is not None:
            self.charge(self._engine.scan_cost(max(1, len(rows))))
        # Apply own pending writes over the scanned window.
        merged: dict[object, object] = dict(rows)
        for key, command in self.txn.write_set.items():
            if start <= key < end:
                base = merged.get(key)
                if base is None:
                    base, _ = self._get(key)
                merged[key] = self._evaluate_own(command, base)
        return sorted(
            ((k, v) for k, v in merged.items() if v is not None),
            key=lambda kv: kv[0],
        )

    # -------------------------------------------------------------- writes
    def update(self, key: object, command: UpdateCommand) -> None:
        """Record an update command without evaluating it (Section 3.3.1).

        A key's first update is recorded here; a repeat goes through
        :meth:`Txn.record_update <repro.txn.transaction.Txn.record_update>`,
        which coalesces it with the key's command (corner case 2)."""
        txn = self.txn
        if key in txn.write_set:
            txn.record_update(key, command)
        else:
            txn.write_set[key] = command
            txn.updated_keys.append(key)
        if self._op_cpu_us is not None:
            self.cost_us += self._op_cpu_us

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

    # the field commands in ``SetFields.of`` / ``AddFields.of``'s normal form
    # (the items sorted), built here without a second pass over the keywords
    def set_fields(self, key: object, **updates: object) -> None:
        self.update(key, SetFields(tuple(sorted(updates.items()))))

    def add_fields(self, key: object, **deltas: float) -> None:
        self.update(key, AddFields(tuple(sorted(deltas.items()))))

    # ------------------------------------------------------------- helpers
    def read_for_update(self, key: object) -> object | None:
        """Read that documents intent to update; identical bookkeeping to
        :meth:`read` — the rw-dependency is what validation consumes."""
        return self.read(key)
