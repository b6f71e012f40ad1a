"""The update-command algebra (Section 3.3).

Harmony keeps *commands* (e.g. ``add(x, 10)``) in write sets instead of
evaluated values (e.g. ``x = 20``). During commit, the commands on each key
are reordered by Rule 2 and **coalesced** into a single physical update, so
many transactions updating a hotspot cost one index lookup / lock / page
write instead of N (Figure 5).

A command is *read-modify-write* (``reads_value``) when its result depends
on the value it is applied to — those induce wr-dependencies when ordered
after another update (Theorem 1 case 2). Blind commands (``set``,
``delete``) do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from repro.storage.mvstore import TOMBSTONE


class UpdateCommand:
    """Base class; subclasses are immutable value objects.

    Each is a ``@dataclass(frozen=True, slots=True)``. That decorator
    returns a new class, so a zero-argument ``super()`` in a subclass names
    the discarded one and raises ``TypeError``, which :func:`apply_safely`
    and the simulation step would take for a no-op or an abort: the shared
    rule is called as ``UpdateCommand.merge_after(self, earlier)``
    (``make one-commit-pass`` checks).
    """

    __slots__ = ()

    #: True when the command reads the value it overwrites (RMW).
    reads_value: bool = True

    def apply(self, old: object) -> object:
        raise NotImplementedError

    def merge_after(self, earlier: "UpdateCommand") -> "UpdateCommand | None":
        """If ``earlier; self`` simplifies to one primitive command, return
        it; otherwise ``None`` (callers fall back to :class:`Compose`).

        Shared rule: after a blind ``set`` the result is known now — another
        ``set``, of the value this command leaves (unchanged when the command
        would match zero rows: a merge never raises)."""
        if isinstance(earlier, SetValue):
            return SetValue(apply_safely(self, earlier.value))
        return None


@dataclass(frozen=True, slots=True)
class SetValue(UpdateCommand):
    """Blind write: ``x = value``."""

    value: object
    reads_value = False

    def apply(self, old: object) -> object:
        return self.value

    def merge_after(self, earlier: UpdateCommand) -> UpdateCommand:
        return self  # a blind write annihilates whatever came before


@dataclass(frozen=True, slots=True)
class DeleteValue(UpdateCommand):
    """Blind delete: install a tombstone."""

    reads_value = False

    def apply(self, old: object) -> object:
        return TOMBSTONE

    def merge_after(self, earlier: UpdateCommand) -> UpdateCommand:
        return self


@dataclass(frozen=True, slots=True)
class AddValue(UpdateCommand):
    """Scalar RMW: ``x = x + delta``."""

    delta: float

    def apply(self, old: object) -> object:
        if old is None or old is TOMBSTONE:
            raise KeyError("add() on a missing value")
        return old + self.delta

    def merge_after(self, earlier: UpdateCommand) -> UpdateCommand | None:
        if isinstance(earlier, AddValue):
            return AddValue(earlier.delta + self.delta)
        return UpdateCommand.merge_after(self, earlier)


@dataclass(frozen=True, slots=True)
class MulValue(UpdateCommand):
    """Scalar RMW: ``x = x * factor``."""

    factor: float

    def apply(self, old: object) -> object:
        if old is None or old is TOMBSTONE:
            raise KeyError("mul() on a missing value")
        return old * self.factor

    def merge_after(self, earlier: UpdateCommand) -> UpdateCommand | None:
        if isinstance(earlier, MulValue):
            return MulValue(earlier.factor * self.factor)
        return UpdateCommand.merge_after(self, earlier)


def _frozen_items(mapping: dict) -> tuple:
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True, slots=True)
class SetFields(UpdateCommand):
    """Record RMW: overwrite some fields, keep the rest."""

    updates: tuple = ()

    @staticmethod
    def of(**updates: object) -> "SetFields":
        return SetFields(_frozen_items(updates))

    def apply(self, old: object) -> object:
        if old is None or old is TOMBSTONE:
            raise KeyError("set_fields() on a missing record")
        if not isinstance(old, dict):
            raise TypeError("set_fields() on a non-record value")
        new = dict(old)
        new.update(self.updates)
        return new

    def merge_after(self, earlier: UpdateCommand) -> UpdateCommand | None:
        if isinstance(earlier, SetFields):
            merged = dict(earlier.updates)
            merged.update(self.updates)
            return SetFields(_frozen_items(merged))
        return UpdateCommand.merge_after(self, earlier)


@dataclass(frozen=True, slots=True)
class AddFields(UpdateCommand):
    """Record RMW: add deltas to numeric fields."""

    deltas: tuple = ()

    @staticmethod
    def of(**deltas: float) -> "AddFields":
        return AddFields(_frozen_items(deltas))

    def apply(self, old: object) -> object:
        if old is None or old is TOMBSTONE:
            raise KeyError("add_fields() on a missing record")
        if not isinstance(old, dict):
            raise TypeError("add_fields() on a non-record value")
        new = dict(old)
        for name, delta in self.deltas:
            new[name] = new.get(name, 0) + delta
        return new

    def merge_after(self, earlier: UpdateCommand) -> UpdateCommand | None:
        if isinstance(earlier, AddFields):
            merged = dict(earlier.deltas)
            for name, delta in self.deltas:
                merged[name] = merged.get(name, 0) + delta
            return AddFields(_frozen_items(merged))
        if isinstance(earlier, SetFields):
            # set then add: computable now when the set supplies every added
            # field; a field it leaves alone (KeyError) or a non-numeric set
            # value (TypeError) stays a Compose
            set_map = dict(earlier.updates)
            try:
                for name, delta in self.deltas:
                    set_map[name] = set_map[name] + delta
            except (KeyError, TypeError):
                return None
            return SetFields(_frozen_items(set_map))
        return UpdateCommand.merge_after(self, earlier)


@dataclass(frozen=True, slots=True)
class Compose(UpdateCommand):
    """Sequential composition: apply ``commands`` left to right, each part
    with :func:`apply_safely`'s matched-zero-rows semantics — a part whose
    base is missing or mistyped is a no-op *for that part*, exactly as if
    the parts had been applied one physical update at a time. (Failing as
    a whole would undo the parts that did apply: ``delete; add`` would
    resurrect the row.)"""

    commands: tuple = dc_field(default=())

    @property
    def reads_value(self) -> bool:  # type: ignore[override]
        return self.commands[0].reads_value if self.commands else False

    def apply(self, old: object) -> object:
        value = old
        for command in self.commands:
            value = apply_safely(command, value)
        return value


def apply_safely(command: UpdateCommand, base: object) -> object:
    """Apply a command; a missing/mistyped base makes it a no-op.

    Mirrors SQL semantics: an UPDATE whose row vanished (e.g. deleted by the
    previous block under inter-block parallelism) matches zero rows.
    """
    try:
        return command.apply(base)
    except (KeyError, TypeError):
        return base


def coalesce(commands: list[UpdateCommand]) -> UpdateCommand:
    """Fold an ordered command list into one command (Figure 5b).

    Adjacent commands are merged when an algebraic simplification exists
    (``add∘add``, blind-write annihilation, ...); otherwise the result is a
    :class:`Compose`, which still yields a *single* physical plan — one
    index lookup, one latch, one page write.

    The law (``tests/test_commands.py``): for every command list and base,
    ``apply_safely(coalesce(cmds), base)`` equals applying the commands one
    by one with :func:`apply_safely` — coalescing changes the cost, never
    the value.
    """
    if not commands:
        raise ValueError("cannot coalesce an empty command list")
    parts: list[UpdateCommand] = []
    for command in commands:
        pieces = command.commands if isinstance(command, Compose) else (command,)
        for piece in pieces:
            if not piece.reads_value:
                parts.clear()  # blind write: everything before it is dead
                parts.append(piece)
                continue
            if parts:
                merged = piece.merge_after(parts[-1])
                if merged is not None:
                    parts[-1] = merged
                    continue
            parts.append(piece)
    if len(parts) == 1:
        return parts[0]
    return Compose(tuple(parts))
