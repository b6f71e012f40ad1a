"""Unit + property tests for the update-command algebra (Section 3.3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.mvstore import TOMBSTONE
from repro.txn.commands import (
    AddFields,
    AddValue,
    Compose,
    DeleteValue,
    MulValue,
    SetFields,
    SetValue,
    apply_safely,
    coalesce,
)


class TestPrimitives:
    def test_set_is_blind(self):
        assert SetValue(5).reads_value is False
        assert SetValue(5).apply(123) == 5

    def test_delete_installs_tombstone(self):
        assert DeleteValue().apply(7) is TOMBSTONE
        assert DeleteValue().reads_value is False

    def test_add_and_mul_are_rmw(self):
        assert AddValue(3).reads_value is True
        assert MulValue(2).reads_value is True
        assert AddValue(3).apply(10) == 13
        assert MulValue(3).apply(10) == 30

    def test_rmw_on_missing_value_raises(self):
        with pytest.raises(KeyError):
            AddValue(1).apply(None)
        with pytest.raises(KeyError):
            MulValue(2).apply(TOMBSTONE)

    def test_set_fields_overwrites_subset(self):
        cmd = SetFields.of(a=1)
        assert cmd.apply({"a": 0, "b": 2}) == {"a": 1, "b": 2}

    def test_set_fields_rejects_non_record(self):
        with pytest.raises(TypeError):
            SetFields.of(a=1).apply(42)

    def test_add_fields_accumulates(self):
        cmd = AddFields.of(x=5, y=-1)
        assert cmd.apply({"x": 1, "y": 1}) == {"x": 6, "y": 0}

    def test_add_fields_creates_missing_field(self):
        assert AddFields.of(z=2).apply({"x": 1}) == {"x": 1, "z": 2}

    def test_commands_do_not_mutate_input_record(self):
        base = {"x": 1}
        AddFields.of(x=1).apply(base)
        SetFields.of(x=9).apply(base)
        assert base == {"x": 1}


class TestCoalesce:
    def test_paper_example_add_then_mul(self):
        # T1 add(x,10), T2 mul(x,3) ordered [T2, T1]: mul first then add
        merged = coalesce([MulValue(3), AddValue(10)])
        assert merged.apply(10) == 40  # the Section 3.3.1 example

    def test_add_add_merges_to_single_add(self):
        merged = coalesce([AddValue(2), AddValue(5)])
        assert isinstance(merged, AddValue)
        assert merged.delta == 7

    def test_mul_mul_merges(self):
        merged = coalesce([MulValue(2), MulValue(3)])
        assert isinstance(merged, MulValue)
        assert merged.factor == 6

    def test_blind_write_annihilates_prefix(self):
        merged = coalesce([AddValue(5), MulValue(2), SetValue(9)])
        assert isinstance(merged, SetValue)
        assert merged.apply(None) == 9  # no RMW left: safe on missing base

    def test_set_then_add_folds_into_set(self):
        merged = coalesce([SetValue(10), AddValue(5)])
        assert isinstance(merged, SetValue)
        assert merged.value == 15

    def test_mixed_falls_back_to_compose(self):
        merged = coalesce([AddValue(1), MulValue(2)])
        assert isinstance(merged, Compose)
        assert merged.apply(3) == 8
        assert merged.reads_value is True

    def test_nested_compose_flattens(self):
        inner = coalesce([AddValue(1), MulValue(2)])
        merged = coalesce([inner, AddValue(10)])
        assert merged.apply(3) == 18

    def test_field_commands_merge(self):
        merged = coalesce([AddFields.of(x=1), AddFields.of(x=2, y=3)])
        assert isinstance(merged, AddFields)
        assert merged.apply({"x": 0, "y": 0}) == {"x": 3, "y": 3}

    def test_set_fields_then_add_fields_on_same_field(self):
        merged = coalesce([SetFields.of(x=10), AddFields.of(x=5)])
        assert isinstance(merged, SetFields)
        assert merged.apply({"x": 0}) == {"x": 15}

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            coalesce([])


def _command_strategy():
    scalar = st.integers(min_value=-50, max_value=50)
    return st.one_of(
        scalar.map(AddValue),
        st.integers(min_value=1, max_value=5).map(MulValue),
        scalar.map(SetValue),
    )


class TestCoalesceProperties:
    @given(st.lists(_command_strategy(), min_size=1, max_size=8), st.integers(-100, 100))
    def test_coalesce_equals_sequential_application(self, commands, base):
        expected = base
        for command in commands:
            expected = command.apply(expected)
        assert coalesce(commands).apply(base) == expected

    @given(st.lists(_command_strategy(), min_size=1, max_size=8))
    def test_coalesce_is_associative_in_grouping(self, commands):
        whole = coalesce(commands)
        if len(commands) > 1:
            split = len(commands) // 2
            regrouped = coalesce(
                [coalesce(commands[:split]), coalesce(commands[split:])]
            )
            assert whole.apply(7) == regrouped.apply(7)

    @given(st.lists(_command_strategy(), min_size=1, max_size=6))
    def test_blind_coalesced_command_never_needs_base(self, commands):
        merged = coalesce(commands)
        if not merged.reads_value:
            # must be applicable to a missing value without raising
            merged.apply(None)


_scalars = st.integers(min_value=-20, max_value=20)
_records = st.dictionaries(st.sampled_from("abc"), _scalars, max_size=3)
#: every primitive command type; payloads are integers (and records of
#: integers) so the algebraic merges (add∘add -> one add) are exact — float
#: reassociation is the one liberty coalescing takes, and it is not a
#: commit/abort or no-op question
_primitives = st.one_of(
    _scalars.map(AddValue),
    st.integers(min_value=-3, max_value=3).map(MulValue),
    st.one_of(st.none(), _scalars, _records).map(SetValue),
    st.just(DeleteValue()),
    _records.map(lambda fields: SetFields.of(**fields)),
    _records.map(lambda fields: AddFields.of(**fields)),
)
_commands = st.one_of(
    _primitives, st.lists(_primitives, max_size=3).map(lambda p: Compose(tuple(p)))
)
#: missing, deleted (what a DeleteValue leaves mid-chain), scalar, record
_bases = st.one_of(st.none(), st.just(TOMBSTONE), _scalars, _records)


def _serial(commands, base):
    """One physical update per command: the ``coalesce=False`` path."""
    for command in commands:
        base = apply_safely(command, base)
    return base


class TestCoalesceLaw:
    """Coalescing changes the cost of a key's update chain, never its
    value: ``apply_safely(coalesce(cmds), base)`` is the left fold of
    ``apply_safely`` for every command list and base — including the
    matched-zero-rows no-ops in the middle of a chain."""

    @given(st.lists(_commands, min_size=1, max_size=6), _bases)
    @settings(max_examples=500, deadline=None)
    def test_coalesced_equals_serial(self, commands, base):
        assert apply_safely(coalesce(commands), base) == _serial(commands, base)

    def test_delete_then_add_stays_deleted(self):
        # the Compose used to raise as a whole, undoing the delete
        commands = [DeleteValue(), AddValue(5)]
        assert _serial(commands, 10) is TOMBSTONE
        assert apply_safely(coalesce(commands), 10) is TOMBSTONE

    def test_set_none_then_add_does_not_raise(self):
        # merge_after used to evaluate add(None) outside apply_safely and
        # raise KeyError out of the commit step
        commands = [SetValue(None), AddValue(5)]
        assert apply_safely(coalesce(commands), 3) is _serial(commands, 3) is None

    def test_set_fields_then_add_on_scalar_applies_the_add(self):
        # the mistyped SetFields is a no-op for itself, not for the chain
        commands = [SetFields.of(a=1), AddValue(5)]
        assert apply_safely(coalesce(commands), 10) == _serial(commands, 10) == 15


class TestApplySafely:
    def test_noop_on_missing_base(self):
        assert apply_safely(AddValue(5), None) is None

    def test_normal_application(self):
        assert apply_safely(AddValue(5), 10) == 15

    def test_type_mismatch_is_noop(self):
        assert apply_safely(SetFields.of(a=1), 42) == 42
