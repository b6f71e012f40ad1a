"""The one text of every key, parameter and stored value (``repro/encoding.py``).

Three contracts, over the grammar ``docs/artifacts.md`` writes down:

- **the census**: every registered workload, run on two shards at its gate
  profile with static and with adaptive ownership, puts only grammar
  values into a spec or a store — keys are ``(str, int, …)`` tuples,
  params ``(name, value)`` pairs of str / int / float atoms and tuples of
  them, stored values ints, floats, or flat rows of str / int / float /
  ``None`` fields under identifier names, every float finite;
- **one text**: on keys and params tuples ``encode`` is ``repr`` byte for
  byte, so the spec text, the routing hash and the state hash read one
  function's output;
- **no collision**: over the grammar, equal texts mean equal values — for
  values, keys, params, and the state hash's ``key->value;`` entries.
"""

from __future__ import annotations

import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding import encode, key_text
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.storage.mvstore import TOMBSTONE
from repro.workloads import REGISTRY, ShardAffinity, make_workload


# ------------------------------------------------------------- the grammar
def is_number(x) -> bool:
    return type(x) is int or (type(x) is float and math.isfinite(x))


def is_key(x) -> bool:
    return (
        type(x) is tuple
        and len(x) >= 2
        and type(x[0]) is str
        and all(type(part) is int for part in x[1:])
    )


def is_param_value(x) -> bool:
    if type(x) is tuple:
        return all(is_param_value(item) for item in x)
    return type(x) is str or is_number(x)


def is_params(x) -> bool:
    return type(x) is tuple and all(
        type(pair) is tuple
        and len(pair) == 2
        and type(pair[0]) is str
        and is_param_value(pair[1])
        for pair in x
    )


def is_value(x) -> bool:
    if type(x) is dict:
        return all(
            type(name) is str
            and name.isidentifier()
            and (field is None or type(field) is str or is_number(field))
            for name, field in x.items()
        )
    return is_number(x)


# -------------------------------------------------------------- the census
def census(name: str, rebalance: str):
    """``(specs, keys, values)`` of one sharded run: every spec ordered
    (retries included), every key a store holds or the router placed, every
    stored version that is not a deletion."""
    workload = make_workload(name, profile="gate", affinity=ShardAffinity(2, 0.5))
    config = ShardConfig(
        num_shards=2,
        block_size=10,
        num_blocks=8,
        seed=11,
        keep_history=True,
        rebalance=rebalance,
    )
    chain = ShardedBlockchain(config, workload)
    chain.run()
    stores = [node.engine.store for node in chain.group.nodes]
    specs = [txn.spec for record in chain.history for txn in record.merged_txns]
    keys = {key for store in stores for key in store._versions}
    keys.update(chain.router._static_owners)
    values = [
        value
        for store in stores
        for versions in store._versions.values()
        for _version, value in versions
        if value is not TOMBSTONE
    ]
    return specs, keys, values


@pytest.mark.parametrize("rebalance", ["off", "adaptive"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_workload_stays_inside_the_grammar(name, rebalance):
    specs, keys, values = census(name, rebalance)
    assert specs and keys and values
    for spec in specs:
        assert is_params(spec.params), spec
        assert spec.canonical == f"{spec.proc}({encode(spec.params)})"
    for key in keys:
        assert is_key(key), key
    for value in values:
        assert is_value(value), value


# ------------------------------------------------- one text, no collisions
#: field values spelling one another's texts: 1 vs 1.0 vs "1", None vs
#: "None", separators inside strings
_TRICKY_FIELDS = [None, "None", 0, -0.0, 1, 1.0, "1", "1.0", 0.5, "0.5", "a", "'a'", "a=1", "1,b=2", "}"]
_TRICKY_VALUES = [0, -0.0, 1, 1.0, 0.5, 12] + [
    dict(zip(names, fields))
    for names in ((), ("a",), ("b",), ("a", "b"))
    for fields in product(_TRICKY_FIELDS, repeat=len(names))
]
_TRICKY_KEYS = [("a", 1), ("a", 1, 2), ("a'", 1), ('a"', 1), ("a->1", 1), (";", 0)]

_text = st.text("ab1.'\"=,;{}()-> \\", max_size=3)
_numbers = (
    st.integers(-3, 12)
    | st.sampled_from([0.5, -0.0, 1.0, 12.0, -3.5, 0.1, 1e16, 1e22])
    | st.floats(allow_nan=False, allow_infinity=False)
)
_keys = st.builds(
    lambda table, ids: (table, *ids), _text, st.lists(st.integers(-3, 12), min_size=1, max_size=3)
)
_param_values = st.recursive(
    _text | _numbers, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)
_params = st.lists(st.tuples(_text, _param_values), max_size=3).map(tuple)
_values = _numbers | st.dictionaries(
    st.sampled_from(["a", "b", "a_b"]), st.none() | _text | _numbers, max_size=3
)


def assert_one_value_per_text(text, items) -> None:
    seen = {}
    for item in items:
        first = seen.setdefault(text(item), item)
        assert first == item, (text(item), first, item)


def entry_text(entry) -> str:
    key, value = entry
    return f"{key_text(key)}->{encode(value)};"


@given(_keys | _params)
def test_keys_and_params_encode_as_their_repr(x):
    assert is_key(x) or is_params(x)
    assert encode(x) == key_text(x) == repr(x)


def test_no_two_unequal_tricky_values_or_entries_share_a_text():
    assert all(map(is_value, _TRICKY_VALUES)) and all(map(is_key, _TRICKY_KEYS))
    assert_one_value_per_text(encode, _TRICKY_VALUES)
    assert_one_value_per_text(entry_text, product(_TRICKY_KEYS, _TRICKY_VALUES))


@given(st.lists(_values, max_size=12), st.lists(st.tuples(_keys, _values), max_size=12))
@settings(max_examples=200)
def test_equal_value_and_entry_texts_mean_equal_values(values, entries):
    assert all(map(is_value, values))
    assert_one_value_per_text(encode, values)
    assert_one_value_per_text(entry_text, entries)


@given(st.lists(_keys, max_size=12), st.lists(_params, max_size=12))
def test_equal_key_and_params_texts_mean_equal_tuples(keys, params):
    assert_one_value_per_text(key_text, keys)
    assert_one_value_per_text(key_text, params)
