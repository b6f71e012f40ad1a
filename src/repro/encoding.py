"""The one text of every key, spec parameter and stored value.

Replicas agree because they are deterministic, and a digest agrees only
if every replica forms the same bytes for the same key, parameter and row:
the state-hash entries, the block header's spec texts, the router's hash,
a migration's certificate payload and every sort that fixes an apply
order all read their text from here. ``docs/artifacts.md`` writes the
grammar down, with the record formats that embed it.

- :data:`key_text` — a key (a ``(str, int, …)`` tuple) or a spec's params
  tuple (``(name, value)`` pairs whose values are str / int / float atoms
  or tuples of them): the tuple's Python ``repr``. It is the builtin bound
  under this name, so the paths that sort and hash every key of a block
  (state hash, commit-step order, routing) pay no extra call frame.
- :func:`encode` — a stored value: an int, a float (integral ones as
  ints, so 10.0 and 10 are one state), or a flat row of str / int / float
  / ``None`` fields written ``{name=value,...}`` in sorted field order.

``tests/test_encoding.py`` holds every registered workload to this
grammar; a value outside it is not rejected here, only not promised a
text distinct from every other value's.
"""

from __future__ import annotations

#: the text of a key or a spec's params tuple
key_text = repr


#: a row's shape (the frozenset of its field names) -> the names, sorted.
#: A workload writes a handful of row shapes, so each is sorted once. Only
#: ``str`` names are remembered: ``1``, ``1.0`` and ``True`` are one dict
#: key with three texts, so a shape of other names is sorted per row. The
#: first ``_SHAPES_KEPT`` shapes are kept, which bounds the memo.
_FIELD_ORDER: dict[frozenset, list] = {}
_SHAPES_KEPT = 1024


def encode(value: object) -> str:
    """The text of a stored value, for state hashing and migration payloads.

    Dicts print as ``{k=v,...}`` in sorted field order, integral floats as
    ints (10.0 and 10 are one state), everything else as its ``repr``. A
    row's field names are sorted once per row shape, and its ``str`` /
    ``int`` / ``float`` / ``None`` fields are formatted in the row's own
    loop, by exact type, so a flat row costs no call per field; only nested
    rows and other field types recurse.
    """
    if isinstance(value, dict):
        shape = frozenset(value)
        try:
            names = _FIELD_ORDER[shape]
        except KeyError:
            names = sorted(shape)
            if len(_FIELD_ORDER) < _SHAPES_KEPT and all(type(n) is str for n in names):
                _FIELD_ORDER[shape] = names
        text = ""
        for name in names:
            item = value[name]
            kind = type(item)
            if kind is str or kind is int or item is None:
                text += f",{name}={item!r}"
            elif kind is float:
                text += f",{name}={int(item)}" if item.is_integer() else f",{name}={item!r}"
            else:
                text += f",{name}={encode(item)}"
        return "{" + text[1:] + "}"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)
