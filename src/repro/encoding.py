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


def encode(value: object) -> str:
    """The text of a stored value, for state hashing and migration payloads.

    Dicts print as ``{k=v,...}`` in sorted field order, integral floats as
    ints (10.0 and 10 are one state), everything else as its ``repr``. A
    row's ``str`` / ``int`` / ``float`` fields are formatted in the row's
    own loop, by exact type, so a flat row costs one sort and one string
    per field; only nested rows and other field types recurse.
    """
    if isinstance(value, dict):
        fields = []
        for name, item in sorted(value.items()):
            kind = type(item)
            if kind is str or kind is int:
                text = repr(item)
            elif kind is float:
                text = str(int(item)) if item.is_integer() else repr(item)
            else:
                text = encode(item)
            fields.append(f"{name}={text}")
        return "{" + ",".join(fields) + "}"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)
