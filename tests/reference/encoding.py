"""The value text's reference (``repro/encoding.py``): the grammar's
recursive definition, one rule per line, before ``encode`` formatted a
row's fields in the row's own loop."""

from __future__ import annotations


def encode(value: object) -> str:
    """Dicts by sorted field, integral floats as ints, anything else by
    ``repr``."""
    if isinstance(value, dict):
        inner = ",".join(f"{k}={encode(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)
