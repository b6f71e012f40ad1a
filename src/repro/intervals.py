"""Shared interval machinery for range-read bookkeeping.

Every layer that reasons about predicate reads — intra-block dependency
extraction, Rule-3 inter-block folding, Aria's reservation checks, overlay
scans — needs the same two queries over half-open ranges ``[start, end)``:

- *stabbing*: which registered ranges cover a given key
  (:class:`RangeIndex`), and
- *slicing*: which keys of a set fall inside a given range
  (:class:`SortedKeys`).

Both are log-time indexes built on sorted boundaries, and :func:`covers`
is the one range predicate. Keys are totally ordered (every key is a
``(str, int, …)`` tuple; ``docs/artifacts.md``), so keys and bounds are
compared directly; a mixed-type population raises ``TypeError``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable


def covers(start: object, end: object, key: object) -> bool:
    """The canonical half-open range predicate: ``start <= key < end``."""
    return start <= key < end


class SortedKeys:
    """A sorted, de-duplicated key set answering ``[start, end)`` slices.

    Build once — O(n log n) — then each :meth:`in_range` query costs
    O(log n + hits) instead of a full scan.
    """

    __slots__ = ("_seen", "_sorted")

    def __init__(self, keys: Iterable[object]) -> None:
        self._sorted = sorted(set(keys))
        #: membership set for extend()'s dedup, built on first extend —
        #: the common build-once/query-many users never pay for it
        self._seen: set[object] | None = None

    def __len__(self) -> int:
        return len(self._sorted)

    def extend(self, keys: Iterable[object]) -> None:
        """Fold new keys into the index (one merge per batch).

        Lets a long-lived owner (e.g. the history oracle's growing
        write-chain directory) keep one index across additions instead of
        rebuilding from scratch: the batch is deduplicated against the
        existing key set and folded in with a single timsort pass
        (O(n + b log b), not a full re-sort).
        """
        seen = self._seen
        if seen is None:
            seen = self._seen = set(self._sorted)
        new = {key for key in keys if key not in seen}
        if not new:
            return
        seen.update(new)
        self._sorted.extend(sorted(new))
        self._sorted.sort()  # one merge of two sorted runs

    def in_range(self, start: object, end: object) -> list[object]:
        """Keys ``k`` with ``start <= k < end``, sorted."""
        lo = bisect_left(self._sorted, start)
        hi = bisect_left(self._sorted, end)
        return self._sorted[lo:hi]


class RangeIndex:
    """A sorted-boundary stabbing index over half-open ranges.

    Registered ranges carry an opaque payload; :meth:`stab` returns the
    payloads of every range covering a key, in registration order (so a
    de-duplicating caller observes the same first-seen order as a linear
    scan). The index is an event sweep: all boundaries are sorted once and
    each elementary segment between consecutive boundaries stores the
    ranges active over it, so a stab is one bisect plus the output.

    Per-segment materialization costs O(boundaries × overlap); when a
    pathological population of mutually-overlapping ranges would blow
    that up quadratically, the build bails out and stabs degrade to the
    linear scan (no worse than the naive path this index replaces).
    Intended usage is build-once/query-many: ``add`` after a stab
    triggers a full rebuild on the next query.
    """

    #: segment-slot budget multiplier before falling back to linear stabs
    _DENSE_FACTOR = 16

    __slots__ = ("_items", "_boundaries", "_segments", "_segmented", "_built")

    def __init__(self, items: Iterable[tuple[object, object, object]] = ()) -> None:
        #: (start, end, payload) in registration order
        self._items: list[tuple[object, object, object]] = list(items)
        self._boundaries: list[object] = []
        #: per-segment payload tuples, precomputed so a stab is allocation-free
        self._segments: list[tuple[object, ...]] = []
        self._segmented = True
        self._built = False

    def add(self, start: object, end: object, payload: object) -> None:
        self._items.append((start, end, payload))
        self._built = False

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def _build(self) -> None:
        self._built = True
        self._segmented = True
        bounds = sorted({b for s, e, _p in self._items for b in (s, e)})
        index_of = {b: i for i, b in enumerate(bounds)}
        add_at: list[list[int]] = [[] for _ in bounds]
        remove_at: list[list[int]] = [[] for _ in bounds]
        total_slots = 0
        for item_idx, (start, end, _payload) in enumerate(self._items):
            si, ei = index_of[start], index_of[end]
            if si < ei:  # empty/inverted ranges cover nothing
                add_at[si].append(item_idx)
                remove_at[ei].append(item_idx)
                total_slots += ei - si
        if total_slots > max(4096, self._DENSE_FACTOR * len(self._items)):
            # Dense mutual overlap: materializing every segment would be
            # quadratic; linear stabs are no worse than the naive scan.
            self._segmented = False
            return
        active: dict[int, None] = {}
        items = self._items
        segments: list[tuple[object, ...]] = []
        for i in range(len(bounds)):
            for item_idx in remove_at[i]:
                active.pop(item_idx, None)
            for item_idx in add_at[i]:
                active[item_idx] = None
            # Segment i spans [bounds[i], bounds[i+1]); keep registration
            # order so stabs match a naive forward scan.
            segments.append(tuple(items[idx][2] for idx in sorted(active)))
        self._boundaries = bounds
        self._segments = segments

    def stab(self, key: object) -> tuple[object, ...]:
        """Payloads of every range covering ``key``, in registration order."""
        if not self._items:
            return ()
        if not self._built:
            self._build()
        if self._segmented:
            pos = bisect_right(self._boundaries, key) - 1
            return self._segments[pos] if pos >= 0 else ()
        return tuple(
            payload
            for start, end, payload in self._items
            if covers(start, end, key)
        )
