"""Multi-versioned key-value store with block snapshots.

Block snapshots are the deterministic read source of optimistic DCC
(Table 2c): the state after block *b* is identical on every replica, so a
transaction in block *b+1* (or *b+2* under inter-block parallelism) that
reads "the snapshot of block *b*" reads the same values everywhere,
regardless of message delays.

Versions are tagged ``(block_id, seq)`` where ``seq`` is the apply order
within the block — the sub-block component is what SOV-style validation
(Fabric) compares read versions against.

Hot-path notes:

- :meth:`MVStore.load` builds the sorted key directory with one sort
  (O(n log n)) instead of a per-key ``insort`` (O(n²) on large workload
  populates); a later load or :meth:`MVStore.apply_block` sorts only its
  batch of new keys and merges it in, bisecting from each key's
  predecessor (an append when the batch sorts after the directory).
- :meth:`SnapshotView.get` (every simulated read) and
  :meth:`SnapshotView.scan` take a chain's newest version when it is
  visible at the snapshot and otherwise bisect the chain in C
  (:func:`_visible_at`'s one line); the scan bisects the key directory
  once per boundary and walks the slice.
- :meth:`MVStore.materialize` / :meth:`MVStore.materialize_at` stream the
  version chains in one pass (chain-tail fast path, no per-key
  ``get_latest``).
- :meth:`MVStore.state_hash` is incremental: each live ``(key, value)``
  entry contributes a 256-bit SHA digest of its text (keys and values as
  :mod:`repro.encoding` writes them) combined into a running
  accumulator by addition mod 2²⁵⁶ (Bellare–Micciancio's AdHash — order
  independent without XOR's linear malleability), and only keys written
  since the last call are re-hashed. The first call walks the version
  map itself, so nothing before it records stale keys, in bounded
  batches: one comprehension builds a batch's texts and a chain of C maps
  hashes them. An ``int`` or integral ``float`` value (every SmallBank
  balance, every YCSB value) is written in the comprehension, with no
  ``encode`` frame; only other values and rows call it.

Each of these is the only implementation. The per-key probes, linear
visibility walks, every-chain walks, per-key ``insort`` load and
from-scratch hash they replaced are test references (``tests/reference``)
that the differential tests hold them bit-identical to.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from itertools import islice, repeat
from operator import methodcaller

from repro.encoding import encode, key_text


class _Tombstone:
    """Sentinel marking a deleted key inside a version chain.

    Compared by identity everywhere, so copying must preserve the
    singleton (checkpoints deep-copy write lists that contain it).
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<TOMBSTONE>"

    def __copy__(self) -> "_Tombstone":
        return self

    def __deepcopy__(self, memo) -> "_Tombstone":
        return self


TOMBSTONE = _Tombstone()

#: ``seq`` offset for ownership-migration loads: shipped key versions are
#: installed *into* the boundary block ``H-1`` after the fact, and this
#: base keeps them sorted after every real write of that block in
#: :meth:`MVStore.writes_in_block` (blocks never carry 2**20 real writes).
MIGRATION_SEQ_BASE = 1 << 20

Version = tuple[int, int]


def _visible_at(
    chain: list[tuple[Version, object]], block_id: int
) -> tuple[Version, object] | None:
    """The last chain entry whose block <= ``block_id``, or ``None``.

    The snapshot-visibility search: one C bisection for the first entry
    past the snapshot. ``(block_id + 1,)`` sorts below every version of
    block ``block_id + 1`` whatever its ``seq`` (a prefix sorts first), so
    an entry's value is never compared. :meth:`SnapshotView.get` runs the
    same one-line search inline.
    """
    i = bisect_left(chain, ((block_id + 1,),))
    return chain[i - 1] if i else None


#: accumulator modulus for the additive (AdHash-style) state hash
_HASH_MOD = 1 << 256


def combine_state_hashes(hashes) -> str:
    """Fold per-store state hashes into the hash of their union.

    Valid only for stores over *disjoint* keyspaces (the sharded layout):
    each store's hash is the sum of its live entry digests, so the union's
    hash is the modular sum — a single-store deployment's combined hash
    equals its own.
    """
    return f"{sum(int(h, 16) for h in hashes) % _HASH_MOD:064x}"


#: live entries the first :meth:`MVStore.state_hash` pass hashes per batch:
#: a batch's texts and digests are all it holds at once, so the pass's
#: peak memory does not grow with the store
_HASH_BATCH = 256


def _entry_digests(entries) -> list[int]:
    """The 256-bit contribution of each live ``(key, value)`` of ``entries``
    to the state hash, in order: the SHA-256 of ``key->value;`` in
    :mod:`repro.encoding`'s text. The texts are built in one comprehension
    and hashed through a chain of C maps (no Python frame per digest).

    A scalar value's text is written in the comprehension itself, as
    :func:`~repro.encoding.encode` writes it: an exact ``int`` is its
    digits, an integral ``float`` the digits of its ``int``. Every other
    value (``bool``, a non-integral, ``nan`` or ``inf`` float, a row) goes
    through ``encode``."""
    texts = [
        f"{key_text(key)}->{value};".encode()
        if type(value) is int
        else f"{key_text(key)}->{int(value)};".encode()
        if type(value) is float and value.is_integer()
        else f"{key_text(key)}->{encode(value)};".encode()
        for key, value in entries
    ]
    hashes = map(methodcaller("digest"), map(hashlib.sha256, texts))
    return list(map(int.from_bytes, hashes, repeat("big")))


class SnapshotView:
    """A read-only view of the store as of the end of ``block_id``."""

    def __init__(self, store: "MVStore", block_id: int) -> None:
        self._store = store
        self.block_id = block_id

    def get(self, key: object) -> tuple[object | None, Version | None]:
        """Return ``(value, version)`` as of this snapshot.

        Missing and deleted keys both return ``(None, None)`` /
        ``(None, version)`` respectively; callers treat ``None`` as absent.
        The newest version answers when it is visible (the common case);
        otherwise :func:`_visible_at`'s bisection, inlined.
        """
        chain = self._store._versions.get(key)
        if not chain:
            return None, None
        version, value = chain[-1]
        if version[0] > self.block_id:
            i = bisect_left(chain, ((self.block_id + 1,),))
            if not i:
                return None, None
            version, value = chain[i - 1]
        if value is TOMBSTONE:
            return None, version
        return value, version

    def scan(self, start: object, end: object):
        """Yield ``(key, value)`` for live keys with start <= key < end.

        One bisect per range boundary instead of a per-key comparison, and
        a chain-tail fast path: when a key's newest version is already
        visible at this snapshot (the overwhelmingly common case) the
        per-key binary search is skipped entirely.
        """
        keys = self._store._sorted_keys
        versions = self._store._versions
        block_id = self.block_id
        lo = bisect_left(keys, start)
        hi = bisect_left(keys, end)
        for i in range(lo, hi):
            key = keys[i]
            chain = versions[key]
            version, value = chain[-1]
            if version[0] > block_id:
                entry = _visible_at(chain, block_id)
                if entry is None:
                    continue  # key born after this snapshot
                version, value = entry
            if value is not TOMBSTONE and value is not None:
                yield key, value


class MVStore:
    """Append-only multi-versioned store; one version batch per block."""

    def __init__(self) -> None:
        #: key -> list of ((block_id, seq), value), in commit order.
        self._versions: dict[object, list[tuple[Version, object]]] = {}
        self._sorted_keys: list[object] = []
        self.last_committed_block = -1
        #: incremental state-hash accumulator (sum of live entry digests
        #: mod 2**256 — additive so stale contributions can be retracted)
        self._live_digest = 0
        #: key -> digest currently folded into the accumulator
        self._key_digest: dict[object, int] = {}
        #: keys written since the accumulator was last brought up to date
        self._stale_keys: set[object] = set()
        #: False until the first :meth:`state_hash`: before it every key
        #: counts as stale, so neither loads nor blocks record stale keys
        self._hashed = False
        #: per-block key watermark: block_id -> keys that block wrote, so
        #: :meth:`writes_in_block` walks only those chains instead of the
        #: whole store. Grows like the block log (one entry per installed
        #: write), which recovery retains anyway.
        self._block_keys: dict[int, list[object]] = {}

    def __contains__(self, key: object) -> bool:
        value, _ = self.get_latest(key)
        return value is not None

    def __len__(self) -> int:
        return sum(
            1
            for chain in self._versions.values()
            if chain[-1][1] is not TOMBSTONE and chain[-1][1] is not None
        )

    def keys(self) -> list[object]:
        return [
            key
            for key in self._sorted_keys
            if (latest := self._versions[key][-1][1]) is not TOMBSTONE
            and latest is not None
        ]

    def load(
        self,
        items: dict[object, object],
        block_id: int = -1,
        seq_start: int = 0,
    ) -> None:
        """Bulk-load initial state as a pseudo-block (no snapshot bump).

        ``seq_start`` offsets the within-block ``seq`` tags: ownership
        migrations load shipped versions *into an already-applied block*
        (``MIGRATION_SEQ_BASE``), and they must sort after every real
        write of that block in :meth:`writes_in_block` or replay would
        interleave migration deltas before the block's own writes.

        A load that would put a version behind a newer one raises
        ``ValueError`` before it changes anything.
        """
        versions = self._versions
        if not versions:
            # Common case — populating a fresh store: build the chain map
            # in one comprehension and the key directory with one sort.
            self._versions = {
                key: [((block_id, seq), value)]
                for seq, (key, value) in enumerate(items.items(), start=seq_start)
            }
            self._sorted_keys = sorted(self._versions)
            if self._hashed:
                self._stale_keys.update(self._versions)
            self._block_keys.setdefault(block_id, []).extend(items)
            return
        for key in items:
            chain = versions.get(key)
            if chain is not None and chain[-1][0][0] > block_id:
                # Appending an older version would break the block-sorted
                # chain invariant that every snapshot lookup (get *and*
                # scan) binary-searches on.
                raise ValueError(
                    f"load(block_id={block_id}) after block "
                    f"{chain[-1][0][0]} would break {key!r}'s version order"
                )
        new_keys = []
        for seq, (key, value) in enumerate(items.items(), start=seq_start):
            chain = versions.get(key)
            if chain is None:
                versions[key] = [((block_id, seq), value)]
                new_keys.append(key)
            else:
                chain.append(((block_id, seq), value))
        if self._hashed:
            self._stale_keys.update(items)
        self._block_keys.setdefault(block_id, []).extend(items)
        self._merge_new_keys(new_keys)

    def get_latest(self, key: object) -> tuple[object | None, Version | None]:
        chain = self._versions.get(key)
        if not chain:
            return None, None
        version, value = chain[-1]
        if value is TOMBSTONE:
            return None, version
        return value, version

    def latest_values(self, keys) -> list:
        """``get_latest(key)[0]`` for every key of ``keys``, as one loop —
        the commit step's pre-block bases (missing and deleted keys both
        surface as ``None``)."""
        versions = self._versions
        values = []
        for key in keys:
            chain = versions.get(key)
            value = chain[-1][1] if chain else None
            values.append(None if value is TOMBSTONE else value)
        return values

    def snapshot(self, block_id: int) -> SnapshotView:
        return SnapshotView(self, block_id)

    def latest_snapshot(self) -> SnapshotView:
        return SnapshotView(self, self.last_committed_block)

    def apply_block(self, block_id: int, writes: list[tuple[object, object]]) -> None:
        """Install a block's writes, in apply order, as one version batch.

        ``writes`` is an ordered list so that within-block apply order
        (which SOV validation observes via ``seq``) is explicit.
        """
        if block_id <= self.last_committed_block:
            raise ValueError(
                f"block {block_id} is not after last committed {self.last_committed_block}"
            )
        versions = self._versions
        block_keys = self._block_keys.setdefault(block_id, [])
        new_keys = []
        for seq, (key, value) in enumerate(writes):
            chain = versions.get(key)
            if chain is None:
                versions[key] = [((block_id, seq), value)]
                new_keys.append(key)
            else:
                chain.append(((block_id, seq), value))
            block_keys.append(key)
        if self._hashed:
            self._stale_keys.update(block_keys)
        self._merge_new_keys(new_keys)
        self.last_committed_block = block_id

    def _merge_new_keys(self, new_keys: list[object]) -> None:
        """Fold freshly-created keys into the sorted directory: sort the
        batch, bisect each key in from its predecessor's insertion point and
        build the merged directory once (not a re-sort, nor one O(n)
        ``insort`` per key). Incomparable keys raise ``TypeError`` first."""
        if not new_keys:
            return
        new_keys.sort()
        keys = self._sorted_keys
        merged = []
        lo, size = 0, len(keys)
        for key in new_keys:
            # 77 % of tpcc_4shard's new keys (seed 7) land where their
            # predecessor did: one comparison says so, short of a bisection
            hi = bisect_left(keys, key, lo + 1) if lo < size and keys[lo] < key else lo
            merged += keys[lo:hi]
            merged.append(key)
            lo = hi
        merged += keys[lo:]
        self._sorted_keys = merged

    def state_hash(self) -> str:
        """Digest of the latest live state — replica-consistency fingerprint.

        Incremental: only keys written since the previous call are
        re-hashed; each live entry's digest is folded into a running
        accumulator by addition mod 2**256 (AdHash-style — commutative,
        so the result depends only on the live content, never on write
        history, while avoiding the linear malleability of an XOR
        combiner that a Byzantine replica could exploit). The first call
        walks every key of the version map, a bounded batch at a time: the
        same digests summed in another order, which the modular sum does
        not see.
        """
        key_digest = self._key_digest
        versions = self._versions
        # the accumulator moves by the plain integer sum of (new - old) and
        # is reduced once, not per key
        shift = 0
        if self._hashed:
            live = {}
            for key in self._stale_keys:
                chain = versions.get(key)
                value = chain[-1][1] if chain else None
                if value is TOMBSTONE or value is None:
                    shift -= key_digest.pop(key, 0)
                else:
                    live[key] = value
            for key, new in zip(live, _entry_digests(live.items())):
                shift += new - key_digest.get(key, 0)
                key_digest[key] = new
        else:
            entries = iter(versions.items())
            for _ in range(0, len(versions), _HASH_BATCH):
                live = {
                    key: value
                    for key, chain in islice(entries, _HASH_BATCH)
                    if (value := chain[-1][1]) is not TOMBSTONE and value is not None
                }
                digests = _entry_digests(live.items())
                key_digest.update(zip(live, digests))
                shift += sum(digests)
            self._hashed = True
        self._stale_keys.clear()
        self._live_digest = (self._live_digest + shift) % _HASH_MOD
        return f"{self._live_digest:064x}"

    def _latest_entry(self, key: object) -> tuple[object, Version | None]:
        """Raw newest chain entry (value may be TOMBSTONE or a live None)."""
        chain = self._versions.get(key)
        if not chain:
            return None, None
        version, value = chain[-1]
        return value, version

    def materialize(self) -> dict[object, object]:
        """The latest live state as a plain dict, in key order.

        "Live" means *not deleted*: only TOMBSTONEs are dropped. A stored
        ``None`` is a real entry — its version participates in SOV-style
        version checks, so a copy that silently dropped it would make
        a recovered replica diverge from one that never crashed.
        """
        # One pass over the chain tails — no per-key method dispatch.
        versions = self._versions
        return {
            key: value
            for key in self._sorted_keys
            if (value := versions[key][-1][1]) is not TOMBSTONE
        }

    def materialize_at(self, block_id: int) -> dict[object, object]:
        """The live state as of the end of ``block_id`` (what a
        reconstructed checkpoint's ``prev_state`` equals). Same
        TOMBSTONE-vs-stored-``None`` semantics as :meth:`materialize`.
        """
        # One-pass stream over the version chains with the same chain-tail
        # fast path as SnapshotView.scan: the per-key binary search runs
        # only when the newest version is not yet visible at the snapshot.
        versions = self._versions
        state: dict[object, object] = {}
        for key in self._sorted_keys:
            chain = versions[key]
            version, value = chain[-1]
            if version[0] > block_id:
                entry = _visible_at(chain, block_id)
                if entry is None:
                    continue  # key born after this snapshot
                version, value = entry
            if value is not TOMBSTONE:
                state[key] = value
        return state

    def writes_in_block(self, block_id: int) -> list[tuple[object, object]]:
        """The writes ``block_id`` installed, in their original apply order.

        TOMBSTONEs included: this is the exact ordered list the block
        handed to :meth:`apply_block` (every version the block installed,
        even if a caller wrote one key several times), so replaying it
        through :meth:`apply_block` regenerates the block's version batch
        with identical ``(block_id, seq)`` tags. Checkpoint recovery relies
        on that exactness — a value diff of two materialized snapshots
        cannot see a key rewritten with an unchanged value, and would leave
        the recovered replica's version behind the one SOV-style checks
        observe on an uncrashed replica.

        Walks only the block's watermarked chains (``_block_keys``,
        recorded at apply time) — O(block writes), never O(keyspace).
        """
        writes: list[tuple[int, object, object]] = []
        # Dedup per call: a key written twice in the block appears twice in
        # the watermark, but its chain holds both versions.
        for key in dict.fromkeys(self._block_keys.get(block_id, ())):
            chain = self._versions[key]
            for version, value in reversed(chain):
                if version[0] == block_id:
                    writes.append((version[1], key, value))
                elif version[0] < block_id:
                    break
        writes.sort(key=lambda entry: entry[0])
        return [(key, value) for _seq, key, value in writes]
