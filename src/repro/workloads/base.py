"""Workload interface consumed by the system assemblies and benches."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from repro.intervals import RangeIndex
from repro.sim.rng import SeededRng
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import TxnSpec


class ScanFootprint:
    """A compiled static read/write footprint: point keys plus half-open
    index-space scan ranges.

    Range reads used to force a choice between two bad participant sets:
    endpoint keys (an *underset* the moment a scan crosses a partition)
    or a full broadcast. A footprint keeps both exact: ``points`` route
    key-by-key, ``ranges`` are ``[lo, hi)`` integer intervals in the
    workload's ``shard_index`` space, compiled into a
    :class:`~repro.intervals.RangeIndex` so the router can stab each
    ownership override's position against every scanned range at once.
    """

    __slots__ = ("points", "ranges", "_index")

    def __init__(self, points=(), ranges=()) -> None:
        self.points = tuple(points)
        self.ranges = tuple(ranges)
        self._index = RangeIndex(
            (lo, hi, (lo, hi)) for lo, hi in self.ranges
        )

    def covers_index(self, position: int) -> bool:
        """Whether any compiled scan range covers ``position``."""
        return bool(self._index.stab(position))


@lru_cache(maxsize=None)
def partition_split_points(space: int, num_shards: int) -> tuple:
    """Split points of a ``space``-key index range into contiguous
    partitions — THE partitioning formula. Workload generation
    (:class:`ShardAffinity`), the reverse lookup
    (:func:`partition_of_index`) and the shard router's workload policy
    all consume this one cached tuple, so "generated partition-local" and
    "routed locally" can never disagree."""
    return tuple(p * space // num_shards for p in range(1, num_shards))


def partition_of_index(index: int, space: int, num_shards: int) -> int:
    """The contiguous partition holding position ``index`` of ``space``
    (the inverse of :meth:`ShardAffinity.partition_bounds`)."""
    if num_shards <= 1:
        return 0
    return bisect_right(partition_split_points(space, num_shards), index)


@dataclass(frozen=True)
class ShardAffinity:
    """Shard-affinity knob: how often a transaction leaves its home partition.

    The keyspace is split into ``num_shards`` contiguous index partitions
    (the same split :class:`~repro.shard.router.ShardRouter`'s workload
    policy routes on). Each transaction draws a home partition and keeps
    all its accesses there; with probability ``cross_ratio`` it sends one
    access to a second partition instead, making it a cross-shard
    transaction. ``num_shards`` here is a property of the *data layout*,
    so the identical transaction stream can be replayed against deployments
    with any number of execution shards (the 1-vs-N scaling comparison).
    """

    num_shards: int
    cross_ratio: float = 0.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("need at least one shard")
        if not 0.0 <= self.cross_ratio <= 1.0:
            raise ValueError("cross_ratio must be within [0, 1]")

    def partition_bounds(self, space: int, partition: int) -> tuple[int, int]:
        """Half-open index range of ``partition`` over a ``space``-key table.

        Requires ``space >= num_shards`` (every partition non-empty);
        anything smaller would force a "partition-local" sample into an
        index another shard owns, silently breaking the cross-ratio knob.
        """
        if space < self.num_shards:
            raise ValueError(
                f"affinity over {self.num_shards} shards needs at least "
                f"{self.num_shards} keys, got {space}"
            )
        points = partition_split_points(space, self.num_shards)
        lo = points[partition - 1] if partition > 0 else 0
        hi = points[partition] if partition < len(points) else space
        return lo, hi

    def map_index(self, index: int, partition: int, space: int) -> int:
        """Deterministically fold a global sample into ``partition``'s range
        (preserves the sampling skew within the partition)."""
        lo, hi = self.partition_bounds(space, partition)
        return lo + index % (hi - lo)

    def pick_home(self, rng: SeededRng) -> int:
        return rng.randint(0, self.num_shards - 1)

    def pick_other(self, rng: SeededRng, home: int) -> int:
        """A uniformly random partition different from ``home``."""
        if self.num_shards == 1:
            return home
        return (home + 1 + rng.randint(0, self.num_shards - 2)) % self.num_shards

    def crosses(self, rng: SeededRng) -> bool:
        return self.num_shards > 1 and rng.random() < self.cross_ratio


class Workload:
    """A benchmark: initial state, stored procedures, and a spec stream.

    Subclasses override the three methods below. ``generate_block`` must be
    a pure function of the RNG stream so that every system under comparison
    sees the identical transaction sequence.
    """

    name = "abstract"
    #: optional :class:`ShardAffinity`; workloads that honour it draw their
    #: keys partition-locally with a tunable cross-partition ratio
    affinity: ShardAffinity | None = None

    def initial_state(self) -> dict:
        """Key -> value map the database is preloaded with."""
        raise NotImplementedError

    # ---------------------------------------------------------- shard hints
    def spec_keys(self, spec: TxnSpec) -> list | None:
        """The static key footprint of ``spec``, or ``None`` when unknown.

        The shard router derives a transaction's participant set from this;
        ``None`` conservatively means "could touch anything" and routes the
        transaction to every shard. Workloads whose procedures' accesses
        are a pure function of the parameters (YCSB, SmallBank, hotspot)
        return the exact key list.
        """
        return None

    def spec_footprint(self, spec: TxnSpec) -> ScanFootprint | None:
        """Compiled footprint with exact scan ranges, or ``None``.

        Preferred over :meth:`spec_keys` by the router when available:
        a workload whose scans can cross partitions cannot express them
        as a key list (endpoints under-cover, ``None`` broadcasts), but a
        :class:`ScanFootprint` carries the precise index ranges and the
        router computes the true participant set.
        """
        return None

    def shard_index(self, key: object) -> int | None:
        """Position of ``key`` in the workload's contiguous index space
        (``None`` = not partitionable by position)."""
        return None

    @property
    def shard_space(self) -> int | None:
        """Size of the index space :meth:`shard_index` maps into."""
        return None

    def build_registry(self) -> ProcedureRegistry:
        """The stored procedures (smart contracts) this workload invokes."""
        raise NotImplementedError

    def generate_block(self, size: int, rng: SeededRng) -> list[TxnSpec]:
        """The next ``size`` transaction specs."""
        raise NotImplementedError


def params(**kwargs) -> tuple:
    """Freeze procedure parameters into the hashable TxnSpec form."""
    return tuple(sorted(kwargs.items()))
