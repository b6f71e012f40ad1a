"""The hotspot YCSB variant of Section 5.3 (Figure 14).

Still 10 statements per transaction, but 1% of the records are *hotspots*
and each statement targets a hotspot with a controlled probability. Pairs
of SELECT and UPDATE touching the same record are rewritten as one UPDATE
that both reads and writes (``UPDATE ... SET v = v + ?``), i.e. a fused
arithmetic command — the rewrite the paper applies because "Postgres's
optimizer does not have this rewrite rule".

With the rewrite in place a transaction's hotspot access contributes *only*
a ww-dependency: Harmony reorders and coalesces it (flat curve in
Figure 14), while Aria/RBC abort all but one updater per hotspot.
"""

from __future__ import annotations

from repro.sim.rng import SeededRng
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import TxnSpec
from repro.workloads.base import ShardAffinity, Workload
from repro.workloads.ycsb import key_of

HOT_FRACTION = 0.01


class HotspotWorkload(Workload):
    name = "ycsb-hotspot"

    def __init__(
        self,
        num_keys: int = 10_000,
        statements_per_txn: int = 10,
        hotspot_probability: float = 0.5,
        fused: bool = True,
        affinity: ShardAffinity | None = None,
    ) -> None:
        if num_keys < 2:
            # one key is all hot (stride 1): no cold key to draw, and the
            # cold redraw would never return; none at all, neither would
            # ``randbelow(0)``
            raise ValueError(f"the hotspot workload needs at least 2 keys, got {num_keys}")
        self.num_keys = num_keys
        self.statements_per_txn = statements_per_txn
        self.hotspot_probability = hotspot_probability
        #: fused=True models the SELECT+UPDATE -> UPDATE rewrite; False is
        #: the separated form (the "opportunity lost" case of Section 3.3.2).
        self.fused = fused
        #: partition-local key choice with a tunable cross-shard ratio; the
        #: affinity fold keeps hotspot pressure (multiples of the stride
        #: remain spread across each partition's index range)
        self.affinity = affinity
        self.num_hot = max(1, int(num_keys * HOT_FRACTION))
        #: hot keys are spread across the keyspace (and thus across heap
        #: pages) so that hotspot pressure changes *conflicts*, not page
        #: locality
        self._stride = max(1, num_keys // self.num_hot)

    def initial_state(self) -> dict:
        return {key_of(i): 1000 + i for i in range(self.num_keys)}

    def build_registry(self) -> ProcedureRegistry:
        registry = ProcedureRegistry()

        @registry.register("hotspot_txn")
        def hotspot_txn(ctx, ops):
            """ops: ("u", k, delta) fused update | ("ru", k, delta) separated
            read-then-update | ("r", k) plain read."""
            out = []
            for op in ops:
                kind = op[0]
                if kind == "r":
                    out.append(ctx.read(key_of(op[1])))
                elif kind == "u":
                    ctx.add(key_of(op[1]), op[2])
                else:  # separated read-modify-write
                    value = ctx.read(key_of(op[1])) or 0
                    ctx.write(key_of(op[1]), value + op[2])
            return tuple(out)

        return registry

    def is_hot(self, key_index: int) -> bool:
        return key_index % self._stride == 0

    def generate_block(self, size: int, rng: SeededRng) -> list[TxnSpec]:
        """Each transaction is 10 statements = 5 SELECT+UPDATE pairs; after
        the rewrite each pair is a single fused UPDATE (or a separated
        read-then-write when ``fused=False``)."""
        affinity = self.affinity
        if affinity is not None and affinity.num_shards < 2:
            affinity = None
        # one frame per draw: ``randbelow(n)`` is ``randint(0, n - 1)``
        random, randbelow = rng.random, rng.randbelow
        hot_probability, stride = self.hotspot_probability, self._stride
        num_keys, num_hot = self.num_keys, self.num_hot
        specs = []
        update_kind = "u" if self.fused else "ru"
        pairs = max(1, self.statements_per_txn // 2)
        for _ in range(size):
            home = remote = None
            if affinity is not None:
                home = affinity.pick_home(rng)
                if affinity.crosses(rng):
                    remote = affinity.pick_other(rng, home)
            ops = []
            chosen: set[int] = set()
            for pair in range(pairs):
                partition = remote if remote is not None and pair == pairs - 1 else home
                tries = 0
                while True:  # redraw a key already chosen, up to 20 times
                    if random() < hot_probability:
                        key = randbelow(num_hot) * stride
                    else:  # a cold key: redraw until it is not a hotspot
                        key = randbelow(num_keys)
                        while key % stride == 0:
                            key = randbelow(num_keys)
                    if partition is not None:
                        key = affinity.map_index(key, partition, num_keys)
                    if key not in chosen or tries == 20:
                        break
                    tries += 1
                chosen.add(key)
                ops.append((update_kind, key, 1 + randbelow(9)))
            # ``params(ops=...)``, written out: one parameter, nothing to sort
            specs.append(TxnSpec("hotspot_txn", (("ops", tuple(ops)),)))
        return specs

    # ---------------------------------------------------------- shard hints
    def spec_keys(self, spec: TxnSpec) -> list:
        return [key_of(op[1]) for op in spec.param_dict["ops"]]

    def shard_index(self, key: object) -> int | None:
        return key[1] if isinstance(key, tuple) and key[0] == "usertable" else None

    @property
    def shard_space(self) -> int:
        return self.num_keys
