"""Smallbank (Alomari et al., ICDE 2008): the paper's banking workload.

10K customers, each with a checking and a savings account, and the standard
six procedures at the standard mix. Deposit-style procedures express their
balance changes as ``add`` commands (the natural SQL
``UPDATE ... SET bal = bal + ?``), while check-and-debit procedures read
first and branch — exactly the mix of fused and separated read-modify-write
the paper's protocols disagree on.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.sim.rng import SeededRng
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import TxnSpec
from repro.workloads.base import ShardAffinity, Workload, partition_of_index
from repro.workloads.zipf import ZipfGenerator


def checking(cid: int) -> tuple:
    return ("checking", cid)


def savings(cid: int) -> tuple:
    return ("savings", cid)


#: (procedure, weight) — the standard Smallbank mix
MIX = (
    ("sb_balance", 15),
    ("sb_deposit_checking", 15),
    ("sb_transact_savings", 15),
    ("sb_amalgamate", 15),
    ("sb_write_check", 15),
    ("sb_send_payment", 25),
)


class SmallbankWorkload(Workload):
    name = "smallbank"

    def __init__(
        self,
        num_accounts: int = 10_000,
        theta: float = 0.6,
        initial_balance: float = 10_000.0,
        affinity: ShardAffinity | None = None,
    ) -> None:
        self.num_accounts = num_accounts
        self.theta = theta
        self.initial_balance = initial_balance
        #: a customer's checking and savings rows are co-located (partition
        #: by cid), so only the two-customer procedures (amalgamate,
        #: send_payment) can cross shards — ``cross_ratio`` applies to them
        self.affinity = affinity
        self._zipf = ZipfGenerator(num_accounts, theta)
        total = sum(w for _p, w in MIX)
        self._mix_cdf = []
        acc = 0.0
        for proc, weight in MIX:
            acc += weight / total
            self._mix_cdf.append((acc, proc))

    def initial_state(self) -> dict:
        state = {}
        for cid in range(self.num_accounts):
            state[checking(cid)] = self.initial_balance
            state[savings(cid)] = self.initial_balance
        return state

    def build_registry(self) -> ProcedureRegistry:
        registry = ProcedureRegistry()

        @registry.register("sb_balance")
        def sb_balance(ctx, cid):
            ck = ctx.read(checking(cid)) or 0.0
            sv = ctx.read(savings(cid)) or 0.0
            return ck + sv

        @registry.register("sb_deposit_checking")
        def sb_deposit_checking(ctx, cid, amount):
            # fused RMW: UPDATE checking SET bal = bal + ? WHERE cid = ?
            ctx.add(checking(cid), amount)
            return "ok"

        @registry.register("sb_transact_savings")
        def sb_transact_savings(ctx, cid, amount):
            balance = ctx.read(savings(cid)) or 0.0
            if balance + amount < 0:
                return "insufficient"
            ctx.add(savings(cid), amount)
            return "ok"

        @registry.register("sb_amalgamate")
        def sb_amalgamate(ctx, cid_from, cid_to):
            ck = ctx.read(checking(cid_from)) or 0.0
            sv = ctx.read(savings(cid_from)) or 0.0
            ctx.write(checking(cid_from), 0.0)
            ctx.write(savings(cid_from), 0.0)
            ctx.add(checking(cid_to), ck + sv)
            return ck + sv

        @registry.register("sb_write_check")
        def sb_write_check(ctx, cid, amount):
            ck = ctx.read(checking(cid)) or 0.0
            sv = ctx.read(savings(cid)) or 0.0
            penalty = 1.0 if ck + sv < amount else 0.0
            ctx.add(checking(cid), -(amount + penalty))
            return "ok"

        @registry.register("sb_send_payment")
        def sb_send_payment(ctx, cid_from, cid_to, amount):
            balance = ctx.read(checking(cid_from)) or 0.0
            if balance < amount:
                return "insufficient"
            ctx.add(checking(cid_from), -amount)
            ctx.add(checking(cid_to), amount)
            return "ok"

        return registry

    def _pick_proc(self, rng: SeededRng) -> str:
        u = rng.random()
        for threshold, proc in self._mix_cdf:
            if u <= threshold:
                return proc
        return self._mix_cdf[-1][1]

    def generate_block(self, size: int, rng: SeededRng) -> list[TxnSpec]:
        """``size`` specs, each drawn in one loop body: the procedure
        (:meth:`_pick_proc`, a method so a test may fix the mix), the zipf
        account, the home partition, amounts and the second account, all
        through the stream's bound ``random`` / ``randbelow`` in the order
        :meth:`ShardAffinity.pick_home <repro.workloads.base.ShardAffinity.pick_home>`,
        ``crosses``, ``pick_other`` and ``randint`` draw them. Params are
        written in :func:`~repro.workloads.base.params`' sorted order."""
        num_accounts = self.num_accounts
        random, randbelow = rng.random, rng.randbelow
        cdf = self._zipf._cdf
        pick_proc = self._pick_proc
        # partition-local draws only over more than one shard, folded into
        # a partition's bounds as ShardAffinity.map_index folds them
        affinity = self.affinity
        shards = affinity.num_shards if affinity is not None else 1
        if shards > 1:
            bounds = [affinity.partition_bounds(num_accounts, p) for p in range(shards)]
            cross_ratio = affinity.cross_ratio
        specs = []
        append = specs.append
        for _ in range(size):
            proc = pick_proc(rng)
            cid = bisect_left(cdf, random())
            if shards > 1:
                home = randbelow(shards)
                lo, hi = bounds[home]
                cid = lo + cid % (hi - lo)
            if proc == "sb_balance":
                spec = TxnSpec(proc, (("cid", cid),))
            elif proc == "sb_deposit_checking":
                spec = TxnSpec(proc, (("amount", float(1 + randbelow(100))), ("cid", cid)))
            elif proc == "sb_transact_savings":
                spec = TxnSpec(proc, (("amount", float(randbelow(151) - 50)), ("cid", cid)))
            elif proc == "sb_write_check":
                spec = TxnSpec(proc, (("amount", float(1 + randbelow(50))), ("cid", cid)))
            else:
                other = bisect_left(cdf, random())
                if shards > 1:
                    partition = home
                    if random() < cross_ratio:
                        partition = (home + 1 + randbelow(shards - 1)) % shards
                    lo, hi = bounds[partition]
                    other = lo + other % (hi - lo)
                if other == cid:
                    other = self._bump_within_partition(other)
                if proc == "sb_amalgamate":
                    spec = TxnSpec(proc, (("cid_from", cid), ("cid_to", other)))
                else:
                    amount = float(1 + randbelow(50))
                    spec = TxnSpec(
                        proc, (("amount", amount), ("cid_from", cid), ("cid_to", other))
                    )
            append(spec)
        return specs

    def _bump_within_partition(self, cid: int) -> int:
        """The next distinct account, staying inside ``cid``'s partition."""
        if self.affinity is None or self.affinity.num_shards == 1:
            return (cid + 1) % self.num_accounts
        affinity = self.affinity
        partition = partition_of_index(cid, self.num_accounts, affinity.num_shards)
        lo, hi = affinity.partition_bounds(self.num_accounts, partition)
        return lo + (cid - lo + 1) % (hi - lo)

    # ---------------------------------------------------------- shard hints
    def spec_keys(self, spec: TxnSpec) -> list:
        p = spec.param_dict
        if spec.proc in ("sb_balance", "sb_write_check"):
            return [checking(p["cid"]), savings(p["cid"])]
        if spec.proc == "sb_deposit_checking":
            return [checking(p["cid"])]
        if spec.proc == "sb_transact_savings":
            return [savings(p["cid"])]
        if spec.proc == "sb_amalgamate":
            return [
                checking(p["cid_from"]),
                savings(p["cid_from"]),
                checking(p["cid_to"]),
            ]
        if spec.proc == "sb_send_payment":
            return [checking(p["cid_from"]), checking(p["cid_to"])]
        return None

    def shard_index(self, key: object) -> int | None:
        if isinstance(key, tuple) and key[0] in ("checking", "savings"):
            return key[1]
        return None

    @property
    def shard_space(self) -> int:
        return self.num_accounts
