"""Workload references (``workloads/``): the SmallBank spec draw with one
method call per draw — the zipf ``sample``, the affinity's ``pick_home`` /
``crosses`` / ``pick_other`` / ``map_index``, ``randint`` and ``params`` —
and the zipf distinct draw through ``sample``."""

from __future__ import annotations

from repro.sim.rng import SeededRng
from repro.txn.transaction import TxnSpec
from repro.workloads.base import params
from repro.workloads.smallbank import SmallbankWorkload
from repro.workloads.zipf import ZipfGenerator


def smallbank_block(workload: SmallbankWorkload, size: int, rng: SeededRng) -> list[TxnSpec]:
    """What ``workload.generate_block(size, rng)`` must return, drawing the
    same values from ``rng`` the same number of times."""
    affinity = workload.affinity
    specs = []
    for _ in range(size):
        proc = workload._pick_proc(rng)
        cid = workload._zipf.sample(rng)
        home = None
        if affinity is not None and affinity.num_shards > 1:
            home = affinity.pick_home(rng)
            cid = affinity.map_index(cid, home, workload.num_accounts)
        if proc == "sb_balance":
            spec = TxnSpec(proc, params(cid=cid))
        elif proc == "sb_deposit_checking":
            spec = TxnSpec(proc, params(cid=cid, amount=float(rng.randint(1, 100))))
        elif proc == "sb_transact_savings":
            spec = TxnSpec(proc, params(cid=cid, amount=float(rng.randint(-50, 100))))
        elif proc == "sb_write_check":
            spec = TxnSpec(proc, params(cid=cid, amount=float(rng.randint(1, 50))))
        else:
            other = workload._zipf.sample(rng)
            if home is not None:
                partition = home
                if affinity.crosses(rng):
                    partition = affinity.pick_other(rng, home)
                other = affinity.map_index(other, partition, workload.num_accounts)
            if other == cid:
                other = workload._bump_within_partition(other)
            if proc == "sb_amalgamate":
                spec = TxnSpec(proc, params(cid_from=cid, cid_to=other))
            else:
                spec = TxnSpec(
                    proc,
                    params(cid_from=cid, cid_to=other, amount=float(rng.randint(1, 50))),
                )
        specs.append(spec)
    return specs


def zipf_distinct(zipf: ZipfGenerator, rng: SeededRng, k: int) -> list[int]:
    """What ``zipf.sample_distinct(rng, k)`` must return: ``sample`` until
    ``k`` distinct ranks are drawn."""
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < k:
        rank = zipf.sample(rng)
        if rank not in seen:
            seen.add(rank)
            out.append(rank)
    return out
