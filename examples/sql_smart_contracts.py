"""SQL smart contracts and hotspot resiliency (the Section 3.3 mechanism).

A banking contract written two ways:

- fused:      UPDATE bank SET balance = balance + ?  -> an *add command*;
  Harmony reorders and coalesces concurrent updates: zero aborts, one
  physical write for the whole block, even when every transaction hits the
  same hot account.
- separated:  SELECT then UPDATE ... SET balance = ?  -> a snapshot read
  plus a value write; concurrent updaters form backward dangerous
  structures and all but one abort.

Run:  python examples/sql_smart_contracts.py
"""

from repro.core.harmony import HarmonyConfig, HarmonyExecutor
from repro.sql import Catalog, SQLExecutor
from repro.storage.engine import StorageEngine
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import Txn, TxnSpec
from repro.workloads.base import params

HOT_ACCOUNT = 0
NUM_CLIENTS = 20


def build_bank():
    catalog = Catalog()
    catalog.create_table("bank", key_columns=["id"], value_columns=["balance"])
    engine = StorageEngine()
    engine.preload(
        catalog.initial_rows("bank", [{"id": i, "balance": 1000.0} for i in range(50)])
    )
    return catalog, engine


def run_contract(proc_name: str):
    catalog, engine = build_bank()
    sql = SQLExecutor(catalog)
    registry = ProcedureRegistry()

    @registry.register("deposit_fused")
    def deposit_fused(ctx, account, amount):
        return sql.execute(
            ctx, "UPDATE bank SET balance = balance + ? WHERE id = ?", (amount, account)
        )

    @registry.register("deposit_separated")
    def deposit_separated(ctx, account, amount):
        rows = sql.execute(ctx, "SELECT balance FROM bank WHERE id = ?", (account,))
        if not rows:
            return 0
        new_balance = rows[0]["balance"] + amount
        return sql.execute(
            ctx, "UPDATE bank SET balance = ? WHERE id = ?", (new_balance, account)
        )

    executor = HarmonyExecutor(engine, registry, HarmonyConfig(inter_block=False))
    txns = [
        Txn(i, 0, TxnSpec(proc_name, params(account=HOT_ACCOUNT, amount=10.0)))
        for i in range(NUM_CLIENTS)
    ]
    execution = executor.execute_block(0, txns)

    committed = sum(1 for t in txns if t.committed)
    balance, _ = engine.store.get_latest(("bank", HOT_ACCOUNT))
    # one (key, updater tids) chain per written key; the config coalesces,
    # so a key's whole chain is one physical update
    updaters = dict(execution.apply_chains).get(("bank", HOT_ACCOUNT), ())
    print(f"{proc_name}:")
    print(f"  committed {committed}/{NUM_CLIENTS}, aborted {NUM_CLIENTS - committed}")
    print(f"  hot-account balance: {balance['balance']}")
    print(
        f"  {len(updaters)} updater(s) of the hot key, applied as"
        f" {min(1, len(updaters))} physical update (coalescence)"
    )
    print()


def main() -> None:
    print(f"{NUM_CLIENTS} concurrent deposits to one hot account, one block:\n")
    run_contract("deposit_fused")
    run_contract("deposit_separated")
    print(
        "Moral (Section 3.3.2): express read-modify-write logic as one SQL\n"
        "statement; splitting it into SELECT + UPDATE forfeits reordering\n"
        "and coalescence."
    )


if __name__ == "__main__":
    main()
