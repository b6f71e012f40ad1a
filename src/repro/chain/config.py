"""What every Order-Execute run is configured by and reports with.

:class:`OEConfig` describes one run (scheme, block shape, consensus and
storage models; :class:`RunConfig` is the part an SOV run shares);
:func:`build_engine` and :func:`build_executor` turn it into a replica's
storage engine and DCC executor — HarmonyBC, AriaBC, RBC or the serial
baseline; :func:`decision_digest` fingerprints a run's commit/abort
decisions (block by block through :func:`decision_part`). The driver
itself is :mod:`repro.shard.system`; this module sits below it so that
recovery and the fault drills can share the configuration without
importing the driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.crypto import sha256_hex
from repro.consensus.network import NetworkPreset
from repro.core.harmony import HarmonyConfig, HarmonyExecutor
from repro.dcc.aria import AriaExecutor
from repro.dcc.rbc import RBCExecutor
from repro.dcc.serial import SerialExecutor
from repro.sim.costs import CostModel, StorageProfile
from repro.storage.engine import StorageEngine
from repro.storage.wal import LogMode
from repro.txn.transaction import TxnStatus


def decision_part(block_id: int, txns) -> str:
    """One block's share of :func:`decision_digest`: its committed and
    aborted TIDs — a run folds each block to this as it commits, so the
    block's transactions need not outlive it."""
    committed = ",".join([str(t.tid) for t in txns if t.status is TxnStatus.COMMITTED])
    aborted = ",".join([str(t.tid) for t in txns if t.status is TxnStatus.ABORTED])
    return f"{block_id}:{committed}|{aborted}"


def decision_digest(per_block_txns) -> str:
    """A digest of every block's commit/abort decisions.

    ``per_block_txns`` yields ``(block_id, txns)`` in block order. The
    digest is a pure function of the decision layer (TIDs and statuses,
    never timings), so two runs are decision-identical iff their digests
    match.
    """
    return digest_parts(decision_part(block_id, txns) for block_id, txns in per_block_txns)


def digest_parts(parts) -> str:
    """:func:`decision_digest` of blocks already folded by :func:`decision_part`."""
    return sha256_hex(";".join(parts).encode())


def unknown_option(name: str, value, accepted) -> ValueError:
    """What a misspelt enumerated option raises where it is first read."""
    return ValueError(f"unknown {name} {value!r}: expected one of {sorted(accepted)}")


@dataclass
class RunConfig:
    """What an Order-Execute and a Simulate-Order-Validate run share."""

    system: str
    block_size: int
    num_blocks: int = 40
    num_replicas: int = 4
    network: NetworkPreset = NetworkPreset.DEFAULT_1G
    profile: StorageProfile = StorageProfile.SSD
    pool_pages: int = 48
    checkpoint_interval: int = 10
    #: delta checkpoints between base compactions of the chain
    checkpoint_base_interval: int = 8
    seed: int = 7


@dataclass
class OEConfig(RunConfig):
    """Configuration of one Order-Execute system run."""

    system: str = "harmony"  # harmony | aria | rbc | serial
    block_size: int = 25
    consensus: str = "kafka"  # kafka | hotstuff
    harmony: HarmonyConfig = field(default_factory=HarmonyConfig)


def build_engine(
    config: RunConfig, costs: CostModel, log_mode: LogMode = LogMode.LOGICAL
) -> StorageEngine:
    """An empty storage engine as ``config`` describes it — every replica's
    engines are built here, so they cannot drift. Order-Execute logs
    logically (the input blocks are the log), SOV physically."""
    return StorageEngine(
        costs=costs,
        profile=config.profile,
        pool_pages=config.pool_pages,
        log_mode=log_mode,
        checkpoint_interval=config.checkpoint_interval,
        checkpoint_base_interval=config.checkpoint_base_interval,
    )


def build_executor(config: OEConfig, engine: StorageEngine, registry):
    if config.system == "harmony":
        return HarmonyExecutor(engine, registry, config.harmony)
    if config.system == "aria":
        return AriaExecutor(engine, registry)
    if config.system == "rbc":
        return RBCExecutor(engine, registry)
    if config.system == "serial":
        return SerialExecutor(engine, registry)
    raise unknown_option("system", config.system, ("harmony", "aria", "rbc", "serial"))
