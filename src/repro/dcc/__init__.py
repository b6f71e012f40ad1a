"""Deterministic concurrency control protocols (Table 2).

Alongside Harmony (:mod:`repro.core`), this package implements every DCC
the paper compares against, all behind one block-executor interface:

- :mod:`repro.dcc.serial` — serial execution (Quorum/Diem style; the
  Order-Execute floor).
- :mod:`repro.dcc.aria` — Aria: snapshot simulation, write reservations,
  WAW aborts and RAW-and-WAR aborts under deterministic reordering
  (AriaBC's engine).
- :mod:`repro.dcc.rbc` — RBC: SSI dangerous-structure validation with
  serial commit (blockchain relational database).
- :mod:`repro.dcc.fabric` — Fabric's SOV validation: stale-read (version
  check) aborts, serial validation.
- :mod:`repro.dcc.fastfabric` — FastFabric#: orderer-side dependency-graph
  construction, cycle elimination and reordering; validators only check
  signatures.
- :mod:`repro.dcc.oracle` — an exact serializability checker used to count
  false aborts (Figure 13) and as the test oracle for every protocol.
"""

from repro.dcc.aria import AriaExecutor
from repro.dcc.fabric import FabricValidator, endorsed_value_writes
from repro.dcc.fastfabric import FastFabricOrderer, FastFabricValidator, OrderingOutcome
from repro.dcc.oracle import HistoryOracle, SerializabilityOracle, find_cycle, has_cycle
from repro.dcc.rbc import RBCExecutor
from repro.dcc.serial import SerialExecutor
from repro.execution import BlockExecution, DCCExecutor, simulate_transactions

__all__ = [
    "AriaExecutor",
    "BlockExecution",
    "DCCExecutor",
    "FabricValidator",
    "FastFabricOrderer",
    "FastFabricValidator",
    "HistoryOracle",
    "OrderingOutcome",
    "RBCExecutor",
    "SerialExecutor",
    "SerializabilityOracle",
    "endorsed_value_writes",
    "find_cycle",
    "has_cycle",
    "simulate_transactions",
]
