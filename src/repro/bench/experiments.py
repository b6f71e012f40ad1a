"""Experiment definitions: one function per table/figure of Section 5, plus
the sharded scale-out scenarios, each with its claims above it
(:mod:`repro.bench.claims`; ``make figures`` checks them at the default
scale).

Conventions shared with the paper:

- "skewness" is YCSB/Smallbank Zipf theta; medium contention = 0.6;
- block sizes default to each system's optimum from Figures 9/10
  (HarmonyBC 25, RBC 10, AriaBC 50/75, SOV systems 50) — the paper's
  optima, not the modeled sweeps' (Figure 9's expected-false claim);
- OE systems (HarmonyBC, AriaBC, RBC, serial) and SOV systems (Fabric,
  FastFabric#) run on identical workload streams (same seeds).
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.claims import Claim, claims, grid, peak
from repro.bench.config import BenchScale, current_scale
from repro.bench.report import ExperimentResult
from repro.chain.sov import SOVBlockchain, SOVConfig
from repro.chain.system import OEBlockchain, OEConfig
from repro.consensus.hotstuff import HotStuffConsensus
from repro.consensus.network import NetworkModel, NetworkPreset
from repro.core.harmony import HarmonyConfig
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.sim.costs import CostModel, StorageProfile
from repro.sim.metrics import RunMetrics
from repro.workloads import make_workload as _registry_make_workload
from repro.workloads.base import ShardAffinity
from repro.workloads.ycsb import YCSBWorkload

OE_SYSTEMS = ("harmony", "aria", "rbc")
SOV_SYSTEMS = ("fabric", "fastfabric")
ALL_SYSTEMS = OE_SYSTEMS + SOV_SYSTEMS

#: per-system optimal block sizes (Figures 9/10)
OPTIMAL_BLOCK = {
    "harmony": {"ycsb": 25, "smallbank": 25, "tpcc": 25, "ycsb-hotspot": 25},
    "aria": {"ycsb": 50, "smallbank": 75, "tpcc": 50, "ycsb-hotspot": 50},
    "rbc": {"ycsb": 10, "smallbank": 10, "tpcc": 10, "ycsb-hotspot": 10},
    "fabric": {"ycsb": 50, "smallbank": 50},
    "fastfabric": {"ycsb": 50, "smallbank": 50},
    "serial": {"ycsb": 25, "smallbank": 25, "tpcc": 25},
}

SKEWS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
BLOCK_SIZES = (5, 25, 50, 75, 100)
REPLICA_COUNTS = (4, 20, 40, 60, 80)
WAREHOUSES = (1, 20, 40, 60, 80)
HOTSPOT_PROBS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def make_workload(name: str, skew: float = 0.6, **kwargs):
    """Paper-scale workload off the shared registry; ``skew`` maps onto
    Zipf theta for the workloads parameterized by it."""
    if name in ("ycsb", "smallbank"):
        kwargs.setdefault("theta", skew)
    return _registry_make_workload(name, profile="default", **kwargs)


def block_size_for(system: str, workload: str) -> int:
    return OPTIMAL_BLOCK.get(system, {}).get(workload, 25)


def run_oe(
    system: str,
    workload_name: str,
    scale: BenchScale | None = None,
    skew: float = 0.6,
    workload_kwargs: dict | None = None,
    **config_overrides,
) -> RunMetrics:
    scale = scale or current_scale()
    workload = make_workload(workload_name, skew=skew, **(workload_kwargs or {}))
    blocks = scale.tpcc_blocks if workload_name == "tpcc" else scale.num_blocks
    config = OEConfig(
        system=system,
        block_size=block_size_for(system, workload_name),
        num_blocks=blocks,
        seed=scale.seed,
    )
    return OEBlockchain(replace(config, **config_overrides), workload).run()


def run_sov(
    system: str,
    workload_name: str,
    scale: BenchScale | None = None,
    skew: float = 0.6,
    workload_kwargs: dict | None = None,
    **config_overrides,
) -> RunMetrics:
    scale = scale or current_scale()
    workload = make_workload(workload_name, skew=skew, **(workload_kwargs or {}))
    config = SOVConfig(
        system=system,
        block_size=block_size_for(system, workload_name),
        num_blocks=scale.sov_blocks,
        seed=scale.seed,
    )
    return SOVBlockchain(replace(config, **config_overrides), workload).run()


def run_any(system: str, workload_name: str, **kwargs) -> RunMetrics:
    if system in SOV_SYSTEMS:
        return run_sov(system, workload_name, **kwargs)
    return run_oe(system, workload_name, **kwargs)


# accessors the claims read rows through
def _tput(r, system, **where):
    return r.cell("throughput_tps", system=system, **where)


def _ends(r, column, **where):
    """First and last value of a sweep."""
    values = r.series(column, **where)
    return values[0], values[-1]


def _kept(r, column, **where) -> float:
    """A sweep's last value over its first."""
    first, last = _ends(r, column, **where)
    return last / first


# --------------------------------------------------------------------------
# Figure 1 — the database layer is the bottleneck
# --------------------------------------------------------------------------
DISK_LAYERS = tuple(f"{s} (disk DB layer)" for s in ("fabric", "fastfabric", "rbc"))
LAYER_PAIRS = grid(
    consensus=("hotstuff 80 nodes (LAN)", "hotstuff 80 nodes (WAN)"), disk=DISK_LAYERS
)


def _ktps(r, layer):
    return r.cell("throughput_ktps", layer=layer)


@claims(
    Claim("bound", "consensus outruns every disk DB layer by more than 8x",
          lambda r, consensus, disk: _ktps(r, consensus) > 8 * _ktps(r, disk), LAYER_PAIRS),
    Claim("ordering", "the memory DB layer sits between the disk layers and consensus",
          lambda r, consensus, disk: _ktps(r, disk)
          < _ktps(r, "aria (memory DB layer)") < _ktps(r, consensus), LAYER_PAIRS),
)
def figure1(scale: BenchScale | None = None) -> ExperimentResult:
    """Disk DB-layer throughputs vs consensus throughput (Smallbank).

    "Throughputs of the database layers are measured by using only one
    ordering node to write off consensus" — i.e. our system runs, whose
    consensus model is never the binding constraint. The HotStuff rows are
    the consensus layer alone at 80 nodes, LAN and WAN.
    """
    result = ExperimentResult(
        name="Figure 1",
        description="disk DB layer vs consensus layer (Smallbank, Ktxns/s)",
        headers=["layer", "throughput_ktps"],
    )
    for system in ("fabric", "fastfabric"):
        metrics = run_sov(system, "smallbank", scale)
        result.add(f"{system} (disk DB layer)", metrics.throughput_tps / 1000.0)
    metrics = run_oe("rbc", "smallbank", scale)
    result.add("rbc (disk DB layer)", metrics.throughput_tps / 1000.0)
    metrics = run_oe("aria", "smallbank", scale, profile=StorageProfile.MEMORY)
    result.add("aria (memory DB layer)", metrics.throughput_tps / 1000.0)
    costs = CostModel()
    for preset, label in (
        (NetworkPreset.CLOUD_LAN_5G, "hotstuff 80 nodes (LAN)"),
        (NetworkPreset.CLOUD_WAN, "hotstuff 80 nodes (WAN)"),
    ):
        consensus = HotStuffConsensus(NetworkModel.preset(preset), costs, num_nodes=80)
        result.add(label, consensus.throughput_tps() / 1000.0)
    return result


# --------------------------------------------------------------------------
# Table 3 — hit rate of the backward dangerous structure
# --------------------------------------------------------------------------
@claims(
    Claim("trend", "the hit rate grows with skew",
          lambda r, workload: _ends(r, "hit_rate", workload=workload)[1]
          > _ends(r, "hit_rate", workload=workload)[0],
          grid(workload=("ycsb", "smallbank"))),
    Claim("bound", "YCSB at skew 1.0 hits more than 0.3 (paper: 74.3 %)",
          lambda r: r.cell("hit_rate", workload="ycsb", parameter="skew=1.0") > 0.3),
    Claim("ordering", "Smallbank is far less contentious than YCSB at skew 1.0",
          lambda r: r.cell("hit_rate", workload="smallbank", parameter="skew=1.0")
          < r.cell("hit_rate", workload="ycsb", parameter="skew=1.0")),
    Claim("optimum", "TPC-C peaks at 1 warehouse, above 0.25 (paper: 47.9 %)",
          lambda r: peak(r, "parameter", "hit_rate", workload="tpcc") == "warehouses=1"
          and r.cell("hit_rate", parameter="warehouses=1") > 0.25),
)
def table3(scale: BenchScale | None = None) -> ExperimentResult:
    result = ExperimentResult(
        name="Table 3",
        description="hit rate of the backward dangerous structure",
        headers=["workload", "parameter", "hit_rate"],
    )
    config = HarmonyConfig(inter_block=False)  # pure Rule-1 hits
    for skew in SKEWS:
        metrics = run_oe("harmony", "ycsb", scale, skew=skew, harmony=config)
        result.add("ycsb", f"skew={skew}", metrics.dangerous_structure_rate)
    for skew in SKEWS:
        metrics = run_oe("harmony", "smallbank", scale, skew=skew, harmony=config)
        result.add("smallbank", f"skew={skew}", metrics.dangerous_structure_rate)
    for warehouses in WAREHOUSES:
        metrics = run_oe(
            "harmony",
            "tpcc",
            scale,
            workload_kwargs={"num_warehouses": warehouses},
            harmony=config,
        )
        result.add("tpcc", f"warehouses={warehouses}", metrics.dangerous_structure_rate)
    return result


# --------------------------------------------------------------------------
# Figures 7/8 — overall performance
# --------------------------------------------------------------------------
def _overall(workload_name: str, scale: BenchScale | None) -> ExperimentResult:
    figure = "Figure 7" if workload_name == "smallbank" else "Figure 8"
    result = ExperimentResult(
        name=figure,
        description=f"overall performance on {workload_name}",
        headers=["system", "throughput_tps", "latency_ms"],
    )
    for system in ("fabric", "fastfabric", "rbc", "aria", "harmony"):
        metrics = run_any(system, workload_name, scale=scale)
        result.add(system, metrics.throughput_tps, metrics.mean_latency_ms)
    return result


def _beats_existing(factor: float) -> Claim:
    return Claim("bound", f"HarmonyBC commits more than {factor}x every existing chain",
                 lambda r, other: _tput(r, "harmony") > factor * _tput(r, other),
                 grid(other=("fabric", "fastfabric", "rbc")))


def _below(column: str, name: str, low: str, high: str, factor: float = 1.0) -> Claim:
    """``low``'s ``column`` is below ``factor`` x ``high``'s."""
    kind = "ordering" if factor == 1.0 else "bound"
    return Claim(kind, name, lambda r: r.cell(column, system=low)
                 < factor * r.cell(column, system=high))


AHEAD_OF_ARIA = _below("throughput_tps", "HarmonyBC is ahead of AriaBC", "aria", "harmony")


@claims(
    _beats_existing(2.0),  # paper: 3.5x
    AHEAD_OF_ARIA,
    Claim("ordering", "OE latency is below SOV latency (fewer round trips)",
          lambda r, sov: r.cell("latency_ms", system="harmony")
          < r.cell("latency_ms", system=sov), grid(sov=SOV_SYSTEMS)),
    _below("latency_ms", "AriaBC's larger optimal block size costs it latency",
           "harmony", "aria"),
)
def figure7(scale: BenchScale | None = None) -> ExperimentResult:
    return _overall("smallbank", scale)


@claims(
    _beats_existing(1.5),  # paper: 2.0x
    AHEAD_OF_ARIA,
    _below("throughput_tps", "Fabric beats FastFabric#, whose runtime is graph traversal"
           " on 10-record transactions", "fastfabric", "fabric"),
    _below("latency_ms", "FastFabric#'s latency is above Fabric's", "fabric", "fastfabric"),
    _below("latency_ms", "HarmonyBC's latency is under half of Fabric's (paper: ~70 %"
           " lower)", "harmony", "fabric", factor=0.5),
)
def figure8(scale: BenchScale | None = None) -> ExperimentResult:
    return _overall("ycsb", scale)


# --------------------------------------------------------------------------
# Figures 9/10 — block size sweep
# --------------------------------------------------------------------------
def _block_sweep(workload_name: str, scale: BenchScale | None) -> ExperimentResult:
    figure = "Figure 9" if workload_name == "smallbank" else "Figure 10"
    result = ExperimentResult(
        name=figure,
        description=f"impact of block size on {workload_name}",
        headers=["system", "block_size", "throughput_tps", "latency_ms"],
    )
    for system in ("fabric", "fastfabric", "rbc", "aria", "harmony"):
        for block_size in BLOCK_SIZES:
            metrics = run_any(
                system, workload_name, scale=scale, block_size=block_size
            )
            result.add(system, block_size, metrics.throughput_tps, metrics.mean_latency_ms)
    return result


def _block_peak(r, system):
    return peak(r, "block_size", "throughput_tps", system=system)


def _pinned_optimum(workload: str, reason: str) -> Claim:
    return Claim("optimum", "every system's sweep peaks at its OPTIMAL_BLOCK size",
                 lambda r, system: _block_peak(r, system) == block_size_for(system, workload),
                 grid(system=ALL_SYSTEMS), expected=False, reason=reason)


def _latency_grows(factor: float, systems) -> Claim:
    return Claim("trend", f"latency grows more than {factor}x from block 5 to 100",
                 lambda r, system: _ends(r, "latency_ms", system=system)[1]
                 > factor * _ends(r, "latency_ms", system=system)[0],
                 grid(system=systems))


@claims(
    Claim("optimum", "tiny blocks (5) limit concurrency: every OE system peaks past them",
          lambda r, system: _block_peak(r, system) > 5, grid(system=OE_SYSTEMS)),
    Claim("optimum", "RBC's serial commit puts its peak at a block size no larger than"
          " AriaBC's (paper: 10 vs 75)",
          lambda r: _block_peak(r, "rbc") <= _block_peak(r, "aria")),
    _latency_grows(1.0, ("harmony", "aria", "fabric")),
    _pinned_optimum("smallbank", "the modeled sweep peaks elsewhere: harmony at 100"
                    " (50 and 75 within 1.4 %, the pinned 25 21 % below), aria 100 (pinned"
                    " 75), rbc 50 (pinned 10, not a swept size), fabric and fastfabric 25"
                    " (pinned 50); every other figure runs at the pins, so re-pinning"
                    " moves their modeled numbers - recorded, not re-pinned"),
)
def figure9(scale: BenchScale | None = None) -> ExperimentResult:
    return _block_sweep("smallbank", scale)


@claims(
    _latency_grows(3.0, ("fastfabric",)),
    Claim("ordering", "FastFabric#'s latency blows up the most (bigger graphs)",
          lambda r, other: max(r.series("latency_ms", system="fastfabric"))
          >= max(r.series("latency_ms", system=other)),
          grid(other=("fabric", "rbc", "aria", "harmony"))),
    Claim("optimum", "HarmonyBC peaks at a moderate block size: past 5, below 100",
          lambda r: 5 < _block_peak(r, "harmony") < 100),
    _pinned_optimum("ycsb", "the modeled sweep peaks elsewhere: harmony at 50 (pinned"
                    " 25), aria, rbc and fabric at 25 (pinned 50, 10, 50), fastfabric at 5"
                    " (pinned 50); recorded, not re-pinned (see Figure 9)"),
)
def figure10(scale: BenchScale | None = None) -> ExperimentResult:
    return _block_sweep("ycsb", scale)


# --------------------------------------------------------------------------
# Figures 11/12 — contention sweep
# --------------------------------------------------------------------------
def _contention(workload_name: str, scale: BenchScale | None) -> ExperimentResult:
    figure = "Figure 11" if workload_name == "smallbank" else "Figure 12"
    result = ExperimentResult(
        name=figure,
        description=f"impact of contention on {workload_name}",
        headers=["system", "skew", "throughput_tps", "abort_rate"],
    )
    for system in ("fabric", "fastfabric", "rbc", "aria", "harmony"):
        for skew in SKEWS:
            metrics = run_any(system, workload_name, scale=scale, skew=skew)
            result.add(system, skew, metrics.throughput_tps, metrics.abort_rate)
    return result


def _aborts_at_most_aria(slack: float) -> Claim:
    return Claim("ordering", f"HarmonyBC aborts at most AriaBC's rate (+{slack}) at every skew",
                 lambda r, skew: r.cell("abort_rate", system="harmony", skew=skew)
                 <= r.cell("abort_rate", system="aria", skew=skew) + slack,
                 grid(skew=SKEWS))


def _tput_falls(factor: float, name: str, systems) -> Claim:
    """Throughput at skew 1.0 is below ``factor`` x skew 0's."""
    return Claim("collapse", name,
                 lambda r, system: _kept(r, "throughput_tps", system=system) < factor,
                 grid(system=systems))


@claims(
    Claim("trend", "abort rates grow with skew",
          lambda r, system: _ends(r, "abort_rate", system=system)[1]
          >= _ends(r, "abort_rate", system=system)[0], grid(system=OE_SYSTEMS)),
    _aborts_at_most_aria(0.01),
    Claim("bound", "Smallbank is mild: HarmonyBC keeps more than 0.4 of its skew-0"
          " throughput at skew 1.0", lambda r: _kept(r, "throughput_tps", system="harmony") > 0.4),
    Claim("ordering", "HarmonyBC is on top at medium contention (skew 0.6)",
          lambda r, other: _tput(r, "harmony", skew=0.6) > _tput(r, other, skew=0.6),
          grid(other=("fabric", "fastfabric", "rbc", "aria"))),
)
def figure11(scale: BenchScale | None = None) -> ExperimentResult:
    return _contention("smallbank", scale)


@claims(
    Claim("bound", "Fabric aborts even at skew 0 (non-deterministic endorsement rw-sets)",
          lambda r: r.cell("abort_rate", system="fabric", skew=0.0) > 0.0),
    _tput_falls(1.0, "every OE system loses throughput toward skew 1.0", OE_SYSTEMS),
    Claim("ordering", "HarmonyBC outperforms AriaBC and RBC at every skew",
          lambda r, skew, other: _tput(r, "harmony", skew=skew) > _tput(r, other, skew=skew),
          grid(skew=SKEWS, other=("aria", "rbc"))),
    _aborts_at_most_aria(0.0),
)
def figure12(scale: BenchScale | None = None) -> ExperimentResult:
    return _contention("ycsb", scale)


# --------------------------------------------------------------------------
# Figure 13 — false abort rate (FastFabric# excluded, as in the paper)
# --------------------------------------------------------------------------
def _false_aborts_below(r, workload, skew, other) -> bool:
    """HarmonyBC's false-abort rate is at most ``other``'s + 0.01 (one point:
    3 of HarmonyBC's 350 transactions at the default scale)."""

    def rate(system):
        return r.cell("false_abort_rate", workload=workload, system=system, skew=skew)

    return rate("harmony") <= rate(other) + 0.01


F13_POINTS = grid(workload=("ycsb", "smallbank"), skew=SKEWS, other=("fabric", "rbc", "aria"))
#: the points where HarmonyBC's rate is above another system's (re-run at
#: the default scale); the two expected-false claims give the reasons
F13_ABOVE_ARIA_FABRIC = grid(workload=("ycsb",), skew=(1.0,), other=("aria", "fabric"))
F13_ABOVE_RBC = grid(workload=("ycsb",), skew=(0.6,), other=("rbc",)) + grid(
    workload=("smallbank",), skew=(0.8,), other=("rbc",)
)


@claims(
    Claim("ordering", "HarmonyBC has the lowest false-abort rate summed over the skews",
          lambda r, workload, other: sum(r.series("false_abort_rate", workload=workload,
                                                  system="harmony"))
          <= sum(r.series("false_abort_rate", workload=workload, system=other)),
          grid(workload=("ycsb", "smallbank"), other=("fabric", "rbc", "aria"))),
    Claim("ordering", "HarmonyBC's false-abort rate is lowest (+0.01) at every skew",
          _false_aborts_below, tuple(p for p in F13_POINTS
                                     if p not in F13_ABOVE_ARIA_FABRIC + F13_ABOVE_RBC)),
    Claim("ordering", "HarmonyBC's false-abort rate is lowest (+0.01) at YCSB skew 1.0",
          _false_aborts_below, F13_ABOVE_ARIA_FABRIC, expected=False,
          reason="HarmonyBC reads 0.754 against AriaBC's 0.669 and Fabric's 0.674; the"
          " oracle judges an abort against the block's own committed graph, which"
          " cannot see what a Rule-3(ii) inter-block abort avoids - with"
          " inter_block=False this point reads 0.560 (196 of 350)"),
    Claim("ordering", "HarmonyBC's false-abort rate is at most RBC's (+0.01)",
          _false_aborts_below, F13_ABOVE_RBC, expected=False,
          reason="RBC runs blocks of 10 (OPTIMAL_BLOCK) to HarmonyBC's 25 and attempts"
          " 140 transactions to its 350, fewer to conflict per block; HarmonyBC reads"
          " 0.083 / 0.043 against RBC's 0.064 / 0.007, and 0.020 / 0.000 with"
          " inter_block=False"),
    Claim("trend", "false aborts grow with contention (AriaBC on YCSB peaks past skew 0)",
          lambda r: peak(r, "skew", "false_abort_rate", workload="ycsb", system="aria") > 0),
)
def figure13(scale: BenchScale | None = None) -> ExperimentResult:
    result = ExperimentResult(
        name="Figure 13",
        description="false abort rate (aborts a perfect scheduler avoids)",
        headers=["workload", "system", "skew", "false_abort_rate"],
    )
    for workload_name in ("ycsb", "smallbank"):
        for system in ("fabric", "rbc", "aria", "harmony"):
            for skew in SKEWS:
                metrics = run_any(system, workload_name, scale=scale, skew=skew)
                result.add(workload_name, system, skew, metrics.false_abort_rate)
    result.notes.append(
        "FastFabric# excluded: its graph traversal eliminates false aborts"
        " at the orderer (paper, Figure 13 caption)."
    )
    return result


# --------------------------------------------------------------------------
# Figure 14 — hotspots
# --------------------------------------------------------------------------
def _halves(system: str, **kwargs) -> Claim:
    return Claim("collapse", f"{system}'s throughput drops below half as hotspot"
                 " probability rises",
                 lambda r: _kept(r, "throughput_tps", system=system) < 0.5, **kwargs)


@claims(
    Claim("bound", "HarmonyBC is almost unaffected by hotspot probability (min > 0.6 x max)",
          lambda r: min(r.series("throughput_tps", system="harmony"))
          > 0.6 * max(r.series("throughput_tps", system="harmony"))),
    Claim("bound", "HarmonyBC's abort rate stays under 0.05",
          lambda r: max(r.series("abort_rate", system="harmony")) < 0.05),
    _halves("aria"),
    Claim("bound", "AriaBC aborts more than 0.4 at full hotspot pressure",
          lambda r: r.cell("abort_rate", system="aria", hotspot_prob=1.0) > 0.4),
    Claim("trend", "RBC's abort rate climbs steeply (last > 5 x (first + 0.01))",
          lambda r: _ends(r, "abort_rate", system="rbc")[1]
          > 5 * (_ends(r, "abort_rate", system="rbc")[0] + 0.01)),
    _halves("rbc", expected=False, reason="RBC's serial commit keeps its absolute"
            " throughput low and flat in this cost model (1,274 -> 1,422 txn/s); the"
            " hotspot shows in its abort rate instead (0.014 -> 0.500, claimed above)"),
    Claim("bound", "at full hotspot pressure HarmonyBC commits more than 2x AriaBC and RBC",
          lambda r, other: _tput(r, "harmony", hotspot_prob=1.0)
          > 2 * _tput(r, other, hotspot_prob=1.0), grid(other=("aria", "rbc"))),
    Claim("trend", "HarmonyBC's margin over AriaBC grows with hotspot probability",
          lambda r: _tput(r, "harmony", hotspot_prob=1.0) / _tput(r, "aria", hotspot_prob=1.0)
          > _tput(r, "harmony", hotspot_prob=0.0) / _tput(r, "aria", hotspot_prob=0.0)),
)
def figure14(scale: BenchScale | None = None) -> ExperimentResult:
    result = ExperimentResult(
        name="Figure 14",
        description="impact of hotspots (1% hot keys, fused SELECT+UPDATE)",
        headers=["system", "hotspot_prob", "throughput_tps", "abort_rate"],
    )
    for system in OE_SYSTEMS:
        for prob in HOTSPOT_PROBS:
            metrics = run_oe(
                system,
                "ycsb-hotspot",
                scale,
                workload_kwargs={"hotspot_probability": prob},
            )
            result.add(system, prob, metrics.throughput_tps, metrics.abort_rate)
    return result


# --------------------------------------------------------------------------
# Figures 15/16 — replica scaling
# --------------------------------------------------------------------------
def _replicas(workload_name: str, scale: BenchScale | None) -> ExperimentResult:
    figure = "Figure 15" if workload_name == "smallbank" else "Figure 16"
    result = ExperimentResult(
        name=figure,
        description=f"impact of number of replicas on {workload_name} (cloud LAN)",
        headers=["system", "replicas", "throughput_tps", "latency_ms"],
    )
    for system in ("fabric", "fastfabric", "rbc", "aria", "harmony"):
        for replicas in REPLICA_COUNTS:
            metrics = run_any(
                system,
                workload_name,
                scale=scale,
                num_replicas=replicas,
                network=NetworkPreset.CLOUD_LAN_5G,
            )
            result.add(
                system, replicas, metrics.throughput_tps, metrics.mean_latency_ms
            )
    return result


def _replica_step(kind: str, name: str, column: str, systems, holds) -> Claim:
    """``holds(first, last)`` of each system's replica sweep."""
    return Claim(kind, name, lambda r, system: holds(*_ends(r, column, system=system)),
                 grid(system=systems))


def _replica_claims(sov_latency_growth: float) -> tuple[Claim, ...]:
    return (
        _replica_step("bound", "OE throughput is flat from 4 to 80 replicas (last > 0.8"
                      " x first)", "throughput_tps", OE_SYSTEMS, lambda a, z: z > 0.8 * a),
        _replica_step("collapse", "broadcasting rw-sets saturates Fabric's orderer uplink"
                      " (last < 0.95 x first)", "throughput_tps", ("fabric",),
                      lambda a, z: z < 0.95 * a),
        _replica_step("trend", "SOV throughput does not grow with replicas",
                      "throughput_tps", SOV_SYSTEMS, lambda a, z: z <= a),
        _replica_step("trend", f"SOV latency grows more than {sov_latency_growth}x with"
                      " replicas", "latency_ms", SOV_SYSTEMS,
                      lambda a, z: z > sov_latency_growth * a),
    )


@claims(*_replica_claims(1.5))
def figure15(scale: BenchScale | None = None) -> ExperimentResult:
    return _replicas("smallbank", scale)


@claims(
    *_replica_claims(1.2),
    Claim("ordering", "HarmonyBC stays on top at every replica count",
          lambda r, replicas, other: _tput(r, "harmony", replicas=replicas)
          >= _tput(r, other, replicas=replicas),
          grid(replicas=REPLICA_COUNTS, other=("fabric", "fastfabric", "rbc", "aria"))),
)
def figure16(scale: BenchScale | None = None) -> ExperimentResult:
    return _replicas("ycsb", scale)


# --------------------------------------------------------------------------
# Figures 17/18 — BFT consensus, geo-distributed
# --------------------------------------------------------------------------
def _bft(workload_name: str, scale: BenchScale | None) -> ExperimentResult:
    figure = "Figure 17" if workload_name == "smallbank" else "Figure 18"
    result = ExperimentResult(
        name=figure,
        description=f"HarmonyBC with BFT vs Kafka consensus on {workload_name}"
        " (>20 nodes => geo-distributed WAN)",
        headers=["consensus", "nodes", "throughput_tps", "latency_ms"],
    )
    for consensus in ("hotstuff", "kafka"):
        for nodes in REPLICA_COUNTS:
            preset = (
                NetworkPreset.CLOUD_WAN if nodes > 20 else NetworkPreset.CLOUD_LAN_5G
            )
            metrics = run_oe(
                "harmony",
                workload_name,
                scale,
                consensus=consensus,
                num_replicas=nodes,
                network=preset,
            )
            result.add(consensus, nodes, metrics.throughput_tps, metrics.mean_latency_ms)
    return result


BFT_UNAFFECTED = Claim(
    "bound", "BFT leaves throughput almost unaffected (min > 0.75 x Kafka's max)",
    lambda r: min(r.series("throughput_tps", consensus="hotstuff"))
    > 0.75 * max(r.series("throughput_tps", consensus="kafka")),
)
BFT_LATENCY_GROWS = Claim(
    "trend", "BFT latency grows more than 5x once nodes span continents (within one"
    " region the penalty is modest: under 0.2 x the 80-node latency)",
    lambda r: _ends(r, "latency_ms", consensus="hotstuff")[1]
    > 5 * _ends(r, "latency_ms", consensus="hotstuff")[0],
)


@claims(
    BFT_UNAFFECTED,
    BFT_LATENCY_GROWS,
    Claim("ordering", "HotStuff needs more round trips than Kafka at every scale",
          lambda r, nodes: r.cell("latency_ms", consensus="hotstuff", nodes=nodes)
          > r.cell("latency_ms", consensus="kafka", nodes=nodes), grid(nodes=REPLICA_COUNTS)),
)
def figure17(scale: BenchScale | None = None) -> ExperimentResult:
    return _bft("smallbank", scale)


@claims(BFT_UNAFFECTED, BFT_LATENCY_GROWS)
def figure18(scale: BenchScale | None = None) -> ExperimentResult:
    return _bft("ycsb", scale)


# --------------------------------------------------------------------------
# Figure 19 — TPC-C
# --------------------------------------------------------------------------
@claims(
    Claim("ordering", "HarmonyBC wins at every warehouse count",
          lambda r, warehouses, other: _tput(r, "harmony", warehouses=warehouses)
          > _tput(r, other, warehouses=warehouses),
          grid(warehouses=WAREHOUSES, other=("aria", "rbc"))),
    Claim("bound", "the margin at 1 warehouse is above 1.5x (paper: 3.3x)",
          lambda r, other: _tput(r, "harmony", warehouses=1)
          > 1.5 * _tput(r, other, warehouses=1), grid(other=("aria", "rbc"))),
    Claim("optimum", "past ~20 warehouses the growing database hurts: HarmonyBC's 80 is"
          " below its peak",
          lambda r: peak(r, "warehouses", "throughput_tps", system="harmony") != 80),
)
def figure19(scale: BenchScale | None = None) -> ExperimentResult:
    result = ExperimentResult(
        name="Figure 19",
        description="TPC-C: throughput/latency vs warehouse count",
        headers=["system", "warehouses", "throughput_tps", "latency_ms"],
    )
    for system in OE_SYSTEMS:
        for warehouses in WAREHOUSES:
            metrics = run_oe(
                system,
                "tpcc",
                scale,
                workload_kwargs={"num_warehouses": warehouses},
            )
            result.add(
                system, warehouses, metrics.throughput_tps, metrics.mean_latency_ms
            )
    result.notes.append(
        "Fabric/FastFabric# excluded: no native relational model (paper §5.6)."
    )
    return result


# --------------------------------------------------------------------------
# Figure 20 — ablation study
# --------------------------------------------------------------------------
ABLATIONS = (
    ("raw-HarmonyBC", HarmonyConfig(update_reorder=False, coalesce=False, inter_block=False)),
    ("+update-reorder", HarmonyConfig(update_reorder=True, coalesce=False, inter_block=False)),
    ("+update-coalesce", HarmonyConfig(update_reorder=True, coalesce=True, inter_block=False)),
    ("HarmonyBC (+inter-block)", HarmonyConfig()),
)
RAW, REORDER, COALESCE, FULL = (label for label, _ in ABLATIONS)

CONTENTION_LEVELS = {
    "ycsb": {"low": {"skew": 0.0}, "high": {"skew": 1.0}},
    "smallbank": {"low": {"skew": 0.0}, "high": {"skew": 1.0}},
    "tpcc": {
        "low": {"workload_kwargs": {"num_warehouses": 80}},
        "high": {"workload_kwargs": {"num_warehouses": 1}},
    },
}
EVERY_CELL = grid(workload=tuple(CONTENTION_LEVELS), contention=("low", "high"))
LOW_YCSB_SMALLBANK = grid(workload=("ycsb", "smallbank"), contention=("low",))


def _step(column: str, low: str, high: str, margin: float = 1.0):
    """``test(r, workload=, contention=)``: variant ``high``'s ``column`` is
    above ``margin`` x variant ``low``'s in that cell."""

    def test(r, **cell):
        return r.cell(column, variant=high, **cell) > margin * r.cell(column, variant=low, **cell)

    return test


@claims(
    Claim("ordering", "the full system beats raw HarmonyBC under both contention levels",
          _step("throughput_tps", RAW, FULL), EVERY_CELL),
    Claim("ordering", "update reordering cuts the abort rate under high contention",
          _step("abort_rate", REORDER, RAW),
          grid(workload=("ycsb", "tpcc"), contention=("high",))),
    Claim("ordering", "inter-block parallelism raises CPU utilization under low contention",
          _step("cpu_util", COALESCE, FULL), LOW_YCSB_SMALLBANK),
    Claim("ordering", "... at the cost of a higher abort rate",
          _step("abort_rate", COALESCE, FULL), LOW_YCSB_SMALLBANK),
    Claim("bound", "update coalescing adds at least 1 % throughput over reordering alone",
          _step("throughput_tps", REORDER, COALESCE, margin=1.01), EVERY_CELL, expected=False,
          reason="it is worth +0.0-0.8 % in every cell: uncoalesced, each extra updater of"
          " a key repeats that key's write charge on a page the first write already"
          " brought into the buffer pool, a small share of the modeled makespan; even"
          " Figure 14's hotspot stream at probability 1.0 gains only +0.9 % (9,278 ->"
          " 9,358 txn/s)"),
)
def figure20(scale: BenchScale | None = None) -> ExperimentResult:
    result = ExperimentResult(
        name="Figure 20",
        description="ablation: throughput / abort rate / CPU utilization",
        headers=[
            "workload",
            "contention",
            "variant",
            "throughput_tps",
            "abort_rate",
            "cpu_util",
        ],
    )
    for workload_name, levels in CONTENTION_LEVELS.items():
        for level, kwargs in levels.items():
            for label, config in ABLATIONS:
                metrics = run_oe(
                    "harmony", workload_name, scale, harmony=config, **kwargs
                )
                result.add(
                    workload_name,
                    level,
                    label,
                    metrics.throughput_tps,
                    metrics.abort_rate,
                    metrics.cpu_utilization,
                )
    return result


# --------------------------------------------------------------------------
# Figure 21 — is Harmony still useful without disk overheads?
# --------------------------------------------------------------------------
ENGINES = ("PGSQL (SSD)", "PGSQL (RAMDisk)", "memory engine")
F21_WORKLOADS = ("ycsb", "smallbank", "tpcc")


def _f21(r, workload, engine, system="harmony"):
    return r.cell("throughput_ktps", workload=workload, engine=engine, system=system)


@claims(
    Claim("trend", "removing device latency helps, removing the buffer manager helps more",
          lambda r, workload, system: _f21(r, workload, ENGINES[0], system)
          < _f21(r, workload, ENGINES[1], system) < _f21(r, workload, ENGINES[2], system),
          grid(workload=F21_WORKLOADS, system=("aria", "harmony"))),
    Claim("ordering", "HarmonyBC still beats AriaBC with every storage engine",
          lambda r, workload, engine: _f21(r, workload, engine)
          >= _f21(r, workload, engine, "aria"), grid(workload=F21_WORKLOADS, engine=ENGINES)),
    Claim("ordering", "even the memory engine stays below the consensus ceiling",
          lambda r, workload: _f21(r, workload, ENGINES[2])
          < _f21(r, workload, "consensus ceiling", "hotstuff"), grid(workload=F21_WORKLOADS)),
)
def figure21(scale: BenchScale | None = None) -> ExperimentResult:
    result = ExperimentResult(
        name="Figure 21",
        description="SSD vs RAMDisk vs memory engine (+ consensus ceiling)",
        headers=["workload", "engine", "system", "throughput_ktps"],
    )
    profiles = tuple(
        zip(ENGINES, (StorageProfile.SSD, StorageProfile.RAMDISK, StorageProfile.MEMORY))
    )
    costs = CostModel()
    consensus = HotStuffConsensus(
        NetworkModel.preset(NetworkPreset.CLOUD_LAN_5G), costs, num_nodes=80
    )
    for workload_name in F21_WORKLOADS:
        for label, profile in profiles:
            for system in ("aria", "harmony"):
                metrics = run_oe(system, workload_name, scale, profile=profile)
                result.add(
                    workload_name, label, system, metrics.throughput_tps / 1000.0
                )
        result.add(
            workload_name,
            "consensus ceiling",
            "hotstuff",
            consensus.throughput_tps() / 1000.0,
        )
    return result


# --------------------------------------------------------------------------
# Sharded scale-out (beyond the paper): execution shards over one stream
# --------------------------------------------------------------------------
SHARD_COUNTS = (1, 2, 4)


def _scale_out(name, description, workload, cross_ratios, block_size, num_blocks, seed):
    """HarmonyBC on 1/2/4 execution shards over the identical stream at each
    cross-shard ratio (``workload(cross)`` lays the data out in 4 partitions
    whatever the deployment size), next to the unsharded run of that stream;
    ``speedup`` is the committed throughput over the 1-shard run's."""
    result = ExperimentResult(
        name=name,
        description=description,
        headers=["cross_ratio", "shards", "throughput_tps", "speedup", "cross_shard_txns",
                 "verified", "same_as_unsharded"],
    )
    for cross in cross_ratios:
        config = OEConfig(
            system="harmony", block_size=block_size, num_blocks=num_blocks, seed=seed
        )
        unsharded = OEBlockchain(config, workload(cross)).run().extra
        for shards in SHARD_COUNTS:
            sharded = ShardConfig(**vars(config), num_shards=shards)
            metrics = ShardedBlockchain(sharded, workload(cross)).run()
            extra = metrics.extra
            if shards == 1:
                base = metrics.throughput_tps
            same = all(extra[k] == unsharded[k] for k in ("decision_digest", "state_hash"))
            result.add(
                cross,
                shards,
                metrics.throughput_tps,
                metrics.throughput_tps / base,
                extra["cross_shard_txns"],
                extra["ledger_ok"] and extra["certificates_ok"],
                same if shards == 1 else None,
            )
    return result


def _deployment(r, column, cross_ratio, shards=1):
    return r.cell(column, cross_ratio=cross_ratio, shards=shards)


def _scale_out_claims(cross_ratios: tuple, bar: float) -> tuple[Claim, ...]:
    sharded = grid(cross_ratio=cross_ratios, shards=(2, 4))
    return (
        Claim("invariant", "every deployment's ledgers and certificate chain verify",
              lambda r, **at: _deployment(r, "verified", **at),
              grid(cross_ratio=cross_ratios, shards=SHARD_COUNTS)),
        Claim("invariant", "the 1-shard run's decisions and state equal the unsharded run's",
              lambda r, **at: _deployment(r, "same_as_unsharded", **at),
              grid(cross_ratio=cross_ratios)),
        Claim("bound", "every multi-shard run carries cross-shard transactions",
              lambda r, **at: _deployment(r, "cross_shard_txns", **at) > 0, sharded),
        Claim("bound", "every multi-shard run scales past the 1-shard throughput",
              lambda r, **at: _deployment(r, "speedup", **at) >= 1.0, sharded),
        Claim("bound", f"4 shards at {cross_ratios[0]} cross-shard traffic reach {bar}x the"
              " 1-shard throughput",
              lambda r: _deployment(r, "speedup", cross_ratios[0], 4) >= bar),
    )


SHARD_SCALING_CROSS = (0.05, 0.3)
TPCC_SHARDED_CROSS = (0.1, 0.5)


@claims(*_scale_out_claims(SHARD_SCALING_CROSS, 2.0))
def shard_scaling(scale: BenchScale | None = None) -> ExperimentResult:
    """Low-contention YCSB at 5 % and 30 % cross-shard transactions."""
    return _scale_out(
        "Shard scaling",
        "HarmonyBC on 1/2/4 execution shards, low-contention YCSB",
        lambda cross: YCSBWorkload(
            num_keys=10_000, theta=0.1, affinity=ShardAffinity(4, cross)
        ),
        SHARD_SCALING_CROSS,
        block_size=100,
        num_blocks=12,
        seed=(scale or current_scale()).seed,
    )


@claims(*_scale_out_claims(TPCC_SHARDED_CROSS, 1.5))
def tpcc_sharded(scale: BenchScale | None = None) -> ExperimentResult:
    """8-warehouse TPC-C on warehouse-aligned shards at 10 % and 50 %
    cross-shard ratio: remote-warehouse payments and remote stock lines
    are genuine 2PC traffic."""
    return _scale_out(
        "TPC-C sharded",
        "HarmonyBC on 1/2/4 warehouse-aligned shards, 8-warehouse TPC-C",
        lambda cross: _registry_make_workload(
            "tpcc", num_warehouses=8, affinity=ShardAffinity(4, cross)
        ),
        TPCC_SHARDED_CROSS,
        block_size=40,
        num_blocks=10,
        seed=(scale or current_scale()).seed,
    )


# --------------------------------------------------------------------------
# Adaptive sharding: live re-keying under a migrating hotspot
# --------------------------------------------------------------------------
def _rekeyed(r, column):
    return r.cell(column, rebalance="adaptive")


@claims(
    Claim("invariant", "both runs' ledgers and certificate chains verify",
          lambda r, rebalance: r.cell("verified", rebalance=rebalance),
          grid(rebalance=("off", "adaptive"))),
    Claim("invariant", "a fresh replica replaying sub-blocks + certificates (migration"
          " records included) reaches the identical state",
          lambda r, rebalance: r.cell("replay_identical", rebalance=rebalance),
          grid(rebalance=("off", "adaptive"))),
    Claim("bound", "the adaptive run migrates at least once",
          lambda r: _rekeyed(r, "migrations") >= 1),
    Claim("ordering", "re-keying cuts the cross-shard transactions",
          lambda r: _rekeyed(r, "cross_shard_txns")
          < r.cell("cross_shard_txns", rebalance="off")),
    Claim("bound", "live re-keying holds at least 2x the static throughput",
          lambda r: _rekeyed(r, "speedup") >= 2.0),
)
def adaptive_skew(scale: BenchScale | None = None) -> ExperimentResult:
    """Static hash routing vs ``rebalance="adaptive"`` on 4 shards under the
    migrating-Zipf ``adv-skewshift`` stream.

    With hash routing a high-theta shifting hotspot scatters every
    transaction's footprint across the fleet: nearly every transaction pays
    2PC and the hot shard's lane dominates the makespan. The adaptive run's
    policy watches the decision-layer telemetry, colocates the hot key set,
    and the certified migration records re-key ownership mid-run.
    """
    result = ExperimentResult(
        name="Adaptive skew",
        description="static hash routing vs live re-keying, 4 shards, shifting hotspot",
        headers=["rebalance", "throughput_tps", "speedup", "cross_shard_txns", "migrations",
                 "verified", "replay_identical"],
    )
    for rebalance in ("off", "adaptive"):
        workload = _registry_make_workload(
            "adv-skewshift",
            num_keys=200,
            theta=1.3,
            shift_period=96,
            ops_per_txn=4,
            fused_ratio=0.9,
        )
        config = ShardConfig(
            system="harmony",
            block_size=80,
            num_blocks=12,
            seed=(scale or current_scale()).seed,
            num_shards=4,
            router_policy="hash",
            rebalance=rebalance,
            rebalance_skew_threshold=1.5,
            rebalance_cross_threshold=0.3,
            rebalance_max_keys=128,
        )
        chain = ShardedBlockchain(config, workload)
        metrics = chain.run()
        extra = metrics.extra
        if rebalance == "off":
            base = metrics.throughput_tps
        result.add(
            rebalance,
            metrics.throughput_tps,
            metrics.throughput_tps / base,
            extra["cross_shard_txns"],
            extra["migrations"],
            extra["ledger_ok"] and extra["certificates_ok"],
            chain.consistency_check(),
        )
    return result


#: registry used by the CLI and ``tests/test_figures.py``
EXPERIMENTS = {
    "figure1": figure1,
    "table3": table3,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
    "figure15": figure15,
    "figure16": figure16,
    "figure17": figure17,
    "figure18": figure18,
    "figure19": figure19,
    "figure20": figure20,
    "figure21": figure21,
    "shard_scaling": shard_scaling,
    "tpcc_sharded": tpcc_sharded,
    "adaptive_skew": adaptive_skew,
}
