"""Alternating parent/change pairs of the end-to-end benchmark.

The measuring procedure a PR that claims (or must not lose) host speed
follows, as one command::

    python3 tools/e2e_pairs.py --workload smallbank_4shard --parent HEAD --pairs 10
    make e2e-pairs WORKLOAD=smallbank_4shard PARENT=HEAD PAIRS=10

The parent revision's committed files are unpacked into a temporary
directory (``git archive``; nothing in ``.git`` or the working tree is
touched) and the change is the working tree as it stands. Pair *i* runs
``benchmarks/e2e/run.py --workload W --seed SEED+i --seconds S --trace 0``
on both sides, in fresh interpreters, one at a time, alternating which side
goes first; ``S`` defaults to the manifest's ``run_seconds``. Printed per
workload and end-to-end metric: each side's median and quartiles, the
change/parent ratio of medians, and how many pairs the change won (ties
count for neither). A host metric is marked ``GAIN`` / ``LOSS`` only by the
rule ``docs/performance.md`` states: at least ten pairs, ahead (behind) in at
least nine tenths of them *and* medians apart by more than the parent's
inter-quartile distance. A ``LOSS`` reads ``(inside bound)`` while the change's
median is worse than the parent's by at most the metric's ``BENCHMARK.json``
bound (a share of the parent's median), ``(past bound)`` beyond it. The
modeled metrics and ``commit_rate`` must be identical per seed; any pair where
they are not, any loss past its bound, any incorrect run and any rise in the
failed share make the command exit 1.

``--layers`` (``make e2e-pairs ... LAYERS=1``) runs the same alternating
pairs at ``--trace 1`` instead and prints, per side, the **median** of every
layer's ``self_s``, of ``chain.recovery.recover_s`` / ``.replayed_blocks``
and of ``driver.py_calls_per_txn``. Read layer tables
from this, not from one traced run: the box's speed drifts by ten percent
within a second, so a single parent/change pair can show a layer slower on a
change that is faster end to end. (A revision whose block walk runs with the
collector on has a second source of the same: its ``run()`` holds 160-310
generation-0, 15-29 generation-1 and 1-3 generation-2 collections — 15-22 %
of its CPU seconds, ``tools/gc_budget.py`` — each landing in whichever layer
crosses an allocation threshold. The walk now pauses the collector, and its
settle on the way out, inside ``driver.self_s``, runs no collection: it
moves the survivors to the oldest generation with ``gc.freeze()`` +
``gc.unfreeze()``. A revision that settled with one ``gc.collect(1)`` pays
that pass there, 3-8 % of a ``run()``.)
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmarks" / "e2e"), str(ROOT / "src")]

from e2e_harness import EXACT  # noqa: E402  (metrics that repeat exactly per seed)


def unpack(rev: str, into: str) -> None:
    """The committed files of ``rev``, as the benchmark driver sees them."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def run_once(
    checkout: pathlib.Path, workload: str, seed: int, seconds: int, trace: int = 0
) -> dict:
    """One driver-mode invocation; its last stdout line is the result."""
    command = [
        sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, timeout=1800)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{checkout}: {workload} gave no result\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(workload: str, runs: dict, metrics: list) -> bool:
    """Print the table for one workload; False when a hard check failed."""
    ok = True
    pairs = len(runs["parent"])
    print(f"\n{workload}: {pairs} pair(s)   (q1 / median / q3 per side)")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {
            side: [run["metrics"][name]["value"] for run in results]
            for side, results in runs.items()
        }
        if name in EXACT:
            differing = sum(p != c for p, c in zip(sides["parent"], sides["change"]))
            ok &= not differing
            status = "identical per seed" if not differing else f"DIFFERS in {differing} pair(s)"
            print(f"  {name:<24} {status}")
            continue
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(sides["parent"]), quartiles(sides["change"])
        # per pair, how far the change is ahead in the metric's good direction
        leads = [(c - p) if higher else (p - c) for p, c in zip(sides["parent"], sides["change"])]
        ahead, behind = sum(lead > 0 for lead in leads), sum(lead < 0 for lead in leads)
        # the rule is stated for at least ten pairs; fewer is a sizing run
        apart = pairs >= 10 and abs(cmed - pmed) > (pq3 - pq1)
        verdict = ""
        if apart and ahead >= 0.9 * pairs:
            verdict = "GAIN"
        elif apart and behind >= 0.9 * pairs:
            # the bound is the share of the parent's median a metric may lose
            worse = (pmed - cmed) if higher else (cmed - pmed)
            past = worse > metric["bound"] * pmed
            ok &= not past
            verdict = "LOSS (past bound)" if past else "LOSS (inside bound)"
        print(
            f"  {name:<24} parent {pq1:.6g} / {pmed:.6g} / {pq3:.6g}   "
            f"change {cq1:.6g} / {cmed:.6g} / {cq3:.6g}   "
            f"x{cmed / pmed:.3f}   ahead {ahead}/{pairs}, behind {behind}/{pairs}"
            f"   {verdict}  [{metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%}]"
        )
    for side, results in runs.items():
        incorrect = sum(not run["correct"] for run in results)
        if incorrect:
            ok = False
            print(f"  {side}: {incorrect} run(s) not correct")
    shares = {
        side: sum(run["failed"] for run in results) / sum(run["attempted"] for run in results)
        for side, results in runs.items()
    }
    if shares["change"] > shares["parent"]:
        ok = False
    print(f"  failed share             parent {shares['parent']:.6g}   change {shares['change']:.6g}")
    return ok


def report_layers(workload: str, runs: dict, metrics: list) -> bool:
    """Print each side's per-layer medians; False when a run was incorrect."""
    pairs = len(runs["parent"])
    print(f"\n{workload}: {pairs} traced pair(s)   (median per side)")
    names = [m["name"] for m in metrics if m["name"].endswith(".self_s")]
    # the recovery drill has no span of its own: its seconds (and the block
    # count they are spent on, which a host-speed change must not move)
    names += ["chain.recovery.recover_s", "chain.recovery.replayed_blocks"]
    names.append("driver.py_calls_per_txn")
    for name in names:
        values = {
            side: [run["metrics"][name]["value"] for run in results]
            for side, results in runs.items()
        }
        if any(value is None for side in values.values() for value in side):
            print(f"  {name:<36} unmeasured (shim target missing)")
            continue
        pmed, cmed = (statistics.median(values[side]) for side in ("parent", "change"))
        if pmed or cmed:
            ratio = f"x{cmed / pmed:.3f}" if pmed else ""
            print(f"  {name:<36} parent {pmed:<10.4g} change {cmed:<10.4g} {ratio}")
    incorrect = {
        side: sum(not run["correct"] for run in results) for side, results in runs.items()
    }
    for side, count in incorrect.items():
        if count:
            print(f"  {side}: {count} run(s) not correct")
    return not any(incorrect.values())


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        manifest = json.load(handle)
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="comma-separated names, or 'all'")
    parser.add_argument("--parent", default="HEAD", help="revision the working tree is compared with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7, help="pair i runs seed SEED+i on both sides")
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--out", help="write every run's result line to this JSON file")
    parser.add_argument(
        "--layers", action="store_true",
        help="pairs at --trace 1: per-layer self_s medians and py_calls_per_txn",
    )  # fmt: skip
    args = parser.parse_args()
    wanted = names if args.workload == "all" else args.workload.split(",")
    unknown = sorted(set(wanted) - set(names))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workload(s) {unknown}" if unknown else "--pairs must be >= 1")

    ok = True
    record = {}
    with tempfile.TemporaryDirectory(prefix="e2e-parent-") as parent_dir:
        unpack(args.parent, parent_dir)
        checkouts = {"parent": pathlib.Path(parent_dir), "change": ROOT}
        for workload in wanted:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(
                        checkouts[side], workload, args.seed + pair, args.seconds, int(args.layers)
                    )
                    runs[side].append(result)
                    shown = "driver.py_calls_per_txn" if args.layers else "host_tps"
                    print(
                        f"{workload} pair {pair} {side:<6} {shown} "
                        f"{result['metrics'][shown]['value']:.6g}",
                        flush=True,
                    )
            record[workload] = runs
            if args.layers:
                ok &= report_layers(workload, runs, manifest["per_layer"])
            else:
                ok &= report(workload, runs, manifest["end_to_end"])
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"parent": args.parent, "seed": args.seed, "runs": record}, handle, indent=1)
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
