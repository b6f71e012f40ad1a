"""End-to-end benchmark of the Order-Execute chain: one command.

One workload (what the benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and ends with one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs the whole benchmark, each workload and trace
mode in a fresh interpreter, one at a time::

    python3 benchmarks/e2e/run.py [--seed 7] [--seconds 20] [--rounds N]
                                  [--workloads a,b] [--smoke] [--agree] [--out FILE]

Metric names, units and bounds are read from ``BENCHMARK.json``; see
``README.md`` beside this file for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

try:
    import e2e_harness
except ImportError as error:  # the checkout holds the benchmark but not src/repro
    sys.exit(f"cannot import the system under test: {error}")

DETAIL_PREFIX = "DETAIL "
#: every per-layer count must repeat exactly between two sets of one seed,
#: except cProfile's call total: it differed once in eight runs, by 199 calls
#: in 1.2e7 (iteration order of address-hashed sets), so it gets a bound
PY_CALLS_BOUND = 0.01


def manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def measure_one(args, spec_sheet: dict) -> int:
    """Driver mode: one workload, one trace mode, this process."""
    if args.trace:
        result = e2e_harness.measure_layers(args.workload, args.seed, args.smoke)
        wanted = spec_sheet["per_layer"]
    else:
        result = e2e_harness.measure_end_to_end(
            args.workload, args.seed, args.seconds, args.smoke, args.rounds
        )
        wanted = spec_sheet["end_to_end"]
    final = result.final(wanted)
    summaries = result.detail.get("summaries", {})
    for name, entry in final["metrics"].items():
        spread = summaries.get(name)
        note = (
            f"  (median of {spread['n']}; q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g})"
            if spread
            else ""
        )
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{args.workload}  {name:<36} {shown:>12} {entry['unit']}{note}")
    for layer, targets in result.detail.get("missing_targets", {}).items():
        print(f"missing target(s) for layer {layer}: {', '.join(targets)}")
    share = result.metrics.get("driver.unattributed_share")
    if share is not None and share > 0.10:
        print(f"finding: {share:.1%} of the traced run() is unattributed driver time")
    for failure in result.failures:
        print(f"CHECK FAILED: {failure}")
    result.detail["failures"] = result.failures
    print(DETAIL_PREFIX + json.dumps(result.detail))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def run_child(workload: str, trace: int, args) -> tuple[dict, dict]:
    """One driver-mode invocation in a fresh interpreter -> (final, detail)."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]  # fmt: skip
    if args.rounds:
        command += ["--rounds", str(args.rounds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    for line in lines:
        if not line.startswith(DETAIL_PREFIX) and not line.startswith("{"):
            print(line)
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{workload} --trace {trace}: no result (exit {done.returncode})\n{done.stderr}"
        )
    detail = next(
        json.loads(line[len(DETAIL_PREFIX) :])
        for line in lines
        if line.startswith(DETAIL_PREFIX)
    )
    return json.loads(lines[-1]), detail


def run_set(names: list[str], args) -> dict:
    """The whole benchmark once: {workload: {"end_to_end", "per_layer", ...}}."""
    results = {}
    for name in names:
        results[name] = entry = {"failures": []}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            final, detail = run_child(name, trace, args)
            entry[kind] = {key: m["value"] for key, m in final["metrics"].items()}
            entry[f"{kind}_detail"] = detail
            entry["failures"] += detail["failures"]
    pair = [results.get(f"smallbank_{n}shard") for n in (1, 4)]
    if all(pair) and len({e["per_layer"]["txn.attempted"] for e in pair}) > 1:
        # same workload arguments and seed: the spec streams must match
        pair[1]["failures"].append("smallbank_attempted_counts_equal")
    return results


def host_state() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha or None,
        "loadavg": os.getloadavg(),
    }


def compare(first: dict, second: dict, spec_sheet: dict) -> bool:
    """Print both sets side by side; True iff every end-to-end metric
    agrees within its bound (exact ones: identically) and the per-layer
    counts repeat."""
    agreed = True
    for name in first:
        rounds = [s[name]["end_to_end_detail"]["summaries"] for s in (first, second)]
        for metric in spec_sheet["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = first[name]["end_to_end"][key], second[name]["end_to_end"][key]
            worse_by = a - b if metric["better"] == "higher" else b - a
            if key in e2e_harness.EXACT:
                ok = a == b
            else:
                ok = worse_by <= bound * abs(a) or (key == "setup_s" and worse_by <= 0.010)
            # rounds spread wider than the bound: these sets cannot tell a
            # regression of that size from noise
            spread = max(
                ((s[key]["q3"] - s[key]["q1"]) / s[key]["median"] for s in rounds if key in s),
                default=0.0,
            )
            status = "DISAGREE" if not ok else "unresolved" if spread > bound else "unchanged"
            agreed &= ok
            print(
                f"{name:<18} {key:<24} {a:>14.6g} {b:>14.6g} {metric['unit']:<6}"
                f" gap {abs(b - a) / abs(a):7.2%}  bound {bound:4.0%}  {status}"
            )
        for metric in spec_sheet["per_layer"]:
            key = metric["name"]
            a, b = first[name]["per_layer"][key], second[name]["per_layer"][key]
            if metric["unit"] != "count" or a == b:
                continue
            if key == "driver.py_calls_total" and abs(b - a) <= PY_CALLS_BOUND * a:
                continue
            agreed = False
            print(f"{name:<18} {key:<24} {a!s:>14} {b!s:>14} count  DISAGREE")
    return agreed


def main() -> int:
    spec_sheet = manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=list(e2e_harness.WORKLOADS),
        help="measure this one workload in this process",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=int, default=spec_sheet["run_seconds"], help="measuring time per run"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None, help="fixed round count instead of --seconds")
    parser.add_argument("--smoke", action="store_true", help="num_blocks/16: schema check, not a measurement")
    parser.add_argument("--workloads", help="comma-separated subset (whole-benchmark mode)")
    parser.add_argument("--agree", action="store_true", help="run two sets and compare them")
    parser.add_argument("--out", help="write the sets, with raw samples, to this JSON file")
    args = parser.parse_args()
    if args.workload:
        return measure_one(args, spec_sheet)

    names = [w["name"] for w in spec_sheet["workloads"]]
    if args.workloads:
        names = [name for name in names if name in args.workloads.split(",")]
    report = {"seed": args.seed, "start": host_state(), "sets": []}
    for _ in range(2 if args.agree else 1):
        report["sets"].append(run_set(names, args))
    report["end"] = host_state()
    failed = sorted(
        {f"{name}: {f}" for s in report["sets"] for name, e in s.items() for f in e["failures"]}
    )
    for failure in failed:
        print(f"CHECK FAILED: {failure}")
    ok = not failed
    if args.agree:
        ok &= compare(*report["sets"], spec_sheet)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
