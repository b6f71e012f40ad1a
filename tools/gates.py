"""One table of gates that keep each retired twin retired: ``make gates``.

Every row of :data:`GATES` names one shape that must not come back under the
tree, with the reason it went and a *planted* example it must catch. A row
holds:

``name``
    ``<area>/<what>``; the area is the old ``make`` target the clause came
    from (``one-owner``, ``no-twins``, ...), or for a later row the
    mechanism it keeps single (``one-state-compare``).
``kind`` and ``pattern``
    ``"regex"``: a Python regex (the ERE subset the patterns use) searched
    line by line, like ``grep -E``; ``"fixed"``: a substring, like
    ``grep -F``; ``"multiline"``: a regex searched over the whole file, like
    ``grep -Pz``; ``"absent"``: a glob, relative to each scanned path, that
    must match nothing; ``"ast"``: a regex naming what ``walk``, a function
    ``(tree, exempt_functions)``, objects to — a file without it cannot hold
    a finding and is not parsed — with ``walk`` returning the line numbers.
``paths``
    What the row scans, relative to the repository root: a directory (its
    ``*.py`` files, recursively) or a named file (scanned whatever its
    suffix).
``exempt``
    ``(glob, shape)`` pairs: a hit in a file at or under a path the glob
    matches is exempt — every hit if ``shape`` is ``None``; for a text row
    only a line that starts with the regex ``shape``; for an ``ast`` row
    only inside the function named ``shape``.
``reason`` and ``planted``
    Why the shape is gone, and a line (an ``ast`` snippet, or for an
    ``"absent"`` row a path) that the row must report.

A scanned path that does not exist, an exempt glob that matches nothing and
an exempt function that is no longer defined are findings, never a pass: a
rename must not turn a gate off. ``tests/test_gates.py`` plants each row's
example in a scratch tree and requires a finding, runs the whole table on
the tree and requires none, and removes each scanned and exempt path and
requires a finding. Nothing under ``tools/`` is scanned, so the planted
lines live here.

Usage: ``python3 tools/gates.py``; prints one ``path:line: row: text`` per
finding and exits 1 if there is any.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = "src/repro"


@dataclass(frozen=True)
class Gate:
    name: str
    kind: str
    pattern: str
    paths: tuple[str, ...]
    reason: str
    planted: str
    exempt: tuple[tuple[str, str | None], ...] = ()
    walk: Callable[[ast.AST, set[str]], list[int]] | None = None


def _is_exception_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name.endswith(("Error", "Exception"))


def repr_outside_messages(tree: ast.AST, exempt_functions: set[str]) -> list[int]:
    """Each builtin ``repr`` (a call, or the name passed as a sort key) and
    each ``!r`` conversion, unless it sits in an error message: a ``raise``,
    the arguments of an ``…Error`` / ``…Exception`` constructor, or a
    function :data:`MESSAGES` lists."""
    lines: list[int] = []

    def walk(node: ast.AST, in_message: bool) -> None:
        in_message = (
            in_message
            or isinstance(node, ast.Raise)
            or _is_exception_call(node)
            or (isinstance(node, ast.FunctionDef) and node.name in exempt_functions)
        )
        if not in_message and (
            (isinstance(node, ast.Name) and node.id == "repr" and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.FormattedValue) and node.conversion == ord("r"))
        ):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            walk(child, in_message)

    walk(tree, False)
    return lines


def _is_slotted_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name == "dataclass" and any(
            kw.arg == "slots" and isinstance(kw.value, ast.Constant) and kw.value.value is True
            for kw in decorator.keywords
        ):
            return True
    return False


def super_in_slotted_dataclass(tree: ast.AST, exempt_functions: set[str]) -> list[int]:
    """Each zero-argument ``super()`` inside a ``@dataclass(..., slots=True)``
    class, nested functions included."""
    return [
        node.lineno
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_slotted_dataclass(cls)
        for node in ast.walk(cls)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
        and not node.args
        and not node.keywords
    ]


#: (module, function) -> why its ``repr`` text is a message (one-encoding)
MESSAGES = {
    (f"{SRC}/bench/claims.py", "failures"):
        "a failing claim's verdict line, printed by make figures",
}

GATES = (
    Gate(
        "no-twins/selector", "regex",
        r"\bindexed\s*[:=]|\bincremental\s*(=|:\s*bool)|_naive\b|state_hash_full"
        r"|checkpoint_incremental|incremental_checkpoints|force_checkpoint|maybe_checkpoint"
        r"|use_footprints|scan_footprints",
        (SRC,),
        "one implementation per path: no indexed= / incremental= selector, no _naive twin, no"
        " full-checkpoint path, no footprint-routing switch",
        "def apply(block, indexed=True):",
    ),
    Gate(
        "no-twins/tests-import", "regex", r"^\s*(from|import)\s+(tests|reference)\b",
        (SRC,),
        "each reference implementation lives once, under tests/reference/, and src/ imports none",
        "from tests import reference",
    ),
    Gate(
        "one-walk/stage-call", "regex",
        r"group\.(prepare|finish)\(|cert_log\.append\(|_trace_(order|prepared|commits)\(",
        (SRC,),
        "only the chain's stage methods prepare, finish or certify a live block or emit a"
        " stage's spans",
        "prepared = group.prepare(block)",
        exempt=((f"{SRC}/shard/system.py", None),),
    ),
    Gate(
        "one-walk/crash-hook", "regex", r"chain\.(fault_hook|vote_channel)|fault_hook=",
        (SRC,),
        "a crashed shard is a shard a schedule leaves out of a stage, not a hook armed on the"
        " chain",
        "chain.fault_hook = plan.on_stage",
    ),
    Gate(
        "one-collector", "regex", r"gc\.(disable|enable|freeze|unfreeze|set_threshold)",
        (SRC,),
        "collector_paused is the one switch of the cyclic collector",
        "gc.disable()",
        exempt=((f"{SRC}/collector.py", None),),
    ),
    Gate(
        "one-process/package", "absent", "parallel",
        (SRC,),
        "blocks are prepared in the process that commits them: no worker-pool package",
        "parallel/__init__.py",
    ),
    Gate(
        "one-process/pool", "regex",
        r"multiprocessing|concurrent\.futures|ProcessPoolExecutor|register_at_fork|repro\.parallel"
        r'|\bbackend\b|close_backend|DeferredCommit|config\.pipelined|"pipelined"'
        r"|\bpipelined\s*(=\s*True|:\s*bool\s*=\s*False)",
        (SRC,),
        "one live schedule: no worker pool, no backend / pipelined config field or keyword (the"
        " paper's overlap is on the modeled clock)",
        "from concurrent.futures import ProcessPoolExecutor",
    ),
    Gate(
        "one-claim-home/figure-file", "absent", "**/bench_*.py",
        ("benchmarks",),
        "a modeled-clock comparison is an experiment with claims in bench/experiments.py, not a"
        " figure file",
        "bench_figure13.py",
        exempt=(("benchmarks/e2e", None),),
    ),
    Gate(
        "one-claim-home/ledger-diff", "fixed", "compare_last_runs",
        (SRC, "tests"),
        "the micro ledger diffs no modeled numbers; make figures checks them",
        "diff = compare_last_runs(ledger)",
    ),
    Gate(
        "one-claim-home/simulated-case", "fixed", '"simulated"',
        (SRC,),
        "the micro ledger has no simulated-basis case",
        'case = {"basis": "simulated"}',
    ),
    Gate(
        "one-encoding", "ast", r"\brepr\b|!r",
        (SRC,),
        "every digest, hash and sort key reads its text from encoding.py (encode / key_text)",
        "digest = sha256_hex(repr(state))",
        exempt=((f"{SRC}/encoding.py", None), *MESSAGES),
        walk=repr_outside_messages,
    ),
    Gate(
        "one-clock", "regex",
        r"PipelineSimulator\(|merge_shard_results\(|latencies_us\.extend|\.merge_block\(",
        (SRC,),
        "chain/accounts.py prices every run: nothing else builds a PipelineSimulator, merges lanes"
        " or folds a block into RunMetrics",
        "sim = PipelineSimulator(costs)",
        exempt=((f"{SRC}/chain/accounts.py", None), (f"{SRC}/sim/*.py", "def ")),
    ),
    Gate(
        "one-trace-record", "regex",
        r"""MetricsRegistry|\.metrics\.(counter|gauge|histogram)\(|["']metrics["']""",
        (SRC,),
        "a traced fact is a span field or a RunMetrics field: no metrics registry, no metrics"
        " record",
        'tracer.metrics.counter("aborts").inc()',
    ),
    Gate(
        "one-commit-pass/key-record", "regex", r"KeyApply|chain_durations_us",
        (SRC,),
        "the commit step returns one duration and one (key, tids) chain per written key",
        "applies = [KeyApply(key, tids) for key in keys]",
    ),
    Gate(
        "one-commit-pass/slotted-super", "ast", r"\bsuper\b",
        (SRC,),
        "a zero-argument super() in a slots=True dataclass raises TypeError, which callers turn"
        " into verdicts",
        "@dataclass(slots=True)\n"
        "class Planted(Base):\n"
        "    def describe(self):\n"
        "        return super().describe()\n",
        walk=super_in_slotted_dataclass,
    ),
    Gate(
        "one-contract/flag", "regex",
        r"supports_two_phase|parallel_commit|_scan_dict_merge|deterministic_reordering"
        r"|repro\.dcc\.base",
        (SRC,),
        "every scheme prepares, then commits: no two-phase flag, no test-only switch, no dcc/ shim",
        "if executor.supports_two_phase:",
    ),
    Gate(
        "one-contract/execute-block", "regex", r"def execute_block",
        (SRC,),
        "DCCExecutor.execute_block is the one commit(prepare()) and nothing overrides it",
        "    def execute_block(self, block):",
        exempt=((f"{SRC}/execution.py", None),),
    ),
    Gate(
        "one-contract/key-order", "regex", r"except +TypeError",
        (f"{SRC}/intervals.py", f"{SRC}/execution.py"),
        "keys are totally ordered: a mixed-type population raises TypeError, no fallback",
        "    except TypeError:",
    ),
    Gate(
        "one-owner/owner-frame", "regex", r"def _owner\b",
        (f"{SRC}/shard/federated.py",),
        "a key's owner is one subscript of the router's static-owner map, not a snapshot frame",
        "    def _owner(self, key):",
    ),
    Gate(
        "one-owner/scope-lambda", "regex", r"lambda key: router\.shard_of",
        (SRC,),
        "key_scope reads the owner map inline, not through a lambda over shard_of",
        "scope = lambda key: router.shard_of(key)",
    ),
    Gate(
        "one-route/per-spec", "regex", r"\bparticipants_of\b|\broute_spec\b",
        (SRC,),
        "a global block is routed once, by ShardRouter.route_block; the per-spec derivation is"
        " the reference in tests/reference",
        "parts = self.router.participants_of(self.workload, spec)",
    ),
    Gate(
        "one-route/header-once", "regex", r"sign\(.*header_bytes\(\)",
        (f"{SRC}/chain/ordering.py",),
        "the ordering service serialises a header once where it cuts a block, and hashes and"
        " signs those bytes; only a verifier serialises it again",
        "        block.signature = self._signer.sign(block.header_bytes())",
    ),
    Gate(
        "one-owner/bisect", "regex", r"while lo < hi",
        (f"{SRC}/storage/mvstore.py",),
        "a snapshot's visibility search is one C bisect_left, not a Python binary search",
        "    while lo < hi:",
    ),
    Gate(
        "one-owner/field-order", "fixed", "sorted(value.items())",
        (f"{SRC}/encoding.py",),
        "a row's field names are sorted once per row shape, not per row",
        "    names = sorted(value.items())",
    ),
    Gate(
        "one-cost-table/cost-model", "regex", r"CostModel\(",
        (SRC,),
        "DEFAULT_COSTS is the one calibration table, read through cost_table()",
        "costs = CostModel(op_cpu_us=2.0)",
        exempt=((f"{SRC}/sim/costs.py", None),),
    ),
    Gate(
        "one-cost-table/network-literal", "multiline",
        r"NetworkModel\((?:[^)]*?[,=])?\s*[-+]?\.?[0-9]",
        (SRC,),
        "a network is a preset read from the cost table, not numeric literals",
        "net = NetworkModel(\n    latency_us=50.0, bandwidth_mbps=1000)",
    ),
    Gate(
        "one-cost-table/bytes-constant", "regex", r"^[A-Z0-9_]*_BYTES\s*(:[^=]*)?=",
        (SRC,),
        "every wire size is a CostModel field, not a module-level constant",
        "VOTE_BYTES = 64",
        exempt=((f"{SRC}/sim/costs.py", None),),
    ),
    Gate(
        "one-cost-table/command-size", "fixed", "// 128",
        (SRC,),
        "a message count divides by costs.command_bytes, not a literal command size",
        "messages = block_bytes // 128",
    ),
    Gate(
        "one-state-compare/rehash", "regex", r"\bcombined_state_hash\b",
        (SRC, "tests"),
        "replicas are compared by their live entries, shard by shard"
        " (ShardGroup.first_difference), not by a re-hash of the whole replica",
        "return other.combined_state_hash() == self.group.combined_state_hash()",
    ),
    Gate(
        "one-span-schema/emit", "regex", r"\.(stage|event|fault|anno|emit)\(",
        (SRC,),
        "obs/trace.py's Tracer builds every span, one method per moment of a run; a stage or"
        " the supervisor calls the moment, never a span constructor",
        'self.tracer.event("order", block=block.block_id)',
        exempt=((f"{SRC}/obs", None),),
    ),
    Gate(
        "one-span-schema/hook", "regex",
        r"rejoin_listeners|trace_shard|keep_history|attach_tracer",
        (SRC, "tests"),
        "the chain's tracer is the run's one span hook, armed by one attribute: no tracer on the"
        " certificate log or a checkpoint manager, no re-arming listener, no history option",
        "chain.group.rejoin_listeners.append(rearm)",
    ),
    Gate(
        "one-block-tail/timing", "regex", r"BlockTiming\(",
        (SRC,),
        "RunAccounts.absorb builds one BlockTiming per lane execution for both dataflows",
        "timing = BlockTiming(arrival_us=arrival, sim_durations=durations)",
        exempt=((f"{SRC}/chain/accounts.py", None),),
    ),
    Gate(
        "one-block-tail/oracle", "regex", r"count_false_aborts\(",
        (SRC,),
        "a run counts its false aborts once, in RunAccounts.absorb; the micro ledger times the"
        " oracle itself",
        "false_aborts = SerializabilityOracle.count_false_aborts(merged_txns)",
        exempt=(
            (f"{SRC}/dcc/oracle.py", None),
            (f"{SRC}/chain/accounts.py", None),
            (f"{SRC}/bench/perf.py", None),
        ),
    ),
    Gate(
        "one-block-tail/install", "regex", r"checkpoint_if_due\(",
        (SRC,),
        "every executor's commit ends in DCCExecutor.install: apply, checkpoint, count",
        "        tail += self.engine.checkpoint_if_due(block_id)",
        exempt=((f"{SRC}/execution.py", None), (f"{SRC}/storage/engine.py", None)),
    ),
    Gate(
        "one-block-tail/ingest", "regex", r"\bingest_us\b",
        (SRC,),
        "a replica prices its own ingest in ReplicaNode.finish_block; no driver charges it",
        "execution.pre_exec_serial_us += block.size * self.costs.ingest_us",
        exempt=((f"{SRC}/sim/costs.py", None), (f"{SRC}/chain/node.py", None)),
    ),
    Gate(
        "one-block-tail/records", "regex", r"sub_block_log|_shard_block_txns",
        (SRC, "tests"),
        "the fault supervisor keeps each block's GlobalBlockOutcome, not side records of its"
        " sub-blocks and transactions",
        "self.sub_block_log.append(outcome.sub_blocks)",
    ),
    Gate(
        "one-checkpoint-path/rescan", "regex", r"\bwrites_in_block\b|_block_keys",
        (SRC,),
        "a delta checkpoint covers the engine's buffered writes; a block applied around the"
        " engine is an error, not a store rescan through a per-block key index",
        "taken.extend((bid, self.store.writes_in_block(bid)) for bid in missing)",
    ),
)


class _Files:
    """The text and syntax tree of each file under one root, read once."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._texts: dict[Path, str] = {}
        self._trees: dict[Path, ast.AST] = {}

    def text(self, path: Path) -> str:
        if path not in self._texts:
            self._texts[path] = path.read_text()
        return self._texts[path]

    def tree(self, path: Path) -> ast.AST:
        if path not in self._trees:
            self._trees[path] = ast.parse(self.text(path), filename=str(path))
        return self._trees[path]

    def scanned(self, rel: str) -> list[Path]:
        path = self.root / rel
        if path.is_dir():
            return [p for p in sorted(path.rglob("*.py")) if p.is_file()]
        return [path]

    def rel(self, path: Path) -> str:
        return path.relative_to(self.root).as_posix()


def _check(gate: Gate, files: _Files) -> list[str]:
    root = files.root
    out = [
        f"{rel}: {gate.name}: scanned path does not exist"
        for rel in gate.paths
        if not (root / rel).exists()
    ]
    exempt: list[tuple[list[Path], str | None]] = []
    for pattern, shape in gate.exempt:
        matched = sorted(root.glob(pattern))
        exempt.append((matched, shape))
        if not matched:
            out.append(f"{pattern}: {gate.name}: exempt path names nothing")
        elif gate.kind == "ast" and shape is not None and not any(
            isinstance(node, ast.FunctionDef) and node.name == shape
            for path in matched
            for node in ast.walk(files.tree(path))
        ):
            out.append(f"{pattern}::{shape}: {gate.name}: exempt function is not defined")
    if out:
        return out

    def shapes(path: Path) -> list[str | None]:
        return [shape for matched, shape in exempt for m in matched if m in (path, *path.parents)]

    if gate.kind == "absent":
        return [
            f"{files.rel(path)}: {gate.name}: must not exist"
            for rel in gate.paths
            for path in sorted((root / rel).glob(gate.pattern))
            if not shapes(path)
        ]
    regex = re.compile(re.escape(gate.pattern) if gate.kind == "fixed" else gate.pattern, re.M)
    for path in (p for rel in gate.paths for p in files.scanned(rel)):
        exempt_here = shapes(path)
        if None in exempt_here:
            continue
        text = files.text(path)
        if not regex.search(text):
            continue
        lines = text.split("\n")
        if gate.kind == "ast":
            hits = gate.walk(files.tree(path), set(exempt_here))
            exempt_here = []
        elif gate.kind == "multiline":
            hits = [text.count("\n", 0, match.start()) + 1 for match in regex.finditer(text)]
        else:
            hits = [lineno for lineno, line in enumerate(lines, 1) if regex.search(line)]
        out.extend(
            f"{files.rel(path)}:{lineno}: {gate.name}: {lines[lineno - 1].strip()}"
            for lineno in hits
            if not any(re.match(shape, lines[lineno - 1]) for shape in exempt_here)
        )
    return out


def findings(root: Path = ROOT, gates: tuple[Gate, ...] = GATES) -> list[str]:
    """Every finding of ``gates`` on the tree at ``root``."""
    files = _Files(root)
    return [line for gate in gates for line in _check(gate, files)]


def main() -> int:
    found = findings()
    print("\n".join(found) if found else f"gates: ok ({len(GATES)} rows)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
