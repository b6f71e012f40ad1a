# Convenience targets wrapping the standing workflows (see ROADMAP.md).
# Everything runs from the repo root with src/ on PYTHONPATH.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test hashseed loc no-twins one-walk one-collector one-process one-claim-home one-encoding one-clock one-trace-record one-commit-pass one-contract one-owner one-cost-table options conformance figures perf-smoke perf faults-smoke faults obs-smoke rebalance-smoke e2e-smoke e2e e2e-pairs

# tier-1 verify: the whole default suite (perf/faults/tpcc/figures markers
# excluded by pytest.ini)
test:
	$(PY) -m pytest -x -q

# hash-seed independence: both goldens replay byte-identically under two
# string-hash seeds, so no digest, hash or modeled number depends on the
# iteration order of a set or dict of strings (~12 s)
hashseed:
	PYTHONHASHSEED=1 $(PY) tests/golden/driver_identity.py --check
	PYTHONHASHSEED=1 $(PY) tests/golden/trace_identity.py --check
	PYTHONHASHSEED=2 $(PY) tests/golden/driver_identity.py --check
	PYTHONHASHSEED=2 $(PY) tests/golden/trace_identity.py --check

# size ledger (informational, never fails): lines per package of src/repro,
# their total, the chain/ + shard/ figure ROADMAP direction 4's acceptance
# tracks (parallel/ was part of it until PR 23 deleted it), and tests/ — ROADMAP aim 2 tracks these. tests/reference/
# (the reference implementations moved out of src/repro) is part of the tests
# total and printed on its own line: moved lines are not a reduction
loc:
	@for d in src/repro/*/; do \
		printf '%7d %s\n' "$$(cat $$d*.py | wc -l)" "$$d"; \
	done
	@printf '%7d src/repro total\n' "$$(find src/repro -name '*.py' | xargs cat | wc -l)"
	@printf '%7d chain/ + shard/\n' "$$(cat src/repro/chain/*.py src/repro/shard/*.py | wc -l)"
	@printf '%7d core/ + dcc/ + storage/\n' "$$(cat src/repro/core/*.py src/repro/dcc/*.py src/repro/storage/*.py | wc -l)"
	@printf '%7d src/repro/bench/ + benchmarks/ (outside e2e/)\n' "$$(find src/repro/bench benchmarks -name '*.py' -not -path 'benchmarks/e2e/*' | xargs cat | wc -l)"
	@printf '%7d src/repro/bench/perf.py\n' "$$(wc -l < src/repro/bench/perf.py)"
	@printf '%7d tools/option_census.py\n' "$$(wc -l < tools/option_census.py)"
	@printf '%7d tests total\n' "$$(find tests -name '*.py' | xargs cat | wc -l)"
	@printf '%7d tests/reference/\n' "$$(cat tests/reference/*.py | wc -l)"

# the twins stay retired: src/repro has no indexed= / incremental= selector,
# no _naive function, no full-checkpoint path, no footprint-routing switch
# (broadcast routing is what a workload without a footprint compiler gets),
# and imports nothing from tests/ (each reference implementation lives once,
# under tests/reference/)
no-twins:
	@! grep -rnE --include='*.py' "\bindexed\s*[:=]|\bincremental\s*(=|:\s*bool)|_naive\b|state_hash_full|checkpoint_incremental|incremental_checkpoints|force_checkpoint|maybe_checkpoint|use_footprints|scan_footprints" src/repro
	@! grep -rnE --include='*.py' "^\s*(from|import)\s+(tests|reference)\b" src/repro
	@echo "no-twins: ok"

# the block walk stays one: outside shard/system.py nothing under src/repro
# prepares, finishes or certifies a live block or borrows a stage's span
# helper (the fault supervisor calls the chain's four stage methods), and
# the chain has no crash hook or vote channel to arm —
# a crashed shard is a shard a schedule leaves out of a stage
one-walk:
	@! grep -rnE --include='*.py' "group\.(prepare|finish)\(|cert_log\.append\(|_trace_(order|prepared|commits)\(" src/repro | grep -v '^src/repro/shard/system\.py:'
	@! grep -rnE --include='*.py' "chain\.(fault_hook|vote_channel)|fault_hook=" src/repro
	@echo "one-walk: ok"

# the collector has one switch: only src/repro/collector.py (collector_paused,
# which the block-walking loops and the micro ledger's clocked sections enter)
# turns the cyclic collector off or on, freezes or unfreezes it or tunes its
# thresholds
one-collector:
	@! grep -rnE --include='*.py' "gc\.(disable|enable|freeze|unfreeze|set_threshold)" src/repro | grep -v '^src/repro/collector\.py:'
	@echo "one-collector: ok"

# one prepare medium, one live schedule: blocks are prepared in the process
# that commits them and run() commits block i before it forms block i+1 —
# no worker pool, no backend / pipelined config field or keyword. The
# paper's inter-block overlap lives on the modeled clock and in the trailing
# replay (recover_shard_node(pipelined=)), the spelling this pattern lets
# through next to HotStuff's "pipelined BFT"
one-process:
	@test ! -e src/repro/parallel
	@! grep -rnE --include='*.py' "multiprocessing|concurrent\.futures|ProcessPoolExecutor|register_at_fork|repro\.parallel|\bbackend\b|close_backend|DeferredCommit|config\.pipelined|\"pipelined\"|\bpipelined\s*(=\s*True|:\s*bool\s*=\s*False)" src/repro
	@echo "one-process: ok"

# the claims have one home: no pytest-benchmark figure file under
# benchmarks/ (outside e2e/), no ledger diff of modeled numbers, no
# "simulated"-basis micro case — a modeled-clock comparison is an experiment
# with claims in src/repro/bench/experiments.py, checked by make figures
one-claim-home:
	@test -z "$$(find benchmarks -name 'bench_*.py' -not -path 'benchmarks/e2e/*')"
	@! grep -rn --include='*.py' "compare_last_runs" src/repro tests
	@! grep -rn --include='*.py' '"simulated"' src/repro
	@echo "one-claim-home: ok"

# one text for every key and value: outside src/repro/encoding.py nothing
# under src/repro calls repr, passes it as a sort key or formats with !r —
# every digest, hash and sort key reads encode / key_text (the grammar is
# docs/artifacts.md); error messages are exempt (tools/one_encoding.py)
one-encoding:
	python3 tools/one_encoding.py

# one modeled clock for both dataflows: the Order-Execute driver and SOV
# price their runs through src/repro/chain/accounts.py (RunAccounts) —
# nothing else under src/repro builds a PipelineSimulator, merges lanes,
# extends the latency sample or folds a block into RunMetrics (the
# definitions in sim/ excepted)
one-clock:
	@! grep -rnE --include='*.py' "PipelineSimulator\(|merge_shard_results\(|latencies_us\.extend|\.merge_block\(" src/repro | grep -vE '^src/repro/(chain/accounts\.py:|sim/[a-z_]+\.py:[0-9]+:def )'
	@echo "one-clock: ok"

# one observability record: the span stream carries every traced fact and a
# trace file is a meta header plus spans — no metrics registry, no write to
# one, no "metrics" trace record type under src/repro
one-trace-record:
	@! grep -rnE --include='*.py' "MetricsRegistry|\.metrics\.(counter|gauge|histogram)\(|[\"']metrics[\"']" src/repro
	@echo "one-trace-record: ok"

# one pass per key, one object per update: the commit step returns one
# duration and one (key, tids) chain per written key — no per-key KeyApply
# record, no per-key duration list under src/repro — and no slots=True
# dataclass calls a zero-argument super(), which names the class the
# decorator replaced and raises TypeError (tools/slotted_super.py)
one-commit-pass:
	@! grep -rnE --include='*.py' "KeyApply|chain_durations_us" src/repro
	@python3 tools/slotted_super.py
	@echo "one-commit-pass: ok"

# one executor contract, one key order: every scheme prepares, then commits
# (DCCExecutor.execute_block is the one commit(prepare()) and nothing
# overrides it; there is no two-phase flag or parallel_commit attribute to
# branch on), Aria has no test-only switch, dcc/ no re-export shim, and the
# key order has no fallback — intervals.py and execution.py compare keys
# directly and let a mixed-type population raise TypeError
one-contract:
	@! grep -rnE --include='*.py' "supports_two_phase|parallel_commit|_scan_dict_merge|deterministic_reordering|repro\.dcc\.base" src/repro
	@! grep -rnE --include='*.py' "def execute_block" src/repro | grep -v '^src/repro/execution\.py:'
	@! grep -nE "except +TypeError" src/repro/intervals.py src/repro/execution.py
	@echo "one-contract: ok"

# one lookup per key access: the owner of a key is one subscript of the
# router's static-owner map (StaticOwners) after the epoch's overrides —
# no per-snapshot _owner frame, no key_scope lambda through shard_of; a
# snapshot's visibility search is one C bisection, not a Python binary
# search; a row's field names are sorted once per row shape, not per row
one-owner:
	@! grep -nE "def _owner\b" src/repro/shard/federated.py
	@! grep -rnE --include='*.py' "lambda key: router\.shard_of" src/repro
	@! grep -nE "while lo < hi" src/repro/storage/mvstore.py
	@! grep -nF "sorted(value.items())" src/repro/encoding.py
	@echo "one-owner: ok"

# one calibration table for the modeled clock: every cost, wire size and
# network preset is a field of src/repro/sim/costs.py's CostModel, read from
# DEFAULT_COSTS through cost_table() — nothing else under src/repro builds a
# CostModel, builds a NetworkModel from numeric literals, defines a
# module-level *_BYTES size or divides by a literal command size
one-cost-table:
	@! grep -rnE --include='*.py' "CostModel\(" src/repro | grep -v '^src/repro/sim/costs\.py:'
	@! grep -rlPz --include='*.py' "NetworkModel\((?:[^)]*?[,=])?\s*[-+]?\.?[0-9]" src/repro
	@! grep -rnE --include='*.py' "^[A-Z0-9_]*_BYTES\s*(:[^=]*)?=" src/repro | grep -v '^src/repro/sim/costs\.py:'
	@! grep -rnF --include='*.py' "// 128" src/repro
	@echo "one-cost-table: ok"

# every option has a user: each field of the run configuration (RunConfig,
# OEConfig, SOVConfig, ShardConfig, HarmonyConfig) is set by a caller outside
# tests/, or by a test with a listed reason; prints the table and the option
# count a PR states before -> after (34 since PR 24)
options:
	python3 tools/option_census.py

# full conformance sweep: every scheme x every registered workload,
# unsharded + sharded, including the tpcc-marked extended matrix (the
# explicit -m overrides pytest.ini's deselection)
conformance:
	$(PY) -m pytest tests/test_conformance.py -q -m "not perf and not faults"

# micro-ledger smoke: runs in seconds, fails on any false check (a scaling
# guard past its bound included); records nothing unless $$REPRO_BENCH_OUT
# names a file, so the tree stays clean
perf-smoke:
	$(PY) -m repro.bench --perf-smoke --check

# full micro-ledger run, appended to BENCH_perf.json (commit it); same gate
perf:
	$(PY) -m repro.bench --perf --check

# the paper's claims: every experiment of repro.bench.experiments (the
# Section-5 figures and the sharded scale-out scenarios) run at the default
# scale and checked against the claims beside it (~50 s); a deviation is an
# expected-false claim with its reason, and fails here once it turns true
figures:
	$(PY) -m pytest tests/test_figures.py -q -m figures

# fault-injection drills, quick and full
faults-smoke:
	$(PY) -m repro.faults --smoke

faults:
	$(PY) -m repro.faults

# observability gate: traced run + export round-trip + digest
# reproducibility + traced fault drill with annotated report
obs-smoke:
	$(PY) -m repro.obs smoke

# adaptive-sharding gate: the migration-fault drills (crash/torn delta
# at the re-key boundary, bit-identical to reference) on the shifting
# hotspot, plus the rebalance differential/replay/fence test file
rebalance-smoke:
	$(PY) -m repro.faults --smoke --workloads adv-skewshift
	$(PY) -m pytest tests/test_rebalance.py -q

# end-to-end benchmark (BENCHMARK.json; see docs/performance.md): the smoke
# runs every workload x both trace modes at reduced length and checks the
# outputs; the full run records benchmarks/results/e2e.json (git-ignored)
e2e-smoke:
	python3 benchmarks/e2e/run.py --smoke

e2e:
	mkdir -p benchmarks/results
	python3 benchmarks/e2e/run.py --out benchmarks/results/e2e.json

# the claim procedure (docs/performance.md): PAIRS alternating runs of the
# PARENT revision's committed files (unpacked to a temporary directory) and
# the working tree, benchmarks/e2e/run.py --trace 0 at the manifest's run
# length; prints per-side median/quartiles, pair wins and per-seed equality
# of the exact metrics. WORKLOAD is a comma-separated list or "all".
# LAYERS=1 runs the pairs at --trace 1 instead and prints per-layer self_s
# medians (layer tables come from medians, never from one traced run)
WORKLOAD ?= all
PARENT ?= HEAD
PAIRS ?= 10
LAYERS ?=
e2e-pairs:
	python3 tools/e2e_pairs.py --workload $(WORKLOAD) --parent $(PARENT) --pairs $(PAIRS) $(if $(LAYERS),--layers)
