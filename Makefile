# Convenience targets wrapping the standing workflows (see ROADMAP.md).
# Everything runs from the repo root with src/ on PYTHONPATH.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test hashseed loc gates options conformance figures perf-smoke perf faults-smoke faults obs-smoke rebalance-smoke e2e-smoke e2e e2e-pairs

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

# the retired twins stay retired: one table of rows (tools/gates.py), each
# a pattern, the paths it scans, what is exempt, a reason and a planted line
# it must catch (tests/test_gates.py plants each one); a scanned or exempt
# path that does not exist fails
gates:
	python3 tools/gates.py

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
# of the exact metrics; a significant loss reads LOSS (inside bound) or LOSS
# (past bound), against the metric's BENCHMARK.json bound, and one past its
# bound exits 1. WORKLOAD is a comma-separated list or "all".
# LAYERS=1 runs the pairs at --trace 1 instead and prints per-layer self_s
# medians (layer tables come from medians, never from one traced run)
WORKLOAD ?= all
PARENT ?= HEAD
PAIRS ?= 10
LAYERS ?=
e2e-pairs:
	python3 tools/e2e_pairs.py --workload $(WORKLOAD) --parent $(PARENT) --pairs $(PAIRS) $(if $(LAYERS),--layers)
