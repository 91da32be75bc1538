# Developer entry points. `make check` is the gate CI runs.

PYTHON ?= python

.PHONY: check test bench bench-smoke example serve-smoke \
    docs-check lint typecheck perfbench-test

test:
	$(PYTHON) -m pytest -x -q

# Smoke: one cheap micro-benchmark file on tiny settings, just to prove the
# benchmark harness and the sim engine wire up (full runs: `make bench`).
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_micro_primitives.py -q \
	    --benchmark-disable-gc --benchmark-min-rounds=1 \
	    --benchmark-warmup=off

bench:
	$(PYTHON) -m pytest benchmarks -q

# Self-tests of the latency-ledger benchmark (BENCHMARK.json): every
# workload's smoke run, the output checks, the per-layer attribution.
# They drive the public calls the benchmark makes into src/.
perfbench-test:
	$(PYTHON) -m pytest -q perfbench/test_perfbench.py

example:
	PYTHONPATH=src $(PYTHON) examples/congest_simulation.py

# Serving smoke: CI's serve-smoke job, three 10s loadgen bursts against a
# spawned sharded server, each asserting zero protocol and transport
# errors: zipf /v1/solve traffic, sparse /v1/delta drift, and binary-framed
# /v1/solve_batch Monte-Carlo batches.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro loadgen --spawn --spawn-workers 2 \
	    --duration 10 --size 80 --topologies 6 --concurrency 4 --check
	PYTHONPATH=src $(PYTHON) -m repro loadgen --mode drift --spawn \
	    --spawn-workers 2 --duration 10 --size 80 --topologies 4 \
	    --concurrency 4 --check
	PYTHONPATH=src $(PYTHON) -m repro loadgen --mode montecarlo --binary \
	    --spawn --spawn-workers 2 --duration 10 --size 80 --topologies 1 \
	    --scenarios 16 --batch 8 --concurrency 2 --check

# Docs gate: relative links in docs/ + README resolve; dotted repro.*
# references in README, docs/ and src/repro resolve; modules, public
# classes and public functions in repro.sim / repro.core / repro.fast
# carry docstrings (the CI docs job runs the same script).
docs-check:
	$(PYTHON) tools/check_docs.py

# Static-analysis gate: AST rules over src/repro + tools (determinism,
# asyncio-safety, registry/protocol consistency, exception contract,
# hygiene, typed-def).  Exits non-zero on any unbaselined finding or
# stale baseline entry; see docs/ARCHITECTURE.md "Static analysis layer".
lint:
	$(PYTHON) -m tools.lint

# Typed-core mypy gate (repro.core / repro.runtime / repro.serve.protocol,
# see mypy.ini).  Skips with a notice where mypy is not installed; CI
# installs mypy and enforces it on both matrix Pythons.
typecheck:
	$(PYTHON) tools/run_mypy.py

check: test perfbench-test bench-smoke example docs-check lint typecheck
	@echo "check: OK"
