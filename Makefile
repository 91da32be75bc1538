# Developer entry points. `make check` is the gate CI runs.

PYTHON ?= python

.PHONY: check test bench bench-smoke bench-report example serve-smoke \
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

# Trend gate: run the tracer-overhead benchmark (which also gates the
# obs layer's cost and appends to bench_history/), then fail on any
# metric >20% worse than its rolling median.  Fresh checkouts pass
# trivially — histories younger than --min-prior runs are ungated.
bench-report:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_obs_overhead.py
	PYTHONPATH=src $(PYTHON) -m repro bench report --check

example:
	PYTHONPATH=src $(PYTHON) examples/congest_simulation.py

# Serving smoke: the throughput gate (>=5x vs the naive baseline, writes
# BENCH_serve_throughput.json) plus a 10s zipf loadgen burst against a
# spawned sharded server asserting zero protocol errors (CI serve-smoke).
serve-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve_throughput.py
	PYTHONPATH=src $(PYTHON) -m repro loadgen --spawn --spawn-workers 2 \
	    --duration 10 --size 80 --topologies 6 --concurrency 4 --check

# Docs gate: relative links in docs/ + README resolve; modules, public
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

check: test perfbench-test bench-smoke bench-report example docs-check \
    lint typecheck
	@echo "check: OK"
