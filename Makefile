# Developer entry points.  `make check` is the gate a PR must pass:
# the full tier-1 suite, the repo lint, a sanitized re-run of the engine
# tests, and a smoke run of the kernel microbenchmarks.  It runs every
# benchmark assertion but writes no BENCH_*.json result file; only
# `make bench-record` rewrites those.

export PYTHONPATH := src

.PHONY: check test lint sanitize-check chaos-check privacy-audit serve-check fleet-check train-check fleetsim-check plan-audit determinism-check bench-smoke bench-record bench

check: test lint sanitize-check chaos-check privacy-audit serve-check fleet-check train-check fleetsim-check plan-audit determinism-check bench-smoke

test:
	python -m pytest -x -q

# AST lint: numeric-hygiene rules over the library and the test suite.
lint:
	python -m repro.analysis.lint src tests

# Engine-facing tests re-run under the mutation sanitizer: any in-place
# write to a graph-held array fails loudly instead of corrupting grads,
# and compiled training steps (FedAvg's local training included) may
# write parameters only inside TrainPlan._unlocked.
sanitize-check:
	REPRO_SANITIZE=1 python -m pytest -q \
		tests/test_tensor_ops.py tests/test_tensor_conv.py \
		tests/test_conv_gradcheck.py tests/test_nn_layers.py \
		tests/test_nn_recurrent.py tests/test_nn_losses.py \
		tests/test_train_plan.py tests/test_federated.py

# Fault-injection sweep: FedAvg/selective-SGD driven through the fixed
# chaos seed matrix (50 seeded random fault schedules) plus the
# offline-link and checkpoint/resume regressions.  Fully deterministic.
chaos-check:
	python -m pytest tests/test_faults.py tests/test_federated_chaos.py -q

# Privacy gate: the five DP-invariant lint rules over the library, then
# the independent budget auditor recomputing epsilon for the builtin
# certificate table (inline `repro-lint: allow[dp-*]` waivers apply).
privacy-audit:
	python -m repro.analysis.lint src tests \
		--rule dp-fixed-seed --rule dp-shared-rng --rule dp-noise-scale \
		--rule dp-unaccounted-release --rule dp-epsilon-no-delta
	python -m repro.analysis.privacy audit --builtin

# Serving gate: plan/eager equivalence across every registered module,
# batcher policy + fault isolation, and the serving benchmark (which
# asserts plan+batching >= 3x eager with zero arena allocations after
# warm-up).
serve-check:
	python -m pytest tests/test_serve_plan.py tests/test_serve_server.py -q
	python -m pytest benchmarks/test_serving_bench.py -q

# Fleet gate: multi-model registry + admission control + SLO batching
# (including the deterministic 10k-request soak with faults injected),
# cascade escalation bit-equivalence against the eager early-exit
# reference, the open-loop traffic generator, and the early-exit gate
# unit tests the cascade's decisions are pinned to.
fleet-check:
	python -m pytest tests/test_serve_fleet.py tests/test_serve_cascade.py \
		tests/test_serve_traffic.py tests/test_earlyexit.py -q

# Training gate: compiled plan/eager training equivalence across every
# registered module, the DP-SGD plan path against its eager twin,
# FedAvg's shared compiled local trainer bit for bit against an eager
# oracle (with its eager fallbacks), and the training benchmark (which
# asserts the compiled step >= 2x eager with zero arena allocations
# after the compile-time freeze).
train-check:
	python -m pytest tests/test_train_plan.py -q
	python -m pytest benchmarks/test_training_bench.py -q

# Fleet-simulation gate: the struct-of-arrays federated fleet — keyed
# keystream bit-identity against live numpy, batch fault oracles vs the
# scalar ones, vectorized/scalar round-engine equivalence, two-tier
# quorum byte conservation, streaming checkpoint kill/resume at 100k,
# and the fleet benchmark (which asserts >= 50x per-client speedup over
# the object path at 10k).
fleetsim-check:
	python -m pytest tests/test_fleet.py -q
	python -m pytest benchmarks/test_fleetsim_bench.py -q

# Plan IR audit: extract the buffer IR from every registry case's
# compiled serve and train plans (both float dtypes), prove the
# write-before-read / no-aliasing / no-dead-buffer contracts, verify
# batching-server ticket isolation, cross-check the one layer-rule
# registry both compilers build from against the shapes registry, and
# apply verified arena slot coloring.  Exits non-zero on any violation.
plan-audit:
	python -m repro.analysis.plans audit --dtype float32 --dtype float64

# Determinism gate: the det-* lint rules over the library, the keyed-RNG
# stream-collision proof (registry cross-checked against the AST), and
# the dual-replay certificates — every scenario runs twice under
# perturbed clock/global-RNG/execution-order environments and must
# fingerprint identically; any divergence is bisected to its first
# event.  Exits non-zero on any violation.
determinism-check:
	python -m repro.analysis.determinism audit

bench-smoke:
	python -m pytest benchmarks/test_perf_microbench.py -q

# Rewrite the committed BENCH_*.json result files: the four performance
# benchmarks above, run with REPRO_BENCH_RECORD=1.  One file alone:
#   REPRO_BENCH_RECORD=1 python -m pytest benchmarks/test_fleetsim_bench.py
bench-record:
	REPRO_BENCH_RECORD=1 python -m pytest -q \
		benchmarks/test_perf_microbench.py benchmarks/test_serving_bench.py \
		benchmarks/test_training_bench.py benchmarks/test_fleetsim_bench.py

bench:
	python -m pytest benchmarks/ --benchmark-only -s
