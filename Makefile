# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench bench-regress bench-regress-smoke chaos chaos-smoke serve serve-soak serve-smoke stream stream-smoke exact-smoke recovery-smoke net-smoke shard-smoke perfbench-smoke experiments verify examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-regress:
	$(PYTHON) benchmarks/regression.py --check

bench-regress-smoke:
	$(PYTHON) benchmarks/regression.py --check --smoke
	REPRO_BACKEND=shm $(PYTHON) benchmarks/regression.py --check --smoke
	$(MAKE) chaos-smoke

chaos:
	$(PYTHON) -m repro chaos

chaos-smoke:
	timeout 300 $(PYTHON) -m repro chaos --smoke

serve:
	$(PYTHON) -m repro serve

serve-soak:
	timeout 600 $(PYTHON) -m repro serve --soak 200 --overload 2 --chaos

serve-smoke:
	$(PYTHON) -m pytest -m serve -q
	REPRO_BACKEND=shm timeout 300 $(PYTHON) -m repro serve --soak 200 --overload 2

stream:
	$(PYTHON) -m repro stream

stream-smoke:
	$(PYTHON) -m pytest -m stream -q
	timeout 300 $(PYTHON) -m repro stream --smoke

exact-smoke:
	timeout 480 $(PYTHON) -m pytest -m exact -q

recovery-smoke:
	timeout 480 $(PYTHON) -m pytest -m recovery -q

# Network front: framing/client/quota/failover tests plus a live
# 3-daemon router soak that SIGKILLs the session-owning daemon midway
# and exits nonzero if a single acked request is lost.
net-smoke:
	timeout 480 $(PYTHON) -m pytest -m net -q
	timeout 300 $(PYTHON) -m repro route --daemons 3 --requests 30 --kill-one --n 120

# Sharded matching: the differential matrix (sharded == serial bitwise
# for every generator family and shard count) plus a live CLI check on
# the default chunk grid.  Hard timeouts because the reconcile rounds
# are bounded by construction — a hang is itself a bug.
shard-smoke:
	timeout 480 $(PYTHON) -m pytest -m shard -q
	timeout 300 $(PYTHON) -m repro shard --check

# The repository benchmark's output checks at a small size: each workload
# must exit 0 (every output check passed) with ok_frac 1.0.  No timing
# gates.  Each stream round crosses a journal checkpoint.  Then one
# traced batch run: the tracer wraps the Karp-Sipser entry points by
# name (a renamed one fails the run), so core.ks_ms must be positive;
# every pool kernel call must be an SK sweep or a scaled choice
# (parallel.kernel_calls equals the sum of the sk_sweep, sk_sweep_err
# and choice_scaled calls, so Karp-Sipser stays off the pool), and
# sk_sweep calls must be positive (SK still dispatches through
# run_kernel rather than silently dropping its layer).
# Then one traced serve run: the tracer wraps build_graph, Router.request
# and the ResilientBackend map methods by name, so each of their layers
# must read above zero rather than silently vanish after a rename.
# Every run drops an inherited PYTHONPATH: a traced run puts its tracing
# hook on the path, and with src there too the shm pool's resource
# tracker imports repro and writes a span file of its own.  run.py finds
# src itself, and the router adds it for its daemons.
perfbench-smoke:
	@mkdir -p .perfbench
	@for w in batch serve stream; do \
		out=.perfbench/smoke-$$w.out; \
		timeout 300 env -u PYTHONPATH $(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 4 > $$out \
			|| { cat $$out; echo "perfbench-smoke: $$w exited nonzero"; exit 1; }; \
		tail -n 1 $$out; \
		tail -n 1 $$out | $(PYTHON) -c "import json, sys; sys.exit(json.load(sys.stdin)['metrics']['ok_frac']['value'] < 1.0)" \
			|| { cat $$out; echo "perfbench-smoke: $$w ok_frac below 1.0"; exit 1; }; \
	done
	@out=.perfbench/smoke-batch-trace.out; \
	timeout 300 env -u PYTHONPATH $(PYTHON) perfbench/run.py --workload batch --seed 1 --seconds 4 --trace 1 > $$out \
		|| { cat $$out; echo "perfbench-smoke: traced batch exited nonzero"; exit 1; }; \
	tail -n 1 $$out; \
	tail -n 1 $$out | $(PYTHON) -c "import json, math, sys; m = {k: v['value'] for k, v in json.load(sys.stdin)['metrics'].items()}; calls = sum(m['parallel.kernel_calls.' + k] for k in ('sk_sweep', 'sk_sweep_err', 'choice_scaled')); sys.exit(not (m['core.ks_ms'] > 0 and m['parallel.kernel_calls.sk_sweep'] > 0 and math.isclose(m['parallel.kernel_calls'], calls, rel_tol=1e-9)))" \
		|| { cat $$out; echo "perfbench-smoke: traced batch needs core.ks_ms > 0, sk_sweep calls > 0, and kernel calls = sk_sweep + sk_sweep_err + choice_scaled calls"; exit 1; }
	@out=.perfbench/smoke-serve-trace.out; \
	timeout 300 env -u PYTHONPATH $(PYTHON) perfbench/run.py --workload serve --seed 1 --seconds 4 --trace 1 > $$out \
		|| { cat $$out; echo "perfbench-smoke: traced serve exited nonzero"; exit 1; }; \
	tail -n 1 $$out; \
	tail -n 1 $$out | $(PYTHON) -c "import json, sys; m = json.load(sys.stdin)['metrics']; sys.exit(not all(m[k]['value'] > 0 for k in ('serve.router.self_ms', 'serve.daemon.build_graph_ms', 'core.two_sided_ms', 'resilience.map_calls')))" \
		|| { cat $$out; echo "perfbench-smoke: traced serve needs serve.router.self_ms, serve.daemon.build_graph_ms, core.two_sided_ms and resilience.map_calls > 0"; exit 1; }

experiments:
	$(PYTHON) -m repro.experiments all --out results.json

verify:
	$(PYTHON) -m repro.experiments verify

examples:
	$(PYTHON) examples/quickstart.py 5000 4
	$(PYTHON) examples/jump_start_exact.py 10000 4
	$(PYTHON) examples/adversarial_karp_sipser.py 800 8
	$(PYTHON) examples/rank_deficient_analysis.py 3000 2
	$(PYTHON) examples/parallel_scaling_demo.py venturiLevel3 10000
	$(PYTHON) examples/undirected_matching.py 2000 6
	$(PYTHON) examples/quality_certificates.py 3000 4
	$(PYTHON) examples/block_triangular.py 2000 2

clean:
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
