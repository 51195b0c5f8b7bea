"""Run one benchmark workload against the program and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch|serve|stream --seed N \\
        --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload's first round once untraced (the reference for tracing
overhead) and once with span wrappers in every process of the program,
and prints the per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.
Lines starting with ``#`` are diagnostics; the last line is the result
object.  The exit code is nonzero when an output check fails.

See ``perfbench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Set-ups per untraced run; the last ``rounds`` of them each carry one
#: timed round of the workload.
SETUP_REPEATS = 3
#: Registered kernels the two-sided pipeline dispatches.
KERNELS = (
    "sk_sweep", "sk_sweep_err", "choice_scaled", "ks_phase1_scan",
    "ks_phase2_scan",
)


def say(label, payload):
    print(f"# {label}: {json.dumps(payload, sort_keys=True)}", flush=True)


def load_workload(name):
    if name == "batch":
        from workloads.batch import Batch
        return Batch()
    if name == "serve":
        from workloads.serve import Serve
        return Serve()
    from workloads.stream import Stream
    return Stream()


def ok_ops(record):
    return [op for op in record["ops"] if "quality" in op]


def latencies(record, rnd=None):
    """Latencies of the ops that passed, in round *rnd* or in all rounds."""
    return [op["latency"] for op in record["latency_ops"]
            if "error" not in op and "check" not in op
            and rnd in (None, op["round"])]


def check_failures(record):
    return [op["check"] for op in record["ops"] if "check" in op] + record["checks"]


def op_errors(record):
    errors = {}
    for op in record["ops"]:
        if "error" in op:
            errors[op["error"]] = errors.get(op["error"], 0) + 1
    return errors


def merge_rounds(records):
    """One record from the verified records of a run's rounds."""
    return {
        "ops": [op for r in records for op in r["ops"]],
        "latency_ops": [op for r in records for op in r["latency_ops"]],
        "throughput": [r["throughput"] for r in records],
        "checks": [r["check"] for r in records if "check" in r],
    }


def run_untraced(wl, work):
    from common import tail

    # Each timed round runs on a system of its own, so the rounds are
    # alike and independent, and the set-ups are spread over the run.
    setups, records, rss, restarts = [], [], [], []
    first = SETUP_REPEATS - wl.rounds
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        system = wl.setup(work)
        setups.append(time.perf_counter() - t0)
        try:
            if rep >= first:
                records.append(wl.timed(system, rep - first))
                rss.append(wl.peak_rss_mb(system))
                restarts.append(wl.health(system).get("restarts", 0))
        finally:
            wl.teardown(system)
    for rec in records:
        wl.verify(rec)
    record = merge_rounds(records)
    good = ok_ops(record)
    lat = latencies(record)
    attempted = len(record["ops"])
    # Each round is a fixed op count: its tail is always the same
    # percentile, and the median over rounds leaves out a round that a
    # slow spell of the shared host landed in.
    rounds = [latencies(record, r) for r in range(wl.rounds)]
    tails = [tail(lat_r) for lat_r in rounds]
    metrics = {
        "setup_s": statistics.median(setups),
        "p50_ms": 1e3 * statistics.median(lat),
        "tail_ms": 1e3 * statistics.median(t for t, _ in tails),
        "ops_per_s": statistics.median(record["throughput"]),
        "quality": statistics.fmean(op["quality"] for op in good),
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": len(good) / attempted,
    }
    say("setup_s_each", [round(s, 4) for s in setups])
    say("rounds", {
        "tail_percentile": sorted({round(p, 2) for _, p in tails}),
        "samples": [len(lat_r) for lat_r in rounds],
        "tail_ms": [round(1e3 * t, 3) for t, _ in tails],
        "ops_per_s": [round(x, 4) for x in record["throughput"]],
    })
    if wl.daemons:
        say("router_restarts", sum(restarts))
    return record, metrics, attempted, attempted - len(good)


def run_traced(wl, work):
    import tracing

    # The untraced reference for tracing overhead: the same round on a
    # fresh system.
    system = wl.setup(work)
    try:
        reference = wl.timed(system, 0)
    finally:
        wl.teardown(system)

    trace_dir = os.path.join(work, "spans")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    # Router passes its environment to the daemons it spawns: the hook
    # directory's sitecustomize traces each of them and writes its
    # spans to trace_dir when it exits.
    os.environ["PERFBENCH_TRACE_DIR"] = trace_dir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(HERE, "hook"), os.environ.get("PYTHONPATH"))
        if p
    )
    system = wl.setup(work, tracer)
    try:
        record = wl.timed(system, 0, tracer)
        extras = wl.traced_extras(system)
    finally:
        wl.teardown(system)
    wl.verify(record)
    record = merge_rounds([record])

    if len(os.listdir(trace_dir)) != wl.daemons:
        raise RuntimeError(
            f"expected span files from {wl.daemons} daemons, found"
            f" {sorted(os.listdir(trace_dir))}"
        )
    spans = list(tracer.spans) + tracing.load_spans(trace_dir)
    tree = tracing.SpanTree(spans)
    roots = [s for s in tracer.spans if s[2] == "op"]
    totals = tracing.LayerTotals(tree, roots)
    metrics = layer_metrics(totals, spans)
    metrics.update(wl.layers(record, extras, totals))

    traced_p50 = statistics.median(latencies(record))
    reference_p50 = statistics.median(latencies(reference))
    metrics["trace.op_ms"] = 1e3 * totals.op_s / totals.ops
    metrics["trace.unattributed_frac"] = totals.unattributed_s / totals.op_s
    metrics["trace.overhead_ms"] = 1e3 * (traced_p50 - reference_p50)
    metrics["trace.overhead_frac"] = traced_p50 / reference_p50 - 1.0
    say("trace", {
        "unattributed_share_of_op": round(metrics["trace.unattributed_frac"], 5),
        "layers_cover_op_within_10pct": metrics["trace.unattributed_frac"] <= 0.1,
        "p50_ms_traced": round(1e3 * traced_p50, 4),
        "p50_ms_untraced": round(1e3 * reference_p50, 4),
        "ops": totals.ops,
    })
    absent = sorted(
        name for name in LAYER_SPANS if totals.calls.get(name, 0) == 0
    )
    say("layers_without_spans_on_this_workload", absent)
    good = ok_ops(record)
    attempted = len(record["ops"])
    return record, metrics, attempted, attempted - len(good)


#: Span names of the layers that timed ops can pass through.
LAYER_SPANS = (
    "core.choice", "core.ks", "core.two_sided", "parallel.kernel",
    "resilience.map", "scaling.sk", "serve.daemon.build_graph",
    "serve.daemon.handle", "serve.journal.append",
    "serve.journal.checkpoint", "serve.net.client", "serve.router",
    "serve.server.submit", "stream.dynamic.edit", "stream.dynamic.snapshot",
    "stream.matcher.rematch", "stream.rescale.rebalance",
)


def layer_metrics(t, spans):
    """The per-layer metrics every workload reports (0 where absent)."""

    def mean_ms(name):
        picked = [s[4] - s[3] for s in spans if s[2] == name]
        return 1e3 * statistics.fmean(picked) if picked else 0.0

    lookups = t.calls.get("serve.daemon.build_graph", 0)
    m = {
        # Per input and per pool start, set-up included.
        "graph.build_ms": mean_ms("graph.build"),
        "parallel.pool_start_ms": mean_ms("parallel.pool_start"),
        "parallel.kernel_ms": t.per_op_ms("parallel.kernel"),
        "parallel.kernel_calls": t.per_op("parallel.kernel"),
        "parallel.serial_ratio": 0.0,
        "scaling.sk_ms": t.per_op_ms("scaling.sk"),
        "scaling.sweeps": t.attr_sum("scaling.sk", "sweeps") / t.ops,
        "core.choice_ms": t.per_op_ms("core.choice"),
        "core.ks_ms": t.per_op_ms("core.ks"),
        "core.two_sided_ms": t.per_op_ms("core.two_sided"),
        "resilience.map_calls": t.per_op("resilience.map"),
        "serve.router.self_ms": t.per_op_ms("serve.router", own=True),
        "serve.router.node_skew": 0.0,
        "serve.router.restarts": 0,
        "serve.net.client_ms": t.per_op_ms("serve.net.client", own=True),
        "serve.daemon.handle_ms": t.per_op_ms("serve.daemon.handle", own=True),
        "serve.daemon.build_graph_ms": t.per_op_ms("serve.daemon.build_graph"),
        "serve.daemon.cache_hit_ratio": (
            t.attr_sum("serve.daemon.build_graph", "hit") / lookups
            if lookups else 0.0
        ),
        "serve.server.queue_wait_ms": 0.0,
        "serve.server.exec_ms": t.per_op_ms("serve.server.submit", own=True),
        "serve.journal.append_ms": t.per_op_ms("serve.journal.append"),
        "serve.journal.bytes": t.attr_sum("serve.journal.append", "bytes") / t.ops,
        "serve.journal.checkpoint_ms": t.per_call_ms("serve.journal.checkpoint"),
        "serve.journal.checkpoints": t.calls.get("serve.journal.checkpoint", 0),
        "stream.dynamic.edit_ms": t.per_op_ms("stream.dynamic.edit"),
        "stream.dynamic.snapshot_ms": t.per_op_ms("stream.dynamic.snapshot"),
        "stream.rescale.rebalance_ms": t.per_op_ms("stream.rescale.rebalance"),
        "stream.rescale.fallbacks": t.attr_sum("stream.rescale.rebalance", "fallback"),
        "stream.matcher.rematch_ms": t.per_op_ms("stream.matcher.rematch", own=True),
        "stream.matcher.repaired_frac": 0.0,
        "unattributed_ms": 1e3 * t.unattributed_s / t.ops,
    }
    for kern in KERNELS:
        m[f"parallel.kernel_ms.{kern}"] = t.per_op_ms(f"parallel.kernel.{kern}")
        m[f"parallel.kernel_calls.{kern}"] = t.per_op(f"parallel.kernel.{kern}")
    return m


def check_determinism(work, workload, seed, seconds, metrics):
    """Compare quality and ok_frac with an earlier run of this seed."""
    path = os.path.join(work, "determinism.json")
    try:
        with open(path) as fh:
            seen = json.load(fh)
    except (OSError, ValueError):
        seen = {}
    key = f"{workload}:{seed}:{seconds}"
    now = {k: metrics[k] for k in ("quality", "ok_frac")}
    before = seen.get(key)
    if before is None:
        say("determinism", "first run of this seed here; recorded")
    elif before == now:
        say("determinism", "quality and ok_frac repeat the earlier run exactly")
    else:
        say("determinism", {"MISMATCH": True, "earlier": before, "now": now})
    seen[key] = now
    with open(path, "w") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch", "serve", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no src/repro under the working directory; run"
              " from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    os.environ.pop("REPRO_BACKEND", None)
    work = os.path.join(root, ".perfbench")
    os.makedirs(work, exist_ok=True)

    from common import cpu_ticks, host_probe

    say("host_probe_start", host_probe())
    ticks = cpu_ticks()
    wl = load_workload(args.workload)
    wl.prepare(args.seed, args.seconds)
    if args.trace:
        record, values, attempted, failed = run_traced(wl, work)
        wanted = spec["per_layer"]
    else:
        record, values, attempted, failed = run_untraced(wl, work)
        wanted = spec["end_to_end"]
    say("workload", {"name": wl.name, "seed": args.seed,
                     "seconds": args.seconds, **wl.describe()})
    diagnostics = wl.diagnostics(record)
    if diagnostics:
        say("diagnostics", diagnostics)
    errors = op_errors(record)
    if errors:
        say("failed_ops_program_defect", errors)
    failures = check_failures(record)
    for failure in failures:
        say("CHECK_FAILED", failure)
    if not args.trace and not failures:
        check_determinism(work, args.workload, args.seed, args.seconds, values)
    steal, total = (b - a for a, b in zip(ticks, cpu_ticks()))
    say("host_steal_share", round(steal / total, 4) if total else None)
    say("host_probe_end", host_probe())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
