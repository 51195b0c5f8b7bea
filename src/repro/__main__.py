"""Command-line interface for the library.

Subcommands::

    python -m repro match    <file.mtx> [--method two-sided] [--iterations 5]
    python -m repro sprank   <file.mtx>
    python -m repro scale    <file.mtx> [--iterations 10] [--method sk|ruiz]
    python -m repro dm       <file.mtx>
    python -m repro generate <kind> --n 1000 [--degree 4] [--out g.mtx]
    python -m repro info     <file.mtx>
    python -m repro telemetry <file.mtx> [--method two-sided] [--trace]
                              [--jsonl trace.jsonl]
    python -m repro chaos    [--n 600] [--deadline 0.3] [--smoke]
    python -m repro serve    [--backend shm:4] [--soak 200] [--overload 2]
                             [--chaos] [--graph-cache-cap 32]
                             [--max-streams 8] [--listen unix:/tmp/d.sock]
    python -m repro route    [--daemons 3] [--requests 60] [--kill-one]
    python -m repro stream   [--n 10000] [--churn 0.01] [--batches 3]
                             [--target 0.6] [--smoke]
    python -m repro shard    [--n 20000] [--shards 3] [--check]

Matrices are MatrixMarket coordinate files (``.mtx``) or the library's
``.npz`` cache format (auto-detected by extension).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np


def _load(path: str):
    from repro.graph.io import load_npz, read_matrix_market

    p = Path(path)
    if p.suffix == ".npz":
        return load_npz(p)
    return read_matrix_market(p)


def _save(graph, path: str) -> None:
    from repro.graph.io import save_npz, write_matrix_market

    p = Path(path)
    if p.suffix == ".npz":
        save_npz(graph, p)
    else:
        write_matrix_market(graph, p)


def cmd_info(args: argparse.Namespace) -> int:
    from repro.graph.properties import degree_statistics

    g = _load(args.matrix)
    rows, cols = degree_statistics(g)
    print(f"shape      : {g.nrows} x {g.ncols}")
    print(f"edges      : {g.nnz}")
    print(f"avg degree : {g.nnz / max(1, g.nrows):.2f}")
    print(
        f"row degrees: min {rows.minimum}, max {rows.maximum}, "
        f"var {rows.variance:.1f}, empty {rows.empty_count}"
    )
    print(
        f"col degrees: min {cols.minimum}, max {cols.maximum}, "
        f"var {cols.variance:.1f}, empty {cols.empty_count}"
    )
    return 0


def cmd_sprank(args: argparse.Namespace) -> int:
    from repro.matching import sprank

    g = _load(args.matrix)
    t0 = time.perf_counter()
    rank = sprank(g)
    dt = time.perf_counter() - t0
    print(f"sprank = {rank}  ({rank / max(1, min(g.shape)):.4f} of "
          f"min(shape); {dt:.2f}s)")
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    from repro.parallel import get_backend
    from repro.scaling import scale_ruiz, scale_sinkhorn_knopp

    g = _load(args.matrix)
    with get_backend(args.backend) as be:
        if args.method == "sk":
            res = scale_sinkhorn_knopp(
                g, args.iterations, backend=be, track_history=True
            )
        else:
            res = scale_ruiz(g, args.iterations, track_history=True)
    print(f"method     : {args.method}")
    print(f"iterations : {res.iterations}")
    print(f"final error: {res.error:.6g}")
    if res.history:
        trail = ", ".join(f"{e:.3g}" for e in res.history[:10])
        print(f"error trail: {trail}{' ...' if len(res.history) > 10 else ''}")
    if args.out:
        np.savez(args.out, dr=res.dr, dc=res.dc)
        print(f"wrote scaling vectors to {args.out}")
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    from repro.core import one_sided_match, two_sided_match
    from repro.matching import (
        hopcroft_karp,
        karp_sipser,
        karp_sipser_plus,
        mc21,
        push_relabel,
    )
    from repro.matching.heuristics.greedy import greedy_edge_matching

    from repro.parallel import get_backend

    g = _load(args.matrix)
    be = get_backend(args.backend)
    t0 = time.perf_counter()
    if args.best_of > 1 and args.method in ("one-sided", "two-sided"):
        from repro.core import best_of
        from repro.scaling import scale_sinkhorn_knopp

        matching = best_of(
            g, args.best_of, method=args.method,
            scaling=scale_sinkhorn_knopp(g, args.iterations, backend=be),
            seed=args.seed,
        ).matching
    elif args.method == "one-sided":
        matching = one_sided_match(
            g, args.iterations, seed=args.seed, backend=be
        ).matching
    elif args.method == "two-sided":
        matching = two_sided_match(
            g, args.iterations, seed=args.seed, backend=be
        ).matching
    elif args.method == "karp-sipser":
        matching = karp_sipser(g, seed=args.seed)
    elif args.method == "karp-sipser-plus":
        matching = karp_sipser_plus(g, seed=args.seed)
    elif args.method == "greedy":
        matching = greedy_edge_matching(g, seed=args.seed)
    elif args.method == "hopcroft-karp":
        matching = hopcroft_karp(g)
    elif args.method == "mc21":
        matching = mc21(g)
    elif args.method == "push-relabel":
        matching = push_relabel(g)
    elif args.method == "auction":
        from repro.matching import auction_match

        matching = auction_match(g, backend=be, seed=args.seed).matching
    elif args.method == "auction-warm":
        from repro.matching import auction_match

        heur = two_sided_match(g, args.iterations, seed=args.seed, backend=be)
        matching = auction_match(
            g, initial=heur, scaling=heur.scaling, backend=be,
            seed=args.seed,
        ).matching
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown method {args.method}")
    dt = time.perf_counter() - t0
    be.close()
    matching.validate(g)
    print(f"method      : {args.method}")
    print(f"cardinality : {matching.cardinality}")
    print(f"time        : {dt:.3f}s")
    if args.quality:
        from repro.matching import sprank

        maximum = sprank(g)
        print(f"sprank      : {maximum}")
        print(f"quality     : {matching.cardinality / maximum:.4f}")
    if args.out:
        np.savez(
            args.out,
            row_match=matching.row_match,
            col_match=matching.col_match,
        )
        print(f"wrote matching to {args.out}")
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Run a heuristic with telemetry enabled and print the metric report."""
    from repro import telemetry
    from repro.core import one_sided_match, two_sided_match
    from repro.telemetry import JsonLinesSink, TableSink, render_report

    if args.repeat < 1:
        raise SystemExit("--repeat must be at least 1")
    g = _load(args.matrix)
    sinks = []
    if args.trace:
        sinks.append(TableSink())
    jsonl = None
    if args.jsonl:
        jsonl = JsonLinesSink(args.jsonl)
        sinks.append(jsonl)
    from repro.parallel import get_backend

    with telemetry.session(*sinks) as registry, \
            get_backend(args.backend) as be:
        for rep in range(args.repeat):
            seed = args.seed + rep
            if args.method == "one-sided":
                result = one_sided_match(
                    g, args.iterations, seed=seed, backend=be
                )
            else:
                result = two_sided_match(
                    g, args.iterations, seed=seed, backend=be,
                    engine=args.engine,
                )
        report = render_report(registry.snapshot())
    if jsonl is not None:
        jsonl.close()
        print(f"wrote event trace to {args.jsonl}")
    print(report, end="")
    print(f"cardinality : {result.cardinality}  (last of {args.repeat} run(s))")
    return 0


def _kernel_bench_views(name, graph, rng):
    """Synthetic full-size views for micro-benching kernel *name*."""
    import numpy as np

    nrows, ncols = graph.nrows, graph.ncols
    nnz = int(graph.row_ptr[-1])
    if name == "sk_sweep":
        return ncols, {
            "ptr": graph.col_ptr, "ind": graph.row_ind,
            "opp": rng.random(nrows) + 0.5,
            "out": np.zeros(ncols),
        }, None
    if name == "sk_sweep_err":
        return ncols, {
            "ptr": graph.col_ptr, "ind": graph.row_ind,
            "opp": rng.random(nrows) + 0.5,
            "mine": rng.random(ncols) + 0.5,
            "out": np.zeros(ncols),
        }, None
    if name == "choice_scaled":
        return nrows, {
            "ptr": graph.row_ptr, "ind": graph.col_ind,
            "opp": rng.random(ncols) + 0.5,
            "draws": 1.0 - rng.random(nrows),
            "out": np.zeros(nrows, dtype=np.int64),
        }, None
    if name == "choice_flat":
        return nrows, {
            "ptr": graph.row_ptr, "ind": graph.col_ind,
            "weights": rng.random(nnz) + 0.5,
            "draws": 1.0 - rng.random(nrows),
            "out": np.zeros(nrows, dtype=np.int64),
        }, None
    if name == "auction_bid":
        return nrows, {
            "ptr": graph.row_ptr, "ind": graph.col_ind,
            "prices": rng.random(ncols),
            "bid_col": np.zeros(nrows, dtype=np.int64),
            "bid_val": np.zeros(nrows, dtype=np.float64),
        }, {"eps": 0.125, "dead": 1e12}
    raise SystemExit(f"no bench harness for kernel {name!r}")


def cmd_kernels(args: argparse.Namespace) -> int:
    """Report per-kernel implementation status, plus a micro-benchmark."""
    import time

    import numpy as np

    from repro.graph.generators import sprand
    from repro.parallel import (
        kernel_impl,
        kernel_impls,
        native_available,
        native_cache_dir,
        run_kernel,
        warm_compile,
    )
    from repro.parallel import native as native_mod

    have = native_available()
    warm_compile()  # resolves every kernel's status (compiles if it can)
    rows = kernel_impls()
    mode = rows[0]["mode"] if rows else "auto"
    resolved = "native" if any(r["impl"] == "native" for r in rows) else "numpy"
    print("kernel implementation tier")
    print("--------------------------")
    detail = "" if have else "  (numba not installed)"
    print(f"selected mode : {mode}  -> resolves to {resolved}{detail}")
    version = native_mod._NUMBA_VERSION if have else None
    print(f"numba         : {version or ('available' if have else 'absent')}")
    print(f"cache dir     : {native_cache_dir()}")
    print()

    timings: dict[str, tuple[float, float | None]] = {}
    if not args.no_bench:
        graph = sprand(args.n, 4.0, seed=0)
        for row in rows:
            name = row["kernel"]
            rng = np.random.default_rng(1)
            n, arrays, scalars = _kernel_bench_views(name, graph, rng)

            def best_of(impl: str) -> float:
                with kernel_impl(impl):
                    run_kernel(name, n, arrays, scalars=scalars)  # warm
                    best = float("inf")
                    for _ in range(args.repeats):
                        t0 = time.perf_counter()
                        run_kernel(name, n, arrays, scalars=scalars)
                        best = min(best, time.perf_counter() - t0)
                return best

            numpy_s = best_of("numpy")
            native_s = best_of("native") if row["status"] == "ready" else None
            timings[name] = (numpy_s, native_s)

    header = (
        f"{'kernel':<16} {'impl':<7} {'status':<9} {'compile_s':>9} "
        f"{'numpy_ms':>9} {'native_ms':>10} {'speedup':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        name = row["kernel"]
        comp = row["compile_seconds"]
        comp_s = f"{comp:9.3f}" if comp is not None else f"{'-':>9}"
        numpy_s, native_s = timings.get(name, (None, None))
        np_ms = f"{numpy_s * 1e3:9.3f}" if numpy_s is not None else f"{'-':>9}"
        if native_s is not None and numpy_s is not None:
            nat_ms = f"{native_s * 1e3:10.3f}"
            speed = f"{numpy_s / native_s:7.2f}x"
        else:
            nat_ms, speed = f"{'-':>10}", f"{'-':>8}"
        print(
            f"{name:<16} {row['impl']:<7} {row['status']:<9} {comp_s} "
            f"{np_ms} {nat_ms} {speed}"
        )
    fallbacks = [r for r in rows if r["status"] == "fallback"]
    if fallbacks:
        print()
        for row in fallbacks:
            print(f"note: {row['kernel']} fell back — {row['detail']}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos matrix and print the cell table (exit 1 on failure)."""
    from repro.resilience import run_chaos

    backends = (
        ("serial",)
        if args.smoke
        else ("serial", "threads:2", "processes:2", "shm:2")
    )
    n = min(args.n, 200) if args.smoke else args.n
    report = run_chaos(
        n,
        backends=backends,
        deadline=args.deadline,
        max_retries=args.max_retries,
        seed=args.seed,
    )
    print(report.render())
    return 0 if report.passed else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the matching service: JSON-lines daemon or soak mode.

    Without ``--soak`` this reads JSON-lines requests from stdin until
    EOF (see ``repro.serve.daemon``).  With ``--soak N`` it hammers an
    in-process server with N requests at ``--overload`` times capacity
    and exits 1 if the service contract is violated; ``--chaos`` adds a
    fault storm underneath.  ``--backend`` defaults from the
    ``REPRO_BACKEND`` environment variable (serial when unset).
    """
    import os

    from repro.serve import ServerConfig, run_soak, serve_forever

    backend = args.backend
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND") or None
    if args.soak is None:
        if args.listen:
            import json as _json

            from repro.serve.net import serve_listen

            def _ready(address: str) -> None:
                print(_json.dumps({"event": "serve.listening",
                                   "address": address}), flush=True)

            return serve_listen(
                args.listen,
                backend,
                graph_cache_cap=args.graph_cache_cap,
                max_streams=args.max_streams,
                journal_dir=args.journal,
                recover=args.recover,
                checkpoint_every=args.checkpoint_every,
                acked_cap=args.acked_cap,
                ready=_ready,
            )
        if args.supervise and args.journal:
            import sys as _sys

            from repro.serve.recovery import supervise

            child = [
                _sys.executable, "-m", "repro", "serve",
                "--journal", args.journal,
                "--checkpoint-every", str(args.checkpoint_every),
                "--max-streams", str(args.max_streams),
            ]
            if args.backend:
                child += ["--backend", args.backend]
            if args.recover:
                child.append("--recover")
            return supervise(
                child,
                journal_dir=args.journal,
                max_restarts=args.supervise,
            )
        return serve_forever(
            backend,
            graph_cache_cap=args.graph_cache_cap,
            max_streams=args.max_streams,
            journal_dir=args.journal,
            recover=args.recover,
            checkpoint_every=args.checkpoint_every,
            acked_cap=args.acked_cap,
        )
    config = ServerConfig(
        default_deadline=args.deadline,
        chunk_deadline=max(0.2, args.deadline / 2),
        max_queue=args.max_queue,
    )
    fault_plan = None
    if args.chaos:
        from repro.resilience.chaos import standard_schedules

        fault_plan = standard_schedules()["storm"]
    report = run_soak(
        args.soak,
        backend=backend,
        n=args.n,
        deadline=args.deadline,
        overload=args.overload,
        seed=args.seed,
        config=config,
        fault_plan=fault_plan,
    )
    print(report.render())
    return 0 if report.passed else 1


def cmd_route(args: argparse.Namespace) -> int:
    """Run the multi-daemon router demo soak.

    Starts ``--daemons`` socket daemons behind consistent-hash routing,
    routes ``--requests`` mixed match/stream requests through them
    (``--kill-one`` SIGKILLs a daemon mid-soak to demonstrate
    journal-recovery failover), audits that every request was answered,
    and prints the router health summary.  Exits 1 if any request was
    lost or a stream session diverged.
    """
    import json
    import tempfile

    from repro.serve.quota import TenantQuotas
    from repro.serve.router import Router

    base = args.dir or tempfile.mkdtemp(prefix="repro-route-")
    graph = {"kind": "sprand", "n": args.n, "degree": 4.0, "seed": args.seed}
    failures = 0
    with Router(
        args.daemons,
        base,
        backend=args.backend,
        quotas=TenantQuotas(limit=args.quota),
    ) as router:
        opened = router.request({"op": "stream_open", "graph": graph})
        handle = opened["handle"]
        kill_at = args.requests // 2 if args.kill_one else -1
        for i in range(args.requests):
            if i == kill_at:
                victim = router._node_by_name(handle.split(":", 1)[0])
                if victim.alive():
                    victim.proc.kill()
                    print(f"killed {victim.name} (pid {victim.pid})")
            if i % 3 == 0:
                response = router.request(
                    {"op": "update", "handle": handle,
                     "add": {"rows": [i % args.n],
                             "cols": [(i * 7) % args.n]}}
                )
            elif i % 3 == 1:
                response = router.request({"op": "rematch", "handle": handle})
            else:
                response = router.request(
                    {"op": "match", "graph": graph, "iterations": 2,
                     "seed": args.seed + i}
                )
            if not response.get("ok", False):
                failures += 1
        router.request({"op": "stream_close", "handle": handle})
        health = router.health()
    print(json.dumps(health, indent=2))
    print(
        f"routed {args.requests} requests, {failures} lost;"
        f" restarts: "
        + ", ".join(
            f"{n['name']}={n['restarts']}" for n in health["nodes"]
        )
    )
    return 0 if failures == 0 else 1


def cmd_stream(args: argparse.Namespace) -> int:
    """Run the dynamic-graph churn demo and print the timing report.

    Exercises the ``repro.stream`` layer end to end: build a graph,
    churn its edges in batches, repair the matching incrementally, and
    compare against cold from-scratch rematches of the same epochs.
    Exits 1 if any batch's incremental guarantee disagreed with the
    cold one (that equality is the subsystem's core contract).
    """
    from repro.stream import run_churn

    n = min(args.n, 4000) if args.smoke else args.n
    report = run_churn(
        n,
        churn_fraction=args.churn,
        batches=args.batches,
        target_quality=args.target,
        seed=args.seed,
        backend=args.backend,
        compare_cold=not args.no_cold,
    )
    print(f"n               : {report.n} (degree {report.degree} perms "
          f"+ extras)")
    print(f"churn           : {report.churn_fraction:.2%} of edges x "
          f"{report.batches} batches")
    print(f"update          : {report.update_seconds * 1e3:8.1f} ms/batch")
    print(f"incremental     : "
          f"{report.incremental_seconds * 1e3:8.1f} ms/batch")
    if not args.no_cold:
        print(f"cold rematch    : {report.cold_seconds * 1e3:8.1f} ms/batch")
        print(f"speedup         : {report.speedup:8.2f}x "
              f"(cold / (update + incremental))")
        print(f"guarantees match: {report.guarantees_match}")
    print(f"guarantee       : {report.guarantee:.4f}")
    print(f"cardinality     : {report.cardinality}")
    return 0 if (args.no_cold or report.guarantees_match) else 1


def cmd_shard(args: argparse.Namespace) -> int:
    """Run the sharded matching pipeline and report partition/merge stats.

    Generates a random graph, partitions it into ``--shards`` chunk-aligned
    shards, and runs the full sharded pipeline (2-D Sinkhorn–Knopp, local
    choices, BSP Karp–Sipser reconciliation) on the in-process tier.  With
    ``--check`` it also runs the unsharded serial pipeline and exits 1
    unless the sharded matching, scaling vectors, and §3.3 guarantee are
    bitwise identical — the subsystem's core contract.
    """
    from repro.core import two_sided_match
    from repro.graph.generators import sprand
    from repro.shard import plan_shards, shard_match

    g = sprand(args.n, args.degree, seed=args.seed)
    plan = plan_shards(g, args.shards)
    t0 = time.perf_counter()
    res = shard_match(
        g, args.shards, args.iterations, seed=args.seed, plan=plan
    )
    dt = time.perf_counter() - t0
    print(f"graph        : {g.nrows} x {g.ncols}, {g.nnz} edges")
    print(f"shards       : {plan.n_shards} "
          f"(max held nnz {plan.max_held_nnz}, "
          f"boundary edges {plan.boundary_edges})")
    print(f"cardinality  : {res.cardinality}")
    print(f"guarantee    : {res.guarantee:.4f}")
    print(f"ks rounds    : {res.rounds}")
    print(f"time         : {dt:.3f}s")
    if not args.check:
        return 0
    ref = two_sided_match(
        g, args.iterations, seed=args.seed, engine="vectorized"
    )
    same = (
        np.array_equal(res.matching.row_match, ref.matching.row_match)
        and np.array_equal(res.scaling.dr, ref.scaling.dr)
        and np.array_equal(res.scaling.dc, ref.scaling.dc)
        and res.guarantee == ref.guarantee
    )
    print(f"serial check : {'bitwise-identical' if same else 'MISMATCH'}")
    return 0 if same else 1


def cmd_dm(args: argparse.Namespace) -> int:
    from repro.graph.dm import CoarseDM, dulmage_mendelsohn

    g = _load(args.matrix)
    dm = dulmage_mendelsohn(g)
    print(f"sprank          : {dm.sprank}")
    for name, block in (("H", CoarseDM.H_BLOCK), ("S", CoarseDM.S_BLOCK),
                        ("V", CoarseDM.V_BLOCK)):
        print(
            f"block {name}         : {dm.rows_of(block).size} rows x "
            f"{dm.cols_of(block).size} cols"
        )
    print(f"fine blocks in S: {dm.n_scc}")
    print(f"matchable edges : {int(dm.matchable_edges.sum())} / {g.nnz}")
    print(f"total support   : {dm.total_support}")
    print(f"fully indecomp. : {dm.fully_indecomposable}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.graph import generators, suite

    kind = args.kind
    if kind in suite.SUITE_NAMES:
        g = suite.suite_instance(kind, n=args.n, seed=args.seed)
    elif kind == "sprand":
        g = generators.sprand(args.n, args.degree, seed=args.seed)
    elif kind == "adversarial":
        g = __import__(
            "repro.graph.adversarial", fromlist=["karp_sipser_adversarial"]
        ).karp_sipser_adversarial(args.n, args.k)
    elif kind == "fully-indecomposable":
        g = generators.fully_indecomposable(args.n, args.degree, seed=args.seed)
    elif kind == "one-out":
        from repro.core.oneout import one_out_graph

        g = one_out_graph(args.n, seed=args.seed)
    else:
        raise SystemExit(
            f"unknown kind {kind!r}; options: sprand, adversarial, "
            f"fully-indecomposable, one-out, or a suite instance "
            f"({', '.join(suite.SUITE_NAMES)})"
        )
    print(f"generated {kind}: {g.nrows} x {g.ncols}, {g.nnz} edges")
    if args.out:
        _save(g, args.out)
        print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Bipartite matching heuristics with quality guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="matrix summary")
    p_info.add_argument("matrix")
    p_info.set_defaults(fn=cmd_info)

    p_rank = sub.add_parser("sprank", help="structural rank (exact)")
    p_rank.add_argument("matrix")
    p_rank.set_defaults(fn=cmd_sprank)

    p_scale = sub.add_parser("scale", help="doubly stochastic scaling")
    p_scale.add_argument("matrix")
    p_scale.add_argument("--iterations", type=int, default=10)
    p_scale.add_argument("--method", choices=["sk", "ruiz"], default="sk")
    p_scale.add_argument(
        "--backend", default=None,
        help="parallel backend spec (e.g. threads:4, shm:2); sk only",
    )
    p_scale.add_argument("--out", default=None)
    p_scale.set_defaults(fn=cmd_scale)

    p_match = sub.add_parser("match", help="compute a matching")
    p_match.add_argument("matrix")
    p_match.add_argument(
        "--method",
        choices=[
            "one-sided", "two-sided", "karp-sipser", "karp-sipser-plus",
            "greedy", "hopcroft-karp", "mc21", "push-relabel",
            "auction", "auction-warm",
        ],
        default="two-sided",
    )
    p_match.add_argument("--iterations", type=int, default=5)
    p_match.add_argument("--seed", type=int, default=0)
    p_match.add_argument(
        "--backend", default=None,
        help="parallel backend spec (e.g. threads:4, shm:2); "
             "one-/two-sided only",
    )
    p_match.add_argument(
        "--best-of", type=int, default=1, dest="best_of",
        help="run the randomized heuristic K times and keep the best",
    )
    p_match.add_argument(
        "--quality", action="store_true",
        help="also compute sprank and report |M|/sprank",
    )
    p_match.add_argument("--out", default=None)
    p_match.set_defaults(fn=cmd_match)

    p_dm = sub.add_parser("dm", help="Dulmage-Mendelsohn decomposition")
    p_dm.add_argument("matrix")
    p_dm.set_defaults(fn=cmd_dm)

    p_tel = sub.add_parser(
        "telemetry",
        help="run a heuristic with telemetry on and report its metrics",
    )
    p_tel.add_argument("matrix")
    p_tel.add_argument(
        "--method", choices=["one-sided", "two-sided"], default="two-sided"
    )
    p_tel.add_argument("--iterations", type=int, default=5)
    p_tel.add_argument("--seed", type=int, default=0)
    p_tel.add_argument(
        "--engine",
        choices=["serial", "vectorized", "parallel", "simulated", "threaded"],
        default="serial",
    )
    p_tel.add_argument(
        "--backend", default=None,
        help="parallel backend spec (e.g. threads:4, processes:2, shm:2)",
    )
    p_tel.add_argument("--repeat", type=int, default=1)
    p_tel.add_argument(
        "--trace", action="store_true",
        help="echo events to stdout as they happen",
    )
    p_tel.add_argument(
        "--jsonl", default=None,
        help="also append the event trace to this JSON-lines file",
    )
    p_tel.set_defaults(fn=cmd_telemetry)

    p_kern = sub.add_parser(
        "kernels",
        help="per-kernel implementation report (native/numpy) + micro-bench",
    )
    p_kern.add_argument(
        "--n", type=int, default=20_000,
        help="graph size for the micro-benchmark (default 20000)",
    )
    p_kern.add_argument(
        "--repeats", type=int, default=3,
        help="best-of repeats per cell (default 3)",
    )
    p_kern.add_argument(
        "--no-bench", action="store_true",
        help="report implementation status only, skip timings",
    )
    p_kern.set_defaults(fn=cmd_kernels)

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep over the backend matrix",
    )
    p_chaos.add_argument("--n", type=int, default=600)
    p_chaos.add_argument("--deadline", type=float, default=0.3)
    p_chaos.add_argument("--max-retries", type=int, default=3,
                         dest="max_retries")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--smoke", action="store_true",
        help="small serial-only sweep (the CI smoke configuration)",
    )
    p_chaos.set_defaults(fn=cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="matching service: JSON-lines daemon, or --soak N overload test",
    )
    p_serve.add_argument(
        "--backend", default=None,
        help="backend spec (e.g. shm:4); default: $REPRO_BACKEND or serial",
    )
    p_serve.add_argument(
        "--soak", type=int, default=None, metavar="N",
        help="soak mode: submit N requests at --overload x capacity, "
             "audit the service contract, exit 1 on violation",
    )
    p_serve.add_argument(
        "--overload", type=float, default=2.0,
        help="client threads as a multiple of serving capacity (soak mode)",
    )
    p_serve.add_argument(
        "--chaos", action="store_true",
        help="inject the storm fault schedule during the soak",
    )
    p_serve.add_argument("--n", type=int, default=1500,
                         help="soak graph size")
    p_serve.add_argument("--deadline", type=float, default=1.0,
                         help="per-request budget in seconds")
    p_serve.add_argument("--max-queue", type=int, default=16,
                         dest="max_queue")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--graph-cache-cap", type=int, default=32, dest="graph_cache_cap",
        help="LRU cap on the daemon's spec->graph cache",
    )
    p_serve.add_argument(
        "--max-streams", type=int, default=8, dest="max_streams",
        help="max concurrently open dynamic-graph handles (daemon mode)",
    )
    p_serve.add_argument(
        "--journal", default=None, metavar="DIR",
        help="write-ahead journal directory: fsync every stream mutation "
             "before acknowledging it (daemon mode)",
    )
    p_serve.add_argument(
        "--recover", action="store_true",
        help="rebuild stream sessions from --journal DIR (checkpoint + "
             "replay + recertification) before serving",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=64, dest="checkpoint_every",
        help="checkpoint the stream registry every N journal records",
    )
    p_serve.add_argument(
        "--supervise", type=int, default=0, metavar="N",
        help="watchdog mode: respawn a crashed daemon up to N times, "
             "recovering from --journal DIR each time",
    )
    p_serve.add_argument(
        "--acked-cap", type=int, default=1024, dest="acked_cap",
        help="LRU cap on the acknowledged-request replay cache "
             "(idempotent retries of evicted ids re-execute)",
    )
    p_serve.add_argument(
        "--listen", default=None, metavar="ADDR",
        help="serve the daemon protocol over a socket instead of stdio: "
             "'unix:/path.sock' or 'tcp:host:port' (tcp port 0 picks an "
             "ephemeral port; the bound address is printed as a JSON "
             "'serve.listening' line)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_route = sub.add_parser(
        "route",
        help="multi-daemon router: N supervised socket daemons behind "
             "consistent-hash routing with journal-recovery failover",
    )
    p_route.add_argument(
        "--daemons", type=int, default=3,
        help="number of daemon processes to supervise",
    )
    p_route.add_argument(
        "--dir", default=None, metavar="DIR",
        help="base directory for sockets, journals, and daemon logs "
             "(default: a fresh temp directory)",
    )
    p_route.add_argument(
        "--backend", default=None,
        help="backend spec forwarded to each daemon (e.g. shm:2)",
    )
    p_route.add_argument(
        "--requests", type=int, default=60, metavar="N",
        help="demo soak: route N mixed match/stream requests, then "
             "print router health and exit",
    )
    p_route.add_argument(
        "--kill-one", action="store_true", dest="kill_one",
        help="SIGKILL one daemon mid-soak to demonstrate failover",
    )
    p_route.add_argument("--n", type=int, default=200,
                         help="graph size for the demo requests")
    p_route.add_argument("--seed", type=int, default=0)
    p_route.add_argument(
        "--quota", type=int, default=8,
        help="per-tenant in-flight request quota",
    )
    p_route.set_defaults(fn=cmd_route)

    p_stream = sub.add_parser(
        "stream",
        help="dynamic-graph churn demo: incremental vs cold rematch",
    )
    p_stream.add_argument("--n", type=int, default=10_000)
    p_stream.add_argument("--churn", type=float, default=0.01,
                          help="fraction of edges replaced per batch")
    p_stream.add_argument("--batches", type=int, default=3)
    p_stream.add_argument("--target", type=float, default=0.60,
                          help="expected-quality target to certify")
    p_stream.add_argument("--seed", type=int, default=0)
    p_stream.add_argument(
        "--backend", default=None,
        help="parallel backend spec (e.g. threads:4, shm:2)",
    )
    p_stream.add_argument(
        "--no-cold", action="store_true", dest="no_cold",
        help="skip the cold-rematch comparison (just time the updates)",
    )
    p_stream.add_argument(
        "--smoke", action="store_true",
        help="cap n at 4000 (the CI smoke configuration)",
    )
    p_stream.set_defaults(fn=cmd_stream)

    p_shard = sub.add_parser(
        "shard",
        help="sharded matching demo: partitioned scale→choice→KS with "
             "boundary reconciliation",
    )
    p_shard.add_argument(
        "--n", type=int, default=20_000,
        help="graph size; bounds snap to the choice kernel's chunk grid, "
             "so small graphs may collapse into fewer effective shards",
    )
    p_shard.add_argument("--degree", type=float, default=4.0)
    p_shard.add_argument("--shards", type=int, default=3)
    p_shard.add_argument("--iterations", type=int, default=5)
    p_shard.add_argument("--seed", type=int, default=0)
    p_shard.add_argument(
        "--check", action="store_true",
        help="also run the unsharded serial pipeline and exit 1 unless "
             "the sharded result is bitwise identical",
    )
    p_shard.set_defaults(fn=cmd_shard)

    p_gen = sub.add_parser("generate", help="generate a test matrix")
    p_gen.add_argument("kind")
    p_gen.add_argument("--n", type=int, default=1000)
    p_gen.add_argument("--degree", type=float, default=4.0)
    p_gen.add_argument("--k", type=int, default=8)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(fn=cmd_generate)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
