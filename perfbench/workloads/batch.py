"""batch — the paper's setting: large sparse solves on the shm:2 pool.

One library caller builds two distinct Erdős–Rényi matrices with
``repro.graph.from_edges`` and runs ``two_sided_match(iterations=5,
engine="parallel")`` on a ``shm:2`` pool in a closed loop, alternating
the two matrices, with a fresh seed per solve.  Scaling, choice
sampling, Karp–Sipser and kernel dispatch do almost all the work; no
serving, journal or stream layer runs.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    TAIL_BEYOND,
    CheckFailed,
    check_matching,
    child_pids,
    edge_keys,
    er_coo,
    op_count,
    sprank,
    vm_hwm_mb,
)

N = 200_000
DEGREE = 4.0
ITERATIONS = 5
BACKEND = "shm:2"
#: Solves per second of ``--seconds``, even so both matrices get as many
#: (56 solves, tail = p82, at 20 s; a solve takes about 0.35 s on a
#: 2-vCPU Xeon host).
RATE = 2.8


class Batch:
    name = "batch"
    daemons = 0
    #: A round's tail needs more solves than three rounds have time for.
    rounds = 1

    def prepare(self, seed, seconds):
        rng = np.random.default_rng([seed, 1])
        self.coo = [er_coo(rng, N, DEGREE) for _ in range(2)]
        self.n_ops = 2 * op_count(RATE / 2, seconds, TAIL_BEYOND + 1)
        seeds = rng.integers(0, 2**31 - 1, self.n_ops + 2)
        self.warm_seeds = [int(s) for s in seeds[:2]]
        self.seeds = [int(s) for s in seeds[2:]]
        self.keys = None
        self.spranks = None

    def setup(self, work_dir, tracer=None):
        import contextlib

        import repro
        from repro.graph import BipartiteGraph
        from repro.parallel.backends import get_backend

        # Start the pool before the graphs exist, so the forked workers
        # do not inherit (and count) the caller's graph pages.  The pool
        # forks lazily, on the first kernel call.
        span = (
            tracer.op("parallel.pool_start", None) if tracer is not None
            else contextlib.nullcontext()
        )
        backend = get_backend(BACKEND)
        system = {"graphs": [], "backend": backend}
        try:
            with span:
                tiny = BipartiteGraph(2, 2, [0, 1, 2], [1, 0])
                repro.scale_sinkhorn_knopp(tiny, 1, backend=backend)
            system["graphs"] = [
                repro.graph.from_edges(N, N, r, c) for r, c in self.coo
            ]
            # Warm-up: one solve per matrix publishes its arrays to
            # shared memory and fills the kernel-grid cache.
            for graph, seed in zip(system["graphs"], self.warm_seeds):
                repro.two_sided_match(
                    graph, ITERATIONS, seed=seed, backend=backend,
                    engine="parallel",
                )
        except BaseException:
            self.teardown(system)
            raise
        return system

    def teardown(self, system):
        from multiprocessing import resource_tracker

        system["backend"].close()
        # The pool started multiprocessing's resource tracker; stop it and
        # wait for it, so the run leaves no process behind.
        resource_tracker._resource_tracker._stop()

    def peak_rss_mb(self, system):
        import os

        pid = os.getpid()
        return sum(vm_hwm_mb(p) for p in [pid] + child_pids(pid))

    def timed(self, system, rnd, tracer=None):
        import contextlib

        import repro

        graphs, backend = system["graphs"], system["backend"]
        ops = []
        start = time.perf_counter()
        for i in range(self.n_ops):
            which = i % 2
            span = (
                tracer.op("op", f"b{i}") if tracer is not None
                else contextlib.nullcontext()
            )
            t0 = time.perf_counter()
            try:
                with span:
                    res = repro.two_sided_match(
                        graphs[which], ITERATIONS, seed=self.seeds[i],
                        backend=backend, engine="parallel",
                    )
            except Exception as exc:  # noqa: BLE001 - counted as failed
                ops.append({"latency": time.perf_counter() - t0, "round": rnd,
                            "error": f"{type(exc).__name__}: {exc}"})
                continue
            latency = time.perf_counter() - t0
            ops.append({
                "latency": latency,
                "round": rnd,
                "graph": which,
                "row_match": res.matching.row_match.astype(np.int32),
                "cardinality": res.cardinality,
            })
        return {"ops": ops, "latency_ops": ops,
                "throughput": len(ops) / (time.perf_counter() - start)}

    def verify(self, record):
        """Oracle checks for every solve; sets each op's ``quality``."""
        if self.keys is None:
            self.keys = [edge_keys(N, r, c) for r, c in self.coo]
            self.spranks = [sprank(N, N, k) for k in self.keys]
        for op in record["ops"]:
            if "error" in op:
                continue
            which = op["graph"]
            try:
                size = check_matching(
                    op.pop("row_match"), N, N, self.keys[which],
                    op["cardinality"], self.spranks[which],
                )
            except CheckFailed as exc:
                op["check"] = str(exc)
                continue
            op["quality"] = size / self.spranks[which]

    def health(self, system):
        return {}

    def diagnostics(self, record):
        return {}

    def describe(self):
        return {"n": N, "degree": DEGREE, "matrices": 2,
                "iterations": ITERATIONS, "backend": BACKEND,
                "ops": self.n_ops, "sprank": self.spranks}

    # -- traced run ------------------------------------------------------

    def serial_ratio(self, system):
        """Serial-backend time of the same solves over their shm:2 time."""
        import repro

        times = {"serial": 0.0, "shm": 0.0}
        for which in (0, 1):
            for label, backend in (("shm", system["backend"]),
                                   ("serial", "serial")):
                t0 = time.perf_counter()
                repro.two_sided_match(
                    system["graphs"][which], ITERATIONS,
                    seed=self.seeds[which], backend=backend,
                    engine="parallel",
                )
                times[label] += time.perf_counter() - t0
        return times["serial"] / times["shm"]

    def traced_extras(self, system):
        return {"serial_ratio": self.serial_ratio(system)}

    def layers(self, record, extras, totals):
        return {"parallel.serial_ratio": extras["serial_ratio"]}
