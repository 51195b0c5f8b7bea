"""serve — independent clients of the fault-tolerant matching endpoint.

A ``Router`` runs two socket daemons (one per core, serial backend).
Each request is a ``match`` with the default method and a fresh seed,
shipping its graph inline as COO, drawn Zipf(1.1) from a pool of 96
Erdős–Rényi graphs (degree 4, n on a log-uniform grid over [1000,
4000]) — so some requests hit the daemons' 32-entry graph caches and
some miss.

The timed phase is three rounds, each on a freshly started and warmed
``Router``, and each a latency block then a capacity block:

* latency block: open loop at a fixed 10 req/s from two sender threads,
  each request timed from when it was due to be sent;
* capacity block: closed loop with two requests outstanding.

Compute is a minority of a request's cost; framing, JSON, the ring and
cache keys, admission and the resilient wrapper make up the rest.
"""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np

from common import (
    CheckFailed,
    check_matching,
    edge_keys,
    er_coo,
    op_count,
    sprank,
)
from workloads.daemons import RouterSystem, call

GRAPHS = 96
N_MIN, N_MAX = 1000, 4000
DEGREE = 4.0
ZIPF = 1.1
#: Fixes which graph sizes are popular (part of the workload, not the seed).
POPULARITY_SEED = 2014
#: Open-loop rate: under half of the two daemons' capacity on a 2-vCPU
#: host even in its slow spells (35-60 req/s, 23 at worst), so a 2x
#: slower host still keeps up instead of building a backlog.
OPEN_RATE = 10.0
SENDERS = 2
WARMUP = 48
#: Rounds of the timed phase.  Alternating the two blocks spreads both
#: over the whole run.
ROUNDS = 3
#: Requests per second of ``--seconds``, per block (50 and 120 per round
#: at 20 s: 5 s of open loop and about 2.5 s of closed loop per round,
#: tail = p80).
LATENCY_RATE = 7.5
CAPACITY_RATE = 18.0


class Serve(RouterSystem):
    name = "serve"
    rounds = ROUNDS

    def prepare(self, seed, seconds):
        rng = np.random.default_rng([seed, 2])
        # Sizes sit on a log-uniform grid and their popularity ranks are
        # fixed, and each phase sends every graph a fixed number of
        # times: the seed moves the edges, the order and the solver
        # seeds, not the request mix (one seed making the most popular
        # graph a 4000-vertex one would otherwise shift p50 by itself).
        sizes = np.exp(np.linspace(np.log(N_MIN), np.log(N_MAX), GRAPHS))
        self.graphs = []
        self.keys = []
        for n in sizes.round().astype(int).tolist():
            rows, cols = er_coo(rng, n, DEGREE)
            self.keys.append(edge_keys(n, rows, cols))
            self.graphs.append({"nrows": n, "ncols": n,
                                "rows": rows.tolist(), "cols": cols.tolist()})
        ranks = np.random.default_rng(POPULARITY_SEED).permutation(GRAPHS) + 1
        weights = ranks ** -ZIPF
        weights /= weights.sum()
        self.n_latency = op_count(LATENCY_RATE, seconds / ROUNDS)
        self.n_capacity = op_count(CAPACITY_RATE, seconds / ROUNDS)
        picks = np.concatenate([
            rng.permutation(_fixed_counts(weights, count))
            for count in [WARMUP] + ROUNDS * [self.n_latency, self.n_capacity]
        ])
        seeds = rng.integers(0, 2**31 - 1, picks.size)
        self.requests = [
            (int(g), {"op": "match", "graph": self.graphs[g], "seed": int(s)})
            for g, s in zip(picks, seeds)
        ]
        self.spranks = None

    def _msg(self, i, tag):
        graph, msg = self.requests[i]
        return graph, dict(msg, rid=f"{tag}{i}")

    def setup(self, work_dir, tracer=None):
        router = self.start_router(work_dir)
        try:
            for i in range(WARMUP):
                router.request(self._msg(i, "w")[1])
        except BaseException:
            router.stop()
            raise
        return router

    def timed(self, router, rnd, tracer=None):
        """Round *rnd*: its latency block, then its capacity block."""
        first = WARMUP + rnd * (self.n_latency + self.n_capacity)
        latency = self._open_loop(router, first, self.n_latency, tracer)
        capacity, elapsed = self._closed_loop(
            router, first + self.n_latency, self.n_capacity, tracer
        )
        for op in latency + capacity:
            op["round"] = rnd
        return {"latency_ops": latency, "ops": latency + capacity,
                "throughput": len(capacity) / elapsed}

    def _one(self, router, i, tracer, due):
        graph, msg = self._msg(i, "t")
        span = (
            tracer.op("op", msg["rid"]) if tracer is not None
            else contextlib.nullcontext()
        )
        sent = time.perf_counter()
        with span:
            response, error = call(router, msg)
        done = time.perf_counter()
        op = {"latency": done - (sent if due is None else due),
              "graph": graph}
        if due is not None:
            op["lateness"] = sent - due
        if error is not None:
            op["error"] = error
        else:
            op["row_match"] = response["row_match"]
            op["cardinality"] = response["cardinality"]
            op["rung"] = response["rung"]
            op["queue_wait"] = response["queue_wait"]
        return op

    def _open_loop(self, router, first, count, tracer):
        ops = [None] * count
        start = time.perf_counter() + 0.05

        def sender(k):
            for j in range(k, count, SENDERS):
                due = start + j / OPEN_RATE
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                ops[j] = self._one(router, first + j, tracer, due)

        _run_threads(sender)
        return ops

    def _closed_loop(self, router, first, count, tracer):
        ops = [None] * count

        def client(k):
            for j in range(k, count, SENDERS):
                ops[j] = self._one(router, first + j, tracer, None)

        start = time.perf_counter()
        _run_threads(client)
        return ops, time.perf_counter() - start

    def verify(self, record):
        if self.spranks is None:
            self.spranks = [
                sprank(g["nrows"], g["ncols"], k)
                for g, k in zip(self.graphs, self.keys)
            ]
        for op in record["ops"]:
            if "error" in op:
                continue
            g = op["graph"]
            n = self.graphs[g]["nrows"]
            try:
                size = check_matching(
                    op.pop("row_match"), n, n, self.keys[g],
                    op["cardinality"], self.spranks[g],
                )
            except CheckFailed as exc:
                op["check"] = str(exc)
                continue
            op["quality"] = size / self.spranks[g]

    def describe(self):
        sizes = [g["nrows"] for g in self.graphs]
        return {"graphs": GRAPHS, "n_range": [min(sizes), max(sizes)],
                "zipf": ZIPF, "open_rate_rps": OPEN_RATE, "rounds": ROUNDS,
                "latency_ops_per_round": self.n_latency,
                "capacity_ops_per_round": self.n_capacity, "warmup": WARMUP}

    def diagnostics(self, record):
        lateness = 1e3 * np.asarray(
            [op["lateness"] for op in record["latency_ops"]]
        )
        rungs = {}
        for op in record["ops"]:
            if "rung" in op:
                rungs[op["rung"]] = rungs.get(op["rung"], 0) + 1
        return {"open_loop_lateness_ms": {
                    "p50": round(float(np.median(lateness)), 3),
                    "max": round(float(lateness.max()), 3)},
                "rungs": rungs}

    def layers(self, record, extras, totals):
        waits = [op["queue_wait"] for op in record["ops"] if "queue_wait" in op]
        return {
            "serve.server.queue_wait_ms":
                1e3 * float(np.mean(waits)) if waits else 0.0,
            **self.router_layers(extras, totals),
        }


def _fixed_counts(weights, total):
    """Graph indices repeated ``round(total * weight)`` times, summing to
    *total* (largest remainders get the leftover requests)."""
    exact = weights * total
    counts = np.floor(exact).astype(int)
    short = total - counts.sum()
    counts[np.argsort(counts - exact)[:short]] += 1
    return np.repeat(np.arange(weights.size), counts)


def _run_threads(target):
    threads = [threading.Thread(target=target, args=(k,), daemon=True)
               for k in range(SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
        if t.is_alive():
            raise RuntimeError("a load thread did not finish")
