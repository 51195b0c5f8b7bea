"""stream — a session owner keeping a matching current under churn.

The same two-daemon ``Router`` as serve.  One ``stream_open`` with
n = 50,000: two random permutations plus 6n uniform edges,
``target_quality`` 0.60.  Each op is an ``update`` that removes 0.1% of
the edges that exist and adds as many that do not, then a ``rematch``
with ``expect_epoch`` taken from the update's ack; closed loop.  Every
update and rematch is journaled and fsynced, and a checkpoint lands
every 64 journal records (32 ops).

The timed phase is three rounds, each on a freshly started ``Router``
with a freshly opened session, replaying the same edit sequence: the
rounds are alike, so the median over rounds can leave one out.  The
edit sequence is generated from the seed before timing.  Removals are
drawn from edges outside the first permutation, so every epoch keeps a
perfect matching: sprank is n at every epoch (checked with scipy on the
final graph) and ``quality`` is ``|M| / n``.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from common import CheckFailed, check_matching, edge_keys, sprank
from workloads.daemons import RouterSystem, call

N = 50_000
UNIFORM = 6
CHURN = 0.001
TARGET_QUALITY = 0.60
WARMUP_OPS = 4
ROUNDS = 3
#: Ops between two checkpoints.  A round is a whole number of these, so
#: every round pays for the same number of checkpoints.
CHECKPOINT_OPS = 32
#: Ops (update + rematch pairs) per second of ``--seconds`` (64 per
#: round at 20 s, tail = p84; on a 2-vCPU Xeon host an op takes about
#: 60 ms and a checkpoint about 1 s, so a round takes about 6 s).
RATE = 10.0


class Stream(RouterSystem):
    name = "stream"
    rounds = ROUNDS

    def prepare(self, seed, seconds):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        perm = rng.permutation(N)
        rows = np.concatenate(
            [np.arange(N), np.arange(N), rng.integers(0, N, UNIFORM * N)]
        )
        cols = np.concatenate(
            [perm, rng.permutation(N), rng.integers(0, N, UNIFORM * N)]
        )
        keys = edge_keys(N, rows, cols)
        self.nnz = int(keys.size)
        self.spec = {"nrows": N, "ncols": N,
                     "rows": rows.tolist(), "cols": cols.tolist()}
        protected = np.arange(N, dtype=np.int64) * N + perm
        pool = np.setdiff1d(keys, protected, assume_unique=True)
        present = set(keys.tolist())
        k = int(round(CHURN * self.nnz))
        self.per_round = CHECKPOINT_OPS * max(
            1, round(RATE * seconds / (ROUNDS * CHECKPOINT_OPS))
        )
        self.edits = []
        for _ in range(WARMUP_OPS + self.per_round):
            pos = rng.choice(pool.size, k, replace=False)
            removed = pool[pos]
            added = []
            seen = set()
            while len(added) < k:
                for key in rng.integers(0, N * N, 2 * k).tolist():
                    if key not in present and key not in seen:
                        seen.add(key)
                        added.append(key)
                        if len(added) == k:
                            break
            added = np.asarray(added, dtype=np.int64)
            present.difference_update(removed.tolist())
            present.update(added.tolist())
            pool[pos] = added
            self.edits.append({
                "remove": {"rows": (removed // N).tolist(),
                           "cols": (removed % N).tolist()},
                "add": {"rows": (added // N).tolist(),
                        "cols": (added % N).tolist()},
            })
        self.k = k
        self.final_keys = np.sort(np.fromiter(present, np.int64, len(present)))
        self.final_sprank = None

    def setup(self, work_dir, tracer=None):
        router = self.start_router(work_dir)
        try:
            self._open(router)
        except BaseException:
            router.stop()
            raise
        return router

    def _open(self, router):
        ack = router.request({"op": "stream_open", "graph": self.spec,
                              "target_quality": TARGET_QUALITY,
                              "seed": self.seed, "rid": "open"})
        if ack["nnz"] != self.nnz:
            raise CheckFailed(f"stream_open built nnz {ack['nnz']},"
                              f" input has {self.nnz}")
        self.handle = ack["handle"]
        first = router.request({"op": "rematch", "handle": self.handle,
                                "expect_epoch": ack["epoch"], "rid": "r0"})
        self.epoch = first["epoch"]
        for i in range(WARMUP_OPS):
            op = self._pair(router, i, "w")
            if "error" in op:
                raise RuntimeError(f"warm-up op failed: {op['error']}")

    def _pair(self, router, i, tag):
        """One update + rematch; returns the op record."""
        edit = self.edits[i]
        op = {}
        up, error = call(router, {"op": "update", "handle": self.handle,
                                  "rid": f"{tag}u{i}", **edit})
        if error is None:
            if up["removed"] != self.k or up["added"] != self.k:
                error = (f"update {i} removed {up['removed']} / added"
                         f" {up['added']}, sent {self.k} each")
            else:
                self.epoch = up["epoch"]
                rm, error = call(router, {
                    "op": "rematch", "handle": self.handle,
                    "expect_epoch": self.epoch, "rid": f"{tag}r{i}"})
                if error is None:
                    op["cardinality"] = rm["cardinality"]
                    op["repaired_frac"] = rm["repaired_rows"] / N
        if error is not None:
            op["error"] = error
        return op

    def timed(self, router, rnd, tracer=None):
        """Round *rnd*: the edit sequence on this round's fresh session."""
        ops = []
        start = time.perf_counter()
        for i in range(WARMUP_OPS, WARMUP_OPS + self.per_round):
            span = (
                tracer.op("op", f"p{i}") if tracer is not None
                else contextlib.nullcontext()
            )
            t0 = time.perf_counter()
            with span:
                op = self._pair(router, i, "t")
            op["latency"] = time.perf_counter() - t0
            op["round"] = rnd
            ops.append(op)
        out = {"ops": ops, "latency_ops": ops,
               "throughput": self.per_round / (time.perf_counter() - start)}
        # The final matching, fetched once and checked by verify().
        final, error = call(router, {
            "op": "rematch", "handle": self.handle,
            "expect_epoch": self.epoch, "include_matching": True,
            "rid": "final"})
        out["final"] = final if error is None else {"error": error}
        return out

    def verify(self, record):
        if self.final_sprank is None:
            self.final_sprank = sprank(N, N, self.final_keys)
        if self.final_sprank != N:
            raise CheckFailed(f"final graph has sprank {self.final_sprank},"
                              f" the edit sequence should keep it at {N}")
        for op in record["ops"]:
            if "error" not in op:
                op["quality"] = op["cardinality"] / N
        final = record["final"]
        if "error" in final:
            record["check"] = f"final rematch failed: {final['error']}"
            return
        try:
            check_matching(final["row_match"], N, N, self.final_keys,
                           final["cardinality"], N)
        except CheckFailed as exc:
            record["check"] = f"final matching: {exc}"

    def describe(self):
        return {"n": N, "nnz": self.nnz, "edits_per_op": 2 * self.k,
                "target_quality": TARGET_QUALITY, "rounds": ROUNDS,
                "ops_per_round": self.per_round, "warmup_ops": WARMUP_OPS}

    def diagnostics(self, record):
        return {}

    def layers(self, record, extras, totals):
        fracs = [op["repaired_frac"] for op in record["ops"]
                 if "repaired_frac" in op]
        return {
            "stream.matcher.repaired_frac":
                float(np.mean(fracs)) if fracs else 0.0,
            **self.router_layers(extras, totals),
        }
