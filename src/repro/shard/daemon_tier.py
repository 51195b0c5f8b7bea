"""Daemon transport: the sharded driver over one journaled daemon per shard.

:func:`shard_match_daemons` runs the one driver of
:mod:`repro.shard.pipeline` over K :class:`_RemoteShard` endpoints.  Each
opens a :class:`~repro.shard.session.ShardSession` inside a serving
daemon behind the :class:`~repro.serve.router.Router` and forwards every
driver step as a ``shard_*`` verb.  This is the only transport that
converts to JSON: vectors go out as lists and come back as arrays.

Why the result is bitwise equal to the in-process transport (and
therefore to the serial pipeline):

* the daemons run the *same* :class:`~repro.shard.session.ShardSession`
  steps the in-process transport calls directly;
* JSON float round-trips are exact (shortest-repr), so vectors shipped
  over the wire come back bit for bit.

Crash safety: ``shard_open`` / ``shard_arm`` / ``shard_commit`` /
``shard_finish`` are write-ahead journaled; ``shard_sweep`` /
``shard_choices`` / ``shard_scan`` are pure.  A shard daemon SIGKILLed
mid-round is revived by the router through ``--recover`` (journal replay
rebuilds the armed state and every committed round), and the in-flight
request retries under its original idempotency id — so the merged
matching equals the uninterrupted run's, or the failure surfaces as a
typed error.  Never a silently sub-quality matching.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .._typing import FloatArray, IndexArray, SeedLike
from ..errors import ShardError
from ..graph.csr import BipartiteGraph
from .partition import ShardPlan, plan_shards
from .pipeline import ShardMatchResult, _drive

__all__ = ["shard_match_daemons"]


class _RemoteShard:
    """One shard session in a daemon, with the session's numpy steps.

    The session opens on the first step, after the driver has checked
    its arguments, so a rejected call opens (and journals) nothing.
    """

    def __init__(self, router: Any, plan: ShardPlan, index: int, spec: Any):
        self.router = router
        self.plan = plan
        self.index = index
        self.spec = spec
        self.handle: str | None = None

    def _open(self) -> str:
        plan = self.plan
        response = self.router.request(
            {
                "op": "shard_open",
                "graph": self.spec,
                "n_shards": plan.n_shards,
                "index": self.index,
                "chunk_rows": plan.chunk_rows,
                "chunk_cols": plan.chunk_cols,
            }
        )
        s = plan.shards[self.index]
        if (
            response["frontier"] != s.frontier_size
            or response["csr_nnz"] != s.csr_nnz
        ):
            raise ShardError(
                f"shard {self.index} daemon built a different slice than"
                f" the coordinator's plan: {response}"
            )
        return response["handle"]

    def _call(self, op: str, **fields: Any) -> dict[str, Any]:
        if self.handle is None:
            self.handle = self._open()
        return self.router.request(
            {"op": op, "handle": self.handle, **fields}
        )

    def col_sweep(
        self, dr_full: FloatArray, dc_own: FloatArray
    ) -> tuple[FloatArray, float]:
        r = self._call(
            "shard_sweep", which="col", dr=dr_full.tolist(), dc=dc_own.tolist()
        )
        return np.asarray(r["dc_next"], dtype=np.float64), r["err"]

    def row_sweep(self, dc_full: FloatArray) -> FloatArray:
        r = self._call("shard_sweep", which="row", dc=dc_full.tolist())
        return np.asarray(r["dr"], dtype=np.float64)

    def uniform_error(self) -> float:
        return self._call("shard_sweep", which="uniform")["err"]

    def choices(
        self, which: str, opp: FloatArray, draws: FloatArray | None
    ) -> IndexArray:
        r = self._call(
            "shard_choices", which=which, opp=opp.tolist(),
            draws=None if draws is None else draws.tolist(),
        )
        return np.asarray(r["choice"], dtype=np.int64)

    def scan(self) -> tuple[IndexArray, IndexArray]:
        r = self._call("shard_scan")
        return (
            np.asarray(r["rows"], dtype=np.int64),
            np.asarray(r["cols"], dtype=np.int64),
        )

    def arm(
        self, row_choice: IndexArray, col_choice: IndexArray
    ) -> dict[str, Any]:
        return self._call(
            "shard_arm",
            row_choice=row_choice.tolist(), col_choice=col_choice.tolist(),
        )

    def commit(self, candidates: IndexArray) -> dict[str, Any]:
        return self._call("shard_commit", candidates=candidates.tolist())

    def finish(self) -> dict[str, Any]:
        r = self._call("shard_finish")
        return {**r, "match": np.asarray(r["match"], dtype=np.int64)}

    def close(self) -> None:
        if self.handle is not None:
            self._call("shard_close")


def shard_match_daemons(
    spec: Any,
    n_shards: int = 2,
    iterations: int | None = 5,
    *,
    router: Any,
    seed: SeedLike = None,
    tolerance: float | None = None,
    graph: BipartiteGraph | None = None,
) -> ShardMatchResult:
    """Sharded TwoSidedMatch over *router*'s daemon fleet.

    *spec* is a daemon graph spec (see :func:`repro.serve.daemon.build_graph`)
    so every shard daemon can materialize the same graph independently;
    the coordinator builds it too (pass *graph* to reuse an existing
    build) for the plan, the draws, and the final global certificate.
    """
    from ..serve.daemon import build_graph

    if graph is None:
        graph = build_graph(spec, None)
    plan = plan_shards(graph, n_shards)
    shards = [
        _RemoteShard(router, plan, k, spec) for k in range(plan.n_shards)
    ]
    try:
        return _drive(
            shards, plan, graph, iterations, tolerance, None, seed, "daemon"
        )
    finally:
        for shard in shards:
            shard.close()
