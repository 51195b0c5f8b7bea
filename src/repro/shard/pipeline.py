"""The sharded pipeline's one driver: scale → choice → reconcile → certify.

:func:`_drive` runs the steps of TwoSidedMatch over K shard endpoints:

1. the degradation-ladder budget, taken once on the global graph
   (:func:`~repro.scaling.sinkhorn_knopp.resolve_budget`);
2. Sinkhorn–Knopp sweeps: each shard sweeps its owned columns over its
   CSC slice against the replicated ``dr`` and reports its local max
   column-sum error; the coordinator takes the max of those errors and
   concatenates the column blocks in shard order, then does the same for
   the owned rows against the replicated ``dc``;
3. shard-local choice sampling on the registered ``choice_scaled`` kernel
   (chunk-aligned, so picks are bitwise equal to the serial kernel),
   concatenated in shard order;
4. arm every replica with the global choice vectors, then BSP
   Karp–Sipser rounds (:mod:`repro.shard.reconcile`): each shard scans
   its owned ranges, the candidates merge in shard order, every replica
   commits the same merged round;
5. finish (phase 2 + checksum, which must agree across replicas), then
   certify: every shard's owned rows' matched edges are checked against
   its own CSR slice, the merged matching is validated on the *global*
   graph, and the guarantee is the scaling rung's §3.3 floor — exactly
   as ``two_sided_match`` reports it.

An endpoint is anything with :class:`~repro.shard.session.ShardSession`'s
numpy-level steps.  :func:`shard_match` and :func:`shard_scale` drive K
in-process sessions directly;
:func:`~repro.shard.daemon_tier.shard_match_daemons` drives K router
handles, the only transport that converts to JSON.
Per line the arithmetic is the serial kernels', and every merge is a
shard-order concatenation or a max, so the result is bitwise equal to
the unsharded ``two_sided_match(engine="vectorized")`` path for every
shard count — same scaling vectors, same choices, same merged matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro import telemetry as _tm
from .._typing import NIL, FloatArray, IndexArray, SeedLike, rng_from
from ..core.karp_sipser_mt import matching_from_unified
from ..core.onesided import _rung_guarantee
from ..constants import TWO_SIDED_GUARANTEE
from ..errors import MatchingError, ShardError
from ..graph.csr import BipartiteGraph, missing_edges
from ..matching.matching import Matching
from ..scaling.result import ScalingResult
from ..scaling.sinkhorn_knopp import (
    initial_factors,
    maybe_warn_capped,
    resolve_budget,
)
from .partition import ShardPlan, ShardSlice, plan_shards
from .session import ShardSession

__all__ = [
    "ShardMatchResult",
    "shard_match",
    "shard_scale",
    "generate_draws",
    "shard_validate_rows",
]


def generate_draws(
    graph: BipartiteGraph, seed: SeedLike
) -> tuple[FloatArray | None, FloatArray | None]:
    """The serial path's choice randomness, drawn in the serial order.

    ``None`` marks an axis the serial ``_scaled_choices`` would answer
    with all-:data:`~repro._typing.NIL` *without consuming the rng* —
    replicating that early return keeps the rng stream, and therefore
    every downstream draw, identical to the unsharded run.
    """
    rng = rng_from(seed)
    draws_rows = draws_cols = None
    if graph.nnz != 0 and graph.nrows != 0:
        draws_rows = 1.0 - rng.random(graph.nrows)
    if graph.nnz != 0 and graph.ncols != 0:
        draws_cols = 1.0 - rng.random(graph.ncols)
    return draws_rows, draws_cols


def shard_validate_rows(shard: ShardSlice, match: IndexArray) -> int:
    """Matched owned rows whose matched edge is NOT in this shard's CSR
    slice — the distributed leg of the certificate.  Must be 0."""
    own = match[shard.row_lo : shard.row_hi]
    rows = np.flatnonzero(own != NIL)
    return int(
        missing_edges(
            shard.row_ptr, shard.col_ind, shard.ncols,
            rows, own[rows] - shard.nrows,
        ).sum()
    )


@dataclass(frozen=True)
class ShardMatchResult:
    """Outcome of a sharded run, mirroring ``TwoSidedResult``'s surface.

    ``tier`` names the transport (``"local"`` or ``"daemon"``) and
    ``plan`` is the partition the driver built from the graph.
    """

    matching: Matching
    scaling: ScalingResult
    row_choice: IndexArray
    col_choice: IndexArray
    n_shards: int
    rounds: int
    tier: str
    plan: ShardPlan

    @property
    def cardinality(self) -> int:
        return self.matching.cardinality

    @property
    def guarantee(self) -> float:
        """The §3.3 expected-quality floor, by the scaling's ladder rung —
        identical to the unsharded ``TwoSidedResult.guarantee``."""
        return _rung_guarantee(self.scaling, TWO_SIDED_GUARANTEE)


def _scale(
    shards: Sequence[Any],
    plan: ShardPlan,
    graph: BipartiteGraph,
    iterations: int | None,
    tolerance: float | None,
    initial: Any,
) -> ScalingResult:
    """The serial SK loop of ``scale_sinkhorn_knopp`` over K endpoints
    (``history`` is not tracked)."""
    limit, requested_limit, rung = resolve_budget(graph, iterations, tolerance)
    dr, dc, warm = initial_factors(graph, initial)

    def col_sweep_with_error() -> tuple[float, FloatArray]:
        outs = [
            ep.col_sweep(dr, dc[s.col_lo : s.col_hi])
            for ep, s in zip(shards, plan.shards)
        ]
        # np.max over the per-shard maxima propagates NaN, which the
        # non-finite fallback below relies on.  Blocks are contiguous
        # and in shard order, so concatenation is the global vector.
        return (
            float(np.max([err for _, err in outs])),
            np.concatenate([block for block, _ in outs]),
        )

    error, dc_next = col_sweep_with_error()
    done = 0
    converged = False
    for _ in range(limit):
        if tolerance is not None and error <= tolerance:
            converged = True
            break
        dc = dc_next  # commit the fused column sweep
        dr = np.concatenate([ep.row_sweep(dc) for ep in shards])
        done += 1
        error, dc_next = col_sweep_with_error()
    if tolerance is not None and error <= tolerance:
        converged = True
    if not (
        np.isfinite(error) and np.isfinite(dr).all() and np.isfinite(dc).all()
    ):
        rung = "uniform"
        dr = np.ones(graph.nrows, dtype=np.float64)
        dc = np.ones(graph.ncols, dtype=np.float64)
        converged = False
        error = float(np.max([ep.uniform_error() for ep in shards]))
    maybe_warn_capped(
        rung, converged, done, error, limit, requested_limit, tolerance
    )
    return ScalingResult(
        dr=dr,
        dc=dc,
        error=error,
        iterations=done,
        converged=converged,
        history=(),
        rung=rung,
        warm_started=warm,
    )


def _gather_choices(
    shards: Sequence[Any],
    plan: ShardPlan,
    which: str,
    opp: FloatArray,
    draws: FloatArray | None,
) -> IndexArray:
    blocks = []
    for ep, s in zip(shards, plan.shards):
        lo, hi = (
            (s.row_lo, s.row_hi) if which == "row" else (s.col_lo, s.col_hi)
        )
        blocks.append(
            ep.choices(which, opp, None if draws is None else draws[lo:hi])
        )
    return np.concatenate(blocks)


def _drive(
    shards: Sequence[Any],
    plan: ShardPlan,
    graph: BipartiteGraph,
    iterations: int | None,
    tolerance: float | None,
    initial: Any,
    seed: SeedLike,
    tier: str,
) -> ShardMatchResult:
    with _tm.span(
        "shard.match",
        tier=tier, n_shards=plan.n_shards, nrows=graph.nrows,
        ncols=graph.ncols, nnz=graph.nnz, boundary=plan.boundary_edges,
    ) as sp:
        draws_rows, draws_cols = generate_draws(graph, seed)
        scaling = _scale(shards, plan, graph, iterations, tolerance, initial)
        row_choice = _gather_choices(
            shards, plan, "row", scaling.dc, draws_rows
        )
        col_choice = _gather_choices(
            shards, plan, "col", scaling.dr, draws_cols
        )

        for ep in shards:
            ep.arm(row_choice, col_choice)
        while True:
            scans = [ep.scan() for ep in shards]
            # Rows of every shard in shard order, then columns: the
            # serial ascending scan order, since ownership ranges are
            # contiguous and sorted.
            merged = np.concatenate(
                [rows for rows, _ in scans] + [cols for _, cols in scans]
            )
            verdicts = [ep.commit(merged) for ep in shards]
            committed = verdicts[0]["committed"]
            for k, v in enumerate(verdicts):
                if v["committed"] != committed:
                    raise ShardError(
                        f"shard {k} diverged from shard 0 on commit round"
                        f" {verdicts[0]['rounds']}: replicated state is no"
                        f" longer replicated"
                    )
            if not committed:
                break

        finishes = [ep.finish() for ep in shards]
        checksums = {f["checksum"] for f in finishes}
        if len(checksums) != 1:
            raise ShardError(
                f"shards finished with diverging match checksums:"
                f" {sorted(checksums)}"
            )
        match = finishes[0]["match"]
        rounds = int(finishes[0]["rounds"])
        bad = sum(shard_validate_rows(s, match) for s in plan.shards)
        if bad:
            raise MatchingError(
                f"sharded reconcile produced {bad} matched edge(s) absent"
                f" from their owning shard's CSR slice"
            )
        matching = matching_from_unified(match, graph.nrows, graph.ncols)
        matching.validate(graph)
        sp.set(
            cardinality=matching.cardinality, rounds=rounds,
            error=scaling.error, rung=scaling.rung,
        )
    return ShardMatchResult(
        matching=matching,
        scaling=scaling,
        row_choice=row_choice,
        col_choice=col_choice,
        n_shards=plan.n_shards,
        rounds=rounds,
        tier=tier,
        plan=plan,
    )


def _local_sessions(plan: ShardPlan) -> list[ShardSession]:
    return [ShardSession(None, s) for s in plan.shards]


def shard_match(
    graph: BipartiteGraph,
    n_shards: int = 2,
    iterations: int | None = 5,
    *,
    seed: SeedLike = None,
    tolerance: float | None = None,
    initial=None,
) -> ShardMatchResult:
    """Sharded TwoSidedMatch over *n_shards* in-process shard sessions.

    Bitwise equal to the unsharded serial pipeline for any *n_shards*.
    The merged matching is validated against the global graph before it
    is returned, on top of the per-shard owned-row edge checks; the plan
    built from ``(graph, n_shards)`` comes back as ``result.plan``.
    """
    plan = plan_shards(graph, n_shards)
    return _drive(
        _local_sessions(plan), plan, graph, iterations, tolerance, initial,
        seed, "local",
    )


def shard_scale(
    graph: BipartiteGraph,
    iterations: int | None = None,
    *,
    n_shards: int = 2,
    tolerance: float | None = None,
    initial=None,
) -> ScalingResult:
    """Sharded SK over *n_shards* in-process shard sessions, bitwise equal
    to :func:`~repro.scaling.sinkhorn_knopp.scale_sinkhorn_knopp` (modulo
    ``history``, which the sharded path does not track)."""
    plan = plan_shards(graph, n_shards)
    with _tm.span(
        "shard.scale",
        n_shards=plan.n_shards, nrows=graph.nrows, ncols=graph.ncols,
    ) as sp:
        result = _scale(
            _local_sessions(plan), plan, graph, iterations, tolerance, initial
        )
        sp.set(
            iterations=result.iterations, error=result.error,
            converged=result.converged, rung=result.rung,
        )
    return result
