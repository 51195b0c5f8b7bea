"""2-D sharded Sinkhorn–Knopp: row *and* column ownership per shard.

The allreduce pattern of distributed-memory scaling, in two dimensions
and on the serial kernels: each shard owns a contiguous row range and a
contiguous column range (:class:`~repro.shard.partition.ShardSlice`) and
runs the registered ``sk_sweep``/``sk_sweep_err`` kernels over the line
layouts of its *rebased* CSC/CSR slices against replicated opposite-side
vectors.  Per column (and per row) the arithmetic is then literally the
serial kernel's — the same left-to-right fold over the same ascending
neighbours, the same reciprocal — so the gathered global vectors are
bitwise equal to :func:`repro.scaling.sinkhorn_knopp.scale_sinkhorn_knopp`
for every shard count, and the convergence error (a max, which is
association-free) matches exactly as well.

Communication per sweep: one ``allreduce(max)`` for the error and one
``allgather`` per updated vector — the Amestoy–Duff–Ruiz–Uçar pattern the
paper's §2.2 cites, with column ownership added.

The per-shard kernel steps live in :class:`ShardScaleLocal`, which both
execution tiers (the in-process :mod:`repro.parallel.mpi_sim` coroutines
here and the daemon tier in :mod:`repro.shard.daemon_tier`) call — the
tiers can only differ in transport, not arithmetic.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import telemetry as _tm
from .._typing import FloatArray
from ..errors import ConvergenceWarning, ScalingError
from ..graph.csr import BipartiteGraph, line_layout
from ..parallel.kernels import run_kernel
from ..parallel.mpi_sim import SimComm, run_ranks
from ..scaling.result import ScalingResult
from ..scaling.sinkhorn_knopp import _lacks_total_support, initial_factors
from .partition import ShardPlan, ShardSlice, plan_shards

__all__ = [
    "ShardScaleLocal",
    "resolve_budget",
    "shard_scale",
    "maybe_warn_capped",
]


class ShardScaleLocal:
    """One shard's kernel-level SK steps, shared by both execution tiers.

    The line layouts of the shard's rebased slices are built once, here.
    """

    def __init__(self, shard: ShardSlice) -> None:
        self.shard = shard
        self.cols = line_layout(shard.col_ptr, shard.row_ind)._asdict()
        self.rows = line_layout(shard.row_ptr, shard.col_ind)._asdict()

    def col_sweep(
        self, dr_full: FloatArray, dc_own: FloatArray
    ) -> tuple[FloatArray, float]:
        """The shard-local piece of the serial fused column pass: the next
        owned-column factors and the local max column-sum error of the
        *current* ``(dr, dc)``.  Row ids in the CSC slice are global, so
        ``dr_full`` is the whole replicated vector; ``dc_own`` is this
        shard's block."""
        s = self.shard
        n_local = s.n_local_cols
        dc_next = np.empty(n_local, dtype=np.float64)
        errs = run_kernel(
            "sk_sweep_err", n_local,
            {**self.cols, "opp": dr_full, "mine": dc_own, "out": dc_next},
        )
        # np.max propagates NaN, which the non-finite fallback relies on
        # (mirrors the serial loop).
        return dc_next, (float(np.max(errs)) if errs else 0.0)

    def row_sweep(self, dc_full: FloatArray) -> FloatArray:
        """Next owned-row factors for the committed global ``dc``."""
        s = self.shard
        n_local = s.n_local_rows
        dr_own = np.empty(n_local, dtype=np.float64)
        run_kernel(
            "sk_sweep", n_local, {**self.rows, "opp": dc_full, "out": dr_own}
        )
        return dr_own

    def uniform_col_error(self) -> float:
        """Owned-column piece of ``column_sum_error(graph, ones, ones)`` —
        what the serial non-finite fallback reports.  A column of degree
        ``d`` sums ``d`` ones exactly, so ``|float(d) - 1|`` reproduces the
        serial ``segment_sums`` result bit for bit."""
        deg = np.diff(self.shard.col_ptr)
        nonempty = deg > 0
        if not nonempty.any():
            return 0.0
        return float(np.abs(deg[nonempty].astype(np.float64) - 1.0).max())


def resolve_budget(
    graph: BipartiteGraph,
    iterations: int | None,
    tolerance: float | None,
    *,
    max_iterations: int = 1000,
    degradation: bool = True,
    capped_iterations: int = 25,
    support_check_cutoff: int = 10_000,
) -> tuple[int, int, str]:
    """``(limit, requested_limit, rung)`` — the serial ladder decision,
    taken once on the global graph so every shard runs the same budget."""
    if iterations is not None and tolerance is not None:
        raise ScalingError("pass either iterations or tolerance, not both")
    if iterations is None and tolerance is None:
        iterations = 10  # the paper's default working budget
    if iterations is not None and iterations < 0:
        raise ScalingError(f"iterations must be >= 0, got {iterations}")
    if tolerance is not None and tolerance <= 0:
        raise ScalingError(f"tolerance must be positive, got {tolerance}")
    limit = iterations if iterations is not None else max_iterations
    requested_limit = limit
    rung = "full"
    if degradation:
        if graph.nnz == 0:
            rung, limit = "uniform", 0
        elif _lacks_total_support(
            graph,
            support_check_cutoff if limit > capped_iterations else 0,
        ):
            rung = "capped"
            limit = min(limit, capped_iterations)
    return limit, requested_limit, rung


def maybe_warn_capped(
    rung: str,
    converged: bool,
    done: int,
    error: float,
    limit: int,
    requested_limit: int,
    tolerance: float | None,
) -> None:
    """Emit the serial path's :class:`ConvergenceWarning` under the same
    condition and with the same message."""
    if rung == "capped" and not converged and (
        limit < requested_limit or tolerance is not None
    ):
        warnings.warn(
            ConvergenceWarning(
                f"matrix lacks total support; Sinkhorn-Knopp stopped "
                f"on the '{rung}' rung after {done} iteration(s) with "
                f"column-sum error {error:.6g}",
                achieved_error=error,
                rung=rung,
            ),
            stacklevel=3,
        )


def sk_rounds(
    comm: SimComm,
    local: ShardScaleLocal,
    dr: FloatArray,
    dc: FloatArray,
    limit: int,
    tolerance: float | None,
):
    """The serial SK loop as a collective program (a ``yield from``-able
    subgenerator for :mod:`repro.parallel.mpi_sim` rank coroutines).

    Returns ``(dr, dc, error, done, converged, fell_back)`` with ``dr``
    and ``dc`` full replicated vectors, bitwise equal on every rank to the
    serial loop's state.  ``fell_back`` reports the non-finite uniform
    fallback (the caller demotes the rung)."""
    s = local.shard

    def col_sweep_with_error():
        block, local_err = local.col_sweep(dr, dc[s.col_lo : s.col_hi])
        error = yield from comm.allreduce(local_err, op="max")
        blocks = yield from comm.allgather(block)
        # Contiguous rank-ordered blocks concatenate to the global vector
        # — pure data movement, no arithmetic to reassociate.
        return error, np.concatenate(blocks)

    error, dc_next = yield from col_sweep_with_error()
    done = 0
    converged = False
    for _ in range(limit):
        if tolerance is not None and error <= tolerance:
            converged = True
            break
        dc, dc_next = dc_next, dc  # commit the fused column sweep
        dr_blocks = yield from comm.allgather(local.row_sweep(dc))
        dr = np.concatenate(dr_blocks)
        done += 1
        error, dc_next = yield from col_sweep_with_error()
    if tolerance is not None and error <= tolerance:
        converged = True
    fell_back = False
    if not (
        np.isfinite(error)
        and np.isfinite(dr).all()
        and np.isfinite(dc).all()
    ):
        # The replicated state is identical on every rank, so every rank
        # takes this branch together — no collective divergence.
        fell_back = True
        dr = np.ones(s.nrows, dtype=np.float64)
        dc = np.ones(s.ncols, dtype=np.float64)
        converged = False
        error = yield from comm.allreduce(local.uniform_col_error(), op="max")
    return dr, dc, error, done, converged, fell_back


def _scale_program(comm: SimComm, arg):
    shard, dr0, dc0, limit, tolerance = arg
    out = yield from sk_rounds(
        comm, ShardScaleLocal(shard), dr0, dc0, limit, tolerance
    )
    return out


def shard_scale(
    graph: BipartiteGraph,
    iterations: int | None = None,
    *,
    n_shards: int = 2,
    tolerance: float | None = None,
    max_iterations: int = 1000,
    initial=None,
    degradation: bool = True,
    capped_iterations: int = 25,
    support_check_cutoff: int = 10_000,
    plan: ShardPlan | None = None,
) -> ScalingResult:
    """Sharded SK on the in-process fabric, bitwise equal to
    :func:`~repro.scaling.sinkhorn_knopp.scale_sinkhorn_knopp` (modulo
    ``history``, which the sharded path does not track)."""
    if plan is None:
        plan = plan_shards(graph, n_shards)
    limit, requested_limit, rung = resolve_budget(
        graph,
        iterations,
        tolerance,
        max_iterations=max_iterations,
        degradation=degradation,
        capped_iterations=capped_iterations,
        support_check_cutoff=support_check_cutoff,
    )
    dr0, dc0, warm = initial_factors(graph, initial)
    with _tm.span(
        "shard.scale",
        n_shards=plan.n_shards, nrows=graph.nrows, ncols=graph.ncols,
    ) as sp:
        results = run_ranks(
            _scale_program,
            [(s, dr0.copy(), dc0.copy(), limit, tolerance) for s in plan.shards],
        )
        dr, dc, error, done, converged, fell_back = results[0]
        if fell_back:
            rung = "uniform"
        maybe_warn_capped(
            rung, converged, done, error, limit, requested_limit, tolerance
        )
        sp.set(iterations=done, error=error, converged=converged, rung=rung)
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
