"""Deterministic range partitioning of a bipartite graph into shards.

A :class:`ShardPlan` splits the row and column axes into ``K`` contiguous
ranges and gives each shard rebased CSR/CSC slices of its owned rows and
columns (indices into the *opposite* axis stay global), plus an explicit
frontier of boundary edges — edges whose row owner and column owner are
different shards.

Two properties make the plan more than a bookkeeping split:

* **Chunk alignment.**  Partition bounds are snapped to the choice
  kernel's chunk grid (:func:`repro.parallel.kernels.effective_chunk`).
  The choice kernel's tie-breaking cumsum is chunk-local, so a kernel
  run on a rebased slice whose bounds sit on global chunk boundaries
  reproduces the serial picks bit for bit.  The SK sweep kernels fold
  each line on its own and need no alignment, but share the same bounds.
* **Determinism.**  The plan is a pure function of ``(nrows, ncols,
  row_ptr, col_ptr, K)`` and the active chunk override — never of worker
  count, backend, or transport — so a coordinator and shard daemons that
  build their slices separately agree on ownership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ShardError
from ..parallel.kernels import effective_chunk
from .._typing import IndexArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.csr import BipartiteGraph

__all__ = [
    "ShardSlice",
    "ShardPlan",
    "plan_shards",
    "shard_slice",
    "plan_for_budget",
]


@dataclass(frozen=True)
class ShardSlice:
    """One shard's owned ranges plus rebased CSR/CSC slices.

    ``row_ptr``/``col_ind`` describe the owned rows (pointers rebased to
    start at 0, column ids global); ``col_ptr``/``row_ind`` mirror that
    for the owned columns.  ``frontier_rows``/``frontier_cols`` list the
    boundary edges *leaving* this shard through a foreign column, one
    entry per edge, in CSR order.
    """

    index: int
    n_shards: int
    nrows: int
    ncols: int
    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int
    chunk_rows: int
    chunk_cols: int
    row_ptr: IndexArray
    col_ind: IndexArray
    col_ptr: IndexArray
    row_ind: IndexArray
    frontier_rows: IndexArray
    frontier_cols: IndexArray

    @property
    def n_local_rows(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def n_local_cols(self) -> int:
        return self.col_hi - self.col_lo

    @property
    def csr_nnz(self) -> int:
        return int(self.row_ptr[-1])

    @property
    def csc_nnz(self) -> int:
        return int(self.col_ptr[-1])

    @property
    def held_nnz(self) -> int:
        """Edge entries this shard materializes (CSR + CSC slices)."""
        return self.csr_nnz + self.csc_nnz

    @property
    def frontier_size(self) -> int:
        return int(self.frontier_rows.shape[0])


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic K-way partition of one graph's row/column axes."""

    nrows: int
    ncols: int
    nnz: int
    n_shards: int
    row_bounds: tuple[int, ...]
    col_bounds: tuple[int, ...]
    chunk_rows: int
    chunk_cols: int
    shards: tuple[ShardSlice, ...]

    @property
    def boundary_edges(self) -> int:
        """Total edges whose row owner and column owner differ."""
        return sum(s.frontier_size for s in self.shards)

    @property
    def max_held_nnz(self) -> int:
        """The largest per-shard materialized edge count — the quantity a
        per-shard memory budget constrains."""
        return max(s.held_nnz for s in self.shards)

    def owner_of_row(self, i: int) -> int:
        return _owner(self.row_bounds, i, self.nrows, "row")

    def owner_of_col(self, j: int) -> int:
        return _owner(self.col_bounds, j, self.ncols, "column")


def _owner(bounds: tuple[int, ...], idx: int, n: int, axis: str) -> int:
    if not 0 <= idx < n:
        raise ShardError(f"{axis} id {idx} out of range for axis of size {n}")
    return int(np.searchsorted(np.asarray(bounds), idx, side="right")) - 1


def _aligned_bounds(n: int, parts: int, chunk: int) -> tuple[int, ...]:
    """``parts + 1`` non-decreasing bounds over ``[0, n]``, every interior
    bound a multiple of *chunk* — i.e. ranges are unions of whole kernel
    chunks (the last global chunk may be a tail shorter than *chunk*)."""
    if n <= 0:
        return tuple([0] * (parts + 1))
    n_chunks = -(-n // chunk)
    bounds = [min(round(i * n_chunks / parts) * chunk, n) for i in range(parts + 1)]
    bounds[0] = 0
    bounds[parts] = n
    for i in range(1, parts + 1):  # monotonic even under rounding ties
        bounds[i] = max(bounds[i], bounds[i - 1])
    return tuple(bounds)


def _make_slice(
    graph: "BipartiteGraph",
    row_bounds: tuple[int, ...],
    col_bounds: tuple[int, ...],
    k: int,
    n_shards: int,
    chunk_rows: int,
    chunk_cols: int,
) -> ShardSlice:
    rlo, rhi = row_bounds[k], row_bounds[k + 1]
    clo, chi = col_bounds[k], col_bounds[k + 1]
    row_ptr = graph.row_ptr[rlo : rhi + 1] - graph.row_ptr[rlo]
    col_ind = graph.col_ind[graph.row_ptr[rlo] : graph.row_ptr[rhi]]
    col_ptr = graph.col_ptr[clo : chi + 1] - graph.col_ptr[clo]
    row_ind = graph.row_ind[graph.col_ptr[clo] : graph.col_ptr[chi]]
    # Boundary frontier: owned-row edges whose column lives elsewhere.
    col_owner = np.searchsorted(np.asarray(col_bounds), col_ind, side="right") - 1
    crossing = np.flatnonzero(col_owner != k)
    frontier_cols = col_ind[crossing]
    frontier_rows = (
        rlo
        + np.searchsorted(row_ptr, crossing, side="right").astype(np.int64)
        - 1
    )
    return ShardSlice(
        index=k,
        n_shards=n_shards,
        nrows=graph.nrows,
        ncols=graph.ncols,
        row_lo=rlo,
        row_hi=rhi,
        col_lo=clo,
        col_hi=chi,
        chunk_rows=chunk_rows,
        chunk_cols=chunk_cols,
        row_ptr=np.ascontiguousarray(row_ptr),
        col_ind=np.ascontiguousarray(col_ind),
        col_ptr=np.ascontiguousarray(col_ptr),
        row_ind=np.ascontiguousarray(row_ind),
        frontier_rows=np.ascontiguousarray(frontier_rows),
        frontier_cols=np.ascontiguousarray(frontier_cols),
    )


def _resolve_chunks(
    graph: "BipartiteGraph",
    n_shards: int,
    chunk_rows: int | None,
    chunk_cols: int | None,
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    if n_shards < 1:
        raise ShardError(f"n_shards must be >= 1, got {n_shards}")
    if chunk_rows is None:
        chunk_rows = effective_chunk(graph.nrows, "choice_scaled")
    if chunk_cols is None:
        chunk_cols = effective_chunk(graph.ncols, "choice_scaled")
    if chunk_rows < 1 or chunk_cols < 1:
        raise ShardError(
            f"chunk sizes must be >= 1, got {chunk_rows} and {chunk_cols}"
        )
    row_bounds = _aligned_bounds(graph.nrows, n_shards, chunk_rows)
    col_bounds = _aligned_bounds(graph.ncols, n_shards, chunk_cols)
    return int(chunk_rows), int(chunk_cols), row_bounds, col_bounds


def shard_slice(
    graph: "BipartiteGraph",
    n_shards: int,
    index: int,
    *,
    chunk_rows: int | None = None,
    chunk_cols: int | None = None,
) -> ShardSlice:
    """Build just shard *index* of the K-way plan — what a shard daemon
    materializes, without holding the other K-1 slices.  Passing explicit
    chunk sizes (the coordinator's) pins the bounds even if this process
    has a different chunk override active."""
    if not 0 <= index < n_shards:
        raise ShardError(
            f"shard index {index} out of range for n_shards={n_shards}"
        )
    chunk_rows, chunk_cols, row_bounds, col_bounds = _resolve_chunks(
        graph, n_shards, chunk_rows, chunk_cols
    )
    return _make_slice(
        graph, row_bounds, col_bounds, index, n_shards, chunk_rows, chunk_cols
    )


def plan_shards(
    graph: "BipartiteGraph",
    n_shards: int,
    *,
    chunk_rows: int | None = None,
    chunk_cols: int | None = None,
) -> ShardPlan:
    """Partition *graph* into *n_shards* deterministic range shards.

    Every shard exists even when its range is empty, so ``K`` never
    silently shrinks and a shard daemon's :func:`shard_slice` for
    ``(K, index)`` is exactly this plan's shard ``index``.
    """
    chunk_rows, chunk_cols, row_bounds, col_bounds = _resolve_chunks(
        graph, n_shards, chunk_rows, chunk_cols
    )
    nrows, ncols = graph.nrows, graph.ncols
    shards = [
        _make_slice(
            graph, row_bounds, col_bounds, k, n_shards, chunk_rows, chunk_cols
        )
        for k in range(n_shards)
    ]
    return ShardPlan(
        nrows=nrows,
        ncols=ncols,
        nnz=graph.nnz,
        n_shards=n_shards,
        row_bounds=row_bounds,
        col_bounds=col_bounds,
        chunk_rows=chunk_rows,
        chunk_cols=chunk_cols,
        shards=tuple(shards),
    )


def plan_for_budget(graph: "BipartiteGraph", max_held_nnz: int) -> ShardPlan:
    """The smallest-K plan whose largest shard materializes at most
    *max_held_nnz* edge entries (CSR + CSC slices combined).

    Raises :class:`ShardError` when no K can satisfy the budget — sharding
    only divides edges along chunk-aligned ranges, so a budget below the
    densest chunk's edge count is unsatisfiable.
    """
    if max_held_nnz < 1:
        raise ShardError(f"max_held_nnz must be >= 1, got {max_held_nnz}")
    chunk_rows = effective_chunk(graph.nrows, "choice_scaled")
    chunk_cols = effective_chunk(graph.ncols, "choice_scaled")
    k_cap = max(
        1,
        -(-graph.nrows // chunk_rows) if graph.nrows else 1,
        -(-graph.ncols // chunk_cols) if graph.ncols else 1,
    )
    best = None
    for k in range(1, k_cap + 1):
        plan = plan_shards(graph, k)
        best = plan
        if plan.max_held_nnz <= max_held_nnz:
            return plan
    assert best is not None
    raise ShardError(
        f"no shard count up to {k_cap} fits max_held_nnz={max_held_nnz}; "
        f"the finest chunk-aligned split still holds {best.max_held_nnz} "
        "edge entries in its largest shard"
    )
