"""Sinkhorn–Knopp against an independent left-to-right reference.

The backend-equivalence tests only show that every backend agrees with
the serial kernel.  These tests pin what the kernels compute: each line
sum is the sequential ``((0 + x0) + x1) + ...`` over the line's
neighbours in ascending order (the paper's loop), so the factors and the
reported error equal a plain Python loop bit for bit — on every backend,
every forced chunk grid and every shard count.
"""

import contextlib

import numpy as np
import pytest

from repro.graph import from_edges
from repro.graph.generators import power_law_bipartite, sprand, sprand_rect
from repro.parallel import get_backend, kernel_chunk_override
from repro.scaling.sinkhorn_knopp import scale_sinkhorn_knopp
from repro.shard import shard_scale


def _line_sums(ptr, ind, x):
    sums = []
    for i in range(len(ptr) - 1):
        total = 0.0
        for j in ind[ptr[i] : ptr[i + 1]]:
            total += x[j]
        sums.append(total)
    return sums


def _reference(graph, iterations, initial):
    """``(dr, dc, error)`` of *iterations* sweeps, one Python float at a
    time; empty lines keep factor 1 and are left out of the error."""
    col_ptr, row_ind = graph.col_ptr.tolist(), graph.row_ind.tolist()
    row_ptr, col_ind = graph.row_ptr.tolist(), graph.col_ind.tolist()
    if initial is None:
        dr, dc = [1.0] * graph.nrows, [1.0] * graph.ncols
    else:
        dr, dc = list(initial[0]), list(initial[1])
    for _ in range(iterations):
        dc = [1.0 / s if s > 0.0 else 1.0
              for s in _line_sums(col_ptr, row_ind, dr)]
        dr = [1.0 / s if s > 0.0 else 1.0
              for s in _line_sums(row_ptr, col_ind, dc)]
    error = 0.0
    for j, s in enumerate(_line_sums(col_ptr, row_ind, dr)):
        if col_ptr[j + 1] > col_ptr[j]:
            error = max(error, abs(s * dc[j] - 1.0))
    return np.array(dr), np.array(dc), error


def _star(n, seed):
    """Row 0 and column 0 meet every line, over a sparse random rest."""
    rng = np.random.default_rng(seed)
    rows = np.concatenate(
        [np.zeros(n, np.int64), np.arange(n), rng.integers(0, n, 2 * n)]
    )
    cols = np.concatenate(
        [np.arange(n), np.zeros(n, np.int64), rng.integers(0, n, 2 * n)]
    )
    return from_edges(n, n, rows, cols)


def _warm(graph, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(0.1, 10.0, graph.nrows),
        rng.uniform(0.1, 10.0, graph.ncols),
    )


@pytest.fixture(scope="module")
def cases():
    empty_lines = sprand(80, 1.5, seed=3)
    assert (empty_lines.row_degrees() == 0).any()
    assert (empty_lines.col_degrees() == 0).any()
    graphs = [
        empty_lines,
        sprand_rect(50, 90, 3.0, seed=4),
        sprand_rect(90, 50, 2.0, seed=5),
        _star(70, seed=6),
        # Heavy-tailed degrees: many long lines past the rank fold.
        power_law_bipartite(150, 6.0, skew=2.0, seed=7),
    ]
    out = []
    for k, graph in enumerate(graphs):
        for iterations in (0, 1, 5):
            for initial in (None, _warm(graph, k)):
                want = _reference(graph, iterations, initial)
                out.append((graph, iterations, initial, want))
    return out


@pytest.mark.parametrize("chunk", [None, 1, 3, 7])
@pytest.mark.parametrize(
    "spec", ["serial", "threads:2", "shm:2", "resilient:serial"]
)
def test_sk_equals_left_fold_reference(spec, chunk, cases):
    backend = get_backend(spec)
    grid = (
        kernel_chunk_override(chunk) if chunk else contextlib.nullcontext()
    )
    try:
        with grid:
            for graph, iterations, initial, (dr, dc, error) in cases:
                got = scale_sinkhorn_knopp(
                    graph, iterations, initial=initial, backend=backend
                )
                assert np.array_equal(got.dr, dr)
                assert np.array_equal(got.dc, dc)
                assert got.error == error
    finally:
        backend.close()


@pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 16])
def test_shard_scale_equals_left_fold_reference(n_shards, cases):
    with kernel_chunk_override(7):
        for graph, iterations, initial, (dr, dc, error) in cases:
            got = shard_scale(
                graph, iterations, n_shards=n_shards, initial=initial
            )
            assert np.array_equal(got.dr, dr)
            assert np.array_equal(got.dc, dc)
            assert got.error == error


def test_sk_equals_csr_matvec_at_scale():
    """At a size with several kernel chunks, each half-sweep equals
    scipy's CSR mat-vec with unit data (which also sums left to right)."""
    sparse = pytest.importorskip("scipy.sparse")
    graph = sprand(40_000, 4.0, seed=11)
    ones = np.ones(graph.nnz)
    a = sparse.csr_array((ones, graph.col_ind, graph.row_ptr), graph.shape)
    at = sparse.csr_array(
        (ones, graph.row_ind, graph.col_ptr), graph.shape[::-1]
    )

    def reciprocal(sums):
        out = np.ones_like(sums)
        np.divide(1.0, sums, out=out, where=sums > 0.0)
        return out

    dr, dc = np.ones(graph.nrows), np.ones(graph.ncols)
    for _ in range(3):
        dc = reciprocal(at @ dr)
        dr = reciprocal(a @ dc)
    for chunk in (None, 4096):
        grid = (
            kernel_chunk_override(chunk) if chunk
            else contextlib.nullcontext()
        )
        with grid:
            got = scale_sinkhorn_knopp(graph, 3)
        assert np.array_equal(got.dr, dr)
        assert np.array_equal(got.dc, dc)
