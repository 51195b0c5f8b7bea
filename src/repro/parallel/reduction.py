"""Segment reductions over CSR/CSC pointer arrays.

``segment_sums`` is the workhorse of Sinkhorn–Knopp: for every row (or
column) sum a gathered value over its adjacency slice.  It is built on
``numpy.add.reduceat`` with the care that function needs around empty
segments (reduceat returns ``values[ptr[i]]`` for an empty segment instead
of 0, and rejects indices equal to ``len(values)``).
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatArray, IndexArray
from repro.errors import ShapeError
from repro.parallel.backends import Backend, SerialBackend

__all__ = ["segment_sums", "segment_sums_parallel", "gather_segments"]


def gather_segments(
    ptr: IndexArray, ind: IndexArray, idxs: IndexArray
) -> tuple[IndexArray, IndexArray]:
    """Concatenate CSR segments ``ind[ptr[i]:ptr[i+1]]`` for ``i ∈ idxs``.

    Returns ``(values, sub_ptr)`` — the concatenated entries and the new
    segment boundaries — using vectorised range arithmetic only.  This is
    the sub-CSR extraction both the streaming rescaler and the auction
    engine use to restrict a sweep to a dirty/free subset of rows.
    """
    idxs = np.asarray(idxs, dtype=np.int64)
    degs = ptr[idxs + 1] - ptr[idxs]
    sub_ptr = np.zeros(idxs.shape[0] + 1, dtype=np.int64)
    np.cumsum(degs, out=sub_ptr[1:])
    total = int(sub_ptr[-1])
    flat = np.arange(total, dtype=np.int64) + np.repeat(
        ptr[idxs] - sub_ptr[:-1], degs
    )
    return ind[flat], sub_ptr


def segment_sums(values: FloatArray, ptr: IndexArray) -> FloatArray:
    """Per-segment sums: ``out[i] = values[ptr[i]:ptr[i+1]].sum()``.

    Handles empty segments (including trailing ones) correctly, unlike a
    bare ``np.add.reduceat``.
    """
    values = np.asarray(values, dtype=np.float64)
    ptr = np.asarray(ptr)
    if ptr.ndim != 1 or ptr.shape[0] < 1:
        raise ShapeError("ptr must be a 1-D pointer array")
    n_seg = ptr.shape[0] - 1
    if n_seg == 0:
        return np.empty(0, dtype=np.float64)
    out = np.zeros(n_seg, dtype=np.float64)
    if values.shape[0] == 0:
        return out
    nonempty = ptr[1:] > ptr[:-1]
    if nonempty.all():
        # Fast path (the common case on cleaned graphs): every ptr[:-1]
        # entry is a valid start of its own segment, so reduceat applies
        # directly — no mask allocation, no scatter.
        return np.add.reduceat(values, ptr[:-1])
    if not nonempty.any():
        return out
    # reduceat only at the starts of non-empty segments: consecutive
    # non-empty starts delimit exactly one segment each (the empty
    # segments between them do not advance ptr), and every such start is
    # a valid index < len(values).
    starts = ptr[:-1][nonempty]
    out[nonempty] = np.add.reduceat(values, starts)
    return out


def segment_sums_parallel(
    values: FloatArray,
    ptr: IndexArray,
    backend: Backend | None = None,
) -> FloatArray:
    """Backend-parallel :func:`segment_sums`.

    The segment axis is statically partitioned across workers; each worker
    reduces a contiguous block of segments (its slice of ``values`` is also
    contiguous, so this is the cache-friendly decomposition).
    """
    backend = backend or SerialBackend()
    ptr = np.asarray(ptr)
    n_seg = ptr.shape[0] - 1
    values = np.asarray(values, dtype=np.float64)
    if n_seg <= 0:
        return np.empty(max(n_seg, 0), dtype=np.float64)

    # Workers return their block of sums, concatenated in partition order.
    # Each segment's sum depends only on its own slice, so the result is
    # bitwise identical across backends and worker counts.
    def work(lo: int, hi: int) -> FloatArray:
        sub_ptr = ptr[lo : hi + 1] - ptr[lo]
        sub_vals = values[ptr[lo] : ptr[hi]]
        return segment_sums(sub_vals, sub_ptr)

    pieces = backend.map_ranges(work, n_seg)
    return np.concatenate(pieces)
