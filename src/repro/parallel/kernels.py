"""Registered data-parallel kernels shared by every execution backend.

The hot loops of the library — the Sinkhorn–Knopp column/row sweeps, the
scaled 1-out choice sampling, and the auction's bidding sweep — are
*registered kernels*: named module-level functions with the signature
``fn(lo, hi, views)`` that read whole arrays from *views* and write only
the output entries their chunk ``[lo, hi)`` owns (plus a small per-chunk
return value).  Registering them buys two things:

* every backend runs the *same* function over the *same* chunk grid, so
  results are bitwise identical across serial, threads, and the
  shared-memory pool by construction;
* the :class:`~repro.parallel.shm.SharedMemoryBackend` can ship a kernel
  *by name* to its persistent workers — the task message is a name plus
  segment bindings and a range, never the arrays themselves.

Chunk grid
----------

``kernel_grid`` decomposes ``range(n)`` into chunks that depend only on
``n`` and the kernel's registered granularity — never on the backend or
its worker count.  Chunk-local arithmetic (e.g. the choice kernels'
prefix sums) therefore produces identical floating-point results on any
backend; dynamic load balance comes from *scheduling* the fixed chunks,
not from reshaping them.

The Sinkhorn–Knopp kernels are *line kernels*: their ``range(n)`` is the
sorted positions of a :class:`~repro.graph.csr.LineLayout`, and each
line's sum is a left-to-right fold over its ascending neighbours, so
their results do not depend on the grid at all.  Their grid
(:data:`SK_MIN_CHUNK`) is sized for dispatch cost only.

Kernel contract
---------------

* outputs must not alias inputs — retries and corrupt-result recovery
  re-execute a chunk and must be idempotent;
* a kernel may read any element of any input view (gathers are fine) but
  may write only the output entries its chunk owns: ``out[lo:hi]``, or
  for a line kernel ``out[perm[lo:hi]]`` — the lines at its sorted
  positions.  Either way the owned entries are disjoint across chunks,
  cover the whole output, and re-running a chunk rewrites the same
  values;
* the per-chunk return value should be a scalar or a small tuple — on
  the shared-memory pool it crosses a process boundary.
"""

from __future__ import annotations

import bisect
import contextlib
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro import telemetry as _tm
from repro._typing import FloatArray
from repro.errors import BackendError
from repro.matching.matching import NIL
from repro.parallel.backends import Backend, get_backend
from repro.parallel.partition import chunk_ranges

__all__ = [
    "Kernel",
    "KERNELS",
    "register_kernel",
    "kernel_grid",
    "kernel_chunk_override",
    "effective_chunk",
    "run_kernel",
    "AUCTION_DROP",
]

#: Below this chunk size the per-chunk dispatch overhead dominates the
#: numpy work, so small inputs run as a single chunk.
DEFAULT_MIN_CHUNK = 8192
#: Upper bound on the number of chunks per call — ~4x oversubscription
#: for a typical 8-worker pool, which is what the dynamic chunk queue
#: needs to absorb skewed-degree stragglers.
DEFAULT_TARGET_CHUNKS = 32

RangeKernel = Callable[[int, int, Mapping[str, Any]], Any]


@dataclass(frozen=True)
class Kernel:
    """A registered kernel: the function plus its dispatch metadata."""

    name: str
    fn: RangeKernel
    #: View names the kernel writes (only the entries its chunk owns).
    outputs: tuple[str, ...] = ()
    min_chunk: int = DEFAULT_MIN_CHUNK
    target_chunks: int = DEFAULT_TARGET_CHUNKS


#: The global registry, keyed by kernel name.  Populated at import time —
#: shared-memory workers fork with this registry and look kernels up by
#: name, so kernels must be registered before the worker pool spawns.
KERNELS: dict[str, Kernel] = {}


def register_kernel(
    name: str,
    *,
    outputs: tuple[str, ...] = (),
    min_chunk: int = DEFAULT_MIN_CHUNK,
    target_chunks: int = DEFAULT_TARGET_CHUNKS,
) -> Callable[[RangeKernel], RangeKernel]:
    """Decorator registering a ``fn(lo, hi, views)`` kernel under *name*."""

    def deco(fn: RangeKernel) -> RangeKernel:
        if name in KERNELS:
            raise BackendError(f"kernel {name!r} is already registered")
        KERNELS[name] = Kernel(
            name=name, fn=fn, outputs=tuple(outputs),
            min_chunk=min_chunk, target_chunks=target_chunks,
        )
        return fn

    return deco


#: Test hook: a forced chunk size (see :func:`kernel_chunk_override`).
_CHUNK_OVERRIDE: int | None = None


@contextlib.contextmanager
def kernel_chunk_override(chunk: int) -> Iterator[None]:
    """Force every kernel grid to chunk size *chunk* inside the block.

    Exists so equivalence tests can exercise multi-chunk execution on
    graphs far below :data:`DEFAULT_MIN_CHUNK`.  All backends compared
    inside one block see the same grid, so bitwise identity still holds.
    """
    global _CHUNK_OVERRIDE
    previous = _CHUNK_OVERRIDE
    _CHUNK_OVERRIDE = chunk
    try:
        yield
    finally:
        _CHUNK_OVERRIDE = previous


#: Memoized chunk layouts keyed by ``(n, chunk)`` — the grid is pure in
#: those two numbers, and hot callers (SK iterations, choice draws, auction
#: sweeps, serve/stream epochs) rebuild the same layout thousands of
#: times.  Bounded: the working set is a handful of (size, granularity)
#: pairs per process.
_GRID_CACHE: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
_GRID_CACHE_CAP = 256


def effective_chunk(n: int, name: str) -> int:
    """The chunk size :func:`kernel_grid` would use for a size-*n* run.

    Shard planning aligns partition bounds to this value so a kernel run
    on a rebased slice sees the same chunk decomposition (shifted by the
    slice start) as the serial run on the whole axis — the property that
    makes chunk-local arithmetic (the choice kernel's segment cumsum)
    bitwise identical between sharded and unsharded execution.
    """
    kern = KERNELS[name]
    if _CHUNK_OVERRIDE is not None:
        return _CHUNK_OVERRIDE
    return max(kern.min_chunk, -(-n // kern.target_chunks))


def kernel_grid(n: int, kern: Kernel) -> list[tuple[int, int]]:
    """The fixed chunk decomposition for a size-*n* run of *kern*.

    Depends only on ``(n, kernel)`` — never on the backend or worker
    count — which is what makes chunk-local floating-point arithmetic
    backend-invariant.  Layouts are memoized per ``(n, chunk)``; the
    ``parallel.grid.cache_hits`` counter tracks reuse.
    """
    if n <= 0:
        return []
    chunk = _CHUNK_OVERRIDE
    if chunk is None:
        chunk = max(kern.min_chunk, -(-n // kern.target_chunks))
    cached = _GRID_CACHE.get((n, chunk))
    if cached is None:
        if len(_GRID_CACHE) >= _GRID_CACHE_CAP:
            _GRID_CACHE.clear()
        cached = tuple(chunk_ranges(n, chunk))
        _GRID_CACHE[(n, chunk)] = cached
    elif _tm.enabled():
        _tm.incr("parallel.grid.cache_hits")
    return list(cached)


def run_kernel(
    name: str,
    n: int,
    arrays: dict[str, np.ndarray],
    *,
    backend: Backend | str | None = None,
    scalars: Mapping[str, Any] | None = None,
) -> list[Any]:
    """Run registered kernel *name* over ``range(n)`` on *backend*.

    *arrays* maps view names to numpy arrays (inputs and outputs alike);
    *scalars* adds plain values to the views.  Output arrays are written
    in place; the list of per-chunk return values comes back in grid
    order.  Two dispatch paths:

    * a backend with ``supports_kernels`` (the shared-memory pool) ships
      ``(kernel name, segment bindings, range)`` tasks to its persistent
      workers — zero array traffic;
    * any other backend (serial, threads, the resilient wrapper) runs the
      kernel in-process over the grid, writing outputs directly.
    """
    kern = KERNELS.get(name)
    if kern is None:
        raise BackendError(f"no kernel registered under {name!r}")
    missing = [nm for nm in kern.outputs if nm not in arrays]
    if missing:
        raise BackendError(
            f"kernel {name!r} declares output(s) {missing} but no such "
            f"array binding was provided; bound arrays: "
            f"{sorted(arrays)}"
        )
    be = get_backend(backend)
    parts = kernel_grid(n, kern)
    if not parts:
        return []
    if be.supports_kernels:
        return be.run_kernel(kern, parts, arrays, dict(scalars or {}))

    views: dict[str, Any] = dict(arrays)
    if scalars:
        views.update(scalars)
    return be.map_chunks(lambda lo, hi: kern.fn(lo, hi, views), parts)


# ----------------------------------------------------------------------
# Shared numeric helpers
# ----------------------------------------------------------------------
def _reciprocal_or_one(sums: FloatArray) -> FloatArray:
    """``1/sums`` with empty (zero-sum) lines pinned to factor 1."""
    out = np.ones_like(sums)
    np.divide(1.0, sums, out=out, where=sums > 0.0)
    return out


def _segment_pick(
    out: np.ndarray,
    lo: int,
    hi: int,
    ptr: np.ndarray,
    ind_slice: np.ndarray,
    weights: np.ndarray,
    base_offset: int,
    draws: np.ndarray,
) -> None:
    """One weighted pick per segment in ``[lo, hi)`` from chunk-local data.

    *ind_slice* and *weights* cover edges ``ptr[lo]:ptr[hi]`` only;
    *base_offset* is ``ptr[lo]``.  The prefix sums are chunk-local, so the
    result depends on the chunk grid — which :func:`kernel_grid` fixes
    per ``(n, kernel)``, keeping picks backend-invariant.
    """
    if ind_slice.shape[0] == 0:
        # A chunk of nothing but empty segments: the clip below would
        # index ind_slice[-1], which does not exist.  Every pick is NIL.
        out[lo:hi] = NIL
        return
    starts = ptr[lo:hi] - base_offset
    ends = ptr[lo + 1 : hi + 1] - base_offset
    cum = np.cumsum(weights)
    prefix = np.concatenate([[0.0], cum])
    base = prefix[starts]
    totals = prefix[ends] - base
    targets = base + draws[lo:hi] * totals
    pos = np.searchsorted(cum, targets, side="left")
    # Guard against floating-point drift at segment boundaries.
    pos = np.clip(pos, starts, ends - 1)
    picked = ind_slice[pos]
    picked[totals <= 0.0] = NIL
    picked[starts == ends] = NIL
    out[lo:hi] = picked


# ----------------------------------------------------------------------
# Sinkhorn–Knopp sweeps
# ----------------------------------------------------------------------

#: Each line's sum is the same left-to-right fold on any chunk grid, so
#: the SK grid is sized for dispatch cost alone: 7 chunks at n = 200,000.
SK_MIN_CHUNK = 32768


#: A rank of the fold costs one gather-and-add call over the chunk's
#: lines that reach it.  Below this many lines the call overhead
#: outweighs the adds, so once more than ``_TAIL_RANKS`` ranks remain the
#: chunk sums them in one vectorized pass instead (:func:`_add_tail`) —
#: a dense row of a heavy-tailed matrix then costs a few calls, not one
#: per neighbour.
_TAIL_LINES = 512
_TAIL_RANKS = 8


def _fold_lines(lo: int, hi: int, v: Mapping[str, Any]) -> FloatArray:
    """Sums of ``opp`` over the neighbours of sorted positions ``[lo, hi)``.

    ``perm``/``rind``/``counts`` are a :class:`~repro.graph.csr.LineLayout`.
    Rank ``k`` adds the ``k``-th neighbour of every position in the chunk
    that has one — a contiguous prefix of the chunk — so each sum is the
    sequential ``((0 + x0) + x1) + ...`` over ascending neighbours, the
    paper's loop and a CSR mat-vec's, whatever the grid.  Positions past
    ``counts[0]`` are empty lines and sum to 0.
    """
    opp = v["opp"]
    rind = v["rind"]
    counts = v["counts"].tolist()
    # Ranks the chunk's longest line has: the k with counts[k] > lo.
    ranks = bisect.bisect_left(counts, -lo, key=operator.neg)
    sums = np.zeros(hi - lo)
    base = 0
    for k in range(ranks):
        m = min(hi, counts[k]) - lo
        if m < _TAIL_LINES and ranks - k > _TAIL_RANKS:
            _add_tail(sums[:m], lo, hi, k, ranks, v)
            break
        sums[:m] += opp[rind[base + lo : base + lo + m]]
        base += counts[k]
    return sums


def _add_tail(
    sums: FloatArray, lo: int, hi: int, k: int, ranks: int,
    v: Mapping[str, Any],
) -> None:
    """Add ranks ``k .. ranks-1`` of positions ``lo, lo+1, ...`` to *sums*.

    Gathers the remaining entries in rank-major order behind the running
    sums and adds them with ``np.bincount``, which accumulates each bin
    in input order: position ``i`` gets ``((sums[i] + x_k) + x_k+1) + ...``,
    exactly what the rank fold would have produced.
    """
    counts = v["counts"]
    starts = np.cumsum(counts[:ranks]) - counts[:ranks] + lo
    lines = np.minimum(counts[k:ranks], hi) - lo
    first = np.cumsum(lines) - lines
    pos = np.arange(int(first[-1] + lines[-1])) - np.repeat(first, lines)
    terms = v["opp"][v["rind"][np.repeat(starts[k:], lines) + pos]]
    m = sums.shape[0]
    sums[:] = np.bincount(
        np.concatenate((np.arange(m), pos)),
        weights=np.concatenate((sums, terms)),
        minlength=m,
    )


@register_kernel("sk_sweep", outputs=("out",), min_chunk=SK_MIN_CHUNK)
def _sk_sweep(lo: int, hi: int, v: Mapping[str, Any]) -> None:
    """One SK half-sweep for sorted positions ``[lo, hi)``:
    ``out[perm[p]] = 1 / (sum of opp over line perm[p]'s neighbours)``."""
    v["out"][v["perm"][lo:hi]] = _reciprocal_or_one(_fold_lines(lo, hi, v))


@register_kernel("sk_sweep_err", outputs=("out",), min_chunk=SK_MIN_CHUNK)
def _sk_sweep_err(lo: int, hi: int, v: Mapping[str, Any]) -> float:
    """Fused SK half-sweep plus convergence error for positions ``[lo, hi)``.

    Folds the line sums once and uses them twice: the chunk's column-sum
    error against the *current* factors ``mine`` (returned; empty lines,
    the positions past ``counts[0]``, are excluded), and the *next*
    factors written to ``out``.  This halves the gather traffic of a
    measure-then-sweep iteration.
    """
    sums = _fold_lines(lo, hi, v)
    lines = v["perm"][lo:hi]
    counts = v["counts"]
    nonempty = (min(hi, int(counts[0])) - lo) if counts.shape[0] else 0
    if nonempty > 0:
        scaled = sums[:nonempty] * v["mine"][lines[:nonempty]]
        err = float(np.abs(scaled - 1.0).max())
    else:
        err = 0.0
    v["out"][lines] = _reciprocal_or_one(sums)
    return err


# ----------------------------------------------------------------------
# Scaled 1-out choice sampling
# ----------------------------------------------------------------------
@register_kernel("choice_scaled", outputs=("out",))
def _choice_scaled(lo: int, hi: int, v: Mapping[str, Any]) -> None:
    """Weighted pick per segment with weights gathered in-kernel.

    ``out[i]`` is drawn from ``ind[ptr[i]:ptr[i+1]]`` with probability
    proportional to ``opp[ind[...]]`` — the per-edge scaled values are
    never materialised globally.  ``draws[i]`` in ``(0, 1]`` supplies the
    randomness (generated once in the parent, so the random stream is
    consumed identically on every backend).
    """
    ptr = v["ptr"]
    s = ptr[lo]
    ind_slice = v["ind"][s : ptr[hi]]
    _segment_pick(
        v["out"], lo, hi, ptr, ind_slice, v["opp"][ind_slice], s, v["draws"]
    )


@register_kernel("choice_flat", outputs=("out",))
def _choice_flat(lo: int, hi: int, v: Mapping[str, Any]) -> None:
    """Weighted pick per segment from pre-gathered per-edge *weights*.

    The ensemble runner gathers the scaled values once and reuses them
    across repetitions; generic CSR-like structures (e.g. the undirected
    reduction) use this variant too.
    """
    ptr = v["ptr"]
    s = ptr[lo]
    e = ptr[hi]
    _segment_pick(
        v["out"], lo, hi, ptr, v["ind"][s:e], v["weights"][s:e], s,
        v["draws"],
    )


# ----------------------------------------------------------------------
# Auction bidding sweep
# ----------------------------------------------------------------------

#: Sentinel bid target meaning "this row certifies it cannot be matched":
#: every neighbour's price is at or above the round's dead level.
AUCTION_DROP: int = -2


def _segment_min2(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment ``(min, argmin position, second min)`` over *values*.

    Segments are ``values[starts[i]:ends[i]]`` with CSR-style boundaries
    (``ends[i] == starts[i+1]``).  Ties resolve to the *first* occurrence
    in segment order, which is what makes the auction's bid targets
    deterministic.  Empty segments yield ``(inf, -1, inf)``; a segment
    with a single finite entry yields ``second == inf``.  Built on
    ``np.minimum.reduceat`` with the same empty-segment care as
    :func:`~repro.parallel.reduction.segment_sums`.
    """
    nseg = starts.shape[0]
    minv = np.full(nseg, np.inf)
    argp = np.full(nseg, -1, dtype=np.int64)
    secv = np.full(nseg, np.inf)
    if nseg == 0 or values.shape[0] == 0:
        return minv, argp, secv
    nonempty = ends > starts
    if not nonempty.any():
        return minv, argp, secv
    st = starts[nonempty]
    minv[nonempty] = np.minimum.reduceat(values, st)
    # First position attaining the segment minimum (inf == inf is fine).
    seg_of = np.repeat(np.arange(nseg, dtype=np.int64), ends - starts)
    pos = np.arange(values.shape[0], dtype=np.int64)
    cand = np.where(values == minv[seg_of], pos, values.shape[0])
    argp[nonempty] = np.minimum.reduceat(cand, st)
    # Second minimum: mask out the argmin entry and reduce again.
    masked = values.copy()
    masked[argp[nonempty]] = np.inf
    secv[nonempty] = np.minimum.reduceat(masked, st)
    return minv, argp, secv


@register_kernel("auction_bid", outputs=("bid_col", "bid_val"))
def _auction_bid(lo: int, hi: int, v: Mapping[str, Any]) -> None:
    """One synchronous bidding sweep over free rows ``[lo, hi)``.

    The views describe a *sub-CSR* over the currently free rows (``ptr``,
    ``ind``) plus the global column ``prices``.  For each free row the
    kernel finds the cheapest and second-cheapest *alive* neighbour
    (price below the scalar ``dead`` level) and writes

    * ``bid_col[i]`` — the cheapest alive column, or :data:`AUCTION_DROP`
      when every neighbour is dead (the row is certifiably unmatchable
      under the gap/cap argument — see ``matching/exact/auction.py``);
    * ``bid_val[i]`` — ``second_cheapest + eps`` (or ``cheapest + eps``
      when only one neighbour is alive), the price the column will carry
      if this bid wins.

    Reads are gathers over the whole price vector; writes stay in the
    ``[lo, hi)`` slice, and ties break to the lowest CSR position, so the
    sweep is bitwise identical across backends on the fixed chunk grid.
    """
    ptr = v["ptr"]
    s = ptr[lo]
    ind = v["ind"][s : ptr[hi]]
    pr = v["prices"][ind]
    pr = np.where(pr >= v["dead"], np.inf, pr)
    starts = ptr[lo:hi] - s
    ends = ptr[lo + 1 : hi + 1] - s
    minv, argp, secv = _segment_min2(pr, starts, ends)
    ok = np.isfinite(minv)
    col = np.full(hi - lo, AUCTION_DROP, dtype=np.int64)
    val = np.zeros(hi - lo, dtype=np.float64)
    if ok.any():
        col[ok] = ind[argp[ok]]
        base = np.where(np.isfinite(secv), secv, minv)
        val[ok] = base[ok] + v["eps"]
    v["bid_col"][lo:hi] = col
    v["bid_val"][lo:hi] = val
