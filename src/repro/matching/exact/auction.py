"""Auction engine for maximum-cardinality bipartite matching.

The quality ladder's heuristics (greedy → one_sided → two_sided) certify
floors below 1; this engine is the exact top rung.  It runs the auction
algorithm of Bertsekas specialised to the unweighted (cardinality) case,
in the synchronous/Jacobi form Naparstek–Leshem (arXiv:1401.0119) analyse
for shared-memory parallelism: every free row computes its bid in the
same round over a snapshot of the column prices, and the commits happen
once per round with a deterministic tie-break.  The bid sweep is a
registered kernel (``auction_bid``), so serial, thread and shared-memory
backends produce bitwise-identical matchings and prices.

Bidding runs one phase at the fixed increment ``ε = EPS = 1``.  For the
cardinality objective every edge is worth the same, so a finer ε (or an
ε-scaling schedule ending in one) buys tighter prices but not a larger
matching.

How exactness is certified
--------------------------

All edge values are equal (we only count cardinality), so a matched pair
``(i, j)`` satisfies *ε-complementary slackness* when

    ``p[j] <= min_{k ∈ N(i)} p[k] + ε``

(prices of matched columns change only when the pair re-forms, so the
inequality persists).  Bids are ``second_cheapest_alive + ε``, which is
bounded by ``dead_level + ε``, so the inequality extends over *dead*
neighbours too (their price is ≥ the dead level by definition).

A free row is *abandoned* (certified unmatchable) only when every
neighbour's price is at or above the round's ``dead_level``, which is the
minimum of two certificates:

* **cap** — ``min(n, m)·ε + max(p0) + ε``.  An augmenting path
  alternates matched pairs, and ε-CS lets the column prices along it
  drop by at most ``ε`` per pair; a path from a column priced at the cap
  would need more than ``min(n, m)`` pairs to reach a free column (free
  columns never accept a bid, so they keep their initial price
  ``≤ max(p0)``) — longer than any simple alternating path.
* **gap/band** — if some price band of width ``> ε`` is empty and every
  *free* column sits below it, the same descent argument shows no
  augmenting path crosses the band: every column priced above it is dead.
  This is the auction analogue of push–relabel's gap heuristic and is
  what keeps deficient instances (where some rows genuinely cannot be
  matched) from crawling prices up to the cap one ε at a time.

Both certificates are evaluated against the *current* free-column set,
which only shrinks (columns never unmatch), so abandonment decisions
remain valid at termination.  Rounds terminate because every active free
row either bids (raising some column's price by ≥ ε when accepted) or is
abandoned, and prices are bounded by the cap.

Warm starts
-----------

``initial`` accepts a :class:`~repro.matching.matching.Matching` or any
result object carrying one (``two_sided_match`` results, stream epochs);
``prices`` accepts a previous epoch's price vector and ``scaling``
derives dual-like prices from Sinkhorn–Knopp factors
(:func:`~repro.scaling.duals.dual_prices`).  Warm pairs that violate
ε-CS are dissolved (the rows re-enter the auction), so every invariant
above holds regardless of where the start came from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import telemetry as _tm
from repro._typing import FloatArray, IndexArray
from repro.errors import MatchingError, ValidationError
from repro.graph.csr import BipartiteGraph
from repro.matching.matching import NIL, Matching
from repro.parallel.backends import Backend
from repro.parallel.kernels import AUCTION_DROP, run_kernel
from repro.parallel.reduction import gather_segments
from repro.resilience.deadline import request_deadline

__all__ = ["EPS", "AuctionResult", "auction_match"]

#: The bid increment.  One phase at this ε returns the maximum
#: cardinality; it also sets the price clip, the abandonment cap and
#: the band width of the dead-level certificate.
EPS: float = 1.0

#: Relative slack when comparing float price gaps against ε thresholds —
#: certificates must only fire on gaps *strictly* wider than ε.
_GAP_SLACK = 1e-9


@dataclass(frozen=True)
class AuctionResult:
    """Outcome of :func:`auction_match`.

    Attributes
    ----------
    matching:
        A maximum-cardinality matching (validated against the graph).
    prices:
        Final column prices — ε-CS duals, reusable as the ``prices``
        warm start of a later call (e.g. the next streaming epoch).
    rounds:
        Synchronous (kernel) bidding rounds.
    abandoned:
        Rows certified unmatchable by the gap/cap argument (equals
        ``nrows - cardinality`` for square-deficient instances).
    dissolved:
        Warm-start pairs dropped to restore ε-complementary slackness.
    warm_started:
        True when an initial matching and/or prices were supplied.
    cardinality_trace:
        Matched-pair count after each round — non-decreasing, because
        columns never unmatch (a displaced row's column is re-matched in
        the same commit).
    """

    matching: Matching
    prices: FloatArray
    rounds: int
    abandoned: int
    dissolved: int
    warm_started: bool
    cardinality_trace: tuple[int, ...]

    @property
    def cardinality(self) -> int:
        return self.matching.cardinality

    @property
    def guarantee(self) -> float:
        """Exact tier: the matching is maximum, quality 1.0 by construction."""
        return 1.0


def _coerce_initial(initial: object, graph: BipartiteGraph) -> Matching | None:
    """Accept a Matching or any result object carrying ``.matching``."""
    if initial is None:
        return None
    m = getattr(initial, "matching", initial)
    if not isinstance(m, Matching):
        raise ValidationError(
            "initial must be a Matching or carry a .matching attribute, "
            f"got {type(initial).__name__}"
        )
    m.validate(graph)
    return m


def _row_min_prices(graph: BipartiteGraph, prices: FloatArray) -> FloatArray:
    """``out[i] = min over N(i) of prices`` (inf for empty rows)."""
    nrows = graph.nrows
    out = np.full(nrows, np.inf)
    if graph.nnz == 0:
        return out
    ptr = graph.row_ptr
    nonempty = ptr[1:] > ptr[:-1]
    if nonempty.any():
        out[nonempty] = np.minimum.reduceat(
            prices[graph.col_ind], ptr[:-1][nonempty]
        )
    return out


def _enforce_eps_cs(
    graph: BipartiteGraph,
    row_match: IndexArray,
    col_match: IndexArray,
    prices: FloatArray,
) -> int:
    """Dissolve warm pairs violating ε-CS; return count.

    Dissolving (rather than repairing prices) keeps prices monotone and
    is always safe: the freed rows simply rejoin the auction.
    """
    matched = np.flatnonzero(row_match != NIL)
    if matched.size == 0:
        return 0
    minp = _row_min_prices(graph, prices)
    bad = matched[
        prices[row_match[matched]]
        > minp[matched] + EPS * (1 + _GAP_SLACK)
    ]
    if bad.size:
        col_match[row_match[bad]] = NIL
        row_match[bad] = NIL
    return int(bad.size)


def _dead_level(prices: FloatArray, free_cols: np.ndarray, cap: float) -> float:
    """The price at/above which a column is certifiably dead this round.

    Returns ``min(band_top, cap)`` where *band_top* is the lowest price
    strictly above an empty band of width > ``EPS`` that itself
    lies at or above every free column's price (see module docstring).
    """
    band_top = cap
    base = float(prices[free_cols].max())
    q = np.unique(prices)
    q = q[q >= base]
    if q.shape[0] >= 2:
        gaps = np.flatnonzero(np.diff(q) > EPS * (1 + _GAP_SLACK))
        if gaps.size:
            band_top = min(band_top, float(q[gaps[0] + 1]))
    return band_top


def _gauss_seidel_drain(
    graph: BipartiteGraph,
    p: FloatArray,
    row_match: IndexArray,
    col_match: IndexArray,
    active: np.ndarray,
    queue: IndexArray,
    cap: float,
    dl: object,
    trace: list[int],
    matched: int,
) -> tuple[int, int]:
    """Drain the free-row tail with sequential (Gauss–Seidel) bidding.

    The Jacobi kernel rounds advance every augmenting chain by one
    displacement per round, which is the right shape for the parallel
    bulk but quadratic-feeling on the tail, where a handful of chains
    crawl while every round still pays O(n) bookkeeping.  Classic
    sequential auction fixes that: pop a free row, bid, commit, push the
    displaced row — a chain resolves in as many pops as its length.  The
    pass runs serially in the parent in FIFO order from a sorted queue,
    so it is deterministic and backend-independent by construction; the
    hot loop works on plain Python lists because the per-row slices are
    tiny (a handful of neighbours) and numpy call overhead would
    dominate.

    The band certificate is kept *always fresh* at O(1) amortised cost
    by maintaining a histogram of column prices in bins of width
    ``EPS/2``: a run of three empty bins above every free column is an
    empty price interval of width ``1.5·EPS > EPS``, so everything
    priced above the run is certifiably dead.  (Bin
    occupancy moves with each accepted bid; the run scan touches only
    the occupied prefix of the histogram.)  The exclusion level used for
    *bidding* may be arbitrarily stale — the ε-CS bound only needs
    excluded neighbours to be priced at or above the level the bid was
    compared against — but a *drop* always re-scans first, so every
    abandonment is certified against current prices.  The free-column
    price bound ``base0`` is computed once at entry: free columns never
    change price and the free set only shrinks, so the entry-time
    supremum stays valid.

    Returns ``(matched, abandoned_here)``.
    """
    nil = int(NIL)
    inf = float("inf")
    abandoned = 0
    pops = 0
    guard = 400 * (graph.nrows + graph.ncols + 1)

    # Histogram of column prices in EPS/2-wide bins.
    h = EPS / 2.0
    nbins = int(cap / h) + 8
    bins = np.zeros(nbins, dtype=np.int64)
    idx = np.minimum((p / h).astype(np.int64), nbins - 1)
    bins += np.bincount(idx, minlength=nbins)
    maxbin = int(idx.max()) if idx.size else 0
    free_mask = col_match == NIL
    free_cols_left = int(free_mask.sum())
    base0 = float(p[free_mask].max()) if free_cols_left else 0.0
    lowbin = int(base0 / h) + 1

    def scan_dead() -> float:
        """Fresh dead level from the current histogram (always valid)."""
        if free_cols_left == 0:
            return -inf
        hi_b = min(maxbin + 4, nbins)
        z = bins[lowbin:hi_b] == 0
        if z.shape[0] >= 3:
            run = z[:-2] & z[1:-1] & z[2:]
            nz = np.flatnonzero(run)
            if nz.size:
                return min(cap, (lowbin + int(nz[0]) + 3) * h)
        return cap

    # Python-list mirrors of the hot state; written back on exit.
    ptr_l = graph.row_ptr.tolist()
    ind_l = graph.col_ind.tolist()
    p_l = p.tolist()
    rm_l = row_match.tolist()
    cm_l = col_match.tolist()
    q = deque(int(i) for i in queue)
    dead = scan_dead()
    while q:
        i = q.popleft()
        if rm_l[i] != nil or not active[i]:
            continue
        pops += 1
        if pops > guard:  # pragma: no cover - safety valve
            raise MatchingError(
                f"auction tail failed to settle within {guard} bids"
            )
        if dl is not None and (pops & 4095) == 0:
            dl.ensure("auction match")
        s, e = ptr_l[i], ptr_l[i + 1]
        best = inf
        second = inf
        bj = -1
        for k in range(s, e):
            pc = p_l[ind_l[k]]
            if pc >= dead:
                continue
            if pc < best:
                second = best
                best = pc
                bj = ind_l[k]
            elif pc < second:
                second = pc
        if bj < 0:
            # Nothing alive under the cached level: re-scan, then either
            # drop under the fresh certificate or re-bid under the
            # refreshed level (which must then expose an alive column,
            # so the loop makes progress).
            dead = scan_dead()
            if s == e:
                active[i] = False  # empty rows carry their own certificate
                abandoned += 1
            elif min(p_l[ind_l[k]] for k in range(s, e)) >= dead:
                active[i] = False
                abandoned += 1
            else:
                q.appendleft(i)
            continue
        bid = (second if second < inf else best) + EPS
        w = cm_l[bj]
        cm_l[bj] = i
        rm_l[i] = bid_col = bj
        ob = int(p_l[bid_col] / h)
        p_l[bid_col] = bid
        nb = int(bid / h)
        if nb >= nbins:
            nb = nbins - 1
        if ob >= nbins:
            ob = nbins - 1
        bins[ob] -= 1
        bins[nb] += 1
        if nb > maxbin:
            maxbin = nb
        if w == nil:
            matched += 1
            free_cols_left -= 1
        else:
            rm_l[w] = nil
            q.append(w)
    row_match[:] = rm_l
    col_match[:] = cm_l
    p[:] = p_l
    trace.append(matched)
    _tm.incr("auction.gs_bids", pops)
    return matched, abandoned


def auction_match(
    graph: BipartiteGraph,
    *,
    initial: object | None = None,
    prices: FloatArray | None = None,
    scaling: object | None = None,
    backend: Backend | str | None = None,
    deadline: object = None,
    gs_tail: int | None = None,
) -> AuctionResult:
    """Maximum-cardinality matching by auction.

    Parameters
    ----------
    graph:
        The bipartite graph.
    initial:
        Warm-start matching — a :class:`Matching` or any result object
        with a ``.matching`` attribute (``two_sided_match`` results,
        stream epochs).  Pairs violating ε-CS are dissolved, the rest
        survive, so a good heuristic start skips most bidding rounds.
    prices:
        Warm-start column prices (length ``ncols``); clipped into
        ``[0, min(n, m)·EPS]`` so repeated warm starts (streaming
        epochs) keep the abandonment cap bounded.
    scaling:
        A :class:`~repro.scaling.result.ScalingResult` (or raw ``dc``
        factors) used to derive dual-like initial prices when *prices*
        is not given — see :func:`~repro.scaling.duals.dual_prices`.
    backend:
        Execution backend (or spec string) for the bid kernel; results
        are bitwise identical across backends.
    deadline:
        Optional wall-clock budget (seconds or a ``Deadline``); checked
        once per round, raising ``DeadlineExceededError``.
    gs_tail:
        Free-row count at or below which bidding switches from kernel
        (Jacobi) rounds to the sequential Gauss–Seidel drain — see
        :func:`_gauss_seidel_drain`.  Defaults to
        ``max(256, nrows // 32)``; pass ``0`` to force pure kernel
        rounds (useful for backend-equivalence tests).

    Raises :class:`~repro.errors.MatchingError` if the rounds exceed the
    safety valve ``200 + 50·min(n, m)``.
    """
    nrows, ncols = graph.nrows, graph.ncols
    init = _coerce_initial(initial, graph)
    warm = init is not None or prices is not None

    if init is not None:
        row_match = init.row_match.copy()
        col_match = init.col_match.copy()
    else:
        row_match = np.full(nrows, NIL, dtype=np.int64)
        col_match = np.full(ncols, NIL, dtype=np.int64)

    price_clip = min(nrows, ncols) * EPS
    if prices is not None:
        p = np.ascontiguousarray(prices, dtype=np.float64).copy()
        if p.shape != (ncols,):
            raise ValidationError(
                f"prices must have shape ({ncols},), got {p.shape}"
            )
        if not np.isfinite(p).all():
            raise ValidationError("prices must be finite")
        np.clip(p, 0.0, price_clip, out=p)
    elif scaling is not None:
        from repro.scaling.duals import dual_prices

        p = dual_prices(scaling)
        if p.shape != (ncols,):
            raise ValidationError(
                f"scaling factors imply {p.shape[0]} columns, graph has {ncols}"
            )
        np.clip(p, 0.0, price_clip, out=p)
    else:
        p = np.zeros(ncols, dtype=np.float64)

    dissolved = _enforce_eps_cs(graph, row_match, col_match, p)

    max_p0 = float(p.max()) if ncols else 0.0
    cap = min(nrows, ncols) * EPS + max_p0 + EPS
    max_rounds = 200 + 50 * min(nrows, ncols)
    if gs_tail is None:
        gs_tail = max(256, nrows // 32)

    active = np.ones(nrows, dtype=bool)
    empty_rows = graph.row_degrees() == 0
    abandoned = int(empty_rows.sum())
    active[empty_rows] = False

    row_ptr, col_ind = graph.row_ptr, graph.col_ind
    rounds = 0
    trace: list[int] = []

    with request_deadline(deadline) as dl, _tm.span(
        "auction.match", nrows=nrows, ncols=ncols
    ):
        while True:
            free_rows = np.flatnonzero(active & (row_match == NIL))
            if free_rows.size == 0:
                break
            if free_rows.size <= gs_tail:
                matched, ab = _gauss_seidel_drain(
                    graph, p, row_match, col_match, active, free_rows,
                    cap, dl, trace, int((row_match != NIL).sum()),
                )
                abandoned += ab
                break
            free_cols = col_match == NIL
            if not free_cols.any():
                # Every column is matched: the matching is maximum.
                abandoned += int(free_rows.size)
                active[free_rows] = False
                break
            if dl is not None:
                dl.ensure("auction match")
            if rounds >= max_rounds:
                raise MatchingError(
                    f"auction failed to settle within {max_rounds} rounds"
                )
            dead = _dead_level(p, free_cols, cap)
            sub_ind, sub_ptr = gather_segments(row_ptr, col_ind, free_rows)
            bid_col = np.empty(free_rows.size, dtype=np.int64)
            bid_val = np.empty(free_rows.size, dtype=np.float64)
            run_kernel(
                "auction_bid",
                free_rows.size,
                {
                    "ptr": sub_ptr,
                    "ind": sub_ind,
                    "prices": p,
                    "bid_col": bid_col,
                    "bid_val": bid_val,
                },
                backend=backend,
                scalars={"eps": EPS, "dead": dead},
            )
            drop = bid_col == AUCTION_DROP
            if drop.any():
                active[free_rows[drop]] = False
                abandoned += int(drop.sum())
            bidders = ~drop
            if bidders.any():
                rows_b = free_rows[bidders]
                cols_b = bid_col[bidders]
                vals_b = bid_val[bidders]
                # Highest bid wins each column; ties go to the lowest
                # row index — the deterministic commit.
                order = np.lexsort((rows_b, -vals_b, cols_b))
                cs = cols_b[order]
                first = np.ones(cs.size, dtype=bool)
                first[1:] = cs[1:] != cs[:-1]
                win = order[first]
                wrows, wcols = rows_b[win], cols_b[win]
                displaced = col_match[wcols]
                displaced = displaced[displaced != NIL]
                row_match[displaced] = NIL
                col_match[wcols] = wrows
                row_match[wrows] = wcols
                p[wcols] = vals_b[win]
                _tm.incr("auction.bids", int(rows_b.size))
            rounds += 1
            trace.append(int((row_match != NIL).sum()))

    matching = Matching(row_match, col_match)
    matching.validate(graph)
    _tm.incr("auction.rounds", rounds)
    if abandoned:
        _tm.incr("auction.abandoned", abandoned)
    return AuctionResult(
        matching=matching,
        prices=p,
        rounds=rounds,
        abandoned=abandoned,
        dissolved=dissolved,
        warm_started=warm,
        cardinality_trace=tuple(trace),
    )
