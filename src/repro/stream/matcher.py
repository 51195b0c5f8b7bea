"""``StreamMatcher`` — incremental matching repair over a dynamic graph.

A cold TwoSidedMatch request is dominated by Sinkhorn–Knopp sweeps and a
full 1-out resample + Karp–Sipser pass.  After a small edit batch almost
all of that work is redundant; this matcher reuses it:

1. **warm rescale** — rerun :func:`~repro.scaling.scale_for_quality`
   starting from the previous ``(dr, dc)`` (the ``initial=`` kwarg); near
   a fixed point it recertifies the quality floor in a few sweeps, often
   zero;
2. **dirty resample** — redraw ``choice[]`` only for vertices whose
   adjacency changed (the dynamic graph's journal knows exactly which),
   keeping every clean vertex's earlier pick, so the subgraph stays a
   1-out choice structure on which Karp–Sipser is exact (Lemmas 1–4);
3. **component repair** — recompute the matching only on the connected
   components of the new choice subgraph touched by a *seed* vertex:
   one whose choice changed, or a matched vertex whose matching edge no
   longer lies in the choice subgraph.  Matched pairs in untouched
   components are provably still jointly optimal there (an augmenting
   path confined to an untouched component would have existed before the
   edit — the subgraph restricted to such a component is unchanged), so
   the union of the retained pairs and the per-component Karp–Sipser
   reruns is again a maximum matching of the whole choice subgraph;
4. **optional exact top-up** — warm-start Hopcroft–Karp from the
   repaired matching on the full graph (``topup=True``), or the
   auction with price state carried across epochs (``exact=True``).

The declared guarantee is re-certified from the warm rescale, not
assumed: ``target_quality`` when the rescale still certifies it,
otherwise the strongest ``certified_quality`` it actually reached —
identical semantics to a cold run, which is what the differential tests
pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro import telemetry as _tm
from repro._typing import FloatArray, IndexArray, SeedLike, rng_from
from repro.core.choice import (
    choices_from_weights,
    scaled_col_choices,
    scaled_row_choices,
)
from repro.core.karp_sipser_mt import karp_sipser_mt_vectorized
from repro.graph.csr import BipartiteGraph
from repro.matching.matching import NIL, Matching
from repro.parallel.backends import Backend, get_backend
from repro.scaling.adaptive import QualityScaling, scale_for_quality
from repro.scaling.result import ScalingResult
from repro.stream.dynamic import DynamicBipartiteGraph

__all__ = ["StreamMatcher", "StreamMatchResult"]


@dataclass(frozen=True)
class StreamMatchResult:
    """Output of one :meth:`StreamMatcher.rematch` call."""

    matching: Matching
    #: The (possibly warm-started) scaling certificate backing *guarantee*.
    quality: QualityScaling
    #: Declared expected-quality floor: the target when still certified,
    #: else the strongest level the rescale reached.
    guarantee: float
    #: Graph epoch this result corresponds to.
    epoch: int
    #: ``"cold"`` or ``"incremental"``.
    mode: str
    #: Rows / columns whose choices were redrawn this call.
    resampled_rows: int
    resampled_cols: int
    #: Rows / columns inside repaired (recomputed) components.
    repaired_rows: int
    repaired_cols: int
    #: Extra pairs gained by the Hopcroft–Karp top-up (0 without topup).
    topup_gain: int
    #: Extra pairs gained by the auction exact repair (0 without exact).
    exact_gain: int = 0
    #: The :class:`~repro.matching.exact.AuctionResult` backing the
    #: exact repair (None without exact); its prices seed the next epoch.
    exact_result: "object | None" = None

    @property
    def cardinality(self) -> int:
        return self.matching.cardinality

    @property
    def scaling(self):
        return self.quality.scaling


def _pad(arr: IndexArray, n: int) -> IndexArray:
    """Extend a NIL-defaulted int array to length *n* (copy)."""
    out = np.full(n, NIL, dtype=np.int64)
    out[: arr.shape[0]] = arr
    return out


def _pad_ones(vec: FloatArray, n: int) -> FloatArray:
    out = np.ones(n, dtype=np.float64)
    out[: vec.shape[0]] = vec
    return out


def _pad_zeros(vec: FloatArray, n: int) -> FloatArray:
    out = np.zeros(n, dtype=np.float64)
    out[: vec.shape[0]] = vec
    return out


def _masked_gather(src: IndexArray, table: IndexArray) -> IndexArray:
    """``table[src]`` with NIL entries passed through untouched."""
    out = np.full(src.shape[0], NIL, dtype=np.int64)
    valid = src != NIL
    out[valid] = table[src[valid]]
    return out


def _choice_components(
    row_choice: IndexArray, col_choice: IndexArray
) -> IndexArray:
    """Component label per unified vertex of the choice subgraph.

    Built with :mod:`scipy.sparse.csgraph` (C speed); the pure-Python
    union-find in :mod:`repro.graph.components` is a reference
    implementation, far too slow at streaming sizes.
    """
    nrows = row_choice.shape[0]
    n = nrows + col_choice.shape[0]
    rows_v = np.flatnonzero(row_choice != NIL)
    cols_v = np.flatnonzero(col_choice != NIL)
    src = np.concatenate((rows_v, cols_v + nrows))
    dst = np.concatenate((row_choice[rows_v] + nrows, col_choice[cols_v]))
    adj = coo_matrix(
        (np.ones(src.shape[0], dtype=np.int8), (src, dst)), shape=(n, n)
    )
    _, labels = connected_components(adj, directed=False)
    return labels


class StreamMatcher:
    """Maintains a quality-certified matching over a
    :class:`~repro.stream.DynamicBipartiteGraph` under edits.

    Parameters
    ----------
    graph:
        The dynamic graph to track.
    target_quality:
        Expected-quality target for :func:`scale_for_quality` (must sit
        below the ``1 − 1/e`` Theorem 1 ceiling).
    seed:
        Randomness for the 1-out choices (dirty resamples draw from the
        same generator).
    backend:
        Parallel backend for scaling and choice kernels.
    topup:
        When true, finish every rematch with a warm-started
        Hopcroft–Karp pass — the result is then a true maximum matching
        and the certificate is a floor on what the heuristic alone
        would have delivered.
    exact:
        When true, finish every rematch with the auction instead
        (see :func:`~repro.matching.exact.auction_match`), warm-started
        from the repaired matching *and* the previous epoch's auction
        prices (padded and re-clipped as the graph grows).  Like
        ``topup`` the result is a true maximum matching; unlike it the
        exact engine's dual state survives across epochs.
        ``exact`` supersedes ``topup`` when both are set.
    max_sweeps:
        Sinkhorn–Knopp budget per rematch (cold or warm).
    """

    def __init__(
        self,
        graph: DynamicBipartiteGraph,
        target_quality: float = 0.55,
        *,
        seed: SeedLike = None,
        backend: Backend | str | None = None,
        topup: bool = False,
        exact: bool = False,
        max_sweeps: int = 500,
    ) -> None:
        self.graph = graph
        self.target_quality = float(target_quality)
        self.topup = bool(topup)
        self.exact = bool(exact)
        self._prices: FloatArray | None = None
        self.max_sweeps = int(max_sweeps)
        self._rng = rng_from(seed)
        self._backend = get_backend(backend)
        self._epoch: int | None = None
        self._quality: QualityScaling | None = None
        self._row_choice: IndexArray | None = None
        self._col_choice: IndexArray | None = None
        self._matching: Matching | None = None
        self._cold_sweeps: int | None = None
        #: Maintained (rowtot, colsum) of the current factors — lets the
        #: next incremental rescale skip the O(nnz) global measurement.
        self._scale_state: tuple[FloatArray, FloatArray] | None = None

    # -- public API ----------------------------------------------------

    @property
    def epoch(self) -> int | None:
        """Graph epoch of the last rematch (None before the first)."""
        return self._epoch

    @property
    def matching(self) -> Matching | None:
        return self._matching

    def export_state(self) -> dict:
        """Serializable image of configuration plus all warm state.

        Values are JSON-able scalars or numpy arrays.  Includes the
        exact generator state, so a restored matcher draws the *same*
        future random choices as the original would have — replaying a
        journal against a checkpoint is deterministic.
        """
        import json

        state: dict = {
            "target_quality": self.target_quality,
            "topup": self.topup,
            "exact": self.exact,
            "max_sweeps": self.max_sweeps,
            "rng_state": json.dumps(self._rng.bit_generator.state),
        }
        if self._epoch is not None:
            state["epoch"] = self._epoch
        if self._cold_sweeps is not None:
            state["cold_sweeps"] = self._cold_sweeps
        if self._prices is not None:
            state["prices"] = self._prices.copy()
        if self._quality is not None:
            qs = self._quality
            state.update(
                q_dr=qs.scaling.dr.copy(),
                q_dc=qs.scaling.dc.copy(),
                q_error=qs.scaling.error,
                q_iterations=qs.scaling.iterations,
                q_converged=qs.scaling.converged,
                q_history=list(qs.scaling.history),
                q_rung=qs.scaling.rung,
                q_warm=qs.scaling.warm_started,
                q_min_col_sum=qs.min_column_sum,
                q_certified=qs.certified_quality,
                q_target_met=qs.target_met,
            )
        if self._row_choice is not None:
            state["row_choice"] = self._row_choice.copy()
            state["col_choice"] = self._col_choice.copy()
        if self._matching is not None:
            state["row_match"] = self._matching.row_match.copy()
            state["col_match"] = self._matching.col_match.copy()
        if self._scale_state is not None:
            state["rowtot"] = self._scale_state[0].copy()
            state["colsum"] = self._scale_state[1].copy()
        return state

    @classmethod
    def from_state(
        cls,
        graph: DynamicBipartiteGraph,
        state: dict,
        *,
        backend: Backend | str | None = None,
    ) -> "StreamMatcher":
        """Rebuild a matcher over *graph* from :meth:`export_state`."""
        import json

        m = cls(
            graph,
            float(state["target_quality"]),
            backend=backend,
            topup=bool(state["topup"]),
            exact=bool(state["exact"]),
            max_sweeps=int(state["max_sweeps"]),
        )
        m._rng.bit_generator.state = json.loads(str(state["rng_state"]))
        if "epoch" in state:
            m._epoch = int(state["epoch"])
        if "cold_sweeps" in state:
            m._cold_sweeps = int(state["cold_sweeps"])
        if "prices" in state:
            m._prices = np.ascontiguousarray(
                state["prices"], dtype=np.float64
            )
        if "q_dr" in state:
            scaling = ScalingResult(
                dr=np.asarray(state["q_dr"], dtype=np.float64),
                dc=np.asarray(state["q_dc"], dtype=np.float64),
                error=float(state["q_error"]),
                iterations=int(state["q_iterations"]),
                converged=bool(state["q_converged"]),
                history=tuple(float(h) for h in state["q_history"]),
                rung=str(state["q_rung"]),
                warm_started=bool(state["q_warm"]),
            )
            m._quality = QualityScaling(
                scaling=scaling,
                min_column_sum=float(state["q_min_col_sum"]),
                certified_quality=float(state["q_certified"]),
                target_met=bool(state["q_target_met"]),
            )
        if "row_choice" in state:
            m._row_choice = np.ascontiguousarray(
                state["row_choice"], dtype=np.int64
            )
            m._col_choice = np.ascontiguousarray(
                state["col_choice"], dtype=np.int64
            )
        if "row_match" in state:
            m._matching = Matching(
                np.asarray(state["row_match"], dtype=np.int64),
                np.asarray(state["col_match"], dtype=np.int64),
            )
        if "rowtot" in state:
            m._scale_state = (
                np.ascontiguousarray(state["rowtot"], dtype=np.float64),
                np.ascontiguousarray(state["colsum"], dtype=np.float64),
            )
        return m

    def rematch(self, *, cold: bool = False) -> StreamMatchResult:
        """(Re)compute the matching for the graph's current epoch.

        The first call always runs cold; later calls repair
        incrementally when the graph's journal still covers the span
        since the last processed epoch, falling back to a cold run when
        it does not (or when ``cold=True`` forces one).
        """
        snap = self.graph.snapshot()
        epoch = self.graph.epoch
        dirty = None
        if not cold and self._epoch is not None:
            dirty = self.graph.dirty_since(self._epoch)
        with _tm.span(
            "stream.rematch", mode="cold" if dirty is None else "incremental"
        ) as sp:
            if dirty is None:
                result = self._rematch_cold(snap, epoch)
            else:
                result = self._rematch_incremental(snap, epoch, dirty)
            if _tm.enabled():
                _tm.incr("stream.rematch.runs")
                _tm.incr(f"stream.rematch.{result.mode}")
                _tm.set_gauge("stream.cardinality", result.cardinality)
                _tm.set_gauge("stream.guarantee", result.guarantee)
                sp.set(
                    cardinality=result.cardinality,
                    guarantee=result.guarantee,
                    epoch=epoch,
                )
        return result

    # -- shared pieces -------------------------------------------------

    def _declared_guarantee(self, qs: QualityScaling) -> float:
        # Exactly the target when certified: a warm and a cold run that
        # both clear the bar therefore declare the *same* number, which
        # is what makes differential guarantee checks exact.
        return self.target_quality if qs.target_met else qs.certified_quality

    def _finish(
        self,
        snap: BipartiteGraph,
        epoch: int,
        qs: QualityScaling,
        matching: Matching,
        *,
        mode: str,
        resampled: tuple[int, int],
        repaired: tuple[int, int],
    ) -> StreamMatchResult:
        gain = 0
        exact_gain = 0
        exact_result = None
        if self.exact:
            from repro.matching.exact.auction import auction_match

            before = matching.cardinality
            prices = None
            if self._prices is not None:
                prices = _pad_zeros(self._prices, snap.ncols)
            exact_result = auction_match(
                snap,
                initial=matching,
                prices=prices,
                backend=self._backend,
            )
            matching = exact_result.matching
            self._prices = exact_result.prices
            exact_gain = matching.cardinality - before
            if _tm.enabled():
                _tm.incr("stream.exact.runs")
                _tm.incr("stream.exact.gain", exact_gain)
        elif self.topup:
            from repro.matching.exact.hopcroft_karp import hopcroft_karp

            before = matching.cardinality
            matching = hopcroft_karp(snap, initial=matching)
            gain = matching.cardinality - before
            if _tm.enabled():
                _tm.incr("stream.topup.gain", gain)
        self._epoch = epoch
        self._quality = qs
        self._matching = matching
        result = StreamMatchResult(
            matching=matching,
            quality=qs,
            # An exact repair makes the matching provably maximum; the
            # scaling certificate then only explains the warm start.
            guarantee=1.0 if self.exact else self._declared_guarantee(qs),
            epoch=epoch,
            mode=mode,
            resampled_rows=resampled[0],
            resampled_cols=resampled[1],
            repaired_rows=repaired[0],
            repaired_cols=repaired[1],
            topup_gain=gain,
            exact_gain=exact_gain,
            exact_result=exact_result,
        )
        return result

    # -- cold path -----------------------------------------------------

    def _rematch_cold(
        self, snap: BipartiteGraph, epoch: int
    ) -> StreamMatchResult:
        from repro.stream.rescale import measure_state

        qs = scale_for_quality(
            snap, self.target_quality, max_iterations=self.max_sweeps
        )
        dr, dc = qs.scaling.dr, qs.scaling.dc
        self._scale_state = measure_state(snap, dc)
        row_choice = scaled_row_choices(
            snap, dr, dc, self._rng, backend=self._backend
        )
        col_choice = scaled_col_choices(
            snap, dr, dc, self._rng, backend=self._backend
        )
        matching = karp_sipser_mt_vectorized(row_choice, col_choice)
        self._row_choice = row_choice
        self._col_choice = col_choice
        if self._cold_sweeps is None:
            self._cold_sweeps = qs.scaling.iterations
        return self._finish(
            snap,
            epoch,
            qs,
            matching,
            mode="cold",
            resampled=(snap.nrows, snap.ncols),
            repaired=(snap.nrows, snap.ncols),
        )

    # -- incremental path ----------------------------------------------

    def _rematch_incremental(
        self, snap: BipartiteGraph, epoch: int, dirty
    ) -> StreamMatchResult:
        assert self._quality is not None and self._matching is not None
        prev = self._quality.scaling

        # 1. Warm rescale: localized repair of the previous epoch's
        # column factors (padded with ones if the graph grew) — only the
        # columns the edits disturbed get touched, with one exact global
        # measurement certifying the result.  If the local loop cannot
        # lift every column, fall back to warm-started global sweeps
        # from wherever it got to.
        from repro.stream.rescale import local_rebalance, measure_state

        state = None
        if self._scale_state is not None:
            state = (
                _pad_zeros(self._scale_state[0], snap.nrows),
                _pad_zeros(self._scale_state[1], snap.ncols),
            )
        qs, state = local_rebalance(
            snap,
            _pad_ones(prev.dc, snap.ncols),
            self.target_quality,
            state=state,
            dirty_rows=dirty.rows,
            dirty_cols=dirty.cols,
        )
        if not qs.target_met:
            if _tm.enabled():
                _tm.incr("stream.rebalance.fallbacks")
            qs = scale_for_quality(
                snap,
                self.target_quality,
                max_iterations=self.max_sweeps,
                initial=(qs.scaling.dr, qs.scaling.dc),
            )
            state = measure_state(snap, qs.scaling.dc)
        self._scale_state = state
        if _tm.enabled() and self._cold_sweeps is not None:
            _tm.incr(
                "stream.warm_sweeps_saved",
                max(0, self._cold_sweeps - qs.scaling.iterations),
            )
        dr, dc = qs.scaling.dr, qs.scaling.dc

        # 2. Resample choices for dirty vertices only.  A row pick
        # weights edges by dc alone (the row factor is constant within a
        # row), so gathering just the dirty rows' CSR segments and
        # sampling them with dc weights reproduces the exact
        # distribution; symmetrically for columns with dr.
        from repro.stream.rescale import _gather_segments

        row_choice = _pad(self._row_choice, snap.nrows)
        col_choice = _pad(self._col_choice, snap.ncols)
        if dirty.rows.size:
            cols_d, sub_ptr = _gather_segments(
                snap.row_ptr, snap.col_ind, dirty.rows
            )
            row_choice[dirty.rows] = choices_from_weights(
                sub_ptr, cols_d, dc[cols_d], self._rng,
                backend=self._backend,
            )
        if dirty.cols.size:
            rows_d, sub_ptr = _gather_segments(
                snap.col_ptr, snap.row_ind, dirty.cols
            )
            col_choice[dirty.cols] = choices_from_weights(
                sub_ptr, rows_d, dr[rows_d], self._rng,
                backend=self._backend,
            )

        # 3. Seed set: changed choices, plus matched pairs whose edge is
        # no longer in the choice subgraph (either endpoint redrawn away
        # from it, or the edge itself deleted — deletion dirties both
        # endpoints, so their redraws cannot restore it).
        old_rc = _pad(self._row_choice, snap.nrows)
        old_cc = _pad(self._col_choice, snap.ncols)
        row_match = _pad(self._matching.row_match, snap.nrows)
        col_match = _pad(self._matching.col_match, snap.ncols)
        changed_rows = np.flatnonzero(row_choice != old_rc)
        changed_cols = np.flatnonzero(col_choice != old_cc)
        m_rows = np.flatnonzero(row_match != NIL)
        m_cols = row_match[m_rows]
        in_choice = (row_choice[m_rows] == m_cols) | (
            col_choice[m_cols] == m_rows
        )
        broken_rows = m_rows[~in_choice]
        broken_cols = m_cols[~in_choice]
        nrows = snap.nrows
        seeds = np.concatenate(
            (
                changed_rows,
                broken_rows,
                changed_cols + nrows,
                broken_cols + nrows,
            )
        )

        if seeds.size == 0:
            # Nothing structural changed (e.g. pure growth, or redraws
            # landed on identical picks): keep the matching, refresh the
            # certificate.
            self._row_choice = row_choice
            self._col_choice = col_choice
            matching = Matching(row_match, col_match)
            return self._finish(
                snap,
                epoch,
                qs,
                matching,
                mode="incremental",
                resampled=(int(dirty.rows.size), int(dirty.cols.size)),
                repaired=(0, 0),
            )

        # 4. Components of the new choice subgraph; repair exactly the
        # ones containing a seed.
        labels = _choice_components(row_choice, col_choice)
        n_comp = int(labels.max()) + 1 if labels.size else 0
        hit = np.zeros(n_comp, dtype=bool)
        hit[labels[seeds]] = True
        affected = hit[labels]
        rows_r = np.flatnonzero(affected[:nrows])
        cols_r = np.flatnonzero(affected[nrows:])

        # Compact the affected slice into a local id space and rerun
        # Karp–Sipser there.  Choice edges never leave a component, so
        # every referenced target has a local id.
        row_local = np.full(nrows, NIL, dtype=np.int64)
        row_local[rows_r] = np.arange(rows_r.shape[0])
        col_local = np.full(snap.ncols, NIL, dtype=np.int64)
        col_local[cols_r] = np.arange(cols_r.shape[0])
        sub_rc = _masked_gather(row_choice[rows_r], col_local)
        sub_cc = _masked_gather(col_choice[cols_r], row_local)
        sub_match = karp_sipser_mt_vectorized(sub_rc, sub_cc)

        # 5. Merge: retained pairs live wholly in untouched components
        # (a matched pair is a choice edge, hence component-internal),
        # so the two halves are vertex-disjoint by construction.
        row_match[rows_r] = _masked_gather(sub_match.row_match, cols_r)
        col_match[cols_r] = _masked_gather(sub_match.col_match, rows_r)
        matching = Matching(row_match, col_match)

        if _tm.enabled():
            _tm.set_gauge("stream.dirty.rows", int(dirty.rows.size))
            _tm.set_gauge("stream.dirty.cols", int(dirty.cols.size))
            _tm.set_gauge("stream.repaired.rows", int(rows_r.size))
            _tm.set_gauge("stream.repaired.cols", int(cols_r.size))
            total = nrows + snap.ncols
            if total:
                _tm.set_gauge(
                    "stream.repaired.fraction",
                    (int(rows_r.size) + int(cols_r.size)) / total,
                )

        self._row_choice = row_choice
        self._col_choice = col_choice
        return self._finish(
            snap,
            epoch,
            qs,
            matching,
            mode="incremental",
            resampled=(int(dirty.rows.size), int(dirty.cols.size)),
            repaired=(int(rows_r.size), int(cols_r.size)),
        )
