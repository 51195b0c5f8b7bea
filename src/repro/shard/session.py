"""One shard's steps of the sharded pipeline: slice, kernels, replica.

A :class:`ShardSession` holds one :class:`~repro.shard.partition.ShardSlice`,
the line layouts of its rebased CSC/CSR slices, and — once armed — a
replicated :class:`~repro.shard.reconcile.ReconcileState`.  Its methods
take and return numpy arrays and are the shard steps of the one driver in
:mod:`repro.shard.pipeline`.  In process the driver calls K sessions
directly; in the daemon transport each session lives in a serving daemon
(a ``shard_open`` verb builds it) and every method is one ``shard_*``
verb's body, with the JSON codec in :mod:`repro.serve.daemon` (server
side) and :mod:`repro.shard.daemon_tier` (client side).

The split between *pure* steps (``col_sweep``, ``row_sweep``,
``uniform_error``, ``choices``, ``scan`` — deterministic functions of
their arguments and the armed state, safe to re-run) and *mutating* steps
(``arm``, ``commit``, ``finish`` — journaled write-ahead by the daemon's
registry) is what lets a SIGKILLed shard daemon recover to the exact
replicated state its peers hold: replaying the journal re-runs ``arm`` and
the committed rounds, and ``finish`` (phase 2) is idempotent by
construction.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from .._typing import NIL, FloatArray, IndexArray
from ..errors import ShardError
from ..graph.csr import line_layout
from ..parallel.kernels import kernel_chunk_override, run_kernel
from .partition import ShardSlice, shard_slice
from .reconcile import ReconcileState

__all__ = ["ShardSession"]


def _slice_choices(
    n_local: int,
    ptr: IndexArray,
    ind: IndexArray,
    opp: FloatArray,
    draws: FloatArray | None,
    chunk: int,
) -> IndexArray:
    if draws is None:
        return np.full(n_local, NIL, dtype=np.int64)
    out = np.empty(n_local, dtype=np.int64)
    # The choice kernel's cumsum is chunk-local; forcing the coordinator's
    # chunk makes the rebased slice's grid the global grid shifted by the
    # (chunk-aligned) slice start — identical picks, bit for bit.
    with kernel_chunk_override(chunk):
        run_kernel(
            "choice_scaled", n_local,
            {"ptr": ptr, "ind": ind, "opp": opp, "draws": draws, "out": out},
        )
    return out


class ShardSession:
    """One shard: slice + SK line layouts + reconcile replica.

    The SK steps run the registered ``sk_sweep``/``sk_sweep_err`` kernels
    over the line layouts of the rebased slices against replicated
    opposite-side vectors, so per line the arithmetic is literally the
    serial kernel's — the same left-to-right fold over the same ascending
    neighbours, the same reciprocal.
    """

    def __init__(self, spec: Any, shard: ShardSlice) -> None:
        self.spec = spec
        self.shard = shard
        self.cols = line_layout(shard.col_ptr, shard.row_ind)._asdict()
        self.rows = line_layout(shard.row_ptr, shard.col_ind)._asdict()
        self.state: ReconcileState | None = None

    @classmethod
    def build(
        cls,
        graph: Any,
        spec: Any,
        n_shards: int,
        index: int,
        *,
        chunk_rows: int | None = None,
        chunk_cols: int | None = None,
    ) -> "ShardSession":
        shard = shard_slice(
            graph,
            int(n_shards),
            int(index),
            chunk_rows=None if chunk_rows is None else int(chunk_rows),
            chunk_cols=None if chunk_cols is None else int(chunk_cols),
        )
        return cls(spec, shard)

    def info(self) -> dict[str, Any]:
        s = self.shard
        return {
            "index": s.index,
            "n_shards": s.n_shards,
            "nrows": s.nrows,
            "ncols": s.ncols,
            "row_lo": s.row_lo,
            "row_hi": s.row_hi,
            "col_lo": s.col_lo,
            "col_hi": s.col_hi,
            "csr_nnz": s.csr_nnz,
            "csc_nnz": s.csc_nnz,
            "frontier": s.frontier_size,
        }

    # -- pure steps (never journaled; deterministic in their inputs) -----

    def col_sweep(
        self, dr_full: FloatArray, dc_own: FloatArray
    ) -> tuple[FloatArray, float]:
        """The shard-local piece of the serial fused column pass: the next
        owned-column factors and the local max column-sum error of the
        *current* ``(dr, dc)``.  Row ids in the CSC slice are global, so
        ``dr_full`` is the whole replicated vector; ``dc_own`` is this
        shard's block."""
        n_local = self.shard.n_local_cols
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
        dr_own = np.empty(self.shard.n_local_rows, dtype=np.float64)
        run_kernel(
            "sk_sweep", self.shard.n_local_rows,
            {**self.rows, "opp": dc_full, "out": dr_own},
        )
        return dr_own

    def uniform_error(self) -> float:
        """Owned-column piece of ``column_sum_error(graph, ones, ones)`` —
        what the serial non-finite fallback reports.  A column of degree
        ``d`` sums ``d`` ones exactly, so ``|float(d) - 1|`` reproduces the
        serial ``segment_sums`` result bit for bit."""
        deg = np.diff(self.shard.col_ptr)
        nonempty = deg > 0
        if not nonempty.any():
            return 0.0
        return float(np.abs(deg[nonempty].astype(np.float64) - 1.0).max())

    def choices(
        self, which: str, opp: FloatArray, draws: FloatArray | None
    ) -> IndexArray:
        """Owned-row (``"row"``) or owned-column (``"col"``) block of the
        serial scaled choices; *draws* is this shard's block of the global
        draws, or ``None`` for an axis the serial path leaves all-NIL."""
        s = self.shard
        if which == "row":
            return _slice_choices(
                s.n_local_rows, s.row_ptr, s.col_ind, opp, draws, s.chunk_rows
            )
        if which == "col":
            return _slice_choices(
                s.n_local_cols, s.col_ptr, s.row_ind, opp, draws, s.chunk_cols
            )
        raise ShardError(
            f"unknown choices kind {which!r}; expected 'row' or 'col'"
        )

    def scan(self) -> tuple[IndexArray, IndexArray]:
        """Out-one candidates among the owned rows, then owned columns."""
        state = self.require_state()
        s = self.shard
        return (
            state.scan_range(s.row_lo, s.row_hi),
            state.scan_range(s.nrows + s.col_lo, s.nrows + s.col_hi),
        )

    # -- mutating steps (journaled write-ahead by the daemon registry) ---

    def arm(
        self, row_choice: IndexArray, col_choice: IndexArray
    ) -> dict[str, Any]:
        s = self.shard
        if row_choice.shape[0] != s.nrows or col_choice.shape[0] != s.ncols:
            raise ShardError(
                f"arm expects full global choice vectors ({s.nrows} rows,"
                f" {s.ncols} cols); got {row_choice.shape[0]} and"
                f" {col_choice.shape[0]}"
            )
        self.state = ReconcileState.from_choices(row_choice, col_choice)
        return {"armed": True, "rounds": 0}

    def commit(self, candidates: IndexArray) -> dict[str, Any]:
        state = self.require_state()
        committed = state.commit(candidates)
        return {"committed": committed, "rounds": state.rounds}

    def finish(self) -> dict[str, Any]:
        """Phase 2 + digest, plus the match array under ``"match"``.
        Idempotent: phase 2 re-run on its own output matches nothing new,
        so a journal replay that repeats ``finish`` converges to the same
        match array and checksum."""
        state = self.require_state()
        state.phase2()
        return {
            "checksum": hashlib.sha256(state.match.tobytes()).hexdigest(),
            "matched": int(
                np.count_nonzero(state.match[: state.nrows] != NIL)
            ),
            "rounds": state.rounds,
            "match": state.match,
        }

    def require_state(self) -> ReconcileState:
        if self.state is None:
            raise ShardError(
                "shard session is not armed; send 'shard_arm' with the"
                " global choice vectors first"
            )
        return self.state

    # -- checkpoint plumbing ---------------------------------------------

    def export_state(self) -> dict[str, Any]:
        s = self.shard
        return {
            "graph": self.spec,
            "n_shards": s.n_shards,
            "index": s.index,
            "chunk_rows": s.chunk_rows,
            "chunk_cols": s.chunk_cols,
            "state": None if self.state is None else self.state.export_state(),
        }

    @classmethod
    def import_state(cls, state: dict[str, Any], cache: Any) -> "ShardSession":
        from ..serve.daemon import build_graph

        session = cls.build(
            build_graph(state["graph"], cache),
            state["graph"],
            int(state["n_shards"]),
            int(state["index"]),
            chunk_rows=int(state["chunk_rows"]),
            chunk_cols=int(state["chunk_cols"]),
        )
        if state.get("state") is not None:
            session.state = ReconcileState.import_state(state["state"])
        return session
