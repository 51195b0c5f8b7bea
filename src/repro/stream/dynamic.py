"""``DynamicBipartiteGraph`` — a versioned, editable bipartite graph.

The core library's :class:`~repro.graph.BipartiteGraph` is deliberately
immutable (every algorithm sweeps frozen CSR/CSC arrays).  Streaming
workloads instead evolve one logical graph through batches of edge
insertions/deletions and occasional vertex growth.  This container keeps
the *edge set* in a form that is cheap to edit and turns it into an
immutable CSR snapshot lazily, caching one snapshot per epoch:

* edges are stored as a sorted ``int64`` key array ``(i << 32) | j`` —
  key order **is** CSR order (row-major, columns ascending), so a
  snapshot is a decode + ``bincount``, with no per-edge Python work;
* every mutating call that changes the edge set (or grows the vertex
  sets) bumps :attr:`epoch`;
* a bounded journal records which rows/columns each epoch touched, so an
  incremental consumer (:class:`~repro.stream.StreamMatcher`) can ask
  :meth:`dirty_since` for exactly the vertices whose adjacency changed
  since the epoch it last processed.  When the journal has been trimmed
  past the requested epoch the answer is ``None`` — "too far behind,
  recompute cold" — so the journal can stay bounded without ever lying.

The key packing (either id may occupy the high half, since a
column-major mirror is kept too) caps both dimensions at ``2**31``, far
beyond anything the in-memory algorithms handle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro._typing import IndexArray
from repro.errors import GraphStructureError, ShapeError
from repro.graph.csr import BipartiteGraph

__all__ = ["DynamicBipartiteGraph", "DirtySet"]

_MAX_ROWS = 1 << 31
_MAX_COLS = 1 << 31
_COL_MASK = np.int64((1 << 32) - 1)


@dataclass(frozen=True)
class DirtySet:
    """Rows/columns whose adjacency changed over a span of epochs."""

    #: Unique, sorted row ids with at least one incident edit.
    rows: IndexArray
    #: Unique, sorted column ids with at least one incident edit.
    cols: IndexArray

    @property
    def empty(self) -> bool:
        return self.rows.size == 0 and self.cols.size == 0


class DynamicBipartiteGraph:
    """A bipartite graph under edits, with epoch-stamped CSR snapshots.

    Parameters
    ----------
    base:
        Optional :class:`~repro.graph.BipartiteGraph` to seed the edge
        set from (copied; the base stays untouched).
    nrows, ncols:
        Dimensions when starting from an empty edge set (ignored when
        *base* is given).
    journal_limit:
        Maximum number of edit epochs remembered for
        :meth:`dirty_since`; older history is forgotten (consumers then
        fall back to a cold recompute).
    """

    def __init__(
        self,
        base: BipartiteGraph | None = None,
        *,
        nrows: int = 0,
        ncols: int = 0,
        journal_limit: int = 64,
    ) -> None:
        if base is not None:
            nrows, ncols = base.nrows, base.ncols
        nrows, ncols = int(nrows), int(ncols)
        if nrows < 0 or ncols < 0:
            raise ShapeError(f"negative dimensions: {nrows} x {ncols}")
        if nrows > _MAX_ROWS or ncols > _MAX_COLS:
            raise ShapeError(
                f"dynamic graphs cap at {_MAX_ROWS} rows x {_MAX_COLS} "
                f"columns (key packing), got {nrows} x {ncols}"
            )
        if journal_limit < 1:
            raise ShapeError(
                f"journal_limit must be >= 1, got {journal_limit}"
            )
        self._nrows = nrows
        self._ncols = ncols
        if base is not None and base.nnz:
            rows = base.row_of_edge().astype(np.int64)
            self._keys = (rows << 32) | base.col_ind
            # Column-major mirror, maintained incrementally so snapshots
            # never sort: CSC order is exactly ascending (col, row) keys.
            self._keys_t = np.sort((base.col_ind << 32) | rows)
        else:
            self._keys = np.empty(0, dtype=np.int64)
            self._keys_t = np.empty(0, dtype=np.int64)
        self._epoch = 0
        #: (epoch, dirty_rows, dirty_cols) per mutation, newest last.
        self._journal: deque[tuple[int, IndexArray, IndexArray]] = deque(
            maxlen=journal_limit
        )
        #: Oldest epoch ``dirty_since`` can still answer from.
        self._journal_floor = 0
        self._snapshot: BipartiteGraph | None = None
        self._snapshot_epoch = -1

    # -- properties ----------------------------------------------------

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        return (self._nrows, self._ncols)

    @property
    def nnz(self) -> int:
        return int(self._keys.shape[0])

    @property
    def epoch(self) -> int:
        """Version counter; bumps once per mutating call that changed
        anything."""
        return self._epoch

    def has_edge(self, i: int, j: int) -> bool:
        if not (0 <= i < self._nrows and 0 <= j < self._ncols):
            return False
        key = np.int64((int(i) << 32) | int(j))
        pos = int(np.searchsorted(self._keys, key))
        return pos < self._keys.shape[0] and self._keys[pos] == key

    # -- mutation ------------------------------------------------------

    def _edit_keys(self, rows: object, cols: object, what: str) -> IndexArray:
        r = np.asarray(rows, dtype=np.int64).ravel()
        c = np.asarray(cols, dtype=np.int64).ravel()
        if r.shape != c.shape:
            raise ShapeError(
                f"{what}: rows and cols differ in length: "
                f"{r.shape} vs {c.shape}"
            )
        if r.size:
            if r.min() < 0 or r.max() >= self._nrows:
                raise GraphStructureError(
                    f"{what}: row indices out of range [0, {self._nrows})"
                )
            if c.min() < 0 or c.max() >= self._ncols:
                raise GraphStructureError(
                    f"{what}: column indices out of range [0, {self._ncols})"
                )
        return np.unique((r << 32) | c)

    def _membership(self, keys: IndexArray) -> np.ndarray:
        """Boolean mask: which of the (sorted, unique) *keys* exist."""
        if self._keys.size == 0 or keys.size == 0:
            return np.zeros(keys.shape[0], dtype=bool)
        pos = np.searchsorted(self._keys, keys)
        inside = pos < self._keys.shape[0]
        hit = np.zeros(keys.shape[0], dtype=bool)
        hit[inside] = self._keys[pos[inside]] == keys[inside]
        return hit

    def _commit(self, touched: IndexArray) -> None:
        """Record one mutation: bump the epoch and journal the dirty sets."""
        self._epoch += 1
        dirty_rows = np.unique(touched >> 32)
        dirty_cols = np.unique(touched & _COL_MASK)
        self._journal.append((self._epoch, dirty_rows, dirty_cols))
        if len(self._journal) == self._journal.maxlen:
            self._journal_floor = self._journal[0][0] - 1

    @staticmethod
    def _transpose_keys(keys: IndexArray) -> IndexArray:
        """Row-major edge keys -> sorted column-major keys."""
        return np.sort(((keys & _COL_MASK) << 32) | (keys >> 32))

    def add_edges(self, rows: object, cols: object) -> int:
        """Insert edges; duplicates of existing edges are ignored.

        Returns the number of edges actually added.  The epoch bumps
        only when the edge set changed.
        """
        keys = self._edit_keys(rows, cols, "add_edges")
        new = keys[~self._membership(keys)]
        if new.size == 0:
            return 0
        self._keys = np.insert(
            self._keys, np.searchsorted(self._keys, new), new
        )
        new_t = self._transpose_keys(new)
        self._keys_t = np.insert(
            self._keys_t, np.searchsorted(self._keys_t, new_t), new_t
        )
        self._commit(new)
        return int(new.size)

    def remove_edges(
        self, rows: object, cols: object, *, strict: bool = True
    ) -> int:
        """Delete edges.  Returns the number removed.

        With ``strict=True`` (default) deleting a non-existent edge
        raises :class:`~repro.errors.GraphStructureError`; with
        ``strict=False`` missing edges are silently skipped.
        """
        keys = self._edit_keys(rows, cols, "remove_edges")
        present = self._membership(keys)
        if strict and not present.all():
            missing = keys[~present][0]
            raise GraphStructureError(
                f"remove_edges: edge ({int(missing) >> 32}, "
                f"{int(missing) & int(_COL_MASK)}) does not exist "
                f"(pass strict=False to ignore)"
            )
        gone = keys[present]
        if gone.size == 0:
            return 0
        keep = np.ones(self._keys.shape[0], dtype=bool)
        keep[np.searchsorted(self._keys, gone)] = False
        self._keys = self._keys[keep]
        gone_t = self._transpose_keys(gone)
        keep_t = np.ones(self._keys_t.shape[0], dtype=bool)
        keep_t[np.searchsorted(self._keys_t, gone_t)] = False
        self._keys_t = self._keys_t[keep_t]
        self._commit(gone)
        return int(gone.size)

    def grow(self, nrows: int | None = None, ncols: int | None = None) -> None:
        """Extend the vertex sets (shrinking is not supported).

        New vertices start with no incident edges, so nothing becomes
        dirty; the epoch still bumps so snapshots refresh.
        """
        new_rows = self._nrows if nrows is None else int(nrows)
        new_cols = self._ncols if ncols is None else int(ncols)
        if new_rows < self._nrows or new_cols < self._ncols:
            raise ShapeError(
                f"grow can only extend dimensions: {self.shape} -> "
                f"({new_rows}, {new_cols})"
            )
        if new_rows > _MAX_ROWS or new_cols > _MAX_COLS:
            raise ShapeError(
                f"dynamic graphs cap at {_MAX_ROWS} rows x {_MAX_COLS} "
                f"columns (key packing)"
            )
        if (new_rows, new_cols) == self.shape:
            return
        self._nrows, self._ncols = new_rows, new_cols
        self._epoch += 1
        empty = np.empty(0, dtype=np.int64)
        self._journal.append((self._epoch, empty, empty))
        if len(self._journal) == self._journal.maxlen:
            self._journal_floor = self._journal[0][0] - 1

    # -- reads ---------------------------------------------------------

    def snapshot(self) -> BipartiteGraph:
        """The current edge set as an immutable CSR graph.

        Lazy and epoch-cached: repeated calls between edits return the
        same object, and the decode is pure numpy (the sorted key array
        is already in CSR order).
        """
        if self._snapshot is not None and self._snapshot_epoch == self._epoch:
            return self._snapshot
        row_ptr = np.zeros(self._nrows + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self._keys >> 32, minlength=self._nrows),
            out=row_ptr[1:],
        )
        col_ptr = np.zeros(self._ncols + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self._keys_t >> 32, minlength=self._ncols),
            out=col_ptr[1:],
        )
        # Assemble both views directly (the transpose() idiom): the two
        # key arrays are already in CSR resp. CSC order, so the usual
        # constructor's O(nnz log nnz) mirror sort would be pure waste.
        g = BipartiteGraph.__new__(BipartiteGraph)
        g.nrows = self._nrows
        g.ncols = self._ncols
        g.row_ptr = row_ptr
        g.col_ind = self._keys & _COL_MASK
        g.col_ptr = col_ptr
        g.row_ind = self._keys_t & _COL_MASK
        g._row_of_edge = None
        g._layouts = [None, None]
        for arr in (g.row_ptr, g.col_ind, g.col_ptr, g.row_ind):
            arr.flags.writeable = False
        self._snapshot = g
        self._snapshot_epoch = self._epoch
        return self._snapshot

    # -- durability ----------------------------------------------------

    def export_state(self) -> dict:
        """Serializable image of the complete mutable state.

        Values are JSON-able scalars or numpy arrays (the checkpoint
        layer splits them accordingly).  The edit journal rides along so
        a restored graph answers :meth:`dirty_since` exactly as the
        original would — consumers left behind by the crash still get a
        truthful "too far back, go cold" answer.
        """
        epochs = np.array([e for e, _, _ in self._journal], dtype=np.int64)
        rows = [r for _, r, _ in self._journal]
        cols = [c for _, _, c in self._journal]
        empty = np.empty(0, dtype=np.int64)
        row_ptr = np.cumsum([0] + [r.size for r in rows], dtype=np.int64)
        col_ptr = np.cumsum([0] + [c.size for c in cols], dtype=np.int64)
        return {
            "nrows": self._nrows,
            "ncols": self._ncols,
            "epoch": self._epoch,
            "journal_floor": self._journal_floor,
            "journal_limit": int(self._journal.maxlen or 1),
            "keys": self._keys.copy(),
            "journal_epochs": epochs,
            "journal_rows": np.concatenate(rows) if rows else empty,
            "journal_row_ptr": row_ptr,
            "journal_cols": np.concatenate(cols) if cols else empty,
            "journal_col_ptr": col_ptr,
        }

    @classmethod
    def from_state(cls, state: dict) -> "DynamicBipartiteGraph":
        """Rebuild a graph from :meth:`export_state` output.

        Raises :class:`~repro.errors.GraphStructureError` when the
        state image is internally inconsistent (keys out of range or
        unsorted — the symptom of a corrupted checkpoint).
        """
        g = cls(
            nrows=int(state["nrows"]),
            ncols=int(state["ncols"]),
            journal_limit=int(state["journal_limit"]),
        )
        keys = np.ascontiguousarray(state["keys"], dtype=np.int64)
        if keys.size:
            if np.any(np.diff(keys) <= 0):
                raise GraphStructureError(
                    "restored edge keys are not strictly increasing"
                )
            if (
                int(keys[-1] >> 32) >= g._nrows
                or int((keys & _COL_MASK).max()) >= g._ncols
            ):
                raise GraphStructureError(
                    "restored edge keys reference vertices out of range"
                )
        g._keys = keys
        g._keys_t = cls._transpose_keys(keys)
        g._epoch = int(state["epoch"])
        g._journal_floor = int(state["journal_floor"])
        epochs = np.asarray(state["journal_epochs"], dtype=np.int64)
        jr = np.asarray(state["journal_rows"], dtype=np.int64)
        jrp = np.asarray(state["journal_row_ptr"], dtype=np.int64)
        jc = np.asarray(state["journal_cols"], dtype=np.int64)
        jcp = np.asarray(state["journal_col_ptr"], dtype=np.int64)
        for k, ep in enumerate(epochs):
            g._journal.append(
                (
                    int(ep),
                    jr[jrp[k] : jrp[k + 1]].copy(),
                    jc[jcp[k] : jcp[k + 1]].copy(),
                )
            )
        return g

    def dirty_since(self, epoch: int) -> DirtySet | None:
        """Union of dirty rows/columns over epochs ``(epoch, current]``.

        Returns ``None`` when the journal no longer reaches back to
        *epoch* (the caller is too far behind and must recompute cold).
        """
        epoch = int(epoch)
        if epoch > self._epoch:
            raise ShapeError(
                f"dirty_since({epoch}) is ahead of the current epoch "
                f"{self._epoch}"
            )
        if epoch < self._journal_floor:
            return None
        rows = [e[1] for e in self._journal if e[0] > epoch]
        cols = [e[2] for e in self._journal if e[0] > epoch]
        empty = np.empty(0, dtype=np.int64)
        return DirtySet(
            rows=np.unique(np.concatenate(rows)) if rows else empty,
            cols=np.unique(np.concatenate(cols)) if cols else empty,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicBipartiteGraph(nrows={self._nrows}, "
            f"ncols={self._ncols}, nnz={self.nnz}, epoch={self._epoch})"
        )
