"""Dual CSR/CSC storage for the pattern of a (0,1) sparse matrix.

:class:`BipartiteGraph` is the container every algorithm in this library
operates on.  It stores the *pattern* only — the paper's matrices are (0,1)
matrices, and the scaled values ``s_ij = dr[i] · dc[j]`` are always derived
on the fly from the scaling vectors, never materialised per-edge unless a
kernel asks for them.

Both a row-major (CSR) and a column-major (CSC) view are kept so that row
algorithms (``OneSidedMatch`` row choices, row normalisation) and column
algorithms (column choices, column sums in Sinkhorn–Knopp) are both
contiguous sweeps — the cache-friendliness guidance of the HPC notes.

For the Sinkhorn–Knopp sweeps each side also has a :class:`LineLayout`,
built on first use and cached: the adjacency lists sorted by degree and
stored rank by rank, so a chunk of lines sums its neighbours with one
contiguous vector add per rank instead of one reduction per line.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro._typing import BoolArray, FloatArray, IndexArray
from repro.errors import GraphStructureError, ShapeError

__all__ = ["BipartiteGraph", "LineLayout", "line_layout", "missing_edges"]


def _as_index_array(a: object, name: str) -> IndexArray:
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise GraphStructureError(f"{name} must be an integer array, got {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _csr_to_csc(
    nrows: int, ncols: int, row_ptr: IndexArray, col_ind: IndexArray
) -> tuple[IndexArray, IndexArray]:
    """Build the CSC mirror of a CSR pattern with a counting sort (O(nnz))."""
    nnz = int(col_ind.shape[0])
    col_counts = np.bincount(col_ind, minlength=ncols)
    col_ptr = np.zeros(ncols + 1, dtype=np.int64)
    np.cumsum(col_counts, out=col_ptr[1:])
    row_of_edge = np.repeat(
        np.arange(nrows, dtype=np.int64), np.diff(row_ptr)
    )
    # Stable sort by column puts edges in CSC order with rows ascending
    # within each column (because CSR order is row-ascending).
    order = np.argsort(col_ind, kind="stable")
    row_ind = row_of_edge[order]
    if row_ind.shape[0] != nnz:  # pragma: no cover - internal consistency
        raise GraphStructureError("CSC construction lost edges")
    return col_ptr, row_ind


class LineLayout(NamedTuple):
    """Degree-sorted, rank-major layout of one side's adjacency lists.

    The sliced-ELL idea of SELL-C-σ (Kreutzer, Hager, Wellein, Fehske
    and Bishop, SIAM J. Sci. Comput. 2014) with one slice: line ``perm[p]``
    sits at sorted position ``p``, and its ``k``-th neighbour (ascending
    order) is ``rind[off[k] + p]`` where ``off`` is the exclusive prefix
    sum of *counts*.  Because degrees descend with ``p``, the lines with
    more than ``k`` neighbours are exactly positions ``[0, counts[k])``,
    so summing a run of positions is one contiguous gather-and-add per
    rank, left to right — each line's sum in ascending neighbour order.
    """

    #: Lines sorted by degree, descending; ties keep ascending line order.
    perm: IndexArray
    #: Rank-major neighbours: block ``k`` holds the ``k``-th neighbour of
    #: every line with more than ``k`` neighbours, in sorted order.
    rind: IndexArray
    #: ``counts[k]`` = number of lines with more than ``k`` neighbours.
    counts: IndexArray


def _degree_order(deg: IndexArray) -> IndexArray:
    """Stable argsort of *deg*, descending, in linear time.

    numpy's stable sort is a radix sort on 16-bit keys, so the
    descending key ``max - deg`` is sorted one 16-bit digit at a time,
    least significant first (one pass unless a line has 65,536 or more
    neighbours).
    """
    key = int(deg.max()) - deg
    perm = np.argsort((key & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while (key >> shift).any():
        digit = ((key[perm] >> shift) & 0xFFFF).astype(np.uint16)
        perm = perm[np.argsort(digit, kind="stable")]
        shift += 16
    return perm


def missing_edges(
    row_ptr: IndexArray,
    col_ind: IndexArray,
    ncols: int,
    rows: IndexArray,
    cols: IndexArray,
) -> BoolArray:
    """Mask of the pairs ``(rows[k], cols[k])`` that are not entries of the
    CSR pattern ``(row_ptr, col_ind)`` with *ncols* columns.

    One ``searchsorted`` of the pairs' ``row·ncols + col`` keys in the
    pattern's keys, which ascend because every row's columns do.  Rows
    must lie in ``[0, len(row_ptr) - 1)``; a column outside
    ``[0, ncols)`` counts as missing.
    """
    n = row_ptr.shape[0] - 1
    keys = np.repeat(np.arange(n, dtype=np.int64) * ncols, np.diff(row_ptr))
    keys += col_ind
    want = rows * ncols + cols
    pos = np.searchsorted(keys, want)
    found = (cols >= 0) & (cols < ncols) & (pos < keys.shape[0])
    found[found] = keys[pos[found]] == want[found]
    return ~found


def line_layout(ptr: IndexArray, ind: IndexArray) -> LineLayout:
    """The :class:`LineLayout` of the CSR-style lists ``ind[ptr[i]:ptr[i+1]]``.

    O(n + nnz): a stable radix sort by degree, then one gather of *ind*.
    The returned arrays are read-only.
    """
    n = int(ptr.shape[0]) - 1
    deg = np.diff(ptr)
    if n == 0 or not ind.shape[0]:
        perm = np.arange(n, dtype=np.int64)
        rind = np.zeros(0, dtype=np.int64)
        counts = np.zeros(0, dtype=np.int64)
    else:
        perm = _degree_order(deg)
        max_deg = int(deg[perm[0]])
        counts = n - np.cumsum(np.bincount(deg, minlength=max_deg + 1))[:max_deg]
        # Entry e of the rank-major array is rank k's neighbour of the
        # line at sorted position e - off[k].
        rank = np.repeat(np.arange(max_deg, dtype=np.int64), counts)
        off = np.zeros(max_deg, dtype=np.int64)
        np.cumsum(counts[:-1], out=off[1:])
        pos = np.arange(rank.shape[0], dtype=np.int64) - off[rank]
        rind = ind[ptr[perm][pos] + rank]
    for arr in (perm, rind, counts):
        arr.flags.writeable = False
    return LineLayout(perm, rind, counts)


class BipartiteGraph:
    """Immutable bipartite graph / (0,1)-matrix pattern with CSR+CSC views.

    Parameters
    ----------
    nrows, ncols:
        Number of row vertices and column vertices.
    row_ptr, col_ind:
        CSR arrays: ``col_ind[row_ptr[i]:row_ptr[i+1]]`` are the column
        neighbours of row ``i``, sorted ascending, without duplicates.
    validate:
        When true (default), check the structural invariants.  Generators
        that construct provably valid CSR can pass ``False`` to skip the
        O(nnz) check.

    Notes
    -----
    Instances are treated as immutable: the underlying numpy arrays are
    marked non-writeable.  All derived quantities (CSC mirror, degrees) are
    computed once in the constructor.
    """

    __slots__ = (
        "nrows",
        "ncols",
        "row_ptr",
        "col_ind",
        "col_ptr",
        "row_ind",
        "_row_of_edge",
        "_layouts",
    )

    def __init__(
        self,
        nrows: int,
        ncols: int,
        row_ptr: object,
        col_ind: object,
        *,
        validate: bool = True,
    ) -> None:
        nrows = int(nrows)
        ncols = int(ncols)
        if nrows < 0 or ncols < 0:
            raise ShapeError(f"negative dimensions: {nrows} x {ncols}")
        rp = _as_index_array(row_ptr, "row_ptr")
        ci = _as_index_array(col_ind, "col_ind")
        if rp.shape[0] != nrows + 1:
            raise ShapeError(
                f"row_ptr has length {rp.shape[0]}, expected nrows+1={nrows + 1}"
            )
        if validate:
            self._validate_csr(nrows, ncols, rp, ci)
        self.nrows = nrows
        self.ncols = ncols
        self.row_ptr = rp
        self.col_ind = ci
        cp, ri = _csr_to_csc(nrows, ncols, rp, ci)
        self.col_ptr = cp
        self.row_ind = ri
        self._row_of_edge: IndexArray | None = None
        self._layouts: list[LineLayout | None] = [None, None]
        for arr in (self.row_ptr, self.col_ind, self.col_ptr, self.row_ind):
            arr.flags.writeable = False

    @staticmethod
    def _validate_csr(
        nrows: int, ncols: int, row_ptr: IndexArray, col_ind: IndexArray
    ) -> None:
        if row_ptr[0] != 0:
            raise GraphStructureError("row_ptr[0] must be 0")
        if row_ptr[-1] != col_ind.shape[0]:
            raise GraphStructureError(
                f"row_ptr[-1]={row_ptr[-1]} does not match nnz={col_ind.shape[0]}"
            )
        if np.any(np.diff(row_ptr) < 0):
            raise GraphStructureError("row_ptr must be nondecreasing")
        if col_ind.size:
            if col_ind.min() < 0 or col_ind.max() >= ncols:
                raise GraphStructureError(
                    f"column indices out of range [0, {ncols})"
                )
            # Sorted + strictly increasing within each row <=> sorted overall
            # except at row boundaries, and no duplicates within a row.
            inner = np.ones(col_ind.shape[0], dtype=bool)
            boundaries = row_ptr[1:-1]
            # Boundaries at nnz (trailing empty rows) are beyond the diffs.
            inner[boundaries[boundaries < col_ind.shape[0]]] = False
            diffs_ok = np.diff(col_ind) > 0
            if not np.all(diffs_ok | ~inner[1:]):
                raise GraphStructureError(
                    "column indices must be strictly increasing within each row"
                )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape ``(nrows, ncols)``."""
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        """Number of edges (nonzeros)."""
        return int(self.col_ind.shape[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def row_degrees(self) -> IndexArray:
        """Degree of every row vertex (length ``nrows``)."""
        return np.diff(self.row_ptr)

    def col_degrees(self) -> IndexArray:
        """Degree of every column vertex (length ``ncols``)."""
        return np.diff(self.col_ptr)

    def row_of_edge(self) -> IndexArray:
        """Row index of each CSR-ordered edge (length ``nnz``); cached."""
        if self._row_of_edge is None:
            roe = np.repeat(
                np.arange(self.nrows, dtype=np.int64), np.diff(self.row_ptr)
            )
            roe.flags.writeable = False
            self._row_of_edge = roe
        return self._row_of_edge

    def row_layout(self) -> LineLayout:
        """The rows' :class:`LineLayout` (neighbours are columns); cached."""
        if self._layouts[0] is None:
            self._layouts[0] = line_layout(self.row_ptr, self.col_ind)
        return self._layouts[0]

    def col_layout(self) -> LineLayout:
        """The columns' :class:`LineLayout` (neighbours are rows); cached."""
        if self._layouts[1] is None:
            self._layouts[1] = line_layout(self.col_ptr, self.row_ind)
        return self._layouts[1]

    # ------------------------------------------------------------------
    # Neighbour access
    # ------------------------------------------------------------------
    def row_neighbors(self, i: int) -> IndexArray:
        """Columns adjacent to row ``i`` (a read-only view, sorted)."""
        return self.col_ind[self.row_ptr[i] : self.row_ptr[i + 1]]

    def col_neighbors(self, j: int) -> IndexArray:
        """Rows adjacent to column ``j`` (a read-only view, sorted)."""
        return self.row_ind[self.col_ptr[j] : self.col_ptr[j + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        """True iff ``a_ij = 1``.  O(log deg(i))."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            return False
        nbrs = self.row_neighbors(i)
        pos = int(np.searchsorted(nbrs, j))
        return pos < nbrs.shape[0] and int(nbrs[pos]) == j

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield ``(row, col)`` pairs in CSR order.  Intended for tests and
        small graphs; hot paths use the arrays directly."""
        roe = self.row_of_edge()
        for k in range(self.nnz):
            yield int(roe[k]), int(self.col_ind[k])

    # ------------------------------------------------------------------
    # Conversions / derived graphs
    # ------------------------------------------------------------------
    def transpose(self) -> "BipartiteGraph":
        """The transposed pattern (rows and columns swapped).

        O(1) array reuse: our CSC arrays are exactly the transpose's CSR.
        """
        t = BipartiteGraph.__new__(BipartiteGraph)
        t.nrows = self.ncols
        t.ncols = self.nrows
        t.row_ptr = self.col_ptr
        t.col_ind = self.row_ind
        t.col_ptr = self.row_ptr
        t.row_ind = self.col_ind
        t._row_of_edge = None
        t._layouts = self._layouts[::-1]
        return t

    def to_dense(self) -> FloatArray:
        """Dense (0,1) ndarray of the pattern.  For tests/small graphs."""
        dense = np.zeros((self.nrows, self.ncols), dtype=np.float64)
        dense[self.row_of_edge(), self.col_ind] = 1.0
        return dense

    def to_scipy(self):
        """Return a ``scipy.sparse.csr_matrix`` with unit values."""
        from scipy.sparse import csr_matrix

        data = np.ones(self.nnz, dtype=np.float64)
        return csr_matrix(
            (data, self.col_ind.copy(), self.row_ptr.copy()),
            shape=(self.nrows, self.ncols),
        )

    def scaled_values(self, dr: FloatArray, dc: FloatArray) -> FloatArray:
        """Per-edge scaled entries ``s_ij = dr[i] * dc[j]`` in CSR order."""
        dr = np.asarray(dr, dtype=np.float64)
        dc = np.asarray(dc, dtype=np.float64)
        if dr.shape != (self.nrows,) or dc.shape != (self.ncols,):
            raise ShapeError(
                f"scaling vectors must have shapes ({self.nrows},) and "
                f"({self.ncols},), got {dr.shape} and {dc.shape}"
            )
        return dr[self.row_of_edge()] * dc[self.col_ind]

    def subgraph_rows(self, rows: IndexArray) -> "BipartiteGraph":
        """Row-induced subgraph keeping all columns.  Row order follows
        *rows*; column ids are unchanged."""
        rows = _as_index_array(rows, "rows")
        if rows.size and (rows.min() < 0 or rows.max() >= self.nrows):
            raise ShapeError("row indices out of range")
        degs = np.diff(self.row_ptr)[rows]
        new_ptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(degs, out=new_ptr[1:])
        # Vectorised range concatenation: for each selected row, the flat
        # positions row_ptr[i] .. row_ptr[i]+deg-1, with no Python loop.
        total = int(new_ptr[-1])
        flat = np.arange(total, dtype=np.int64) + np.repeat(
            self.row_ptr[rows] - new_ptr[:-1], degs
        )
        new_ind = self.col_ind[flat]
        return BipartiteGraph(
            rows.shape[0], self.ncols, new_ptr, new_ind, validate=False
        )

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BipartiteGraph(nrows={self.nrows}, ncols={self.ncols}, "
            f"nnz={self.nnz})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality of the pattern."""
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.row_ptr, other.row_ptr)
            and np.array_equal(self.col_ind, other.col_ind)
        )

    def __hash__(self) -> int:
        return hash(
            (self.nrows, self.ncols, self.nnz, self.col_ind[:16].tobytes())
        )
