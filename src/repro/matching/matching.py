"""The :class:`Matching` container and its validation.

A matching is stored from both sides (``row_match`` and ``col_match``),
with ``NIL = -1`` marking unmatched vertices, mirroring the paper's
``match[·]`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._typing import IndexArray
from repro.errors import ShapeError, ValidationError
from repro.graph.csr import BipartiteGraph, missing_edges

__all__ = ["Matching", "NIL"]

#: Sentinel for an unmatched vertex (the paper's NIL).
NIL: int = -1


@dataclass(frozen=True)
class Matching:
    """A (partial) matching of a bipartite graph.

    Attributes
    ----------
    row_match:
        ``row_match[i]`` is the column matched to row ``i`` or :data:`NIL`.
    col_match:
        ``col_match[j]`` is the row matched to column ``j`` or :data:`NIL`.
    """

    row_match: IndexArray
    col_match: IndexArray

    def __post_init__(self) -> None:
        rm = np.ascontiguousarray(self.row_match, dtype=np.int64)
        cm = np.ascontiguousarray(self.col_match, dtype=np.int64)
        object.__setattr__(self, "row_match", rm)
        object.__setattr__(self, "col_match", cm)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, nrows: int, ncols: int) -> "Matching":
        """The empty matching on an ``nrows × ncols`` graph."""
        return cls(
            np.full(nrows, NIL, dtype=np.int64),
            np.full(ncols, NIL, dtype=np.int64),
        )

    @classmethod
    def from_row_match(cls, row_match: object, ncols: int) -> "Matching":
        """Build from a row-side array, deriving the column side.

        Raises :class:`ValidationError` if two rows claim the same column.
        """
        rm = np.ascontiguousarray(row_match, dtype=np.int64)
        cm = np.full(ncols, NIL, dtype=np.int64)
        matched_rows = np.flatnonzero(rm != NIL)
        cols = rm[matched_rows]
        if cols.size and (cols.min() < 0 or cols.max() >= ncols):
            raise ValidationError("row_match references column out of range")
        uniq, counts = np.unique(cols, return_counts=True)
        if np.any(counts > 1):
            j = int(uniq[np.argmax(counts > 1)])
            raise ValidationError(f"column {j} claimed by multiple rows")
        cm[cols] = matched_rows
        return cls(rm, cm)

    @classmethod
    def from_col_match(cls, col_match: object, nrows: int) -> "Matching":
        """Build from a column-side array, deriving the row side.

        This is exactly the semantics of ``OneSidedMatch``'s ``cmatch``
        output: the surviving writes define the matching.
        """
        cm = np.ascontiguousarray(col_match, dtype=np.int64)
        rm = np.full(nrows, NIL, dtype=np.int64)
        matched_cols = np.flatnonzero(cm != NIL)
        rows = cm[matched_cols]
        if rows.size and (rows.min() < 0 or rows.max() >= nrows):
            raise ValidationError("col_match references row out of range")
        uniq, counts = np.unique(rows, return_counts=True)
        if np.any(counts > 1):
            i = int(uniq[np.argmax(counts > 1)])
            raise ValidationError(f"row {i} claimed by multiple columns")
        rm[rows] = matched_cols
        return cls(rm, cm)

    @classmethod
    def from_pairs(
        cls, pairs: object, nrows: int, ncols: int
    ) -> "Matching":
        """Build from an iterable of ``(row, col)`` pairs."""
        rm = np.full(nrows, NIL, dtype=np.int64)
        cm = np.full(ncols, NIL, dtype=np.int64)
        for i, j in pairs:
            if rm[i] != NIL or cm[j] != NIL:
                raise ValidationError(f"pair ({i}, {j}) conflicts")
            rm[i] = j
            cm[j] = i
        return cls(rm, cm)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return int(self.row_match.shape[0])

    @property
    def ncols(self) -> int:
        return int(self.col_match.shape[0])

    @property
    def cardinality(self) -> int:
        """Number of matched edges ``|M|``."""
        return int(np.count_nonzero(self.row_match != NIL))

    def is_perfect(self) -> bool:
        """True iff every row *and* every column is matched."""
        return (
            np.all(self.row_match != NIL) and np.all(self.col_match != NIL)
        )

    def matched_rows(self) -> IndexArray:
        return np.flatnonzero(self.row_match != NIL)

    def unmatched_rows(self) -> IndexArray:
        return np.flatnonzero(self.row_match == NIL)

    def matched_cols(self) -> IndexArray:
        return np.flatnonzero(self.col_match != NIL)

    def unmatched_cols(self) -> IndexArray:
        return np.flatnonzero(self.col_match == NIL)

    def pairs(self) -> list[tuple[int, int]]:
        """All matched ``(row, col)`` pairs."""
        rows = self.matched_rows()
        return [(int(i), int(self.row_match[i])) for i in rows]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, graph: BipartiteGraph) -> None:
        """Raise :class:`ValidationError` unless this is a valid matching
        of *graph* (mutually consistent sides, every matched pair an edge).
        """
        if self.nrows != graph.nrows or self.ncols != graph.ncols:
            raise ShapeError(
                f"matching shape ({self.nrows}, {self.ncols}) does not "
                f"fit graph {graph.shape}"
            )
        rm, cm = self.row_match, self.col_match
        rows = np.flatnonzero(rm != NIL)
        cols = rm[rows]
        if cols.size and (cols.min() < 0 or cols.max() >= graph.ncols):
            raise ValidationError("row_match references column out of range")
        if not np.array_equal(cm[cols], rows):
            raise ValidationError("row_match and col_match are inconsistent")
        jcols = np.flatnonzero(cm != NIL)
        if jcols.size != rows.size:
            raise ValidationError(
                "col_match has matched entries not mirrored in row_match"
            )
        absent = missing_edges(
            graph.row_ptr, graph.col_ind, graph.ncols, rows, cols
        )
        if absent.any():
            k = int(np.argmax(absent))
            raise ValidationError(
                f"matched pair ({int(rows[k])}, {int(cols[k])}) is not an edge"
            )

    def quality(self, maximum_cardinality: int) -> float:
        """``|M| / maximum_cardinality`` — the paper's quality metric."""
        if maximum_cardinality <= 0:
            raise ValidationError(
                f"maximum cardinality must be positive, got {maximum_cardinality}"
            )
        return self.cardinality / maximum_cardinality
