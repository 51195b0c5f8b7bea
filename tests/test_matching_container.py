"""Tests for the Matching container (repro.matching.matching)."""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.graph import from_dense, identity
from repro.matching import NIL, Matching


class TestConstruction:
    def test_empty(self):
        m = Matching.empty(3, 4)
        assert m.cardinality == 0
        assert not m.is_perfect()
        assert m.nrows == 3 and m.ncols == 4

    def test_from_row_match(self):
        m = Matching.from_row_match([1, NIL, 0], 2)
        assert m.cardinality == 2
        assert m.col_match.tolist() == [2, 0]

    def test_from_row_match_conflict(self):
        with pytest.raises(ValidationError):
            Matching.from_row_match([0, 0], 2)

    def test_from_row_match_out_of_range(self):
        with pytest.raises(ValidationError):
            Matching.from_row_match([5], 2)

    def test_from_col_match(self):
        m = Matching.from_col_match([NIL, 0, 1], 2)
        assert m.row_match.tolist() == [1, 2]

    def test_from_col_match_conflict(self):
        with pytest.raises(ValidationError):
            Matching.from_col_match([0, 0], 1)

    def test_from_pairs(self):
        m = Matching.from_pairs([(0, 1), (1, 0)], 2, 2)
        assert m.is_perfect()

    def test_from_pairs_conflict(self):
        with pytest.raises(ValidationError):
            Matching.from_pairs([(0, 1), (0, 0)], 2, 2)


class TestQueries:
    def test_matched_and_unmatched_sets(self):
        m = Matching.from_row_match([NIL, 2, NIL, 0], 3)
        assert m.matched_rows().tolist() == [1, 3]
        assert m.unmatched_rows().tolist() == [0, 2]
        assert m.matched_cols().tolist() == [0, 2]
        assert m.unmatched_cols().tolist() == [1]

    def test_pairs(self):
        m = Matching.from_row_match([2, NIL, 1], 3)
        assert m.pairs() == [(0, 2), (2, 1)]

    def test_quality(self):
        m = Matching.from_row_match([0, 1, NIL], 3)
        assert m.quality(3) == pytest.approx(2 / 3)

    def test_quality_zero_denominator(self):
        with pytest.raises(ValidationError):
            Matching.empty(2, 2).quality(0)


class TestValidation:
    def test_valid_on_identity(self):
        g = identity(3)
        m = Matching.from_row_match([0, 1, 2], 3)
        m.validate(g)  # no raise

    def test_wrong_shape_rejected(self):
        g = identity(3)
        with pytest.raises(ShapeError):
            Matching.empty(2, 2).validate(g)

    def test_non_edge_rejected(self):
        g = identity(3)
        m = Matching.from_row_match([1, 0, 2], 3)
        with pytest.raises(ValidationError):
            m.validate(g)

    def test_non_edge_after_many_valid_pairs_is_named(self):
        # A band (edges (i, i) and (i, i + 1)) matched on its diagonal,
        # except rows 400 and 402 swap partners: (400, 402) is the first
        # matched pair that is not an edge, after 400 valid ones.
        n = 500
        dense = np.eye(n, dtype=int)
        dense[np.arange(n - 1), np.arange(1, n)] = 1
        g = from_dense(dense)
        partner = np.arange(n)
        partner[[400, 402]] = partner[[402, 400]]
        m = Matching.from_row_match(partner, n)
        with pytest.raises(ValidationError, match=r"\(400, 402\) is not"):
            m.validate(g)

    def test_inconsistent_sides_rejected(self):
        g = from_dense(np.ones((2, 2)))
        m = Matching(
            np.array([0, NIL]),
            np.array([1, NIL]),  # col 0 claims row 1, but row 0 claims col 0
        )
        with pytest.raises(ValidationError):
            m.validate(g)

    def test_unmirrored_column_entry_rejected(self):
        g = from_dense(np.ones((2, 2)))
        m = Matching(np.array([NIL, NIL]), np.array([0, NIL]))
        with pytest.raises(ValidationError):
            m.validate(g)
