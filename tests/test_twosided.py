"""Tests for TwoSidedMatch (repro.core.twosided) — Algorithm 3."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import TWO_SIDED_GUARANTEE
from repro.errors import ShapeError
from repro.graph import (
    from_dense,
    full_ones,
    fully_indecomposable,
    identity,
    sprand,
    sprand_rect,
)
from repro.matching import hopcroft_karp
from repro.matching.matching import NIL
from repro.core import choice_graph, two_sided_match
from repro.scaling import scale_sinkhorn_knopp


class TestTwoSidedMatch:
    def test_valid_matching_always(self):
        g = sprand(500, 3.0, seed=0)
        res = two_sided_match(g, iterations=3, seed=1)
        res.matching.validate(g)

    def test_identity_perfect(self):
        res = two_sided_match(identity(50), iterations=1, seed=0)
        assert res.matching.is_perfect()

    def test_matching_is_maximum_on_choice_subgraph(self):
        """The core exactness claim of Section 3.2."""
        g = sprand(300, 4.0, seed=0)
        res = two_sided_match(g, 3, seed=5)
        sub = choice_graph(res.row_choice, res.col_choice)
        assert res.cardinality == hopcroft_karp(sub).cardinality

    def test_choices_are_edges(self):
        g = sprand(200, 3.0, seed=0)
        res = two_sided_match(g, 3, seed=2)
        for i in range(g.nrows):
            if res.row_choice[i] != NIL:
                assert g.has_edge(i, int(res.row_choice[i]))
        for j in range(g.ncols):
            if res.col_choice[j] != NIL:
                assert g.has_edge(int(res.col_choice[j]), j)

    def test_deterministic_with_seed(self):
        g = sprand(200, 4.0, seed=0)
        a = two_sided_match(g, 3, seed=11).matching
        b = two_sided_match(g, 3, seed=11).matching
        np.testing.assert_array_equal(a.row_match, b.row_match)

    @pytest.mark.parametrize("engine", ["serial", "simulated"])
    def test_engines_agree_on_cardinality(self, engine):
        g = sprand(200, 4.0, seed=0)
        scaling = scale_sinkhorn_knopp(g, 3)
        reference = two_sided_match(
            g, scaling=scaling, seed=9, engine="serial"
        )
        res = two_sided_match(
            g, scaling=scaling, seed=9, engine=engine, n_threads=3
        )
        res.matching.validate(g)
        assert res.cardinality == reference.cardinality

    def test_unknown_engine_rejected(self):
        with pytest.raises(ShapeError):
            two_sided_match(identity(4), engine="quantum")

    def test_ks_stats_present_for_serial(self):
        g = sprand(100, 3.0, seed=0)
        res = two_sided_match(g, 2, seed=0, engine="serial")
        assert res.ks_stats is not None
        assert res.ks_stats.cardinality == res.cardinality

    def test_rectangular(self):
        g = sprand_rect(100, 140, 3.0, seed=0)
        res = two_sided_match(g, 3, seed=1)
        res.matching.validate(g)


class TestConjecture1:
    def test_ones_matrix_ratio_near_0866(self):
        """The all-ones matrix is the conjecture's tight case."""
        n = 2000
        g = full_ones(n)
        ratios = [
            two_sided_match(g, 1, seed=s).cardinality / n for s in range(5)
        ]
        assert abs(float(np.mean(ratios)) - TWO_SIDED_GUARANTEE) < 0.01

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_conjecture_on_fully_indecomposable(self, seed):
        g = fully_indecomposable(400, 4.0, seed=seed)
        res = two_sided_match(g, 10, seed=seed)
        assert res.cardinality / g.nrows > TWO_SIDED_GUARANTEE - 0.05

    def test_two_sided_beats_one_sided(self):
        """The reason the second heuristic exists (paper Section 5)."""
        from repro.core import one_sided_match

        g = fully_indecomposable(1000, 4.0, seed=0)
        scaling = scale_sinkhorn_knopp(g, 5)
        one = one_sided_match(g, scaling=scaling, seed=1).cardinality
        two = two_sided_match(g, scaling=scaling, seed=1).cardinality
        assert two > one


class TestDegenerateInputs:
    def test_empty_rows_and_cols(self):
        a = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 0]])
        g = from_dense(a)
        res = two_sided_match(g, 3, seed=0)
        res.matching.validate(g)
        assert res.matching.row_match[1] == NIL
        assert res.matching.col_match[1] == NIL

    def test_single_edge(self):
        g = from_dense(np.array([[1]]))
        res = two_sided_match(g, 1, seed=0)
        assert res.cardinality == 1
