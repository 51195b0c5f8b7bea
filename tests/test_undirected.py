"""Tests for the undirected extension (repro.core.undirected)."""

import numpy as np
import pytest

from repro.errors import MatchingError, ScalingError
from repro.graph import BipartiteGraph, from_dense, grid_graph, sprand, sprand_symmetric
from repro.core.undirected import (
    UndirectedMatching,
    one_out_match_undirected,
    one_sided_match_undirected,
    validate_undirected_matching,
)
from repro.matching.matching import NIL


def blossom_maximum(graph: BipartiteGraph) -> int:
    """Exact maximum matching of the symmetric pattern via networkx."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.nrows))
    for i, j in graph.iter_edges():
        if i < j:
            g.add_edge(i, j)
    return len(nx.max_weight_matching(g, maxcardinality=True))


def choice_subgraph_maximum(graph, choice) -> int:
    """Exact maximum matching of the undirected 1-out choice subgraph."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(len(choice)))
    for u, v in enumerate(choice):
        if v != NIL:
            g.add_edge(int(u), int(v))
    return len(nx.max_weight_matching(g, maxcardinality=True))


class TestValidation:
    def test_valid_matching_accepted(self):
        g = sprand_symmetric(50, 4.0, seed=0)
        m = one_sided_match_undirected(g, 3, seed=1)
        validate_undirected_matching(g, m)

    def test_non_mutual_rejected(self):
        g = sprand_symmetric(10, 4.0, seed=0)
        mate = np.full(10, NIL, dtype=np.int64)
        mate[0] = 1  # not mirrored
        with pytest.raises(MatchingError):
            validate_undirected_matching(g, UndirectedMatching(mate))

    def test_self_match_rejected(self):
        g = sprand_symmetric(10, 4.0, seed=0)
        mate = np.full(10, NIL, dtype=np.int64)
        mate[0] = 0
        with pytest.raises(MatchingError):
            validate_undirected_matching(g, UndirectedMatching(mate))

    def test_non_edge_after_many_valid_pairs_rejected(self):
        g = sprand_symmetric(400, 4.0, seed=0)
        mate = one_sided_match_undirected(g, 3, seed=1).mate.copy()
        free = np.flatnonzero(mate == NIL)
        pairs = [
            (int(a), int(b))
            for i, a in enumerate(free)
            for b in free[i + 1:]
            if not g.has_edge(int(a), int(b))
        ]
        assert np.count_nonzero(mate != NIL) > 100 and pairs
        a, b = pairs[-1]
        mate[a], mate[b] = b, a
        with pytest.raises(
            MatchingError, match=rf"pair \({a}, {b}\) is not an edge"
        ):
            validate_undirected_matching(g, UndirectedMatching(mate))

    def test_same_verdict_as_a_loop_over_pairs(self):
        def reference(g, mate):
            n = mate.shape[0]
            for u in np.flatnonzero(mate != NIL):
                v = int(mate[u])
                if not 0 <= v < n:
                    return f"vertex {u} matched to {v}, outside [0, {n})"
                if v == u:
                    return f"vertex {u} matched to itself"
                if int(mate[v]) != u:
                    return f"match of {u} and {v} is not mutual"
                if not g.has_edge(int(u), v):
                    return f"matched pair ({u}, {v}) is not an edge"
            return None

        rng = np.random.default_rng(7)
        g = sprand_symmetric(60, 3.0, seed=2)
        valid = one_sided_match_undirected(g, 3, seed=0).mate
        for trial in range(200):
            mate = valid.copy()
            for _ in range(1 + trial % 3):
                mate[rng.integers(60)] = rng.integers(-2, 62)
            want = reference(g, mate)
            if want is None:
                validate_undirected_matching(g, UndirectedMatching(mate))
                continue
            with pytest.raises(MatchingError) as err:
                validate_undirected_matching(g, UndirectedMatching(mate))
            assert str(err.value) == want

    @pytest.mark.parametrize("partner", [10, 99, -2])
    def test_partner_out_of_range_rejected(self, partner):
        g = sprand_symmetric(10, 4.0, seed=0)
        mate = np.full(10, NIL, dtype=np.int64)
        mate[3] = partner
        with pytest.raises(MatchingError, match="outside"):
            validate_undirected_matching(g, UndirectedMatching(mate))

    def test_asymmetric_input_rejected(self):
        g = sprand(30, 3.0, seed=0)  # almost surely asymmetric
        from repro.scaling.symmetric import is_pattern_symmetric

        if is_pattern_symmetric(g):
            pytest.skip("unlucky symmetric draw")
        with pytest.raises(ScalingError):
            one_sided_match_undirected(g, 2, seed=0)


class TestOneSidedUndirected:
    def test_valid_on_random(self):
        for seed in range(5):
            g = sprand_symmetric(200, 5.0, seed=seed)
            m = one_sided_match_undirected(g, 5, seed=seed)
            validate_undirected_matching(g, m)

    def test_quality_above_half_of_maximum(self):
        g = sprand_symmetric(500, 6.0, seed=0)
        opt = blossom_maximum(g)
        m = one_sided_match_undirected(g, 5, seed=1)
        assert m.cardinality >= 0.5 * opt

    def test_never_matches_self_loops(self):
        g = sprand_symmetric(100, 4.0, seed=2, with_diagonal=True)
        m = one_sided_match_undirected(g, 3, seed=0)
        for u in m.matched_vertices():
            assert m.mate[u] != u

    def test_deterministic(self):
        g = sprand_symmetric(150, 4.0, seed=0)
        a = one_sided_match_undirected(g, 3, seed=9)
        b = one_sided_match_undirected(g, 3, seed=9)
        np.testing.assert_array_equal(a.mate, b.mate)


class TestOneOutUndirected:
    def test_valid_on_random(self):
        for seed in range(5):
            g = sprand_symmetric(200, 5.0, seed=seed)
            m = one_out_match_undirected(g, 5, seed=seed)
            validate_undirected_matching(g, m)

    def test_maximum_on_choice_subgraph(self):
        """The Karp-Sipser engine stays exact on the (possibly odd-cycle)
        undirected choice graphs."""
        for seed in range(10):
            g = sprand_symmetric(120, 5.0, seed=seed)
            m, choice = one_out_match_undirected(
                g, 4, seed=seed, with_choice=True
            )
            assert m.cardinality == choice_subgraph_maximum(g, choice), seed

    def test_beats_one_sided(self):
        g = sprand_symmetric(1000, 6.0, seed=0)
        one = one_sided_match_undirected(g, 5, seed=1).cardinality
        two = one_out_match_undirected(g, 5, seed=1).cardinality
        assert two >= one

    def test_quality_on_mesh(self):
        g = grid_graph(20, 20, stencil=5)
        # Remove the diagonal (self-loops) to get a clean undirected mesh.
        dense = g.to_dense()
        np.fill_diagonal(dense, 0.0)
        g = from_dense(dense)
        opt = blossom_maximum(g)
        m = one_out_match_undirected(g, 10, seed=0)
        validate_undirected_matching(g, m)
        assert m.cardinality >= 0.80 * opt

    def test_high_quality_on_dense_symmetric(self):
        g = sprand_symmetric(800, 10.0, seed=3)
        opt = blossom_maximum(g)
        m = one_out_match_undirected(g, 8, seed=0)
        assert m.cardinality >= 0.84 * opt
