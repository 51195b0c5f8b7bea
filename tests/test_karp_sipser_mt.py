"""Tests for KarpSipserMT (repro.core.karp_sipser_mt) — Algorithm 4.

The central claims under test (the paper's Lemmas 1-4 and the engine
equivalences):

* the matching is always *valid*;
* the matching is always *maximum on the choice subgraph* — for the
  serial engine, for simulated threads under every scheduling policy, and
  for real threads;
* all engines agree on the cardinality (the maximum is unique even though
  the matchings differ);
* degenerate inputs (NIL choices, 2-cliques, pure cycles, self-everything)
  are handled.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.graph.components import component_cycle_counts
from repro.matching import hopcroft_karp
from repro.matching.matching import NIL
from repro.core.karp_sipser_mt import (
    choice_graph,
    karp_sipser_mt,
    karp_sipser_mt_simulated,
    karp_sipser_mt_threaded,
    karp_sipser_mt_work_profile,
    matching_from_unified,
    unify_choices,
)

POLICIES = ("round_robin", "random", "sequential", "adversarial")


@st.composite
def choice_arrays(draw):
    """Arbitrary choice arrays, including NIL entries and rectangles."""
    nrows = draw(st.integers(1, 40))
    ncols = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 100_000))
    nil_frac = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(seed)
    rc = rng.integers(0, ncols, nrows)
    cc = rng.integers(0, nrows, ncols)
    rc[rng.random(nrows) < nil_frac] = NIL
    cc[rng.random(ncols) < nil_frac] = NIL
    return rc.astype(np.int64), cc.astype(np.int64)


class TestUnify:
    def test_unify_shifts_columns(self):
        choice, nrows, ncols = unify_choices(
            np.array([1, NIL]), np.array([0, 0, 1])
        )
        assert nrows == 2 and ncols == 3
        assert choice.tolist() == [3, NIL, 0, 0, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            unify_choices(np.array([5]), np.array([0]))
        with pytest.raises(ShapeError):
            unify_choices(np.array([0]), np.array([7]))

    def test_matching_from_unified_detects_corruption(self):
        from repro.errors import MatchingError

        bad = np.array([2, NIL, NIL, NIL])  # row 0 -> col 0, col side silent
        with pytest.raises(MatchingError):
            matching_from_unified(bad, 2, 2)

    @pytest.mark.parametrize(
        "bad",
        [
            [3, 2, 0, 1],  # crossed: rows pick cols 1, 0; cols pick rows 0, 1
            [1, 0, NIL, NIL],  # two rows matched to each other
            [NIL, NIL, 3, 2],  # two columns matched to each other
            [7, NIL, NIL, NIL],  # partner out of range
            [-5, NIL, NIL, NIL],
        ],
    )
    def test_matching_from_unified_detects_inconsistent_pairs(self, bad):
        from repro.errors import MatchingError

        with pytest.raises(MatchingError):
            matching_from_unified(np.array(bad, dtype=np.int64), 2, 2)


class TestChoiceGraph:
    def test_mutual_pair_single_edge(self):
        g = choice_graph(np.array([0]), np.array([0]))
        assert g.nnz == 1

    def test_nil_entries_skipped(self):
        g = choice_graph(np.array([NIL, 0]), np.array([NIL]))
        assert g.nnz == 1
        assert g.has_edge(1, 0)

    def test_edge_count_bound(self):
        rng = np.random.default_rng(0)
        rc = rng.integers(0, 50, 50)
        cc = rng.integers(0, 50, 50)
        g = choice_graph(rc, cc)
        assert g.nnz <= 100


class TestSerialEngine:
    def test_single_mutual_pair(self):
        m = karp_sipser_mt(np.array([0]), np.array([0]))
        assert m.cardinality == 1

    def test_two_clique_matched_in_phase2(self):
        m, stats = karp_sipser_mt(
            np.array([0]), np.array([0]), with_stats=True
        )
        assert stats.phase2_pairs == 1
        assert stats.phase1_pairs == 0

    def test_pure_cycle(self):
        # r0->c0, c0->r1, r1->c1, c1->r0 : a 4-cycle, perfect matching.
        rc = np.array([0, 1])
        cc = np.array([1, 0])
        m, stats = karp_sipser_mt(rc, cc, with_stats=True)
        assert m.cardinality == 2
        assert stats.phase1_pairs == 0  # nothing is out-one on a cycle
        assert stats.phase2_pairs == 2

    def test_chain_consumption(self):
        # r0..r2 all choose c0; c0 chooses r0. Star: only 1 match possible.
        rc = np.array([0, 0, 0])
        cc = np.array([0])
        m = karp_sipser_mt(rc, cc)
        assert m.cardinality == 1

    def test_all_nil(self):
        m = karp_sipser_mt(
            np.full(3, NIL, dtype=np.int64), np.full(2, NIL, dtype=np.int64)
        )
        assert m.cardinality == 0

    def test_stats_chain_tracking(self):
        # Path: c1->r0, r0->c0, c0->r1, r1->c0?? Use a clean 3-chain:
        # r0 chooses c0; c0 chooses r1; r1 chooses c1; c1 chooses r1.
        rc = np.array([0, 1])
        cc = np.array([1, 1])
        m, stats = karp_sipser_mt(rc, cc, with_stats=True)
        g = choice_graph(rc, cc)
        assert m.cardinality == hopcroft_karp(g).cardinality
        assert stats.cardinality == m.cardinality

    @given(choice_arrays())
    @settings(max_examples=120, deadline=None)
    def test_maximum_on_choice_graph(self, arrays):
        rc, cc = arrays
        g = choice_graph(rc, cc)
        m = karp_sipser_mt(rc, cc)
        m.validate(g)
        assert m.cardinality == hopcroft_karp(g).cardinality

    @given(choice_arrays())
    @settings(max_examples=60, deadline=None)
    def test_lemma1_on_arbitrary_choices(self, arrays):
        rc, cc = arrays
        assert component_cycle_counts(choice_graph(rc, cc)).max(initial=0) <= 1


class TestSimulatedEngine:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n_threads", [1, 2, 4, 7])
    def test_maximum_for_every_policy_and_width(self, policy, n_threads):
        rng = np.random.default_rng(12)
        for trial in range(6):
            n = int(rng.integers(3, 120))
            rc = rng.integers(0, n, n)
            cc = rng.integers(0, n, n)
            g = choice_graph(rc, cc)
            opt = hopcroft_karp(g).cardinality
            m = karp_sipser_mt_simulated(
                rc, cc, n_threads, policy=policy, seed=trial
            )
            m.validate(g)
            assert m.cardinality == opt, (policy, n_threads, trial)

    def test_many_random_schedules(self):
        """Schedule-space sweep on one instance: all maximum."""
        rng = np.random.default_rng(3)
        n = 60
        rc = rng.integers(0, n, n)
        cc = rng.integers(0, n, n)
        opt = hopcroft_karp(choice_graph(rc, cc)).cardinality
        for seed in range(25):
            m = karp_sipser_mt_simulated(rc, cc, 5, policy="random", seed=seed)
            assert m.cardinality == opt

    def test_with_nil_choices(self):
        rc = np.array([0, NIL, 1])
        cc = np.array([NIL, 2])
        g = choice_graph(rc, cc)
        opt = hopcroft_karp(g).cardinality
        m = karp_sipser_mt_simulated(rc, cc, 3, seed=0)
        assert m.cardinality == opt

    def test_bad_thread_count(self):
        with pytest.raises(ShapeError):
            karp_sipser_mt_simulated(np.array([0]), np.array([0]), 0)

    def test_stats_pairs_sum(self):
        rng = np.random.default_rng(9)
        n = 50
        rc = rng.integers(0, n, n)
        cc = rng.integers(0, n, n)
        m, stats = karp_sipser_mt_simulated(
            rc, cc, 4, seed=1, with_stats=True
        )
        assert stats.cardinality == m.cardinality


class TestThreadedEngine:
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_maximum_on_real_threads(self, n_threads):
        rng = np.random.default_rng(7)
        for _ in range(4):
            n = int(rng.integers(10, 300))
            rc = rng.integers(0, n, n)
            cc = rng.integers(0, n, n)
            opt = hopcroft_karp(choice_graph(rc, cc)).cardinality
            m = karp_sipser_mt_threaded(rc, cc, n_threads)
            assert m.cardinality == opt

    def test_bad_thread_count(self):
        with pytest.raises(ShapeError):
            karp_sipser_mt_threaded(np.array([0]), np.array([0]), 0)


class TestEngineAgreement:
    @given(choice_arrays())
    @settings(max_examples=30, deadline=None)
    def test_all_engines_same_cardinality(self, arrays):
        rc, cc = arrays
        serial = karp_sipser_mt(rc, cc).cardinality
        sim = karp_sipser_mt_simulated(rc, cc, 3, seed=0).cardinality
        threaded = karp_sipser_mt_threaded(rc, cc, 2).cardinality
        assert serial == sim == threaded


class TestWorkProfile:
    def test_profile_length_and_positivity(self):
        rng = np.random.default_rng(0)
        n = 40
        rc = rng.integers(0, n, n)
        cc = rng.integers(0, n, n)
        prof = karp_sipser_mt_work_profile(rc, cc)
        assert prof.shape == (2 * n,)
        assert (prof >= 1.0).all()

    def test_profile_total_reflects_matches(self):
        """More matched pairs in Phase 1 => more charged work."""
        n = 100
        # Chain-heavy instance: rows i -> col i, cols i -> row i+1.
        rc = np.arange(n, dtype=np.int64)
        cc = np.minimum(np.arange(n, dtype=np.int64) + 1, n - 1)
        prof = karp_sipser_mt_work_profile(rc, cc)
        assert prof.sum() > 2 * n  # chains charged beyond the base scan
