"""Tests for the round-based vectorized KarpSipserMT engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import sprand
from repro.matching import hopcroft_karp
from repro.matching.matching import NIL
from repro.core import two_sided_match
from repro.core.karp_sipser_mt import (
    choice_graph,
    karp_sipser_mt,
    karp_sipser_mt_vectorized,
)
from repro.core.oneout import sample_uniform_one_out


@st.composite
def choice_arrays(draw):
    nrows = draw(st.integers(1, 50))
    ncols = draw(st.integers(1, 50))
    seed = draw(st.integers(0, 100_000))
    nil_frac = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(seed)
    rc = rng.integers(0, ncols, nrows)
    cc = rng.integers(0, nrows, ncols)
    rc[rng.random(nrows) < nil_frac] = NIL
    cc[rng.random(ncols) < nil_frac] = NIL
    return rc.astype(np.int64), cc.astype(np.int64)


def chain_choices(n):
    """One long chain (row i -> col i -> row i+1): n - 1 rounds."""
    rc = np.arange(n, dtype=np.int64)
    cc = np.minimum(np.arange(n, dtype=np.int64) + 1, n - 1)
    return rc, cc


def star_choices(n):
    """n rows all choosing column 0, which chooses row 0."""
    return np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64)


class TestVectorizedEngine:
    @given(choice_arrays())
    @settings(max_examples=120, deadline=None)
    def test_maximum_on_choice_graph(self, arrays):
        rc, cc = arrays
        g = choice_graph(rc, cc)
        m = karp_sipser_mt_vectorized(rc, cc)
        m.validate(g)
        assert m.cardinality == hopcroft_karp(g).cardinality

    @given(choice_arrays())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_serial_engine(self, arrays):
        rc, cc = arrays
        assert (
            karp_sipser_mt_vectorized(rc, cc).cardinality
            == karp_sipser_mt(rc, cc).cardinality
        )

    def test_chain_heavy_instance(self):
        """A single long chain forces many rounds."""
        rc, cc = chain_choices(500)
        g = choice_graph(rc, cc)
        m = karp_sipser_mt_vectorized(rc, cc)
        assert m.cardinality == hopcroft_karp(g).cardinality

    def test_pure_cycles(self):
        # Disjoint 2-cycles (2-cliques) and one big cycle.
        rc = np.array([0, 1, 3, 2], dtype=np.int64)
        cc = np.array([0, 1, 2, 3], dtype=np.int64)
        m = karp_sipser_mt_vectorized(rc, cc)
        g = choice_graph(rc, cc)
        assert m.cardinality == hopcroft_karp(g).cardinality

    def test_all_nil(self):
        m = karp_sipser_mt_vectorized(
            np.full(4, NIL, dtype=np.int64), np.full(3, NIL, dtype=np.int64)
        )
        assert m.cardinality == 0

    def test_large_instance_matches_serial(self):
        rc, cc = sample_uniform_one_out(100_000, seed=0)
        assert (
            karp_sipser_mt_vectorized(rc, cc).cardinality
            == karp_sipser_mt(rc, cc).cardinality
        )

    def test_star_contention(self):
        """Many rows choosing one column: exactly one pair matched plus
        whatever the column's own choice allows."""
        rc, cc = star_choices(50)
        m = karp_sipser_mt_vectorized(rc, cc)
        g = choice_graph(rc, cc)
        assert m.cardinality == hopcroft_karp(g).cardinality == 1


class TestEngineOption:
    def test_two_sided_vectorized_engine(self):
        g = sprand(2000, 4.0, seed=0)
        serial = two_sided_match(g, 3, seed=5, engine="serial")
        fast = two_sided_match(g, 3, seed=5, engine="vectorized")
        fast.matching.validate(g)
        assert fast.cardinality == serial.cardinality
        assert fast.ks_stats is None  # the fast path skips counters
