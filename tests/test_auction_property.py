"""Property-based tests for the auction engine.

Four invariants, each checked over Hypothesis-generated graphs and
execution schedules (``gs_tail``: pure kernel rounds, the sequential
Gauss–Seidel drain, or kernel rounds handing over to the drain):

* **ε-complementary slackness** — every matched row holds a column whose
  final price is within ``EPS`` of the cheapest price in the row's
  neighborhood.  This is the invariant that makes the abandonment
  certificates sound, so it must hold for the *returned* prices, not
  just transiently during bidding.
* **Termination** — the auction halts under every schedule and always
  reports the maximum cardinality.
* **Monotone trace** — ``cardinality_trace`` never decreases: columns
  never unmatch, a displaced row's column is re-matched within the same
  commit.
* **Warm starts** — restarting from a run's own matching and prices
  keeps all of the above.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import from_dense
from repro.matching import auction_match, hopcroft_karp
from repro.matching.exact.auction import EPS
from repro.matching.matching import NIL

pytestmark = pytest.mark.exact


@st.composite
def random_graphs(draw):
    nrows = draw(st.integers(1, 18))
    ncols = draw(st.integers(1, 18))
    density = draw(st.floats(0.05, 0.7))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    dense = (rng.random((nrows, ncols)) < density).astype(int)
    return from_dense(dense)


#: ``gs_tail`` values: 0 → kernel rounds only, None → the default (the
#: drain takes every free row at these sizes), small → a hand-over.
schedules = st.sampled_from([None, 0, 1, 4])


def _assert_eps_cs(graph, result):
    """Matched (i, j): p[j] ≤ min_{k ∈ N(i)} p[k] + EPS."""
    p = result.prices
    rm = result.matching.row_match
    ptr, ind = graph.row_ptr, graph.col_ind
    for i in range(graph.nrows):
        j = rm[i]
        if j == NIL:
            continue
        neigh = ind[ptr[i]:ptr[i + 1]]
        assert p[j] <= p[neigh].min() + EPS * (1 + 1e-9), (
            i,
            j,
            p[j],
            p[neigh].min(),
        )


@given(random_graphs(), schedules)
@settings(max_examples=120, deadline=None)
def test_eps_cs_holds_for_final_prices(g, gs_tail):
    res = auction_match(g, gs_tail=gs_tail)
    res.matching.validate(g)
    _assert_eps_cs(g, res)


@given(random_graphs(), schedules)
@settings(max_examples=120, deadline=None)
def test_terminates_at_maximum_under_any_schedule(g, gs_tail):
    res = auction_match(g, gs_tail=gs_tail)
    res.matching.validate(g)
    assert res.cardinality == hopcroft_karp(g).cardinality


@given(random_graphs(), schedules)
@settings(max_examples=120, deadline=None)
def test_cardinality_trace_monotone_nondecreasing(g, gs_tail):
    res = auction_match(g, gs_tail=gs_tail)
    trace = res.cardinality_trace
    assert all(a <= b for a, b in zip(trace, trace[1:])), trace
    if trace:
        assert trace[-1] == res.cardinality


@given(random_graphs(), schedules)
@settings(max_examples=60, deadline=None)
def test_warm_start_preserves_all_properties(g, gs_tail):
    """Warm-starting from a cold run's own output (matching + prices)
    keeps termination, optimality, ε-CS, and trace monotonicity."""
    cold = auction_match(g, gs_tail=gs_tail)
    warm = auction_match(
        g, initial=cold, prices=cold.prices, gs_tail=gs_tail
    )
    warm.matching.validate(g)
    assert warm.warm_started
    assert warm.cardinality == cold.cardinality
    _assert_eps_cs(g, warm)
    trace = warm.cardinality_trace
    assert all(a <= b for a, b in zip(trace, trace[1:])), trace


def test_prices_reusable_across_epochs_stay_bounded():
    """Feeding prices back in for many epochs must not let them grow
    without bound (the clip against the abandonment cap)."""
    rng = np.random.default_rng(7)
    dense = (rng.random((30, 28)) < 0.15).astype(int)
    g = from_dense(dense)
    cap = min(g.nrows, g.ncols) * EPS
    res = auction_match(g)
    for _ in range(6):
        res = auction_match(g, initial=res, prices=res.prices)
        res.matching.validate(g)
        assert res.prices.max() <= cap + EPS + 1e-9
        assert res.cardinality == hopcroft_karp(g).cardinality
