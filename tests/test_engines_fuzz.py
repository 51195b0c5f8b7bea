"""Cross-engine fuzzing of TwoSidedMatch over graph families.

The three KarpSipserMT engines must return matchings of identical
cardinality (the maximum of the choice subgraph is unique) for every
family x seed combination, including the pathological families.
"""

import numpy as np
import pytest

from repro.graph import (
    banded,
    from_dense,
    full_ones,
    grid_graph,
    karp_sipser_adversarial,
    power_law_bipartite,
    sprand,
    sprand_rect,
)
from repro.core import two_sided_match
from repro.scaling import scale_sinkhorn_knopp

FAMILIES = {
    "er": lambda seed: sprand(400, 3.0, seed=seed),
    "rect": lambda seed: sprand_rect(300, 400, 2.5, seed=seed),
    "dense": lambda seed: full_ones(80),
    "banded": lambda seed: banded(300, 2),
    "grid": lambda seed: grid_graph(18, 18),
    "power-law": lambda seed: power_law_bipartite(400, 5.0, skew=1.5,
                                                  seed=seed),
    "adversarial": lambda seed: karp_sipser_adversarial(200, 8),
    "with-empties": lambda seed: from_dense(
        (np.random.default_rng(seed).random((50, 50)) < 0.03).astype(int)
    ),
}

ENGINES = ("serial", "vectorized", "simulated")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engines_agree_per_family(family):
    build = FAMILIES[family]
    for seed in range(3):
        g = build(seed)
        scaling = scale_sinkhorn_knopp(g, 3)
        results = {}
        for engine in ENGINES:
            res = two_sided_match(
                g, scaling=scaling, seed=seed, engine=engine, n_threads=3
            )
            res.matching.validate(g)
            results[engine] = res.cardinality
        assert len(set(results.values())) == 1, (family, seed, results)


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_maximum_on_choice_subgraph(engine):
    from repro.core import choice_graph
    from repro.matching import hopcroft_karp

    g = sprand(300, 4.0, seed=9)
    scaling = scale_sinkhorn_knopp(g, 3)
    res = two_sided_match(g, scaling=scaling, seed=9, engine=engine,
                          n_threads=4)
    sub = choice_graph(res.row_choice, res.col_choice)
    assert res.cardinality == hopcroft_karp(sub).cardinality


# ----------------------------------------------------------------------
# Auction adversarial corpus.  Each entry is a graph construction that
# stresses a specific failure mode of auction engines: price-war chains
# (long displacement cascades), structurally-deficient instances that
# force the abandonment certificate, degenerate shapes, and cases that
# previous fuzzing runs actually broke.
# ----------------------------------------------------------------------

from repro.graph import empty, from_edges
from repro.matching import auction_match, hopcroft_karp, push_relabel, sprank


def _price_war_chain(n):
    """Path graph r_i ~ {c_i, c_{i+1}} plus one extra row contesting
    c_0: resolving the last free row displaces every pair down the
    chain — the auction's worst-case cascade."""
    rows, cols = [], []
    for i in range(n):
        rows += [i, i]
        cols += [i, min(i + 1, n - 1)]
    rows.append(n)  # the contender: only edge is the chain's head
    cols.append(0)
    return from_edges(n + 1, n, rows, cols)


def _star(n_leaves, hub_rows):
    """hub_rows rows all adjacent ONLY to column 0, plus one row per
    remaining column: max matching is 1 + (n_leaves - 1); every hub row
    but one must be certified abandoned."""
    rows = list(range(hub_rows)) * 1
    cols = [0] * hub_rows
    for k in range(1, n_leaves):
        rows.append(hub_rows + k - 1)
        cols.append(k)
    return from_edges(hub_rows + n_leaves - 1, n_leaves, rows, cols)


def _permuted_circulant(n, d, seed):
    """Row r[i] ~ columns c[(i + k) mod n] for k < d, with r and c random
    permutations: exactly d-regular and square, so it has a perfect
    matching (König)."""
    rng = np.random.default_rng(seed)
    r, c = rng.permutation(n), rng.permutation(n)
    i = np.repeat(np.arange(n), d)
    k = np.tile(np.arange(d), n)
    return from_edges(n, n, r[i], c[(i + k) % n])


AUCTION_CASES = {
    "price-war-chain": lambda: _price_war_chain(60),
    "star-contested-hub": lambda: _star(30, 12),
    "single-edge": lambda: from_edges(1, 1, [0], [0]),
    "single-edge-in-void": lambda: from_edges(40, 40, [17], [31]),
    "empty-graph": lambda: empty(25, 30),
    "zero-vertices": lambda: empty(0, 0),
    "all-empty-rows": lambda: from_dense(np.zeros((10, 10), dtype=int)),
    "wide-rect": lambda: sprand_rect(40, 400, 4.0, seed=2),
    "tall-rect": lambda: sprand_rect(400, 40, 0.4, seed=2),
    "one-row-many-cols": lambda: from_edges(
        1, 50, [0] * 50, list(range(50))
    ),
    "many-rows-one-col": lambda: from_edges(
        50, 1, list(range(50)), [0] * 50
    ),
    # Fully dense and square: every row contests every column, the
    # auction's densest price war.  Named for a random-walk path, since
    # removed, that looped forever on it.
    "regression-gkk-dense-cycle": lambda: full_ones(80),
    # Sparse and exactly regular, so it has a perfect matching: the
    # input class that random-walk path targeted.
    "regular-d4-circulant": lambda: _permuted_circulant(400, 4, seed=5),
    # Regression: warm starts whose carried prices violate ε-CS used to
    # leave stale pairs behind; the with-empties family found it.
    "regression-sparse-empties": lambda: from_dense(
        (np.random.default_rng(3).random((50, 50)) < 0.03).astype(int)
    ),
}


@pytest.mark.exact
@pytest.mark.parametrize("case", sorted(AUCTION_CASES))
def test_auction_adversarial_corpus(case):
    g = AUCTION_CASES[case]()
    want = hopcroft_karp(g).cardinality
    assert push_relabel(g).cardinality == sprank(g) == want, case
    cold = auction_match(g)
    cold.matching.validate(g)
    assert cold.cardinality == want, (case, "cold")
    # Warm start from the cold run's own output must also be maximum.
    warm = auction_match(g, initial=cold, prices=cold.prices)
    warm.matching.validate(g)
    assert warm.cardinality == want, (case, "warm")


@pytest.mark.exact
def test_auction_random_fuzz_against_hk():
    """Randomized sweep: shapes and densities drawn from a seeded rng so
    failures replay exactly."""
    rng = np.random.default_rng(20260808)
    for trial in range(60):
        nrows = int(rng.integers(1, 60))
        ncols = int(rng.integers(1, 60))
        density = float(rng.uniform(0.02, 0.5))
        dense = (rng.random((nrows, ncols)) < density).astype(int)
        g = from_dense(dense)
        res = auction_match(g)
        res.matching.validate(g)
        assert res.cardinality == hopcroft_karp(g).cardinality, trial
