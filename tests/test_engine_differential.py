"""Differential tests: independent implementations must agree exactly.

Two families of oracle checks:

* The three KarpSipserMT engines (serial loop, round-based vectorized,
  simulated-interleaving) are maximum matchers on the same choice
  subgraph, so on identical choice arrays they must report identical
  cardinalities — for every seed, schedule policy, and thread count.
* The parallel backends only change *how* work is partitioned, never
  *what* is computed: ScaleSK scaling vectors and the scaled 1-out
  choices must be **bitwise identical** across SerialBackend and
  ThreadBackend (and, for the auction, the shared-memory pool).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.choice import scaled_col_choices, scaled_row_choices
from repro.core.karp_sipser_mt import (
    karp_sipser_mt,
    karp_sipser_mt_simulated,
    karp_sipser_mt_vectorized,
)
from repro.graph.generators import sprand, sprand_rect
from repro.matching.matching import NIL
from repro.parallel.backends import SerialBackend, ThreadBackend
from repro.parallel.simthread import SchedulePolicy
from repro.scaling import scale_sinkhorn_knopp

SEEDS = range(8)


def _random_choice_arrays(nrows, ncols, seed, nil_fraction=0.2):
    """Arbitrary choice arrays, including NIL entries (empty rows/cols)."""
    rng = np.random.default_rng(seed)
    rc = rng.integers(0, ncols, size=nrows).astype(np.int64)
    cc = rng.integers(0, nrows, size=ncols).astype(np.int64)
    rc[rng.random(nrows) < nil_fraction] = NIL
    cc[rng.random(ncols) < nil_fraction] = NIL
    return rc, cc


def _scaled_choice_arrays(n, seed):
    """Choice arrays as TwoSidedMatch actually produces them."""
    g = sprand(n, 3.0, seed=seed)
    sc = scale_sinkhorn_knopp(g, 5)
    rc = scaled_row_choices(g, sc.dr, sc.dc, seed=seed + 1)
    cc = scaled_col_choices(g, sc.dr, sc.dc, seed=seed + 2)
    return rc, cc


def _all_engine_cardinalities(rc, cc, seed):
    return {
        "serial": karp_sipser_mt(rc, cc).cardinality,
        "vectorized": karp_sipser_mt_vectorized(rc, cc).cardinality,
        "simulated": karp_sipser_mt_simulated(
            rc, cc, 4, seed=seed
        ).cardinality,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree_on_random_choices(seed):
    rc, cc = _random_choice_arrays(120, 150, seed)
    sizes = _all_engine_cardinalities(rc, cc, seed)
    assert len(set(sizes.values())) == 1, sizes


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree_on_scaled_choices(seed):
    rc, cc = _scaled_choice_arrays(200, seed)
    sizes = _all_engine_cardinalities(rc, cc, seed)
    assert len(set(sizes.values())) == 1, sizes


@pytest.mark.parametrize("policy", list(SchedulePolicy))
@pytest.mark.parametrize("n_threads", [1, 3, 7])
def test_simulated_schedules_all_maximum(policy, n_threads):
    rc, cc = _random_choice_arrays(90, 80, seed=5)
    expected = karp_sipser_mt(rc, cc).cardinality
    got = karp_sipser_mt_simulated(
        rc, cc, n_threads, policy=policy, seed=11
    ).cardinality
    assert got == expected


def _backends():
    return [
        ("serial", SerialBackend()),
        ("threads", ThreadBackend(3)),
    ]


@pytest.mark.parametrize("seed", range(3))
def test_scale_sk_bitwise_across_backends(seed):
    g = sprand_rect(300, 260, 3.0, seed=seed)
    results = {}
    for name, backend in _backends():
        try:
            results[name] = scale_sinkhorn_knopp(g, 8, backend=backend)
        finally:
            backend.close()
    ref = results["serial"]
    for name, res in results.items():
        np.testing.assert_array_equal(res.dr, ref.dr, err_msg=name)
        np.testing.assert_array_equal(res.dc, ref.dc, err_msg=name)
        assert res.error == ref.error, name
        assert res.iterations == ref.iterations, name


@pytest.mark.parametrize("seed", range(3))
def test_choices_bitwise_across_backends(seed):
    g = sprand(400, 4.0, seed=seed)
    sc = scale_sinkhorn_knopp(g, 5)
    rows, cols = {}, {}
    for name, backend in _backends():
        try:
            rows[name] = scaled_row_choices(
                g, sc.dr, sc.dc, seed=seed, backend=backend
            )
            cols[name] = scaled_col_choices(
                g, sc.dr, sc.dc, seed=seed, backend=backend
            )
        finally:
            backend.close()
    for name in rows:
        np.testing.assert_array_equal(rows[name], rows["serial"],
                                      err_msg=name)
        np.testing.assert_array_equal(cols[name], cols["serial"],
                                      err_msg=name)


def test_two_sided_engines_identical_matching_size():
    # End-to-end: same graph + seed through every engine of TwoSidedMatch.
    from repro.core import two_sided_match

    g = sprand(300, 3.5, seed=7)
    sizes = {
        engine: two_sided_match(g, 5, seed=13, engine=engine).cardinality
        for engine in ("serial", "vectorized", "simulated")
    }
    assert len(set(sizes.values())) == 1, sizes


# ----------------------------------------------------------------------
# Auction differential matrix: the ε-scaling auction must agree with
# every exact oracle on every suite generator family, warm == cold,
# and bitwise-identically across backends.
# ----------------------------------------------------------------------

from repro.matching import auction_match, hopcroft_karp, push_relabel, sprank
from repro.parallel.kernels import kernel_chunk_override

from tests.test_engines_fuzz import FAMILIES


@pytest.mark.exact
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_auction_matches_exact_oracles_per_family(family):
    """auction == Hopcroft–Karp == push_relabel == sprank; cold (default
    and kernel rounds only) == warm."""
    from repro.core import two_sided_match

    build = FAMILIES[family]
    for seed in range(2):
        g = build(seed)
        hk = hopcroft_karp(g).cardinality
        pr = push_relabel(g).cardinality
        sp = sprank(g)
        assert hk == pr == sp, (family, seed, hk, pr, sp)

        cold = auction_match(g)
        cold.matching.validate(g)
        assert cold.cardinality == hk, (family, seed, "cold")
        kernel_only = auction_match(g, gs_tail=0)
        kernel_only.matching.validate(g)
        assert kernel_only.cardinality == hk, (family, seed, "gs_tail=0")

        heur = two_sided_match(g, 3, seed=seed)
        warm = auction_match(g, initial=heur, scaling=heur.scaling)
        warm.matching.validate(g)
        assert warm.warm_started
        assert warm.cardinality == hk, (family, seed, "warm")


def _auction_backends():
    from repro.parallel.backends import get_backend

    return [
        ("serial", SerialBackend()),
        ("threads", ThreadBackend(3)),
        ("shm", get_backend("shm:2")),
    ]


@pytest.mark.exact
@pytest.mark.parametrize("seed", range(2))
def test_auction_bitwise_across_backends(seed):
    """Matching, prices, and round count are bitwise identical on every
    backend — the bid kernel's fixed chunk grid and lexicographic commit
    make the parallel rounds order-independent.  ``gs_tail=0`` keeps
    every round on the kernel path so the backends actually differ in
    how bids are computed."""
    g = sprand_rect(420, 380, 3.0, seed=seed)
    results = {}
    with kernel_chunk_override(64):
        for name, backend in _auction_backends():
            try:
                results[name] = auction_match(g, backend=backend, gs_tail=0)
            finally:
                backend.close()
    ref = results["serial"]
    for name, res in results.items():
        np.testing.assert_array_equal(
            res.matching.row_match, ref.matching.row_match, err_msg=name
        )
        np.testing.assert_array_equal(res.prices, ref.prices, err_msg=name)
        assert res.rounds == ref.rounds, name
        assert res.cardinality_trace == ref.cardinality_trace, name


@pytest.mark.exact
def test_auction_hybrid_tail_agrees_with_pure_kernel_rounds():
    """The Gauss–Seidel tail drain changes the execution schedule, never
    the certified cardinality."""
    g = sprand(500, 3.0, seed=21)
    pure = auction_match(g, gs_tail=0)
    hybrid = auction_match(g)
    assert pure.cardinality == hybrid.cardinality == sprank(g)
