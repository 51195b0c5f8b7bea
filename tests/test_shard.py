"""Sharded matching subsystem tests (``pytest -m shard``).

The subsystem's contract is differential: for every shard count K the
partitioned scale→choice→reconcile pipeline must produce **bitwise** the
same scaling vectors, choices, matching, and §3.3 guarantee as the
unsharded serial pipeline (``two_sided_match(engine="vectorized")``).
The matrix below proves it per generator family at K ∈ {1, 2, 4}, plus:

* partition invariants — chunk-aligned deterministic bounds, frontier
  edges really cross ownership, ``plan_for_budget`` finds the smallest
  K under a per-shard memory cap and the capped plan still matches;
* the round engines behind ``engine="vectorized"`` and
  ``engine="parallel"``, which after round 1 follow only the out-one
  frontier, pinned bitwise (matching and round count) to reconcile's
  full-scan rounds;
* sharded Sinkhorn–Knopp (``shard_scale``) bitwise against the serial
  loop for 1–16 shards, with a Hypothesis property over graphs, budgets
  and shard counts, and the certificate's per-shard edge check;
* the daemon transport — shard verbs through a live :class:`Dispatcher`,
  the full driver over a subprocess router fleet (bitwise vs the
  in-process transport), and a SIGKILL of a shard daemon mid-round
  recovering to the identical merged matching;
* keep-alive :class:`~repro.serve.net.ResilientClient` connections and
  the dispatcher's bounded acked-rid replay cache.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import two_sided_match
from repro.core.choice import scaled_col_choices, scaled_row_choices
from repro.core.karp_sipser_mt import (
    karp_sipser_mt_parallel,
    karp_sipser_mt_vectorized,
)
from repro.errors import (
    ConvergenceWarning,
    PartitionedError,
    ScalingError,
    ShardError,
    StreamError,
)
from repro.graph import from_dense
from repro.graph.adversarial import karp_sipser_adversarial
from repro.graph.generators import (
    fully_indecomposable,
    sprand,
    sprand_rect,
    union_of_permutations,
)
from repro.matching.matching import NIL
from repro.parallel.kernels import kernel_chunk_override
from repro.scaling import scale_sinkhorn_knopp
from repro.shard import (
    ShardPlan,
    plan_for_budget,
    plan_shards,
    reconcile_serial,
    shard_match,
    shard_scale,
)
from repro.shard.pipeline import shard_validate_rows
from tests.test_karp_sipser_mt_vectorized import (
    chain_choices,
    choice_arrays,
    star_choices,
)

pytestmark = pytest.mark.shard

#: Small chunk override so graphs of a few hundred vertices split into
#: real multi-shard plans (the production grid's 8192 minimum chunk
#: would collapse them into one shard).  The serial reference runs under
#: the same override, so the differential contract is unchanged.
CHUNK = 32

FAMILIES = {
    "sprand": lambda: sprand(240, 4.0, seed=3),
    "sprand_rect": lambda: sprand_rect(200, 260, 3.0, seed=5),
    "union_of_permutations": lambda: union_of_permutations(220, 3, seed=1),
    "fully_indecomposable": lambda: fully_indecomposable(210, 3.0, seed=2),
    "adversarial": lambda: karp_sipser_adversarial(60, 6),
}


def _serial_reference(g, iterations=5, seed=3, scaling=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        if scaling is None:
            return two_sided_match(
                g, iterations, seed=seed, engine="vectorized"
            )
        return two_sided_match(
            g, scaling=scaling, seed=seed, engine="vectorized"
        )


def _assert_bitwise_equal(res, ref):
    np.testing.assert_array_equal(res.matching.row_match, ref.matching.row_match)
    np.testing.assert_array_equal(res.matching.col_match, ref.matching.col_match)
    np.testing.assert_array_equal(res.scaling.dr, ref.scaling.dr)
    np.testing.assert_array_equal(res.scaling.dc, ref.scaling.dc)
    assert res.scaling.error == ref.scaling.error
    assert res.scaling.rung == ref.scaling.rung
    assert res.guarantee == ref.guarantee
    assert res.cardinality == ref.cardinality


# ---------------------------------------------------------------------------
# differential matrix: sharded == serial bitwise, per family and K


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_differential_matrix(family, k):
    g = FAMILIES[family]()
    with kernel_chunk_override(CHUNK):
        ref = _serial_reference(g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            res = shard_match(g, k, 5, seed=3)
    assert res.n_shards == k and res.tier == "local"
    _assert_bitwise_equal(res, ref)


def test_shard_count_invariance():
    g = sprand(300, 4.0, seed=9)
    with kernel_chunk_override(CHUNK):
        results = [shard_match(g, k, 4, seed=1) for k in (1, 2, 3, 4, 5)]
    base = results[0]
    for res in results[1:]:
        np.testing.assert_array_equal(
            res.matching.row_match, base.matching.row_match
        )
        assert res.rounds == base.rounds
        assert res.guarantee == base.guarantee


def test_default_chunk_grid_large():
    """No override: the production 8192-chunk grid, real 3-way split."""
    g = sprand(20_000, 4.0, seed=0)
    assert plan_shards(g, 3).boundary_edges > 0
    ref = _serial_reference(g, iterations=4, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        res = shard_match(g, 3, 4, seed=2)
    _assert_bitwise_equal(res, ref)


def test_warm_start_and_tolerance_bitwise():
    g = union_of_permutations(200, 3, seed=4)
    prior = scale_sinkhorn_knopp(g, 3)
    with kernel_chunk_override(CHUNK):
        sc = scale_sinkhorn_knopp(g, tolerance=1e-8, initial=prior)
        ref = _serial_reference(g, seed=6, scaling=sc)
        res = shard_match(
            g, 3, None, seed=6, tolerance=1e-8, initial=prior
        )
    assert res.scaling.warm_started and res.scaling.converged
    _assert_bitwise_equal(res, ref)


def test_empty_graph_uniform_rung():
    g = from_dense(np.zeros((6, 4), dtype=int))
    res = shard_match(g, 2, 5, seed=0)
    ref = _serial_reference(g, seed=0)
    assert res.scaling.rung == "uniform"
    assert res.cardinality == 0
    _assert_bitwise_equal(res, ref)


def test_capped_rung_warns_like_serial():
    # A structurally deficient pattern: SK cannot converge, the ladder
    # caps the budget, and both pipelines must warn identically.
    dense = np.zeros((40, 40), dtype=int)
    dense[:, 0] = 1
    dense[0, :] = 1
    g = from_dense(dense)
    with kernel_chunk_override(CHUNK):
        with pytest.warns(ConvergenceWarning) as serial_warns:
            ref = two_sided_match(g, 60, seed=1, engine="vectorized")
        with pytest.warns(ConvergenceWarning) as shard_warns:
            res = shard_match(g, 2, 60, seed=1)
    assert res.scaling.rung == "capped" == ref.scaling.rung
    assert str(shard_warns[0].message) == str(serial_warns[0].message)
    _assert_bitwise_equal(res, ref)


# ---------------------------------------------------------------------------
# the frontier round engines pinned to reconcile's full-scan rounds


def _assert_round_engines_match_reconcile(rc, cc):
    """Both round engines equal ``reconcile_serial`` bitwise, rounds too."""
    matching, rounds = reconcile_serial(rc, cc)
    for name, engine in (
        ("vectorized", karp_sipser_mt_vectorized),
        ("parallel", karp_sipser_mt_parallel),
    ):
        with telemetry.session() as reg:
            got = engine(rc, cc)
        np.testing.assert_array_equal(got.row_match, matching.row_match)
        np.testing.assert_array_equal(got.col_match, matching.col_match)
        assert reg.counter(f"ks_mt.{name}.rounds").value == rounds
    return rounds


@given(choice_arrays())
@settings(max_examples=200, deadline=None)
def test_round_engines_match_reconcile(arrays):
    _assert_round_engines_match_reconcile(*arrays)


@pytest.mark.parametrize("seed", range(6))
def test_reconcile_matches_vectorized_karp_sipser(seed):
    rng = np.random.default_rng(seed)
    nrows, ncols = 130, 110
    rc = rng.integers(0, ncols, size=nrows).astype(np.int64)
    cc = rng.integers(0, nrows, size=ncols).astype(np.int64)
    rc[rng.random(nrows) < 0.2] = NIL
    cc[rng.random(ncols) < 0.2] = NIL
    assert _assert_round_engines_match_reconcile(rc, cc) >= 1


def test_round_engines_match_reconcile_on_chain_and_star():
    assert _assert_round_engines_match_reconcile(*chain_choices(500)) == 499
    assert _assert_round_engines_match_reconcile(*star_choices(50)) == 1


def test_round_engines_match_reconcile_at_scale():
    g = sprand(200_000, 4.0, seed=5)
    scaling = scale_sinkhorn_knopp(g, 5)
    rng = np.random.default_rng(5)
    rc = scaled_row_choices(g, scaling.dr, scaling.dc, rng)
    cc = scaled_col_choices(g, scaling.dr, scaling.dc, rng)
    assert _assert_round_engines_match_reconcile(rc, cc) > 2


# ---------------------------------------------------------------------------
# partition invariants


def test_plan_is_deterministic_and_covers_edges():
    g = sprand(260, 4.0, seed=7)
    with kernel_chunk_override(CHUNK):
        a = plan_shards(g, 4)
        b = plan_shards(g, 4)
    assert a.row_bounds == b.row_bounds and a.col_bounds == b.col_bounds
    assert sum(s.csr_nnz for s in a.shards) == g.nnz
    assert sum(s.csc_nnz for s in a.shards) == g.nnz
    for bounds, n in ((a.row_bounds, g.nrows), (a.col_bounds, g.ncols)):
        assert bounds[0] == 0 and bounds[-1] == n
        assert all(x <= y for x, y in zip(bounds, bounds[1:]))
        assert all(x % CHUNK == 0 for x in bounds[1:-1])


def test_frontier_edges_really_cross_ownership():
    g = sprand(260, 4.0, seed=7)
    with kernel_chunk_override(CHUNK):
        plan = plan_shards(g, 4)
    assert plan.boundary_edges > 0
    for shard in plan.shards:
        assert shard.frontier_rows.shape == shard.frontier_cols.shape
        for i, j in zip(shard.frontier_rows, shard.frontier_cols):
            assert shard.row_lo <= i < shard.row_hi
            assert plan.owner_of_col(int(j)) != shard.index
            assert plan.owner_of_row(int(i)) == shard.index


def test_owner_helpers_and_plan_errors():
    g = sprand(100, 3.0, seed=0)
    with kernel_chunk_override(CHUNK):
        plan = plan_shards(g, 3)
        for i in (0, 50, 99):
            k = plan.owner_of_row(i)
            assert plan.row_bounds[k] <= i < plan.row_bounds[k + 1]
        with pytest.raises(ShardError):
            plan.owner_of_row(100)
        with pytest.raises(ShardError):
            plan.owner_of_col(-1)
        with pytest.raises(ShardError):
            plan_shards(g, 0)
        with pytest.raises(ShardError):
            plan_for_budget(g, 0)


def test_plan_for_budget_matches_under_memory_cap():
    """A per-shard cap smaller than the whole graph forces K > 1, and the
    capped plan's matching still equals the unsharded run bitwise."""
    g = sprand(300, 4.0, seed=11)
    with kernel_chunk_override(CHUNK):
        whole = plan_shards(g, 1).max_held_nnz
        cap = whole // 2
        plan = plan_for_budget(g, cap)
        assert isinstance(plan, ShardPlan)
        assert plan.n_shards > 1
        assert plan.max_held_nnz <= cap < whole
        # No coarser plan would have fit: the next-smaller K overflows.
        assert plan_shards(g, plan.n_shards - 1).max_held_nnz > cap
        res = shard_match(g, plan.n_shards, 5, seed=11)
        ref = _serial_reference(g, iterations=5, seed=11)
    assert res.plan.row_bounds == plan.row_bounds
    assert res.plan.max_held_nnz == plan.max_held_nnz
    _assert_bitwise_equal(res, ref)
    res.matching.validate(g)


# ---------------------------------------------------------------------------
# sharded Sinkhorn–Knopp and the per-shard edge check

#: Chunk size for the sharded-scaling checks: small enough that every
#: fixed case below splits into several chunks, so K > 1 plans hold rows.
SCALE_CHUNK = 2


class TestShardScale:
    """``shard_scale`` (one in-process session per shard) against serial
    Sinkhorn–Knopp: bitwise in both factor vectors, exact in the error
    and the sweep count.  The small chunk grid makes multi-shard plans
    form on test-sized graphs; ``plan_shards`` leaves a shard empty when
    there are more shards than chunks."""

    @staticmethod
    def _assert_bitwise(g, iterations, n_shards):
        with kernel_chunk_override(SCALE_CHUNK):
            serial = scale_sinkhorn_knopp(g, iterations)
            sharded = shard_scale(g, iterations, n_shards=n_shards)
        np.testing.assert_array_equal(sharded.dr, serial.dr)
        np.testing.assert_array_equal(sharded.dc, serial.dc)
        assert sharded.error == serial.error
        assert sharded.iterations == serial.iterations
        return sharded

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_matches_serial(self, n_shards):
        self._assert_bitwise(sprand(300, 4.0, seed=0), 5, n_shards)

    def test_rectangular(self):
        self._assert_bitwise(sprand_rect(120, 200, 3.0, seed=1), 4, 3)

    def test_empty_lines_tolerated(self):
        a = np.array([[1, 1, 0], [0, 0, 0], [0, 1, 0]])
        sharded = self._assert_bitwise(from_dense(a), 3, 2)
        assert np.isfinite(sharded.dr).all()
        assert np.isfinite(sharded.dc).all()

    def test_more_shards_than_rows(self):
        self._assert_bitwise(sprand(5, 2.0, seed=0), 2, 16)

    def test_zero_iterations(self):
        sharded = self._assert_bitwise(sprand(50, 3.0, seed=0), 0, 2)
        np.testing.assert_array_equal(sharded.dr, np.ones(50))

    def test_bad_arguments(self):
        g = sprand(10, 2.0, seed=0)
        with pytest.raises(ScalingError):
            shard_scale(g, -1)
        with pytest.raises(ShardError):
            shard_scale(g, 2, n_shards=0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=120),
        degree=st.floats(min_value=1.0, max_value=6.0),
        iterations=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_shards=st.integers(min_value=1, max_value=7),
    )
    def test_shard_count_never_changes_the_factors(
        self, n, degree, iterations, seed, n_shards
    ):
        """Property: for any graph, budget, and shard count, the sharded
        sweep is bitwise equal to the serial one."""
        g = sprand(n, min(degree, float(n)), seed=seed)
        self._assert_bitwise(g, iterations, n_shards)


def test_shard_validate_rows_counts_partners_outside_the_slice():
    g = sprand(260, 4.0, seed=7)
    with kernel_chunk_override(CHUNK):
        plan = plan_shards(g, 3)
    # Every non-empty row points at its first neighbour: all real edges.
    match = np.full(g.nrows + g.ncols, NIL, dtype=np.int64)
    rows = np.flatnonzero(g.row_degrees() > 0)
    match[rows] = g.nrows + g.col_ind[g.row_ptr[rows]]
    assert [shard_validate_rows(s, match) for s in plan.shards] == [0, 0, 0]
    # One row of shard 1 now points at a column outside its CSR slice.
    i = plan.shards[1].row_lo
    j = next(c for c in range(g.ncols) if not g.has_edge(i, c))
    match[i] = g.nrows + j
    assert [shard_validate_rows(s, match) for s in plan.shards] == [0, 1, 0]


# ---------------------------------------------------------------------------
# daemon tier: shard verbs through a live dispatcher (in-process)


def _dispatcher(max_streams=8, acked_cap=1024):
    from repro.serve.daemon import Dispatcher, _StreamRegistry
    from repro.serve.server import MatchingServer

    server = MatchingServer("serial")
    dispatcher = Dispatcher(
        server, _StreamRegistry(max_streams, "serial"), acked_cap=acked_cap
    )
    return server, dispatcher


def test_dispatcher_shard_verbs_roundtrip():
    spec = {"kind": "sprand", "n": 120, "degree": 4.0, "seed": 2}
    g = sprand(120, 4.0, seed=2)
    with kernel_chunk_override(CHUNK):
        local = shard_match(g, 2, 3, seed=5)
    plan = local.plan
    sc, rc, cc = local.scaling, local.row_choice, local.col_choice
    server, dispatcher = _dispatcher()
    try:
        handles = []
        for k in range(2):
            response, _ = dispatcher.handle({
                "op": "shard_open", "id": k, "graph": spec,
                "n_shards": 2, "index": k,
                "chunk_rows": plan.chunk_rows,
                "chunk_cols": plan.chunk_cols,
            })
            assert response["ok"], response
            assert response["csr_nnz"] == plan.shards[k].csr_nnz
            assert response["frontier"] == plan.shards[k].frontier_size
            handles.append(response["handle"])
        # Choice verbs answer on the daemon's slices.
        for k, handle in enumerate(handles):
            s = plan.shards[k]
            response, _ = dispatcher.handle({
                "op": "shard_choices", "id": 10 + k, "handle": handle,
                "which": "row", "opp": sc.dc.tolist(),
                "draws": None,
            })
            assert response["ok"]
        # Arm, run the reconcile rounds, finish: checksums must agree and
        # the merged matching must equal the in-process run's bitwise.
        for k, handle in enumerate(handles):
            response, _ = dispatcher.handle({
                "op": "shard_arm", "id": 20 + k, "handle": handle,
                "row_choice": rc.tolist(), "col_choice": cc.tolist(),
            })
            assert response["ok"] and response["armed"]
        while True:
            scans = []
            for k, handle in enumerate(handles):
                response, _ = dispatcher.handle({
                    "op": "shard_scan", "id": 30 + k, "handle": handle,
                })
                assert response["ok"]
                scans.append(response)
            merged = [v for r in scans for v in r["rows"]] + [
                v for r in scans for v in r["cols"]
            ]
            committed = set()
            for k, handle in enumerate(handles):
                response, _ = dispatcher.handle({
                    "op": "shard_commit", "id": 40 + k, "handle": handle,
                    "candidates": merged,
                })
                assert response["ok"]
                committed.add(response["committed"])
            assert len(committed) == 1
            if not committed.pop():
                break
        digests = set()
        for k, handle in enumerate(handles):
            response, _ = dispatcher.handle({
                "op": "shard_finish", "id": 50 + k, "handle": handle,
            })
            assert response["ok"]
            digests.add(response["checksum"])
            from repro.core.karp_sipser_mt import matching_from_unified

            match = np.asarray(response["match"], dtype=np.int64)
            merged_matching = matching_from_unified(
                match, g.nrows, g.ncols
            )
            np.testing.assert_array_equal(
                merged_matching.row_match, local.matching.row_match
            )
        assert len(digests) == 1
        health, _ = dispatcher.handle({"op": "health", "id": 90})
        assert health["shards"] == 2
        for k, handle in enumerate(handles):
            response, _ = dispatcher.handle({
                "op": "shard_close", "id": 60 + k, "handle": handle,
            })
            assert response["ok"] and response["closed"]
        health, _ = dispatcher.handle({"op": "health", "id": 91})
        assert health["shards"] == 0
    finally:
        server.close()


def test_dispatcher_shard_errors_are_typed():
    server, dispatcher = _dispatcher(max_streams=1)
    spec = {"kind": "sprand", "n": 40, "degree": 3.0, "seed": 0}
    try:
        response, _ = dispatcher.handle({
            "op": "shard_sweep", "id": 1, "handle": "s99", "which": "col",
        })
        assert not response["ok"] and response["error"] == "ShardError"
        opened, _ = dispatcher.handle({
            "op": "shard_open", "id": 2, "graph": spec,
            "n_shards": 1, "index": 0,
        })
        assert opened["ok"]
        # Unarmed scan is a typed error, not a crash.
        response, _ = dispatcher.handle({
            "op": "shard_scan", "id": 3, "handle": opened["handle"],
        })
        assert not response["ok"] and response["error"] == "ShardError"
        # Handle budget is shared with stream sessions.
        response, _ = dispatcher.handle({
            "op": "shard_open", "id": 4, "graph": spec,
            "n_shards": 2, "index": 1,
        })
        assert not response["ok"] and response["error"] == "StreamError"
    finally:
        server.close()


@pytest.mark.parametrize(
    "first, second", [("shard_open", "open"), ("open", "shard_open")]
)
def test_stream_and_shard_opens_share_one_budget(first, second):
    from repro.errors import StreamError
    from repro.serve.daemon import _StreamRegistry

    registry = _StreamRegistry(1, "serial")
    msg = {"graph": {"kind": "sprand", "n": 40, "degree": 3.0, "seed": 0},
           "n_shards": 1, "index": 0}
    getattr(registry, first)(msg)
    with pytest.raises(StreamError, match="stream limit"):
        getattr(registry, second)(msg)
    assert len(registry._sessions) + len(registry._shards) == 1


def test_dispatcher_acked_cache_is_bounded():
    spec = {"nrows": 8, "ncols": 8, "rows": [0], "cols": [1]}

    def update(i, rid):
        # Update k adds the new edge (k, 0); adding it again adds none.
        response, _ = dispatcher.handle(
            {"op": "update", "id": i, "rid": rid, "handle": "s1",
             "add": {"rows": [int(rid[1:])], "cols": [0]}}
        )
        assert response["ok"], response
        return response["epoch"], response["added"]

    with telemetry.session() as reg:
        server, dispatcher = _dispatcher(acked_cap=2)
        try:
            dispatcher.handle({"op": "stream_open", "id": 0, "graph": spec})
            acks = [update(i, f"r{i}") for i in range(4)]
            assert acks == [(1, 1), (2, 1), (3, 1), (4, 1)]
            # Cap 2: remembering r2 evicted r0, remembering r3 evicted r1.
            assert dispatcher.rid_evictions == 2
            assert len(dispatcher._acked) == 2
            # A retry inside the window replays the cached ack...
            assert update(9, "r3") == (4, 1)
            assert reg.counter("serve.rid_replays").value == 1
            # ...and a retry of an evicted rid re-executes instead.
            assert update(10, "r0") == (4, 0)
            assert reg.counter("serve.rid_replays").value == 1
            assert reg.counter("serve.rid_evictions").value >= 2
            health, _ = dispatcher.handle({"op": "health", "id": 11})
            assert health["rid_evictions"] >= 2
        finally:
            server.close()


def test_dispatcher_rejects_bad_acked_cap():
    from repro.errors import ServiceError

    with pytest.raises(ServiceError):
        _dispatcher(acked_cap=0)


# ---------------------------------------------------------------------------
# journal / checkpoint round-trip of shard sessions


def test_shard_sessions_survive_journal_recovery(tmp_path):
    from repro.serve.daemon import _StreamRegistry
    from repro.serve.journal import DurableLog
    from repro.serve.recovery import recover_registry

    spec = {"kind": "sprand", "n": 90, "degree": 4.0, "seed": 6}
    g = sprand(90, 4.0, seed=6)
    with kernel_chunk_override(CHUNK):
        local = shard_match(g, 2, 3, seed=8)
    plan = local.plan
    # checkpoint_every=2 forces a mid-stream snapshot, so recovery
    # exercises checkpoint load + WAL tail replay, not replay alone.
    registry = _StreamRegistry(
        8, None, journal=DurableLog(str(tmp_path), checkpoint_every=2)
    )
    handles = []
    for k in range(2):
        opened = registry.shard_open(
            {"graph": spec, "n_shards": 2, "index": k,
             "chunk_rows": plan.chunk_rows, "chunk_cols": plan.chunk_cols,
             "rid": f"open-{k}"}
        )
        handles.append(opened["handle"])
    for k, handle in enumerate(handles):
        registry.shard_arm({
            "handle": handle, "rid": f"arm-{k}",
            "row_choice": local.row_choice.tolist(),
            "col_choice": local.col_choice.tolist(),
        })
    # One committed round before the "crash".
    scans = [registry.shard_scan({"handle": h}) for h in handles]
    merged = [v for r in scans for v in r["rows"]] + [
        v for r in scans for v in r["cols"]
    ]
    committed = [
        registry.shard_commit(
            {"handle": h, "rid": f"c0-{k}", "candidates": merged}
        )
        for k, h in enumerate(handles)
    ]
    assert all(r["committed"] for r in committed)
    mid_states = {h: registry._shards[h].export_state() for h in handles}
    registry.journal.close()

    recovered, report = recover_registry(
        str(tmp_path), attach_journal=False
    )
    assert sorted(recovered._shards) == sorted(handles)
    for handle in handles:
        assert recovered._shards[handle].export_state() == mid_states[handle]
    # The recovered replica, driven to completion, lands on the
    # in-process run's matching — the crash lost nothing.
    while True:
        scans = [recovered.shard_scan({"handle": h}) for h in handles]
        merged = [v for r in scans for v in r["rows"]] + [
            v for r in scans for v in r["cols"]
        ]
        if not all(
            recovered.shard_commit({"handle": h, "candidates": merged})[
                "committed"
            ]
            for h in handles
        ):
            break
    digests = {
        recovered.shard_finish({"handle": h})["checksum"] for h in handles
    }
    assert len(digests) == 1
    from repro.core.karp_sipser_mt import matching_from_unified

    final = matching_from_unified(
        recovered._shards[handles[0]].state.match, g.nrows, g.ncols
    )
    np.testing.assert_array_equal(
        final.row_match, local.matching.row_match
    )


# ---------------------------------------------------------------------------
# daemon tier: subprocess router fleet (e2e)


def test_daemon_tier_bitwise_equals_sim_tier(tmp_path):
    from repro.serve.router import Router
    from repro.shard import shard_match_daemons

    spec = {"kind": "sprand", "n": 250, "degree": 4.0, "seed": 9}
    g = sprand(250, 4.0, seed=9)
    local = shard_match(g, 3, iterations=4, seed=21)
    with Router(
        2, str(tmp_path / "rt"), backend="serial", health_interval=0.0
    ) as router:
        dmn = shard_match_daemons(
            spec, 3, iterations=4, router=router, seed=21, graph=g
        )
    assert dmn.tier == "daemon"
    _assert_bitwise_equal(dmn, local)
    np.testing.assert_array_equal(dmn.row_choice, local.row_choice)
    np.testing.assert_array_equal(dmn.col_choice, local.col_choice)
    assert dmn.rounds == local.rounds


def test_daemon_transport_rejects_bad_budget_before_opening():
    from repro.shard import shard_match_daemons

    class NoRouter:
        def request(self, msg, **kw):
            raise AssertionError(f"unexpected {msg['op']} request")

    spec = {"kind": "sprand", "n": 60, "degree": 3.0, "seed": 0}
    with pytest.raises(ScalingError):
        shard_match_daemons(spec, 2, iterations=-1, router=NoRouter())


def test_daemon_tier_survives_shard_kill_mid_round(tmp_path):
    from repro.serve.router import Router
    from repro.shard import shard_match_daemons

    spec = {"kind": "sprand", "n": 250, "degree": 4.0, "seed": 9}
    g = sprand(250, 4.0, seed=9)
    local = shard_match(g, 3, iterations=4, seed=21)
    with Router(
        2, str(tmp_path / "rt"), backend="serial", health_interval=0.0
    ) as router:
        plain = router.request
        state = {"commits": 0, "killed": False}

        def chaotic(msg, **kw):
            if msg.get("op") == "shard_commit" and not state["killed"]:
                state["commits"] += 1
                if state["commits"] == 2:
                    owner = msg["handle"].split(":", 1)[0]
                    victim = router._node_by_name(owner)
                    assert victim.alive()
                    victim.proc.kill()  # SIGKILL, no goodbye
                    victim.proc.wait()
                    state["killed"] = True
            return plain(msg, **kw)

        router.request = chaotic
        dmn = shard_match_daemons(
            spec, 3, iterations=4, router=router, seed=21, graph=g
        )
        router.request = plain
        assert state["killed"]
        restarts = sum(
            node["restarts"] for node in router.health()["nodes"]
        )
        assert restarts >= 1
    # Zero acked loss: the recovered run equals the uninterrupted one.
    _assert_bitwise_equal(dmn, local)


# ---------------------------------------------------------------------------
# keep-alive client


def _socket_stack(tmp_path, name="ka.sock"):
    from repro.serve.daemon import Dispatcher, _StreamRegistry
    from repro.serve.net import SocketServer
    from repro.serve.server import MatchingServer

    server = MatchingServer("serial")
    dispatcher = Dispatcher(server, _StreamRegistry(4, "serial"))
    front = SocketServer(
        dispatcher, f"unix:{tmp_path}/{name}", deadline=30.0
    )
    return server, front


def test_keepalive_reuses_one_connection(tmp_path):
    from repro.serve.net import ResilientClient

    server, front = _socket_stack(tmp_path)
    with telemetry.session() as reg:
        with front:
            client = ResilientClient(front.address, retries=1, keepalive=True)
            try:
                for _ in range(4):
                    assert client.request({"op": "health"})["ok"]
            finally:
                client.close()
        server.close()
    assert reg.counter("serve.net.client_connects").value == 1
    assert reg.counter("serve.net.client_conn_reuses").value == 3


def test_keepalive_reconnects_after_connection_drop(tmp_path):
    from repro.serve.net import ResilientClient

    server, front = _socket_stack(tmp_path)
    with telemetry.session() as reg:
        with front:
            client = ResilientClient(front.address, retries=2, keepalive=True)
            try:
                assert client.request({"op": "health"})["ok"]
                # Sever the kept connection under the client's feet
                # (shutdown, not close: the reader's io-ref would keep a
                # closed fd alive); the next request must fail the stale
                # socket, redial, and succeed — inside one request().
                import socket as _socket

                client._conn.shutdown(_socket.SHUT_RDWR)
                assert client.request({"op": "health"})["ok"]
            finally:
                client.close()
        server.close()
    assert reg.counter("serve.net.client_connects").value == 2
    assert reg.counter("serve.net.client_retries").value >= 1


def test_keepalive_exhaustion_stays_typed(tmp_path):
    from repro.serve.net import ResilientClient

    client = ResilientClient(
        f"unix:{tmp_path}/nobody-home.sock",
        retries=1, deadline=0.5, keepalive=True,
    )
    with pytest.raises(PartitionedError):
        client.request({"op": "health"})
    client.close()


def test_fresh_connection_mode_is_unchanged(tmp_path):
    from repro.serve.net import ResilientClient

    server, front = _socket_stack(tmp_path)
    with telemetry.session() as reg:
        with front:
            client = ResilientClient(front.address, retries=1)
            for _ in range(3):
                assert client.request({"op": "health"})["ok"]
            client.close()  # harmless no-op without keepalive
        server.close()
    assert reg.counter("serve.net.client_conn_reuses").value == 0


def test_cli_check_compares_a_positive_guarantee(capsys):
    from repro.__main__ import main

    assert main(["shard", "--check", "--n", "4000"]) == 0
    out = capsys.readouterr().out
    guarantee = float(out.split("guarantee    :")[1].split()[0])
    assert guarantee > 0 and "bitwise-identical" in out
