"""Tests for ``repro.stream``: dynamic graphs, incremental repair, daemon verbs.

The load-bearing test is the differential one: after a sequence of edit
batches, the incremental path must produce a *valid* matching whose
declared guarantee is exactly what a cold from-scratch run at the final
epoch declares — the incremental machinery may only save time, never
weaken the certificate.
"""

from __future__ import annotations

import json
import multiprocessing

import numpy as np
import pytest

from repro import telemetry
from repro.core.karp_sipser_mt import karp_sipser_mt_vectorized
from repro.errors import GraphStructureError, ShapeError, StreamError
from repro.graph.build import from_edges
from repro.graph.generators import sprand, union_of_permutations
from repro.matching import hopcroft_karp
from repro.scaling import alpha_for_quality
from repro.serve.daemon import (
    GRAPH_CACHE_CAP,
    GraphCache,
    _run_script,
    build_graph,
    graph_key,
)
from repro.stream import DynamicBipartiteGraph, StreamMatcher, run_churn
from repro.stream.rescale import local_rebalance

pytestmark = pytest.mark.stream


# ---------------------------------------------------------------------------
# DynamicBipartiteGraph
# ---------------------------------------------------------------------------


def _assert_same_graph(a, b):
    np.testing.assert_array_equal(a.row_ptr, b.row_ptr)
    np.testing.assert_array_equal(a.col_ind, b.col_ind)
    np.testing.assert_array_equal(a.col_ptr, b.col_ptr)
    np.testing.assert_array_equal(a.row_ind, b.row_ind)


def test_snapshot_matches_from_edges_after_edits():
    rng = np.random.default_rng(3)
    base = sprand(60, 4.0, seed=1)
    dyn = DynamicBipartiteGraph(base)
    edges = {
        (int(r), int(c))
        for r, c in zip(base.row_of_edge(), base.col_ind)
    }
    for _ in range(5):
        snap = dyn.snapshot()
        kill = rng.choice(snap.nnz, size=10, replace=False)
        del_r = snap.row_of_edge()[kill]
        del_c = snap.col_ind[kill]
        dyn.remove_edges(del_r, del_c)
        edges -= set(zip(map(int, del_r), map(int, del_c)))
        add_r = rng.integers(0, 60, size=12)
        add_c = rng.integers(0, 60, size=12)
        dyn.add_edges(add_r, add_c)
        edges |= set(zip(map(int, add_r), map(int, add_c)))
    ref_r, ref_c = zip(*sorted(edges))
    ref = from_edges(60, 60, ref_r, ref_c)
    _assert_same_graph(dyn.snapshot(), ref)
    assert dyn.nnz == len(edges)


def test_add_duplicate_is_noop_and_epoch_stable():
    dyn = DynamicBipartiteGraph(nrows=4, ncols=4)
    assert dyn.add_edges([0, 1], [1, 2]) == 2
    e = dyn.epoch
    assert dyn.add_edges([0], [1]) == 0
    assert dyn.epoch == e
    assert dyn.has_edge(0, 1) and not dyn.has_edge(1, 1)


def test_remove_missing_strict_raises_lenient_skips():
    dyn = DynamicBipartiteGraph(nrows=4, ncols=4)
    dyn.add_edges([0], [0])
    with pytest.raises(GraphStructureError, match="does not exist"):
        dyn.remove_edges([3], [3])
    assert dyn.remove_edges([3, 0], [3, 0], strict=False) == 1
    assert dyn.nnz == 0


def test_edit_validation():
    dyn = DynamicBipartiteGraph(nrows=4, ncols=4)
    with pytest.raises(ShapeError, match="differ in length"):
        dyn.add_edges([0, 1], [0])
    with pytest.raises(GraphStructureError, match="out of range"):
        dyn.add_edges([4], [0])
    with pytest.raises(GraphStructureError, match="out of range"):
        dyn.add_edges([0], [-1])


def test_grow_extends_only():
    dyn = DynamicBipartiteGraph(nrows=2, ncols=2)
    dyn.grow(nrows=5)
    assert dyn.shape == (5, 2)
    dyn.add_edges([4], [1])
    with pytest.raises(ShapeError, match="extend"):
        dyn.grow(nrows=3)
    snap = dyn.snapshot()
    assert snap.nrows == 5 and snap.nnz == 1


def test_snapshot_cached_per_epoch():
    dyn = DynamicBipartiteGraph(nrows=3, ncols=3)
    dyn.add_edges([0], [0])
    s1 = dyn.snapshot()
    assert dyn.snapshot() is s1
    dyn.add_edges([1], [1])
    assert dyn.snapshot() is not s1
    with pytest.raises(ValueError):
        dyn.snapshot().col_ind[0] = 2  # snapshots are frozen


def test_dirty_since_unions_epochs():
    dyn = DynamicBipartiteGraph(nrows=8, ncols=8)
    dyn.add_edges([0], [1])
    mark = dyn.epoch
    dyn.add_edges([2], [3])
    dyn.remove_edges([0], [1])
    d = dyn.dirty_since(mark)
    np.testing.assert_array_equal(d.rows, [0, 2])
    np.testing.assert_array_equal(d.cols, [1, 3])
    assert dyn.dirty_since(dyn.epoch).empty
    with pytest.raises(ShapeError, match="ahead"):
        dyn.dirty_since(dyn.epoch + 1)


def test_dirty_since_expired_journal_returns_none():
    dyn = DynamicBipartiteGraph(nrows=8, ncols=8, journal_limit=2)
    dyn.add_edges([0], [0])
    mark = dyn.epoch
    dyn.add_edges([1], [1])
    dyn.add_edges([2], [2])
    dyn.add_edges([3], [3])
    assert dyn.dirty_since(mark) is None  # trimmed past mark
    assert dyn.dirty_since(dyn.epoch - 1) is not None


# ---------------------------------------------------------------------------
# local_rebalance
# ---------------------------------------------------------------------------


def _exact_min_col_prob_sum(graph, dc):
    from repro.parallel.reduction import segment_sums

    rowtot = segment_sums(dc[graph.col_ind], graph.row_ptr)
    inv = np.zeros_like(rowtot)
    np.divide(1.0, rowtot, out=inv, where=rowtot > 0)
    probs = np.repeat(dc, np.diff(graph.col_ptr)) * inv[graph.row_ind]
    sums = segment_sums(probs, graph.col_ptr)
    nonempty = np.diff(graph.col_ptr) > 0
    return float(sums[nonempty].min())


def test_local_rebalance_certificate_is_exact():
    g = union_of_permutations(400, 2, seed=5)
    dc = np.ones(g.ncols)
    dc[::7] = 0.05  # knock a subset of columns below the bar
    target = 0.55
    qs, _ = local_rebalance(g, dc, target)
    assert qs.target_met
    # The reported minimum must equal an independent global measurement
    # of the returned factors — the certificate is exact, not estimated.
    true_min = _exact_min_col_prob_sum(g, qs.scaling.dc)
    assert qs.min_column_sum == pytest.approx(true_min, rel=1e-12)
    assert true_min >= alpha_for_quality(target)
    assert qs.scaling.warm_started


def test_local_rebalance_state_reuse_stays_exact():
    # Carrying (rowtot, colsum) across an edit batch and refreshing only
    # the dirty neighbourhood must give the same certificate as a
    # from-scratch measurement of the same factors.
    from repro.stream.rescale import measure_state

    base = union_of_permutations(300, 2, seed=8)
    dyn = DynamicBipartiteGraph(base)
    extra = sprand(300, 3.0, seed=9)
    dyn.add_edges(extra.row_of_edge(), extra.col_ind)
    g0 = dyn.snapshot()
    dc = np.ones(g0.ncols)
    qs0, state = local_rebalance(g0, dc, 0.55)
    mark = dyn.epoch

    rng = np.random.default_rng(10)
    kill = rng.choice(g0.nnz, size=15, replace=False)
    dyn.remove_edges(g0.row_of_edge()[kill], g0.col_ind[kill])
    dyn.add_edges(rng.integers(0, 300, size=15), rng.integers(0, 300, size=15))
    g1 = dyn.snapshot()
    dirty = dyn.dirty_since(mark)

    qs1, state1 = local_rebalance(
        g1, qs0.scaling.dc, 0.55,
        state=state, dirty_rows=dirty.rows, dirty_cols=dirty.cols,
    )
    # Bitwise, not approximate: recovery recertification compares the
    # carried state against a fresh measurement with array_equal, so the
    # local refreshes must replay measure_state's exact operation order
    # (multiply dc per edge BEFORE summing, not factor it out).
    fresh_rowtot, fresh_colsum = measure_state(g1, qs1.scaling.dc)
    assert np.array_equal(state1[0], fresh_rowtot)
    assert np.array_equal(state1[1], fresh_colsum)
    assert qs1.min_column_sum == pytest.approx(
        _exact_min_col_prob_sum(g1, qs1.scaling.dc), rel=1e-12
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_carried_state_stays_bitwise_over_update_rematch_epochs(seed):
    # Regression: with (n=120, seed=1) the factored-out dc
    # multiplication in the stale-column refresh drifted colsum by one
    # ulp from measure_state, which a later crash recovery rejected as
    # "recovered warm scale state does not match a fresh measurement".
    from repro.stream.rescale import measure_state

    n = 120
    matcher = StreamMatcher(
        DynamicBipartiteGraph(union_of_permutations(n, 3, seed=seed)),
        0.55,
        seed=seed,
    )
    for k in range(6):
        matcher.graph.add_edges(
            [k % n, (k + 1) % n], [(3 * k + 1) % n, (5 * k + 2) % n]
        )
        matcher.rematch()
        snap = matcher.graph.snapshot()
        fresh = measure_state(snap, matcher._quality.scaling.dc)
        assert np.array_equal(matcher._scale_state[0], fresh[0])
        assert np.array_equal(matcher._scale_state[1], fresh[1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_rebalance_sprand_churn_stays_finite(seed):
    # Regression: pure-sprand graphs develop near-empty columns under
    # churn; the per-round boost used to drive dc factors to inf, the
    # certificate to NaN, and the rematch into "alpha must be in [0, 1],
    # got nan".  The clamped boost + bounded-norm renormalisation must
    # keep every epoch finite with a valid matching.
    g = sprand(600, 2.0, seed=seed)
    dyn = DynamicBipartiteGraph(g)
    matcher = StreamMatcher(dyn, 0.5, seed=seed)
    results = [matcher.rematch()]
    rng = np.random.default_rng(1000 + seed)
    for _ in range(8):
        dyn.add_edges(
            rng.integers(0, g.nrows, size=30), rng.integers(0, g.ncols, size=30)
        )
        dyn.remove_edges(
            rng.integers(0, g.nrows, size=10),
            rng.integers(0, g.ncols, size=10),
            strict=False,
        )
        results.append(matcher.rematch())
    for res in results:
        assert np.isfinite(res.guarantee) and 0.0 <= res.guarantee <= 1.0
    assert results[-1].mode == "incremental"
    results[-1].matching.validate(dyn.snapshot())


# ---------------------------------------------------------------------------
# StreamMatcher
# ---------------------------------------------------------------------------


def _fresh_edge(dyn, row=0):
    """A column not currently adjacent to *row*."""
    return next(c for c in range(dyn.ncols) if not dyn.has_edge(row, c))


def _churned_graph(n=300, seed=0, batches=3, frac=0.02):
    """A dynamic graph driven through churn, with a matcher attached."""
    rng = np.random.default_rng(seed)
    base = union_of_permutations(n, 2, seed=seed)
    dyn = DynamicBipartiteGraph(base)
    extra = sprand(n, 4.0, seed=seed + 1)
    dyn.add_edges(extra.row_of_edge(), extra.col_ind)
    matcher = StreamMatcher(dyn, 0.55, seed=seed)
    # Each entry pairs the rematch result with the snapshot of the epoch
    # it was computed for (earlier results are not valid matchings of
    # *later* graphs — their edges may since have been deleted).
    results = [(matcher.rematch(), dyn.snapshot())]
    for _ in range(batches):
        snap = dyn.snapshot()
        kill = rng.choice(snap.nnz, size=int(frac * snap.nnz), replace=False)
        dyn.remove_edges(snap.row_of_edge()[kill], snap.col_ind[kill])
        dyn.add_edges(
            rng.integers(0, n, size=kill.size),
            rng.integers(0, n, size=kill.size),
        )
        results.append((matcher.rematch(), dyn.snapshot()))
    return dyn, matcher, results


def test_incremental_rematch_is_valid_and_incremental():
    dyn, matcher, results = _churned_graph()
    assert results[0][0].mode == "cold"
    for res, snap in results[1:]:
        assert res.mode == "incremental"
        res.matching.validate(snap)
        # Repair is genuinely local: far fewer vertices touched than n.
        assert res.resampled_rows < dyn.nrows
    assert results[-1][0].epoch == dyn.epoch


def test_incremental_matching_is_maximum_on_choice_subgraph():
    # The merged matching (retained pairs + per-component reruns) must
    # have the same cardinality as Karp–Sipser run from scratch on the
    # *same* choice arrays — KS is exact on 1-out subgraphs, so equality
    # means the merge lost nothing.
    dyn, matcher, results = _churned_graph(seed=2)
    full = karp_sipser_mt_vectorized(matcher._row_choice, matcher._col_choice)
    assert results[-1][0].cardinality == full.cardinality


def test_differential_guarantee_matches_cold_recompute():
    dyn, matcher, results = _churned_graph(seed=4)
    cold = StreamMatcher(dyn, 0.55, seed=99).rematch()
    assert cold.mode == "cold"
    assert results[-1][0].guarantee == cold.guarantee
    assert results[-1][0].epoch == cold.epoch


def test_forced_cold_and_journal_expiry_fall_back():
    base = union_of_permutations(80, 3, seed=0)
    dyn = DynamicBipartiteGraph(base, journal_limit=1)
    matcher = StreamMatcher(dyn, 0.55, seed=0)
    matcher.rematch()
    dyn.add_edges([0], [_fresh_edge(dyn)])
    assert matcher.rematch(cold=True).mode == "cold"
    # Two edits with journal_limit=1 trims history past the matcher.
    dyn.remove_edges([5], [dyn.snapshot().col_ind[dyn.snapshot().row_ptr[5]]])
    dyn.add_edges([5], [_fresh_edge(dyn, row=5)])
    assert dyn.dirty_since(matcher.epoch) is None
    assert matcher.rematch().mode == "cold"


def test_pure_growth_keeps_matching():
    base = union_of_permutations(60, 3, seed=1)
    dyn = DynamicBipartiteGraph(base)
    matcher = StreamMatcher(dyn, 0.55, seed=1)
    before = matcher.rematch()
    dyn.grow(nrows=70, ncols=70)
    after = matcher.rematch()
    assert after.mode == "incremental"
    assert after.repaired_rows == 0 and after.repaired_cols == 0
    assert after.cardinality == before.cardinality
    after.matching.validate(dyn.snapshot())


def test_topup_reaches_maximum():
    base = union_of_permutations(100, 2, seed=3)
    dyn = DynamicBipartiteGraph(base)
    matcher = StreamMatcher(dyn, 0.55, seed=3, topup=True)
    res = matcher.rematch()
    assert res.cardinality == hopcroft_karp(dyn.snapshot()).cardinality
    dyn.add_edges([0], [_fresh_edge(dyn)])
    res2 = matcher.rematch()
    assert res2.cardinality == hopcroft_karp(dyn.snapshot()).cardinality


def test_stream_telemetry_counters():
    with telemetry.session() as reg:
        _churned_graph(n=150, seed=6, batches=2)
        snap = {name: m for name, m in reg.snapshot().items()}
    assert snap["stream.rematch.runs"]["value"] == 3
    assert snap["stream.rematch.cold"]["value"] == 1
    assert snap["stream.rematch.incremental"]["value"] == 2
    assert "stream.rebalance.runs" in snap


def test_run_churn_reports_matching_guarantees():
    report = run_churn(600, batches=2, churn_fraction=0.02, seed=1)
    assert report.guarantees_match
    assert report.cardinality > 0
    assert report.update_seconds >= 0 and report.incremental_seconds > 0


# ---------------------------------------------------------------------------
# Daemon: graph cache, COO validation, stream verbs
# ---------------------------------------------------------------------------


def _drive(requests, **kwargs):
    code, replies = _run_script(requests, **kwargs)
    assert code == 0
    return {reply["id"]: reply for reply in replies}


def test_graph_cache_lru_eviction_and_counter():
    assert GraphCache().cap == GRAPH_CACHE_CAP
    cache = GraphCache(2)
    spec = lambda s: {"kind": "union", "n": 40, "k": 2, "seed": s}
    g0 = build_graph(spec(0), cache)
    build_graph(spec(1), cache)
    assert build_graph(spec(0), cache) is g0  # hit refreshes recency
    build_graph(spec(2), cache)  # evicts seed=1, not seed=0
    assert cache.evictions == 1 and len(cache) == 2
    assert build_graph(spec(0), cache) is g0
    with telemetry.session() as reg:
        build_graph(spec(3), cache)
        assert reg.snapshot()["serve.graph_cache.evictions"]["value"] == 1


def test_build_graph_coo_validation():
    from repro.errors import ServiceError

    ok = {"nrows": 2, "ncols": 2, "rows": [0, 1], "cols": [1, 0]}
    assert build_graph(ok).nnz == 2
    cases = [
        ({**ok, "rows": [0]}, "'rows' and 'cols' differ in length"),
        ({**ok, "cols": [1.5, 0.5]}, "'cols' must contain integers"),
        ({**ok, "rows": [[0], [1]]}, "'rows' must be a flat list"),
        ({**ok, "nrows": 2.0}, "'nrows' must be an integer"),
        ({"rows": [0], "cols": [0], "ncols": 1}, "missing 'nrows'"),
    ]
    cache = GraphCache(8)
    for spec, fragment in cases:
        # The key falls back to JSON without raising; the build raises.
        assert graph_key(spec) == json.dumps(spec, sort_keys=True)
        with pytest.raises(ServiceError, match=fragment):
            build_graph(spec, cache)
    assert len(cache) == 0


_COO = {"nrows": 4, "ncols": 4, "rows": [0, 1, 2, 3, 3],
        "cols": [3, 0, 1, 2, 0]}


def test_graph_key_equal_coo_content_shares_one_graph():
    cache = GraphCache(4)
    graph = build_graph(_COO, cache)
    same = [
        dict(reversed(list(_COO.items()))),
        {**_COO, "label": "an unknown field"},
        {**_COO, "rows": [np.int32(r) for r in _COO["rows"]],
         "cols": [np.int64(c) for c in _COO["cols"]]},
    ]
    for spec in same:
        assert graph_key(spec) == graph_key(_COO)
        assert build_graph(spec, cache) is graph
    assert len(cache) == 1


def test_graph_key_differs_when_content_differs():
    other = [
        {**_COO, "cols": [3, 0, 1, 2, 1]},  # one edge moved
        {**_COO, "rows": _COO["cols"], "cols": _COO["rows"]},
        {**_COO, "nrows": 5},  # same edges, one more row
    ]
    keys = [graph_key(spec) for spec in other]
    assert len(set(keys)) == 3 and graph_key(_COO) not in keys
    cache = GraphCache(4)
    graphs = [build_graph(spec, cache) for spec in [_COO, *other]]
    assert len(cache) == 4 and graphs[3].nrows == 5


def test_graph_key_keeps_json_for_path_and_kind_specs(tmp_path):
    from repro.graph.io import write_matrix_market

    kind = {"kind": "union", "n": 40, "k": 2, "seed": 0}
    assert graph_key(kind) == json.dumps(kind, sort_keys=True)
    # 'kind' wins over COO fields in build_graph, and so in the key.
    sprand_spec = {"kind": "sprand", "n": 30, "seed": 1, **_COO}
    assert graph_key(sprand_spec) == json.dumps(sprand_spec, sort_keys=True)
    path = tmp_path / "m.mtx"
    on_disk = union_of_permutations(6, 2, seed=3)
    write_matrix_market(on_disk, path)
    spec = {"path": str(path), **_COO}
    assert graph_key(spec) == json.dumps(spec, sort_keys=True)
    cache = GraphCache(4)
    built = build_graph(spec, cache)
    _assert_same_graph(built, on_disk)  # read as a path, not as COO
    assert len(cache) == 1 and graph_key(spec) in cache


def test_daemon_stream_session_lifecycle():
    graph = {"kind": "union", "n": 120, "k": 3, "seed": 0}
    by_id = _drive([
        {"id": 1, "op": "stream_open", "graph": graph,
         "target_quality": 0.55},
        {"id": 2, "op": "rematch", "handle": "s1", "include_matching": True},
        {"id": 3, "op": "update", "handle": "s1",
         "add": {"rows": [0, 1], "cols": [5, 6]},
         "remove": {"rows": [], "cols": []}},
        {"id": 4, "op": "rematch", "handle": "s1", "expect_epoch": 1},
        {"id": 5, "op": "rematch", "handle": "s1", "expect_epoch": 0},
        {"id": 6, "op": "stream_close", "handle": "s1"},
        {"id": 7, "op": "rematch", "handle": "s1"},
        {"id": 8, "op": "shutdown"},
    ])
    assert by_id[1]["ok"] and by_id[1]["handle"] == "s1"
    assert by_id[1]["epoch"] == 0 and by_id[1]["nnz"] > 0
    assert by_id[2]["ok"] and by_id[2]["mode"] == "cold"
    assert by_id[2]["guarantee"] == pytest.approx(0.55)
    assert len(by_id[2]["row_match"]) == 120
    assert by_id[3]["ok"] and by_id[3]["epoch"] == 1
    assert by_id[4]["ok"] and by_id[4]["mode"] == "incremental"
    assert "row_match" not in by_id[4]
    assert not by_id[5]["ok"] and by_id[5]["error"] == "StreamError"
    assert "stale epoch" in by_id[5]["message"]
    assert by_id[6]["ok"] and by_id[6]["closed"]
    assert not by_id[7]["ok"] and "unknown stream handle" in by_id[7]["message"]


def test_daemon_sessions_share_one_backend_and_close_it():
    """Every session runs on the daemon's one backend: three
    open/rematch/close cycles on ``shm:2`` leave one pool alive, and the
    daemon closes it when it exits."""
    before = set(multiprocessing.active_children())

    def pool_workers() -> int:
        return len(set(multiprocessing.active_children()) - before)

    alive: list[int] = []

    def requests():
        graph = {"kind": "union", "n": 200, "k": 3, "seed": 0}
        for k in range(1, 4):
            handle = f"s{k}"
            yield {"id": k, "op": "stream_open", "graph": graph, "seed": k}
            yield {"id": k, "op": "rematch", "handle": handle}
            yield {"id": k, "op": "stream_close", "handle": handle}
        alive.append(pool_workers())

    code, replies = _run_script(requests(), "shm:2")
    assert code == 0
    assert len(replies) == 9 and all(r["ok"] for r in replies)
    assert 1 <= alive[0] <= 2
    assert pool_workers() == 0


def test_daemon_stream_limits_and_validation():
    graph = {"kind": "union", "n": 40, "k": 2, "seed": 0}
    by_id = _drive(
        [
            {"id": 1, "op": "stream_open", "graph": graph},
            {"id": 2, "op": "stream_open", "graph": graph},
            {"id": 3, "op": "update", "handle": "s1",
             "add": {"rows": [0.5], "cols": [1]}},
            {"id": 4, "op": "update", "handle": "s1",
             "remove": {"rows": [0], "cols": [39]}},
            {"id": 5, "op": "shutdown"},
        ],
        max_streams=1,
    )
    assert by_id[1]["ok"]
    assert not by_id[2]["ok"] and by_id[2]["error"] == "StreamError"
    assert "stream limit" in by_id[2]["message"]
    assert not by_id[3]["ok"] and "add.rows" in by_id[3]["message"]
    # Deleting a non-edge surfaces the typed graph error, not a crash.
    assert by_id[4]["ok"] or by_id[4]["error"] == "GraphStructureError"


def test_daemon_graph_cache_cap_threads_through():
    # The daemon's cache holds GRAPH_CACHE_CAP graphs; two specs past it
    # evict two.
    specs = [
        {"kind": "union", "n": 30, "k": 2, "seed": s}
        for s in range(GRAPH_CACHE_CAP + 2)
    ]
    reqs = [
        {"id": i, "op": "match", "graph": spec, "iterations": 1}
        for i, spec in enumerate(specs)
    ]
    with telemetry.session() as reg:
        by_id = _drive(reqs + [{"id": "h", "op": "health"}])
        evictions = reg.snapshot()["serve.graph_cache.evictions"]["value"]
    assert all(by_id[i]["ok"] for i in range(len(specs)))
    assert by_id["h"]["graph_cache"] == {
        "size": GRAPH_CACHE_CAP, "cap": GRAPH_CACHE_CAP
    }
    assert evictions == 2
