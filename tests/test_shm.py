"""Tests for the shared-memory worker pool and the kernel registry.

Covers the three contracts the zero-copy path makes:

* **equivalence** — every backend (serial, threads, shm, resilient
  wrappers) produces bitwise-identical scaling vectors,
  choices, and matchings, including on multi-chunk grids;
* **zero-copy** — a kernel call ships only names, ranges, and scalars to
  the pool: no array ever crosses the process boundary by pickling;
* **crash semantics** — a dead worker surfaces as a typed
  ``WorkerCrashError`` and the pool self-heals on the next call.
"""

import numpy as np
import pytest

import repro.parallel.kernels as kernels_mod
from repro import telemetry
from repro.core.choice import ChoiceSampler, scaled_row_choices
from repro.core.ensemble import best_of
from repro.core.twosided import two_sided_match
from repro.errors import BackendError, WorkerCrashError
from repro.graph.generators import sprand, union_of_permutations
from repro.matching.matching import NIL
from repro.parallel import (
    SharedMemoryBackend,
    ThreadBackend,
    default_worker_count,
    get_backend,
    kernel_chunk_override,
    run_kernel,
)
from repro.parallel.kernels import KERNELS, kernel_grid
from repro.parallel.partition import static_partition
from repro.resilience.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    FaultSpec,
    injected_faults,
)
from repro.scaling.sinkhorn_knopp import scale_sinkhorn_knopp

BACKEND_SPECS = [
    "serial",
    "threads:2",
    "shm:2",
    "resilient:shm",
]

@pytest.fixture
def shm2():
    backend = SharedMemoryBackend(2)
    yield backend
    backend.close()


class TestDefaultWorkerCount:
    def test_positive_int(self):
        count = default_worker_count()
        assert isinstance(count, int) and count >= 1

    def test_backends_default_to_it(self):
        thread_be = ThreadBackend()
        shm_be = SharedMemoryBackend()
        try:
            assert thread_be.n_workers == default_worker_count()
            assert shm_be.n_workers == default_worker_count()
        finally:
            thread_be.close()
            shm_be.close()


class TestKernelGrid:
    def test_small_n_is_single_chunk(self):
        kern = KERNELS["sk_sweep"]
        assert kernel_grid(kern.min_chunk, kern) == [(0, kern.min_chunk)]

    def test_grid_depends_only_on_n_and_kernel(self):
        kern = KERNELS["sk_sweep"]
        n = 10 * kern.min_chunk
        grid = kernel_grid(n, kern)
        assert grid[0][0] == 0 and grid[-1][1] == n
        assert 1 < len(grid) <= kern.target_chunks
        assert grid == kernel_grid(n, kern)

    def test_override_context(self):
        kern = KERNELS["sk_sweep"]
        with kernel_chunk_override(10):
            assert kernel_grid(25, kern) == [(0, 10), (10, 20), (20, 25)]
        assert kernel_grid(25, kern) == [(0, 25)]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(BackendError):
            run_kernel("no_such_kernel", 4, {})


class TestOutputValidation:
    def test_missing_output_binding_raises_typed_error(self):
        n = 16
        arrays = {
            "ptr": np.zeros(n + 1, dtype=np.int64),
            "ind": np.zeros(0, dtype=np.int64),
            "opp": np.ones(n),
            # "out" deliberately missing
        }
        with pytest.raises(BackendError) as exc:
            run_kernel("sk_sweep", n, arrays)
        assert "sk_sweep" in str(exc.value)
        assert "out" in str(exc.value)

    def test_error_raised_before_any_worker_runs(self, ):
        n = 16
        arrays = {"prices": np.ones(4)}
        with pytest.raises(BackendError) as exc:
            run_kernel(
                "auction_bid", n, arrays,
                scalars={"eps": 0.1, "dead": 1.0},
            )
        msg = str(exc.value)
        assert "auction_bid" in msg and "bid_col" in msg


class TestGridMemoization:
    def test_grid_cache_hit_counter(self):
        kern = KERNELS["sk_sweep"]
        kernels_mod._GRID_CACHE.clear()
        with telemetry.session():
            first = kernels_mod.kernel_grid(100_000, kern)
            second = kernels_mod.kernel_grid(100_000, kern)
            reg = telemetry.get_registry()
            hits = reg.counter("parallel.grid.cache_hits").value
        assert first == second
        assert hits >= 1

    def test_grid_cache_respects_override(self):
        kern = KERNELS["sk_sweep"]
        with kernel_chunk_override(10):
            inside = kernels_mod.kernel_grid(25, kern)
        outside = kernels_mod.kernel_grid(25, kern)
        assert inside == [(0, 10), (10, 20), (20, 25)]
        assert outside == [(0, 25)]

    def test_grid_returns_fresh_list(self):
        kern = KERNELS["sk_sweep"]
        a = kernels_mod.kernel_grid(50_000, kern)
        a.append((-1, -1))
        b = kernels_mod.kernel_grid(50_000, kern)
        assert (-1, -1) not in b

    def test_static_partition_memoized(self):
        from repro.parallel import partition as part_mod

        part_mod._PARTITION_CACHE.clear()
        with telemetry.session():
            first = static_partition(10_000, 4)
            second = static_partition(10_000, 4)
            reg = telemetry.get_registry()
            hits = reg.counter("parallel.grid.cache_hits").value
        assert first == second
        assert hits >= 1

    def test_empty_segment_only_chunk_picks_nil(self):
        # Regression: a chunk of nothing but empty segments used to
        # index ind_slice[-1] on an empty slice in the numpy kernel.
        n = 3
        arrays = {
            "ptr": np.zeros(n + 1, dtype=np.int64),
            "ind": np.zeros(0, dtype=np.int64),
            "weights": np.zeros(0, dtype=np.float64),
            "draws": np.full(n, 0.5),
            "out": np.full(n, 7, dtype=np.int64),
        }
        run_kernel("choice_flat", n, arrays)
        assert np.all(arrays["out"] == NIL)


class TestBackendEquivalence:
    """Bitwise identity across every backend, on multi-chunk grids."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return [
            sprand(700, 4.0, seed=5),
            sprand(900, 2.0, seed=6),  # has empty rows/cols
            union_of_permutations(800, 3, seed=7),
        ]

    @pytest.fixture(scope="class")
    def references(self, graphs):
        return [scale_sinkhorn_knopp(g, 5) for g in graphs]

    @pytest.mark.parametrize("spec", BACKEND_SPECS)
    def test_scaling_bitwise_identical(self, spec, graphs, references):
        backend = get_backend(spec)
        try:
            with kernel_chunk_override(97):
                for graph, ref in zip(graphs, references):
                    result = scale_sinkhorn_knopp(graph, 5, backend=backend)
                    assert np.array_equal(result.dr, ref.dr)
                    assert np.array_equal(result.dc, ref.dc)
                    assert result.error == ref.error
        finally:
            backend.close()

    @pytest.mark.parametrize("spec", BACKEND_SPECS)
    def test_choices_bitwise_identical(self, spec, graphs, references):
        backend = get_backend(spec)
        try:
            with kernel_chunk_override(64):
                for graph, ref in zip(graphs, references):
                    got = scaled_row_choices(
                        graph, ref.dr, ref.dc,
                        np.random.default_rng(3), backend=backend,
                    )
                    want = scaled_row_choices(
                        graph, ref.dr, ref.dc, np.random.default_rng(3)
                    )
                    assert np.array_equal(got, want)
        finally:
            backend.close()

    @pytest.mark.parametrize("spec", ["serial", "threads:2", "shm:2"])
    def test_parallel_engine_matches_vectorized(self, spec):
        graph = union_of_permutations(900, 4, seed=2)
        want = two_sided_match(graph, 5, seed=13, engine="vectorized")
        backend = get_backend(spec)
        try:
            with kernel_chunk_override(64):
                got = two_sided_match(
                    graph, 5, seed=13, backend=backend, engine="parallel"
                )
        finally:
            backend.close()
        got.matching.validate(graph)
        assert np.array_equal(
            got.matching.row_match, want.matching.row_match
        )

    def test_ensemble_matches_per_run_calls(self):
        graph = union_of_permutations(600, 3, seed=4)
        scaling = scale_sinkhorn_knopp(graph, 5)
        res = best_of(graph, 3, scaling=scaling, seed=9)
        rng = np.random.default_rng(9)
        manual = tuple(
            two_sided_match(graph, scaling=scaling, seed=rng).cardinality
            for _ in range(3)
        )
        assert res.cardinalities == manual

    def test_sampler_single_gather_reuse(self):
        graph = sprand(500, 3.0, seed=8)
        scaling = scale_sinkhorn_knopp(graph, 5)
        sampler = ChoiceSampler.for_rows(graph, scaling.dr, scaling.dc)
        got = sampler.sample(np.random.default_rng(1))
        want = scaled_row_choices(
            graph, scaling.dr, scaling.dc, np.random.default_rng(1)
        )
        assert np.array_equal(got, want)


class TestShmPool:
    def test_spec_parsing(self):
        backend = get_backend("shm:3")
        try:
            assert isinstance(backend, SharedMemoryBackend)
            assert backend.n_workers == 3
        finally:
            backend.close()

    def test_pool_persists_across_calls(self, shm2):
        graph = sprand(400, 3.0, seed=0)
        scale_sinkhorn_knopp(graph, 2, backend=shm2)
        pids = sorted(p.pid for p in shm2._procs)
        scale_sinkhorn_knopp(graph, 2, backend=shm2)
        assert sorted(p.pid for p in shm2._procs) == pids

    def test_read_only_arrays_published_once(self, shm2):
        graph = sprand(400, 3.0, seed=0)
        scale_sinkhorn_knopp(graph, 2, backend=shm2)
        rind = graph.col_layout().rind
        seg = shm2._segments[id(rind)]
        assert seg.owner is rind  # pinned: the id cannot be recycled
        scale_sinkhorn_knopp(graph, 2, backend=shm2)
        assert shm2._segments[id(rind)] is seg

    def test_warm_solves_create_no_segments(self, shm2, monkeypatch):
        """Each solve binds fresh arrays (factors, draws, picks) to the
        same roles; once warm, they reuse the pool's writable buffers."""
        import repro.parallel.shm as shm_mod

        graph = sprand(20_000, 4.0, seed=2)
        for seed in (0, 1):
            two_sided_match(
                graph, 5, seed=seed, backend=shm2, engine="parallel"
            )
        created = []
        init = shm_mod._Segment.__init__

        def counting_init(seg, arr):
            created.append(arr.shape)
            init(seg, arr)

        monkeypatch.setattr(shm_mod._Segment, "__init__", counting_init)
        n_segments = len(shm2._segments)
        for seed in range(2, 22):
            got = two_sided_match(
                graph, 5, seed=seed, backend=shm2, engine="parallel"
            )
            want = two_sided_match(
                graph, 5, seed=seed, backend="serial", engine="parallel"
            )
            assert np.array_equal(
                got.matching.row_match, want.matching.row_match
            )
        assert created == []
        assert len(shm2._segments) == n_segments

    def test_tasks_carry_no_arrays(self, shm2):
        """The zero-copy regression: a task is a few hundred bytes of
        names/ranges/scalars regardless of graph size."""
        graph = sprand(60_000, 8.0, seed=1)
        with kernel_chunk_override(4096):
            scale_sinkhorn_knopp(graph, 1, backend=shm2)
        assert len(shm2.last_tasks) > 1
        assert max(shm2.last_task_bytes) < 4096

        def has_array(obj):
            if isinstance(obj, np.ndarray):
                return True
            if isinstance(obj, dict):
                return any(has_array(v) for v in obj.values())
            if isinstance(obj, (list, tuple)):
                return any(has_array(v) for v in obj)
            return False

        assert not any(has_array(task) for task in shm2.last_tasks)

    def test_killed_worker_self_heals(self, shm2):
        graph = sprand(400, 3.0, seed=0)
        ref = scale_sinkhorn_knopp(graph, 2)
        scale_sinkhorn_knopp(graph, 2, backend=shm2)
        shm2._procs[0].kill()
        shm2._procs[0].join()
        result = scale_sinkhorn_knopp(graph, 2, backend=shm2)
        assert np.array_equal(result.dr, ref.dr)
        assert np.array_equal(result.dc, ref.dc)
        assert all(p.is_alive() for p in shm2._procs)

    def test_injected_crash_is_typed_and_recoverable(self, shm2):
        graph = sprand(400, 3.0, seed=0)
        ref = scale_sinkhorn_knopp(graph, 2)
        plan = FaultPlan(
            [FaultSpec("crash", backend="shm", max_hits=1)], seed=0
        )
        with injected_faults(plan):
            with pytest.raises(WorkerCrashError) as err:
                scale_sinkhorn_knopp(graph, 2, backend=shm2)
            result = scale_sinkhorn_knopp(graph, 2, backend=shm2)
        # The dead worker's exit status is named: the injected crash
        # ``os._exit``s with CRASH_EXIT_CODE inside the worker.
        assert f"exited with status {CRASH_EXIT_CODE}" in str(err.value)
        assert np.array_equal(result.dr, ref.dr)
        assert np.array_equal(result.dc, ref.dc)

    def test_close_then_reuse_respawns(self, shm2):
        graph = sprand(300, 3.0, seed=0)
        ref = scale_sinkhorn_knopp(graph, 2)
        scale_sinkhorn_knopp(graph, 2, backend=shm2)
        shm2.close()
        result = scale_sinkhorn_knopp(graph, 2, backend=shm2)
        assert np.array_equal(result.dc, ref.dc)

    def test_generic_map_ranges_fallback(self, shm2):
        out = shm2.map_ranges(lambda lo, hi: hi - lo, 100)
        assert sum(out) == 100

    def test_segment_cache_eviction(self):
        backend = SharedMemoryBackend(1, max_segments=8)
        try:
            # Four graphs publish 12 read-only layout arrays: more than
            # the cap, so the least recently used ones are unlinked.
            for seed in range(4):
                graph = sprand(300, 3.0, seed=seed)
                views = graph.col_layout()._asdict()
                views["opp"] = np.random.default_rng(seed).random(graph.nrows)
                out, want = np.empty(graph.ncols), np.empty(graph.ncols)
                run_kernel(
                    "sk_sweep", graph.ncols, {**views, "out": out},
                    backend=backend,
                )
                run_kernel("sk_sweep", graph.ncols, {**views, "out": want})
                assert len(backend._segments) <= 8
                assert np.array_equal(out, want)
        finally:
            backend.close()

    def test_bad_worker_count(self):
        with pytest.raises(BackendError):
            SharedMemoryBackend(0)
        with pytest.raises(BackendError):
            SharedMemoryBackend(1, max_segments=2)


class TestShutdownAndDrain:
    """Pool shutdown: segments unlinked, in-flight work completed."""

    def test_close_unlinks_every_segment(self):
        from multiprocessing.shared_memory import SharedMemory

        from repro.parallel.shm import _OPEN_BACKENDS

        backend = SharedMemoryBackend(2)
        graph = sprand(500, 4.0, seed=1)
        scale_sinkhorn_knopp(graph, 2, backend=backend)
        names = [seg.shm.name for seg in backend._segments.values()]
        assert names, "the scale run should have published segments"
        backend.close()
        assert backend._segments == {}
        assert backend not in _OPEN_BACKENDS
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)

    def test_close_is_idempotent(self):
        backend = SharedMemoryBackend(2)
        graph = sprand(200, 3.0, seed=2)
        scale_sinkhorn_knopp(graph, 1, backend=backend)
        backend.close()
        backend.close()
        assert backend._segments == {}

    def test_healthy_reflects_pool_state(self):
        backend = SharedMemoryBackend(2)
        try:
            assert backend.healthy()  # not spawned yet
            graph = sprand(200, 3.0, seed=2)
            scale_sinkhorn_knopp(graph, 1, backend=backend)
            assert backend.healthy()
            backend._procs[0].kill()
            backend._procs[0].join()
            assert not backend.healthy()
        finally:
            backend.close()

    def test_drain_completes_inflight_chunks_then_closes(self):
        import threading
        import time

        backend = SharedMemoryBackend(2)
        graph = sprand(2000, 4.0, seed=3)
        scaling = scale_sinkhorn_knopp(graph, 2)  # serial, fault-free
        reference = scaled_row_choices(
            graph, scaling.dr, scaling.dc, np.random.default_rng(7)
        )
        plan = FaultPlan(
            [FaultSpec("slow", seconds=0.2, backend="shm")], seed=0
        )
        box = {}

        def call():
            try:
                box["out"] = scaled_row_choices(
                    graph, scaling.dr, scaling.dc,
                    np.random.default_rng(7), backend=backend,
                )
            except BaseException as exc:  # noqa: BLE001 - asserted below
                box["error"] = exc

        try:
            with injected_faults(plan), kernel_chunk_override(500):
                worker = threading.Thread(target=call)
                worker.start()
                time.sleep(0.15)  # the slow-faulted call is in flight
                # a zero-timeout drain cannot finish while the call runs,
                # but must flip the backend into draining mode
                assert backend.drain(timeout=0.01) is False
                assert backend.drain(timeout=30.0) is True
                worker.join(timeout=30.0)
                assert not worker.is_alive()
            # the in-flight call was completed, not aborted...
            assert "error" not in box, f"call failed: {box.get('error')!r}"
            np.testing.assert_array_equal(box["out"], reference)
            # ...the pool is gone, and new calls are rejected typed
            assert backend._segments == {}
            with pytest.raises(BackendError, match="draining"):
                run_kernel(
                    "choice_scaled", graph.nrows,
                    {"ptr": graph.row_ptr, "ind": graph.col_ind,
                     "opp": scaling.dc,
                     "draws": np.random.default_rng(1).random(graph.nrows),
                     "out": np.empty(graph.nrows, dtype=np.int64)},
                    backend=backend,
                )
        finally:
            backend.close()
