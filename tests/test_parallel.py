"""Tests for the parallel substrate: partition, atomics, backends,
reductions, simulated threads, and the machine cost model."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BackendError, ScheduleError
from repro.parallel import (
    AtomicArray,
    MachineModel,
    SerialBackend,
    SimScheduler,
    SchedulePolicy,
    ThreadBackend,
    chunk_ranges,
    get_backend,
    static_partition,
)
from repro.parallel.machine import ScheduleSpec
from repro.parallel.partition import guided_chunks
from repro.parallel.reduction import segment_sums, segment_sums_parallel


class TestPartition:
    def test_chunk_ranges_cover(self):
        ranges = chunk_ranges(10, 3)
        assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_chunk_ranges_bad_chunk(self):
        with pytest.raises(ScheduleError):
            chunk_ranges(10, 0)

    def test_static_partition_cover_and_balance(self):
        parts = static_partition(100, 7)
        assert parts[0][0] == 0 and parts[-1][1] == 100
        sizes = [hi - lo for lo, hi in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_static_partition_more_parts_than_items(self):
        parts = static_partition(3, 10)
        assert sum(hi - lo for lo, hi in parts) == 3

    def test_static_partition_bad_parts(self):
        with pytest.raises(ScheduleError):
            static_partition(5, 0)

    def test_guided_chunks_decreasing_then_floor(self):
        chunks = guided_chunks(1000, 4, min_chunk=10)
        sizes = [hi - lo for lo, hi in chunks]
        assert sizes[0] == 250
        assert all(s >= 10 or i == len(sizes) - 1 for i, s in enumerate(sizes))
        assert chunks[-1][1] == 1000

    @given(st.integers(0, 500), st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_all_partitions_are_exact_covers(self, n, p):
        for ranges in (
            static_partition(n, p),
            chunk_ranges(n, 7),
            guided_chunks(n, p, 3),
        ):
            covered = []
            for lo, hi in ranges:
                covered.extend(range(lo, hi))
            assert covered == list(range(n))


class TestAtomics:
    def test_add_and_fetch(self):
        a = AtomicArray([5, 0])
        assert a.add_and_fetch(0, -2) == 3
        assert a.load(0) == 3

    def test_compare_and_swap_success_returns_replacement(self):
        a = AtomicArray([-1])
        assert a.compare_and_swap(0, -1, 7) == 7
        assert a.load(0) == 7

    def test_compare_and_swap_failure_returns_current(self):
        a = AtomicArray([3])
        assert a.compare_and_swap(0, -1, 7) == 3
        assert a.load(0) == 3

    def test_store_and_len(self):
        a = AtomicArray(4)
        a.store(2, 9)
        assert a.load(2) == 9
        assert len(a) == 4

    def test_add(self):
        a = AtomicArray([1])
        a.add(0, 10)
        assert a.load(0) == 11


class TestBackends:
    def test_get_backend_specs(self):
        assert isinstance(get_backend(None), SerialBackend)
        assert isinstance(get_backend("serial"), SerialBackend)
        be = get_backend("threads:3")
        assert isinstance(be, ThreadBackend) and be.n_workers == 3
        be.close()
        existing = SerialBackend()
        assert get_backend(existing) is existing

    def test_get_backend_bad_spec(self):
        """Every malformed spec raises BackendError naming the spec —
        never a bare ValueError from ``int()``, never a dropped count."""
        for spec in ("gpu", 42, "processes:2", "threads:x", "shm:two",
                     "serial:3"):
            with pytest.raises(BackendError, match=re.escape(repr(spec))):
                get_backend(spec)

    def test_serial_map(self):
        out = SerialBackend().map_ranges(lambda lo, hi: (lo, hi), 7)
        assert out == [(0, 7)]

    def test_thread_map_covers_and_orders(self):
        with ThreadBackend(3) as be:
            out = be.map_ranges(lambda lo, hi: (lo, hi), 10)
        assert out[0][0] == 0 and out[-1][1] == 10

    def test_thread_backend_bad_workers(self):
        with pytest.raises(BackendError):
            ThreadBackend(0)


class TestSegmentSums:
    def test_basic(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        ptr = np.array([0, 2, 2, 4])
        np.testing.assert_allclose(segment_sums(vals, ptr), [3.0, 0.0, 7.0])

    def test_trailing_empty_segments(self):
        vals = np.array([1.0])
        ptr = np.array([0, 1, 1, 1])
        np.testing.assert_allclose(segment_sums(vals, ptr), [1.0, 0.0, 0.0])

    def test_all_empty(self):
        np.testing.assert_allclose(
            segment_sums(np.array([]), np.array([0, 0, 0])), [0.0, 0.0]
        )

    def test_no_segments(self):
        assert segment_sums(np.array([1.0]), np.array([0])).shape == (0,)

    @given(st.lists(st.integers(0, 6), min_size=0, max_size=20),
           st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_against_naive(self, seg_lengths, seed):
        rng = np.random.default_rng(seed)
        ptr = np.concatenate([[0], np.cumsum(seg_lengths)]).astype(np.int64)
        vals = rng.random(int(ptr[-1]))
        expected = np.array(
            [vals[ptr[i]:ptr[i + 1]].sum() for i in range(len(seg_lengths))]
        )
        np.testing.assert_allclose(segment_sums(vals, ptr), expected)
        with ThreadBackend(2) as be:
            np.testing.assert_allclose(
                segment_sums_parallel(vals, ptr, be), expected
            )


class TestSimScheduler:
    @staticmethod
    def _counter_program(log, tid, steps):
        for i in range(steps):
            log.append((tid, i))
            yield

    def test_all_programs_complete(self):
        log = []
        progs = [self._counter_program(log, t, 5) for t in range(3)]
        stats = SimScheduler(progs, policy="round_robin").run()
        assert stats.total_steps == 15
        assert stats.steps_per_thread == [5, 5, 5]

    def test_round_robin_interleaves(self):
        log = []
        progs = [self._counter_program(log, t, 2) for t in range(2)]
        SimScheduler(progs, policy="round_robin").run()
        assert log == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_sequential_runs_to_completion(self):
        log = []
        progs = [self._counter_program(log, t, 3) for t in range(2)]
        SimScheduler(progs, policy="sequential").run()
        assert log == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_random_deterministic_with_seed(self):
        def make():
            log = []
            progs = [self._counter_program(log, t, 4) for t in range(3)]
            SimScheduler(progs, policy="random", seed=9).run()
            return log

        assert make() == make()

    def test_adversarial_keeps_threads_level(self):
        log = []
        progs = [self._counter_program(log, t, 10) for t in range(2)]
        stats = SimScheduler(progs, policy="adversarial", seed=0).run()
        # Progress difference never exceeded 1 step.
        assert stats.steps_per_thread == [10, 10]

    def test_max_steps_guard(self):
        def forever():
            while True:
                yield

        with pytest.raises(ScheduleError):
            SimScheduler([forever()], max_steps=100).run()

    def test_trace_collection(self):
        log = []
        progs = [self._counter_program(log, t, 2) for t in range(2)]
        stats = SimScheduler(progs, policy="round_robin", keep_trace=True).run()
        assert stats.trace == [0, 1, 0, 1]


class TestMachineModel:
    def test_speedup_monotone_under_roof(self):
        model = MachineModel()
        work = np.full(10_000, 5.0)
        speeds = [model.speedup(work, p) for p in (1, 2, 4, 8)]
        assert speeds[0] == pytest.approx(1.0)
        assert speeds == sorted(speeds)

    def test_bandwidth_roofline_limits_scaling(self):
        model = MachineModel(bandwidth_threads=8.0)
        work = np.full(100_000, 3.0)
        s16 = model.speedup(work, 16)
        assert s16 < 12.0  # cannot approach 16

    def test_no_roof_when_compute_bound(self):
        model = MachineModel(compute_bound_fraction=1.0)
        assert model.bandwidth_factor(16) == pytest.approx(1.0)

    def test_skewed_work_scales_worse(self):
        model = MachineModel()
        rng = np.random.default_rng(0)
        flat = np.full(5_000, 10.0)
        skewed = rng.pareto(1.0, 5_000) * 9.0 + 1.0
        skewed *= flat.sum() / skewed.sum()  # same total work
        sched = ScheduleSpec.dynamic(32)
        assert model.speedup(skewed, 16, schedule=sched) < model.speedup(
            flat, 16, schedule=sched
        )

    def test_schedules_cover_all_work(self):
        model = MachineModel(chunk_overhead=0.0)
        work = np.arange(1, 101, dtype=float)
        for spec in (
            ScheduleSpec.dynamic(8),
            ScheduleSpec.guided(4),
            ScheduleSpec.static(),
        ):
            bd = model.parallel_time(work, 1, schedule=spec)
            assert bd.makespan == pytest.approx(work.sum())

    def test_barriers_and_serial_work_added(self):
        model = MachineModel()
        work = np.ones(100)
        bd = model.parallel_time(work, 4, serial_work=50.0, barriers=3)
        assert bd.serial_work == 50.0
        assert bd.barrier_cost == pytest.approx(3 * model.barrier_unit * 3.0)

    def test_invalid_thread_count(self):
        with pytest.raises(ScheduleError):
            MachineModel().parallel_time(np.ones(5), 0)

    def test_makespan_at_least_heaviest_chunk(self):
        model = MachineModel(chunk_overhead=0.0)
        work = np.zeros(1000)
        work[0] = 1_000_000.0  # one giant item
        bd = model.parallel_time(work, 16, schedule=ScheduleSpec.dynamic(10))
        assert bd.makespan >= 1_000_000.0
