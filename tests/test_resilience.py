"""Tests for the resilience layer: fault injection, the deadline/retry
backend wrapper, and their telemetry."""

from __future__ import annotations

import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.errors import (
    BackendError,
    DeadlineExceededError,
    ResultCorruptionError,
    RetryExhaustedError,
    WorkerCrashError,
)
from repro.parallel import (
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from repro.resilience import (
    CORRUPTED,
    Deadline,
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilientBackend,
    active_plan,
    current_deadline,
    execute_with_fault,
    injected_faults,
    is_corrupted,
    request_deadline,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _identity_range(lo: int, hi: int) -> np.ndarray:
    """Picklable kernel returning its slice (the library convention)."""
    return np.arange(lo, hi, dtype=np.int64)


def _buggy_range(lo: int, hi: int) -> np.ndarray:
    raise ValueError("kernel bug, not an infrastructure failure")


class TestFaultSpec:
    def test_address_matching(self):
        spec = FaultSpec("crash", backend="threads", chunk=1, call=0)
        assert spec.matches("threads", 1, 0)
        assert not spec.matches("serial", 1, 0)
        assert not spec.matches("threads", 0, 0)
        assert not spec.matches("threads", 1, 1)

    def test_wildcards_match_everything(self):
        spec = FaultSpec(FaultKind.SLOW)
        assert spec.matches("anything", 99, 12)

    def test_bad_probability_rejected(self):
        with pytest.raises(BackendError):
            FaultSpec("crash", probability=1.5)

    def test_kind_coerced_and_default_seconds(self):
        spec = FaultSpec("hang")
        assert spec.kind is FaultKind.HANG
        assert spec.seconds == 30.0


class TestFaultPlan:
    def test_max_hits_budget(self):
        plan = FaultPlan([FaultSpec("crash", max_hits=2)])
        hits = [plan.match("serial", 0, call) for call in range(4)]
        assert [h is not None for h in hits] == [True, True, False, False]

    def test_reset_restores_budget_and_calls(self):
        plan = FaultPlan([FaultSpec("crash", max_hits=1)])
        assert plan.match("serial", 0, 0) is not None
        assert plan.match("serial", 0, 1) is None
        plan.reset()
        assert plan.begin_call("serial") == 0
        assert plan.match("serial", 0, 0) is not None

    def test_probability_draw_deterministic(self):
        def draws():
            plan = FaultPlan(
                [FaultSpec("slow", probability=0.5)], seed=42
            )
            return [
                plan.match("threads", chunk, call) is not None
                for chunk in range(8)
                for call in range(4)
            ]

        first = draws()
        assert first == draws()
        assert any(first) and not all(first)  # p=0.5 actually splits

    def test_different_seeds_differ(self):
        def draws(seed):
            plan = FaultPlan(
                [FaultSpec("slow", probability=0.5)], seed=seed
            )
            return [plan.match("t", c, 0) is not None for c in range(32)]

        assert draws(0) != draws(1)

    def test_begin_call_counts_per_backend(self):
        plan = FaultPlan([])
        assert plan.begin_call("serial") == 0
        assert plan.begin_call("serial") == 1
        assert plan.begin_call("threads") == 0

    def test_plan_call_addresses_each_chunk(self):
        plan = FaultPlan([FaultSpec("crash", chunk=2)])
        specs = plan.plan_call("serial", 4)
        assert [s is not None for s in specs] == [False, False, True, False]

    def test_fault_telemetry_counters(self):
        reg = telemetry.enable()
        plan = FaultPlan([FaultSpec("corrupt")])
        plan.match("serial", 0, 0)
        assert reg.counter("resilience.faults.injected").value == 1
        assert reg.counter("resilience.faults.corrupt").value == 1


class TestInjectionContext:
    def test_off_by_default_and_restored(self):
        assert active_plan() is None
        plan = FaultPlan([])
        with injected_faults(plan):
            assert active_plan() is plan
        assert active_plan() is None

    def test_nested_installs_restore_previous(self):
        outer, inner = FaultPlan([]), FaultPlan([])
        with injected_faults(outer):
            with injected_faults(inner):
                assert active_plan() is inner
            assert active_plan() is outer


class TestExecuteWithFault:
    def test_none_spec_runs_clean(self):
        out = execute_with_fault(None, _identity_range, 2, 5)
        np.testing.assert_array_equal(out, [2, 3, 4])

    def test_crash_raises_in_process(self):
        with pytest.raises(WorkerCrashError):
            execute_with_fault(
                FaultSpec("crash"), _identity_range, 0, 3, in_child=False
            )

    def test_corrupt_returns_marker(self):
        out = execute_with_fault(FaultSpec("corrupt"), _identity_range, 0, 3)
        assert is_corrupted(out) and out is CORRUPTED

    def test_slow_still_returns_result(self):
        spec = FaultSpec("slow", seconds=0.01)
        out = execute_with_fault(spec, _identity_range, 0, 2)
        np.testing.assert_array_equal(out, [0, 1])


class TestPlainBackendInjection:
    def test_thread_backend_crash_surfaces_typed(self):
        plan = FaultPlan([FaultSpec("crash", chunk=0, max_hits=1)])
        with ThreadBackend(2) as be, injected_faults(plan):
            with pytest.raises(WorkerCrashError):
                be.map_ranges(_identity_range, 10)

    def test_serial_backend_clean_when_no_rule_matches(self):
        plan = FaultPlan([FaultSpec("crash", backend="threads")])
        with injected_faults(plan):
            out = SerialBackend().map_ranges(_identity_range, 4)
        np.testing.assert_array_equal(out[0], [0, 1, 2, 3])


class TestResilientBackend:
    def test_parameter_validation(self):
        with pytest.raises(BackendError):
            ResilientBackend(deadline=0.0)
        with pytest.raises(BackendError):
            ResilientBackend(max_retries=-1)
        with pytest.raises(BackendError):
            ResilientBackend(jitter=2.0)

    def test_nesting_refused(self):
        with pytest.raises(BackendError):
            ResilientBackend(ResilientBackend())

    def test_get_backend_resilient_spec(self):
        be = get_backend("resilient:threads:2")
        try:
            assert isinstance(be, ResilientBackend)
            assert isinstance(be.inner, ThreadBackend)
            assert be.label == "resilient.threads"
        finally:
            be.close()

    @pytest.mark.parametrize("inner", ["serial", "threads:2", "shm:2"])
    def test_clean_run_bitwise_equal(self, inner):
        reference = SerialBackend().map_ranges(_identity_range, 37)
        be = ResilientBackend(inner, deadline=10.0)
        try:
            out = be.map_ranges(_identity_range, 37)
        finally:
            be.close()
        np.testing.assert_array_equal(
            np.concatenate(out), np.concatenate(reference)
        )

    def test_crash_recovered_thread_inner(self):
        reg = telemetry.enable()
        plan = FaultPlan([FaultSpec("crash", max_hits=1)])
        be = ResilientBackend("threads:2", deadline=5.0, backoff=0.01)
        try:
            with injected_faults(plan):
                out = be.map_ranges(_identity_range, 20)
        finally:
            be.close()
        np.testing.assert_array_equal(np.concatenate(out), np.arange(20))
        assert reg.counter("resilience.retries").value == 1
        assert reg.counter("resilience.recovered_chunks").value == 1

    def test_crash_recovered_shm_inner(self):
        """``resilient:shm`` retries on the wrapper's runner threads: the
        crash is recovered and the pool is never started."""
        plan = FaultPlan(
            [FaultSpec("crash", backend="shm", chunk=0, max_hits=1)]
        )
        be = ResilientBackend("shm:2", deadline=10.0, backoff=0.01)
        try:
            with injected_faults(plan):
                out = be.map_ranges(_identity_range, 16)
            assert be.inner._procs == []
        finally:
            be.close()
        np.testing.assert_array_equal(np.concatenate(out), np.arange(16))

    def test_hang_hits_deadline_then_recovers(self):
        plan = FaultPlan(
            [FaultSpec("hang", seconds=5.0, max_hits=1)]
        )
        be = ResilientBackend("serial", deadline=0.2, backoff=0.01)
        try:
            with injected_faults(plan):
                out = be.map_ranges(_identity_range, 6)
        finally:
            be.close()
        np.testing.assert_array_equal(out[0], np.arange(6))

    def test_corrupt_detected_and_retried(self):
        reg = telemetry.enable()
        plan = FaultPlan([FaultSpec("corrupt", max_hits=1)])
        be = ResilientBackend("serial", deadline=5.0, backoff=0.01)
        try:
            with injected_faults(plan):
                out = be.map_ranges(_identity_range, 5)
        finally:
            be.close()
        np.testing.assert_array_equal(out[0], np.arange(5))
        assert (
            reg.counter("resilience.chunk_failures.resultcorruption").value
            == 1
        )

    def test_exhaustion_raises_typed_with_cause(self):
        plan = FaultPlan([FaultSpec("crash")])  # unbounded
        be = ResilientBackend(
            "threads:2", deadline=5.0, max_retries=1, backoff=0.01
        )
        try:
            with injected_faults(plan):
                with pytest.raises(RetryExhaustedError) as err:
                    be.map_ranges(_identity_range, 8)
        finally:
            be.close()
        assert isinstance(err.value.__cause__, WorkerCrashError)

    def test_deadline_exhaustion_type(self):
        plan = FaultPlan([FaultSpec("hang", seconds=5.0)])
        be = ResilientBackend(
            "serial", deadline=0.1, max_retries=0, backoff=0.01
        )
        try:
            with injected_faults(plan):
                with pytest.raises(RetryExhaustedError) as err:
                    be.map_ranges(_identity_range, 3)
        finally:
            be.close()
        assert isinstance(err.value.__cause__, DeadlineExceededError)

    def test_kernel_bug_not_retried(self):
        reg = telemetry.enable()
        be = ResilientBackend("serial", deadline=5.0, max_retries=3)
        try:
            with pytest.raises(ValueError, match="kernel bug"):
                be.map_ranges(_buggy_range, 4)
        finally:
            be.close()
        assert reg.counter("resilience.retries").value == 0

    def test_retry_determinism_attempt_addressing(self):
        # "fail attempt 0, succeed attempt 1" is exact: the rule fires on
        # the first attempt of every chunk and never on the retry.
        plan = FaultPlan([FaultSpec("crash", call=0)])
        be = ResilientBackend("threads:3", deadline=5.0, backoff=0.0)
        try:
            with injected_faults(plan):
                out = be.map_ranges(_identity_range, 30)
        finally:
            be.close()
        np.testing.assert_array_equal(np.concatenate(out), np.arange(30))

    def test_empty_map(self):
        be = ResilientBackend("serial")
        try:
            assert be.map_ranges(_identity_range, 0) == []
        finally:
            be.close()


def _count_thread_starts(monkeypatch) -> list[str]:
    """Record the name of every thread started from now on."""
    names: list[str] = []
    start = threading.Thread.start

    def counting(thread):
        names.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return names


class TestRunnerReuse:
    """Thread attempts run on reused runners, abandoned on expiry."""

    def test_single_chunk_calls_reuse_one_runner(self, monkeypatch):
        be = ResilientBackend("serial")
        try:
            started = _count_thread_starts(monkeypatch)
            for _ in range(50):
                out = be.map_ranges(_identity_range, 7)
                np.testing.assert_array_equal(out[0], np.arange(7))
        finally:
            be.close()
        assert len(started) <= 2, started

    def test_abandoned_runner_never_runs_a_later_attempt(self):
        ran: list[threading.Thread] = []

        def record(lo, hi):
            ran.append(threading.current_thread())
            return _identity_range(lo, hi)

        plan = FaultPlan([FaultSpec("hang", seconds=0.6, max_hits=1)])
        be = ResilientBackend("serial", deadline=0.2, backoff=0.01)
        try:
            with injected_faults(plan):
                out = be.map_ranges(record, 6)
                np.testing.assert_array_equal(out[0], np.arange(6))
                (retry,) = ran
                for _ in range(5):  # the hung runner is still asleep
                    be.map_ranges(record, 6)
                # The hung attempt wakes, runs its kernel and exits.
                stop = time.monotonic() + 10.0
                while len(ran) < 7 and time.monotonic() < stop:
                    time.sleep(0.01)
                hung = ran[6]
                hung.join(10.0)
                assert not hung.is_alive()
                for _ in range(5):
                    be.map_ranges(record, 6)
        finally:
            be.close()
        assert hung is not retry
        assert threading.get_ident() not in (hung.ident, retry.ident)
        assert ran[:6] == [retry] * 6 and ran[7:] == [retry] * 5

    def test_concurrent_callers_share_runners_safely(self):
        lock = threading.Lock()
        busy: set[int] = set()
        overlaps: list[int] = []
        runners: set[int] = set()

        def kernel(lo, hi):
            me = threading.get_ident()
            with lock:
                if me in busy:
                    overlaps.append(me)
                busy.add(me)
                runners.add(me)
            try:
                return np.arange(lo, hi, dtype=np.int64) * 3 + 1
            finally:
                with lock:
                    busy.discard(me)

        expected = SerialBackend().map_ranges(kernel, 9)
        runners.clear()
        be = ResilientBackend("serial", deadline=10.0)
        failures: list[BaseException] = []

        def caller():
            try:
                for _ in range(40):
                    out = be.map_ranges(kernel, 9)
                    assert len(out) == len(expected)
                    for got, want in zip(out, expected):
                        np.testing.assert_array_equal(got, want)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(8)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in callers)
        finally:
            sys.setswitchinterval(interval)
            be.close()
        assert not failures, failures[0]
        assert not overlaps
        assert 1 <= len(runners) <= 8

    def test_close_and_dropping_the_owner_stop_idle_runners(self):
        def runner_of(be):
            seen = []
            be.map_ranges(
                lambda lo, hi: seen.append(threading.current_thread()), 3
            )
            return seen[0]

        be = ResilientBackend("serial")
        closed = runner_of(be)
        be.close()
        closed.join(5.0)
        assert not closed.is_alive()
        # After close() calls still run, each on a runner that exits.
        after = runner_of(be)
        after.join(5.0)
        assert not after.is_alive()

        dropped = runner_of(ResilientBackend("serial"))
        gc.collect()
        dropped.join(5.0)
        assert not dropped.is_alive()


class TestCorruptionMarker:
    def test_singleton_survives_pickle(self):
        import pickle

        assert pickle.loads(pickle.dumps(CORRUPTED)) is CORRUPTED

    def test_is_corrupted_rejects_lookalikes(self):
        assert not is_corrupted("<CORRUPTED>")
        assert not is_corrupted(None)


class TestRequestBudget:
    """The request-level deadline budget on top of per-chunk deadlines.

    Regression: the wrapper used to enforce *per-chunk* deadlines only,
    so a slow-faulted chunk with retries could legally burn
    ``(deadline + backoff) x (max_retries + 1)`` — far beyond what the
    caller was promised.  With a request budget installed, the sum of
    attempts (and backoff sleeps) is capped.
    """

    def test_deadline_class_basics(self):
        d = Deadline.after(5.0)
        assert 0.0 < d.remaining() <= 5.0
        assert not d.expired
        d.ensure("unit test")  # does not raise
        with pytest.raises(BackendError):
            Deadline.after(0.0)
        expired = Deadline.after(1e-9)
        import time as _time

        _time.sleep(0.01)
        assert expired.expired and expired.remaining() == 0.0
        with pytest.raises(DeadlineExceededError):
            expired.ensure("unit test")

    def test_nested_budgets_keep_the_tighter(self):
        with request_deadline(30.0) as outer:
            with request_deadline(0.5) as inner:
                assert current_deadline() is inner
            assert current_deadline() is outer
            with request_deadline(60.0):
                # looser nested budget must not extend the outer one
                assert current_deadline() is outer
        assert current_deadline() is None

    def test_no_budget_is_a_noop(self):
        with request_deadline(None):
            assert current_deadline() is None

    def test_slow_faults_with_retries_respect_request_budget(self):
        # Every attempt straggles well past the chunk deadline; with 3
        # retries the per-chunk ceiling alone would allow ~4 x 0.1s of
        # attempts plus backoff.  The 0.15s request budget must cut that
        # short with a typed error.
        reg = telemetry.enable()
        plan = FaultPlan([FaultSpec("slow", seconds=0.3)])
        be = ResilientBackend(
            "serial", deadline=0.1, max_retries=3, backoff=0.01,
            max_backoff=0.02,
        )
        import time as _time

        t0 = _time.perf_counter()
        try:
            with injected_faults(plan), request_deadline(0.15):
                with pytest.raises(DeadlineExceededError, match="budget"):
                    be.map_ranges(_identity_range, 6)
        finally:
            be.close()
        elapsed = _time.perf_counter() - t0
        # budget + one attempt-granularity overshoot + scheduling slack
        assert elapsed < 0.15 + 0.1 + 0.25, f"took {elapsed:.3f}s"
        assert reg.counter("resilience.budget_exhausted").value >= 1

    def test_generous_budget_does_not_interfere(self):
        plan = FaultPlan([FaultSpec("slow", seconds=0.02, max_hits=2)])
        be = ResilientBackend("serial", deadline=1.0, backoff=0.01)
        try:
            with injected_faults(plan), request_deadline(30.0):
                out = be.map_ranges(_identity_range, 8)
        finally:
            be.close()
        np.testing.assert_array_equal(out[0], np.arange(8))

    def test_budget_travels_to_supervisor_threads(self):
        # Multiple chunks -> supervisor threads; the budget is captured
        # on the calling thread and must still bound every chunk.
        plan = FaultPlan([FaultSpec("hang", seconds=5.0)])
        be = ResilientBackend(
            "threads:2", deadline=0.1, max_retries=5, backoff=0.01
        )
        import time as _time

        t0 = _time.perf_counter()
        try:
            with injected_faults(plan), request_deadline(0.2):
                with pytest.raises(DeadlineExceededError):
                    be.map_ranges(_identity_range, 20)
        finally:
            be.close()
        assert _time.perf_counter() - t0 < 1.5

    def test_core_entry_points_accept_deadline(self):
        from repro.core import one_sided_match, two_sided_match
        from repro.graph.generators import union_of_permutations

        g = union_of_permutations(64, 3, seed=2)
        res1 = one_sided_match(g, 2, seed=0, deadline=30.0)
        res1.matching.validate(g)
        res2 = two_sided_match(g, 2, seed=0, deadline=30.0)
        res2.matching.validate(g)
