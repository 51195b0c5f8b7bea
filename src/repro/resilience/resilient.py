"""``ResilientBackend`` — deadlines, retries, and per-chunk re-execution.

The wrapper owns chunk execution instead of delegating whole calls to the
inner backend: each range runs as an independently supervised *attempt*
(a forked child for a :class:`~repro.parallel.ProcessBackend` inner,
otherwise a daemon thread reused from a
:class:`~repro.resilience.deadline.RunnerPool`), so one failed or
stalled chunk can be retried alone while the other chunks' results are
kept — exploiting the library convention that kernels *return* their
slice rather than mutate shared state.

Failure handling:

* A child process that dies raises
  :class:`~repro.errors.WorkerCrashError` (exit status in the message).
* An attempt exceeding the per-chunk ``deadline`` raises
  :class:`~repro.errors.DeadlineExceededError`; expired children are
  killed, expired threads are abandoned (CPython threads cannot be
  killed) but the caller still gets its answer within the budget.
* A payload failing the integrity check (the fault injector's
  :data:`~repro.resilience.CORRUPTED` marker) raises
  :class:`~repro.errors.ResultCorruptionError`.

Each of these is retried up to ``max_retries`` times with exponential
backoff and deterministic seeded jitter (the shared
:class:`~repro.resilience.BackoffPolicy` — one implementation serves
this wrapper and the network client alike); exhaustion raises
:class:`~repro.errors.RetryExhaustedError` with the final failure
chained.  Any other exception is a kernel error and propagates
immediately — retrying a deterministic bug only hides it.

Request-level budgets: when the caller installed a
:func:`~repro.resilience.request_deadline` budget, each attempt's
deadline is capped to the budget's remaining time and the retry loop
refuses to back off past it, so the *total* time spent on a chunk —
every attempt plus every backoff sleep — stays inside what the caller
was promised.  Exhausting the budget raises a typed
:class:`~repro.errors.DeadlineExceededError` chaining the last failure.

Telemetry: every fault, failure, retry, and recovery increments a
``resilience.*`` counter and emits a span event, so a chaos run's story
is reconstructable from the event trace alone.

Composing with :class:`~repro.parallel.SharedMemoryBackend`
(``"resilient:shm"``): attempts run on the wrapper's runner threads rather
than the inner pool's pre-forked workers (a retry closure cannot be
shipped to a worker that only executes registered kernels), so the
wrapper provides the retry/deadline contract while kernels still write
their slices into the caller's arrays in place.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Any

from repro import telemetry as _tm
from repro.errors import (
    BackendError,
    DeadlineExceededError,
    ResultCorruptionError,
    RetryExhaustedError,
    WorkerCrashError,
)
from repro.parallel.backends import (
    Backend,
    ProcessBackend,
    RangeFn,
    get_backend,
)
from repro.resilience import faults as _faults
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.deadline import Deadline, RunnerPool, current_deadline

__all__ = ["ResilientBackend"]

#: Failure types that re-execution can plausibly cure.
_RETRYABLE = (WorkerCrashError, DeadlineExceededError, ResultCorruptionError)


def _attempt_child(fn: RangeFn, lo: int, hi: int, spec, conn) -> None:
    """Run one supervised attempt inside a forked child."""
    try:
        result = _faults.execute_with_fault(spec, fn, lo, hi, in_child=True)
        ok = True
    except BaseException as exc:  # noqa: BLE001 - report to the parent
        result = exc
        ok = False
    try:
        conn.send((ok, result))
    except Exception as exc:  # payload not picklable
        try:
            conn.send((False, BackendError(f"could not return result: {exc}")))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


class ResilientBackend(Backend):
    """Deadline/retry wrapper around any execution backend.

    Parameters
    ----------
    inner:
        The wrapped backend (a :class:`~repro.parallel.Backend`, a spec
        string, or ``None`` for serial).  Fault rules address the *inner*
        label, so one plan drives plain and resilient runs identically.
    deadline:
        Per-attempt wall-clock budget in seconds.  Expired child
        processes are killed; expired threads are abandoned.
    max_retries:
        Re-executions allowed per chunk after the first attempt.
    backoff:
        Initial sleep before the first retry, in seconds.
    backoff_factor:
        Multiplier applied to the sleep after every retry.
    max_backoff:
        Upper bound on a single backoff sleep.
    jitter:
        Fraction of the sleep randomised away (``0.5`` → sleep uniformly
        in ``[0.5 d, d]``), from a generator seeded with *seed* so runs
        are reproducible.
    seed:
        Seed for the jitter generator.
    """

    def __init__(
        self,
        inner: Backend | str | None = None,
        *,
        deadline: float = 30.0,
        max_retries: int = 2,
        backoff: float = 0.05,
        backoff_factor: float = 2.0,
        max_backoff: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if deadline <= 0:
            raise BackendError(f"deadline must be positive, got {deadline}")
        if max_retries < 0:
            raise BackendError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.backoff_policy = BackoffPolicy(
            initial=backoff,
            factor=backoff_factor,
            maximum=max_backoff,
            jitter=jitter,
        )
        self.inner = get_backend(inner)
        if isinstance(self.inner, ResilientBackend):
            raise BackendError("refusing to nest ResilientBackend wrappers")
        self.n_workers = self.inner.n_workers
        self.label = f"resilient.{self.inner.label}"
        self.deadline = deadline
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        self.max_backoff = max_backoff
        self.jitter = jitter
        self.seed = seed
        self._fork = isinstance(self.inner, ProcessBackend)
        self._ctx = self.inner._ctx if self._fork else None
        # Thread attempts run the kernel closure in this process, so
        # in-place writes land in the caller's arrays; forked attempts
        # keep side effects in the child.  The kernel dispatcher
        # (:func:`repro.parallel.kernels.run_kernel`) keys off this.
        self.shares_memory = not self._fork
        self._runners = RunnerPool("resilient-attempt")
        weakref.finalize(self, self._runners.close)

    # -- public surface ------------------------------------------------

    def map_ranges(self, fn: RangeFn, n: int) -> list[Any]:
        return self._map_ranges(fn, self.partition(n))

    def map_chunks(self, fn: RangeFn, parts) -> list[Any]:
        # Override the base implementation: the supervisor loop does its
        # own per-attempt fault matching, so the base class's one-shot
        # fault wrapping must not apply on top of it.
        return self._map_ranges(fn, list(parts))

    def _map_ranges(self, fn: RangeFn, parts) -> list[Any]:
        if not parts:
            return []
        # Capture the caller's request budget here, on the calling thread:
        # supervisor threads have their own (empty) thread-local state, so
        # the budget must travel explicitly.
        budget = current_deadline()
        results: list[Any] = [None] * len(parts)
        errors: list[BaseException | None] = [None] * len(parts)
        with _tm.span(
            "resilience.map_ranges", backend=self.inner.label,
            chunks=len(parts),
        ):
            if len(parts) == 1:
                # Common serial-inner case: no supervisor thread needed
                # around the supervisor logic itself.
                self._chunk_with_retry(fn, 0, parts[0], results, errors,
                                       budget)
            else:
                supervisors = [
                    threading.Thread(
                        target=self._chunk_with_retry,
                        args=(fn, idx, part, results, errors, budget),
                        name=f"resilient-chunk-{idx}",
                        daemon=True,
                    )
                    for idx, part in enumerate(parts)
                ]
                for sup in supervisors:
                    sup.start()
                for sup in supervisors:
                    sup.join()
        for err in errors:
            if err is not None:
                raise err
        return results

    def close(self) -> None:
        self._runners.close()
        self.inner.close()

    def drain(self, timeout: float | None = None) -> bool:
        self._runners.close()
        return self.inner.drain(timeout)

    def healthy(self) -> bool:
        return self.inner.healthy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResilientBackend({self.inner!r}, deadline={self.deadline}, "
            f"max_retries={self.max_retries})"
        )

    # -- supervision ---------------------------------------------------

    def _chunk_with_retry(
        self,
        fn: RangeFn,
        idx: int,
        part: tuple[int, int],
        results: list[Any],
        errors: list[BaseException | None],
        budget: Deadline | None = None,
    ) -> None:
        """Attempt/retry loop for one chunk (runs on a supervisor thread).

        Every exit path fills ``results[idx]`` or ``errors[idx]`` — a
        supervisor must never die silently, or the caller would see a
        ``None`` payload instead of a typed failure.
        """
        try:
            self._chunk_attempts(fn, idx, part, results, errors, budget)
        except BaseException as exc:  # noqa: BLE001 - supervisor safety net
            errors[idx] = exc

    def _budget_error(
        self, lo: int, hi: int, budget: Deadline,
        last: BaseException | None,
    ) -> DeadlineExceededError:
        exc = DeadlineExceededError(
            f"range [{lo}, {hi}) exhausted the request's "
            f"{budget.budget:.3g}s deadline budget"
            + (f" (last failure: {last})" if last is not None else "")
        )
        exc.__cause__ = last
        _tm.incr("resilience.budget_exhausted")
        return exc

    def _chunk_attempts(
        self,
        fn: RangeFn,
        idx: int,
        part: tuple[int, int],
        results: list[Any],
        errors: list[BaseException | None],
        budget: Deadline | None = None,
    ) -> None:
        lo, hi = part
        plan = _faults.active_plan()
        # Per-chunk schedule: the delay sequence for (seed, chunk) is
        # identical on every run, independent of supervisor interleaving.
        # Built lazily — seeding the jitter RNG costs more than the whole
        # happy path of a small chunk, and most chunks never retry.
        schedule = None
        last: BaseException | None = None
        for attempt in range(self.max_retries + 1):
            # The request budget bounds the *sum* of attempts: a chunk
            # whose retries would outlive it fails typed instead.
            deadline = self.deadline
            if budget is not None:
                remaining = budget.remaining()
                if remaining <= 0.0:
                    errors[idx] = self._budget_error(lo, hi, budget, last)
                    return
                deadline = min(deadline, remaining)
            # Attempt number doubles as the fault-plan call index so that
            # "fail on call 0, succeed on call 1" schedules are exact and
            # independent of supervisor-thread interleaving.
            spec = (
                plan.match(self.inner.label, idx, attempt)
                if plan is not None
                else None
            )
            try:
                result = self._attempt(fn, lo, hi, spec, deadline)
                if _faults.is_corrupted(result):
                    raise ResultCorruptionError(
                        f"integrity check failed for range [{lo}, {hi})"
                    )
                results[idx] = result
                if attempt > 0:
                    _tm.incr("resilience.recovered_chunks")
                return
            except _RETRYABLE as exc:
                last = exc
                if _tm.enabled():
                    _tm.incr("resilience.chunk_failures")
                    _tm.incr(
                        "resilience.chunk_failures."
                        + type(exc).__name__.removesuffix("Error").lower()
                    )
                    _tm.event(
                        "resilience.chunk_failure",
                        backend=self.inner.label,
                        chunk=idx, lo=lo, hi=hi, attempt=attempt,
                        error=type(exc).__name__,
                    )
                if attempt < self.max_retries:
                    if schedule is None:
                        schedule = self.backoff_policy.schedule(
                            f"{self.seed}:{idx}"
                        )
                    sleep = schedule.next()
                    if budget is not None and budget.remaining() <= sleep:
                        # No room left for the backoff, let alone another
                        # attempt — fail typed now rather than oversleep.
                        errors[idx] = self._budget_error(
                            lo, hi, budget, last
                        )
                        return
                    _tm.incr("resilience.retries")
                    time.sleep(sleep)
            except BaseException as exc:  # kernel bug: do not retry
                errors[idx] = exc
                return
        exhausted = RetryExhaustedError(
            f"range [{lo}, {hi}) failed {self.max_retries + 1} attempt(s); "
            f"last failure: {last}"
        )
        exhausted.__cause__ = last
        _tm.incr("resilience.exhausted_chunks")
        errors[idx] = exhausted

    def _attempt(
        self, fn: RangeFn, lo: int, hi: int, spec, deadline: float | None = None
    ) -> Any:
        if deadline is None:
            deadline = self.deadline
        if self._fork:
            return self._attempt_fork(fn, lo, hi, spec, deadline)
        return self._attempt_thread(fn, lo, hi, spec, deadline)

    def _attempt_thread(
        self, fn: RangeFn, lo: int, hi: int, spec, deadline: float
    ) -> Any:
        """One attempt on a reused runner thread, joined with timeout."""
        call = self._runners.start(
            lambda: _faults.execute_with_fault(
                spec, fn, lo, hi, in_child=False
            )
        )
        if not call.join(deadline):
            raise DeadlineExceededError(
                f"range [{lo}, {hi}) exceeded the {deadline:.3g}s "
                f"deadline (worker thread abandoned)"
            )
        return call.result()

    def _attempt_fork(
        self, fn: RangeFn, lo: int, hi: int, spec, deadline: float
    ) -> Any:
        """One attempt in a forked child, killed on deadline expiry."""
        recv, send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_attempt_child, args=(fn, lo, hi, spec, send)
        )
        proc.start()
        send.close()
        try:
            # poll() also wakes on EOF, so crashes surface immediately
            # rather than after the full deadline.
            if not recv.poll(deadline):
                proc.kill()
                proc.join()
                raise DeadlineExceededError(
                    f"range [{lo}, {hi}) exceeded the {deadline:.3g}s "
                    f"deadline (worker pid {proc.pid} killed)"
                )
            try:
                ok, payload = recv.recv()
            except EOFError:
                proc.join()
                raise WorkerCrashError(
                    f"worker for range [{lo}, {hi}) exited with status "
                    f"{proc.exitcode} before returning a result"
                ) from None
        finally:
            recv.close()
        proc.join()
        if not ok:
            raise (
                payload
                if isinstance(payload, BaseException)
                else BackendError(str(payload))
            )
        return payload
