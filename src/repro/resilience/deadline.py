"""Request-level deadline budgets.

A :class:`Deadline` is an absolute point on the monotonic clock that an
entire *request* — scaling sweeps, choice sampling, Karp–Sipser phases,
every retry of every chunk — must not outlive.  It complements the
per-chunk ``deadline`` of :class:`~repro.resilience.ResilientBackend`:
the per-chunk deadline bounds one *attempt*, the budget bounds the sum of
all attempts, so ``max_retries`` retries can never stretch a call past
what the caller was promised.

Budgets are installed with :func:`request_deadline` and read with
:func:`current_deadline`.  Installation is **thread-local**: the serving
layer stamps a budget on the thread executing a request, and the nested
match/scale/backend calls on that thread pick it up without any argument
threading.  :class:`~repro.resilience.ResilientBackend` captures the
installed budget once per ``map_ranges`` call and carries it onto its
supervisor threads explicitly, so chunk retries see the caller's budget
even though they run elsewhere.

When no budget is installed (the default) every consultation is one
thread-local attribute read — the same "free when off" bar as fault
injection and telemetry.

:class:`RunnerPool` runs a call on a reused daemon thread and waits for
it with a timeout, so a deadline-bounded call costs a hand-over instead
of a thread start.  A runner whose call outlives its wait is abandoned,
as a one-shot thread would be (CPython threads cannot be killed).
"""

from __future__ import annotations

import contextlib
import itertools
import queue
import threading
import time
from typing import Any, Callable, Iterator

from repro.errors import BackendError, DeadlineExceededError

__all__ = ["Deadline", "request_deadline", "current_deadline", "RunnerPool"]


class Deadline:
    """A wall-clock budget anchored to the monotonic clock.

    Construct with :meth:`after` (the normal case) or from an absolute
    ``expires_at`` monotonic timestamp.  Instances are immutable and
    safe to share across threads.
    """

    __slots__ = ("expires_at", "budget")

    def __init__(self, expires_at: float, budget: float) -> None:
        #: Absolute ``time.monotonic()`` expiry point.
        self.expires_at = expires_at
        #: The original budget in seconds (for messages/telemetry).
        self.budget = budget

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline *seconds* from now."""
        if seconds <= 0:
            raise BackendError(
                f"deadline budget must be positive, got {seconds}"
            )
        return cls(time.monotonic() + seconds, seconds)

    def remaining(self) -> float:
        """Seconds left before expiry, floored at 0.0."""
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        """True once the budget is spent."""
        return time.monotonic() >= self.expires_at

    def ensure(self, what: str = "request") -> None:
        """Raise :class:`~repro.errors.DeadlineExceededError` if expired."""
        if self.expired:
            raise DeadlineExceededError(
                f"{what} exhausted its {self.budget:.3g}s deadline budget"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Deadline(budget={self.budget:.3g}s, "
            f"remaining={self.remaining():.3g}s)"
        )


class _Local(threading.local):
    deadline: Deadline | None = None


_local = _Local()


def current_deadline() -> Deadline | None:
    """The budget installed on the calling thread, or ``None``."""
    return _local.deadline


@contextlib.contextmanager
def request_deadline(
    budget: "Deadline | float | None",
) -> Iterator[Deadline | None]:
    """Install a request budget on the calling thread for a ``with`` block.

    *budget* may be a :class:`Deadline`, a positive float (seconds from
    now), or ``None`` (no-op — call sites can pass an optional budget
    through unconditionally).  Nested installs keep the *tighter* (earlier)
    expiry: an inner layer may shrink the budget but never extend what an
    outer caller promised.
    """
    if budget is None:
        yield _local.deadline
        return
    deadline = budget if isinstance(budget, Deadline) else Deadline.after(budget)
    previous = _local.deadline
    if previous is not None and previous.expires_at < deadline.expires_at:
        deadline = previous
    _local.deadline = deadline
    try:
        yield deadline
    finally:
        _local.deadline = previous


class _Call:
    """One call handed to a :class:`RunnerPool` runner."""

    __slots__ = ("fn", "value", "error", "abandoned", "_done", "_lock")

    def __init__(self, fn: Callable[[], Any], lock: threading.Lock) -> None:
        self.fn: Callable[[], Any] | None = fn
        self.value: Any = None
        self.error: BaseException | None = None
        self.abandoned = False
        self._done = threading.Event()
        self._lock = lock

    def join(self, timeout: float | None) -> bool:
        """Wait up to *timeout* seconds; ``False`` abandons the runner.

        The check and the abandonment happen under the pool lock that
        the runner finishes under, so a call is either finished or its
        runner is retired — never both, never neither.
        """
        if self._done.wait(timeout):
            return True
        with self._lock:
            if self._done.is_set():
                return True
            self.abandoned = True
        return False

    def result(self) -> Any:
        """The call's return value, or re-raise its exception."""
        if self.error is not None:
            raise self.error
        return self.value


class RunnerPool:
    """Idle daemon threads reused for timeout-bounded calls.

    :meth:`start` hands a call to an idle runner, starting a new one
    only when none is idle; :meth:`_Call.join` waits for it.  A runner
    goes back to the idle list when its call finishes in time — before
    the caller is woken, so a caller's next call finds it there.  A
    runner whose call was abandoned is never handed another call and
    exits once that call returns.  The pool therefore never holds more
    runners than were busy at once.

    :meth:`close` stops the idle runners and retires the busy ones when
    they finish; later calls still run, each on a runner that exits
    afterwards.  Owners tie :meth:`close` to their own lifetime with
    :func:`weakref.finalize`: the runners reference the pool, never the
    owner, so a dropped owner leaves no idle runner behind.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._idle: list[queue.SimpleQueue] = []
        self._closed = False
        self._seq = itertools.count(1)

    def start(self, fn: Callable[[], Any]) -> _Call:
        """Run ``fn()`` on a runner; returns the call to :meth:`~_Call.join`."""
        call = _Call(fn, self._lock)
        with self._lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(
                target=self._serve,
                args=(inbox,),
                name=f"{self.name}-{next(self._seq)}",
                daemon=True,
            ).start()
        inbox.put(call)
        return call

    def close(self) -> None:
        """Stop the idle runners; busy ones exit when they finish."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)

    def _serve(self, inbox: queue.SimpleQueue) -> None:
        while True:
            call = inbox.get()
            if call is None:
                return
            try:
                call.value = call.fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised by result()
                call.error = exc
            call.fn = None
            with self._lock:
                retire = call.abandoned or self._closed
                if not retire:
                    self._idle.append(inbox)
                call._done.set()
            # Drop the finished call before blocking again: an idle runner
            # must not keep the caller's closure (and its owner) alive.
            call = None
            if retire:
                return
