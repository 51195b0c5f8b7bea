"""``MatchingServer`` — an overload-safe, in-process matching service.

The paper's heuristics are cheap approximations *with stated quality
floors*, which is exactly what a latency-bounded service wants: when the
budget is tight, trade guarantee for speed and **say so on the response**.
The server composes the library's robustness substrate into a request
path:

* **Admission control** — a bounded queue (:mod:`repro.serve.admission`)
  sheds excess load with typed :class:`~repro.errors.OverloadedError`
  at submission time; a fixed pool of serving workers bounds concurrency.
* **Deadline propagation** — every request is stamped with a
  :class:`~repro.resilience.Deadline` budget at admission.  Queue wait,
  every Sinkhorn–Knopp sweep, every chunk retry, and every ladder step
  spend from the same budget (via
  :func:`~repro.resilience.request_deadline`, which
  :class:`~repro.resilience.ResilientBackend` honours per chunk), so a
  request can never outlive what its caller was promised.
* **Quality degradation ladder** — under queue pressure or repeated
  deadline misses requests step down
  ``two_sided → one_sided → greedy``; the response carries the rung it
  was served at plus the matching quality guarantee for that rung, the
  same contract as :attr:`~repro.scaling.ScalingResult.rung`.
* **Circuit breaker** — consecutive worker crashes / deadline misses
  open the breaker (:mod:`repro.serve.breaker`); submissions fail fast
  with :class:`~repro.errors.CircuitOpenError` while the pool respawns,
  then half-open probes close it.
* **Graceful drain** — :meth:`MatchingServer.drain` stops admission,
  completes (or typed-fails) everything queued, waits for in-flight
  requests, then drains the execution backend (the shared-memory pool
  finishes its in-flight chunks and unlinks its segments).
* **Probes + telemetry** — :meth:`health` / :meth:`ready` for liveness
  and readiness, and ``serve.*`` counters/gauges/timers throughout.

The server is deliberately transport-free: :meth:`submit` is a blocking
in-process call (`submit_async` returns a ticket), and
``python -m repro serve`` wraps it in a stdin/stdout JSON-lines daemon.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import telemetry as _tm
from repro.constants import ONE_SIDED_GUARANTEE, TWO_SIDED_GUARANTEE
from repro.errors import (
    BackendError,
    DeadlineExceededError,
    ReproError,
    ResultCorruptionError,
    RetryExhaustedError,
    ServerClosedError,
    ServiceError,
    WorkerCrashError,
)
from repro.graph.csr import BipartiteGraph
from repro.matching.matching import Matching
from repro.parallel.backends import Backend, default_worker_count, get_backend
from repro.resilience.deadline import Deadline, RunnerPool, request_deadline
from repro.resilience.resilient import ResilientBackend
from repro.serve.admission import AdmissionQueue
from repro.serve.breaker import BreakerState, CircuitBreaker

__all__ = [
    "RUNGS",
    "RUNG_GUARANTEES",
    "MatchRequest",
    "MatchResponse",
    "ServerConfig",
    "MatchingServer",
    "rung_for_pressure",
]

#: The quality degradation ladder, best rung first.  ``exact`` is opt-in:
#: ``auto`` requests start at ``two_sided`` (the best rung with bounded
#: latency) and only explicit ``method="exact"`` requests attempt the
#: auction rung — and even those shed to ``two_sided`` when the remaining
#: deadline budget is under ``ServerConfig.exact_min_budget``.
RUNGS = ("exact", "two_sided", "one_sided", "greedy")

#: Quality floor stated on a response served at each rung.  ``exact`` is
#: a maximum matching (floor 1 by construction).  The heuristic
#: rungs state the paper's floors as a fraction of ``n`` on total-support
#: inputs (Conjecture 1's ``2(1 - ρ) ≈ 0.866`` and Theorem 1's
#: ``1 - 1/e ≈ 0.632``; the per-response value is further reduced by the
#: scaling rung, see ``OneSidedResult.guarantee``).  The ``greedy`` rung
#: is a maximal matching, whose classical floor is half the *maximum*
#: matching on any input — weaker, but never zero, which is the point of
#: the last rung.
RUNG_GUARANTEES = {
    "exact": 1.0,
    "two_sided": TWO_SIDED_GUARANTEE,
    "one_sided": ONE_SIDED_GUARANTEE,
    "greedy": 0.5,
}

#: Rung where ``auto`` requests start (exact stays opt-in).
_AUTO_TOP = RUNGS.index("two_sided")

#: Failures that mean "the substrate is unhealthy" — they feed the
#: circuit breaker and the ladder's miss counter.
_SUBSTRATE_FAILURES = (
    WorkerCrashError,
    DeadlineExceededError,
    RetryExhaustedError,
    ResultCorruptionError,
)

_STOP = object()  # worker-stop sentinel


def rung_for_pressure(
    fill: float,
    recent_misses: int,
    config: "ServerConfig",
    requested: str = "auto",
) -> str:
    """The ladder rung a request starts at, given current pressure.

    An explicit *requested* rung is honoured as-is (the caller opted out
    of ``auto``).  Otherwise start from ``two_sided`` — the best rung
    with bounded latency; ``exact`` is never entered implicitly — and
    step down once past ``pressure_high`` queue fill, twice past
    ``pressure_critical``, and one more when the recent deadline-miss
    count reaches ``miss_threshold`` — each signal independently says
    "the budget is not being met at the current rung".
    """
    if requested != "auto":
        return requested
    steps = _AUTO_TOP
    if fill >= config.pressure_critical:
        steps += 2
    elif fill >= config.pressure_high:
        steps += 1
    if recent_misses >= config.miss_threshold:
        steps += 1
    return RUNGS[min(steps, len(RUNGS) - 1)]


@dataclass(frozen=True)
class MatchRequest:
    """One matching request.

    ``method`` is ``"auto"`` (the server picks the rung from current
    pressure) or an explicit rung name from :data:`RUNGS`.  ``deadline``
    is the request's total wall-clock budget in seconds (the server
    default applies when ``None``).
    """

    graph: BipartiteGraph
    iterations: int = 5
    seed: int | None = None
    method: str = "auto"
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.method != "auto" and self.method not in RUNGS:
            raise ServiceError(
                f"method must be 'auto' or one of {RUNGS}, "
                f"got {self.method!r}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ServiceError(
                f"deadline must be positive, got {self.deadline}"
            )


@dataclass(frozen=True)
class MatchResponse:
    """A served matching plus its provenance and quality statement."""

    matching: Matching
    #: Ladder rung the request was served at (see :data:`RUNGS`).
    rung: str
    #: Quality floor for that rung (scaling-rung aware for the heuristic
    #: rungs; 0.5-of-maximum for ``greedy``).
    guarantee: float
    #: Scaling degradation-ladder rung, when a scaled heuristic ran.
    scaling_rung: str | None
    #: True when the request was served below its requested/top rung.
    degraded: bool
    #: Wall-clock seconds from admission to completion.
    elapsed: float
    #: Seconds the request waited in the admission queue.
    queue_wait: float
    request_id: int

    @property
    def cardinality(self) -> int:
        return self.matching.cardinality


@dataclass
class ServerConfig:
    """Tuning knobs for :class:`MatchingServer`.

    The defaults are sized for an interactive service on one host:
    admission bounded at ``max_queue``, concurrency at
    :func:`~repro.parallel.default_worker_count`, and a ladder that
    reacts to queue fill and a sliding window of deadline misses.
    """

    #: Admission queue capacity (requests beyond it are shed typed).
    max_queue: int = 64
    #: Serving worker threads; ``None`` → the CPU affinity count.
    n_workers: int | None = None
    #: Budget for requests that do not carry their own, in seconds.
    default_deadline: float = 30.0
    #: Per-chunk attempt deadline for the auto-created
    #: :class:`~repro.resilience.ResilientBackend` wrapper.
    chunk_deadline: float = 5.0
    #: Per-chunk retries for the auto-created wrapper.
    max_retries: int = 2
    #: Consecutive substrate failures that open the circuit breaker.
    breaker_threshold: int = 5
    #: Seconds the breaker stays open before half-open probes.
    breaker_cooldown: float = 1.0
    #: Concurrent probe requests while half-open.
    breaker_probes: int = 1
    #: Minimum remaining deadline budget (seconds) for attempting the
    #: ``exact`` rung; explicit ``method="exact"`` requests with less
    #: budget left shed straight to ``two_sided`` (marked ``degraded``)
    #: instead of starting an auction they cannot finish.
    exact_min_budget: float = 5.0
    #: Queue fill fraction at which ``auto`` requests step down one rung.
    pressure_high: float = 0.5
    #: Queue fill fraction at which they step down two rungs.
    pressure_critical: float = 0.875
    #: Sliding window (seconds) for the deadline-miss counter.
    miss_window: float = 5.0
    #: Misses inside the window that step the ladder down one more rung.
    miss_threshold: int = 3
    #: Test seam: called as ``hook(request, rung)`` on the serving worker
    #: right before each rung execution.  Lets tests block workers or
    #: inject substrate failures deterministically.  Never set this in
    #: production.
    execute_hook: Callable[[MatchRequest, str], None] | None = None

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ServiceError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ServiceError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.default_deadline <= 0 or self.chunk_deadline <= 0:
            raise ServiceError("deadlines must be positive")
        if self.exact_min_budget < 0:
            raise ServiceError(
                f"exact_min_budget must be >= 0, got {self.exact_min_budget}"
            )
        if not 0.0 < self.pressure_high <= self.pressure_critical <= 1.0:
            raise ServiceError(
                "need 0 < pressure_high <= pressure_critical <= 1"
            )


class _Ticket:
    """A submitted request: budget, outcome slot, and completion event."""

    __slots__ = (
        "request_id", "request", "budget", "probe", "enqueued_at",
        "_done", "_response", "_error",
    )

    def __init__(
        self, request_id: int, request: MatchRequest, budget: Deadline,
        probe: bool,
    ) -> None:
        self.request_id = request_id
        self.request = request
        self.budget = budget
        self.probe = probe
        self.enqueued_at = time.monotonic()
        self._done = threading.Event()
        self._response: MatchResponse | None = None
        self._error: BaseException | None = None

    def fulfil(self, response: MatchResponse) -> None:
        self._response = response
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> MatchResponse:
        """Block for the outcome; re-raises the typed failure, if any.

        The server fulfils every admitted ticket (workers have a safety
        net), so *timeout* is a belt-and-braces guard, not the deadline
        mechanism — the budget is enforced server-side.
        """
        if not self._done.wait(timeout):
            raise DeadlineExceededError(
                f"request {self.request_id} produced no outcome within "
                f"{timeout:.3g}s (server wedged?)"
            )
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response


class MatchingServer:
    """Long-running, overload-safe matching service (in-process).

    Parameters
    ----------
    backend:
        Execution substrate: a :class:`~repro.parallel.Backend`
        instance, a spec string (``"shm:4"``, ``"threads"``, ...), or
        ``None`` for serial.  Anything that is not already a
        :class:`~repro.resilience.ResilientBackend` is wrapped in one
        (per-chunk deadlines and retries from the config), so deadline
        budgets always reach chunk execution.  Backends created here
        (from a spec / ``None``) are closed by :meth:`drain`; a backend
        *instance* stays the caller's to close.
    config:
        A :class:`ServerConfig`; defaults apply when ``None``.
    """

    def __init__(
        self,
        backend: Backend | str | None = None,
        *,
        config: ServerConfig | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        self._owns_backend = not isinstance(backend, Backend)
        inner = get_backend(backend)
        if isinstance(inner, ResilientBackend):
            self._backend: ResilientBackend = inner
        else:
            self._backend = ResilientBackend(
                inner,
                deadline=self.config.chunk_deadline,
                max_retries=self.config.max_retries,
            )
        self.n_workers = (
            self.config.n_workers
            if self.config.n_workers is not None
            else default_worker_count()
        )
        self._queue = AdmissionQueue(self.config.max_queue)
        self._breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
            probes=self.config.breaker_probes,
        )
        self._ids = itertools.count(1)
        self._accepting = True
        self._closed = False
        self._lifecycle = threading.Lock()
        self._misses: deque[float] = deque()
        self._miss_lock = threading.Lock()
        self._inflight = 0
        self._idle = threading.Condition()
        self._runners = RunnerPool("serve-rung")
        weakref.finalize(self, self._runners.close)
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"serve-worker-{i}",
                daemon=True,
            )
            for i in range(self.n_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission ----------------------------------------------------

    def submit(
        self, request: MatchRequest, timeout: float | None = None
    ) -> MatchResponse:
        """Submit *request* and block for its outcome.

        Returns a :class:`MatchResponse` or raises the request's typed
        failure: :class:`~repro.errors.OverloadedError` (queue full),
        :class:`~repro.errors.CircuitOpenError` (breaker open),
        :class:`~repro.errors.DeadlineExceededError` (budget spent),
        :class:`~repro.errors.ServerClosedError` (draining/stopped), or
        a :class:`~repro.errors.BackendError` subclass from execution.
        """
        return self.submit_async(request).result(timeout)

    def submit_async(self, request: MatchRequest) -> _Ticket:
        """Admit *request* and return its ticket without blocking.

        Admission control happens here, synchronously: shedding
        (``Overloaded``), breaker rejection (``CircuitOpen``), and drain
        rejection (``ServerClosed``) all raise on the caller's thread.
        """
        _tm.incr("serve.submitted")
        if not self._accepting:
            _tm.incr("serve.rejected.closed")
            raise ServerClosedError(
                "server is draining and accepts no new requests"
            )
        probe = self._breaker.admit()  # raises CircuitOpenError when open
        budget = Deadline.after(
            request.deadline
            if request.deadline is not None
            else self.config.default_deadline
        )
        ticket = _Ticket(next(self._ids), request, budget, probe)
        try:
            self._queue.offer(ticket)
        except BaseException:
            if probe:
                self._breaker.release_probe()
            raise
        _tm.incr("serve.accepted")
        return ticket

    # -- probes --------------------------------------------------------

    def ready(self) -> bool:
        """Readiness: accepting, breaker not open, workers and pool alive."""
        return (
            self._accepting
            and not self._closed
            and self._breaker.state is not BreakerState.OPEN
            and self._backend.healthy()
            and any(w.is_alive() for w in self._workers)
        )

    def health(self) -> dict[str, Any]:
        """Liveness/health snapshot (cheap; safe to poll)."""
        if self._closed:
            status = "stopped"
        elif not self._accepting:
            status = "draining"
        elif not self.ready():
            status = "degraded"
        else:
            status = "ok"
        misses = self._recent_misses()
        return {
            "status": status,
            "ready": self.ready(),
            "queue_depth": self._queue.depth,
            "queue_capacity": self._queue.capacity,
            "inflight": self._inflight,
            "workers": self.n_workers,
            "breaker": self._breaker.state.value,
            "backend": self._backend.label,
            "backend_healthy": self._backend.healthy(),
            "recent_deadline_misses": misses,
            "rung_floor": rung_for_pressure(
                self._queue.fill, misses, self.config
            ),
        }

    # -- lifecycle -----------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: finish queued + in-flight work, then stop.

        Stops admission immediately, lets the workers finish everything
        already queued (every request is budget-bounded, so this
        terminates), then stops the workers and drains the execution
        backend.  If *timeout* expires first, the still-queued requests
        are failed with a typed
        :class:`~repro.errors.ServerClosedError` and shutdown proceeds —
        a drain never hangs and never silently drops a ticket.  Returns
        ``True`` iff everything queued was served.
        """
        with self._lifecycle:
            if self._closed:
                return True
            self._accepting = False
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            served_all = True
            with self._idle:
                while self._queue.depth > 0 or self._inflight > 0:
                    remaining = (
                        None
                        if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        served_all = False
                        break
                    self._idle.wait(
                        0.05 if remaining is None else min(0.05, remaining)
                    )
            for ticket in self._queue.drain_pending():
                served_all = False
                if ticket.probe:
                    self._breaker.release_probe()
                _tm.incr("serve.shed.drained")
                ticket.fail(
                    ServerClosedError(
                        f"request {ticket.request_id} shed: server shut "
                        f"down before it ran"
                    )
                )
            # Queue is empty; anything in flight finishes on its own
            # budget.  Wait it out, then stop the workers.
            with self._idle:
                while self._inflight > 0:
                    self._idle.wait(0.05)
            for _ in self._workers:
                self._queue.put_sentinel(_STOP)
            for worker in self._workers:
                worker.join(timeout=5.0)
            # A submit racing past the accepting check can enqueue after
            # the sweep above; fail those stragglers rather than strand
            # their tickets behind dead workers.
            for ticket in self._queue.drain_pending():
                if ticket is _STOP:
                    continue
                served_all = False
                if ticket.probe:
                    self._breaker.release_probe()
                ticket.fail(
                    ServerClosedError(
                        f"request {ticket.request_id} shed: server shut "
                        f"down before it ran"
                    )
                )
            self._runners.close()
            if self._owns_backend:
                self._backend.drain()
            self._closed = True
            _tm.incr("serve.drains")
            _tm.event("serve.drained", served_all=served_all)
            return served_all

    def close(self) -> None:
        """Immediate shutdown: shed the queue, keep in-flight results."""
        self.drain(timeout=0.0)

    def __enter__(self) -> "MatchingServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.drain()

    # -- serving workers ----------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.take(timeout=0.1)
            if ticket is None:
                continue
            if ticket is _STOP:
                break
            with self._idle:
                self._inflight += 1
            try:
                self._handle(ticket)
            finally:
                with self._idle:
                    self._inflight -= 1
                    self._idle.notify_all()

    def _handle(self, ticket: _Ticket) -> None:
        """Serve one ticket; every exit path fulfils or typed-fails it."""
        queue_wait = time.monotonic() - ticket.enqueued_at
        try:
            if ticket.budget.expired:
                _tm.incr("serve.shed.expired_in_queue")
                raise DeadlineExceededError(
                    f"request {ticket.request_id} spent its entire "
                    f"{ticket.budget.budget:.3g}s budget queueing "
                    f"({queue_wait:.3g}s) — the server is overloaded"
                )
            response = self._execute(ticket, queue_wait)
        except BaseException as exc:  # noqa: BLE001 - typed below
            error = (
                exc
                if isinstance(exc, ReproError)
                else ServiceError(
                    f"internal error serving request "
                    f"{ticket.request_id}: {exc!r}"
                )
            )
            if not isinstance(exc, ReproError):
                error.__cause__ = exc
            if isinstance(error, _SUBSTRATE_FAILURES):
                self._breaker.record_failure(ticket.probe)
            else:
                self._breaker.record_success(ticket.probe)
            if _tm.enabled():
                _tm.incr("serve.failed")
                _tm.incr(f"serve.failed.{type(error).__name__}")
            ticket.fail(error)
            return
        self._breaker.record_success(ticket.probe)
        if _tm.enabled():
            _tm.incr("serve.completed")
            _tm.incr(f"serve.rung.{response.rung}")
            _tm.observe(f"serve.latency.{response.rung}", response.elapsed)
            _tm.observe("serve.queue_wait", queue_wait)
        ticket.fulfil(response)

    def _execute(self, ticket: _Ticket, queue_wait: float) -> MatchResponse:
        """Walk the ladder from the pressure-selected rung downwards."""
        request = ticket.request
        top = rung_for_pressure(
            self._queue.fill,
            self._recent_misses(),
            self.config,
            request.method,
        )
        last: BaseException | None = None
        for rung in RUNGS[RUNGS.index(top):]:
            if (
                rung == "exact"
                and ticket.budget.remaining() < self.config.exact_min_budget
            ):
                # Not enough budget left to finish an auction — shed to
                # the best bounded-latency rung instead of starting work
                # we would abandon (the response is marked degraded).
                if _tm.enabled():
                    _tm.incr("serve.exact.shed")
                    _tm.event(
                        "serve.exact_shed",
                        request=ticket.request_id,
                        remaining=ticket.budget.remaining(),
                    )
                continue
            try:
                ticket.budget.ensure(f"request {ticket.request_id}")
                if self.config.execute_hook is not None:
                    self.config.execute_hook(request, rung)
                matching, guarantee, scaling_rung = self._run_rung(
                    rung, request, ticket.budget
                )
            except _SUBSTRATE_FAILURES as exc:
                last = exc
                self._record_miss()
                if _tm.enabled():
                    _tm.incr("serve.rung_failures")
                    _tm.event(
                        "serve.rung_failure",
                        request=ticket.request_id,
                        rung=rung,
                        error=type(exc).__name__,
                    )
                continue
            degraded = rung != (
                RUNGS[_AUTO_TOP] if request.method == "auto"
                else request.method
            )
            return MatchResponse(
                matching=matching,
                rung=rung,
                guarantee=guarantee,
                scaling_rung=scaling_rung,
                degraded=degraded,
                elapsed=time.monotonic() - ticket.enqueued_at,
                queue_wait=queue_wait,
                request_id=ticket.request_id,
            )
        assert last is not None  # ladder only ends via failures
        raise last

    def _run_rung(
        self, rung: str, request: MatchRequest, budget: Deadline
    ) -> tuple[Matching, float, str | None]:
        """One rung attempt on a reused runner thread, bounded by *budget*.

        The runner installs the request budget thread-locally, so the
        resilient backend caps every chunk attempt and backoff to the
        remaining time; the join below additionally bounds code outside
        the backend (e.g. the ``greedy`` rung's serial loop), which is
        abandoned on expiry like a resilient thread attempt.
        """
        remaining = budget.remaining()

        def run() -> tuple[Matching, float, str | None]:
            with request_deadline(budget):
                if rung == "exact":
                    from repro.core.twosided import two_sided_match

                    res = two_sided_match(
                        request.graph,
                        request.iterations,
                        seed=request.seed,
                        backend=self._backend,
                        engine="vectorized",
                        quality="exact",
                    )
                    return res.matching, res.guarantee, res.scaling.rung
                if rung == "two_sided":
                    from repro.core.twosided import two_sided_match

                    res = two_sided_match(
                        request.graph,
                        request.iterations,
                        seed=request.seed,
                        backend=self._backend,
                        engine="vectorized",
                    )
                    return res.matching, res.guarantee, res.scaling.rung
                if rung == "one_sided":
                    from repro.core.onesided import one_sided_match

                    res = one_sided_match(
                        request.graph,
                        request.iterations,
                        seed=request.seed,
                        backend=self._backend,
                    )
                    return res.matching, res.guarantee, res.scaling.rung
                from repro.matching.heuristics.greedy import (
                    greedy_edge_matching,
                )

                matching = greedy_edge_matching(
                    request.graph, seed=request.seed
                )
                return matching, RUNG_GUARANTEES["greedy"], None

        call = self._runners.start(run)
        if not call.join(remaining):
            raise DeadlineExceededError(
                f"rung {rung!r} exceeded the request's remaining "
                f"{remaining:.3g}s budget (runner abandoned)"
            )
        return call.result()

    # -- ladder pressure ----------------------------------------------

    def _record_miss(self) -> None:
        now = time.monotonic()
        with self._miss_lock:
            self._misses.append(now)
            self._trim_misses(now)
        _tm.incr("serve.deadline_misses")

    def _recent_misses(self) -> int:
        with self._miss_lock:
            self._trim_misses(time.monotonic())
            return len(self._misses)

    def _trim_misses(self, now: float) -> None:
        horizon = now - self.config.miss_window
        while self._misses and self._misses[0] < horizon:
            self._misses.popleft()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatchingServer(backend={self._backend.label!r}, "
            f"workers={self.n_workers}, "
            f"queue={self._queue.depth}/{self._queue.capacity}, "
            f"breaker={self._breaker.state.value})"
        )
