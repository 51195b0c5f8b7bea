"""Exception hierarchy for :mod:`repro`.

All exceptions raised by the library derive from :class:`ReproError`, so a
caller can wrap any public entry point in ``except ReproError``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphStructureError",
    "ShapeError",
    "ScalingError",
    "ConvergenceWarning",
    "MatchingError",
    "ValidationError",
    "BackendError",
    "ScheduleError",
    "WorkerCrashError",
    "DeadlineExceededError",
    "ResultCorruptionError",
    "RetryExhaustedError",
    "ServiceError",
    "StreamError",
    "RecoveryError",
    "OverloadedError",
    "CircuitOpenError",
    "ServerClosedError",
    "TransportError",
    "PartitionedError",
    "QuotaExceededError",
    "ShardError",
    "ExperimentError",
    "TelemetryError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphStructureError(ReproError):
    """The graph/matrix data is structurally invalid (bad indices, duplicate
    entries, unsorted adjacency, inconsistent CSR/CSC mirrors, ...)."""


class ShapeError(GraphStructureError):
    """Array arguments have incompatible or unexpected shapes."""


class ScalingError(ReproError):
    """A scaling algorithm cannot proceed (e.g. an empty row/column when the
    caller demanded strict doubly stochastic convergence)."""


class ConvergenceWarning(UserWarning):
    """A scaling algorithm stopped before reaching the requested tolerance.

    This is a warning rather than an error: the paper (Section 3.3) makes a
    point of the heuristics remaining useful with only a few iterations of
    scaling, long before convergence.  When emitted by the degradation
    ladder the instance carries the achieved column-sum error in
    :attr:`achieved_error` and the ladder rung in :attr:`rung`.
    """

    def __init__(
        self,
        message: str,
        *,
        achieved_error: float | None = None,
        rung: str | None = None,
    ) -> None:
        super().__init__(message)
        #: Column-sum error at the point the algorithm stopped (or None).
        self.achieved_error = achieved_error
        #: Degradation-ladder rung that produced the result (or None).
        self.rung = rung


class MatchingError(ReproError):
    """A matching routine received invalid input or reached an invalid state."""


class ValidationError(MatchingError):
    """A matching failed validation (vertex matched twice, non-edge used, ...)."""


class BackendError(ReproError):
    """A parallel backend was misconfigured or failed to execute."""


class ScheduleError(BackendError):
    """A simulated-thread schedule is invalid (unknown policy, bad seed, ...)."""


class WorkerCrashError(BackendError):
    """A backend worker died before returning its chunk's result.

    Raised when a shared-memory pool worker exits (or is killed) mid-call,
    or when an injected crash fault fires on an in-process worker.  The
    message names the chunk range or, for the pool, the workers' exit
    status.
    """


class DeadlineExceededError(BackendError):
    """A chunk did not complete within the configured per-call deadline.

    :class:`~repro.resilience.ResilientBackend` runs every attempt on a
    runner thread; hung threads cannot be killed in CPython and are
    abandoned (they finish in the background), but the call still returns
    or raises within the deadline budget.
    """


class ResultCorruptionError(BackendError):
    """A chunk returned a payload that failed the integrity check.

    Models a checksum mismatch on the result channel; fault injection
    produces such payloads with the ``corrupt`` fault kind.
    """


class RetryExhaustedError(BackendError):
    """All retry attempts for a chunk failed.

    The final underlying failure (crash, deadline, corruption) is chained
    as ``__cause__``.
    """


class ServiceError(ReproError):
    """Base class for matching-service rejections (:mod:`repro.serve`).

    Every way the server declines or abandons a request is a subclass of
    this (or of :class:`BackendError` for execution failures), so a
    client can always distinguish "the service protected itself" from
    "your request was wrong".
    """


class StreamError(ReproError):
    """A streaming operation is invalid (stale epoch, unknown or
    exhausted stream handle, ...).  See :mod:`repro.stream`."""


class RecoveryError(ServiceError):
    """Crash recovery could not restore a consistent, verified state.

    Raised when the journal is corrupted beyond torn-tail truncation
    (a valid record *after* an invalid one — interleaved corruption,
    never produced by a crash mid-append), when a checkpoint fails its
    integrity check, or when a recovered session's recertified
    guarantee diverges from the last acknowledged value.  The message
    names the byte offset or stream handle; refusing to serve beats
    silently serving a weaker certificate than the one acknowledged.
    """

    def __init__(self, message: str, *, offset: int | None = None) -> None:
        super().__init__(message)
        #: Byte offset of the first invalid journal byte (or None).
        self.offset = offset


class OverloadedError(ServiceError):
    """The server shed the request because its admission queue is full.

    Load shedding is deliberate: a bounded queue plus typed rejection is
    what keeps accepted requests inside their deadline budgets under
    sustained overload.  Clients should back off and retry.
    """


class CircuitOpenError(ServiceError):
    """The server's circuit breaker is open; the request failed fast.

    Raised after consecutive worker crashes or deadline misses opened the
    breaker.  The underlying pool respawns in the background; once the
    cooldown elapses, half-open probe requests test the path and close
    the breaker again.
    """


class ServerClosedError(ServiceError):
    """The server is draining or stopped and accepts no new requests."""


class TransportError(ServiceError):
    """A network request could not be completed over the socket transport.

    Raised by :class:`~repro.serve.net.ResilientClient` after its retry
    budget is spent on transport-level failures — dropped connections,
    truncated or checksum-failed frames, response deadlines.  The final
    underlying failure is chained as ``__cause__``.  A request that
    might have been applied server-side is safe to retry verbatim: the
    client's idempotent request ids make re-application a no-op.
    """


class PartitionedError(TransportError):
    """The service is unreachable — every (re)connection attempt failed.

    The network-partition flavour of :class:`TransportError`: nothing
    was ever accepted by the far end, so no request state is ambiguous;
    the caller should back off and try again later (or try another
    replica).
    """


class QuotaExceededError(ServiceError):
    """The request was shed because its tenant's admission quota is full.

    Per-tenant quotas are enforced *before* routing (see
    :mod:`repro.serve.quota`): one tenant flooding the front cannot
    starve another tenant's admission.  Clients should back off; the
    quota frees as the tenant's in-flight requests complete.
    """


class ShardError(ReproError):
    """A shard plan cannot be built or executed as requested (bad shard
    count, per-shard memory budget unsatisfiable, tier mismatch, ...)."""


class ExperimentError(ReproError):
    """An experiment id is unknown or its parameters are invalid."""


class TelemetryError(ReproError):
    """Telemetry misuse (e.g. re-registering a metric under another kind)."""
