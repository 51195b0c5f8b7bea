"""Deterministic, seeded fault injection for the execution backends.

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules addressable by
backend label, chunk index, and call count.  Backends consult the active
plan in ``map_ranges``; when no plan is installed (the production default)
the only cost is one ``is None`` check per call.  Plans are installed with
the :func:`injected_faults` context manager — there is no way to enable
injection implicitly.

Determinism: probabilistic rules draw from a hash of
``(plan seed, rule index, backend label, chunk, call)``, so the same plan
against the same call sequence injects the same faults on every run, on
every platform, regardless of thread interleaving.

Fault kinds
-----------

``crash``
    The worker dies.  In a shared-memory pool worker this is a hard
    ``os._exit`` (the pool sees the worker gone and its exit status); on
    an in-process worker it raises :class:`~repro.errors.WorkerCrashError`.
``hang``
    The worker stalls for ``seconds`` (default 30) before completing
    normally — long enough to trip any sane deadline, bounded so that
    un-killable Python threads do not leak forever.
``slow``
    The worker sleeps ``seconds`` (default 0.05) and then completes —
    a straggler, not a failure.
``corrupt``
    The worker completes but its payload is replaced with the
    :data:`CORRUPTED` marker, modelling a checksum failure on the result
    channel.  :class:`~repro.resilience.ResilientBackend` detects the
    marker and treats the chunk as failed; a plain backend would hand the
    bad payload to the caller.

Network fault kinds
-------------------

The socket transport (:mod:`repro.serve.net`) consults the plan under
the backend label ``"net"`` once per response it is about to send, so a
schedule can break the wire at exact request boundaries:

``drop``
    The connection is closed without a response — the client sees EOF
    mid-request and must retry (its idempotent request id makes the
    retry safe).
``delay``
    The response is sent ``seconds`` late — a slow network, not a
    failure; the client's response deadline decides whether it counts.
``partition``
    The connection drops *and* the listener refuses every new
    connection for ``seconds`` — the client's reconnects all fail and
    its retry budget ends in a typed
    :class:`~repro.errors.PartitionedError` (or the partition heals
    first and a retry succeeds).
``truncate``
    The response frame is cut partway through and the connection
    closed — the torn-write of the wire; the framing layer detects the
    short frame.
``garbage``
    A byte inside the response payload is flipped — caught by the frame
    checksum; the client discards the frame and retries.

When a compute backend encounters one of these kinds (a plan addressed
at every label), they degrade to their nearest process-level analogue:
``drop``/``truncate``/``garbage`` behave like ``crash``, ``delay`` like
``slow``, ``partition`` like ``hang``.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterator, Sequence

from repro import telemetry as _tm
from repro.errors import BackendError, WorkerCrashError

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "injected_faults",
    "active_plan",
    "execute_with_fault",
    "CORRUPTED",
    "is_corrupted",
]

#: Exit status used by injected pool-worker crashes (ASCII 'I' — makes
#: injected deaths distinguishable from real ones in test output).
CRASH_EXIT_CODE = 73


class FaultKind(str, Enum):
    """The injectable failure modes."""

    CRASH = "crash"
    HANG = "hang"
    SLOW = "slow"
    CORRUPT = "corrupt"
    #: IO-layer fault: a write is cut off partway through (the classic
    #: torn write of a crash mid-append).  Only meaningful to callers
    #: that write framed records — the journal writer truncates the
    #: frame and then dies; compute backends treat it like ``crash``.
    TORN = "torn"
    #: Network faults, injected at the socket framing layer under the
    #: backend label ``"net"`` (see module docstring).  Compute backends
    #: degrade them to crash/slow/hang analogues.
    DROP = "drop"
    DELAY = "delay"
    PARTITION = "partition"
    TRUNCATE = "truncate"
    GARBAGE = "garbage"


#: Default stall durations per kind (seconds).
_DEFAULT_SECONDS = {
    FaultKind.HANG: 30.0,
    FaultKind.SLOW: 0.05,
    FaultKind.CRASH: 0.0,
    FaultKind.CORRUPT: 0.0,
    FaultKind.TORN: 0.0,
    FaultKind.DROP: 0.0,
    FaultKind.DELAY: 0.05,
    FaultKind.PARTITION: 0.5,
    FaultKind.TRUNCATE: 0.0,
    FaultKind.GARBAGE: 0.0,
}

#: Network kinds mapped to their process-level analogue, used when a
#: broadly-addressed plan reaches a compute backend's ``map_ranges``.
_NET_ANALOGUE = {
    FaultKind.DROP: FaultKind.CRASH,
    FaultKind.TRUNCATE: FaultKind.CRASH,
    FaultKind.GARBAGE: FaultKind.CRASH,
    FaultKind.DELAY: FaultKind.SLOW,
    FaultKind.PARTITION: FaultKind.HANG,
}


class _Corrupted:
    """Singleton marker standing in for a checksum-failed chunk payload."""

    _instance: "_Corrupted | None" = None

    def __new__(cls) -> "_Corrupted":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<CORRUPTED>"

    def __reduce__(self):
        # Preserve singleton identity across the process-backend pipe.
        return (_Corrupted, ())


#: The corrupted-payload marker returned by ``corrupt`` faults.
CORRUPTED = _Corrupted()


def is_corrupted(payload: object) -> bool:
    """True iff *payload* is the :data:`CORRUPTED` marker."""
    return payload is CORRUPTED


@dataclass
class FaultSpec:
    """One fault-injection rule.

    Attributes
    ----------
    kind:
        Which failure mode to inject (a :class:`FaultKind` or its string
        value).
    backend:
        Restrict to backends with this label (``"serial"``, ``"threads"``,
        ``"shm"``); ``None`` matches every backend.
    chunk:
        Restrict to this chunk index within a call; ``None`` matches all.
    call:
        Restrict to this 0-based call count (per backend label for plain
        backends; the attempt number for :class:`ResilientBackend`
        retries); ``None`` matches all.
    seconds:
        Stall duration for ``hang``/``slow`` (kind-specific default when
        ``None``).
    probability:
        Chance the rule fires when it matches (deterministic per address,
        see module docstring).
    max_hits:
        Stop firing after this many injections (``None`` = unlimited).
        The canonical "crash twice, then recover" schedule is
        ``FaultSpec("crash", max_hits=2)``.
    """

    kind: FaultKind | str
    backend: str | None = None
    chunk: int | None = None
    call: int | None = None
    seconds: float | None = None
    probability: float = 1.0
    max_hits: int | None = None
    #: Number of times this rule has fired (managed by the plan).
    hits: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        self.kind = FaultKind(self.kind)
        if not 0.0 <= self.probability <= 1.0:
            raise BackendError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.seconds is None:
            self.seconds = _DEFAULT_SECONDS[self.kind]

    def matches(self, backend: str, chunk: int, call: int) -> bool:
        """Address match only — probability and hit budget are the plan's."""
        if self.backend is not None and backend != self.backend:
            return False
        if self.chunk is not None and chunk != self.chunk:
            return False
        if self.call is not None and call != self.call:
            return False
        return True


class FaultPlan:
    """A seeded, deterministic schedule of injectable faults.

    The plan is consulted by the caller (the thread issuing the map
    call), never inside workers, so hit accounting survives a pool
    worker's crash.  Thread-safe.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = seed
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}

    def reset(self) -> "FaultPlan":
        """Clear hit counts and call counters (for reusing one plan)."""
        with self._lock:
            self._calls.clear()
            for spec in self.specs:
                spec.hits = 0
        return self

    def begin_call(self, backend: str) -> int:
        """Allocate the next call index for *backend* (plain backends)."""
        with self._lock:
            call = self._calls.get(backend, 0)
            self._calls[backend] = call + 1
        return call

    def match(self, backend: str, chunk: int, call: int) -> FaultSpec | None:
        """First rule firing at ``(backend, chunk, call)``, if any.

        Accounts a hit against the returned rule's budget and bumps the
        ``resilience.faults.*`` telemetry counters.
        """
        for index, spec in enumerate(self.specs):
            if not spec.matches(backend, chunk, call):
                continue
            if spec.probability < 1.0:
                # A string seed hashes stably (sha512 under the hood), so
                # the draw is identical across runs, platforms, and
                # thread interleavings.
                draw = random.Random(
                    f"{self.seed}:{index}:{backend}:{chunk}:{call}"
                ).random()
                if draw >= spec.probability:
                    continue
            with self._lock:
                if spec.max_hits is not None and spec.hits >= spec.max_hits:
                    continue
                spec.hits += 1
            if _tm.enabled():
                _tm.incr("resilience.faults.injected")
                _tm.incr(f"resilience.faults.{spec.kind.value}")
                _tm.event(
                    "resilience.fault",
                    kind=spec.kind.value,
                    backend=backend,
                    chunk=chunk,
                    call=call,
                )
            return spec
        return None

    def plan_call(self, backend: str, n_chunks: int) -> list[FaultSpec | None]:
        """Per-chunk rules for one ``map_ranges`` call on *backend*."""
        call = self.begin_call(backend)
        return [self.match(backend, chunk, call) for chunk in range(n_chunks)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({len(self.specs)} specs, seed={self.seed})"


#: The installed plan; ``None`` means injection is off (production default).
_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The currently installed :class:`FaultPlan`, or ``None``."""
    return _ACTIVE


@contextlib.contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install *plan* for the duration of a ``with`` block.

    Nested installs restore the previous plan on exit.  Installation is
    process-global (the backends are), so chaos tests should not run
    concurrently with other backend users.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def execute_with_fault(
    spec: FaultSpec | None,
    fn: Callable[[int, int], Any],
    lo: int,
    hi: int,
    *,
    in_child: bool = False,
) -> Any:
    """Run ``fn(lo, hi)`` under *spec* (``None`` = run clean).

    *in_child* marks execution inside a shared-memory pool worker, where
    ``crash`` means a hard ``os._exit`` rather than an exception.
    """
    if spec is None:
        return fn(lo, hi)
    kind = _NET_ANALOGUE.get(spec.kind, spec.kind)
    if kind is FaultKind.CRASH or kind is FaultKind.TORN:
        if in_child:
            os._exit(CRASH_EXIT_CODE)
        raise WorkerCrashError(
            f"injected crash in worker for range [{lo}, {hi})"
        )
    if kind is FaultKind.HANG or kind is FaultKind.SLOW:
        time.sleep(spec.seconds or 0.0)
        return fn(lo, hi)
    if kind is FaultKind.CORRUPT:
        fn(lo, hi)  # do the work, lose the payload
        return CORRUPTED
    raise BackendError(f"unknown fault kind {kind!r}")  # pragma: no cover
