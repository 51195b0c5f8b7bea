"""In-process execution backends for data-parallel kernels.

The backends share one tiny interface, :class:`Backend`: map a function
over contiguous index ranges and return the per-range results in partition
order.

* :class:`SerialBackend` — reference implementation, zero overhead.
* :class:`ThreadBackend` — a ``ThreadPoolExecutor``.  Python's GIL would
  serialise pure-Python bodies, but the kernels this library parallelises
  are numpy segment reductions and gathers, which release the GIL inside
  numpy; on multi-core hosts this yields real concurrency.

Both run every chunk in the caller's process, so kernels may write their
output slices into the caller's arrays in place.  The persistent
shared-memory worker pool (:class:`~repro.parallel.shm.SharedMemoryBackend`,
spec ``"shm"``) is the one multi-process backend.

When telemetry is enabled (:mod:`repro.telemetry`), every ``map_ranges``
call records per-chunk wall times into the ``parallel.<label>.chunk``
timer and a load-imbalance gauge ``parallel.<label>.imbalance`` (max chunk
time over mean chunk time — 1.0 is a perfectly balanced call).  When
telemetry is disabled the only cost is one boolean check per call.

Fault injection (:mod:`repro.resilience.faults`) hooks in at the same
altitude: each ``map_ranges`` call checks for an installed
:class:`~repro.resilience.FaultPlan` — a single ``is None`` test in
production — and, when one is active, wraps the kernel so matching
crash/hang/slow/corrupt rules fire on the addressed chunks.  Recovery
(deadlines, retries, chunk re-execution) is layered on top by
:class:`~repro.resilience.ResilientBackend`.

The *scalability claims* of the paper are reproduced with the machine cost
model (:mod:`repro.parallel.machine`); these backends exist so that every
parallel algorithm in the library can also genuinely execute in parallel,
and so tests can check backend-independence of results.
"""

from __future__ import annotations

import abc
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from repro import telemetry as _tm
from repro.errors import BackendError
from repro.parallel.partition import static_partition
from repro.resilience import faults as _faults

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "default_worker_count",
    "get_backend",
]

RangeFn = Callable[[int, int], Any]
Parts = Sequence[tuple[int, int]]


def default_worker_count() -> int:
    """Worker count honouring CPU affinity masks.

    CPU-pinned containers and CI runners often expose many cores through
    ``os.cpu_count()`` while the process is only allowed to run on a few;
    sizing pools by the raw count oversubscribes the allowed CPUs.  Use the
    affinity mask where the platform has one, the plain count elsewhere.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _record_chunks(label: str, durations: Sequence[float]) -> None:
    """Feed one call's per-chunk wall times into the telemetry registry."""
    if not durations:
        return
    timer = _tm.get_registry().timer(f"parallel.{label}.chunk")
    for dt in durations:
        timer.observe(dt)
    _tm.incr(f"parallel.{label}.calls")
    mean = sum(durations) / len(durations)
    if mean > 0.0:
        _tm.set_gauge(
            f"parallel.{label}.imbalance", max(durations) / mean
        )


def _faulty_range_fn(
    fn: RangeFn, plan: "_faults.FaultPlan", label: str, parts: Parts
) -> RangeFn:
    """Bind one call's fault draws (made now, on the caller) onto *fn*."""
    specs = plan.plan_call(label, len(parts))
    by_range = {part: spec for part, spec in zip(parts, specs)}

    def faulty(lo: int, hi: int) -> Any:
        return _faults.execute_with_fault(by_range.get((lo, hi)), fn, lo, hi)

    return faulty


class Backend(abc.ABC):
    """Maps ``fn(lo, hi)`` over a partition of ``range(n)``."""

    #: Number of workers the backend schedules onto.
    n_workers: int = 1
    #: Short name used in telemetry metric paths and fault addressing.
    label: str = "backend"
    #: Whether the backend executes registered kernels natively over
    #: published shared-memory segments (see :mod:`repro.parallel.kernels`).
    supports_kernels: bool = False

    def partition(self, n: int) -> list[tuple[int, int]]:
        """The static chunk decomposition a ``map_ranges(fn, n)`` call uses
        (one near-equal contiguous range per worker)."""
        return static_partition(n, self.n_workers) if n > 0 else []

    def map_ranges(self, fn: RangeFn, n: int) -> list[Any]:
        """Call ``fn`` on each range of a static partition of ``range(n)``
        and return the per-range results in partition order."""
        return self.map_chunks(fn, self.partition(n))

    def map_chunks(self, fn: RangeFn, parts: Parts) -> list[Any]:
        """Call ``fn`` on each given ``(lo, hi)`` range and return per-range
        results in order.  Same fault-injection and telemetry altitude as
        :meth:`map_ranges`, but the caller supplies the chunk grid — this is
        how the kernel layer runs one *fixed* decomposition (independent of
        worker count) on every backend."""
        plan = _faults.active_plan()
        if plan is not None:
            fn = _faulty_range_fn(fn, plan, self.label, parts)
        if not _tm.enabled():
            return self._map_ranges(fn, parts)
        durations: list[float] = []

        def timed(lo: int, hi: int) -> Any:
            t0 = time.perf_counter()
            try:
                return fn(lo, hi)
            finally:
                # list.append is atomic under the GIL, so concurrent
                # worker threads can share this list safely.
                durations.append(time.perf_counter() - t0)

        try:
            return self._map_ranges(timed, parts)
        finally:
            _record_chunks(self.label, durations)

    @abc.abstractmethod
    def _map_ranges(self, fn: RangeFn, parts: Parts) -> list[Any]:
        """Backend-specific execution of the partitioned map."""

    def close(self) -> None:
        """Release worker resources (no-op by default)."""

    def drain(self, timeout: float | None = None) -> bool:
        """Finish in-flight work, then release resources.

        The in-process backends have no asynchronous in-flight state —
        every map call returns before its caller does — so the default is
        simply :meth:`close`.  Pool backends override this to let queued
        chunks complete before the pool stops.  Returns ``True`` when the
        backend drained (and closed) within *timeout*.
        """
        self.close()
        return True

    def healthy(self) -> bool:
        """Liveness probe: ``False`` once workers are known dead.

        In-process backends are healthy by definition; pool backends
        override this to report worker liveness without touching the
        work queues.
        """
        return True

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialBackend(Backend):
    """Run everything inline on the calling thread."""

    n_workers = 1
    label = "serial"

    def _map_ranges(self, fn: RangeFn, parts: Parts) -> list[Any]:
        return [fn(lo, hi) for lo, hi in parts]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialBackend()"


class ThreadBackend(Backend):
    """Thread-pool backend (effective for GIL-releasing numpy kernels)."""

    label = "threads"

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = default_worker_count() if n_workers is None else n_workers
        if self.n_workers < 1:
            raise BackendError(f"n_workers must be >= 1, got {self.n_workers}")
        self._pool = ThreadPoolExecutor(max_workers=self.n_workers)

    def _map_ranges(self, fn: RangeFn, parts: Parts) -> list[Any]:
        futures = [self._pool.submit(fn, lo, hi) for lo, hi in parts]
        return [f.result() for f in futures]

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadBackend(n_workers={self.n_workers})"


def get_backend(spec: "Backend | str | None") -> Backend:
    """Resolve a backend specification.

    Accepts an existing :class:`Backend`, ``None`` (serial), or a string:
    ``"serial"``, ``"threads"``, ``"threads:4"``, ``"shm"``, ``"shm:4"``
    (persistent zero-copy worker pool,
    :class:`~repro.parallel.shm.SharedMemoryBackend`), or
    ``"resilient:<inner spec>"`` (e.g. ``"resilient:threads:4"``) for a
    default-configured :class:`~repro.resilience.ResilientBackend` wrapper.
    A malformed spec — unknown name, a count that is not an integer, a
    count on ``"serial"`` — raises :class:`~repro.errors.BackendError`
    naming it.
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, Backend):
        return spec
    if not isinstance(spec, str):
        raise BackendError(f"cannot interpret backend spec {spec!r}")
    name, _, count = spec.partition(":")
    if name == "resilient":
        from repro.resilience.resilient import ResilientBackend

        return ResilientBackend(get_backend(count or None))
    if name == "serial":
        if count:
            raise BackendError(
                f"backend spec {spec!r}: serial takes no worker count"
            )
        return SerialBackend()
    if name not in ("threads", "shm"):
        raise BackendError(f"unknown backend {name!r} in spec {spec!r}")
    try:
        workers = int(count) if count else None
    except ValueError:
        raise BackendError(
            f"backend spec {spec!r}: worker count {count!r} is not an integer"
        ) from None
    if name == "threads":
        return ThreadBackend(workers)
    from repro.parallel.shm import SharedMemoryBackend

    return SharedMemoryBackend(workers)
