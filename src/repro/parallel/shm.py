"""``SharedMemoryBackend`` — a persistent zero-copy worker pool.

The paper's speedups assume shared-memory threads: workers read the CSR
arrays in place and write results in place, and the only coordination
cost is handing out loop chunks.  Forking per call and pickling results
back would break that assumption.  This backend keeps it with a
persistent pool of real processes, as follows.

* **Persistent pool** — workers are forked once (lazily, on the first
  kernel call) and reused across calls; a call costs queue messages, not
  ``fork()``.
* **Published arrays** — every array a kernel touches lives in a
  ``multiprocessing.shared_memory`` segment.  Read-only arrays (graph
  CSR/CSC — :class:`~repro.graph.BipartiteGraph` freezes them) are copied
  in **once** and cached; writable arrays get a cached segment that is
  synced in per call and, for outputs, synced back out.  Workers attach
  each segment once and cache the mapping.
* **Kernel tasks** — workers execute *registered kernels*
  (:mod:`repro.parallel.kernels`) addressed by name.  A task message is
  ``(call id, chunk, kernel name, lo, hi, bindings, scalars, fault
  spec)`` where a binding is ``(segment name, shape, dtype)`` — a few
  hundred bytes regardless of graph size.  No array ever crosses the
  process boundary by pickling; ``last_task_bytes`` records the actual
  serialized task sizes so tests can enforce that.
* **Dynamic load balance** — all chunks of a call go into one shared
  queue and workers race for them, so a straggler chunk (skewed degree
  distribution) only delays its own worker.  The chunk grid oversubscribes
  the pool (see :func:`~repro.parallel.kernels.kernel_grid`).
* **Crash semantics** — a worker that dies mid-call (including injected
  ``crash`` faults, which ``os._exit`` inside the worker) is detected by
  liveness polling; the call raises
  :class:`~repro.errors.WorkerCrashError` and the next call respawns a
  fresh pool with fresh queues, so one death never poisons later calls.
  ``"resilient:shm"`` never reaches the pool: the wrapper runs every
  attempt on its own threads (closures cannot reach pre-forked workers),
  so resilient calls use the in-process kernel path and the pool serves
  plain ``run_kernel`` callers only.
* **Telemetry** — per-chunk wall times measured inside the workers feed
  the standard ``parallel.shm.chunk`` timer and imbalance gauge.

Generic ``map_ranges``/``map_chunks`` calls (arbitrary closures, which
cannot be shipped to pre-forked workers by name) fall back to an
in-process thread pool — correct, and still parallel for GIL-releasing
numpy work.  The zero-copy path is kernel-only by design.

Lifecycle: call :meth:`SharedMemoryBackend.close` (or use the backend as
a context manager) to stop workers and unlink segments.  An ``atexit``
hook closes leaked backends so interpreter shutdown never trips the
``resource_tracker`` leak warning.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import threading
import time
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory
from queue import Empty
from typing import Any, Mapping

import numpy as np

from repro import telemetry as _tm
from repro.errors import BackendError, WorkerCrashError
from repro.parallel.backends import (
    Backend,
    Parts,
    RangeFn,
    _record_chunks,
    default_worker_count,
)
from repro.parallel.kernels import KERNELS, Kernel
from repro.resilience import faults as _faults

__all__ = ["SharedMemoryBackend", "reclaim_stale_segments"]

#: Poll interval while waiting for chunk acks; liveness of the pool is
#: checked at this cadence, so a crashed worker surfaces in ~this time.
_ACK_POLL_SECONDS = 0.05

#: Backends not yet closed, for the atexit sweep.  Strong references on
#: purpose: an abandoned backend must stay reachable until its segments
#: are unlinked — were it garbage-collected first, the sweep would miss
#: it and the segments would linger until the resource tracker's
#: shutdown pass (which warns about them as leaks).  ``close()`` removes
#: the entry, so disciplined users pay nothing.
_OPEN_BACKENDS: "set[SharedMemoryBackend]" = set()


@atexit.register
def _close_leaked_backends() -> None:  # pragma: no cover - shutdown path
    for backend in list(_OPEN_BACKENDS):
        backend.close()


#: Namespace prefix for this library's shared-memory segments.  The
#: creator pid is baked into each name (8 hex digits after the prefix),
#: so a later process can tell a live pool's segment from one orphaned
#: by a SIGKILLed daemon — the atexit sweep above never runs for those.
#: Kept short: macOS caps shm names at 31 bytes including the slash.
_SEGMENT_PREFIX = "rpr"
_SHM_DIR = "/dev/shm"
_segment_counter = itertools.count()


def _next_segment_name() -> str:
    return (
        f"{_SEGMENT_PREFIX}{os.getpid():08x}x{next(_segment_counter):04x}"
    )


def reclaim_stale_segments() -> int:
    """Unlink namespaced segments whose creator process is gone.

    A daemon killed with SIGKILL never runs its atexit sweep, so its
    pool's segments would otherwise accumulate in ``/dev/shm`` across
    restarts.  Called on backend construction and daemon startup; counts
    reclaimed segments in ``parallel.shm.reclaimed_segments``.  Returns
    the number reclaimed (0 on platforms without a visible shm
    directory).
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return 0
    reclaimed = 0
    for name in os.listdir(_SHM_DIR):
        if not name.startswith(_SEGMENT_PREFIX):
            continue
        pid_hex = name[len(_SEGMENT_PREFIX) : len(_SEGMENT_PREFIX) + 8]
        if len(pid_hex) < 8:
            continue
        try:
            pid = int(pid_hex, 16)
        except ValueError:
            continue
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
            continue  # creator still alive; its segment, its business
        except ProcessLookupError:
            pass
        except PermissionError:  # pragma: no cover - other-user process
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
            reclaimed += 1
        except FileNotFoundError:  # pragma: no cover - raced another sweep
            pass
    if reclaimed and _tm.enabled():
        _tm.incr("parallel.shm.reclaimed_segments", reclaimed)
    return reclaimed


class _Segment:
    """A published array: its shared segment plus the parent-side view."""

    __slots__ = ("shm", "view", "owner", "writable")

    def __init__(self, arr: np.ndarray) -> None:
        while True:
            try:
                self.shm = SharedMemory(
                    create=True,
                    size=max(arr.nbytes, 1),
                    name=_next_segment_name(),
                )
                break
            except FileExistsError:  # pragma: no cover - recycled pid
                continue
        self.view: np.ndarray = np.ndarray(
            arr.shape, dtype=arr.dtype, buffer=self.shm.buf
        )
        self.writable = arr.flags.writeable
        # Read-only arrays are synced once and cached by identity; pin the
        # array so its id() cannot be recycled while the cache entry lives.
        # Writable arrays are re-synced every call, so no pin is needed.
        self.owner: np.ndarray | None = None if self.writable else arr

    @property
    def binding(self) -> tuple[str, tuple[int, ...], str]:
        return (self.shm.name, self.view.shape, self.view.dtype.str)

    def matches(self, arr: np.ndarray) -> bool:
        return (
            self.view.shape == arr.shape
            and self.view.dtype == arr.dtype
            and (self.owner is None or self.owner is arr)
        )

    def destroy(self) -> None:
        self.view = None  # release the buffer export before closing
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _worker_main(task_q, result_q) -> None:
    """Worker loop: attach segments on demand, run kernels by name, ack.

    Runs in a forked child.  ``None`` is the shutdown sentinel.  Acks are
    ``(call_id, chunk_idx, ok, seconds, payload)`` — a float/exception,
    never an array (kernel outputs land in the shared segments).
    """
    segments: dict[str, SharedMemory] = {}
    while True:
        task = task_q.get()
        if task is None:
            break
        call_id, idx, name, lo, hi, bindings, scalars, spec, drops = task
        t0 = time.perf_counter()
        try:
            for dead in drops:
                seg = segments.pop(dead, None)
                if seg is not None:
                    seg.close()
            kern = KERNELS.get(name)
            if kern is None:
                raise BackendError(
                    f"kernel {name!r} is not registered in this worker; "
                    f"register kernels before the pool spawns"
                )
            views: dict[str, Any] = dict(scalars)
            for role, (seg_name, shape, dtype_str) in bindings.items():
                shm = segments.get(seg_name)
                if shm is None:
                    shm = SharedMemory(name=seg_name)
                    segments[seg_name] = shm
                view = np.ndarray(
                    shape, dtype=np.dtype(dtype_str), buffer=shm.buf
                )
                if role not in kern.outputs:
                    view.flags.writeable = False
                views[role] = view
            ret = _faults.execute_with_fault(
                spec,
                lambda a, b: kern.fn(a, b, views),
                lo,
                hi,
                in_child=True,
            )
            result_q.put(
                (call_id, idx, True, time.perf_counter() - t0, ret)
            )
        except BaseException as exc:  # noqa: BLE001 - report to the parent
            dt = time.perf_counter() - t0
            try:
                result_q.put((call_id, idx, False, dt, exc))
            except Exception:  # payload not picklable
                result_q.put(
                    (call_id, idx, False, dt,
                     BackendError(f"worker error not picklable: {exc!r}"))
                )


class SharedMemoryBackend(Backend):
    """Persistent worker pool over shared-memory published arrays.

    Parameters
    ----------
    n_workers:
        Pool size; defaults to
        :func:`~repro.parallel.backends.default_worker_count` (the CPU
        affinity mask).
    max_segments:
        Cap on cached published arrays; least-recently-published entries
        beyond it are unlinked (workers drop their attachment with the
        next task they receive).
    """

    label = "shm"
    supports_kernels = True

    def __init__(
        self, n_workers: int | None = None, *, max_segments: int = 128
    ) -> None:
        import multiprocessing as mp

        self.n_workers = (
            default_worker_count() if n_workers is None else n_workers
        )
        if self.n_workers < 1:
            raise BackendError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if max_segments < 8:
            raise BackendError(
                f"max_segments must be >= 8, got {max_segments}"
            )
        try:
            self._ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise BackendError(
                "SharedMemoryBackend requires fork support"
            ) from exc
        self.max_segments = max_segments
        self._segments: dict[int, _Segment] = {}  # id(array) -> segment
        self._pending_drops: list[str] = []
        self._procs: list[Any] = []
        self._task_q: Any = None
        self._result_q: Any = None
        self._call_counter = 0
        self._fallback_pool = None
        # One kernel call at a time: the task/result queues cannot
        # multiplex acks of concurrent calls (a second caller would steal
        # or drop the first one's), so concurrent callers — e.g. several
        # serving workers sharing one pool — queue here instead.  The
        # same lock is the drain barrier: ``drain()`` acquires it, so it
        # only proceeds once in-flight chunks have been collected.
        self._call_lock = threading.Lock()
        self._draining = False
        #: Serialized byte size of each task of the most recent kernel
        #: call, and the raw task tuples — the no-array-pickling
        #: regression test reads these.
        self.last_task_bytes: list[int] = []
        self.last_tasks: list[tuple] = []
        reclaim_stale_segments()
        _OPEN_BACKENDS.add(self)

    # -- kernel execution (the zero-copy path) -------------------------

    def run_kernel(
        self,
        kern: Kernel,
        parts: Parts,
        arrays: dict[str, np.ndarray],
        scalars: Mapping[str, Any],
    ) -> list[Any]:
        """Execute *kern* over *parts* on the pool; returns per-chunk
        return values in grid order.  Called via
        :func:`repro.parallel.kernels.run_kernel`."""
        if self._draining:
            raise BackendError(
                "SharedMemoryBackend is draining; no new kernel calls"
            )
        with self._call_lock:
            return self._run_kernel_locked(kern, parts, arrays, scalars)

    def _run_kernel_locked(
        self,
        kern: Kernel,
        parts: Parts,
        arrays: dict[str, np.ndarray],
        scalars: Mapping[str, Any],
    ) -> list[Any]:
        if self._draining:
            raise BackendError(
                "SharedMemoryBackend is draining; no new kernel calls"
            )
        self._ensure_pool()
        plan = _faults.active_plan()
        specs = (
            plan.plan_call(self.label, len(parts))
            if plan is not None
            else [None] * len(parts)
        )
        bindings: dict[str, tuple[str, tuple[int, ...], str]] = {}
        for role, arr in arrays.items():
            seg = self._publish(arr, sync=role not in kern.outputs)
            bindings[role] = seg.binding
        drops = tuple(self._pending_drops)
        self._pending_drops.clear()

        self._call_counter += 1
        call_id = self._call_counter
        tasks = [
            (
                call_id, idx, kern.name, lo, hi, bindings, dict(scalars),
                specs[idx], drops,
            )
            for idx, (lo, hi) in enumerate(parts)
        ]
        self.last_tasks = tasks
        self.last_task_bytes = [len(pickle.dumps(t)) for t in tasks]
        for task in tasks:
            self._task_q.put(task)

        durations: list[float] = []
        try:
            rets = self._collect(call_id, len(parts), durations)
        finally:
            if _tm.enabled():
                _record_chunks(self.label, durations)
        for role in kern.outputs:
            arr = arrays[role]
            np.copyto(arr, self._segments[id(arr)].view)
        return rets

    def _collect(
        self, call_id: int, n_chunks: int, durations: list[float]
    ) -> list[Any]:
        """Drain acks for one call, polling worker liveness in between."""
        results: dict[int, Any] = {}
        failure: BaseException | None = None
        pending = n_chunks
        while pending:
            try:
                msg = self._result_q.get(timeout=_ACK_POLL_SECONDS)
            except Empty:
                dead = [p for p in self._procs if not p.is_alive()]
                if dead:
                    statuses = ", ".join(
                        str(p.exitcode) for p in dead
                    )
                    # The pool is compromised: chunks handed to the dead
                    # worker will never be acked.  Burn it; the next call
                    # respawns with fresh queues.
                    self._stop_pool()
                    _tm.incr("parallel.shm.worker_crashes")
                    raise WorkerCrashError(
                        f"{len(dead)} pool worker(s) exited with status "
                        f"{statuses} mid-call; pool will respawn on the "
                        f"next call"
                    )
                continue
            cid, idx, ok, dt, payload = msg
            if cid != call_id:
                continue  # stale ack from an aborted earlier call
            pending -= 1
            durations.append(dt)
            if ok:
                results[idx] = payload
            elif failure is None:
                failure = (
                    payload
                    if isinstance(payload, BaseException)
                    else BackendError(str(payload))
                )
        if failure is not None:
            raise failure
        return [results[i] for i in range(n_chunks)]

    # -- publishing ----------------------------------------------------

    def _publish(self, arr: np.ndarray, *, sync: bool) -> _Segment:
        """Return the shared segment for *arr*, creating/syncing it.

        Read-only arrays sync once (the cache pins them, so identity
        implies content).  Writable arrays sync on every call — the
        backend cannot soundly detect in-place mutation, and the memcpy
        is O(n) against the kernels' O(nnz) work.  Output arrays skip the
        inbound sync (*sync* False); their content is copied back after
        the call.
        """
        if not isinstance(arr, np.ndarray):
            raise BackendError(
                f"kernels require numpy array views, got {type(arr)!r}"
            )
        if not arr.flags.c_contiguous:
            raise BackendError(
                "kernels require C-contiguous arrays (publish a copy)"
            )
        key = id(arr)
        seg = self._segments.get(key)
        if seg is not None and seg.matches(arr):
            self._segments[key] = self._segments.pop(key)  # LRU touch
            if seg.writable and sync:
                np.copyto(seg.view, arr)
            return seg
        if seg is not None:
            self._drop_segment(key)
        while len(self._segments) >= self.max_segments:
            self._drop_segment(next(iter(self._segments)))
        seg = _Segment(arr)
        if sync:
            np.copyto(seg.view, arr)
        self._segments[key] = seg
        return seg

    def _drop_segment(self, key: int) -> None:
        seg = self._segments.pop(key)
        self._pending_drops.append(seg.shm.name)
        seg.destroy()

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self) -> None:
        if self._procs and all(p.is_alive() for p in self._procs):
            return
        self._stop_pool()
        # Start the segment tracker *before* forking: children inherit
        # the tracker connection, so their attach registrations coalesce
        # with the parent's instead of spawning per-child trackers (whose
        # exit would unlink segments still in use).
        resource_tracker.ensure_running()
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        self._procs = [
            self._ctx.Process(
                target=_worker_main,
                args=(self._task_q, self._result_q),
                daemon=True,
                name=f"shm-worker-{i}",
            )
            for i in range(self.n_workers)
        ]
        for proc in self._procs:
            proc.start()
        _tm.incr("parallel.shm.pool_spawns")

    def _stop_pool(self) -> None:
        if self._task_q is not None:
            try:
                for _ in self._procs:
                    self._task_q.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        for proc in self._procs:
            proc.join(timeout=1.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        for q in (self._task_q, self._result_q):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._procs = []
        self._task_q = None
        self._result_q = None

    def drain(self, timeout: float | None = None) -> bool:
        """Finish the in-flight kernel call, then close the backend.

        Sets the draining flag (new kernel calls are rejected with a
        typed :class:`~repro.errors.BackendError`), waits for the current
        call — all its queued chunks included — to be collected, then
        stops the pool and unlinks every segment.  Returns ``True`` when
        that completed within *timeout* (``None`` = wait forever);
        ``False`` leaves the backend draining but open, so the caller can
        retry or force :meth:`close`.
        """
        self._draining = True
        if not self._call_lock.acquire(
            timeout=-1 if timeout is None else timeout
        ):
            return False
        try:
            self.close()
        finally:
            self._call_lock.release()
        return True

    def healthy(self) -> bool:
        """True while the pool can serve: not spawned yet, or all alive."""
        return not self._procs or all(p.is_alive() for p in self._procs)

    def close(self) -> None:
        """Stop the pool and unlink every published segment."""
        self._stop_pool()
        if self._fallback_pool is not None:
            self._fallback_pool.shutdown(wait=True)
            self._fallback_pool = None
        for key in list(self._segments):
            seg = self._segments.pop(key)
            seg.destroy()
        self._pending_drops.clear()
        _OPEN_BACKENDS.discard(self)

    # -- generic map fallback ------------------------------------------

    def _map_ranges(self, fn: RangeFn, parts: Parts) -> list[Any]:
        """Arbitrary closures cannot be shipped to pre-forked workers by
        name, so generic maps run on an in-process thread pool (parallel
        for GIL-releasing numpy work, like :class:`ThreadBackend`)."""
        if len(parts) <= 1:
            return [fn(lo, hi) for lo, hi in parts]
        if self._fallback_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._fallback_pool = ThreadPoolExecutor(
                max_workers=self.n_workers,
                thread_name_prefix="shm-fallback",
            )
        futures = [self._fallback_pool.submit(fn, lo, hi) for lo, hi in parts]
        return [f.result() for f in futures]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedMemoryBackend(n_workers={self.n_workers}, "
            f"pool={'up' if self._procs else 'down'}, "
            f"segments={len(self._segments)})"
        )
