"""Shared-memory parallelism substrate.

The paper's target is a 16-core OpenMP machine with gcc atomic built-ins.
This package reproduces that environment three ways:

* :mod:`repro.parallel.atomics` + :mod:`repro.parallel.simthread` — a
  deterministic multi-thread *simulator*: algorithm bodies are written as
  generators that yield between shared-memory accesses, and a scheduler
  interleaves them (round-robin, random, or adversarial).  This is how the
  concurrency-safety claims of ``KarpSipserMT`` (Algorithm 4) are verified —
  under far more hostile schedules than one real machine run would exercise.
* :mod:`repro.parallel.backends` and :mod:`repro.parallel.shm` — real
  execution backends (serial, threads, and the persistent shared-memory
  worker pool) for the data-parallel kernels where numpy releases the
  GIL.
* :mod:`repro.parallel.machine` — a calibrated cost model that converts the
  *work profile* of a run (per-chunk operation counts) into simulated
  parallel times for p threads, with OpenMP-style dynamic/guided/static
  scheduling and a memory-bandwidth roofline.  The speedup figures
  (Figures 3 and 4) are produced by this model; EXPERIMENTS.md discusses
  the substitution.
"""

from repro.parallel.atomics import AtomicArray
from repro.parallel.backends import (
    Backend,
    SerialBackend,
    ThreadBackend,
    default_worker_count,
    get_backend,
)
from repro.parallel.kernels import (
    KERNELS,
    Kernel,
    kernel_chunk_override,
    register_kernel,
    run_kernel,
)
from repro.parallel.machine import MachineModel, ScheduleKind
from repro.parallel.partition import chunk_ranges, static_partition
from repro.parallel.shm import SharedMemoryBackend, WorkerCrashError
from repro.parallel.simthread import SimScheduler, SchedulePolicy, run_threads

__all__ = [
    "AtomicArray",
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "SharedMemoryBackend",
    "WorkerCrashError",
    "default_worker_count",
    "get_backend",
    "KERNELS",
    "Kernel",
    "kernel_chunk_override",
    "register_kernel",
    "run_kernel",
    "MachineModel",
    "ScheduleKind",
    "chunk_ranges",
    "static_partition",
    "SimScheduler",
    "SchedulePolicy",
    "run_threads",
]
