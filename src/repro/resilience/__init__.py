"""Fault injection, recovery, and graceful degradation.

The paper's guarantees are robustness statements — Theorem 1 survives
arbitrary write races, and Section 3.3 shows the bound degrading
gracefully under under-converged scaling.  This package extends that
spirit to the *operational* failure modes of a shared-memory service:

* :mod:`repro.resilience.faults` — a seeded, deterministic
  :class:`FaultPlan` of crash/hang/slow/corrupt rules that the execution
  backends consult in ``map_ranges``.  Injection is only possible through
  the explicit :func:`injected_faults` context manager; production calls
  pay a single ``is None`` check.
* :mod:`repro.resilience.resilient` — :class:`ResilientBackend`, a
  wrapper adding per-chunk deadlines (expired attempts are abandoned on
  its runner threads), bounded retries with exponential backoff and deterministic jitter, and
  re-execution of only the failed ranges.  Exhaustion raises typed errors
  (:class:`~repro.errors.WorkerCrashError`,
  :class:`~repro.errors.DeadlineExceededError`,
  :class:`~repro.errors.RetryExhaustedError`) — never a bare hang or
  ``EOFError``.
* :mod:`repro.resilience.chaos` — the chaos harness: runs the backend
  matrix under injected fault schedules and checks that every cell either
  returns a bitwise-correct result or fails with a typed error inside its
  deadline budget (``python -m repro chaos`` / ``make chaos``).

The scaling half of the story — the support-aware degradation ladder —
lives in :func:`repro.scaling.scale_sinkhorn_knopp` and is documented in
``docs/resilience.md``.

This ``__init__`` resolves its exports lazily so that importing
:mod:`repro.parallel.backends` (which needs only the fault hook) does not
drag in the recovery layer, and to keep the import graph acyclic.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "injected_faults",
    "active_plan",
    "execute_with_fault",
    "CORRUPTED",
    "is_corrupted",
    "BackoffPolicy",
    "BackoffSchedule",
    "Deadline",
    "request_deadline",
    "current_deadline",
    "ResilientBackend",
    "ChaosOutcome",
    "ChaosReport",
    "net_schedules",
    "recovery_schedules",
    "run_chaos",
    "standard_schedules",
]

_EXPORTS = {
    "FaultKind": "repro.resilience.faults",
    "FaultSpec": "repro.resilience.faults",
    "FaultPlan": "repro.resilience.faults",
    "injected_faults": "repro.resilience.faults",
    "active_plan": "repro.resilience.faults",
    "execute_with_fault": "repro.resilience.faults",
    "CORRUPTED": "repro.resilience.faults",
    "is_corrupted": "repro.resilience.faults",
    "BackoffPolicy": "repro.resilience.backoff",
    "BackoffSchedule": "repro.resilience.backoff",
    "Deadline": "repro.resilience.deadline",
    "request_deadline": "repro.resilience.deadline",
    "current_deadline": "repro.resilience.deadline",
    "ResilientBackend": "repro.resilience.resilient",
    "ChaosOutcome": "repro.resilience.chaos",
    "ChaosReport": "repro.resilience.chaos",
    "net_schedules": "repro.resilience.chaos",
    "recovery_schedules": "repro.resilience.chaos",
    "run_chaos": "repro.resilience.chaos",
    "standard_schedules": "repro.resilience.chaos",
}


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
